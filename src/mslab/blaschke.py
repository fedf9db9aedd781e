"""Finite Blaschke products, Malmquist bases, and model-space projections.

A configuration sigma = (lam_1, ..., lam_n) of points of the open unit disc
determines the degree-n Blaschke product B = prod_j (lam_j - z)/(1 - conj(lam_j) z)
and the n-dimensional model space K_B, the orthogonal complement of B H^2 in
the Hardy space.  The Malmquist family

    e_1 = sqrt(1-|lam_1|^2) / (1 - conj(lam_1) z),
    e_k = b_{lam_1} ... b_{lam_{k-1}} sqrt(1-|lam_k|^2) / (1 - conj(lam_k) z),

is an orthonormal basis of K_B in the Hardy pairing.  Its first L Taylor
coefficients form the columns of one L x n coefficient matrix E, whose row m
holds the m-th coefficients x_m of e_1..e_n.  Since K_B is invariant under
the backward shift f -> (f - f(0))/z, the rows obey x_{m+1} = T x_m for the
compressed shift T, an n x n lower-triangular matrix.  Taking coefficient m+1
of the two-term recurrence

    (1 - conj(lam_k) z) e_k = (s_k/s_{k-1}) (lam_{k-1} - z) e_{k-1},
    s_k = sqrt(1-|lam_k|^2),

gives it in closed form (j, k = 1..n):

    x_0[j]  = e_j(0) = s_j lam_1 ... lam_{j-1},
    T[j, j] = conj(lam_j),
    T[j, k] = -s_j s_k prod_{k<i<j} lam_i   for j > k.

T is the matrix, in the orthonormal basis e_1..e_n, of the compression of
the backward shift to K_B, so ||T||_2 <= 1 and its powers never grow.  E is
built by doubling: with the first d rows known, E[d:2d] = E[:d] (T^d)^T and
the power is then squared, ceil(log2 L) matrix products whatever n is.  The
recurrence is exact, so every stored row is a true Taylor coefficient up to
rounding; only the tail beyond the truncation is missing.  Construction
certifies orthonormality of the computed Gram E^* E against the identity,
refusing truncations too short to certify.  Since each e_j has unit norm,
the diagonal of that certificate also bounds the l2 mass of every column's
discarded tail by sqrt(ortho_defect), up to rounding.

A function of K_B is E a for a coefficient vector a, and the orthogonal
projection onto K_B is E E^* in coefficient space.  Everything is invariant
under rotations of the disc up to unimodular column phases, which downstream
constants never see.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError
from .series import _POWER_FLOOR, TaylorSeries, policy_truncation

__all__ = [
    "PoleConfiguration",
    "MalmquistBasis",
    "blaschke_factor_eval",
    "blaschke_product_eval",
    "malmquist_basis",
    "malmquist_basis_auto",
    "model_projection",
    "parse_sigma_spec",
]

# Largest Gram deviation from the identity accepted as orthonormal.
ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class PoleConfiguration:
    """Finite multiset of disc points defining a model space.

    Points are kept in the given order (multiplicities are simply repeated
    entries); the radius is the largest modulus.
    """

    points: tuple[complex, ...]

    def __post_init__(self) -> None:
        pts = tuple(complex(p) for p in self.points)
        if len(pts) == 0:
            raise ValueError("a configuration needs at least one point")
        for p in pts:
            if not abs(p) < 1.0:
                raise ValueError(f"configuration point outside the open disc: |{p}|={abs(p)}")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def radius(self) -> float:
        return max(abs(p) for p in self.points)

    @property
    def is_one_point(self) -> bool:
        """All points coincide: sigma = {lam, ..., lam}."""
        return len(set(self.points)) == 1

    @classmethod
    def one_point(cls, n: int, lam: complex) -> "PoleConfiguration":
        if n < 1:
            raise ValueError("need n >= 1")
        return cls((complex(lam),) * n)

    def rotated(self, theta: float) -> "PoleConfiguration":
        w = complex(math.cos(theta), math.sin(theta))
        return PoleConfiguration(tuple(w * p for p in self.points))

    def key(self) -> str:
        """Canonical text form, parseable back by :func:`parse_sigma_spec`."""
        return ";".join(f"{p.real:.17g},{p.imag:.17g}" for p in self.points)


def blaschke_factor_eval(lam: complex, z: complex) -> complex:
    """Value of (lam - z)/(1 - conj(lam) z); involution of the disc."""
    lam, z = complex(lam), complex(z)
    if not abs(lam) < 1.0:
        raise ValueError(f"factor zero must lie inside the open disc: |lam|={abs(lam)}")
    den = 1.0 - np.conj(lam) * z
    if abs(den) < 1e-15:
        raise ValueError("evaluation at the pole of the factor")
    return complex((lam - z) / den)


def blaschke_product_eval(sigma: PoleConfiguration, z: complex) -> complex:
    out = complex(1.0)
    for p in sigma.points:
        out *= blaschke_factor_eval(p, z)
    return out


@dataclass(frozen=True)
class MalmquistBasis:
    """Orthonormal basis of the model space of a configuration, held as E.

    ``matrix`` is the read-only L x n coefficient matrix E whose column k
    holds the first L Taylor coefficients of the (k+1)-th Malmquist
    function.  ``ortho_defect`` is the certified max deviation of the Hardy
    Gram E^* E from the identity.  A function of the model space is f = E a,
    served by :meth:`combine`; every constant is a weighted Gram of E.
    """

    sigma: PoleConfiguration
    matrix: np.ndarray
    ortho_defect: float

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)

    @property
    def trunc_len(self) -> int:
        return int(self.matrix.shape[0])

    def element(self, k: int) -> TaylorSeries:
        """The (k+1)-th Malmquist function, column k of E."""
        return TaylorSeries(self.matrix[:, k])

    def combine(self, a: np.ndarray) -> TaylorSeries:
        """f = sum_k a_k e_k as E a."""
        a = np.asarray(a, dtype=np.complex128)
        if a.shape != (self.sigma.n,):
            raise ValueError(f"need {self.sigma.n} expansion coefficients")
        return TaylorSeries(self.matrix @ a)


def _hardy_gram(matrix: np.ndarray) -> np.ndarray:
    return matrix.conj().T @ matrix


def _compressed_shift(points: tuple[complex, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Row 0 of E and the compressed shift T of the module docstring, both
    indexed from 0.

    The products of points run as cumulative products, never as quotients,
    so points at the origin need no special case.
    """
    lam = np.asarray(points, dtype=np.complex128)
    s = np.sqrt(1.0 - np.abs(lam) ** 2)
    # before[j] = lam_{j-1} (one for j = 0): its prefix products give x_0.
    before = np.concatenate(([1.0], lam[:-1]))
    x0 = s * before.cumprod()
    idx = np.arange(lam.size)
    below = idx[:, None] - idx
    # Running down column k, the product picks up lam_{j-1} from j = k+2 on,
    # which leaves prod_{k<i<j} lam_i in row j.
    between = np.where(below > 1, before[:, None], 1.0).cumprod(axis=0)
    T = np.where(below > 0, -s[:, None] * s * between, 0.0)
    T.flat[:: lam.size + 1] = lam.conj()
    return x0, T


def _floored(block: np.ndarray) -> np.ndarray:
    """Zero the real and imaginary parts below ``_POWER_FLOOR``, in place:
    far below rounding, they would only feed subnormal floats, whose
    arithmetic is slow on x86, into the matrix products that follow."""
    parts = block.view(np.float64)
    parts[np.abs(parts) < _POWER_FLOOR] = 0.0
    return block


def malmquist_basis(sigma: PoleConfiguration, N: int) -> MalmquistBasis:
    """Build the Malmquist basis truncated at degree N and certify it.

    E comes from the row recurrence x_{m+1} = T x_m of the module docstring,
    taken by doubling: ceil(log2 L) products of a block of known rows with a
    power of T, with the n x n power squared in between, O(L n^2) work in
    all, the order of the Gram certificate E^* E itself.  Every power and
    every block of rows is floored (:func:`_floored`) as it is written, so
    no later product, certificate or weighted Gram multiplies subnormals.

    Raises
    ------
    CertificationError
        If the Hardy Gram of the truncated elements deviates from the
        identity by more than ``ORTHO_TOL`` in any entry, i.e. the truncation
        is too short to certify orthonormality, or if the coefficient matrix
        of the truncation cannot be allocated.
    """
    if N + 1 <= sigma.n:
        raise CertificationError(
            f"truncation {N} cannot carry an {sigma.n}-dimensional space"
        )
    L = N + 1
    try:
        mat = np.empty((L, sigma.n), dtype=np.complex128)
    except (MemoryError, ValueError) as exc:
        raise CertificationError(
            f"truncation {N} needs a {L} x {sigma.n} coefficient matrix "
            f"that cannot be allocated: {exc}"
        ) from exc
    mat[0], T = _compressed_shift(sigma.points)
    _floored(mat[:1])
    # Rows multiply from the left, so the powers are kept transposed.
    power = _floored(T.T.copy())
    d = 1
    while d < L:
        rows = min(d, L - d)
        _floored(np.dot(mat[:rows], power, out=mat[d : d + rows]))
        d *= 2
        if d < L:
            power = _floored(power @ power)
    gram = _hardy_gram(mat)
    defect = float(np.max(np.abs(gram - np.eye(sigma.n))))
    if defect > ORTHO_TOL:
        raise CertificationError(
            f"truncation {N} too small to certify orthonormality "
            f"(Gram defect {defect:.3e} > {ORTHO_TOL:.0e})"
        )
    return MalmquistBasis(sigma, mat, defect)


def malmquist_basis_auto(sigma: PoleConfiguration) -> MalmquistBasis:
    """Basis at the policy truncation, doubling up to twice if certification
    fails; a truncation that cannot be allocated is refused at once, since a
    doubled one only asks for more memory.  A fixed truncation is
    :func:`malmquist_basis`."""
    N = policy_truncation(sigma.n, sigma.radius)
    last: CertificationError | None = None
    for _ in range(3):
        try:
            return malmquist_basis(sigma, N)
        except CertificationError as exc:
            if isinstance(exc.__cause__, (MemoryError, ValueError)):
                raise
            last = exc
            N *= 2
    raise CertificationError(f"certification failed up to truncation {N // 2}: {last}")


def model_projection(f: TaylorSeries, basis: MalmquistBasis) -> TaylorSeries:
    """Orthogonal projection of f onto the model space, P f = sum (f, e_k) e_k.

    The pairing runs over coefficients shared with the basis truncation.
    """
    L = min(f.trunc_len, basis.trunc_len)
    return basis.combine(basis.matrix[:L].conj().T @ f.coeffs[:L])


_ONE_POINT_RE = re.compile(r"^one-point:n=(\d+),r=([0-9.eE+-]+)$")
_RANDOM_RE = re.compile(
    r"^random:n=(\d+),r=([0-9.eE+-]+),count=(\d+)(?:,seed=(\d+))?$"
)


def parse_sigma_spec(text: str) -> list[PoleConfiguration]:
    """Parse a configuration spec string into one or more configurations.

    Grammar (documented in the CLI help as well):

    * explicit points: ``re,im;re,im;...`` e.g. ``0.3,0;-0.2,0.1``
    * repeated real point: ``one-point:n=<k>,r=<x>``
    * seeded samples, uniform in the disc of radius r:
      ``random:n=<k>,r=<x>,count=<m>[,seed=<s>]`` (seed defaults to 0);
      expands to ``count`` configurations.
    """
    text = text.strip().replace("−", "-")
    if not text:
        raise ValueError("empty configuration spec")
    m = _ONE_POINT_RE.match(text)
    if m:
        n, r = int(m.group(1)), float(m.group(2))
        if not 0.0 <= r < 1.0:
            raise ValueError(f"one-point radius must lie in [0, 1): {r}")
        return [PoleConfiguration.one_point(n, r)]
    m = _RANDOM_RE.match(text)
    if m:
        n, r, count = int(m.group(1)), float(m.group(2)), int(m.group(3))
        seed = int(m.group(4) or 0)
        if not 0.0 <= r < 1.0:
            raise ValueError(f"random radius must lie in [0, 1): {r}")
        if count < 1:
            raise ValueError("random count must be positive")
        rng = np.random.default_rng(seed)
        configs = []
        for _ in range(count):
            rad = r * np.sqrt(rng.uniform(0.0, 1.0, size=n))
            ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
            pts = rad * np.exp(1j * ang)
            configs.append(PoleConfiguration(tuple(complex(p) for p in pts)))
        return configs
    if text.startswith(("one-point:", "random:")):
        raise ValueError(f"malformed configuration spec: {text!r}")
    points = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 're,im' pair, got {chunk!r}")
        try:
            re_part, im_part = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad number in configuration spec: {chunk!r}") from exc
        points.append(complex(re_part, im_part))
    return [PoleConfiguration(tuple(points))]


def multiplicity_groups(sigma: PoleConfiguration) -> list[tuple[complex, int]]:
    """Group equal points preserving first-occurrence order.

    Distinct points closer than 1e-8 are rejected: the constraint systems
    they produce are numerically indistinguishable from a multiplicity yet
    not treated as one.
    """
    groups: list[tuple[complex, int]] = []
    for p in sigma.points:
        for i, (q, m) in enumerate(groups):
            if p == q:
                groups[i] = (q, m + 1)
                break
            if abs(p - q) < 1e-8:
                raise CertificationError(
                    f"distinct points {p} and {q} closer than 1e-8; "
                    "merge them into a multiplicity instead"
                )
        else:
            groups.append((p, 1))
    return groups
