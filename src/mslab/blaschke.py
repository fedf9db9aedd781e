"""Finite Blaschke products, Malmquist bases, and model-space projections.

A configuration sigma = (lam_1, ..., lam_n) of points of the open unit disc
determines the degree-n Blaschke product B = prod_j (lam_j - z)/(1 - conj(lam_j) z)
and the n-dimensional model space K_B, the orthogonal complement of B H^2 in
the Hardy space.  The Malmquist family

    e_1 = sqrt(1-|lam_1|^2) / (1 - conj(lam_1) z),
    e_k = b_{lam_1} ... b_{lam_{k-1}} sqrt(1-|lam_k|^2) / (1 - conj(lam_k) z),

is an orthonormal basis of K_B in the Hardy pairing.  It is built by the
two-term recurrence

    e_{k+1} = (s_{k+1}/s_k) (lam_k - z) e_k / (1 - conj(lam_{k+1}) z),
    s_k = sqrt(1-|lam_k|^2),

on a window of N+1 Taylor coefficients: the factor (lam_k - z) is a scale
plus a one-place shift and the division is the stable first-order recurrence
y_m = u_m + conj(lam_{k+1}) y_{m-1}.  Both act causally on coefficients, so
the stored coefficients of each element are its true Taylor coefficients up
to rounding; only the tail beyond the truncation is missing.  The elements
are the columns of one L x n coefficient matrix E, each with a
Cauchy-estimate bound on the l2 mass of its tail, and construction certifies
orthonormality of the computed Gram E^* E against the identity, refusing
truncations too short to certify.

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
from .series import TaylorSeries, policy_truncation

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

# The doubling scan stops once the power of the division ratio drops below
# this: the remaining terms are far below rounding and would only feed
# subnormal floats, whose arithmetic is slow on x86, into the passes.
_POWER_FLOOR = 1e-300

# Fixed grid of radii for the Cauchy tail estimate: rho = 1/r - g (1/r - 1)
# for the largest modulus r, so that 1 - r rho = g (1 - r) sweeps many scales.
_RHO_GAPS = np.geomspace(1e-7, 0.999, 96)


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
            if abs(p) >= 1.0:
                raise ValueError(f"configuration point outside the open disc: |{p}|={abs(p)}")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def radius(self) -> float:
        return max(abs(p) for p in self.points)

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
    if abs(lam) >= 1.0:
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

    ``matrix`` is the L x n coefficient matrix E whose column k holds the
    first L Taylor coefficients of the (k+1)-th Malmquist function, and
    ``tail_bounds[k]`` bounds the l2 mass of that column's discarded tail;
    both are read-only.  ``ortho_defect`` is the certified max deviation of
    the Hardy Gram E^* E from the identity.  A function of the model space
    is f = E a, served by :meth:`combine`; every constant is a weighted Gram
    of E.
    """

    sigma: PoleConfiguration
    matrix: np.ndarray
    tail_bounds: np.ndarray
    ortho_defect: float

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)
        self.tail_bounds.setflags(write=False)

    @property
    def trunc_len(self) -> int:
        return int(self.matrix.shape[0])

    def element(self, k: int) -> TaylorSeries:
        """The (k+1)-th Malmquist function with its tail bound."""
        return TaylorSeries(self.matrix[:, k], self.tail_bounds[k])

    def combine(self, a: np.ndarray) -> TaylorSeries:
        """f = sum_k a_k e_k as E a, with tail bound sum_k |a_k| tail_k."""
        a = np.asarray(a, dtype=np.complex128)
        if a.shape != (self.sigma.n,):
            raise ValueError(f"need {self.sigma.n} expansion coefficients")
        tail = sum(abs(c) * t for c, t in zip(a.tolist(), self.tail_bounds.tolist()))
        return TaylorSeries(self.matrix @ a, tail)


def _hardy_gram(matrix: np.ndarray) -> np.ndarray:
    return matrix.conj().T @ matrix


def _divide_by_kernel_factor(u: np.ndarray, beta: complex) -> np.ndarray:
    """Coefficients of u(z) / (1 - beta z) on the window of u, |beta| < 1.

    Solves y_m = u_m + beta y_{m-1} as a doubling scan: after the pass with
    shift d = 2^t every y_m sums its 2d-term window, so ceil(log2 L) passes
    of length L give the full recurrence, in elementwise numpy operations
    whose result does not depend on the BLAS or its thread count.
    """
    y = u.copy()
    d, power = 1, complex(beta)
    while d < y.size and abs(power) >= _POWER_FLOOR:
        y[d:] += power * y[:-d]
        d, power = 2 * d, power * power
    return y


def _cauchy_tail_bounds(points: tuple[complex, ...], N: int) -> np.ndarray:
    """Bounds on the l2 mass of the Taylor coefficients beyond N of each e_j.

    On |z| = rho in (1, 1/r), r the largest modulus among lam_1..lam_j,
    |b_lam(z)| <= (rho - |lam|)/(1 - |lam| rho) and
    |s_j/(1 - conj(lam_j) z)| <= s_j/(1 - |lam_j| rho), so |e_j| <= M_j(rho)
    there and Cauchy's estimate |c_k| <= M_j(rho) rho^-k gives the tail bound
    M_j(rho) rho^-(N+1) / sqrt(1 - rho^-2), minimised over a fixed grid of
    rho.  Since ||e_j|| = 1 the bound is also capped at one.  Elements whose
    points all sit at the origin are monomials of degree below N: tail zero.
    """
    mods = np.abs(np.asarray(points))
    radii = np.maximum.accumulate(mods)
    bounds = np.zeros(len(points))
    for r in set(radii.tolist()) - {0.0}:
        group = np.flatnonzero(radii == r)
        head = mods[: group[-1] + 1]
        rho = 1.0 / r - _RHO_GAPS * (1.0 / r - 1.0)
        # Row i: log of the sup of |b_{lam_i}| on the circle, summed over i < j.
        log_b = np.log(rho - head[:, None]) - np.log1p(-head[:, None] * rho)
        log_prefix = np.cumsum(log_b, axis=0) - log_b
        common = -(N + 1) * np.log(rho) - 0.5 * np.log1p(-(rho**-2))
        for j in group:
            log_m = 0.5 * math.log1p(-mods[j] ** 2) - np.log1p(-mods[j] * rho)
            log_tail = float(np.min(log_m + log_prefix[j] + common))
            bounds[j] = math.exp(min(log_tail, 0.0))
    return bounds


def malmquist_basis(sigma: PoleConfiguration, N: int) -> MalmquistBasis:
    """Build the Malmquist basis truncated at degree N and certify it.

    The elements come from the two-term recurrence of the module docstring
    on a window of N+1 coefficients, each division by 1 - conj(lam) z a
    doubling scan costing O(N log N); each element's ``tail_bound`` is the
    Cauchy estimate of :func:`_cauchy_tail_bounds`.

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
    pts = sigma.points
    s = [math.sqrt(1.0 - abs(lam) ** 2) for lam in pts]
    try:
        mat = np.empty((L, sigma.n), dtype=np.complex128)
    except (MemoryError, ValueError) as exc:
        raise CertificationError(
            f"truncation {N} needs a {L} x {sigma.n} coefficient matrix "
            f"that cannot be allocated: {exc}"
        ) from exc
    e = np.zeros(L, dtype=np.complex128)
    e[0] = s[0]
    for j, lam in enumerate(pts):
        if j > 0:
            # (lam_{j-1} - z) e_{j-1}, rescaled from s_{j-1} to s_j.
            u = pts[j - 1] * e
            u[1:] -= e[:-1]
            e = u * (s[j] / s[j - 1])
        e = _divide_by_kernel_factor(e, lam.conjugate())
        mat[:, j] = e
    gram = _hardy_gram(mat)
    defect = float(np.max(np.abs(gram - np.eye(sigma.n))))
    if defect > ORTHO_TOL:
        raise CertificationError(
            f"truncation {N} too small to certify orthonormality "
            f"(Gram defect {defect:.3e} > {ORTHO_TOL:.0e})"
        )
    return MalmquistBasis(sigma, mat, _cauchy_tail_bounds(pts, N), defect)


def malmquist_basis_auto(
    sigma: PoleConfiguration, trunc: int | None = None
) -> MalmquistBasis:
    """Basis at the policy truncation, doubling up to twice if certification
    fails; a truncation that cannot be allocated is refused at once, since a
    doubled one only asks for more memory."""
    if trunc is not None:
        return malmquist_basis(sigma, trunc)
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

    The pairing runs over coefficients shared with the basis truncation; the
    result's tail bound collects the elementwise tails weighted by the
    expansion coefficients plus the pairing error from f's own tail.
    """
    L = min(f.trunc_len, basis.trunc_len)
    pf = basis.combine(basis.matrix[:L].conj().T @ f.coeffs[:L])
    return TaylorSeries(pf.coeffs, pf.tail_bound + f.tail_bound)


_ONE_POINT_RE = re.compile(r"^one-point:n=(\d+),r=([0-9.eE+-]+)$")
_RANDOM_RE = re.compile(
    r"^random:n=(\d+),r=([0-9.eE+-]+),count=(\d+)(?:,seed=(\d+))?$"
)


def parse_sigma_spec(text: str, default_seed: int = 0) -> list[PoleConfiguration]:
    """Parse a configuration spec string into one or more configurations.

    Grammar (documented in the CLI help as well):

    * explicit points: ``re,im;re,im;...`` e.g. ``0.3,0;-0.2,0.1``
    * repeated real point: ``one-point:n=<k>,r=<x>``
    * seeded samples, uniform in the disc of radius r:
      ``random:n=<k>,r=<x>,count=<m>[,seed=<s>]`` (seed defaults to
      ``default_seed``); expands to ``count`` configurations.
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
        seed = int(m.group(4)) if m.group(4) is not None else default_seed
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
