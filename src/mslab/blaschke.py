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
rounding; only the tail beyond the truncation is missing, and it is known
exactly.  Put A = conj(T) and c = conj(x_0), so that row m of conj(E) is
A^m c.  The full basis is orthonormal, I = sum_{m>=0} A^m c c^* (A^*)^m =
c c^* + A A^*, and summing I - A A^* = c c^* over the first L rows gives

    I - E^* E = A^L (A^*)^L,    so    n - ||E||_F^2 = ||T^L||_F^2.

The build stops on that identity: it takes the smallest L with
||T^L||_F^2 <= ``TAIL_TOL``, no guessed truncation and no retry.  The same
sum with weights gives the dropped tails of the weighted Grams, with G_1
and G_2 the full Grams of weights k and k^2:

    sum_{m>=L} m   A^m c c^* (A^*)^m = A^L (L I + G_1) (A^*)^L,
    sum_{m>=L} m^2 A^m c c^* (A^*)^m = A^L (L^2 I + 2 L G_1 + G_2) (A^*)^L.

Construction also certifies orthonormality of the computed Gram E^* E
against the identity, which only rounding can break at this tail.  Since
each e_j has unit norm, the diagonal of that certificate also bounds the l2
mass of every column's discarded tail by sqrt(ortho_defect), up to rounding.

The weighted Grams of the whole basis need no rows at all.  With weights k
and k^2 they are W = sum_m m A^m c c^* (A^*)^m and V = sum_m m^2 A^m c c^*
(A^*)^m, and telescoping against I = c c^* + A A^* gives the two Stein
equations

    W - A W A^* = A A^*,        V - A V A^* = 2 W - A A^*,

so W = sum_{m>=1} A^m (A^*)^m.  :class:`ShiftGrams` solves them, n x n
with no truncation and no tail, by :func:`mslab.hermitian.stein_solve`;
A is lower triangular with diagonal lam, so the solver's denominators
1 - lam_i conj(lam_j) come straight from the points.  For a residual
R = X~ - A X~ A^* - (right-hand side) the error of X~ is
sum_m A^m R (A^*)^m, at most ||R|| (1 + ||W||) in norm, since
sum_{m>=0} A^m (A^*)^m = I + W.

A function of K_B is E a for a coefficient vector a, and the orthogonal
projection onto K_B is E E^* in coefficient space.  Everything is invariant
under rotations of the disc up to unimodular column phases, which downstream
constants never see.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError
from .hermitian import stein_denominators, stein_solve
from .series import _POWER_FLOOR, TaylorSeries

__all__ = [
    "PoleConfiguration",
    "MalmquistBasis",
    "ShiftGrams",
    "blaschke_factor_eval",
    "blaschke_product_eval",
    "malmquist_basis",
    "model_projection",
    "parse_sigma_spec",
]

# Largest Gram deviation from the identity accepted as orthonormal.
ORTHO_TOL = 1e-10

# Largest squared Frobenius norm of the dropped tail I - E^* E accepted.
TAIL_TOL = 1e-20

# No array of more points can be indexed, whatever the memory: n complex128
# values take 16 n bytes.
_MAX_POINTS = sys.maxsize // np.dtype(np.complex128).itemsize


def _check_point_count(n: int) -> None:
    """Raise ``MemoryError`` for a point count no array can hold, before
    anything is allocated for it."""
    if n > _MAX_POINTS:
        raise MemoryError(f"cannot allocate {n} points")


@dataclass(frozen=True)
class PoleConfiguration:
    """Finite multiset of disc points defining a model space.

    Points are kept in the given order (multiplicities are simply repeated
    entries).  Construction describes them once: ``radius`` is the largest
    modulus, and ``is_one_point`` says whether all points coincide,
    sigma = {lam, ..., lam}.
    """

    points: tuple[complex, ...]
    radius: float = field(init=False, repr=False, compare=False)
    is_one_point: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Whole-tuple passes: a one-point configuration of n points costs no
        # Python-level step per point.
        pts = tuple(map(complex, self.points))
        if len(pts) == 0:
            raise ValueError("a configuration needs at least one point")
        distinct = set(pts)
        moduli = list(map(abs, distinct))
        if not all(map((1.0).__gt__, moduli)):  # a NaN modulus fails too
            p = next(p for p in pts if not abs(p) < 1.0)
            raise ValueError(f"configuration point outside the open disc: |{p}|={abs(p)}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "radius", max(moduli))
        object.__setattr__(self, "is_one_point", len(distinct) == 1)

    @property
    def n(self) -> int:
        return len(self.points)

    @classmethod
    def one_point(cls, n: int, lam: complex) -> "PoleConfiguration":
        if n < 1:
            raise ValueError("need n >= 1")
        _check_point_count(n)
        return cls((complex(lam),) * n)

    def rotated(self, theta: float) -> "PoleConfiguration":
        w = complex(math.cos(theta), math.sin(theta))
        return PoleConfiguration(tuple(w * p for p in self.points))

    def key(self) -> str:
        """Canonical text form, parseable back by :func:`parse_sigma_spec`.

        A one-point configuration formats its point once and repeats it,
        unless its points differ in the sign of a zero part, which == does
        not see (``0,0;-0,0`` is one point); then each point prints its own.
        """
        first = self.points[0]
        if self.is_one_point and _zero_signs_agree(self.points):
            return ";".join([f"{first.real:.17g},{first.imag:.17g}"] * self.n)
        return ";".join(f"{p.real:.17g},{p.imag:.17g}" for p in self.points)


def _zero_signs_agree(points: tuple[complex, ...]) -> bool:
    """Whether points equal under == also agree in the sign of every zero
    part, so that they print alike."""
    first = points[0]
    if first.real == 0.0 and len({math.copysign(1.0, p.real) for p in points}) > 1:
        return False
    return first.imag != 0.0 or len({math.copysign(1.0, p.imag) for p in points}) == 1


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


def _rows(count: int, needed: int, n: int) -> np.ndarray:
    """An uninitialized ``count`` x n buffer of coefficient rows, or a
    :class:`CertificationError` naming the truncation of at least ``needed``
    rows that asked for it."""
    try:
        return np.empty((count, n), dtype=np.complex128)
    except (MemoryError, ValueError) as exc:
        raise CertificationError(
            f"truncation {needed} or longer needs a {count} x {n} coefficient "
            f"buffer that cannot be allocated: {exc}"
        ) from exc


def _frobenius(M: np.ndarray) -> float:
    return math.sqrt(np.vdot(M, M).real)


def _row_lower_bound(sigma: PoleConfiguration) -> int:
    """The fewest rows :func:`malmquist_basis` can stop at,
    max(n, ceil(ln TAIL_TOL / (2 ln r))): L rows carry at most L dimensions,
    and ||T^L||_F >= r^L for the spectral radius r = ``sigma.radius`` of T."""
    n, r = sigma.n, sigma.radius
    if r == 0.0:
        return n
    return max(n, math.ceil(math.log(TAIL_TOL) / (2.0 * math.log(r))))


class ShiftGrams:
    """The weight-k and weight-k^2 Grams W and V of the whole Malmquist basis
    of a configuration, from the two Stein equations on A = conj(T) of the
    module docstring; no row of E is formed and nothing is truncated.

    Construction certifies the model identity: the Frobenius norm of
    I - A A^* - c c^* is ``model_defect``, refused above ``ORTHO_TOL``.
    :attr:`bergman` (W, the Gram of C_B^2) is solved on first read and
    :attr:`hardy` (V, of C_H^2) reads it for its right-hand side; each is
    refused when its relative Stein residual ||R||_F / ||X~||_F exceeds
    ``ORTHO_TOL``.  Real points give real Grams.
    """

    def __init__(self, sigma: PoleConfiguration) -> None:
        x0, T = _compressed_shift(sigma.points)
        A, c = T.conj(), x0.conj()
        D = stein_denominators(np.asarray(sigma.points))
        if not A.imag.any():
            A, c, D = A.real, c.real, D.real
        self._A, self._AH, self._D = A, A.conj().T, D
        self._AA = A @ self._AH
        resid = np.eye(sigma.n) - self._AA - np.outer(c, c.conj())
        self.model_defect = _frobenius(resid)
        if self.model_defect > ORTHO_TOL:
            raise CertificationError(
                f"compressed shift fails the model identity I = AA* + cc* "
                f"(defect {self.model_defect:.3e} > {ORTHO_TOL:.0e})"
            )

    def _solve(self, rhs: np.ndarray, name: str) -> np.ndarray:
        X = stein_solve(self._A, rhs, self._D)
        resid = _frobenius(X - self._A @ X @ self._AH - rhs) / _frobenius(X)
        if not resid <= ORTHO_TOL:
            raise CertificationError(
                f"Stein solve of the {name} Gram fails its certificate "
                f"(relative residual {resid:.3e} > {ORTHO_TOL:.0e})"
            )
        return X

    @functools.cached_property
    def bergman(self) -> np.ndarray:
        """W, the solution of W - A W A^* = A A^*."""
        return self._solve(self._AA, "Bergman")

    @functools.cached_property
    def hardy(self) -> np.ndarray:
        """V, the solution of V - A V A^* = 2 W - A A^*."""
        return self._solve(2.0 * self.bergman - self._AA, "Hardy")


def malmquist_basis(sigma: PoleConfiguration) -> MalmquistBasis:
    """Build the Malmquist basis at its smallest certified row count.

    E comes from the row recurrence x_{m+1} = T x_m of the module docstring,
    taken by doubling: with d rows known, rows d..2d-1 are E[:d] (T^d)^T and
    the power is then squared, O(L n^2) work in all, the order of the Gram
    certificate E^* E itself.  The doubling stops at the first d with
    ||T^d||_F^2 <= ``TAIL_TOL``, and L is the smallest row count whose
    dropped tail ||T^L||_F^2 = ||T^d||_F^2 + sum_{L<=m<d} |x_m|^2 is at most
    ``TAIL_TOL``.  No L below n stops (L rows carry at most L dimensions),
    nor any below ceil(ln TAIL_TOL / (2 ln r)), since ||T^L||_F >= r^L for
    the spectral radius r = ``sigma.radius`` of T; that many rows, rounded
    up to the power of two the doubling reaches anyway, are allocated before
    any product (:func:`_row_lower_bound`).  The kept rows are floored
    (:func:`_floored`) once, after the trim, so neither the certificate nor
    a weighted Gram multiplies subnormals.

    Raises
    ------
    CertificationError
        If the coefficient matrix of the truncation cannot be allocated
        (checked before the first product and before every growth), or if
        the Hardy Gram of the stored rows deviates from the identity by more
        than ``ORTHO_TOL`` in any entry, which only rounding can cause.
    """
    n = sigma.n
    lower = _row_lower_bound(sigma)
    mat = _rows(1 << (lower - 1).bit_length(), lower, n)
    mat[0], T = _compressed_shift(sigma.points)
    # Rows multiply from the left, so the powers are kept transposed, as a
    # row-major copy: the layout picks the BLAS kernel and so the rounding.
    power = T.T.copy()
    d = 1
    while d < lower or (tail := float(np.vdot(power, power).real)) > TAIL_TOL:
        if 2 * d > mat.shape[0]:
            grown = _rows(2 * d, d + 1, n)
            grown[:d] = mat[:d]
            mat = grown
        np.dot(mat[:d], power, out=mat[d : 2 * d])
        power = power @ power
        d *= 2
    # ||T^m||_F^2 for m = d/2..d-1, summed from the end of the last block;
    # ||T^(d/2)||_F^2 > TAIL_TOL, so L lies in (d/2, d].
    lo = d // 2
    parts = mat[lo:d].view(np.float64)
    row_sq = np.einsum("ij,ij->i", parts, parts)
    tails = np.cumsum(row_sq[::-1])[::-1] + tail
    mat = _floored(mat[: lo + int(np.count_nonzero(tails > TAIL_TOL))])
    gram = _hardy_gram(mat)
    defect = float(np.max(np.abs(gram - np.eye(n))))
    if defect > ORTHO_TOL:
        raise CertificationError(
            f"truncation {mat.shape[0]} fails to certify orthonormality "
            f"(Gram defect {defect:.3e} > {ORTHO_TOL:.0e})"
        )
    return MalmquistBasis(sigma, mat, defect)


def model_projection(f: TaylorSeries, basis: MalmquistBasis) -> TaylorSeries:
    """Orthogonal projection of f onto the model space, P f = sum (f, e_k) e_k.

    The pairing runs over every coefficient of f: past the basis truncation
    L, E is continued by x_{m+L} = T^L x_m, a block of L rows at a time, so
    a window of f longer than E loses nothing (the dropped part of each e_k
    is up to sqrt(``TAIL_TOL``) in norm, far above rounding).  P f has the
    longer of the two windows.
    """
    E = basis.matrix
    if f.trunc_len > basis.trunc_len:
        _, T = _compressed_shift(basis.sigma.points)
        step = np.linalg.matrix_power(T, basis.trunc_len).T
        blocks = [E]
        for _ in range(-(-f.trunc_len // basis.trunc_len) - 1):
            blocks.append(_floored(blocks[-1] @ step))
        E = np.concatenate(blocks)[: f.trunc_len]
    return TaylorSeries(E @ (E[: f.trunc_len].conj().T @ f.coeffs))


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
        _check_point_count(n)
        _check_point_count(count * n)  # before a sample is drawn
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
