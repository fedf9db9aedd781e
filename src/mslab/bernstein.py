"""Derivative-operator constants on model spaces: the one-point banded route,
with bound envelopes.

For a configuration sigma the constant of interest is the norm of
differentiation from the model space (Hardy norm on the source) into either
the Bergman or the Hardy space,

    C(sigma, target) = sup { ||f'||_target : f in K_B, ||f||_Hardy <= 1 }.

On any configuration C^2 is the top eigenvalue of a weighted Gram of the
Malmquist coefficient matrix E, the basis route of
:func:`mslab.interpolation.constant_from_basis`.  The same n x n Grams
solve two Stein equations on the compressed shift, W - A W A^* = A A^* for
C_B^2 and V - A V A^* = 2 W - A A^* for C_H^2 (:mod:`mslab.blaschke`),
which need no E, no truncation and no tail: the Stein route, taken by
:class:`mslab.interpolation.ModelSpace` wherever E would need many rows per
point.

On the one-point family sigma = {lam, ..., lam}, lam = r e^{i theta}, where
the inequality is sharp as n -> infinity and r -> 1, C_B, C_H and the
interpolation constant I of :mod:`mslab.interpolation` all come from n x n
banded Grams: no basis, no truncation, no dense product.  With
q = (1 - r)(1 + r), accurate as r -> 1, the unitary substitution
f(z) -> sqrt(q)/(1 - r v) f(b_r(v)), z = b_r(v), sends the Malmquist element
e_{k+1} of the centre r to v^k, so f = sum x_k e_{k+1} has coordinates x in
both bases, and with g(v) = sum x_k v^k:

    ||f'||_Bergman^2 = sum_k (k+1) |x_{k+1} - r x_k|^2 / q    (x_n = 0),
    ||f'||_Hardy     = ||(1 - r v)^2 g' - r (1 - r v) g||_Hardy / q,
    ||f||_Bergman^2  = q ||g/(1 - r v)||_Bergman^2.

The first two are squared norms of banded maps D x, so C^2 is the top
eigenvalue of D^T diag(w) D.  For I, the Dirichlet quotient norm of a trace
is dual to the Bergman norm in the Hardy pairing, so I^2 = 1/lambda_min of
the Bergman Gram E^* diag(1/(k+1)) E.  The coefficients of g/(1 - r v) are
h = R^{-1} x, R = I - r S with S the subdiagonal shift, continuing as
h_k = r^{k-n+1} h_{n-1} for k >= n-1; so that Gram is q R^{-T} Delta R^{-1},
Delta = diag(1/1, ..., 1/(n-1), sigma_n) with the whole tail folded into
sigma_n = sum_{m>=0} r^{2m}/(n+m) (:func:`_corner_sum`), and
I^2 = lambda_max(R Delta^{-1} R^T) / q.  Rotating lam by theta multiplies
coordinate k by e^{-i k theta} and leaves every eigenvalue alone.

:func:`_one_point_bands` writes the three Grams from their bands; with
j = 0, ..., n-1 and w_{-1} = 0:

    C_B^2, w_j = (j+1)/q:          G[j, j]   = r^2 w_j + w_{j-1},
                                   G[j, j+1] = -r w_j;
    C_H^2, all over q^2:           G[j, j]   = j^2 + r^2 (2j+1)^2 + r^4 (j+1)^2,
                                   G[j, j+1] = -r (j+1)(2j+1) - r^3 (j+1)(2j+3),
                                   G[j, j+2] = r^2 (j+1)(j+2);
    I^2, w_j = d_j/q with          G[j, j]   = w_j + r^2 w_{j-1},
    d = (1, ..., n-1, 1/sigma_n):  G[j, j+1] = -r w_j.

:func:`_one_point_constant` is the route: one eigen-solve of those bands at
r = |lam|, its extremal turned back to lam.  Below n = ``PERRON_MIN_N`` (64)
that is LAPACK's dense eigh, which is faster there; from n = 64 on it reads
the bands alone (:func:`mslab.hermitian._max_band_eigenpair`).  With
S = diag((-1)^k) every band of S G S is nonnegative, so Noda's
shift-and-invert iteration at Collatz-Wielandt shifts finds the top pair in
about seven O(n) banded solves at any n and r, and its last shift, an upper
bound on the top eigenvalue, certifies that the value is the top one.
:func:`_corner_sum` sums in chunks, so n = 10^6 near r = 1 stays in
bounded memory too.
:class:`mslab.interpolation.ModelSpace` takes it for all three constants
when sigma is one point, each a :class:`Constant` with ``trunc_len`` = n,
and :func:`asymptotic_ratio_sweep` reads it at the centre r >= 0; the basis
route returns the same :class:`Constant` off any built basis, which keeps E
the test oracle of the banded and Stein routes.

The closed-form envelopes bracketing the one-point family, the growth
comparison for the Hardy target, the audit of a closed form that fails
numerically, and the test-function scaffolding used to prove the envelopes
are all collected here, each evaluated by at least two independent routes in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blaschke import PoleConfiguration, _check_point_count, malmquist_basis
from .hermitian import Eigenpair, _from_bands, _max_band_eigenpair, max_eigenpair
from .series import (
    NormKind,
    TaylorSeries,
    differentiate,
    norm,
    norm_sq,
    polynomial,
)

__all__ = [
    "BoundEnvelope",
    "Constant",
    "eq4_envelope",
    "z2_upper_hardy",
    "en_prime_bergman_audit",
    "step2_test_function",
    "default_alternation_depth",
    "step2_expansion_check",
    "asymptotic_ratio_sweep",
]


@dataclass(frozen=True)
class BoundEnvelope:
    """Closed-form bracket [lower, upper] tagged by the formula it came from."""

    lower: float | None
    upper: float | None
    formula_id: str

    def __post_init__(self) -> None:
        if self.lower is not None and self.upper is not None:
            if self.lower > self.upper + 1e-12:
                raise ValueError(
                    f"envelope {self.formula_id} inverted: {self.lower} > {self.upper}"
                )


@dataclass(frozen=True)
class Constant:
    """One constant of a model space, C_B, C_H or I, read off the top
    eigenpair of its Gram.

    ``constant`` is the square root of the top eigenvalue; ``extremal``, the
    read-only eigenvector, holds the Malmquist coordinates of a unit-norm f
    attaining it; ``trunc_len`` is the series length behind the Gram: the
    row count L of E on the basis route, and n on the banded and Stein
    routes, which truncate no series; ``residual`` is the eigenpair's
    certificate.  On the
    banded route ``extremal`` is the real float64 eigenvector when the
    centre's angle theta = atan2(Im lam, Re lam) is 0, and complex, turned
    by e^{-i k theta}, otherwise.
    """

    constant: float
    extremal: np.ndarray
    trunc_len: int
    residual: float

    @classmethod
    def from_pair(
        cls, pair: Eigenpair, trunc_len: int, vector: np.ndarray | None = None
    ) -> "Constant":
        """The constant of ``pair``, with ``vector``, an array it then owns,
        in place of a copy of its eigenvector when the coordinates have been
        transformed."""
        vec = np.array(pair.vector) if vector is None else vector
        vec.setflags(write=False)
        return cls(math.sqrt(max(pair.value, 0.0)), vec, trunc_len, pair.residual)


def _check_target(target: NormKind) -> None:
    if target not in (NormKind.BERGMAN, NormKind.HARDY):
        raise ValueError(f"target must be Bergman or Hardy, got {target}")


_EPS = float(np.finfo(np.float64).eps)


# Terms of the corner sum per array: about 1 MB of temporaries, however many
# terms r -> 1 asks for.
_CORNER_CHUNK = 1 << 15


def _corner_terms(r: float, start: int, stop: int, shift: int):
    """r^{2m}/(shift + m) for m = start, ..., stop - 1, in arrays of at most
    ``_CORNER_CHUNK`` terms."""
    for lo in range(start, stop, _CORNER_CHUNK):
        m = np.arange(lo, min(lo + _CORNER_CHUNK, stop), dtype=np.float64)
        yield np.power(r, 2.0 * m) / (shift + m)


def _corner_sum(n: int, r: float) -> float:
    """sigma_n = sum_{m>=0} r^{2m}/(n+m), the Lerch transcendent
    Phi(r^2, 1, n), to a few units of rounding for every r in [0, 1).

    Where n (1 - r^2) >= 1 or r^2 <= 1/2 the series is summed to its first
    M terms, M the least with r^{2M} <= eps (1 - r^2)/4: the remainder
    bound r^{2M}/((n+M)(1-r^2)) is then at most eps/(4n), a quarter unit of
    rounding of a sum that is at least 1/n.  M is at most 56 where
    r^2 <= 1/2, and at most n log(4n/eps) + 1, a few dozen n, where
    n (1 - r^2) >= 1 (as -log r^2 >= 1 - r^2 >= 1/n).  r = 0 gives 1/n
    exactly.  Elsewhere r^{-2n} (-log(1-r^2) - sum_{k<n} r^{2k}/k) is used:
    there r^2 > 1/2, so the logarithm of 1 - r^2 <= 1/2 is well conditioned,
    and r^{2n} >= e^{-3/2} for n >= 2, so the subtraction cancels no more
    than a factor of order log n (n = 1 subtracts nothing).  1 - r^2 is
    formed as (1-r)(1+r) and the powers as r^{2k}, never from a rounded r^2,
    since -log(1-r^2) is ill-conditioned in r^2 as r -> 1.  Both sums run
    over chunks of ``_CORNER_CHUNK`` terms whose sums ``math.fsum`` adds,
    so the memory stays bounded as M grows: at n = 10^6, r = 1 - 10^-6, M
    is about 2.5e7.
    """
    q = (1.0 - r) * (1.0 + r)
    if n * q >= 1.0 or r * r <= 0.5:
        M = 1
        if r > 0.0:
            M = max(1, math.ceil(math.log(0.25 * _EPS * q) / (2.0 * math.log(r))))
        return math.fsum(float(np.sum(t)) for t in _corner_terms(r, 0, M, n))
    head = math.fsum(math.fsum(t) for t in _corner_terms(r, 1, n, 0))
    return (-math.log(q) - head) / r ** (2 * n)


def _one_point_bands(n: int, r: float, kind: NormKind) -> tuple[np.ndarray, ...]:
    """Main diagonal, then the bands above it, of the n x n one-point Gram
    of the module docstring at centre r: C_B^2 for ``kind`` Bergman, C_H^2
    for Hardy and I^2 for Dirichlet."""
    q = (1.0 - r) * (1.0 + r)  # stays accurate as r -> 1
    if kind is NormKind.HARDY:
        # The bands of the module docstring as polynomials in j, 1/q^2
        # folded into their coefficients: main (A j + B) j + C at
        # j = 0, ..., n-1, off1 (D j + r/q) j and off2 (F j + F) j at
        # j = 1, 2, ....  No term of main is negative, and off1's two
        # terms, of ratio |D| j q/r = 2 (1 + r^2) j/q >= 2, cancel at most
        # half of the first, so off1 <= 0 <= off2 hold as computed.
        rr = r * r
        s = 1.0 / (q * q)
        j = np.arange(n, dtype=np.float64)
        main = ((1.0 + rr * (4.0 + rr)) * s) * j
        main += (2.0 * rr * (2.0 + rr)) * s
        main *= j
        main += (rr * (1.0 + rr)) * s
        off1 = (-2.0 * r * (1.0 + rr) * s) * j[1:]
        off1 += r / q
        off1 *= j[1:]
        f = rr * s
        off2 = f * j[1:-1]
        off2 += f
        off2 *= j[1:-1]
        return main, off1, off2
    if kind is NormKind.BERGMAN:
        w = (np.arange(n, dtype=np.float64) + 1.0) / q
        main = r * r * w
        main[1:] += w[:-1]
    else:
        w = np.arange(1.0, n + 1.0)
        w[-1] = 1.0 / _corner_sum(n, r)
        w /= q
        main = w.copy()
        main[1:] += r * r * w[:-1]
    return main, -r * w[:-1]


# The one-point route solves its bands by the Perron iteration of
# hermitian._max_band_eigenpair from this n on, and by a dense eigh of
# _from_bands below it, where LAPACK beats the O(n) Python loops.  Timed on
# a 2-core Xeon at r = 0.9, the two routes cross between n = 48 and 64 for
# C_B, C_H and I alike, and 64 is the least n measured where the Perron
# iteration wins for all three.
PERRON_MIN_N = 64


def _one_point_constant(n: int, lam: complex, kind: NormKind) -> Constant:
    """C_B, C_H or I (``kind`` Bergman, Hardy or Dirichlet) of the one-point
    space at centre lam = r e^{i theta}: the top eigenpair of the Gram of
    :func:`_one_point_bands` at r = |lam|, the banded route's one
    eigen-solve, with coordinate k of its extremal turned by
    e^{-i k theta}.  From n = ``PERRON_MIN_N`` on the eigenpair comes from
    the bands alone by :func:`mslab.hermitian._max_band_eigenpair`, a
    Perron iteration of O(n) solves whose Collatz-Wielandt bound certifies
    that the value is the top eigenvalue; below it, from LAPACK on the
    dense Gram.  theta itself is tested, so a centre on the positive axis
    keeps the real eigenvector and atan2(0, -0.0) = pi turns a centre -0.0."""
    bands = _one_point_bands(n, abs(lam), kind)
    pair = (
        _max_band_eigenpair(*bands) if n >= PERRON_MIN_N else max_eigenpair(_from_bands(*bands))
    )
    theta = math.atan2(lam.imag, lam.real)
    vec = None
    if theta != 0.0:
        vec = pair.vector * np.exp(-1j * theta * np.arange(n))
    return Constant.from_pair(pair, n, vec)


def eq4_envelope(n: int, r: float) -> BoundEnvelope:
    """Two-sided envelope for the one-point family, Bergman target.

    Both ends scale like sqrt(n/(1-r)); the lower end is an audited quantity
    (see :func:`en_prime_bergman_audit`) and is published as informational
    rather than bracket-checked.
    """
    if n < 1 or not 0.0 <= r < 1.0:
        raise ValueError("need n >= 1 and r in [0, 1)")
    scale_factor = math.sqrt(n / (1.0 - r))
    lower = math.sqrt(max(1.0 - (1.0 - r) / n, 0.0)) * scale_factor
    upper = math.sqrt(1.0 + r + 1.0 / math.sqrt(n)) * scale_factor
    return BoundEnvelope(lower, upper, "eq4")


def z2_upper_hardy(n: int, r: float) -> float:
    """Upper bound for the Hardy-target constant over all configurations
    of n points with radius at most r."""
    if n < 1 or not 0.0 <= r < 1.0:
        raise ValueError("need n >= 1 and r in [0, 1)")
    return (1.0 + r + 1.0 / math.sqrt(n)) * n / (1.0 - r)


@dataclass(frozen=True)
class EnPrimeAudit:
    """Audit of the closed form claimed for the squared Bergman norm of the
    last one-point Malmquist element's derivative.

    ``numeric_sq`` is the coefficient-pipeline value, ``quadrature_sq`` the
    integral-oracle value of the same quantity, and ``closed_form_sq`` the
    published formula n/(1-r) (1 - (1-r)/n).  The discrepancy
    (numeric - closed form) is reported, never reconciled: the two agree at
    r = 0 and split for r > 0.
    """

    numeric_sq: float
    quadrature_sq: float
    closed_form_sq: float
    trunc_len: int

    @property
    def discrepancy(self) -> float:
        return self.numeric_sq - self.closed_form_sq


def en_prime_bergman_audit(n: int, r: float) -> EnPrimeAudit:
    from .quadrature import bergman_norm_quadrature

    if n < 1 or not 0.0 <= r < 1.0:
        raise ValueError("need n >= 1 and r in [0, 1)")
    basis = malmquist_basis(PoleConfiguration.one_point(n, r))
    deriv = differentiate(basis.element(n - 1))
    numeric = norm_sq(deriv, NormKind.BERGMAN)
    quad = bergman_norm_quadrature(deriv)
    closed = n / (1.0 - r) * (1.0 - (1.0 - r) / n)
    return EnPrimeAudit(numeric, quad, closed, basis.trunc_len)


def default_alternation_depth(n: int) -> int:
    """Even depth s = 2 floor(sqrt(n)/2) used by the growth test function."""
    return 2 * (int(math.isqrt(n)) // 2)


def step2_test_function(n: int, r: float, s: int) -> TaylorSeries:
    """Alternating tail sum f = sum_{k=0}^{s+2} (-1)^k e_{n-k} on the
    one-point space; its squared Hardy norm is s + 3 by orthonormality."""
    if s < 0 or s % 2 != 0:
        raise ValueError("alternation depth must be even and nonnegative")
    if s + 2 >= n:
        raise ValueError(f"depth {s} underflows the basis of dimension {n}")
    basis = malmquist_basis(PoleConfiguration.one_point(n, r))
    k = np.arange(s + 3)
    a = np.zeros(n)
    a[n - 1 - k] = (-1.0) ** k
    return basis.combine(a)


@dataclass(frozen=True)
class Step2Report:
    """Numerical verification of the derivative-norm expansion on the
    one-point space.

    For f = sum a_k e_k the derivative pulls back under the disc
    automorphism to (A - B)/sqrt(1-r^2) with

        A(v) = (1 - r v) sum_{k=0}^{n-2} (k+1) a_{k+2} v^k,
        B(v) = r sum_{k=0}^{n-1} a_{k+1} v^k,

    so that ||f'||_Bergman = ||A - B||_Bergman / sqrt(1-r^2) exactly
    (``identity_gap`` measures this in floating point).  ``lhs17`` is the
    Bergman square of A computed from the assembled polynomial; ``rhs17``
    re-evaluates it termwise,

        |a_2|^2 + |2 a_3 - r a_2|^2 / 2
        + sum_{k=2}^{n-2} |(k+1) a_{k+2} - r k a_{k+1}|^2 / (k+1)
        + r^2 (n-1)^2 |a_n|^2 / n,

    the k = 1 and k = n-1 terms present only when the indices exist.
    ``eq18`` bounds ||B|| by r ||f||_Hardy, and the sandwich
    ``eq16_lower <= eq16_mid <= eq16_upper`` is the triangle inequality
    applied to (A - B) after normalizing by ||f|| sqrt(n (1+r)).
    :meth:`ok` holds all of them to 1e-9.
    """

    lhs17: float
    rhs17: float
    identity_gap: float
    eq18_norm: float
    eq18_bound: float
    eq16_lower: float
    eq16_mid: float
    eq16_upper: float

    @property
    def gap17(self) -> float:
        return abs(self.lhs17 - self.rhs17)

    @property
    def eq18_slack(self) -> float:
        return self.eq18_bound - self.eq18_norm

    def ok(self) -> bool:
        tol = 1e-9
        scale17 = max(1.0, abs(self.lhs17))
        return (
            self.gap17 <= tol * scale17
            and self.eq18_slack >= -tol
            and self.eq16_lower <= self.eq16_mid + tol
            and self.eq16_mid <= self.eq16_upper + tol
        )


def step2_expansion_check(n: int, r: float, coords: Sequence[complex]) -> Step2Report:
    """Evaluate both sides of the derivative-norm expansion for
    f = sum coords[k] e_{k+1} on the one-point space at radius r."""
    a = np.asarray(coords, dtype=np.complex128)
    if a.shape != (n,):
        raise ValueError(f"need exactly n = {n} coordinates")
    if n < 2:
        raise ValueError("the expansion needs n >= 2")
    if not 0.0 <= r < 1.0:
        raise ValueError("need r in [0, 1)")

    # A(v) and B(v) in the automorphism variable; exact polynomials.
    g_deriv = polynomial(np.arange(1, n, dtype=np.float64) * a[1:])
    A = polynomial(np.convolve([1.0, -r], g_deriv.coeffs))
    B = polynomial(r * a)
    lhs17 = norm_sq(A, NormKind.BERGMAN)

    rhs17 = abs(a[1]) ** 2
    if n >= 3:
        rhs17 += abs(2.0 * a[2] - r * a[1]) ** 2 / 2.0
    for k in range(2, n - 1):
        rhs17 += abs((k + 1) * a[k + 1] - r * k * a[k]) ** 2 / (k + 1)
    rhs17 += r**2 * (n - 1) ** 2 * abs(a[n - 1]) ** 2 / n

    f_norm = float(np.linalg.norm(a))
    eq18_norm = norm(B, NormKind.BERGMAN)
    eq18_bound = r * f_norm

    basis = malmquist_basis(PoleConfiguration.one_point(n, r))
    f = basis.combine(a)
    fprime_bergman = norm(differentiate(f), NormKind.BERGMAN)
    diff = polynomial(A.coeffs - B.coeffs)
    identity_gap = abs(
        fprime_bergman - norm(diff, NormKind.BERGMAN) / math.sqrt(1.0 - r**2)
    )

    kappa = 1.0 / (f_norm * math.sqrt(n * (1.0 + r)))
    normA = math.sqrt(lhs17)
    eq16_lower = kappa * (normA - eq18_norm)
    eq16_mid = math.sqrt((1.0 - r) / n) * fprime_bergman / f_norm
    eq16_upper = kappa * (normA + eq18_norm)

    return Step2Report(
        lhs17,
        rhs17,
        identity_gap,
        eq18_norm,
        eq18_bound,
        eq16_lower,
        eq16_mid,
        eq16_upper,
    )


@dataclass(frozen=True)
class RatioRow:
    """One row of a growth sweep: constant against its predicted scale,
    with the eigen-residual of the constant."""

    n: int
    constant: float
    ratio: float
    limit: float
    residual: float

    @property
    def gap(self) -> float:
        return self.limit - self.ratio


def asymptotic_ratio_sweep(
    r: float, n_list: Sequence[int], target: NormKind
) -> list[RatioRow]:
    """One-point constants against their growth laws.

    Bergman target: C / sqrt(n) against sqrt((1+r)/(1-r)).
    Hardy target:   C / n       against (1+r)/(1-r).
    """
    _check_target(target)
    if not 0.0 <= r < 1.0 or any(n < 1 for n in n_list):
        raise ValueError("need n >= 1 and r in [0, 1)")
    for n in n_list:
        _check_point_count(n)
    bergman = target is NormKind.BERGMAN
    q = (1.0 + r) / (1.0 - r)
    limit = math.sqrt(q) if bergman else q
    rows = []
    for n in n_list:
        res = _one_point_constant(n, r, target)
        ratio = res.constant / (math.sqrt(n) if bergman else n)
        rows.append(RatioRow(n, res.constant, ratio, limit, res.residual))
    return rows
