"""Derivative-operator constants on model spaces, with bound envelopes.

For a configuration sigma the constant of interest is the norm of
differentiation from the model space (Hardy norm on the source) into either
the Bergman or the Hardy space,

    C(sigma, target) = sup { ||f'||_target : f in K_B, ||f||_Hardy <= 1 }.

Since the Malmquist basis is orthonormal in the Hardy pairing, f = E a with
E the L x n coefficient matrix of the basis has ||f||_Hardy = |a|, while

    ||f'||_Bergman^2 = sum_k k |c_k|^2,    ||f'||_Hardy^2 = sum_k k^2 |c_k|^2

over the coefficients c = E a of f.  The square of the constant is therefore
exactly the top eigenvalue of E^* diag(w) E with w = k or w = k^2, so the
computed value is the constant of the finite-dimensional operator itself,
not an estimate.

On the one-point family sigma = {lam, ..., lam}, where the inequality is
sharp as n -> infinity and r -> 1, the disc automorphism z = b_r(v) turns
the basis into the monomials v^k and the same Gram into an n x n banded
matrix (:func:`_one_point_constant`).  That route needs no basis and no
truncation.  Whether sigma is one point is the only thing that picks the
route, and only :class:`mslab.interpolation.ModelSpace` reads it;
:func:`constant_from_basis` reads the constant off any built basis, which
keeps E the banded route's test oracle.

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

from .blaschke import MalmquistBasis, PoleConfiguration, malmquist_basis
from .hermitian import gram_matrix, max_eigenpair
from .series import (
    NormKind,
    TaylorSeries,
    differentiate,
    norm,
    norm_sq,
    polynomial,
)

__all__ = [
    "BernsteinResult",
    "BoundEnvelope",
    "constant_from_basis",
    "eq4_envelope",
    "z2_upper_hardy",
    "EnPrimeAudit",
    "en_prime_bergman_audit",
    "step2_test_function",
    "default_alternation_depth",
    "Step2Report",
    "step2_expansion_check",
    "RatioRow",
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
class BernsteinResult:
    """Computed constant with extremal witness and truncation diagnostics."""

    constant: float
    extremal: np.ndarray
    trunc_len: int
    residual: float


def _check_target(target: NormKind) -> None:
    if target not in (NormKind.BERGMAN, NormKind.HARDY):
        raise ValueError(f"target must be Bergman or Hardy, got {target}")


def constant_from_basis(basis: MalmquistBasis, target: NormKind) -> BernsteinResult:
    """Constant of differentiation on an already-built basis: the top
    eigenpair of E^* diag(w) E, w = k (Bergman) or k^2 (Hardy)."""
    _check_target(target)
    k = np.arange(basis.trunc_len, dtype=np.float64)
    w = k if target is NormKind.BERGMAN else k * k
    pair = max_eigenpair(gram_matrix(basis.matrix, w))
    constant = math.sqrt(max(pair.value, 0.0))
    vec = np.array(pair.vector)
    vec.setflags(write=False)
    return BernsteinResult(constant, vec, basis.trunc_len, pair.residual)


def _one_point_constant(sigma: PoleConfiguration, target: NormKind) -> BernsteinResult:
    """Constant of differentiation on a one-point space from its n x n banded
    operator, with no basis and no truncation.

    For sigma = {lam, ..., lam}, lam = r e^{i theta}, the unitary
    substitution f(z) -> sqrt(1-r^2)/(1 - r v) f(b_r(v)) sends the Malmquist
    element e_{k+1} of the centre r to v^k, so f = sum x_k e_{k+1} has
    coordinates x in both bases, and with g(v) = sum x_k v^k and
    q = (1 - r)(1 + r):

        ||f'||_Bergman^2 = sum_k (k+1) |x_{k+1} - r x_k|^2 / q    (x_n = 0),
        ||f'||_Hardy     = ||(1 - r v)^2 g' - r (1 - r v) g||_Hardy / q.

    Each is the squared norm of a banded map D x with weights w, so the
    square of the constant is the top eigenvalue of the n x n Gram
    D^T diag(w) D (tridiagonal for Bergman, pentadiagonal for Hardy).  The
    rotation by theta multiplies coordinate k by e^{-i k theta}.  The
    reported ``trunc_len`` is n, since no series is truncated.
    """
    n, lam = sigma.n, sigma.points[0]
    r = abs(lam)
    q = (1.0 - r) * (1.0 + r)  # stays accurate as r -> 1
    k = np.arange(n)
    if target is NormKind.BERGMAN:
        D = np.zeros((n, n))
        D[k, k] = -r
        D[k[:-1], k[1:]] = 1.0
        w = (k + 1.0) / q
    else:
        # Column k: (1 - rv)^2 k v^(k-1) - r (1 - rv) v^k.
        D = np.zeros((n + 1, n))
        D[k[1:] - 1, k[1:]] = k[1:]
        D[k, k] = -r * (2.0 * k + 1.0)
        D[k + 1, k] = r * r * (k + 1.0)
        w = np.full(n + 1, 1.0 / (q * q))
    pair = max_eigenpair(gram_matrix(D, w))
    vec = pair.vector * np.exp(-1j * math.atan2(lam.imag, lam.real) * k)
    vec.setflags(write=False)
    return BernsteinResult(math.sqrt(max(pair.value, 0.0)), vec, n, pair.residual)


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
    from .interpolation import ModelSpace

    _check_target(target)
    bergman = target is NormKind.BERGMAN
    q = (1.0 + r) / (1.0 - r)
    limit = math.sqrt(q) if bergman else q
    rows = []
    for n in n_list:
        res = ModelSpace(PoleConfiguration.one_point(n, r)).bernstein(target)
        ratio = res.constant / (math.sqrt(n) if bergman else n)
        rows.append(RatioRow(n, res.constant, ratio, limit, res.residual))
    return rows
