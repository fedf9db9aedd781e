"""Minimum Dirichlet-norm interpolation constants on disc configurations, and
the basis route for every constant of a model space.

The object computed exactly here is

    I(sigma) = sup { min { ||g||_D : g agrees with f on sigma } : ||f||_H <= 1 },

with the Dirichlet norm squared sum (k+1)|g_k|^2, the Hardy norm on the data
side, and agreement counted with multiplicities (repeated points match
derivatives).  Traces on sigma only see the model-space component of f, and
the orthogonal projection onto the model space is a contraction, so the
supremum over the Hardy ball equals the supremum over the unit ball of the
model space; that reduction is implemented through the Malmquist basis and
property-tested, not assumed.

The basis route, :func:`constant_from_basis`, reads C_B, C_H (the Bernstein
constants of :mod:`mslab.bernstein`) and I off the L x n Malmquist
coefficient matrix E of any configuration.  E is orthonormal in the Hardy
pairing, so f = E a has ||f||_Hardy = |a|, while over the coefficients
c = E a of f

    ||f'||_Bergman^2 = sum_k k |c_k|^2,    ||f'||_Hardy^2 = sum_k k^2 |c_k|^2;

C_B^2 and C_H^2 are therefore exactly the top eigenvalue of E^* diag(w) E
with w = k or w = k^2, the constant of the finite-dimensional operator
itself, not an estimate.  The minimum-norm interpolant of a fixed trace is
linear in the trace: with A the m x L matrix of trace functionals, one
dual-Gram solve with right-hand sides A E gives the L x n matrix X of
interpolants of all basis elements, and I^2 is the top eigenvalue of its
Dirichlet Gram X^* diag(k+1) X.

On the one-point family sigma = {lam, ..., lam} the same constant is
I^2 = 1 / lambda_min of the model space's Bergman Gram, which the disc
automorphism z = b_r(v) turns into an n x n tridiagonal matrix with no
basis, no constraint rows and no min-norm solve; the derivation and the
bands, with those of the Bernstein constants, are in :mod:`mslab.bernstein`.

The Grams of C_B^2 and C_H^2 need no E at all: they are the solutions W
and V of two n x n Stein equations on the compressed shift
(:class:`mslab.blaschke.ShiftGrams`), which cost about n^3 against the
L n^2 of E.  Where the basis would need many rows per point that is the
cheaper route, and the only one that reaches r -> 1.

:class:`ModelSpace` holds one configuration, and only it picks the route,
from whether sigma is one point and from the fewest rows L_low its basis
could stop at: one point takes the banded route for all three constants;
otherwise C_B and C_H take the Stein route when L_low >= kappa n
(``STEIN_ROWS_PER_POINT``) and E below that, and I always takes E.  Each
constant comes back as a :class:`mslab.bernstein.Constant`, whose
``trunc_len`` is n on the banded and Stein routes and L on the basis route.
:func:`constant_from_basis` takes any built basis, which keeps E the test
oracle of the other two routes, and :func:`interp_witnesses` gives the
witness functions of I's solve on any configuration, one point included;
nothing else builds them.

:meth:`ModelSpace.projection_bound` is the bound from interpolating by the
projection itself, sqrt(lambda_max(E^* diag(k+1) E)) = sqrt(C_B^2 + 1) since
E^* E = I, with C_B the Bergman derivative constant as the same model space
serves it; it equals I iff the projection is the minimizer,
observed only at the origin configurations.  The closed-form companions: a
one-point lower bound from a composed test function, two-sided
sqrt(n/(1-r)) envelopes for the one-point family, and the single-point
closed form sqrt(k_Hardy / k_Dirichlet) from the reproducing kernels.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .blaschke import (
    MalmquistBasis,
    PoleConfiguration,
    ShiftGrams,
    _row_lower_bound,
    malmquist_basis,
    multiplicity_groups,
)
from .bernstein import BoundEnvelope, Constant, _check_target, _one_point_constant
from .errors import CertificationError
from .hermitian import Eigenpair, gram_matrix, max_eigenpair, min_norm_solve
from .series import NormKind, TaylorSeries

__all__ = [
    "ModelSpace",
    "constant_from_basis",
    "interp_witnesses",
    "interp_lower_eq9",
    "theoremB_test_function",
    "theoremB_envelopes",
    "dirichlet_kernel_diag",
    "single_point_closed_form",
]


# kappa: C_B and C_H of a configuration that is not one point come from the
# two Stein equations of ShiftGrams, not from E, when the basis would need at
# least kappa rows per point, L_low >= kappa n.  E costs about L n^2 and the
# Stein route about n^3, so their ratio is about L / n.  Timed, the routes
# cross at L_low = 50 n for n = 24 and below 40 n from n = 40 on, where a
# constant takes milliseconds; for n <= 12 they cross at 75 n to 100 n
# and beyond, and at 50 n the Stein route there costs at most 70 us more.
STEIN_ROWS_PER_POINT = 50


def dirichlet_kernel_diag(abs_lam: float) -> float:
    """Diagonal of the Dirichlet reproducing kernel, -log(1-x)/x at x=|lam|^2,
    by its analytic limit 1 when x < 1e-30 (where 1 is within x/2 of it).
    Above x = 1/2 the logarithm takes 1 - x as (1-|lam|)(1+|lam|), not from
    the rounded x, which would lose digits as |lam| -> 1."""
    if not 0.0 <= abs_lam < 1.0:
        raise ValueError("need |lam| in [0, 1)")
    x = abs_lam * abs_lam
    if x < 1e-30:
        return 1.0
    if x > 0.5:
        return -math.log((1.0 - abs_lam) * (1.0 + abs_lam)) / x
    return -math.log1p(-x) / x


def single_point_closed_form(abs_lam: float) -> float:
    """I({lam}) = sqrt(k_Hardy(lam, lam) / k_Dirichlet(lam, lam))."""
    if not 0.0 <= abs_lam < 1.0:
        raise ValueError("need |lam| in [0, 1)")
    hardy_diag = 1.0 / ((1.0 - abs_lam) * (1.0 + abs_lam))
    return math.sqrt(hardy_diag / dirichlet_kernel_diag(abs_lam))


def _constraint_rows(sigma: PoleConfiguration, length: int) -> np.ndarray:
    """The m x length matrix of coefficient functionals realizing the traces
    on sigma.

    For a point of multiplicity m the rows evaluate g, g', ..., g^(m-1):
    row t has entries k (k-1) ... (k-t+1) lam^{k-t}.  The falling factorial
    of row t is the one of row t-1 times (k-t+1), and its powers are the
    point's power vector shifted right by t.
    """
    rows: list[np.ndarray] = []
    k = np.arange(length, dtype=np.float64)
    for lam, mult in multiplicity_groups(sigma):
        if lam != 0:
            power = np.power(complex(lam), k)
        else:
            power = np.where(k == 0, 1.0, 0.0).astype(np.complex128)
        falling = np.ones(length, dtype=np.float64)
        for t in range(mult):
            if t > 0:
                with np.errstate(over="ignore"):
                    falling *= np.maximum(k - (t - 1), 0.0)
            if not np.all(np.isfinite(falling)):
                raise CertificationError(
                    f"order-{t} derivative functional overflows at truncation {length}"
                )
            powers = np.zeros(length, dtype=np.complex128)
            powers[t:] = power[: length - t]
            rows.append(falling * powers)
    return np.array(rows)


def _apply_rows(A: np.ndarray, f: TaylorSeries) -> np.ndarray:
    """Traces of f: the functionals applied over the length they share with f."""
    L = min(A.shape[1], f.trunc_len)
    return A[:, :L] @ f.coeffs[:L]


def _min_norm_interp(basis: MalmquistBasis) -> tuple[np.ndarray, Eigenpair]:
    """The L x n minimum-norm interpolants of all basis elements and the top
    eigenpair of their Dirichlet Gram (module docstring)."""
    L = basis.trunc_len
    A = _constraint_rows(basis.sigma, L)
    weights = NormKind.DIRICHLET.weights(L)
    interpolants = min_norm_solve(weights, A, A @ basis.matrix)
    return interpolants, max_eigenpair(gram_matrix(interpolants, weights))


def constant_from_basis(basis: MalmquistBasis, kind: NormKind) -> Constant:
    """C_B, C_H or I (``kind`` Bergman, Hardy or Dirichlet) on a built
    Malmquist basis E, by the basis route of the module docstring.

    For I, raises :class:`CertificationError` for configurations with
    distinct points closer than 1e-8, derivative functionals that overflow,
    or ill-conditioned trace systems.
    """
    if kind is NormKind.DIRICHLET:
        pair = _min_norm_interp(basis)[1]
    else:
        k = np.arange(basis.trunc_len, dtype=np.float64)
        w = k if kind is NormKind.BERGMAN else k * k
        pair = max_eigenpair(gram_matrix(basis.matrix, w))
    return Constant.from_pair(pair, basis.trunc_len)


def interp_witnesses(basis: MalmquistBasis) -> tuple[Constant, TaylorSeries, TaylorSeries]:
    """I from :func:`constant_from_basis` with its witnesses f and g.

    f = E a, a the extremal coordinates, realizes the supremum on the
    model-space ball (unit Hardy norm); g is its minimum Dirichlet-norm
    interpolant, so g agrees with f on the configuration and ||g||_D equals
    the constant.
    """
    interpolants, pair = _min_norm_interp(basis)
    witness_f = basis.combine(pair.vector)
    witness_g = TaylorSeries(interpolants @ pair.vector)
    return Constant.from_pair(pair, basis.trunc_len), witness_f, witness_g


class ModelSpace:
    """The model space K_B of one configuration and the constants read off it.

    Only here is the route picked.  One point reads the n x n banded Grams
    through :func:`mslab.bernstein._one_point_constant` and builds no basis.
    Any other configuration reads C_B and C_H off :attr:`shift_grams` when
    its basis would need at least ``STEIN_ROWS_PER_POINT`` rows per point,
    and builds no basis for them; otherwise, and always for I, it builds E
    once, on the first read of :attr:`basis`, and every constant taken from
    E shares it through :func:`constant_from_basis`.  Each constant is kept
    per kind: Bergman and Hardy for C_B and C_H, Dirichlet for I.
    """

    def __init__(self, sigma: PoleConfiguration) -> None:
        self.sigma = sigma
        self._constants: dict[NormKind, Constant] = {}

    @functools.cached_property
    def basis(self) -> MalmquistBasis:
        """The Malmquist basis at its certified truncation, built on first read."""
        return malmquist_basis(self.sigma)

    @functools.cached_property
    def shift_grams(self) -> ShiftGrams:
        """W and V from the Stein equations on the compressed shift, set up
        on first read; W is solved once and serves V."""
        return ShiftGrams(self.sigma)

    def _stein_route(self, kind: NormKind) -> bool:
        """Whether the constant of ``kind`` comes from :attr:`shift_grams`:
        C_B or C_H of a configuration that is not one point, once the basis
        would need at least ``STEIN_ROWS_PER_POINT`` rows per point."""
        sigma = self.sigma
        return (
            kind is not NormKind.DIRICHLET
            and not sigma.is_one_point
            and _row_lower_bound(sigma) >= STEIN_ROWS_PER_POINT * sigma.n
        )

    def _constant(self, kind: NormKind) -> Constant:
        if kind not in self._constants:
            sigma = self.sigma
            if sigma.is_one_point:
                res = _one_point_constant(sigma.n, sigma.points[0], kind)
            elif self._stein_route(kind):
                grams = self.shift_grams
                gram = grams.bergman if kind is NormKind.BERGMAN else grams.hardy
                res = Constant.from_pair(max_eigenpair(gram), sigma.n)
            else:
                res = constant_from_basis(self.basis, kind)
            self._constants[kind] = res
        return self._constants[kind]

    def bernstein(self, target: NormKind) -> Constant:
        """Exact norm of differentiation into ``target`` (Bergman or Hardy)."""
        _check_target(target)
        return self._constant(target)

    def interp(self) -> Constant:
        """Exact interpolation constant I."""
        return self._constant(NormKind.DIRICHLET)

    def projection_bound(self) -> float:
        """sqrt(C_B^2 + 1), the cost of interpolating by the projection
        (module docstring), an upper bound for I."""
        return math.hypot(self.bernstein(NormKind.BERGMAN).constant, 1.0)


def interp_lower_eq9(n: int, abs_lam: float) -> float:
    """The paper's one-point lower bound (eq9) for the exact constant, n >= 2.

    It sits below the proof-step bound, the lower end of
    ``theoremB_envelopes(n, r)["eq10"]``, by order 1/n.  At n = 1 the bracket
    under the square root is negative and the bound is meaningless; ask for
    the single-point closed form instead.
    """
    if n < 2:
        raise ValueError(
            "the one-point lower bound needs n >= 2; "
            "at n = 1 use the single-point closed form"
        )
    if not 0.0 <= abs_lam < 1.0:
        raise ValueError("need |lam| in [0, 1)")
    r = abs_lam
    scale_factor = math.sqrt(n / (1.0 - r))
    return scale_factor * math.sqrt(
        max(((1.0 + r) ** 2 - 2.0 / n - 2.0 * r / n) / (2.0 * (1.0 + r)), 0.0)
    )


def theoremB_test_function(n: int, lam: complex) -> TaylorSeries:
    """Competitor sum_{k=0}^{n-1} sqrt(1-|lam|^2) b_lam^k / (1 - conj(lam) z),
    i.e. the sum of all Malmquist elements of the one-point configuration;
    squared Hardy norm n.  Composed with b_lam at real lam = -r it collapses
    to (1-r^2)^{-1/2} (1 + (1+r)(z + ... + z^{n-1}) + r z^n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    basis = malmquist_basis(PoleConfiguration.one_point(n, lam))
    return basis.combine(np.ones(n))


def theoremB_envelopes(n: int, r: float) -> dict[str, BoundEnvelope]:
    """Closed-form envelopes for the one-point interpolation constant.

    ``eq10``: two-sided bracket for I itself, scaling like sqrt(n/(1-r)).
    ``eq11``: asymptotic rails for I / sqrt(n), sqrt(((1+r)/2)/(1-r)) below
    and sqrt((1+r)/(1-r)) above.
    ``eq12``: rails for the fully normalized I sqrt((1-r)/n), uniform in r:
    sqrt(2)/2 below, sqrt(2) above.
    """
    if n < 1 or not 0.0 <= r < 1.0:
        raise ValueError("need n >= 1 and r in [0, 1)")
    eq11 = BoundEnvelope(
        math.sqrt(((1.0 + r) / 2.0) / (1.0 - r)),
        math.sqrt((1.0 + r) / (1.0 - r)),
        "eq11",
    )
    eq12 = BoundEnvelope(math.sqrt(2.0) / 2.0, math.sqrt(2.0), "eq12")
    return {"eq10": _eq10_envelope(n, r), "eq11": eq11, "eq12": eq12}


def _eq10_envelope(n: int, r: float) -> BoundEnvelope:
    """``theoremB_envelopes(n, r)["eq10"]`` alone, for n >= 1 and r in
    [0, 1), which the caller has checked."""
    scale_factor = math.sqrt(n / (1.0 - r))
    return BoundEnvelope(
        scale_factor * math.sqrt((1.0 + r) / 2.0 * (1.0 - 1.0 / n)),
        scale_factor
        * math.sqrt(1.0 + r + 1.0 / math.sqrt(n) + (1.0 - r) / n),
        "eq10",
    )
