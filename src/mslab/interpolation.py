"""Minimum Dirichlet-norm interpolation constants on disc configurations.

The object computed exactly here is

    I(sigma) = sup { min { ||g||_D : g agrees with f on sigma } : ||f||_H <= 1 },

with the Dirichlet norm squared sum (k+1)|g_k|^2, the Hardy norm on the data
side, and agreement counted with multiplicities (repeated points match
derivatives).  Traces on sigma only see the model-space component of f, and
the orthogonal projection onto the model space is a contraction, so the
supremum over the Hardy ball equals the supremum over the unit ball of the
model space; that reduction is implemented through the Malmquist basis and
property-tested, not assumed.  The minimum-norm interpolant of a fixed trace
is linear in the trace: with E the L x n Malmquist coefficient matrix and A
the m x L matrix of trace functionals, one dual-Gram solve with right-hand
sides A E gives the L x n matrix X of interpolants of all basis elements,
and I(sigma)^2 is the top eigenvalue of its Dirichlet Gram X^* diag(k+1) X.

The closed-form companions: an upper bound from interpolating by the
projection itself, sqrt(lambda_max(E^* diag(k+1) E)), which equals
sqrt(C_B(sigma)^2 + 1) with C_B the Bergman derivative constant of the
configuration (equality with I iff the projection is the minimizer, observed
only at the origin configurations), a one-point lower bound from a composed
test function, two-sided sqrt(n/(1-r)) envelopes for the one-point family,
and the single-point closed form sqrt(k_Hardy / k_Dirichlet) from the
reproducing kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import (
    MalmquistBasis,
    PoleConfiguration,
    malmquist_basis_auto,
    multiplicity_groups,
)
from .bernstein import BoundEnvelope
from .errors import CertificationError
from .hermitian import gram_matrix, max_eigenpair, min_norm_solve
from .series import NormKind, TaylorSeries

__all__ = [
    "InterpResult",
    "Eq9Bounds",
    "interp_exact",
    "interp_upper_projection",
    "interp_lower_eq9",
    "theoremB_test_function",
    "theoremB_envelopes",
    "dirichlet_kernel_diag",
    "single_point_closed_form",
]


@dataclass(frozen=True)
class InterpResult:
    """Exact constant with witnesses and the attached per-configuration bounds.

    ``witness_f`` realizes the supremum on the model-space ball (unit Hardy
    norm); ``witness_g`` is its minimum Dirichlet-norm interpolant, so
    ``witness_g`` agrees with ``witness_f`` on the configuration and
    ||witness_g||_D equals the constant.
    """

    sigma: PoleConfiguration
    exact: float
    upper_projection: float
    lower_eq9: float | None
    witness_f: TaylorSeries
    witness_g: TaylorSeries
    trunc_len: int
    residual: float


@dataclass(frozen=True)
class Eq9Bounds:
    """One-point lower bounds: the published form and the proof-step form.

    The two differ at order 1/n (the proof-step value is never smaller);
    the exact constant is required to dominate each independently.
    """

    eq9: float
    eq10_left: float


def dirichlet_kernel_diag(abs_lam: float) -> float:
    """Diagonal of the Dirichlet reproducing kernel, -log(1-x)/x at x=|lam|^2,
    by its analytic limit 1 when |lam| < 1e-6."""
    if not 0.0 <= abs_lam < 1.0:
        raise ValueError("need |lam| in [0, 1)")
    x = abs_lam * abs_lam
    if abs_lam < 1e-6:
        return 1.0
    return -math.log1p(-x) / x


def single_point_closed_form(abs_lam: float) -> float:
    """I({lam}) = sqrt(k_Hardy(lam, lam) / k_Dirichlet(lam, lam))."""
    if not 0.0 <= abs_lam < 1.0:
        raise ValueError("need |lam| in [0, 1)")
    hardy_diag = 1.0 / (1.0 - abs_lam * abs_lam)
    return math.sqrt(hardy_diag / dirichlet_kernel_diag(abs_lam))


def _constraint_rows(sigma: PoleConfiguration, length: int) -> np.ndarray:
    """The m x length matrix of coefficient functionals realizing the traces
    on sigma.

    For a point of multiplicity m the rows evaluate g, g', ..., g^(m-1):
    row t has entries k (k-1) ... (k-t+1) lam^{k-t}.
    """
    rows: list[np.ndarray] = []
    k = np.arange(length, dtype=np.float64)
    for lam, mult in multiplicity_groups(sigma):
        for t in range(mult):
            falling = np.ones(length, dtype=np.float64)
            with np.errstate(over="ignore"):
                for j in range(t):
                    falling *= np.maximum(k - j, 0.0)
            if not np.all(np.isfinite(falling)):
                raise CertificationError(
                    f"order-{t} derivative functional overflows at truncation {length}"
                )
            powers = np.zeros(length, dtype=np.complex128)
            idx = np.arange(t, length)
            powers[idx] = np.power(complex(lam), (idx - t).astype(np.float64)) if lam != 0 else np.where(idx - t == 0, 1.0, 0.0)
            rows.append(falling * powers)
    return np.array(rows)


def _apply_rows(A: np.ndarray, f: TaylorSeries) -> np.ndarray:
    """Traces of f: the functionals applied over the length they share with f."""
    L = min(A.shape[1], f.trunc_len)
    return A[:, :L] @ f.coeffs[:L]


def interp_exact(sigma: PoleConfiguration, trunc: int | None = None) -> InterpResult:
    """Exact interpolation constant of a configuration.

    Builds the Malmquist basis E, solves the minimum Dirichlet-norm problem
    for the traces A E of all basis elements in one dual-Gram solve, and
    takes the top eigenvalue of the Dirichlet Gram of the resulting L x n
    matrix of interpolants.  Raises :class:`CertificationError` for
    configurations with distinct points closer than 1e-8, derivative
    functionals that overflow, or ill-conditioned trace systems.
    """
    basis = malmquist_basis_auto(sigma, trunc)
    L = basis.trunc_len
    A = _constraint_rows(sigma, L)
    weights = NormKind.DIRICHLET.weights(L)
    interpolants = min_norm_solve(weights, A, A @ basis.matrix)
    pair = max_eigenpair(gram_matrix(interpolants, weights))
    exact = math.sqrt(max(pair.value, 0.0))
    witness_f = basis.combine(pair.vector)
    witness_g = TaylorSeries(interpolants @ pair.vector)

    upper = interp_upper_projection(basis)
    lower = None
    if sigma.n >= 2 and len(set(sigma.points)) == 1:
        lower = interp_lower_eq9(sigma.n, abs(sigma.points[0])).eq9
    return InterpResult(
        sigma, exact, upper, lower, witness_f, witness_g, L, pair.residual
    )


def interp_upper_projection(basis: MalmquistBasis) -> float:
    """Upper bound on the model space of a built basis from interpolating by
    the projection itself: the Dirichlet norm over the model-space ball,
    sqrt(lambda_max(E^* diag(k+1) E)).  Since E^* E is the identity this is
    sqrt(C_B^2 + 1), C_B the Bergman derivative constant of the
    configuration."""
    w = NormKind.DIRICHLET.weights(basis.trunc_len)
    return math.sqrt(max(max_eigenpair(gram_matrix(basis.matrix, w)).value, 0.0))


def interp_lower_eq9(n: int, abs_lam: float) -> Eq9Bounds:
    """One-point lower bounds for the exact constant, n >= 2.

    At n = 1 the bracket under the square root is negative and the bound is
    meaningless; ask for the single-point closed form instead.
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
    eq9 = scale_factor * math.sqrt(
        max(((1.0 + r) ** 2 - 2.0 / n - 2.0 * r / n) / (2.0 * (1.0 + r)), 0.0)
    )
    eq10_left = scale_factor * math.sqrt((1.0 + r) / 2.0 * (1.0 - 1.0 / n))
    return Eq9Bounds(eq9, eq10_left)


def theoremB_test_function(
    n: int, lam: complex, trunc: int | None = None
) -> TaylorSeries:
    """Competitor sum_{k=0}^{n-1} sqrt(1-|lam|^2) b_lam^k / (1 - conj(lam) z),
    i.e. the sum of all Malmquist elements of the one-point configuration;
    squared Hardy norm n.  Composed with b_lam at real lam = -r it collapses
    to (1-r^2)^{-1/2} (1 + (1+r)(z + ... + z^{n-1}) + r z^n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    basis = malmquist_basis_auto(PoleConfiguration.one_point(n, lam), trunc)
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
    scale_factor = math.sqrt(n / (1.0 - r))
    eq10 = BoundEnvelope(
        scale_factor * math.sqrt((1.0 + r) / 2.0 * (1.0 - 1.0 / n)),
        scale_factor
        * math.sqrt(1.0 + r + 1.0 / math.sqrt(n) + (1.0 - r) / n),
        "eq10",
    )
    eq11 = BoundEnvelope(
        math.sqrt(((1.0 + r) / 2.0) / (1.0 - r)),
        math.sqrt((1.0 + r) / (1.0 - r)),
        "eq11",
    )
    eq12 = BoundEnvelope(math.sqrt(2.0) / 2.0, math.sqrt(2.0), "eq12")
    return {"eq10": eq10, "eq11": eq11, "eq12": eq12}
