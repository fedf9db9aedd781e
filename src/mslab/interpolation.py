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

On the one-point family sigma = {lam, ..., lam}, lam = r e^{i theta}, the
same constant comes from an n x n tridiagonal matrix with no basis, no
constraint rows and no min-norm solve (:func:`_one_point_interp`):

* The Dirichlet quotient norm of a trace is dual to the Bergman norm in the
  Hardy pairing, so I^2 = 1 / lambda_min(G_A) with
  G_A = E^* diag(1/(k+1)) E, the Bergman Gram of the model space.
* Put z = b_r(v).  Coordinates c of f = sum c_j e_{j+1} become
  g(v) = sum c_j v^j, and ||f||_Bergman^2 = (1 - r^2) ||g/(1 - r v)||^2
  in the Bergman norm.
* The coefficients of g/(1 - r v) are h = R^{-1} c with R = I - r S, S the
  subdiagonal shift; for k >= n-1 they continue geometrically,
  h_k = r^{k-n+1} h_{n-1}.  Hence G_A = (1 - r^2) R^{-T} Delta R^{-1}
  with Delta = diag(1/1, ..., 1/(n-1), sigma_n) and
  sigma_n = sum_{m>=0} r^{2m}/(n+m), the whole geometric tail folded into
  the last entry.
* Therefore I^2 = lambda_max(R Delta^{-1} R^T) / (1 - r^2): the top
  eigenvalue of the tridiagonal Gram of R^T with weights d/q,
  q = (1 - r)(1 + r) and d = (1, 2, ..., n-1, 1/sigma_n).
* Rotating lam by theta multiplies coordinate k by e^{-i k theta}, a
  unitary change that leaves the eigenvalue alone.

:class:`ModelSpace` holds one configuration, and only it reads whether sigma
is one point to pick the route, for the Bernstein constants and I alike.
Banded results carry ``trunc_len`` = n and no witness functions;
:func:`interp_from_basis` takes any built basis, which keeps E the banded
route's test oracle and gives one-point configurations witnesses.

Every result carries the bound from interpolating by the projection itself,
sqrt(lambda_max(E^* diag(k+1) E)) = sqrt(C_B^2 + 1) since E^* E = I, with
C_B the Bergman derivative constant of the same model space on the same
route; it equals I iff the projection is the minimizer, observed only at
the origin configurations.  The closed-form companions: a one-point lower
bound from a composed test function, two-sided sqrt(n/(1-r)) envelopes for
the one-point family, and the single-point closed form
sqrt(k_Hardy / k_Dirichlet) from the reproducing kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .blaschke import (
    MalmquistBasis,
    PoleConfiguration,
    malmquist_basis,
    multiplicity_groups,
)
from .bernstein import (
    BernsteinResult,
    BoundEnvelope,
    _check_target,
    _one_point_constant,
    constant_from_basis,
)
from .errors import CertificationError
from .hermitian import Eigenpair, gram_matrix, max_eigenpair, min_norm_solve
from .series import NormKind, TaylorSeries

__all__ = [
    "InterpResult",
    "ModelSpace",
    "interp_from_basis",
    "interp_lower_eq9",
    "theoremB_test_function",
    "theoremB_envelopes",
    "dirichlet_kernel_diag",
    "single_point_closed_form",
]


@dataclass(frozen=True)
class InterpResult:
    """Exact constant with its projection bound and witnesses.

    ``upper_projection`` is sqrt(C_B^2 + 1) (module docstring).
    ``witness_f`` realizes the supremum on the model-space ball (unit Hardy
    norm); ``witness_g`` is its minimum Dirichlet-norm interpolant, so
    ``witness_g`` agrees with ``witness_f`` on the configuration and
    ||witness_g||_D equals the constant.  Both are ``None`` on the one-point
    banded route, which builds no series; :func:`interp_from_basis` on a
    built basis sets them for any configuration.
    """

    exact: float
    upper_projection: float
    witness_f: TaylorSeries | None
    witness_g: TaylorSeries | None
    trunc_len: int
    residual: float


def dirichlet_kernel_diag(abs_lam: float) -> float:
    """Diagonal of the Dirichlet reproducing kernel, -log(1-x)/x at x=|lam|^2,
    by its analytic limit 1 when x < 1e-30 (where 1 is within x/2 of it)."""
    if not 0.0 <= abs_lam < 1.0:
        raise ValueError("need |lam| in [0, 1)")
    x = abs_lam * abs_lam
    if x < 1e-30:
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


def _min_norm_interp(basis: MalmquistBasis) -> tuple[Eigenpair, TaylorSeries, TaylorSeries]:
    """The top eigenpair of :func:`interp_from_basis` and its witnesses."""
    L = basis.trunc_len
    A = _constraint_rows(basis.sigma, L)
    weights = NormKind.DIRICHLET.weights(L)
    interpolants = min_norm_solve(weights, A, A @ basis.matrix)
    pair = max_eigenpair(gram_matrix(interpolants, weights))
    return pair, basis.combine(pair.vector), TaylorSeries(interpolants @ pair.vector)


def interp_from_basis(basis: MalmquistBasis) -> InterpResult:
    """Exact interpolation constant on a built Malmquist basis E, with
    witnesses.

    Solves the minimum Dirichlet-norm problem for the traces A E of all basis
    elements in one dual-Gram solve and takes the top eigenvalue of the
    Dirichlet Gram of the resulting L x n matrix of interpolants.  Raises
    :class:`CertificationError` for configurations with distinct points
    closer than 1e-8, derivative functionals that overflow, or
    ill-conditioned trace systems.
    """
    pair, witness_f, witness_g = _min_norm_interp(basis)
    exact = math.sqrt(max(pair.value, 0.0))
    upper = math.hypot(constant_from_basis(basis, NormKind.BERGMAN).constant, 1.0)
    return InterpResult(exact, upper, witness_f, witness_g, basis.trunc_len, pair.residual)


_CORNER_CHUNK = 256
_EPS = float(np.finfo(np.float64).eps)


def _corner_sum(n: int, r: float) -> float:
    """sigma_n = sum_{m>=0} r^{2m}/(n+m), the Lerch transcendent
    Phi(r^2, 1, n), to a few units of rounding for every r in [0, 1).

    Where n (1 - r^2) >= 1 or r^2 <= 1/2 the series is summed in chunks
    until its remainder bound r^{2M}/((n+M)(1-r^2)) drops below rounding.
    Elsewhere r^{-2n} (-log(1-r^2) - sum_{k<n} r^{2k}/k) is used: there
    r^2 > 1/2, so the logarithm of 1 - r^2 <= 1/2 is well conditioned, and
    r^{2n} >= e^{-3/2} for n >= 2, so the subtraction cancels no more than
    a factor of order log n (n = 1 subtracts nothing).  1 - r^2 is formed
    as (1-r)(1+r) and the powers as r^{2k}, never from a rounded r^2, since
    -log(1-r^2) is ill-conditioned in r^2 as r -> 1.
    """
    q = (1.0 - r) * (1.0 + r)
    if n * q >= 1.0 or r * r <= 0.5:
        parts: list[float] = []
        m, total = 0, 0.0
        while m == 0 or r ** (2 * m) / ((n + m) * q) > 0.25 * _EPS * total:
            idx = np.arange(m, m + _CORNER_CHUNK, dtype=np.float64)
            parts.append(float(np.sum(np.power(r, 2.0 * idx) / (n + idx))))
            total += parts[-1]
            m += _CORNER_CHUNK
        return math.fsum(parts)
    k = np.arange(1, n, dtype=np.float64)
    head = math.fsum(np.power(r, 2.0 * k) / k)
    return (-math.log(q) - head) / r ** (2 * n)


def _one_point_interp(sigma: PoleConfiguration) -> Eigenpair:
    """Top eigenpair of the n x n tridiagonal operator of a one-point
    configuration (module docstring): I^2 is the top eigenvalue of
    R diag(1, ..., n-1, 1/sigma_n) R^T / (1 - r^2), with no basis built.
    """
    n, r = sigma.n, abs(sigma.points[0])
    q = (1.0 - r) * (1.0 + r)
    d = np.arange(1.0, n + 1.0)
    d[-1] = 1.0 / _corner_sum(n, r)
    Rt = np.eye(n) - r * np.eye(n, k=1)
    return max_eigenpair(gram_matrix(Rt, d / q))


class ModelSpace:
    """The model space K_B of one configuration and the constants read off it.

    Only here does whether ``sigma`` is one point pick the route: one point
    takes the n x n banded operators and builds no basis; any other builds E
    once, on the first read of :attr:`basis`, and every constant shares it.
    Each Bernstein result is kept per target, and :meth:`interp` takes its
    projection bound from the Bergman one.
    """

    def __init__(self, sigma: PoleConfiguration) -> None:
        self.sigma = sigma
        self._bernstein: dict[NormKind, BernsteinResult] = {}

    @functools.cached_property
    def basis(self) -> MalmquistBasis:
        """The Malmquist basis at its certified truncation, built on first read."""
        return malmquist_basis(self.sigma)

    def bernstein(self, target: NormKind) -> BernsteinResult:
        """Exact norm of differentiation into ``target`` (Bergman or Hardy)."""
        if target not in self._bernstein:
            _check_target(target)
            if self.sigma.is_one_point:
                res = _one_point_constant(self.sigma, target)
            else:
                res = constant_from_basis(self.basis, target)
            self._bernstein[target] = res
        return self._bernstein[target]

    def interp(self) -> InterpResult:
        """Exact interpolation constant; witnesses on the basis route only."""
        witness_f = witness_g = None
        if self.sigma.is_one_point:
            pair, trunc_len = _one_point_interp(self.sigma), self.sigma.n
        else:
            pair, witness_f, witness_g = _min_norm_interp(self.basis)
            trunc_len = self.basis.trunc_len
        exact = math.sqrt(max(pair.value, 0.0))
        upper = math.hypot(self.bernstein(NormKind.BERGMAN).constant, 1.0)
        return InterpResult(exact, upper, witness_f, witness_g, trunc_len, pair.residual)


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
