"""Truncated Taylor series on the unit disc with coefficient-space norms.

Everything downstream works with analytic functions f = sum_k c_k z^k held as
their first N+1 Taylor coefficients.  Three norms are carried purely in
coefficient space,

    Hardy        sum_k |c_k|^2,
    Bergman      sum_k |c_k|^2 / (k+1),
    Dirichlet    sum_k |c_k|^2 * (k+1),

each under a square root.  Differentiation acts on coefficients as
c_k -> (k+1) c_{k+1}, which makes the splitting

    ||f||_Dirichlet^2 = ||f'||_Bergman^2 + ||f||_Hardy^2

an exact identity of finite sums, not an approximation; the test suite checks
it at rounding level.

Series are immutable values: every operation returns a fresh instance and the
backing arrays are write-protected.  No series carries a bound on its
discarded tail: the Malmquist basis is built in :mod:`mslab.blaschke` by a
row recurrence on its coefficient matrix, with no series arithmetic, and
stops where its exact tail identity makes the dropped mass negligible.  The
composition divides by first-order factors 1 - beta z with a doubling scan;
its window, which has no such identity, is sized by
:func:`policy_truncation`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NormKind",
    "TaylorSeries",
    "polynomial",
    "norm",
    "norm_sq",
    "differentiate",
    "evaluate",
    "cauchy_kernel_series",
    "compose_with_blaschke_factor",
    "policy_truncation",
]

# Slack admitted when checking |z| <= 1: points on the unit circle produced
# by cos/sin land within a few ulp of modulus one.
_CIRCLE_SLACK = 1e-12

# Doubling schemes drop powers below this: the doubling scan of a division
# stops once the power of the ratio falls under it, and the Malmquist build
# zeros the parts of its shift powers and coefficient rows that do.  It is
# the square root of the smallest normal float, so a product of two parts
# kept is never subnormal.  The terms left out are far below rounding and
# would only feed subnormal floats, whose arithmetic is slow on x86, into
# the passes.
_POWER_FLOOR = math.sqrt(np.finfo(np.float64).tiny)


class NormKind(enum.Enum):
    """Coefficient weight family; ``weights(L)[k]`` multiplies |c_k|^2."""

    HARDY = "hardy"
    BERGMAN = "bergman"
    DIRICHLET = "dirichlet"

    def weights(self, length: int) -> np.ndarray:
        if self is NormKind.HARDY:
            return np.ones(length, dtype=np.float64)
        k1 = np.arange(1.0, length + 1.0)
        return 1.0 / k1 if self is NormKind.BERGMAN else k1


@dataclass(frozen=True)
class TaylorSeries:
    """Immutable truncated Taylor series.

    Parameters
    ----------
    coeffs : array_like of complex
        Taylor coefficients c_0 .. c_N.  At least one entry.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=np.complex128, ndmin=1)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d array")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def trunc_len(self) -> int:
        return int(self.coeffs.size)


def polynomial(coeffs: np.typing.ArrayLike) -> TaylorSeries:
    """Series holding exactly the given coefficients."""
    return TaylorSeries(coeffs)


def _norm_sq(coeffs: np.ndarray, kind: NormKind) -> np.ndarray:
    """Squared norms of the series stored along the last axis of ``coeffs``;
    zero padding at the end of a row leaves its norm unchanged, so a
    zero-padded stack of series is measured in one pass."""
    sq = coeffs.real**2 + coeffs.imag**2
    return sq @ kind.weights(coeffs.shape[-1])


def norm_sq(f: TaylorSeries, kind: NormKind) -> float:
    return float(_norm_sq(f.coeffs, kind))


def norm(f: TaylorSeries, kind: NormKind) -> float:
    return math.sqrt(norm_sq(f, kind))


def _derivative(coeffs: np.ndarray) -> np.ndarray:
    """Termwise derivative along the last axis, one entry shorter (minimum
    one); the derivative of a zero-padded row is the zero-padded derivative."""
    L = coeffs.shape[-1]
    if L == 1:
        return np.zeros_like(coeffs)
    return coeffs[..., 1:] * np.arange(1.0, L)


def differentiate(f: TaylorSeries) -> TaylorSeries:
    """Termwise derivative, c_k -> (k+1) c_{k+1}.

    The truncation length drops by one (minimum one).
    """
    return TaylorSeries(_derivative(f.coeffs))


def evaluate(f: TaylorSeries, z: np.typing.ArrayLike) -> complex | np.ndarray:
    """Value of f at a point of the closed unit disc, or at each of an array
    of such points (an array of values of the same shape).

    The powers z^k come from one running product along k, so z^k carries k
    complex roundings, and the value is the sum of their products with the
    coefficients: the error is at worst of order k_max 2^-53 sum_k |c_k|, the
    same order as for Horner's rule, and the roundings largely cancel.
    """
    z = np.asarray(z, dtype=np.complex128)
    modulus = np.abs(z)
    if np.any(modulus > 1.0 + _CIRCLE_SLACK):
        raise ValueError(
            f"evaluation point outside the closed unit disc: |z|={float(np.max(modulus))}"
        )
    powers = np.ones(z.shape + (f.trunc_len,), dtype=np.complex128)
    np.cumprod(
        np.broadcast_to(z[..., None], z.shape + (f.trunc_len - 1,)),
        axis=-1,
        out=powers[..., 1:],
    )
    # A sum along the last axis adds each point's terms in the same order
    # however many points come with it.
    values = np.sum(powers * f.coeffs, axis=-1)
    return complex(values) if values.ndim == 0 else values


def cauchy_kernel_series(lam: complex, N: int) -> TaylorSeries:
    """Reproducing kernel 1/(1 - conj(lam) z) truncated at degree N.

    Coefficients are conj(lam)^k; the discarded tail has l2-mass exactly
    |lam|^{N+1} / sqrt(1 - |lam|^2).
    """
    lam = complex(lam)
    if not abs(lam) < 1.0:
        raise ValueError(f"kernel point must lie inside the open disc: |lam|={abs(lam)}")
    if N < 0:
        raise ValueError("truncation degree must be nonnegative")
    c = np.empty(N + 1, dtype=np.complex128)
    c[0] = 1.0
    if N > 0:
        c[1:] = np.cumprod(np.full(N, np.conj(lam), dtype=np.complex128))
    return TaylorSeries(c)


def _compose_rows(coeffs: np.ndarray, lam: np.ndarray, N: int) -> np.ndarray:
    """Coefficients 0..N of f_i(b_{lam_i}(z)) for every row f_i of ``coeffs``
    (m x L, rows zero-padded at the end) and factor zero ``lam[i]``, as an
    m x (N+1) array; the Horner loop of :func:`compose_with_blaschke_factor`
    run on all rows at once.

    Each step multiplies by lam - z and divides by 1 - beta z, beta =
    conj(lam), solving y_j = u_j + beta y_{j-1} as a doubling scan: after
    the pass with shift d = 2^t every y_j sums its 2d-term window, so
    ceil(log2(N+1)) passes give the full recurrence.  A row's scan stops at
    the first pass whose multiplier beta^(2^t) falls below ``_POWER_FLOOR``
    (its multiplier is zero from there on), so subnormals stay out.  Every
    operation is elementwise and causal, so row i agrees entry for entry
    with the same loop run on that row alone, on any window.
    """
    lam = lam[:, None]
    power = np.conj(lam)
    live = np.abs(power) >= _POWER_FLOOR
    scan = []
    while (d := 1 << len(scan)) < N + 1 and live.any():
        scan.append((d, np.where(live, power, 0.0)))
        power = power * power
        live &= np.abs(power) >= _POWER_FLOOR
    out = np.zeros((coeffs.shape[0], N + 1), dtype=np.complex128)
    out[:, 0] = coeffs[:, -1]
    for k in range(coeffs.shape[1] - 2, -1, -1):
        y = lam * out
        y[:, 1:] -= out[:, :-1]
        for d, multiplier in scan:
            y[:, d:] += multiplier * y[:, :-d]
        y[:, 0] += coeffs[:, k]
        out = y
    return out


def compose_with_blaschke_factor(f: TaylorSeries, lam: complex, N: int) -> TaylorSeries:
    """Taylor coefficients of f(b_lam(z)) to length N+1, b_lam the disc
    automorphism (lam - z)/(1 - conj(lam) z).

    Horner's rule f(b) = c_0 + b (c_1 + b (c_2 + ...)) on a window of N+1
    coefficients: each step multiplies by lam - z (a scale and a one-place
    shift) and divides by 1 - conj(lam) z.  Both act causally, so
    coefficients 0..N of the result are exact for polynomial input up to
    rounding.
    """
    lam = complex(lam)
    if not abs(lam) < 1.0:
        raise ValueError(f"factor zero must lie inside the open disc: |lam|={abs(lam)}")
    if N < 0:
        raise ValueError("truncation degree must be nonnegative")
    return TaylorSeries(_compose_rows(f.coeffs[None, :], np.array([lam]), N)[0])


def policy_truncation(n: int, radius: float) -> int:
    """Window degree N for composing a series of n coefficients with
    Blaschke factors of modulus at most ``radius``.

    It sizes the composition windows of the quadrature oracle and of the
    invariant suite; Malmquist bases do not use it, since their build stops
    on an exact tail identity (:mod:`mslab.blaschke`).  A degree-n inner
    factor with zeros of modulus r carries Taylor mass up to index about
    n (1+r)/(1-r), the peak boundary phase velocity, plus a transition
    region of width a few n^(1/3)/(1-r); beyond that the coefficients decay
    geometrically with ratio r.  The returned N adds a geometric margin that
    pushes the dropped coefficients below the 1e-14 scale.
    """
    if n < 1:
        raise ValueError("need at least one pole")
    if not 0.0 <= radius < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    if radius == 0.0:
        return n + 2
    spread = math.ceil((n * (1.0 + radius) + 3.0 * n ** (1.0 / 3.0)) / (1.0 - radius))
    margin = math.ceil(math.log(1e-14 * (1.0 - radius)) / math.log(radius))
    return max(spread + margin, 64)
