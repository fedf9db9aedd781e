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
discarded tail: truncations are certified where they are made, by the
orthonormality of the Malmquist basis (see :mod:`mslab.blaschke`).  The
composition divides by first-order factors 1 - beta z with a doubling scan;
the Malmquist basis itself is built in :mod:`mslab.blaschke` by a row
recurrence on its coefficient matrix, so it needs no series arithmetic.  The
truncation policy for a configuration of n poles of max modulus r lives in
:func:`policy_truncation`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

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
        k = np.arange(length, dtype=np.float64)
        if self is NormKind.HARDY:
            return np.ones(length, dtype=np.float64)
        if self is NormKind.BERGMAN:
            return 1.0 / (k + 1.0)
        return k + 1.0


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
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def trunc_len(self) -> int:
        return int(self.coeffs.size)

    def __str__(self) -> str:
        # Debug rendering, one "k: re im" line per stored coefficient.
        return "\n".join(
            f"{k}: {c.real:.17g} {c.imag:.17g}" for k, c in enumerate(self.coeffs)
        )


def polynomial(coeffs: Iterable[complex]) -> TaylorSeries:
    """Series holding exactly the given coefficients."""
    return TaylorSeries(np.asarray(list(coeffs), dtype=np.complex128))


def norm_sq(f: TaylorSeries, kind: NormKind) -> float:
    w = kind.weights(f.trunc_len)
    return float(np.real(np.vdot(f.coeffs * w, f.coeffs)))


def norm(f: TaylorSeries, kind: NormKind) -> float:
    return math.sqrt(norm_sq(f, kind))


def differentiate(f: TaylorSeries) -> TaylorSeries:
    """Termwise derivative, c_k -> (k+1) c_{k+1}.

    The truncation length drops by one (minimum one).
    """
    L = f.trunc_len
    if L == 1:
        return TaylorSeries(np.zeros(1, dtype=np.complex128))
    return TaylorSeries(f.coeffs[1:] * np.arange(1, L, dtype=np.float64))


def evaluate(f: TaylorSeries, z: complex) -> complex:
    """Horner evaluation at a point of the closed unit disc."""
    z = complex(z)
    if abs(z) > 1.0 + _CIRCLE_SLACK:
        raise ValueError(f"evaluation point outside the closed unit disc: |z|={abs(z)}")
    return complex(np.polyval(f.coeffs[::-1], z))


def _divide_by_kernel_factor(u: np.ndarray, beta: complex) -> np.ndarray:
    """Coefficients of u(z) / (1 - beta z) on the window of u, |beta| < 1.

    Solves y_m = u_m + beta y_{m-1} as a doubling scan: after the pass with
    shift d = 2^t every y_m sums its 2d-term window, so ceil(log2 L) passes
    of length L give the full recurrence, in elementwise numpy operations
    whose result does not depend on the BLAS or its thread count.  Its one
    caller is :func:`compose_with_blaschke_factor`; the Malmquist basis needs
    no division, since its coefficient rows follow from one another by a
    matrix recurrence (see :mod:`mslab.blaschke`).
    """
    y = u.copy()
    d, power = 1, complex(beta)
    while d < y.size and abs(power) >= _POWER_FLOOR:
        y[d:] += power * y[:-d]
        d, power = 2 * d, power * power
    return y


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
    beta = lam.conjugate()
    out = np.zeros(N + 1, dtype=np.complex128)
    out[0] = f.coeffs[-1]
    for c in f.coeffs[-2::-1]:
        u = lam * out
        u[1:] -= out[:-1]
        out = _divide_by_kernel_factor(u, beta)
        out[0] += c
    return TaylorSeries(out)


def policy_truncation(n: int, radius: float) -> int:
    """Default truncation length exponent for n poles of max modulus ``radius``.

    A degree-n inner factor with zeros of modulus r carries Taylor mass up to
    index about n (1+r)/(1-r), the peak boundary phase velocity, plus a
    transition region of width a few n^(1/3)/(1-r); beyond that the
    coefficients decay geometrically with ratio r.  The returned N adds a
    geometric margin that pushes the dropped coefficients below the 1e-14
    scale, so orthonormality of the resulting bases certifies at the 1e-10
    level.
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
