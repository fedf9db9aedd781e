"""Integral oracles for the disc norms, independent of coefficient identities.

The coefficient pipeline computes every norm from weighted sums of |c_k|^2.
This module recomputes the same quantities as honest integrals, so agreement
between the two pipelines certifies both: the normalized area integral
(1/pi) int_D |f|^2 dA through a tensor rule, and the circle average of |f|^2
for the Hardy norm.  Substituting s = rho^2 turns the radial factor into a
plain integral over [0, 1],

    (1/pi) int_D |f|^2 dA = int_0^1 (mean over angles of |f(sqrt(s) e^{i t})|^2) ds,

and after angular averaging the integrand is a polynomial in s of degree
deg f, so Gauss-Legendre in s with K nodes is exact once 2K-1 >= deg f.  On
a circle |f|^2 = sum_{j,k} c_j conj(c_k) e^{i (j-k) t} only has frequencies
in [-deg f, deg f], and the uniform M-point average keeps exactly the
frequencies that are multiples of M, so it is exact once M > deg f.  No
Parseval-type shortcut is taken anywhere here: values of f on the grid are
computed by polynomial evaluation (an FFT over the angular grid, which is
the same evaluation arranged efficiently) and squared pointwise.

The area rule is read off the stored degree of f, so it is exact by
construction; only the circle rule takes its angle count from the caller,
which lets the aliasing control ask for too few.  For a series of stored
length L the area rule has ceil(L/2) + 1 Gauss-Legendre nodes, found by
Newton's method on the Legendre recurrence in O(L) memory, and the smallest
2^a 3^b 5^c angle count at least L, where the FFT is fast; its FFT
evaluates f without folding, which needs those L angles.  The radial grid
is evaluated a chunk of radii at a time under a fixed byte budget, so
memory stays O(L) however many radii the rule has.

The rules run in private kernels that measure a stack of series stored at
one length (the rows of an array) in one pass; the public oracles hand them
one series each, and the invariant suite hands them the stacks of its draws.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError
from .series import (
    TaylorSeries,
    compose_with_blaschke_factor,
    differentiate,
    policy_truncation,
)

__all__ = [
    "bergman_norm_quadrature",
    "hardy_norm_circle",
    "moebius_invariance_check",
    "MoebiusReport",
]


# Bytes of grid values evaluated at once: the radial grid is walked a chunk
# of radii at a time, so the oracle's memory grows with the stored length of
# the series, not with the number of radii times the number of angles.
_GRID_BYTES = 1 << 23

_LOG_TINY = math.log(np.finfo(np.float64).tiny)


@functools.lru_cache(maxsize=256)
def _gauss_legendre(K: int) -> tuple[np.ndarray, np.ndarray]:
    """K-point Gauss-Legendre rule moved to [0, 1], as read-only arrays with
    ascending nodes; cached because the same few orders recur across every
    check.

    The roots x = cos(theta) of P_K with x >= 0 are found all at once by
    Newton's method in theta, from Tricomi's asymptotic guess, and the other
    half is their mirror image.  P_K is evaluated by the three-term
    recurrence written for u = 1 - x = 2 sin^2(theta/2),

        D_{k+1} = (k D_k - (2k+1) u P_k) / (k+1),  P_{k+1} = P_k + D_{k+1},

    with D_k = P_k - P_{k-1}, which keeps full relative precision at the
    nodes crowding x = 1, where the rounding of x itself would cost it.
    The weights are (1 - x^2) / (K P_{K-1})^2.  That is O(K) memory and
    O(K^2) time, where numpy's leggauss eigen-solves a dense K x K companion
    matrix.
    """
    half = (K + 1) // 2
    phi = np.pi * (4.0 * np.arange(1, half + 1) - 1.0) / (4.0 * K + 2.0)
    theta = np.arccos((1.0 - (K - 1) / (8.0 * K**3)) * np.cos(phi))
    converged = False
    while True:
        u = 2.0 * np.sin(theta / 2.0) ** 2
        p, d = 1.0 - u, -u
        for k in range(1, K):
            t = u * p
            t *= (2 * k + 1) / (k + 1)
            d *= k / (k + 1)
            d -= t
            p = p + d
        if converged:
            break
        # Newton on P_K(cos theta), whose theta-derivative is
        # K (x P_K - P_{K-1}) / sin(theta); the pass after the last step
        # evaluates P_{K-1} at the final nodes for the weights.
        step = p * np.sin(theta) / (K * (d - u * p))
        theta -= step
        converged = bool(np.max(np.abs(step)) < 1e-12)
    w = (np.sin(theta) / (K * (p - d))) ** 2
    nodes = np.concatenate([u[: K // 2] / 2.0, (1.0 + np.cos(theta[::-1])) / 2.0])
    weights = np.concatenate([w[: K // 2], w[::-1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@functools.lru_cache(maxsize=256)
def _angle_count(length: int) -> int:
    """Smallest 2^a 3^b 5^c >= length.  Any count above the degree, length - 1,
    is exact (module docstring); the length itself is often prime, a size
    the FFT handles several times slower than a 5-smooth one."""
    best = 1 << (length - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-length // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _sum_sq(values: np.ndarray) -> np.ndarray:
    """Sum of |v|^2 along the last axis of a complex array, in one pass over
    its float view."""
    flat = values.view(np.float64)
    return np.einsum("...i,...i->...", flat, flat)


def _disc_sq(coeffs: np.ndarray) -> np.ndarray:
    """Discretized (1/pi) int_D |f|^2 dA for the series stored along the last
    axis of ``coeffs``, by the tensor rule of the module docstring exact for
    their stored length L: ceil(L/2) + 1 Gauss-Legendre nodes in s = rho^2
    times ``_angle_count(L)`` uniform angles, radii taken in chunks of at
    most ``_GRID_BYTES`` of grid values."""
    L = coeffs.shape[-1]
    rows = coeffs.reshape(-1, L)
    nodes, weights = _gauss_legendre(-(-L // 2) + 1)
    M = _angle_count(L)
    chunk = max(1, _GRID_BYTES // (16 * M * rows.shape[0]))
    k = np.arange(L)
    total = np.zeros(rows.shape[0])
    for start in range(0, nodes.size, chunk):
        radii = np.sqrt(nodes[start : start + chunk])[:, None]
        # Powers below the smallest normal float stay zero: what they carry
        # is far below the rounding of the sum, and computing them (with
        # underflow) is slow on x86.
        powers = np.zeros((radii.size, L))
        np.power(radii, k, out=powers, where=np.log(radii) * k >= _LOG_TINY)
        # Entry (j, i, k) is c_k rho_j^k of series i; the FFT evaluates each
        # (j, i) row at the M-th roots of unity.
        grid = rows * powers[:, None, :]
        total += weights[start : start + chunk] @ _sum_sq(np.fft.fft(grid, n=M, axis=-1))
    return (total / M).reshape(coeffs.shape[:-1])


def _circle_sq(coeffs: np.ndarray, M: int) -> np.ndarray:
    """Uniform M-point averages of |f|^2 on the unit circle for the series
    stored along the last axis of ``coeffs``."""
    L = coeffs.shape[-1]
    if M < L:
        # Fold aliased coefficients so the evaluation stays exact pointwise.
        pad = [(0, 0)] * (coeffs.ndim - 1) + [(0, -L % M)]
        coeffs = np.pad(coeffs, pad).reshape(*coeffs.shape[:-1], -1, M).sum(axis=-2)
    return _sum_sq(np.fft.fft(coeffs, n=M, axis=-1)) / M


def bergman_norm_quadrature(f: TaylorSeries) -> float:
    """Discretized (1/pi) int_D |f|^2 dA, the squared Bergman norm, by the
    tensor rule of the module docstring exact for the stored degree:
    ceil((deg + 1)/2) + 1 Gauss-Legendre nodes in s = rho^2, built by
    Newton's method, times the smallest 2^a 3^b 5^c angle count at least
    deg + 1, with the radial grid evaluated in chunks of bounded size."""
    return float(_disc_sq(f.coeffs))


def hardy_norm_circle(f: TaylorSeries, M: int) -> float:
    """Uniform M-point average of |f|^2 on the unit circle (squared Hardy norm),
    exact once M > deg f; fewer angles raise."""
    degree = f.trunc_len - 1
    if M < 1:
        raise ValueError("need at least one angle")
    if M <= degree:
        raise CertificationError(
            f"{M}-point circle rule aliases degree {degree}"
        )
    return float(_circle_sq(f.coeffs, M))


@dataclass(frozen=True)
class MoebiusReport:
    """Dirichlet seminorms of g and g o b_lam with their relative gap."""

    seminorm_sq: float
    composed_seminorm_sq: float
    relative_gap: float


def moebius_invariance_check(g: TaylorSeries, lam: complex) -> MoebiusReport:
    """Conformal invariance of the Dirichlet integral, checked by quadrature.

    Both (1/pi) int |g'|^2 dA and (1/pi) int |(g o b_lam)'|^2 dA are computed
    through the integral oracle; analytically they are equal for any disc
    automorphism.  The composition is truncated at the policy length for the
    degree of g and |lam|, long enough that the truncated polynomial carries
    the integral to well below the reported gap.
    """
    lam = complex(lam)
    if abs(lam) >= 1.0:
        raise ValueError("automorphism parameter must lie inside the open disc")
    comp = compose_with_blaschke_factor(g, lam, policy_truncation(g.trunc_len, abs(lam)))
    return _moebius_report(g, comp)


def _moebius_report(g: TaylorSeries, comp: TaylorSeries) -> MoebiusReport:
    """Area-oracle Dirichlet seminorms of g and of ``comp``, its composition
    with a disc automorphism, however that was computed."""
    lhs = bergman_norm_quadrature(differentiate(g))
    rhs = bergman_norm_quadrature(differentiate(comp))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return MoebiusReport(lhs, rhs, abs(lhs - rhs) / scale)
