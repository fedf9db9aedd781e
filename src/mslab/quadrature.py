"""Integral oracles for the disc norms, independent of coefficient identities.

The coefficient pipeline computes every norm from weighted sums of |c_k|^2.
This module recomputes the same quantities as honest integrals, so agreement
between the two pipelines certifies both: the normalized area integral
(1/pi) int_D |f|^2 dA through a tensor rule, and the circle average of |f|^2
for the Hardy norm.  Substituting s = rho^2 turns the radial factor into a
plain integral over [0, 1],

    (1/pi) int_D |f|^2 dA = int_0^1 (mean over angles of |f(sqrt(s) e^{i t})|^2) ds,

and after angular averaging the integrand is a polynomial in s of degree
deg f, so Gauss-Legendre in s with K nodes is exact once 2K-1 >= deg f and a
uniform M-point angular rule is exact once M > 2 deg f.  No Parseval-type
shortcut is taken anywhere here: values of f on the grid are computed by
polynomial evaluation (an FFT over the angular grid, which is the same
evaluation arranged efficiently) and squared pointwise.

The area rule is read off the stored degree of f, so it is exact by
construction; only the circle rule takes its angle count from the caller,
which lets the aliasing control ask for too few.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

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


@functools.lru_cache(maxsize=256)
def _gauss_legendre(K: int) -> tuple[np.ndarray, np.ndarray]:
    """K-point Gauss-Legendre rule moved to [0, 1], as read-only arrays;
    cached because the same few orders recur across every check."""
    x, w = leggauss(K)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _grid_values_sq(f: TaylorSeries, radii_sq: np.ndarray, M: int) -> np.ndarray:
    """|f|^2 on the polar grid, rows per radius, via FFT polynomial evaluation."""
    L = f.trunc_len
    padded = np.zeros((radii_sq.size, max(M, L)), dtype=np.complex128)
    rho = np.sqrt(radii_sq)
    # Row j holds c_k rho_j^k; the FFT evaluates at the M-th roots of unity.
    powers = rho[:, None] ** np.arange(L)[None, :]
    padded[:, :L] = f.coeffs[None, :] * powers
    if M < L:
        # Fold aliased coefficients so the evaluation stays exact pointwise.
        folded = np.zeros((radii_sq.size, M), dtype=np.complex128)
        for start in range(0, padded.shape[1], M):
            block = padded[:, start : start + M]
            folded[:, : block.shape[1]] += block
        values = np.fft.fft(folded, axis=1)
    else:
        values = np.fft.fft(padded[:, :M], axis=1)
    return np.abs(values) ** 2


def bergman_norm_quadrature(f: TaylorSeries) -> float:
    """Discretized (1/pi) int_D |f|^2 dA, the squared Bergman norm, by a
    tensor rule of the module docstring exact for the stored degree:
    ceil((deg + 1)/2) + 1 Gauss-Legendre nodes in s = rho^2 times 2 deg + 2
    uniform angles."""
    degree = f.trunc_len - 1
    nodes, weights = _gauss_legendre(math.ceil((degree + 1) / 2) + 1)
    angular_mean = np.mean(_grid_values_sq(f, nodes, 2 * degree + 2), axis=1)
    return float(np.dot(weights, angular_mean))


def hardy_norm_circle(f: TaylorSeries, M: int, allow_inexact: bool = False) -> float:
    """Uniform M-point average of |f|^2 on the unit circle (squared Hardy norm)."""
    degree = f.trunc_len - 1
    if M < 1:
        raise ValueError("need at least one angle")
    if not allow_inexact and (M - 1) // 2 < degree:
        raise CertificationError(
            f"{M}-point circle rule aliases degree {degree}"
        )
    vals = _grid_values_sq(f, np.ones(1), M)
    return float(np.mean(vals[0]))


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
    lhs = bergman_norm_quadrature(differentiate(g))
    comp = compose_with_blaschke_factor(g, lam, policy_truncation(g.trunc_len, abs(lam)))
    rhs = bergman_norm_quadrature(differentiate(comp))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return MoebiusReport(lhs, rhs, abs(lhs - rhs) / scale)
