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
    "DiscQuadrature",
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


@dataclass(frozen=True)
class DiscQuadrature:
    """Tensor rule on the disc: Gauss-Legendre in s = rho^2 times uniform angles."""

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    angular_count: int

    def __post_init__(self) -> None:
        nodes = np.asarray(self.radial_nodes, dtype=np.float64)
        weights = np.asarray(self.radial_weights, dtype=np.float64)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("radial nodes and weights must be matching vectors")
        if np.any(nodes < 0.0) or np.any(nodes > 1.0):
            raise ValueError("radial nodes must lie in [0, 1]")
        if abs(float(np.sum(weights)) - 1.0) > 1e-14:
            raise ValueError("radial weights must sum to one")
        if self.angular_count < 1:
            raise ValueError("need at least one angle")
        nodes = nodes.copy()
        weights = weights.copy()
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "radial_nodes", nodes)
        object.__setattr__(self, "radial_weights", weights)

    @classmethod
    def for_degree(cls, degree: int) -> "DiscQuadrature":
        """Smallest rule of this family exact for polynomials of the degree."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        nodes, weights = _gauss_legendre(math.ceil((degree + 1) / 2) + 1)
        return cls(nodes, weights, 2 * degree + 2)

    def exact_degree(self) -> int:
        """Largest polynomial degree this rule integrates exactly."""
        radial = 2 * self.radial_nodes.size - 1
        angular = (self.angular_count - 1) // 2
        return min(radial, angular)


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


def bergman_norm_quadrature(
    f: TaylorSeries, q: DiscQuadrature, allow_inexact: bool = False
) -> float:
    """Discretized (1/pi) int_D |f|^2 dA, the squared Bergman norm.

    Raises :class:`CertificationError` when the rule is too coarse for the
    stored degree, unless ``allow_inexact`` is set (used by the negative
    controls that demonstrate aliasing).
    """
    degree = f.trunc_len - 1
    if not allow_inexact and q.exact_degree() < degree:
        raise CertificationError(
            f"quadrature exact to degree {q.exact_degree()} asked to integrate degree {degree}"
        )
    vals = _grid_values_sq(f, q.radial_nodes, q.angular_count)
    angular_mean = np.mean(vals, axis=1)
    return float(np.dot(q.radial_weights, angular_mean))


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
    dg = differentiate(g)
    lhs = bergman_norm_quadrature(dg, DiscQuadrature.for_degree(max(dg.trunc_len - 1, 0)))
    N = policy_truncation(max(g.trunc_len, 1), abs(lam))
    comp = compose_with_blaschke_factor(g, lam, N)
    dcomp = differentiate(comp)
    rhs = bergman_norm_quadrature(
        dcomp, DiscQuadrature.for_degree(max(dcomp.trunc_len - 1, 0))
    )
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return MoebiusReport(lhs, rhs, abs(lhs - rhs) / scale)
