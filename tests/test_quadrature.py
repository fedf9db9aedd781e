"""Tests for the integral oracles on the disc and circle."""

import numpy as np
import pytest

from mslab import quadrature
from mslab.errors import CertificationError
from mslab.quadrature import (
    DiscQuadrature,
    MoebiusReport,
    bergman_norm_quadrature,
    hardy_norm_circle,
    moebius_invariance_check,
)
from mslab.series import NormKind, norm_sq, polynomial


class TestDiscQuadrature:
    """Construction and exactness bookkeeping of the tensor rule."""

    def test_for_degree_reports_sufficient_exactness(self):
        """The constructed rule certifies at least the requested degree."""
        for deg in (0, 1, 5, 16, 40):
            q = DiscQuadrature.for_degree(deg)
            assert q.exact_degree() >= deg

    def test_radial_weights_must_sum_to_one(self):
        """A rule whose weights do not average is refused."""
        with pytest.raises(ValueError):
            DiscQuadrature(np.array([0.5]), np.array([0.7]), 4)

    def test_nodes_confined_to_unit_interval(self):
        """Radial nodes live in [0, 1] after the s = rho^2 substitution."""
        with pytest.raises(ValueError):
            DiscQuadrature(np.array([1.5]), np.array([1.0]), 4)
        q = DiscQuadrature.for_degree(9)
        assert np.all(q.radial_nodes >= 0.0) and np.all(q.radial_nodes <= 1.0)

    def test_cached_rule_is_bit_identical_and_read_only(self):
        """Repeated calls reuse one Gauss-Legendre rule, equal bit for bit to
        a fresh leggauss, and nothing can write into the shared copy."""
        from numpy.polynomial.legendre import leggauss

        for deg in (0, 7, 64):
            q1, q2 = DiscQuadrature.for_degree(deg), DiscQuadrature.for_degree(deg)
            x, w = leggauss(q1.radial_nodes.size)
            assert np.array_equal(q1.radial_nodes, (x + 1.0) / 2.0)
            assert np.array_equal(q1.radial_weights, w / 2.0)
            assert np.array_equal(q1.radial_nodes, q2.radial_nodes)
            with pytest.raises(ValueError):
                q1.radial_nodes[0] = 0.0
        nodes, weights = quadrature._gauss_legendre(5)
        assert quadrature._gauss_legendre(5)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable


class TestBergmanQuadrature:
    """Area integral against the coefficient-space Bergman norm."""

    def test_monomial_exact_values(self):
        """(1/pi) int |z^k|^2 dA = 1/(k+1) at machine precision."""
        for k in (0, 1, 4, 9, 23):
            f = polynomial([0.0] * k + [1.0])
            q = DiscQuadrature.for_degree(k)
            np.testing.assert_allclose(
                bergman_norm_quadrature(f, q), 1.0 / (k + 1), rtol=1e-13
            )

    def test_matches_coefficient_pipeline(self):
        """Quadrature and weighted coefficient sums agree on random polynomials."""
        rng = np.random.default_rng(17)
        for _ in range(20):
            deg = int(rng.integers(0, 30))
            f = polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
            q = DiscQuadrature.for_degree(deg)
            np.testing.assert_allclose(
                bergman_norm_quadrature(f, q),
                norm_sq(f, NormKind.BERGMAN),
                rtol=1e-12,
            )

    def test_coarse_rule_refused(self):
        """A rule too coarse for the stored degree raises by default."""
        f = polynomial(np.ones(12))
        q = DiscQuadrature.for_degree(3)
        with pytest.raises(CertificationError):
            bergman_norm_quadrature(f, q)

    def test_allow_inexact_exposes_aliasing(self):
        """Opting in to a coarse rule shows a genuinely different value."""
        M = 6
        coeffs = np.zeros(M + 1)
        coeffs[0] = 1.0
        coeffs[M] = 1.0
        f = polynomial(coeffs)
        q = DiscQuadrature.for_degree(2)
        q = DiscQuadrature(q.radial_nodes, q.radial_weights, M)
        aliased = bergman_norm_quadrature(f, q, allow_inexact=True)
        exact = norm_sq(f, NormKind.BERGMAN)
        assert abs(aliased - exact) > 0.05


class TestHardyCircle:
    """Circle average against the coefficient-space Hardy norm."""

    def test_hand_value_one_plus_z(self):
        """Average of |1 + z|^2 over the circle is 2."""
        np.testing.assert_allclose(hardy_norm_circle(polynomial([1.0, 1.0]), 8), 2.0, rtol=1e-14)

    def test_matches_coefficient_pipeline(self):
        """Circle averages agree with plain coefficient sums."""
        rng = np.random.default_rng(29)
        for _ in range(20):
            deg = int(rng.integers(0, 40))
            f = polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
            np.testing.assert_allclose(
                hardy_norm_circle(f, 2 * deg + 2),
                norm_sq(f, NormKind.HARDY),
                rtol=1e-12,
            )

    def test_aliasing_detected_and_demonstrated(self):
        """Too few angles raise; opting in shows the folded value 1 + z^M picks up."""
        M = 8
        coeffs = np.zeros(M + 1)
        coeffs[0] = 1.0
        coeffs[M] = 1.0
        f = polynomial(coeffs)
        with pytest.raises(CertificationError):
            hardy_norm_circle(f, M)
        aliased = hardy_norm_circle(f, M, allow_inexact=True)
        np.testing.assert_allclose(aliased, 4.0, rtol=1e-13)
        np.testing.assert_allclose(norm_sq(f, NormKind.HARDY), 2.0)


class TestMoebiusInvariance:
    """Conformal invariance of the Dirichlet integral via the area oracle."""

    def test_random_polynomials_are_invariant(self):
        """The seminorm survives composition with disc automorphisms."""
        rng = np.random.default_rng(35)
        for _ in range(10):
            deg = int(rng.integers(1, 12))
            g = polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
            rad = 0.7 * np.sqrt(rng.uniform())
            lam = rad * np.exp(2j * np.pi * rng.uniform())
            rep = moebius_invariance_check(g, lam)
            assert isinstance(rep, MoebiusReport)
            assert rep.relative_gap <= 1e-8

    def test_origin_automorphism_is_exact(self):
        """b_0 = -z changes nothing beyond rounding."""
        g = polynomial([1.0, 2.0, -1.0, 0.5])
        rep = moebius_invariance_check(g, 0.0)
        assert rep.relative_gap <= 1e-14

    def test_constant_has_zero_seminorm(self):
        """Constants carry no Dirichlet energy on either side."""
        rep = moebius_invariance_check(polynomial([3.0]), 0.4)
        assert rep.seminorm_sq == 0.0
        assert rep.composed_seminorm_sq <= 1e-20

    def test_boundary_parameter_rejected(self):
        """Automorphism parameters must lie inside the disc."""
        with pytest.raises(ValueError):
            moebius_invariance_check(polynomial([1.0, 1.0]), 1.0)
