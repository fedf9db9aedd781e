"""Tests for the integral oracles on the disc and circle."""

import numpy as np
import pytest

from mslab import quadrature
from mslab.errors import CertificationError
from mslab.quadrature import (
    MoebiusReport,
    bergman_norm_quadrature,
    hardy_norm_circle,
    moebius_invariance_check,
)
from mslab.series import NormKind, norm_sq, polynomial


class TestDiscQuadrature:
    """The tensor rule on the disc, read off the degree of the integrand."""

    def test_rule_from_degree_is_exact_at_every_degree(self):
        """The rule read off the stored degree integrates 1 + z^d exactly for
        every d up to 64: its even and odd node counts both cover the
        degree-d radial polynomial."""
        for deg in range(65):
            coeffs = np.zeros(deg + 1)
            coeffs[0] += 1.0
            coeffs[deg] += 1.0
            f = polynomial(coeffs)
            np.testing.assert_allclose(
                bergman_norm_quadrature(f), norm_sq(f, NormKind.BERGMAN), rtol=1e-13
            )

    def test_nodes_confined_to_unit_interval(self):
        """Radial nodes live in [0, 1] after the s = rho^2 substitution, and
        the weights average."""
        for K in (1, 2, 6, 33):
            nodes, weights = quadrature._gauss_legendre(K)
            assert np.all(nodes >= 0.0) and np.all(nodes <= 1.0)
            np.testing.assert_allclose(np.sum(weights), 1.0, rtol=1e-14)

    def test_cached_rule_is_bit_identical_and_read_only(self):
        """Repeated calls reuse one Gauss-Legendre rule, equal bit for bit to
        a fresh leggauss, and nothing can write into the shared copy."""
        from numpy.polynomial.legendre import leggauss

        for K in (2, 5, 34):
            nodes, weights = quadrature._gauss_legendre(K)
            x, w = leggauss(K)
            assert np.array_equal(nodes, (x + 1.0) / 2.0)
            assert np.array_equal(weights, w / 2.0)
            assert quadrature._gauss_legendre(K)[0] is nodes
            assert not nodes.flags.writeable and not weights.flags.writeable
            with pytest.raises(ValueError):
                nodes[0] = 0.0


class TestBergmanQuadrature:
    """Area integral against the coefficient-space Bergman norm."""

    def test_monomial_exact_values(self):
        """(1/pi) int |z^k|^2 dA = 1/(k+1) at machine precision."""
        for k in (0, 1, 4, 9, 23):
            f = polynomial([0.0] * k + [1.0])
            np.testing.assert_allclose(
                bergman_norm_quadrature(f), 1.0 / (k + 1), rtol=1e-13
            )

    def test_matches_coefficient_pipeline(self):
        """Quadrature and weighted coefficient sums agree on random polynomials."""
        rng = np.random.default_rng(17)
        for _ in range(20):
            deg = int(rng.integers(0, 30))
            f = polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
            np.testing.assert_allclose(
                bergman_norm_quadrature(f),
                norm_sq(f, NormKind.BERGMAN),
                rtol=1e-12,
            )


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
