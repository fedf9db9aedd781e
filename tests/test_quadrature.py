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

    def test_cached_rule_is_shared_and_read_only(self):
        """Repeated calls reuse one Gauss-Legendre rule, which matches numpy's
        leggauss where that is cheap, and nothing can write into the shared
        copy."""
        from numpy.polynomial.legendre import leggauss

        for K in (2, 5, 34, 100):
            nodes, weights = quadrature._gauss_legendre(K)
            x, w = leggauss(K)
            np.testing.assert_allclose(nodes, (x + 1.0) / 2.0, rtol=0, atol=1e-15)
            np.testing.assert_allclose(weights, w / 2.0, rtol=1e-11)
            assert quadrature._gauss_legendre(K)[0] is nodes
            assert not nodes.flags.writeable and not weights.flags.writeable
            with pytest.raises(ValueError):
                nodes[0] = 0.0

    @pytest.mark.parametrize("K", (2, 34, 300, 2000))
    def test_rule_is_exact_on_even_powers(self, K):
        """The moved K-point rule averages x^(2j) over [-1, 1], x = 2s - 1,
        to 1/(2j + 1) within 1e-12 relative for every j < K; numpy's
        leggauss is off by 3.8e-12 at K = 300."""
        nodes, weights = quadrature._gauss_legendre(K)
        j = np.arange(K)
        moments = weights @ (2.0 * nodes[:, None] - 1.0) ** (2 * j)
        assert np.max(np.abs(moments * (2 * j + 1) - 1.0)) <= 1e-12

    def test_large_rule_builds_without_a_companion_matrix(self):
        """K = 13502, the rule of audit n = 2, r = 0.999, builds in seconds
        (a dense K x K companion matrix would be 1.4 GiB) and averages."""
        nodes, weights = quadrature._gauss_legendre(13502)
        assert np.all(np.diff(nodes) > 0.0) and 0.0 < nodes[0] and nodes[-1] < 1.0
        np.testing.assert_allclose(np.sum(weights), 1.0, rtol=1e-13)

    def test_angle_count_is_the_next_five_smooth_length(self):
        """The angle count is the smallest 2^a 3^b 5^c at least the stored
        length, the fewest angles the area rule's unfolded FFT takes."""

        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        for L in range(1, 3000):
            M = quadrature._angle_count(L)
            assert M >= L and smooth(M)
            assert not any(smooth(m) for m in range(L, M))

    def test_grid_memory_stays_bounded(self):
        """A degree-4000 series is measured through chunks of the radial grid:
        the traced peak stays under 64 MB, where the whole 2002 x 8002 grid
        with its power table and products took over 400 MB."""
        import tracemalloc

        rng = np.random.default_rng(3)
        f = polynomial(rng.normal(size=4001) + 1j * rng.normal(size=4001))
        quadrature._gauss_legendre(2002)
        tracemalloc.start()
        try:
            value = bergman_norm_quadrature(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        np.testing.assert_allclose(value, norm_sq(f, NormKind.BERGMAN), rtol=1e-12)

    def test_stacked_kernels_match_one_series_at_a_time(self):
        """The private kernels measure a stack of equal-length series as the
        public oracles measure each one."""
        rng = np.random.default_rng(41)
        stack = rng.normal(size=(5, 23)) + 1j * rng.normal(size=(5, 23))
        disc = quadrature._disc_sq(stack)
        circle = quadrature._circle_sq(stack, 46)
        for i, row in enumerate(stack):
            f = polynomial(row)
            np.testing.assert_allclose(disc[i], bergman_norm_quadrature(f), rtol=1e-14)
            np.testing.assert_allclose(circle[i], hardy_norm_circle(f, 46), rtol=1e-14)


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

    def test_one_angle_above_the_degree_is_exact(self):
        """|f|^2 on the circle has frequencies up to deg only, so M = deg + 1
        angles reproduce the coefficient norm to 1e-14, and every M <= deg
        is refused."""
        rng = np.random.default_rng(41)
        for deg in (0, 1, 2, 7, 8, 31, 64, 99):
            f = polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
            np.testing.assert_allclose(
                hardy_norm_circle(f, deg + 1), norm_sq(f, NormKind.HARDY), rtol=1e-14
            )
            for M in range(1, deg + 1):
                with pytest.raises(CertificationError):
                    hardy_norm_circle(f, M)

    def test_aliasing_detected_and_demonstrated(self):
        """Too few angles raise; the circle kernel shows the folded value
        1 + z^M picks up."""
        M = 8
        coeffs = np.zeros(M + 1)
        coeffs[0] = 1.0
        coeffs[M] = 1.0
        f = polynomial(coeffs)
        with pytest.raises(CertificationError):
            hardy_norm_circle(f, M)
        aliased = float(quadrature._circle_sq(f.coeffs, M))
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
