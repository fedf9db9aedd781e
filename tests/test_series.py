"""Tests for truncated series arithmetic and the coefficient-space norms."""

import numpy as np
import pytest

from mslab.series import (
    NormKind,
    TaylorSeries,
    _compose_rows,
    cauchy_kernel_series,
    compose_with_blaschke_factor,
    differentiate,
    evaluate,
    norm,
    norm_sq,
    policy_truncation,
    polynomial,
)


def _horner_convolution_compose(coeffs, lam, N):
    """Independent composition: Horner's rule with each product a full
    Cauchy product against the closed-form coefficients of
    b_lam = (lam - z)/(1 - conj(lam) z), cut back to N+1 entries."""
    b = np.empty(N + 1, dtype=np.complex128)
    b[0] = lam
    b[1:] = -(1.0 - abs(lam) ** 2) * np.conj(complex(lam)) ** np.arange(N)
    out = np.array(coeffs[-1:], dtype=np.complex128)
    for c in coeffs[-2::-1]:
        out = np.convolve(out, b)[: N + 1]
        out[0] += c
    padded = np.zeros(N + 1, dtype=np.complex128)
    padded[: out.size] = out
    return padded


class TestTaylorSeries:
    """Construction and invariants of the stored-coefficient container."""

    def test_rejects_empty_coefficients(self):
        """At least one stored coefficient is required."""
        with pytest.raises(ValueError):
            polynomial([])

    def test_coefficients_are_write_protected(self):
        """Stored coefficients cannot be mutated in place."""
        f = polynomial([1.0, 2.0])
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0


class TestNorms:
    """Coefficient-space Hardy, Bergman and Dirichlet norms."""

    def test_hand_values_for_one_plus_z(self):
        """1 + z has squared norms 2 (Hardy), 3/2 (Bergman), 3 (Dirichlet)."""
        f = polynomial([1.0, 1.0])
        np.testing.assert_allclose(norm_sq(f, NormKind.HARDY), 2.0, rtol=0, atol=0)
        np.testing.assert_allclose(norm_sq(f, NormKind.BERGMAN), 1.5, rtol=0, atol=0)
        np.testing.assert_allclose(norm_sq(f, NormKind.DIRICHLET), 3.0, rtol=0, atol=0)

    def test_monomial_weights(self):
        """z^k picks up exactly the weight of index k in each norm."""
        for k in (0, 3, 17):
            f = polynomial([0.0] * k + [1.0])
            assert norm_sq(f, NormKind.HARDY) == 1.0
            np.testing.assert_allclose(norm_sq(f, NormKind.BERGMAN), 1.0 / (k + 1))
            np.testing.assert_allclose(norm_sq(f, NormKind.DIRICHLET), float(k + 1))

    def test_norm_splitting_identity(self):
        """Dirichlet norm splits exactly into derivative-Bergman plus Hardy."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            f = polynomial(rng.normal(size=40) + 1j * rng.normal(size=40))
            lhs = norm_sq(f, NormKind.DIRICHLET)
            rhs = norm_sq(differentiate(f), NormKind.BERGMAN) + norm_sq(f, NormKind.HARDY)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-13)


class TestDifferentiate:
    """Coefficient shift-and-scale rule for the derivative."""

    def test_polynomial_rule(self):
        """d/dz (1 + z + z^2) = 1 + 2z in coefficients."""
        f = polynomial([1.0, 1.0, 1.0])
        np.testing.assert_allclose(differentiate(f).coeffs, [1.0, 2.0])

    def test_matches_finite_differences(self):
        """Derivative agrees with a central difference quotient inside the disc."""
        rng = np.random.default_rng(3)
        f = polynomial(rng.normal(size=12) + 1j * rng.normal(size=12))
        z, h = 0.3 + 0.1j, 1e-5
        fd = (evaluate(f, z + h) - evaluate(f, z - h)) / (2.0 * h)
        np.testing.assert_allclose(evaluate(differentiate(f), z), fd, atol=1e-6)

    def test_constant_derivative_is_zero_series(self):
        """Differentiating a constant leaves the single zero coefficient."""
        d = differentiate(polynomial([7.0]))
        assert d.trunc_len == 1
        assert d.coeffs[0] == 0.0


def _python_horner(coeffs, z):
    """Reference value of sum_k c_k z^k by Horner's rule in Python complex
    arithmetic, one coefficient at a time."""
    acc = 0j
    for c in reversed([complex(c) for c in coeffs]):
        acc = acc * z + c
    return acc


class TestEvaluate:
    """Power-vector evaluation on the closed disc."""

    def test_matches_polyval(self):
        """evaluate agrees with numpy polynomial evaluation."""
        rng = np.random.default_rng(8)
        c = rng.normal(size=7) + 1j * rng.normal(size=7)
        f = polynomial(c)
        for z in (0.0, 0.5j, -0.8, 0.6 + 0.6j):
            np.testing.assert_allclose(evaluate(f, z), np.polyval(c[::-1], z), rtol=1e-14)

    @pytest.mark.parametrize("modulus", (1.0, 0.999))
    def test_long_series_match_horner_oracle(self, modulus):
        """At degree 500 and 1000, on and just inside the circle, the
        running-product powers stay within 1e-13 sum_k |c_k| of Horner's rule."""
        rng = np.random.default_rng(29)
        for degree in (500, 1000):
            c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
            f = polynomial(c)
            angles = rng.uniform(0.0, 2.0 * np.pi, size=8)
            for z in modulus * np.exp(1j * angles):
                gap = abs(evaluate(f, z) - _python_horner(c, complex(z)))
                assert gap <= 1e-13 * np.sum(np.abs(c)), (degree, z, gap)

    def test_array_of_points_matches_pointwise(self):
        """An array of points gives the array of values, each one equal to
        the value at that point alone."""
        rng = np.random.default_rng(31)
        f = polynomial(rng.normal(size=30) + 1j * rng.normal(size=30))
        z = 0.95 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(2, 3)))
        values = evaluate(f, z)
        assert values.shape == (2, 3)
        for point, value in zip(z.ravel(), values.ravel()):
            assert value == evaluate(f, point)
        assert isinstance(evaluate(f, 0.5), complex)

    def test_rejects_points_outside_disc(self):
        """Evaluation beyond the closed disc is refused, also when one point
        of an array lies outside."""
        with pytest.raises(ValueError):
            evaluate(polynomial([1.0]), 1.5)
        with pytest.raises(ValueError):
            evaluate(polynomial([1.0]), [0.5, 1.5j])


class TestArithmetic:
    """Coefficientwise scaling of a stored series."""

    def test_scale_is_homogeneous(self):
        """Scaling multiplies every norm by the modulus."""
        f = polynomial([1.0, -2.0, 1j])
        c = 3.0 - 4.0j
        for kind in NormKind:
            np.testing.assert_allclose(
                norm(TaylorSeries(c * f.coeffs), kind), abs(c) * norm(f, kind), rtol=1e-15
            )


class TestKernelSeries:
    """Geometric kernel expansions."""

    def test_cauchy_coefficients_are_conjugate_powers(self):
        """The reproducing kernel at lam stores conj(lam)^k."""
        lam = 0.4 + 0.3j
        f = cauchy_kernel_series(lam, 10)
        np.testing.assert_allclose(f.coeffs, np.conj(lam) ** np.arange(11), rtol=1e-14)

    def test_cauchy_rejects_point_outside_open_disc(self):
        """Kernel points on the circle or with a NaN coordinate are refused."""
        for lam in (1.0, complex(float("nan"), 0.0)):
            with pytest.raises(ValueError, match="open disc"):
                cauchy_kernel_series(lam, 4)


class TestComposition:
    """Substitution of a Blaschke factor into a stored series."""

    def test_matches_pointwise_composition(self):
        """Coefficients of f(b_lam(z)) reproduce the two-step evaluation."""
        rng = np.random.default_rng(21)
        f = polynomial(rng.normal(size=9) + 1j * rng.normal(size=9))
        lam = 0.45 + 0.25j
        comp = compose_with_blaschke_factor(f, lam, policy_truncation(9, abs(lam)))
        for z in (0.2, -0.7j, 0.5 - 0.4j):
            b = (lam - z) / (1.0 - np.conj(lam) * z)
            np.testing.assert_allclose(evaluate(comp, z), evaluate(f, b), atol=1e-12)

    def test_composition_at_origin_alternates_signs(self):
        """Composing with b_0 = -z flips the sign of odd coefficients."""
        f = polynomial([1.0, 2.0, 3.0, 4.0])
        comp = compose_with_blaschke_factor(f, 0.0, 3)
        np.testing.assert_allclose(comp.coeffs, [1.0, -2.0, 3.0, -4.0], atol=1e-15)

    def test_involution_recovers_coefficients(self):
        """Composing twice with the same factor is the identity."""
        rng = np.random.default_rng(13)
        f = polynomial(rng.normal(size=7) + 1j * rng.normal(size=7))
        lam = 0.35
        N = policy_truncation(7, lam)
        back = compose_with_blaschke_factor(
            compose_with_blaschke_factor(f, lam, N), lam, N
        )
        np.testing.assert_allclose(back.coeffs[:7], f.coeffs, atol=1e-11)

    @pytest.mark.parametrize(
        "lam",
        (0.0, 0.35, 0.45 + 0.25j, 0.9 * np.exp(0.7j)),
        ids=("0", "0.35", "0.45+0.25i", "0.9e^0.7i"),
    )
    def test_matches_horner_convolution_oracle(self, lam):
        """The division recurrence agrees with full Cauchy products to 1e-13
        relative for every degree 0..30."""
        rng = np.random.default_rng(41)
        N = 80
        for deg in range(31):
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            got = compose_with_blaschke_factor(polynomial(c), lam, N).coeffs
            want = _horner_convolution_compose(c, lam, N)
            assert got.shape == (N + 1,)
            gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert gap <= 1e-13, (deg, gap)

    def test_rows_compose_as_they_would_alone(self):
        """Rows of different degrees and factor zeros, zero-padded into one
        array and composed on one window, give each row's own composition
        on its own window, entry for entry."""
        rng = np.random.default_rng(47)
        lams = np.array([0.0, 0.35, 0.45 + 0.25j, 0.9 * np.exp(0.7j), 1e-160])
        degrees = (0, 3, 12, 7, 5)
        windows = (4, 30, 90, 200, 2)
        rows = np.zeros((lams.size, max(degrees) + 1), dtype=np.complex128)
        for row, deg in zip(rows, degrees):
            row[: deg + 1] = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        together = _compose_rows(rows, lams, max(windows))
        for row, deg, lam, N, got in zip(rows, degrees, lams, windows, together):
            alone = compose_with_blaschke_factor(polynomial(row[: deg + 1]), lam, N)
            np.testing.assert_array_equal(got[: N + 1], alone.coeffs)

    def test_rejects_factor_zero_outside_disc(self):
        """|lam| >= 1 or NaN is no disc automorphism and is refused."""
        f = polynomial([1.0, 2.0])
        for lam in (1.0, -1j, 1.5, complex(0.2, float("nan"))):
            with pytest.raises(ValueError, match="open disc"):
                compose_with_blaschke_factor(f, lam, 4)

    def test_rejects_negative_degree(self):
        """A truncation degree below zero is refused."""
        with pytest.raises(ValueError):
            compose_with_blaschke_factor(polynomial([1.0, 2.0]), 0.3, -1)

    def test_short_window_is_head_of_longer(self):
        """N below the degree of f keeps N+1 coefficients, the head of a
        longer composition."""
        rng = np.random.default_rng(43)
        f = polynomial(rng.normal(size=13) + 1j * rng.normal(size=13))
        lam = 0.6 - 0.3j
        long = compose_with_blaschke_factor(f, lam, 60).coeffs
        for N in (0, 1, 5, 11):
            short = compose_with_blaschke_factor(f, lam, N).coeffs
            assert short.shape == (N + 1,)
            np.testing.assert_allclose(short, long[: N + 1], rtol=1e-14, atol=0)


class TestPolicyTruncation:
    """Certified default truncation length."""

    def test_zero_radius_is_cheap(self):
        """Configurations at the origin need no geometric padding."""
        assert policy_truncation(5, 0.0) == 7

    def test_monotone_in_radius(self):
        """Closer to the boundary demands longer stored windows."""
        lengths = [policy_truncation(10, r) for r in (0.0, 0.3, 0.5, 0.7, 0.8)]
        assert lengths == sorted(lengths)
        assert lengths[-1] > lengths[0]

    def test_floor_applies(self):
        """Small problems still get the safety floor away from radius zero."""
        assert policy_truncation(1, 0.05) >= 64
