"""Tests for derivative constants on model spaces and their envelopes."""

import math

import numpy as np
import pytest

from mslab.bernstein import (
    BoundEnvelope,
    asymptotic_ratio_sweep,
    constant_from_basis,
    default_alternation_depth,
    en_prime_bergman_audit,
    eq4_envelope,
    step2_expansion_check,
    step2_test_function,
    z2_upper_hardy,
)
from mslab.blaschke import PoleConfiguration, malmquist_basis
from mslab.interpolation import ModelSpace
from mslab.series import NormKind, differentiate, norm, norm_sq


def _random_config(rng, n, max_r):
    rad = max_r * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return PoleConfiguration(tuple(rad * np.exp(1j * ang)))


def _differentiated_gram_constant(basis, target):
    """Independent route: differentiate every element, then take the top
    eigenvalue of the target-weighted Gram of the derivatives."""
    D = np.column_stack(
        [differentiate(basis.element(k)).coeffs for k in range(basis.sigma.n)]
    )
    w = target.weights(D.shape[0])
    G = D.conj().T @ (w[:, None] * D)
    return math.sqrt(max(float(np.linalg.eigvalsh((G + G.conj().T) / 2.0)[-1]), 0.0))


# Origin, one point at moderate and extreme radius, a larger space, and
# repeated points.
_ORACLE_PANEL = {
    "origin": (0.0,) * 5,
    "one-point-0.5": (0.5,) * 6,
    "one-point-0.99": (0.99,) * 4,
    "n40-0.6": (0.6,) * 40,
    "repeated": (0.3 + 0.2j, 0.3 + 0.2j, -0.5j, -0.5j, -0.5j, 0.7),
}


class TestHandValues:
    """Constants worked out by hand for small configurations."""

    def test_two_zeros_bergman(self):
        """sigma = {0, 0}: the only derivative is constant, so the norm is 1."""
        res = ModelSpace(PoleConfiguration.one_point(2, 0.0)).bernstein(NormKind.BERGMAN)
        np.testing.assert_allclose(res.constant, 1.0, atol=1e-12)

    def test_three_zeros_bergman(self):
        """sigma = {0, 0, 0}: top eigenvalue of diag(1, 2) gives sqrt(2)."""
        res = ModelSpace(PoleConfiguration.one_point(3, 0.0)).bernstein(NormKind.BERGMAN)
        np.testing.assert_allclose(res.constant, math.sqrt(2.0), rtol=1e-12)

    def test_double_half_bergman(self):
        """sigma = {1/2, 1/2}: 2x2 Gram eigenvalue gives sqrt((7 + sqrt(41))/6)."""
        res = ModelSpace(PoleConfiguration.one_point(2, 0.5)).bernstein(NormKind.BERGMAN)
        np.testing.assert_allclose(
            res.constant, math.sqrt((7.0 + math.sqrt(41.0)) / 6.0), rtol=1e-10
        )

    def test_origin_laws_both_targets(self):
        """At r = 0 the constants are sqrt(n-1) (Bergman) and n-1 (Hardy)."""
        for n in (2, 3, 5, 9, 14):
            space = ModelSpace(PoleConfiguration.one_point(n, 0.0))
            np.testing.assert_allclose(
                space.bernstein(NormKind.BERGMAN).constant,
                math.sqrt(n - 1.0),
                rtol=1e-11,
            )
            np.testing.assert_allclose(
                space.bernstein(NormKind.HARDY).constant,
                float(n - 1),
                rtol=1e-11,
            )

    def test_single_kernel_has_explicit_constant(self):
        """n = 1: the lone normalized kernel gives a directly summable norm."""
        lam = 0.5
        res = ModelSpace(PoleConfiguration((lam,))).bernstein(NormKind.BERGMAN)
        e = malmquist_basis(PoleConfiguration((lam,))).element(0)
        np.testing.assert_allclose(
            res.constant, norm(differentiate(e), NormKind.BERGMAN), rtol=1e-12
        )


class TestConstantProperties:
    """Structural invariances of the computed constant."""

    @pytest.mark.parametrize(
        "target", (NormKind.BERGMAN, NormKind.HARDY), ids=("bergman", "hardy")
    )
    @pytest.mark.parametrize("points", _ORACLE_PANEL.values(), ids=_ORACLE_PANEL.keys())
    def test_weighted_gram_matches_differentiated_route(self, points, target):
        """The top eigenvalue of E^* diag(w) E equals the constant obtained by
        differentiating the basis first."""
        basis = malmquist_basis(PoleConfiguration(points))
        np.testing.assert_allclose(
            constant_from_basis(basis, target).constant,
            _differentiated_gram_constant(basis, target),
            rtol=1e-12,
        )

    def test_dirichlet_target_rejected(self):
        """Only Bergman and Hardy targets make sense here."""
        with pytest.raises(ValueError):
            ModelSpace(PoleConfiguration((0.3,))).bernstein(NormKind.DIRICHLET)

    def test_rotation_invariance(self):
        """Rotating the configuration leaves the constant unchanged."""
        rng = np.random.default_rng(14)
        sig = _random_config(rng, 4, 0.6)
        base = ModelSpace(sig).bernstein(NormKind.BERGMAN).constant
        for theta in (0.7, 2.1):
            rot = ModelSpace(sig.rotated(theta)).bernstein(NormKind.BERGMAN).constant
            np.testing.assert_allclose(rot, base, rtol=1e-9)

    def test_extremal_witness_attains_constant(self):
        """The reported eigenvector assembles a unit function achieving the norm."""
        rng = np.random.default_rng(20)
        sig = _random_config(rng, 5, 0.5)
        basis = malmquist_basis(sig)
        res = constant_from_basis(basis, NormKind.BERGMAN)
        f = basis.combine(res.extremal)
        np.testing.assert_allclose(norm(f, NormKind.HARDY), 1.0, atol=1e-9)
        np.testing.assert_allclose(
            norm(differentiate(f), NormKind.BERGMAN), res.constant, rtol=1e-9
        )

    def test_one_point_nesting(self):
        """Adding a point at the same spot never shrinks the constant."""
        for target in (NormKind.BERGMAN, NormKind.HARDY):
            prev = 0.0
            for n in range(1, 7):
                sig = PoleConfiguration.one_point(n, 0.4)
                c = ModelSpace(sig).bernstein(target).constant
                assert c >= prev - 1e-12
                prev = c

    def test_rayleigh_lower_bound_from_member(self):
        """Any unit member bounds the constant from below; take the last element."""
        for n, r in ((2, 0.5), (5, 0.3), (8, 0.6)):
            audit = en_prime_bergman_audit(n, r)
            sig = PoleConfiguration.one_point(n, r)
            c = ModelSpace(sig).bernstein(NormKind.BERGMAN).constant
            assert c**2 >= audit.numeric_sq - 1e-9


_BANDED_N = (1, 2, 3, 5, 8, 12, 20, 40)
_BANDED_R = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)
_TARGETS = pytest.mark.parametrize(
    "target", (NormKind.BERGMAN, NormKind.HARDY), ids=("bergman", "hardy")
)


class TestOnePointBandedRoute:
    """The n x n banded operator of a one-point space against the basis
    matrix E, which stays the oracle for this family."""

    @_TARGETS
    @pytest.mark.parametrize("n", _BANDED_N)
    def test_matches_basis_matrix(self, n, target):
        """Banded and E routes agree to 1e-12 relative over the radius panel."""
        for r in _BANDED_R:
            sig = PoleConfiguration.one_point(n, r)
            banded = ModelSpace(sig).bernstein(target)
            assert banded.trunc_len == n
            oracle = constant_from_basis(malmquist_basis(sig), target)
            np.testing.assert_allclose(
                banded.constant, oracle.constant, rtol=1e-12, atol=1e-14
            )

    @_TARGETS
    def test_complex_centre_extremal_attains_constant(self, target):
        """For lam = |lam| e^{i theta} the rotated banded eigenvector, combined
        over the Malmquist basis of lam, is a unit function attaining C."""
        space = ModelSpace(PoleConfiguration.one_point(6, 0.6 * np.exp(1.1j)))
        basis = space.basis
        res = space.bernstein(target)
        f = basis.combine(res.extremal)
        np.testing.assert_allclose(norm(f, NormKind.HARDY), 1.0, atol=1e-9)
        np.testing.assert_allclose(
            norm(differentiate(f), target), res.constant, rtol=1e-9
        )
        np.testing.assert_allclose(
            res.constant, constant_from_basis(basis, target).constant, rtol=1e-12
        )


class TestEnvelopes:
    """Closed-form brackets and the growth-rate upper bound."""

    def test_eq4_upper_dominates_computed_constant(self):
        """The upper end of the envelope holds for the one-point family."""
        for n in (1, 2, 4, 8, 16):
            for r in (0.0, 0.3, 0.5, 0.7):
                sig = PoleConfiguration.one_point(n, r)
                c = ModelSpace(sig).bernstein(NormKind.BERGMAN).constant
                assert c <= eq4_envelope(n, r).upper + 1e-9

    def test_eq4_lower_is_informational_only(self):
        """The lower end fails as a finite-n bound; the audit documents why."""
        env = eq4_envelope(2, 0.5)
        sig = PoleConfiguration.one_point(2, 0.5)
        c = ModelSpace(sig).bernstein(NormKind.BERGMAN).constant
        assert env.lower > c
        np.testing.assert_allclose(
            env.lower**2, en_prime_bergman_audit(2, 0.5).closed_form_sq, rtol=1e-12
        )

    def test_z2_upper_hardy_dominates_random_configurations(self):
        """The Hardy growth bound covers every configuration within the radius."""
        rng = np.random.default_rng(33)
        for _ in range(15):
            n = int(rng.integers(1, 8))
            sig = _random_config(rng, n, 0.7)
            c = ModelSpace(sig).bernstein(NormKind.HARDY).constant
            assert c <= z2_upper_hardy(n, sig.radius) + 1e-9

    def test_bergman_hardy_chain(self):
        """Bergman constant is capped by the square root of the Hardy constant."""
        rng = np.random.default_rng(41)
        for _ in range(10):
            sig = _random_config(rng, int(rng.integers(2, 7)), 0.6)
            space = ModelSpace(sig)
            cb = space.bernstein(NormKind.BERGMAN).constant
            ch = space.bernstein(NormKind.HARDY).constant
            assert cb <= math.sqrt(ch) + 1e-9

    def test_envelope_validation(self):
        """Inverted envelopes and bad parameters are refused."""
        with pytest.raises(ValueError):
            BoundEnvelope(2.0, 1.0, "inverted")
        with pytest.raises(ValueError):
            eq4_envelope(0, 0.5)
        with pytest.raises(ValueError):
            z2_upper_hardy(3, 1.0)


class TestEnPrimeAudit:
    """Two honest pipelines against one published closed form."""

    def test_pipelines_agree(self):
        """Coefficient and quadrature values of the same norm coincide."""
        for n in (2, 5, 11):
            for r in (0.0, 0.3, 0.6):
                audit = en_prime_bergman_audit(n, r)
                np.testing.assert_allclose(
                    audit.numeric_sq,
                    audit.quadrature_sq,
                    rtol=1e-10,
                    atol=1e-12,
                )

    def test_numeric_matches_independent_formula(self):
        """Both pipelines equal ((n-1) + n r^2)/(1 - r^2), derived separately."""
        for n, r in ((2, 0.5), (4, 0.3), (7, 0.7), (3, 0.0)):
            audit = en_prime_bergman_audit(n, r)
            expect = ((n - 1) + n * r**2) / (1.0 - r**2)
            np.testing.assert_allclose(audit.numeric_sq, expect, rtol=1e-9)

    def test_closed_form_splits_for_positive_radius(self):
        """The published formula agrees at r = 0 and departs for r > 0."""
        at_zero = en_prime_bergman_audit(6, 0.0)
        np.testing.assert_allclose(at_zero.discrepancy, 0.0, atol=1e-10)
        split = en_prime_bergman_audit(2, 0.5)
        np.testing.assert_allclose(split.numeric_sq, 2.0, rtol=1e-9)
        np.testing.assert_allclose(split.closed_form_sq, 3.0, rtol=0)
        assert split.discrepancy < -0.9


class TestStep2Expansion:
    """Identity and bounds around the pulled-back derivative."""

    def test_random_coordinates_check_out(self):
        """Expansion equality, norm identity and sandwich hold at tolerance."""
        rng = np.random.default_rng(26)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            r = float(rng.uniform(0.0, 0.7))
            coords = rng.normal(size=n) + 1j * rng.normal(size=n)
            rep = step2_expansion_check(n, r, coords)
            assert rep.ok()
            assert rep.gap17 <= 1e-9 * max(1.0, abs(rep.lhs17))
            assert rep.identity_gap <= 1e-9
            assert rep.eq18_slack >= -1e-12

    def test_alternating_test_function_norm(self):
        """The alternating tail sum has squared Hardy norm s + 3."""
        for n, r, s in ((10, 0.4, 2), (25, 0.6, 4), (8, 0.0, 0)):
            f = step2_test_function(n, r, s)
            np.testing.assert_allclose(norm_sq(f, NormKind.HARDY), s + 3.0, atol=1e-9)

    def test_depth_policy(self):
        """Even depth grows like sqrt(n)."""
        assert default_alternation_depth(1) == 0
        assert default_alternation_depth(4) == 2
        assert default_alternation_depth(16) == 4
        assert default_alternation_depth(25) == 4
        assert default_alternation_depth(50) == 6

    def test_input_validation(self):
        """Odd depth, underflow and bad coordinate counts are refused."""
        with pytest.raises(ValueError):
            step2_test_function(10, 0.3, 3)
        with pytest.raises(ValueError):
            step2_test_function(4, 0.3, 2)
        with pytest.raises(ValueError):
            step2_expansion_check(3, 0.5, [1.0, 2.0])
        with pytest.raises(ValueError):
            step2_expansion_check(1, 0.5, [1.0])


class TestAsymptoticSweep:
    """Ratio rows against the growth laws."""

    def test_origin_ratio_is_explicit(self):
        """At r = 0 the Bergman ratio is sqrt(n-1)/sqrt(n) with limit 1."""
        rows = asymptotic_ratio_sweep(0.0, [4, 9, 25], NormKind.BERGMAN)
        for row in rows:
            np.testing.assert_allclose(
                row.ratio, math.sqrt(row.n - 1.0) / math.sqrt(row.n), rtol=1e-10
            )
            np.testing.assert_allclose(row.limit, 1.0, rtol=0)
            assert row.gap > 0.0

    def test_gaps_shrink_with_n(self):
        """The limit gap decreases along an ascending n list, both targets."""
        for target in (NormKind.BERGMAN, NormKind.HARDY):
            rows = asymptotic_ratio_sweep(0.5, [10, 20, 40], target)
            gaps = [row.gap for row in rows]
            assert all(g > 0.0 for g in gaps)
            assert gaps[-1] < gaps[0]

    def test_hardy_ratio_definition(self):
        """Hardy rows divide by n and carry the (1+r)/(1-r) limit."""
        (row,) = asymptotic_ratio_sweep(0.3, [12], NormKind.HARDY)
        np.testing.assert_allclose(row.ratio, row.constant / 12.0, rtol=1e-15)
        np.testing.assert_allclose(row.limit, 1.3 / 0.7, rtol=1e-15)


class TestOnePointDominanceFinding:
    """Finding, not a theorem: on a fixed panel of seeded uniform draws, no
    configuration of n points within radius r beats the one-point
    configuration at radius r.  Nothing here proves that the one-point
    family attains the supremum over configurations."""

    @_TARGETS
    def test_no_draw_beats_one_point(self, target):
        """n in {2,3,5,8}, r in {0.3,0.6,0.9}, seeds 0 and 1, 10 draws each."""
        excess = []
        for n in (2, 3, 5, 8):
            for r in (0.3, 0.6, 0.9):
                best = ModelSpace(PoleConfiguration.one_point(n, r)).bernstein(target)
                for seed in (0, 1):
                    rng = np.random.default_rng(seed)
                    for _ in range(10):
                        sig = _random_config(rng, n, r)
                        value = ModelSpace(sig).bernstein(target).constant
                        excess.append((value - best.constant, n, r, seed))
        assert len(excess) == 240
        assert max(excess)[0] <= 1e-12, max(excess)
