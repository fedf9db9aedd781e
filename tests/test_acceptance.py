"""Acceptance gate: one test per shipped guarantee, pinned tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Panels are sized so every item finishes in well under a minute.
"""

import math

import numpy as np

from mslab.bernstein import (
    asymptotic_ratio_sweep,
    en_prime_bergman_audit,
    eq4_envelope,
    step2_expansion_check,
    z2_upper_hardy,
)
from mslab.blaschke import PoleConfiguration, malmquist_basis, model_projection
from mslab.cli import main
from mslab.interpolation import (
    ModelSpace,
    interp_lower_eq9,
    single_point_closed_form,
    theoremB_envelopes,
    theoremB_test_function,
    _apply_rows,
    _constraint_rows,
)
from mslab.quadrature import moebius_invariance_check
from mslab.series import (
    NormKind,
    compose_with_blaschke_factor,
    differentiate,
    norm_sq,
    policy_truncation,
    polynomial,
)


def _random_config(rng, max_n, max_r, duplicate=False):
    n = int(rng.integers(1, max_n + 1))
    rad = max_r * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = list(rad * np.exp(1j * ang))
    if duplicate and n >= 2:
        pts[1] = pts[0]
    return PoleConfiguration(tuple(pts))


class TestAcceptance:
    """Pinned guarantees of the laboratory, one test per criterion."""

    def test_a01_dirichlet_norm_splits_into_derivative_and_hardy(self):
        """500 random series satisfy the norm-splitting identity at 1e-12 relative."""
        rng = np.random.default_rng(1001)
        for _ in range(500):
            L = int(rng.integers(1, 65))
            f = polynomial(rng.normal(size=L) + 1j * rng.normal(size=L))
            whole = norm_sq(f, NormKind.DIRICHLET)
            parts = norm_sq(differentiate(f), NormKind.BERGMAN) + norm_sq(f, NormKind.HARDY)
            assert abs(whole - parts) <= 1e-12 * whole

    def test_a02_malmquist_gram_certifies_orthonormal(self):
        """50 random configurations (n <= 12, r <= 0.8) have Gram defect <= 1e-10."""
        rng = np.random.default_rng(1002)
        for _ in range(50):
            sig = _random_config(rng, 12, 0.8)
            basis = malmquist_basis(sig)
            mat = basis.matrix
            defect = float(np.max(np.abs(mat.conj().T @ mat - np.eye(sig.n))))
            assert defect <= 1e-10
            assert basis.ortho_defect <= 1e-10

    def test_a03_projection_preserves_traces_on_sigma(self):
        """f - Pf vanishes on the configuration, multiplicities included, at 1e-8."""
        rng = np.random.default_rng(1003)
        for trial in range(50):
            sig = _random_config(rng, 10, 0.75, duplicate=(trial % 3 == 0))
            basis = malmquist_basis(sig)
            raw = rng.normal(size=40) + 1j * rng.normal(size=40)
            f = polynomial(raw / np.linalg.norm(raw))
            pf = model_projection(f, basis)
            rows = _constraint_rows(sig, basis.trunc_len)
            gap = _apply_rows(rows, f) - _apply_rows(rows, pf)
            assert float(np.max(np.abs(gap))) <= 1e-8

    def test_a04_bernstein_hand_values_match_gram_eigen(self):
        """Three hand-derived constants agree with the eigenvalue pipeline at 1e-9."""
        cases = (
            (PoleConfiguration.one_point(2, 0.0), 1.0),
            (PoleConfiguration.one_point(3, 0.0), math.sqrt(2.0)),
            (PoleConfiguration.one_point(2, 0.5), math.sqrt((7.0 + math.sqrt(41.0)) / 6.0)),
        )
        for sig, expect in cases:
            got = ModelSpace(sig).bernstein(NormKind.BERGMAN).constant
            assert abs(got - expect) <= 1e-9

    def test_a05_upper_bound_chain_holds_across_panel(self):
        """Bergman <= sqrt(Hardy) <= sqrt(growth cap), plus the envelope cap."""
        rng = np.random.default_rng(1005)
        panel = [PoleConfiguration.one_point(n, r) for n in (1, 2, 5, 9, 12) for r in (0.0, 0.4, 0.8)]
        panel += [_random_config(rng, 12, 0.8) for _ in range(100)]
        for sig in panel:
            space = ModelSpace(sig)
            cb = space.bernstein(NormKind.BERGMAN).constant
            ch = space.bernstein(NormKind.HARDY).constant
            cap = z2_upper_hardy(sig.n, sig.radius)
            assert cb <= math.sqrt(ch) + 1e-9
            assert math.sqrt(ch) <= math.sqrt(cap) + 1e-9
            assert cb <= eq4_envelope(sig.n, sig.radius).upper + 1e-9

    def test_a06_last_element_audit_pipelines_agree_and_expose_slip(self):
        """Both norm pipelines agree at 1e-8 relative; the closed form does not."""
        for n in range(1, 21):
            for r in (0.0, 0.3, 0.5, 0.7):
                audit = en_prime_bergman_audit(n, r)
                scale = max(audit.numeric_sq, 1.0)
                assert abs(audit.numeric_sq - audit.quadrature_sq) <= 1e-8 * scale
        split = en_prime_bergman_audit(2, 0.5)
        assert abs(split.numeric_sq - 2.0) <= 1e-8
        assert abs(split.closed_form_sq - 3.0) <= 1e-12
        assert abs(split.discrepancy + 1.0) <= 1e-8

    def test_a07_growth_ratios_trend_to_limits_from_below(self):
        """Limit gaps are positive and shrink from n=25 to n=200 at r in {0, 0.5}."""
        for r in (0.0, 0.5):
            for target in (NormKind.BERGMAN, NormKind.HARDY):
                rows = asymptotic_ratio_sweep(r, [25, 200], target)
                first, last = rows[0], rows[-1]
                assert first.gap > 0.0 and last.gap > 0.0
                assert last.gap < first.gap
                if r == 0.0:
                    for row in rows:
                        exact = (
                            math.sqrt(row.n - 1.0) / math.sqrt(row.n)
                            if target is NormKind.BERGMAN
                            else (row.n - 1.0) / row.n
                        )
                        assert abs(row.ratio - exact) <= 1e-9

    def test_a08_interp_brackets_nest_on_one_point_panel(self):
        """Lower bound <= exact <= projection bound <= envelope cap, with equality at {0,0}."""
        for n in range(2, 13):
            for r in (0.0, 0.3, 0.5, 0.7):
                space = ModelSpace(PoleConfiguration.one_point(n, r))
                exact, upper = space.interp().constant, space.projection_bound()
                eq9 = interp_lower_eq9(n, r)
                cap = theoremB_envelopes(n, r)["eq10"].upper
                assert eq9 <= exact + 1e-9
                assert exact <= upper + 1e-9
                assert upper <= cap + 1e-9
        origin = ModelSpace(PoleConfiguration.one_point(2, 0.0))
        assert abs(origin.interp().constant - math.sqrt(2.0)) <= 1e-9
        assert abs(origin.projection_bound() - math.sqrt(2.0)) <= 1e-9

    def test_a09_single_point_constant_matches_kernel_quotient(self):
        """Exact single-point constants equal the kernel quotient at 1e-9."""
        for lam in (0.0, 0.25, 0.5, 0.75):
            res = ModelSpace(PoleConfiguration((lam,))).interp()
            assert abs(res.constant - single_point_closed_form(lam)) <= 1e-9
        assert abs(single_point_closed_form(0.5) - 1.0764230111) <= 1e-9

    def test_a10_competitor_norm_and_composition_pattern(self):
        """The competitor has squared Hardy norm n and a polynomial pullback."""
        for n in (1, 2, 5, 10, 25, 50):
            for r in (0.0, 0.3, 0.5, 0.7):
                f = theoremB_test_function(n, -r)
                assert abs(norm_sq(f, NormKind.HARDY) - n) <= 1e-10
                N = policy_truncation(n + 2, r)
                comp = compose_with_blaschke_factor(f, -r, N)
                expect = np.zeros(N + 1, dtype=complex)
                expect[0] = 1.0
                expect[1:n] = 1.0 + r
                expect[n] = r
                expect /= math.sqrt(1.0 - r * r)
                assert float(np.max(np.abs(comp.coeffs - expect))) <= 1e-10

    def test_a11_expansion_equality_and_remainder_bound(self):
        """Termwise expansion equality at 1e-9 and nonnegative remainder slack, 100 draws."""
        rng = np.random.default_rng(1011)
        for _ in range(100):
            n = int(rng.integers(2, 41))
            r = float(rng.uniform(0.0, 0.8))
            coords = rng.normal(size=n) + 1j * rng.normal(size=n)
            rep = step2_expansion_check(n, r, coords)
            assert rep.gap17 <= 1e-9 * max(1.0, abs(rep.lhs17))
            assert rep.eq18_slack >= 0.0
            assert rep.ok()

    def test_a12_dirichlet_seminorm_moebius_invariant(self):
        """100 random (g, lam) pairs keep the seminorm within 1e-8 relative."""
        rng = np.random.default_rng(1012)
        for _ in range(100):
            deg = int(rng.integers(1, 13))
            g = polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
            rad = 0.7 * math.sqrt(rng.uniform())
            lam = rad * np.exp(2j * np.pi * rng.uniform())
            rep = moebius_invariance_check(g, complex(lam))
            assert rep.relative_gap <= 1e-8

    def test_a13_byte_identical_outputs(self, capsys):
        """Every command reproduces byte-identical stdout under fixed flags and seed."""
        sweeps = [
            ["verify", "--seed", "0"],
            ["bernstein", "--sigma", "random:n=4,r=0.6,count=3,seed=5"],
            ["interp", "--sigma", "one-point:n=3,r=0.4"],
            ["asymptotics", "--r", "0.5", "--n-list", "10,20"],
            ["audit", "--n-list", "2,5", "--r-list", "0,0.5"],
        ]
        for argv in sweeps:
            code1 = main(argv)
            first = capsys.readouterr().out
            code2 = main(argv)
            second = capsys.readouterr().out
            assert code1 == code2 == 0
            assert first.encode() == second.encode()
            assert first
