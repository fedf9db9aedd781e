"""Tests for the deterministic invariant suite."""

import pytest

from mslab.verification import CHECK_NAMES, CheckResult, run_all


class TestRunAll:
    """Shape, determinism and sensitivity of the check registry."""

    @pytest.mark.parametrize("seed", range(4))
    def test_every_check_passes(self, seed):
        """Each seed the benchmark runs drives the whole registry green."""
        results = run_all(seed=seed)
        assert all(res.passed for res in results), [
            res.name for res in results if not res.passed
        ]

    def test_registry_matches_published_names(self):
        """Result order and names agree with CHECK_NAMES."""
        results = run_all(seed=0)
        assert [res.name for res in results] == list(CHECK_NAMES)
        assert len(CHECK_NAMES) == len(set(CHECK_NAMES))

    def test_results_carry_details(self):
        """Each result is a CheckResult with a nonempty diagnostic string."""
        for res in run_all(seed=0):
            assert isinstance(res, CheckResult)
            assert res.detail

    def test_deterministic_across_runs(self):
        """Equal seeds reproduce identical details, not just identical verdicts."""
        a = run_all(seed=0)
        b = run_all(seed=0)
        assert [(r.name, r.passed, r.detail) for r in a] == [
            (r.name, r.passed, r.detail) for r in b
        ]

    def test_alternate_seed_still_green(self):
        """The invariants hold for fresh draws, not just the default ones."""
        assert all(res.passed for res in run_all(seed=7))

    def test_perturbation_flips_exactly_the_targeted_check(self):
        """A seeded Gram perturbation is caught by orthonormality and nothing else."""
        results = run_all(seed=0, gram_perturbation=1e-6)
        failed = [res.name for res in results if not res.passed]
        assert failed == ["blaschke.orthonormality"]

    def test_tiny_perturbation_stays_green(self):
        """A perturbation below the certification tolerance changes no verdict."""
        results = run_all(seed=0, gram_perturbation=1e-12)
        assert all(res.passed for res in results)
