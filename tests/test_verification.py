"""Tests for the deterministic invariant suite."""

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mslab import blaschke, verification
from mslab.verification import CHECK_NAMES, CheckResult, run_all

# For seeds 0-3, the generator state each check leaves behind, recorded from
# the per-sample loops the panels were first written with.
PANEL_STATES = json.loads(
    Path(__file__).with_name("verify_panel_states.json").read_text(encoding="utf-8")
)


def _skew_bases(monkeypatch, delta):
    """Make the suite's basis builder add delta times the first column of E
    to the second, so that E^* E is off the identity by delta."""
    build = verification.malmquist_basis

    def skewed(sigma):
        basis = build(sigma)
        if sigma.n < 2:
            return basis
        E = basis.matrix.copy()
        E[:, 1] += delta * E[:, 0]
        return dataclasses.replace(basis, matrix=E)

    monkeypatch.setattr(verification, "malmquist_basis", skewed)


class TestRunAll:
    """Shape, determinism and sensitivity of the check registry."""

    @pytest.mark.parametrize("seed", range(4))
    def test_every_check_passes(self, seed):
        """Each seed the benchmark runs drives the whole registry green, with
        every verdict a plain bool, which the JSON output needs."""
        results = run_all(seed=seed)
        assert all(res.passed for res in results), [
            res.name for res in results if not res.passed
        ]
        assert [res.name for res in results if type(res.passed) is not bool] == []

    @pytest.mark.parametrize("seed", range(4))
    def test_panels_draw_what_they_always_drew(self, seed, monkeypatch):
        """Each check consumes exactly the stream it always consumed, so no
        panel shrank, grew or was redrawn: the bit generator state after
        every check matches the recorded one."""
        states = {}

        def recording(name, check):
            def wrapped(rng):
                verdict = check(rng)
                st = rng.bit_generator.state
                states[name] = f"{st['state']['state']:032x}:{st['has_uint32']}:{st['uinteger']}"
                return verdict

            return wrapped

        checks = {name: recording(name, check) for name, check in verification._CHECKS.items()}
        monkeypatch.setattr(verification, "_CHECKS", checks)
        run_all(seed=seed)
        assert states == PANEL_STATES[str(seed)]

    def test_each_configuration_is_built_once_per_check(self, monkeypatch):
        """Over seeds 0-3 no check builds the basis of one configuration
        twice: every constant of a configuration comes from one ModelSpace.
        The 30 checks make 355 builds in all."""
        build = blaschke.malmquist_basis
        builds = []
        where = {}

        def counted(sigma):
            builds.append((where["seed"], where["check"], sigma.key()))
            return build(sigma)

        for name, module in list(sys.modules.items()):
            if name.startswith("mslab") and getattr(module, "malmquist_basis", None) is build:
                monkeypatch.setattr(module, "malmquist_basis", counted)

        def labelled(name, check):
            def wrapped(rng):
                where["check"] = name
                return check(rng)

            return wrapped

        checks = {name: labelled(name, check) for name, check in verification._CHECKS.items()}
        monkeypatch.setattr(verification, "_CHECKS", checks)
        for seed in range(4):
            where["seed"] = seed
            run_all(seed=seed)
        assert [key for key, count in Counter(builds).items() if count > 1] == []
        assert len(builds) == 355

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

    def test_gram_defect_fails_orthonormality(self, monkeypatch):
        """A basis whose Gram is off the identity by 1e-6 fails the
        orthonormality check, which reports the defect."""
        _skew_bases(monkeypatch, 1e-6)
        (res,) = [res for res in run_all(seed=0) if res.name == "blaschke.orthonormality"]
        assert not res.passed
        assert res.detail == "max Gram defect 1.000e-06"

    def test_tiny_perturbation_stays_green(self, monkeypatch):
        """A Gram defect below the certification tolerance changes no verdict."""
        _skew_bases(monkeypatch, 1e-12)
        assert all(res.passed for res in run_all(seed=0))

    def test_kernel_tail_check_catches_excess_mass(self, monkeypatch):
        """A doubled kernel series whose extra coefficients outweigh the
        closed-form tail |lam|^(N+1)/sqrt(1-|lam|^2) fails the check."""
        kernel = verification.cauchy_kernel_series
        calls = []

        def heavy(lam, N):
            # The check asks for the short series, then the doubled one.
            calls.append(N)
            f = kernel(lam, N)
            if len(calls) % 2:
                return f
            c = f.coeffs.copy()
            c[-1] += 1e-6
            return dataclasses.replace(f, coeffs=c)

        monkeypatch.setattr(verification, "cauchy_kernel_series", heavy)
        check = verification._CHECKS["series.kernel-tail-bound"]
        passed, _detail = check(np.random.default_rng(0))
        assert not passed

    def test_congruence_check_needs_the_weight(self, monkeypatch):
        """Reducing the pencil without its weight S breaks the congruence
        invariance, and the check reports it."""
        monkeypatch.setattr(
            verification.np.linalg, "cholesky", lambda S: np.eye(S.shape[0])
        )
        check = verification._CHECKS["hermitian.congruence-invariance"]
        passed, _detail = check(np.random.default_rng(0))
        assert not passed
