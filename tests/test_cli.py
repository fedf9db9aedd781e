"""Tests for the command line front end: schemas, exit codes, determinism."""

import argparse
import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mslab
from mslab import verification
from mslab.blaschke import PoleConfiguration, malmquist_basis
from mslab.cli import build_parser, main

HEADER = "n,r,sigma,quantity,value,lower,upper,trunc,residual"

# One valid invocation per subcommand.
_VALID_ARGV = (
    ["verify"],
    ["bernstein", "--sigma", "0.3,0"],
    ["interp", "--sigma", "0.3,0"],
    ["asymptotics", "--n-list", "4,8"],
    ["audit", "--n-list", "2", "--r-list", "0"],
)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _module_env(**overrides):
    """Environment for a fresh interpreter that imports this checkout's mslab."""
    env = dict(os.environ, **overrides)
    src = os.path.dirname(os.path.dirname(mslab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _run_capped(argv):
    """``python -m mslab argv`` in a child whose address space is capped at
    3 GiB, so an allocation beyond the cap fails there and is never made."""
    import resource

    limit = 3 * 2**30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "mslab", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=_module_env(OPENBLAS_NUM_THREADS="1"),
        preexec_fn=cap_address_space,
    )


def _parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert text.splitlines()[0] == HEADER
    return rows


class TestVerifyCommand:
    """The invariant suite through the CLI."""

    def test_green_run(self, capsys):
        """Default invocation passes every check and reports the tally."""
        code, out, err = _run(capsys, ["verify"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 30
        assert all(line.startswith("PASS ") for line in lines)
        assert "30/30 checks passed (seed=0)" in err

    def test_json_format(self, capsys):
        """JSON mode emits one object per line with name/passed/detail."""
        code, out, _ = _run(capsys, ["verify", "--format", "json"])
        assert code == 0
        for line in out.strip().splitlines():
            obj = json.loads(line)
            assert set(obj) == {"name", "passed", "detail"}
            assert obj["passed"] is True

    def test_injected_defect_fails(self, capsys, monkeypatch):
        """One failing check drives exit code 1 with one FAIL line."""
        checks = dict(verification._CHECKS)
        checks["blaschke.orthonormality"] = lambda rng: (False, "injected")
        monkeypatch.setattr(verification, "_CHECKS", checks)
        code, out, err = _run(capsys, ["verify"])
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert len(fails) == 1 and "blaschke.orthonormality" in fails[0]
        assert "29/30" in err


class TestBernsteinCommand:
    """Derivative-constant sweeps."""

    def test_one_point_csv(self, capsys):
        """Both targets appear with correct hand values and enforced caps."""
        code, out, err = _run(capsys, ["bernstein", "--sigma", "one-point:n=3,r=0"])
        assert code == 0
        rows = _parse_csv(out)
        assert [row["quantity"] for row in rows] == ["bernstein-bergman", "bernstein-hardy"]
        np.testing.assert_allclose(float(rows[0]["value"]), math.sqrt(2.0), rtol=1e-12)
        np.testing.assert_allclose(float(rows[1]["value"]), 2.0, rtol=1e-12)
        for row in rows:
            assert row["lower"] == ""
            assert float(row["value"]) <= float(row["upper"]) + 1e-9
            assert int(row["trunc"]) >= 3
            assert float(row["residual"]) < 1e-10
        assert "asymptotic lower" in err

    def test_explicit_points_single_target(self, capsys):
        """An explicit configuration restricted to one target yields one row."""
        code, out, _ = _run(
            capsys, ["bernstein", "--sigma", "0.3,0;-0.2,0.1", "--target", "bergman"]
        )
        assert code == 0
        rows = _parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["quantity"] == "bernstein-bergman"
        assert rows[0]["n"] == "2"

    def test_json_rows(self, capsys):
        """JSON mode mirrors the CSV fields one object per line."""
        code, out, _ = _run(
            capsys,
            ["bernstein", "--sigma", "one-point:n=2,r=0.5", "--format", "json"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            obj = json.loads(line)
            assert list(obj) == ["n", "r", "sigma", "quantity", "value", "lower", "upper", "trunc", "residual"]
            assert obj["lower"] is None

    def test_random_sweep_sorted_and_deterministic(self, capsys):
        """Seeded random sweeps sort rows and reproduce byte-identical output."""
        argv = [
            "bernstein",
            "--sigma",
            "random:n=4,r=0.6,count=3,seed=5",
            "--target",
            "hardy",
        ]
        code1, out1, _ = _run(capsys, argv)
        code2, out2, _ = _run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        rows = _parse_csv(out1)
        assert len(rows) == 3
        keys = [(int(r["n"]), float(r["r"]), r["sigma"], r["quantity"]) for r in rows]
        assert keys == sorted(keys)

    def test_strict_paper_flags_small_n(self, capsys):
        """Enforcing the asymptotic lower envelope fails at small n."""
        code, _, err = _run(
            capsys, ["bernstein", "--sigma", "one-point:n=2,r=0.7", "--strict-paper"]
        )
        assert code == 1
        assert "--strict-paper" in err

    def test_dimension_above_512_solves(self, capsys):
        """n = 520 at the origin gives the Bergman constant sqrt(n - 1)."""
        code, out, _ = _run(
            capsys,
            ["bernstein", "--sigma", "one-point:n=520,r=0", "--target", "bergman"],
        )
        assert code == 0
        rows = _parse_csv(out)
        assert len(rows) == 1
        np.testing.assert_allclose(float(rows[0]["value"]), math.sqrt(519.0), rtol=0, atol=1e-12)

    def test_stdout_identical_across_processes_and_blas_threads(self):
        """Separate interpreters with 1 and 2 BLAS threads print the same bytes."""
        argv = [
            sys.executable, "-m", "mslab", "bernstein",
            "--sigma", "random:n=30,r=0.6,count=3,seed=5", "--target", "both",
        ]
        outs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                argv,
                capture_output=True,
                timeout=300,
                env=_module_env(OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 7

    def test_both_targets_share_one_basis(self, capsys, monkeypatch):
        """--target both builds the basis once per configuration."""
        builds = []

        def counted(sigma):
            builds.append(sigma.key())
            return malmquist_basis(sigma)

        monkeypatch.setattr(mslab.interpolation, "malmquist_basis", counted)
        code, out, _ = _run(
            capsys, ["bernstein", "--sigma", "random:n=3,r=0.5,count=2,seed=4", "--target", "both"]
        )
        assert code == 0
        assert len(_parse_csv(out)) == 4
        assert len(builds) == 2 and len(set(builds)) == 2

    def test_unallocatable_truncation_exits_three(self, capsys):
        """A truncation whose matrix numpy cannot allocate is refused as a
        numerical failure naming the fewest rows that could stop the build,
        ceil(ln 1e-20 / (2 ln r)), not as bad input.  Two distinct points keep
        the basis route (one point would take the banded route, which needs
        no truncation)."""
        code, _, err = _run(
            capsys, ["bernstein", "--sigma", "0.9999999999999999,0;0,0.5"]
        )
        assert code == 3
        assert "numerical certification failure: truncation 207398427335936864" in err

    def test_one_point_at_extreme_radius_solves(self, capsys):
        """The banded route needs no truncation: n = 2 at r = 1 - 2^-53 exits 0
        and its Bergman value is the closed-form top eigenvalue of the 2 x 2
        tridiagonal operator."""
        r = 0.9999999999999999
        code, out, _ = _run(
            capsys, ["bernstein", "--sigma", f"one-point:n=2,r={r}"]
        )
        assert code == 0
        rows = _parse_csv(out)
        assert [row["quantity"] for row in rows] == ["bernstein-bergman", "bernstein-hardy"]
        assert all(row["trunc"] == "2" for row in rows)
        q = (1.0 - r) * (1.0 + r)
        a = 3.0 * r * r + 1.0
        closed = (a + math.sqrt(a * a - 8.0 * r**4)) / (2.0 * q)
        np.testing.assert_allclose(float(rows[0]["value"]) ** 2, closed, rtol=1e-12)

    def test_out_of_memory_truncation_exits_three(self):
        """Under an address-space limit, a truncation of at least 2.3e9 rows
        (a 2^32 x 2 buffer, 128 GiB) that the allocator refuses exits 3
        without a traceback; the limit is set in the child only, so nothing is
        allocated for real.  The configuration has two distinct points so
        that it needs a basis."""
        proc = _run_capped(["bernstein", "--sigma", "0.99999999,0;0,0.5"])
        assert proc.returncode == 3, proc.stderr
        assert "numerical certification failure: truncation 2302585070" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_one_point_builds_no_basis(self, capsys, monkeypatch):
        """One-point configurations take the banded route."""
        builds = []

        def counted(sigma):
            builds.append(sigma.key())
            return malmquist_basis(sigma)

        monkeypatch.setattr(mslab.interpolation, "malmquist_basis", counted)
        code, out, _ = _run(capsys, ["bernstein", "--sigma", "one-point:n=4,r=0.9"])
        assert code == 0
        assert builds == []
        assert all(row["trunc"] == "4" for row in _parse_csv(out))

    def test_bad_sigma_exits_two(self, capsys):
        """Grammar violations are usage errors."""
        code, _, err = _run(capsys, ["bernstein", "--sigma", "one-point:n=2"])
        assert code == 2
        assert "invalid input" in err

    @pytest.mark.parametrize(
        "argv",
        (["bernstein", "--sigma", "nan,0"], ["interp", "--sigma", "0.3,nan;0.2,0"]),
        ids=("bernstein", "interp"),
    )
    def test_nan_point_exits_two(self, capsys, argv):
        """A NaN coordinate is a point outside the open disc, refused as
        invalid input before any basis or Gram is built."""
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("invalid input: configuration point outside the open disc")


class TestInterpCommand:
    """Interpolation constants and bound rows."""

    def test_one_point_all_rows(self, capsys):
        """Bare invocation emits exact, upper and eq9 rows, all bracketed."""
        code, out, err = _run(capsys, ["interp", "--sigma", "one-point:n=2,r=0.5"])
        assert code == 0
        rows = _parse_csv(out)
        by_q = {row["quantity"]: row for row in rows}
        assert set(by_q) == {"interp-exact", "interp-upper", "interp-lower-eq9"}
        exact = float(by_q["interp-exact"]["value"])
        upper = float(by_q["interp-upper"]["value"])
        eq9 = float(by_q["interp-lower-eq9"]["value"])
        assert eq9 <= exact <= upper
        np.testing.assert_allclose(eq9, 1.0, rtol=1e-12)
        assert "one-sided refinement" in err

    def test_overflowing_dual_gram_exits_three(self, capsys, recwarn):
        """Derivative functionals that overflow are a numerical failure, not bad
        input, and are refused without numpy overflow warnings.  The second
        point keeps the basis route, whose constraint rows carry them."""
        spec = ";".join(["0.9,0"] * 99 + ["0.1,0"])
        code, _, err = _run(capsys, ["interp", "--sigma", spec])
        assert code == 3
        assert "certification failure" in err
        assert "overflows at truncation 2432" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_formerly_refused_one_point_cells_answer(self, capsys):
        """The banded route answers the one-point inputs the basis route
        refuses, with the values of 1/sqrt(lambda_min(E^* diag(1/(k+1)) E))."""
        for spec, n, r, expect in (
            ("one-point:n=100,r=0.9", 100, 0.9, 42.1075478838),
            ("one-point:n=30,r=0.5", 30, 0.5, 8.8444587417),
        ):
            code, out, _ = _run(capsys, ["interp", "--sigma", spec])
            assert code == 0
            (row,) = [row for row in _parse_csv(out) if row["quantity"] == "interp-exact"]
            assert int(row["trunc"]) == n
            basis = malmquist_basis(PoleConfiguration.one_point(n, r))
            E = basis.matrix
            G = E.conj().T @ (E / (np.arange(basis.trunc_len) + 1.0)[:, None])
            oracle = 1.0 / math.sqrt(np.linalg.eigvalsh(G)[0])
            np.testing.assert_allclose(float(row["value"]), oracle, rtol=1e-12)
            np.testing.assert_allclose(float(row["value"]), expect, rtol=1e-10)

    def test_single_point_reports_closed_form(self, capsys):
        """n = 1 runs report the closed-form comparison on stderr."""
        code, _, err = _run(capsys, ["interp", "--sigma", "0.5,0"])
        assert code == 0
        assert "single-point closed form" in err

    def test_projection_bound_is_hypot_of_bergman_constant(self, capsys):
        """On a multiplicity configuration, which takes the basis route, the
        interp-upper value is sqrt(C_B^2 + 1) with C_B the bernstein Bergman
        value, and its lower cell is the exact constant."""
        sigma = "0.3,0;0.3,0;-0.2,0.4"
        code, out, _ = _run(capsys, ["interp", "--sigma", sigma])
        assert code == 0
        by_q = {row["quantity"]: row for row in _parse_csv(out)}
        assert set(by_q) == {"interp-exact", "interp-upper"}
        code, out, _ = _run(capsys, ["bernstein", "--sigma", sigma, "--target", "bergman"])
        assert code == 0
        (bergman,) = _parse_csv(out)
        upper = by_q["interp-upper"]
        np.testing.assert_allclose(
            float(upper["value"]), math.hypot(float(bergman["value"]), 1.0), rtol=1e-12
        )
        assert upper["lower"] == by_q["interp-exact"]["value"]


    @pytest.mark.parametrize(
        "sigma", ("one-point:n=6,r=0.7", "0.3,0;0.3,0;-0.2,0.4"), ids=("banded", "basis")
    )
    def test_upper_residual_is_the_bergman_residual(self, capsys, sigma):
        """interp-upper comes from the C_B eigen-solve, and upper^2 = C_B^2 + 1
        has the absolute error of C_B^2, so its residual is the
        bernstein-bergman residual of the same configuration, on either route."""
        code, out, _ = _run(capsys, ["interp", "--sigma", sigma])
        assert code == 0
        (upper,) = [row for row in _parse_csv(out) if row["quantity"] == "interp-upper"]
        code, out, _ = _run(capsys, ["bernstein", "--sigma", sigma, "--target", "bergman"])
        assert code == 0
        (bergman,) = _parse_csv(out)
        assert upper["residual"] == bergman["residual"]


class TestAsymptoticsCommand:
    """Normalized growth sweeps."""

    def test_small_sweep(self, capsys):
        """Ratios stay below the limit and the gap shrinks along n."""
        code, out, err = _run(
            capsys, ["asymptotics", "--r", "0.5", "--n-list", "10,20,40"]
        )
        assert code == 0
        rows = _parse_csv(out)
        assert len(rows) == 3
        for row in rows:
            assert row["quantity"] == "ratio"
            np.testing.assert_allclose(
                float(row["upper"]), math.sqrt(3.0), rtol=1e-12
            )
            assert float(row["value"]) <= float(row["upper"])
        assert "limit gap shrinks along n" in err

    def test_hardy_target(self, capsys):
        """The Hardy sweep divides by n and uses the (1+r)/(1-r) limit."""
        code, out, _ = _run(
            capsys,
            ["asymptotics", "--r", "0", "--n-list", "5,10", "--target", "hardy"],
        )
        assert code == 0
        rows = _parse_csv(out)
        np.testing.assert_allclose(float(rows[0]["value"]), 4.0 / 5.0, rtol=1e-10)
        np.testing.assert_allclose(float(rows[0]["upper"]), 1.0, rtol=0)

    def test_large_n_near_the_boundary(self, capsys):
        """n up to 1000 at r = 0.99 needs no basis: the banded route answers
        where the Malmquist matrix would hold about 2e5 x 1000 complex
        entries (3.3 GB)."""
        code, out, _ = _run(
            capsys, ["asymptotics", "--r", "0.99", "--n-list", "100,400,1000"]
        )
        assert code == 0
        rows = _parse_csv(out)
        assert [row["trunc"] for row in rows] == ["100", "400", "1000"]
        limit = math.sqrt(1.99 / 0.01)
        assert all(float(row["value"]) < limit for row in rows)

    def test_descending_list_rejected(self, capsys):
        """A non-ascending n list is an argparse usage error, with the usage
        line and the option named, as a bad --r is."""
        for n_list in ("20,10", "10,5", "5,5"):
            with pytest.raises(SystemExit) as exc:
                main(["asymptotics", "--n-list", n_list])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: ")
            assert "argument --n-list: values must be strictly ascending" in err

    def test_bad_radius_rejected(self, capsys):
        """Radii outside [0, 1), and non-numbers, are argparse usage errors
        under the same test as --r-list."""
        for radius in ("1.0", "-0.1", "nan", "half"):
            with pytest.raises(SystemExit) as exc:
                main(["asymptotics", "--r", radius, "--n-list", "5,10"])
            assert exc.value.code == 2
            assert "argument --r: " in capsys.readouterr().err


class TestAuditCommand:
    """Closed-form audit rows."""

    def test_default_panel(self, capsys):
        """Audit rows carry the closed form in both bound cells without enforcement."""
        code, out, err = _run(
            capsys, ["audit", "--n-list", "2,5", "--r-list", "0,0.5"]
        )
        assert code == 0
        rows = _parse_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert row["quantity"] == "audit"
            assert row["lower"] == row["upper"]
            assert float(row["residual"]) < 1e-10
        half = {(row["n"], row["r"]): row for row in rows}[("2", "0.5")]
        np.testing.assert_allclose(float(half["value"]), 2.0, rtol=1e-10)
        np.testing.assert_allclose(float(half["upper"]), 3.0, rtol=0)
        assert "largest |numeric - closed form| gap" in err

    def test_agreement_at_origin(self, capsys):
        """At r = 0 the closed form matches and strict mode is happy."""
        code, _, _ = _run(
            capsys, ["audit", "--n-list", "2,6", "--r-list", "0", "--strict-paper"]
        )
        assert code == 0

    def test_strict_paper_fails_off_origin(self, capsys):
        """Strict mode surfaces the contradiction for r > 0."""
        code, _, err = _run(
            capsys, ["audit", "--n-list", "2", "--r-list", "0.5", "--strict-paper"]
        )
        assert code == 1
        assert "contradict the closed form" in err


class TestOutputPlumbing:
    """Shared output options."""

    def test_out_writes_file(self, capsys, tmp_path):
        """--out diverts rows to a file and keeps stdout clean."""
        path = tmp_path / "rows.csv"
        code, out, err = _run(
            capsys,
            ["bernstein", "--sigma", "0.3,0", "--target", "bergman", "--out", str(path)],
        )
        assert code == 0
        assert out == ""
        assert f"wrote {path}" in err
        assert path.read_text(encoding="utf-8").splitlines()[0] == HEADER

    @pytest.mark.parametrize(
        "argv, target",
        (
            (["bernstein", "--sigma", "one-point:n=3,r=0.5"], "missing/x.csv"),
            (["verify"], "."),
        ),
        ids=("missing-directory", "is-a-directory"),
    )
    def test_unwritable_out_exits_two(self, capsys, tmp_path, argv, target):
        """An --out path that cannot be written is a usage error: exit 2 with
        one line naming the path, no traceback and nothing on stdout."""
        path = tmp_path / target
        code, out, err = _run(capsys, [*argv, "--out", str(path)])
        assert code == 2 and out == ""
        (line,) = [line for line in err.splitlines() if "cannot write" in line]
        assert line.startswith("invalid input: cannot write --out: ")
        assert str(path) in line

    def test_parser_built_once(self, capsys):
        """One parser per process serves back-to-back subcommands."""
        assert build_parser() is build_parser()
        code, out, _ = _run(capsys, ["bernstein", "--sigma", "one-point:n=3,r=0.4"])
        assert code == 0 and out.startswith(HEADER)
        code, out, _ = _run(capsys, ["asymptotics", "--r", "0.3", "--n-list", "4,8"])
        assert code == 0 and out.startswith(HEADER)

    @pytest.mark.parametrize("knob", (["--trunc", "8"], ["--perturb-gram", "1e-6"]))
    @pytest.mark.parametrize("argv", _VALID_ARGV, ids=lambda argv: argv[0])
    def test_removed_knobs_are_usage_errors(self, capsys, argv, knob):
        """No option overrides the route or the checks: --trunc and
        --perturb-gram are unrecognized on every subcommand."""
        with pytest.raises(SystemExit) as exc:
            main(argv + knob)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(knob)}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", _VALID_ARGV[1:3], ids=lambda argv: argv[0])
    def test_seed_only_on_verify(self, capsys, argv):
        """A random: spec carries its own seed=, so bernstein and interp take
        no --seed."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_option_inventory(self):
        """Each subcommand has exactly these options; a new one edits this test."""
        (sub,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        inventory = {
            name: sorted(opt for action in p._actions for opt in action.option_strings)
            for name, p in sub.choices.items()
        }
        output = ["--format", "--out"]
        assert inventory == {
            "verify": sorted(["-h", "--help", "--seed", *output]),
            "bernstein": sorted(
                ["-h", "--help", "--sigma", "--target", "--strict-paper", *output]
            ),
            "interp": sorted(["-h", "--help", "--sigma", *output]),
            "asymptotics": sorted(["-h", "--help", "--r", "--n-list", "--target", *output]),
            "audit": sorted(["-h", "--help", "--n-list", "--r-list", "--strict-paper", *output]),
        }

    def test_export_inventory(self):
        """Each submodule exports exactly these names and every one resolves;
        a new public name edits this test."""
        inventory = {
            "series": [
                "NormKind", "TaylorSeries", "polynomial", "norm", "norm_sq",
                "differentiate", "evaluate", "cauchy_kernel_series",
                "compose_with_blaschke_factor", "policy_truncation",
            ],
            "blaschke": [
                "PoleConfiguration", "MalmquistBasis", "blaschke_factor_eval",
                "blaschke_product_eval", "malmquist_basis",
                "model_projection", "parse_sigma_spec",
            ],
            "hermitian": ["Eigenpair", "gram_matrix", "max_eigenpair", "min_norm_solve"],
            "bernstein": [
                "BernsteinResult", "BoundEnvelope", "constant_from_basis",
                "eq4_envelope", "z2_upper_hardy", "EnPrimeAudit", "en_prime_bergman_audit",
                "step2_test_function", "default_alternation_depth", "Step2Report",
                "step2_expansion_check", "RatioRow", "asymptotic_ratio_sweep",
            ],
            "interpolation": [
                "InterpResult", "ModelSpace", "interp_from_basis",
                "interp_lower_eq9",
                "theoremB_test_function", "theoremB_envelopes",
                "dirichlet_kernel_diag", "single_point_closed_form",
            ],
            "quadrature": [
                "bergman_norm_quadrature", "hardy_norm_circle",
                "moebius_invariance_check", "MoebiusReport",
            ],
            "verification": ["CheckResult", "run_all", "CHECK_NAMES"],
            "cli": ["main"],
        }
        for name, exports in inventory.items():
            module = importlib.import_module(f"mslab.{name}")
            assert module.__all__ == exports, name
            for export in exports:
                assert hasattr(module, export), f"mslab.{name}.{export}"

    @pytest.mark.parametrize(
        "argv",
        (
            ["bernstein", "--sigma", "one-point:n=100000,r=0.5"],
            ["interp", "--sigma", "one-point:n=100000,r=0.5"],
            ["asymptotics", "--n-list", "100000"],
            ["audit", "--n-list", "2", "--r-list", "0.9995"],
        ),
        ids=("bernstein", "interp", "asymptotics", "audit"),
    )
    def test_out_of_memory_exits_three(self, argv):
        """An allocation the capped child cannot make (the 100000 x 100000
        banded Gram, the 27010 x 27010 Legendre companion matrix of the audit's
        quadrature rule) exits 3 with a one-line message and no traceback."""
        proc = _run_capped(argv)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("out of memory: ")
        assert "Traceback" not in proc.stderr

    def test_module_entry_point(self):
        """python -m mslab verify runs the suite in a fresh interpreter."""
        proc = subprocess.run(
            [sys.executable, "-m", "mslab", "verify", "--seed", "0"],
            capture_output=True,
            text=True,
            timeout=300,
            env=_module_env(),
        )
        assert proc.returncode == 0
        assert "30/30 checks passed" in proc.stderr
