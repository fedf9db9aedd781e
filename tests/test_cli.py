"""Tests for the command line front end: schemas, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mslab
from mslab.cli import build_parser, main

HEADER = "n,r,sigma,quantity,value,lower,upper,trunc,residual"


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

    def test_injected_defect_fails(self, capsys):
        """The hidden perturbation hook drives exit code 1 with one FAIL line."""
        code, out, err = _run(capsys, ["verify", "--perturb-gram", "1e-6"])
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

    def test_insufficient_truncation_exits_three(self, capsys):
        """A truncation too short to certify is a numerical failure."""
        code, _, err = _run(
            capsys,
            ["bernstein", "--sigma", "one-point:n=6,r=0.7", "--trunc", "8"],
        )
        assert code == 3
        assert "certification failure" in err

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
        build = mslab.blaschke.malmquist_basis

        def counted(sigma, N):
            builds.append(sigma.key())
            return build(sigma, N)

        monkeypatch.setattr(mslab.blaschke, "malmquist_basis", counted)
        code, out, _ = _run(
            capsys, ["bernstein", "--sigma", "random:n=3,r=0.5,count=2,seed=4", "--target", "both"]
        )
        assert code == 0
        assert len(_parse_csv(out)) == 4
        assert len(builds) == 2 and len(set(builds)) == 2

    def test_unallocatable_truncation_exits_three(self, capsys):
        """A truncation whose matrix numpy cannot even describe is refused
        as a numerical failure naming the truncation, not as bad input."""
        code, _, err = _run(
            capsys, ["bernstein", "--sigma", "one-point:n=2,r=0.9999999999999999"]
        )
        assert code == 3
        assert "numerical certification failure: truncation 691327357826976320" in err

    def test_out_of_memory_truncation_exits_three(self):
        """Under an address-space limit, a truncation of about 5.8e9 whose
        matrix the allocator refuses exits 3 without a traceback; the limit
        is set in the child only, so nothing is allocated for real."""
        import resource

        limit = 3 * 2**30

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "mslab", "bernstein", "--sigma", "one-point:n=2,r=0.99999999"],
            capture_output=True,
            text=True,
            timeout=120,
            env=_module_env(OPENBLAS_NUM_THREADS="1"),
            preexec_fn=cap_address_space,
        )
        assert proc.returncode == 3, proc.stderr
        assert "numerical certification failure: truncation 5843663464" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_sigma_exits_two(self, capsys):
        """Grammar violations are usage errors."""
        code, _, err = _run(capsys, ["bernstein", "--sigma", "one-point:n=2"])
        assert code == 2
        assert "invalid input" in err


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

    def test_exact_only(self, capsys):
        """--exact narrows the output to the exact row."""
        code, out, _ = _run(capsys, ["interp", "--sigma", "0,0;0,0", "--exact"])
        assert code == 0
        rows = _parse_csv(out)
        assert [row["quantity"] for row in rows] == ["interp-exact"]
        np.testing.assert_allclose(float(rows[0]["value"]), math.sqrt(2.0), rtol=1e-12)

    def test_bounds_only_skips_eigen_solve(self, capsys):
        """--bounds emits the projection bound without an exact row."""
        code, out, _ = _run(
            capsys, ["interp", "--sigma", "one-point:n=3,r=0.4", "--bounds"]
        )
        assert code == 0
        rows = _parse_csv(out)
        quantities = [row["quantity"] for row in rows]
        assert "interp-exact" not in quantities
        assert "interp-upper" in quantities and "interp-lower-eq9" in quantities

    def test_overflowing_dual_gram_exits_three(self, capsys, recwarn):
        """Derivative functionals that overflow are a numerical failure, not bad
        input, and are refused without numpy overflow warnings."""
        code, _, err = _run(capsys, ["interp", "--sigma", "one-point:n=100,r=0.9"])
        assert code == 3
        assert "certification failure" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_single_point_reports_closed_form(self, capsys):
        """n = 1 exact runs report the closed-form comparison on stderr."""
        code, _, err = _run(capsys, ["interp", "--sigma", "0.5,0"])
        assert code == 0
        assert "single-point closed form" in err

    def test_single_point_bounds_refused(self, capsys):
        """Requesting the n >= 2 lower bound at n = 1 is a usage error."""
        code, _, err = _run(
            capsys, ["interp", "--sigma", "one-point:n=1,r=0.5", "--bounds"]
        )
        assert code == 2
        assert "single-point closed form" in err


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

    def test_descending_list_rejected(self, capsys):
        """A non-ascending n list is a usage error."""
        code, _, err = _run(capsys, ["asymptotics", "--n-list", "20,10"])
        assert code == 2
        assert "ascending" in err

    def test_bad_radius_rejected(self, capsys):
        """Radii outside [0, 1) are usage errors."""
        code, _, _ = _run(capsys, ["asymptotics", "--r", "1.0", "--n-list", "5,10"])
        assert code == 2


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

    def test_parser_built_once(self, capsys):
        """One parser per process serves back-to-back subcommands."""
        assert build_parser() is build_parser()
        code, out, _ = _run(capsys, ["bernstein", "--sigma", "one-point:n=3,r=0.4"])
        assert code == 0 and out.startswith(HEADER)
        code, out, _ = _run(capsys, ["asymptotics", "--r", "0.3", "--n-list", "4,8"])
        assert code == 0 and out.startswith(HEADER)

    def test_invalid_trunc_rejected(self, capsys):
        """--trunc wants 'auto' or a positive integer."""
        with pytest.raises(SystemExit):
            main(["bernstein", "--sigma", "0.3,0", "--trunc", "-4"])

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
