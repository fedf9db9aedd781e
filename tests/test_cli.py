"""Tests for the command line front end: schemas, exit codes, determinism."""

import argparse
import ast
import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mslab
from mslab import verification
from mslab.blaschke import PoleConfiguration, malmquist_basis, parse_sigma_spec
from mslab.cli import CSV_FIELDS, OutputRow, _rows_to_csv, _rows_to_json, build_parser, main

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
        no truncation), and ``interp`` reads I off E (C_B and C_H of the same
        configuration take the Stein route, which builds no E)."""
        code, _, err = _run(
            capsys, ["interp", "--sigma", "0.9999999999999999,0;0,0.5"]
        )
        assert code == 3
        assert "numerical certification failure: truncation 207398427335936864" in err

    def test_stein_route_needs_no_truncation(self, capsys):
        """The configuration whose basis cannot be allocated has C_B and C_H
        from the Stein route: exit 0 and ``trunc`` = n.  For the points r
        and 0, W = sum_{m>=1} A^m (A^*)^m is [[r^2, -r s], [-r s, q]] / q with
        q = 1 - r^2 = s^2, of trace 1/q and determinant 0, so C_B^2 = 1/q
        exactly; at r = 1 - 2^-53 that is 2^52 (1 + 2^-54)."""
        code, out, _ = _run(
            capsys, ["bernstein", "--sigma", "0.9999999999999999,0;0,0"]
        )
        assert code == 0
        rows = _parse_csv(out)
        assert [row["trunc"] for row in rows] == ["2", "2"]
        r = 0.9999999999999999
        q = (1.0 - r) * (1.0 + r)
        assert abs(float(rows[0]["value"]) ** 2 * q - 1.0) <= 1e-14

    def test_stein_route_near_the_circle(self, capsys):
        """Four points within 3e-4 of the circle and one inside take the
        Stein route: exit 0, and every row carries ``trunc`` = n = 5."""
        code, out, _ = _run(
            capsys,
            ["bernstein", "--sigma", "0.9999,0;0,0.9999;-0.9998,0;0,-0.9997;0.7,0.7", "--target", "both"],
        )
        assert code == 0
        rows = _parse_csv(out)
        assert len(rows) == 2 and all(row["trunc"] == "5" for row in rows)

    def test_stein_certificate_refusal_exits_three(self, capsys, monkeypatch):
        """A Stein solve that misses its residual certificate exits 3 with
        one stderr line and nothing on stdout."""
        solve = mslab.blaschke.stein_solve
        monkeypatch.setattr(mslab.blaschke, "stein_solve", lambda A, R, D: solve(A, R, D) * (1.0 + 1e-6))
        code, out, err = _run(capsys, ["bernstein", "--sigma", "0.99,0;0.97,0.1;-0.5,0.85"])
        assert code == 3
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("numerical certification failure: Stein solve of the Bergman Gram")

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
        proc = _run_capped(["interp", "--sigma", "0.99999999,0;0,0.5"])
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

    @pytest.mark.parametrize("command", ("bernstein", "interp"))
    def test_sigma_starting_with_minus_needs_the_joined_form(self, capsys, command):
        """argparse reads a separate value that starts with '-' (and is not
        a bare number) as an option, so ``--sigma -0.5,0`` is a usage error;
        ``--sigma=-0.5,0``, the spelling the help text and README give, runs."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--sigma", "-0.5,0"])
        assert exc.value.code == 2
        assert "argument --sigma: expected one argument" in capsys.readouterr().err
        code, out, _ = _run(capsys, [command, "--sigma=-0.5,0"])
        assert code == 0 and out.startswith(HEADER)
        assert {row["sigma"] for row in _parse_csv(out)} == {"-0.5,0"}

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

    def test_near_coincident_points_exit_three(self, capsys):
        """Two distinct points 1e-12 apart take the basis route's I, which
        refuses them: exit 3, nothing on stdout and one line on stderr, with
        no traceback."""
        code, out, err = _run(capsys, ["interp", "--sigma=0.3,0;0.300000000001,0"])
        assert code == 3 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("numerical certification failure: distinct points ")
        assert "closer than 1e-8" in line

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

    def test_out_of_memory_truncation_exits_three(self):
        """Under the address-space cap, an audit whose basis needs a
        truncation of at least 2.3e9 rows exits 3 with one line and no
        traceback, as the bernstein command does."""
        proc = _run_capped(["audit", "--n-list", "2", "--r-list", "0.99999999"])
        assert proc.returncode == 3, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("numerical certification failure: truncation 2302585070")


def _exit_code(call, argv):
    try:
        return call(argv)
    except SystemExit as exc:
        return exc.code


def _through_top_level_parser(argv):
    """The dispatch ``main`` shortens: ``argv`` through the top-level parser,
    then its command's function."""
    args = build_parser().parse_args(argv)
    return args.func(args)


_DISPATCH_ARGV = {
    "no-arguments": [],
    "help": ["-h"],
    **{
        f"{name}-help": [name, "-h"]
        for name in ("verify", "bernstein", "interp", "asymptotics", "audit")
    },
    "unknown-subcommand": ["bogus", "--sigma=0.5,0"],
    "missing-sigma": ["bernstein", "--target", "hardy"],
    "bad-target": ["bernstein", "--sigma=0.5,0", "--target", "nope"],
    "unknown-option": ["bernstein", "--sigma=0.5,0", "--bogus"],
    "stray-positional": ["interp", "--sigma=0.5,0", "stray"],
    "bernstein": ["bernstein", "--sigma=one-point:n=6,r=0.96984"],
    "interp": ["interp", "--sigma=0.3,0;-0.2,0.1"],
    "verify": ["verify", "--seed", "1"],
}


class TestParseDispatch:
    """``main`` parses a command's arguments once, with that command's own
    parser, and leaves help, unknown commands and left-over arguments to the
    top-level parser."""

    @pytest.mark.parametrize("argv", _DISPATCH_ARGV.values(), ids=_DISPATCH_ARGV.keys())
    def test_same_output_as_the_top_level_parser(self, capsys, argv):
        """Exit code, stdout and stderr are those of the top-level parse."""
        want = _exit_code(_through_top_level_parser, list(argv)), *capsys.readouterr()
        got = _exit_code(main, list(argv)), *capsys.readouterr()
        assert got == want

    def test_valid_command_skips_the_top_level_parser(self, capsys, monkeypatch):
        """A valid command never reaches the top-level parser."""

        def refuse(*args, **kwargs):
            raise AssertionError("top-level parse of a valid command")

        parser = build_parser()
        monkeypatch.setattr(parser, "parse_args", refuse)
        monkeypatch.setattr(parser, "parse_known_args", refuse)
        code, out, _ = _run(capsys, ["bernstein", "--sigma=0.3,0", "--target", "hardy"])
        assert code == 0 and out.startswith(HEADER)


def _csv_writer_text(rows):
    """The rows as csv.writer writes them with QUOTE_MINIMAL, sorted on
    (n, r, sigma, quantity), floats to 17 digits and None as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for row in sorted(rows, key=lambda row: (row.n, row.r, row.sigma, row.quantity)):
        writer.writerow([f"{x:.17g}" if isinstance(x, float) else x for x in row])
    return buf.getvalue()


def _row_panel():
    """Rows over every quantity label, None and signed-zero, infinite and
    NaN cells, a one-point key, a signed-zero key and a 40-point explicit
    key with negative parts."""
    (forty,) = parse_sigma_spec("random:n=40,r=0.9,count=1,seed=7")
    keys = (
        PoleConfiguration.one_point(8, 0.5).key(),
        PoleConfiguration((0j, complex(-0.0, 0.0))).key(),
        forty.key(),
    )
    assert "-" in keys[2] and keys[2].count(";") == 39
    labels = (
        "bernstein-bergman", "bernstein-hardy", "interp-exact", "interp-upper",
        "interp-lower-eq9", "ratio", "audit",
    )
    cells = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0 / 3.0, -2.5e-300, 5e-324, 1e300, None)
    rows = []
    for i, (key, label) in enumerate((key, label) for key in keys for label in labels):
        value, lower, upper = (cells[(i + k) % len(cells)] for k in range(3))
        rows.append(OutputRow(
            (8, 1, 40)[i % 3], (0.5, 0.0, 0.9)[i % 3], key, label,
            0.0 if value is None else value, lower, upper, 1 + i, cells[i % 9],
        ))
    return rows


class TestRowWriter:
    """The one-pass CSV rows are byte for byte csv.writer's, and JSON rows
    keep their keys and values."""

    def test_csv_matches_csv_writer(self):
        """Over the panel, including a reversed order that the sort undoes;
        every sigma cell is quoted."""
        rows = _row_panel()
        for panel in (rows, rows[::-1], rows[:1], []):
            assert _rows_to_csv(panel) == _csv_writer_text(panel)
        for line in _rows_to_csv(rows).splitlines()[1:]:
            assert line.split(",")[2].startswith('"')

    def test_command_output_matches_csv_writer(self, capsys):
        """What a command prints reads back as the rows csv.writer writes."""
        for argv in (
            ["interp", "--sigma=one-point:n=8,r=0.5"],
            ["bernstein", "--sigma=0.5,0;-0.25,0.1"],
            ["interp", "--sigma=0,0;-0,0"],
        ):
            code, out, _ = _run(capsys, argv)
            assert code == 0
            rows = [
                OutputRow(
                    int(d["n"]), float(d["r"]), d["sigma"], d["quantity"], float(d["value"]),
                    float(d["lower"]) if d["lower"] else None,
                    float(d["upper"]) if d["upper"] else None,
                    int(d["trunc"]), float(d["residual"]),
                )
                for d in _parse_csv(out)
            ]
            assert out == _csv_writer_text(rows)

    def test_json_rows_unchanged(self, capsys):
        """One object a row, keyed by the fields in order, non-finite values
        as json writes them."""
        rows = _row_panel()
        want = "".join(
            json.dumps({name: getattr(row, name) for name in CSV_FIELDS}) + "\n"
            for row in sorted(rows, key=lambda row: (row.n, row.r, row.sigma, row.quantity))
        )
        assert _rows_to_json(rows) == want
        code, out, _ = _run(capsys, ["interp", "--sigma=one-point:n=8,r=0.5", "--format", "json"])
        assert code == 0
        objs = [json.loads(line) for line in out.splitlines()]
        assert [list(obj) for obj in objs] == [list(CSV_FIELDS)] * 3
        assert [obj["quantity"] for obj in objs] == ["interp-exact", "interp-lower-eq9", "interp-upper"]


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
                "PoleConfiguration", "MalmquistBasis", "ShiftGrams", "blaschke_factor_eval",
                "blaschke_product_eval", "malmquist_basis",
                "model_projection", "parse_sigma_spec",
            ],
            "hermitian": [
                "gram_matrix", "max_eigenpair", "min_norm_solve", "stein_denominators", "stein_solve",
            ],
            "bernstein": [
                "BoundEnvelope", "Constant", "eq4_envelope", "z2_upper_hardy", "en_prime_bergman_audit",
                "step2_test_function", "default_alternation_depth",
                "step2_expansion_check", "asymptotic_ratio_sweep",
            ],
            "interpolation": [
                "ModelSpace", "constant_from_basis", "interp_witnesses",
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
        # Types that no caller names stay importable from their submodule.
        unlisted = {
            "hermitian": ["Eigenpair"],
            "bernstein": ["EnPrimeAudit", "Step2Report", "RatioRow"],
        }
        for name, types in unlisted.items():
            module = importlib.import_module(f"mslab.{name}")
            for typ in types:
                assert isinstance(getattr(module, typ), type), f"mslab.{name}.{typ}"

    @pytest.mark.parametrize(
        "argv",
        (
            ["bernstein", "--sigma", "one-point:n=1000000000,r=0.5"],
            ["interp", "--sigma", "one-point:n=1000000000,r=0.5"],
            ["asymptotics", "--n-list", "1000000000"],
        ),
        ids=("bernstein", "interp", "asymptotics"),
    )
    def test_out_of_memory_exits_three(self, argv):
        """An allocation the capped child cannot make (the 10^9 points of the
        configuration, or the 8 GB bands of the sweep) exits 3 with a
        one-line message and no traceback."""
        proc = _run_capped(argv)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("out of memory: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        (
            ["bernstein", "--sigma=one-point:n=100000000000000000000,r=0.5"],
            ["interp", "--sigma=one-point:n=100000000000000000000,r=0.5"],
            ["bernstein", "--sigma=random:n=100000000000000000000,r=0.5,count=1"],
            ["bernstein", "--sigma=random:n=1,r=0.5,count=100000000000000000000"],
            ["interp", "--sigma=random:n=10000000000,r=0.5,count=10000000000"],
            ["asymptotics", "--n-list", "100000000000000000000"],
            ["audit", "--n-list", "100000000000000000000", "--r-list", "0.5"],
        ),
        ids=("bernstein", "interp", "random", "random-count", "random-count-times-n",
             "asymptotics", "audit"),
    )
    def test_unallocatable_point_count_exits_three(self, capsys, monkeypatch, argv):
        """A point count past what any array can index, a random: spec's
        count times n included, is refused as out of memory where it
        enters, before anything is allocated or sampled: exit 3 with one
        line, as an allocation the allocator refuses, not exit 1 or 2."""

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the point count was checked")

        monkeypatch.setattr(np.random, "default_rng", no_sampling)
        code, out, err = _run(capsys, argv)
        assert (code, out) == (3, "")
        assert err == "out of memory: cannot allocate 100000000000000000000 points\n"

    def test_one_point_sweep_at_n_100000_answers_in_the_capped_child(self):
        """The banded Perron iteration needs O(n) memory, so n = 10^5 at
        r = 0.99, whose dense Gram would take 80 GB, answers in 3 GiB with
        C_B / sqrt(n) = 14.10195."""
        argv = ["asymptotics", "--r", "0.99", "--n-list", "100000", "--target", "bergman"]
        proc = _run_capped(argv)
        assert proc.returncode == 0, proc.stderr
        header, line = proc.stdout.splitlines()
        assert header == HEADER
        # The sigma field spells out all 10^5 points, past csv's field limit.
        quantity, value, _, _, trunc, _ = line.rsplit(",", 6)[1:]
        assert (quantity, trunc) == ("ratio", "100000")
        assert round(float(value), 5) == 14.10195

    @pytest.mark.parametrize(
        ("command", "routine"), (("bernstein", "eigh"), ("interp", "solve"))
    )
    def test_lapack_failure_exits_three(self, capsys, monkeypatch, command, routine):
        """A LAPACK failure is a numerical certification failure, exit 3,
        although ``LinAlgError`` subclasses ``ValueError``."""

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(np.linalg, routine, fail)
        assert main([command, "--sigma", "0.3,0;0.5,0"]) == 3
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "numerical certification failure: injected"

    def test_package_import_graph_is_acyclic(self):
        """No mslab module reaches itself through imports, counting those
        inside functions (``bernstein`` loads ``quadrature`` in
        ``en_prime_bergman_audit``, ``cli`` loads ``verification`` in
        ``cmd_verify``) as edges too."""
        package = Path(mslab.__file__).parent
        modules = {path.stem for path in package.glob("*.py")}
        graph = {}
        for name in modules:
            tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
            edges = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    bases = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    if node.level:
                        base = "mslab" + ("." + base if base else "")
                    bases = [base]
                    if base == "mslab":  # ``from . import x``: x or a package name
                        bases = [f"mslab.{alias.name}" for alias in node.names]
                else:
                    continue
                for base in bases:
                    parts = base.split(".")
                    if parts[0] == "mslab":
                        target = parts[1] if len(parts) > 1 else "__init__"
                        edges.add(target if target in modules else "__init__")
            graph[name] = edges - {name}
        assert "quadrature" in graph["bernstein"] and "verification" in graph["cli"]

        state = dict.fromkeys(modules, 0)  # 0 unseen, 1 on the path, 2 done
        path = []

        def visit(name):
            state[name] = 1
            path.append(name)
            for dep in sorted(graph[name]):
                assert state[dep] != 1, " -> ".join(path[path.index(dep):] + [dep])
                if state[dep] == 0:
                    visit(dep)
            path.pop()
            state[name] = 2

        for name in sorted(modules):
            if state[name] == 0:
                visit(name)

    def test_import_leaves_the_suite_unloaded(self):
        """Importing the CLI loads neither the invariant suite nor the
        quadrature oracle; only ``verify`` needs them."""
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, mslab.cli; "
                "print(sorted({'mslab.verification', 'mslab.quadrature'} & set(sys.modules)))",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env=_module_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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
