"""Smoke test of the benchmark at toy size.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs one pass over its cheapest cells, untraced and traced;
the test checks that every metric of ``BENCHMARK.json`` is reported with its
unit, and that a tampered reference value is counted as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "0", "--toy", *args],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_workload_reports_every_metric_with_its_unit(trace: str, section: str) -> None:
    stdout = _run("--workload", "all", "--trace", trace)
    results = _results(stdout)
    assert len(results) == len(WORKLOADS)
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for res in results:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {name: m["unit"] for name, m in res["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
    for name, unit in expected.items():
        assert f" {name} " in stdout and f" {unit}\n" in stdout
    if trace == "0":
        assert stdout.count(" fail_ratio ") == len(WORKLOADS)


def test_tampered_reference_value_counts_as_failure(tmp_path: Path) -> None:
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    for cell in reference["workloads"]["bern-solve"]:
        for op in cell:
            for cells in op["rows"].values():
                cells[0] *= 1.0 + 1e-6
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(reference), encoding="utf-8")
    stdout = _run("--workload", "bern-solve", "--trace", "0", "--reference", str(tampered))
    (res,) = _results(stdout)
    assert not res["correct"]
    assert res["failed"] == res["attempted"]
    assert res["metrics"]["ok_ratio"]["value"] == 0.0
    assert "wrong output:" in stdout
    fail_ratio = next(line for line in stdout.splitlines() if line.split()[:1] == ["fail_ratio"])
    assert float(fail_ratio.split()[1]) == 1.0
