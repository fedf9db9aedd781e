"""mslab benchmark: time to a certified constant, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bern-solve --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

One closed-loop client in this process calls ``mslab.cli.main(argv)`` and
waits for each call before sending the next.  Inputs come from
``reference.json``: ``--seed`` picks which recorded variants of each cell run
and in what order, and every output is checked against the recorded one.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of ``spans.py``.
The human-readable report comes first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from ops import outcome, run_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_STARTS = 7
MIN_OPS = 110  # distinct ops per run, so that p90 has at least ten beyond it
MIN_PASSES = 2
TOY_CELLS = 3
PROBE_EVERY = 0.2  # seconds between probe loops (each takes 1-2 ms)
PROBE_WINDOW = 1.0
REF_PROBE_S = 1e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "constants_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """One BLAS thread unless the environment asks for more, and never more
    than the CPUs this process may use.

    The op path is single-threaded; a second BLAS thread spinning on the tiny
    matrices of the Jacobi loop only adds noise.  Must run before numpy is
    imported; children inherit the setting.
    """
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        wanted = int(current) if current.isdigit() and int(current) > 0 else 1
        os.environ[var] = str(min(wanted, cap))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def import_cli():
    sys.path.insert(0, str(SRC))
    from mslab import cli

    return cli


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def start_seconds() -> float:
    """Wall time of one fresh interpreter that only imports mslab.cli."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import mslab.cli"],
        cwd=ROOT,
        env=child_env(),
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def pick_ops(cells: list[list[dict]], rng: random.Random) -> list[dict]:
    """The run's distinct ops: as many seeded variants of every cell as it
    takes to reach MIN_OPS in all."""
    k = min(-(-MIN_OPS // len(cells)), min(map(len, cells)))
    return [ref for cell in cells for ref in rng.sample(cell, k)]


_SEVERITY = {"ok": 0, "refused": 1, "wrong": 2}


class Tally:
    """Per distinct op: its worst outcome and its rows; and the run counts."""

    def __init__(self, ops: list[dict]) -> None:
        self.ops = ops
        self.kind = ["ok"] * len(ops)
        self.rows = [0] * len(ops)
        self.runs = 0
        self.wrong_runs = 0
        self.wrong: list[list[str]] = []

    def add(self, i: int, res) -> None:
        kind = outcome(self.ops[i], res)
        self.runs += 1
        self.rows[i] = res.value_rows
        if _SEVERITY[kind] > _SEVERITY[self.kind[i]]:
            self.kind[i] = kind
        if kind == "wrong":
            self.wrong_runs += 1
            if len(self.wrong) < 5:
                self.wrong.append(self.ops[i]["argv"])

    def counts(self) -> dict[str, int]:
        return {kind: self.kind.count(kind) for kind in _SEVERITY}


def _probe_loop() -> float:
    """Wall time of a fixed loop of small numpy updates and bytecode, the mix
    that mslab's hot paths run."""
    import numpy as np

    m = np.eye(6, dtype=np.complex128)
    rows = [1, 4]
    start = time.perf_counter()
    for _ in range(150):
        m[rows, :] = m[rows, :] * 0.5 + 0.5
        acc = 0.0
        for j in range(20):
            acc += j * 1.5
    return time.perf_counter() - start


class SpeedProbe:
    """Tracks the machine's speed during a run with ``_probe_loop``.

    On a 2-core Xeon VM both CPUs slowed together, by up to 1.9x for minutes
    at a time, with CPU time tracking wall time, so no choice of CPU or of
    samples within a run escaped it.  Timings are therefore reported in
    reference seconds: wall seconds times REF_PROBE_S over the probe loop's
    median time within PROBE_WINDOW of the measurement.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def tick(self, now: float) -> None:
        if not self.samples or now - self.samples[-1][0] >= PROBE_EVERY:
            self.samples.append((now, _probe_loop()))

    def reference_seconds(self, at: float, seconds: float) -> float:
        near = [s for t, s in self.samples if abs(t - at) <= PROBE_WINDOW]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - at))[1]]
        return seconds * REF_PROBE_S / statistics.median(near)


def enough(wall: float, n_passes: int, seconds: float) -> bool:
    """Stop after the whole number of passes that comes nearest to ``seconds``."""
    return wall + 0.5 * wall / n_passes >= seconds


def measure(cli, ops: list[dict], rng: random.Random, seconds: float) -> tuple[dict, Tally, dict]:
    """Passes over ``ops`` in fresh seeded orders until ``seconds`` have gone,
    with at least MIN_PASSES whole passes; setup starts are spread over the run.

    Each op's latency is the best of its runs in reference seconds.  The same
    figures in plain wall seconds are returned in the info under ``wall``.
    """
    tally = Tally(ops)
    probe = SpeedProbe()
    setup_due = [seconds * i / SETUP_STARTS for i in range(SETUP_STARTS)]
    setups: list[tuple[float, float]] = []
    runs: list[tuple[int, float, float]] = []
    start = time.perf_counter()
    n_passes = 0
    while True:
        for i in rng.sample(range(len(ops)), len(ops)):
            now = time.perf_counter()
            if n_passes >= MIN_PASSES and now - start >= seconds:
                break
            probe.tick(now)
            if setup_due and now - start >= setup_due[0]:
                setup_due.pop(0)
                setups.append((time.perf_counter(), start_seconds()))
            at = time.perf_counter()
            res = run_op(cli, ops[i]["argv"])
            tally.add(i, res)
            runs.append((i, at, res.seconds))
        else:
            n_passes += 1
            continue
        break
    wall = time.perf_counter() - start
    setups += [(time.perf_counter(), start_seconds()) for _ in setup_due]
    plain = [math.inf] * len(ops)
    best = [math.inf] * len(ops)
    for i, at, x in runs:
        plain[i] = min(plain[i], x)
        best[i] = min(best[i], probe.reference_seconds(at, x))
    rows = sum(r for r, kind in zip(tally.rows, tally.kind) if kind == "ok")

    def timings(latencies: list[float], setup: list[float]) -> dict[str, float]:
        return {
            "setup_s": statistics.median(setup),
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": statistics.quantiles(latencies, n=10)[-1],
            "constants_per_s": rows / sum(latencies),
        }

    metrics = {
        **timings(best, [probe.reference_seconds(at, x) for at, x in setups]),
        "ok_ratio": tally.counts()["ok"] / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "passes": n_passes,
        "runs": tally.runs,
        "wall_s": wall,
        "samples": len(best),
        "beyond_p90": sum(x > metrics["latency_p90_s"] for x in best),
        "fail_ratio": 1.0 - metrics["ok_ratio"],
        "probe_s": statistics.median(s for _, s in probe.samples),
        "wall": timings(plain, [x for _, x in setups]),
    }
    return metrics, tally, info


def measure_traced(cli, ops: list[dict], rng: random.Random, seconds: float) -> tuple[dict, Tally, dict, spans.Tracer]:
    """Alternate an untraced and a traced pass over ``ops`` until ``seconds``."""
    tracer = spans.Tracer()
    tally = Tally(ops)
    plain = traced = 0.0
    rows = 0
    n_passes = 0
    while True:
        order = rng.sample(range(len(ops)), len(ops))
        start = time.perf_counter()
        for i in order:
            tally.add(i, run_op(cli, ops[i]["argv"]))
        plain += time.perf_counter() - start
        with tracer.installed():
            start = time.perf_counter()
            for i in order:
                tracer.op = tally.runs
                res = run_op(cli, ops[i]["argv"])
                tally.add(i, res)
                rows += res.value_rows
            traced += time.perf_counter() - start
        n_passes += 1
        if enough(plain + traced, n_passes, seconds):
            break
    metrics = spans.layer_metrics(tracer.spans, n_passes, rows, traced / plain)
    own = spans.self_seconds(tracer.spans)
    total = sum(own.values())
    info = {
        "passes": n_passes,
        "runs": tally.runs,
        "spans": len(tracer.spans),
        "self_share": {layer: round(t / total, 4) for layer, t in own.items()},
    }
    return metrics, tally, info, tracer


def run_workload(args) -> int:
    if not (SRC / "mslab" / "cli.py").is_file():
        print(f"no mslab sources under {SRC}", file=sys.stderr)
        return 2
    if not args.reference.is_file():
        print(f"no reference outputs at {args.reference}", file=sys.stderr)
        return 2
    cap_blas_threads()
    cli = import_cli()
    reference = json.loads(args.reference.read_text(encoding="utf-8"))
    cells = reference["workloads"][args.workload]
    if args.toy:
        cells = sorted(cells, key=lambda cell: max(ref["seconds"] for ref in cell))[:TOY_CELLS]
    rng = random.Random(args.seed)
    ops = pick_ops(cells, rng)
    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "machine": machine()}
    print(f"perfbench {json.dumps({k: v for k, v in header.items() if k != 'machine'})}")
    print(f"machine {json.dumps(header['machine'])}")
    # Warm-up: lazy imports and first-call costs are not what a user waits for
    # on every command.
    run_op(cli, ops[0]["argv"])
    if args.trace:
        metrics, tally, info, tracer = measure_traced(cli, ops, rng, args.seconds)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, header)
        print(f"spans written to {path.relative_to(ROOT)}")
        units = spans.UNITS
    else:
        metrics, tally, info = measure(cli, ops, rng, args.seconds)
        units = END_TO_END_UNITS
    print(f"ops {json.dumps(tally.counts())} {json.dumps(info)}")
    for argv in tally.wrong:
        print(f"wrong output: {json.dumps(argv)}")
    for name, value in metrics.items():
        print(f"  {name:30s} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  {'fail_ratio':30s} {info['fail_ratio']:.6g} ratio")
    result = {
        "correct": tally.wrong_runs == 0,
        "attempted": tally.runs,
        "failed": tally.wrong_runs,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, then one summary table."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--reference", str(args.reference)]
        if args.toy:
            cmd.append("--toy")
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
        status = status or (0 if results[name]["correct"] else 1)
    print("\nsummary")
    for wl, res in results.items():
        metrics = {name: m["value"] for name, m in res["metrics"].items()}
        if "ok_ratio" in metrics:
            metrics["fail_ratio"] = 1.0 - metrics["ok_ratio"]
        cells = " ".join(f"{name}={value:.6g}" for name, value in metrics.items())
        print(f"{wl:10s} correct={res['correct']} attempted={res['attempted']} failed={res['failed']} {cells}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=REFERENCE, help=argparse.SUPPRESS)
    parser.add_argument("--toy", action="store_true", help="the shortest run over the cheapest cells only")
    args = parser.parse_args(argv)
    if args.toy:
        args.seconds = 0.0
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
