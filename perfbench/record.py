"""Record the reference outputs of every workload's input pool.

Run once, from the root of a checkout at the commit whose outputs are the
reference::

    python3 perfbench/record.py --commit "$(git rev-parse --short HEAD)"

Every argv of ``workloads.pools()`` is run once; its exit code and output rows
go to ``reference.json`` together with its wall time (used only to pick the
cheapest cells for ``run.py --toy``).  Ops that fail here are kept, with
their exit code and no rows.
"""

from __future__ import annotations

import argparse
import json

import run
import workloads
from ops import REL_TOL, run_op


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--commit", required=True, help="the commit being recorded")
    args = parser.parse_args()
    run.cap_blas_threads()
    cli = run.import_cli()
    out = {}
    for name, cells in workloads.pools().items():
        out[name] = []
        for cell in cells:
            entries = []
            for argv in cell:
                res = run_op(cli, argv)
                if res.code is None:
                    raise SystemExit(f"{argv} raised; an uncaught exception is not a reference outcome")
                entries.append({"argv": argv, "exit": res.code, "rows": res.rows, "seconds": round(res.seconds, 4)})
            out[name].append(entries)
            codes = sorted({e["exit"] for e in entries})
            print(f"{name} {' '.join(cell[0])[:60]} exits={codes} max_s={max(e['seconds'] for e in entries)}")
    record = {
        "commit": args.commit,
        "machine": run.machine(),
        "rel_tol": REL_TOL,
        "workloads": out,
    }
    run.REFERENCE.write_text(json.dumps(record, indent=None, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
