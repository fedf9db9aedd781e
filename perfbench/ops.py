"""One benchmark operation: a ``mslab.cli.main(argv)`` call and its check.

An op's output is reduced to rows keyed by ``n|sigma|quantity`` with the
``value``, ``lower`` and ``upper`` cells (``verify`` lines are keyed by check
name with 1.0 for PASS).  ``trunc`` and ``residual`` are not kept: a new
solver or basis may legitimately change them.
"""

from __future__ import annotations

import csv
import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from types import ModuleType

REL_TOL = 1e-9

# Exit codes with which the CLI refuses an input (usage, numerical
# certification); any other non-zero code is a wrong answer.
REFUSAL_CODES = (2, 3)

Rows = dict[str, list[float | None]]


@dataclass(frozen=True)
class OpResult:
    seconds: float
    code: int | None  # None when main raised
    rows: Rows
    value_rows: int


def _cell(text: str) -> float | None:
    return None if text == "" else float(text)


def parse_rows(argv: list[str], stdout: str) -> tuple[Rows, int]:
    """Rows of one op's stdout and how many of them carry a computed value."""
    if argv[0] == "verify":
        rows: Rows = {}
        for line in stdout.splitlines():
            status, _, rest = line.partition(" ")
            rows[rest.split(" -- ", 1)[0]] = [1.0 if status == "PASS" else 0.0]
        return rows, 0
    rows = {
        f"{rec['n']}|{rec['sigma']}|{rec['quantity']}": [
            _cell(rec["value"]),
            _cell(rec["lower"]),
            _cell(rec["upper"]),
        ]
        for rec in csv.DictReader(io.StringIO(stdout))
    }
    return rows, len(rows)


def run_op(cli: ModuleType, argv: list[str]) -> OpResult:
    """Call ``cli.main(argv)`` with stdout and stderr captured, and time it.

    ``main`` is looked up on the module at each call so that a traced run
    sees the wrapped function.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code: int | None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects a malformed argv this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a raising op is a counted failure
        code = None
    seconds = time.perf_counter() - start
    if code != 0:
        return OpResult(seconds, code, {}, 0)
    rows, value_rows = parse_rows(argv, out.getvalue())
    return OpResult(seconds, code, rows, value_rows)


def _same(got: float | None, want: float | None) -> bool:
    if got is None or want is None:
        return got is want
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def outcome(ref: dict, res: OpResult) -> str:
    """Classify an op against its reference entry.

    ``ok``: exit 0 and, where the reference has rows, the same row keys with
    every value/lower/upper within REL_TOL.  An op the recorded commit
    refused has no reference rows and passes on exit 0, because the CLI
    enforces its own brackets.  ``refused``: the recorded commit refused it
    and it is still refused with a refusal code.  ``wrong``: anything else.
    """
    if ref["exit"] != 0:
        if res.code == 0:
            return "ok"
        return "refused" if res.code in REFUSAL_CODES else "wrong"
    if res.code != 0 or res.rows.keys() != ref["rows"].keys():
        return "wrong"
    for key, want in ref["rows"].items():
        if not all(_same(g, w) for g, w in zip(res.rows[key], want)):
            return "wrong"
    return "ok"
