"""Replay of the benchmark reference: every recorded op gives the recorded answer.

Each unique argv of ``perfbench/reference.json`` runs once through the
benchmark's own ``run_op`` and is classified by its ``outcome`` against every
reference entry with that argv, at the benchmark's tolerance.  This makes the
benchmark's correctness gate part of the test suite and follows the reference
file whenever it is re-recorded.
"""

import importlib.util
import json
import sys
from pathlib import Path

from mslab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_ops():
    spec = importlib.util.spec_from_file_location("perfbench_ops", PERFBENCH / "ops.py")
    module = importlib.util.module_from_spec(spec)
    # The module's dataclass looks itself up in sys.modules while it is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_no_reference_op_is_wrong():
    """No recorded op comes out wrong: each exits as recorded, with rows
    within the benchmark's relative tolerance, or is answered where the
    recorded commit refused it."""
    ops = _load_ops()
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    by_argv: dict[tuple[str, ...], list[dict]] = {}
    for cells in reference["workloads"].values():
        for cell in cells:
            for op in cell:
                by_argv.setdefault(tuple(op["argv"]), []).append(op)
    wrong = []
    for argv, refs in by_argv.items():
        res = ops.run_op(cli, list(argv))
        if any(ops.outcome(ref, res) == "wrong" for ref in refs):
            wrong.append(" ".join(argv))
    assert len(by_argv) > 0
    assert wrong == []
