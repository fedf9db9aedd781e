"""Spans around calls into each mslab module, recorded from outside the package.

A :class:`Tracer` replaces each layer's public functions with timing wrappers
in every ``mslab`` module that holds them by name (``bernstein.max_eigenpair``
as well as ``hermitian.max_eigenpair``), and restores the originals on exit.
Spans are kept in memory as ``[id, layer, name, parent, op, start, end,
error, attrs]`` lists and written out once the run ends.

Only ``multiply`` is spanned in ``series``: the other series primitives are
cheap per call and their time belongs to the caller's self time (the
per-element ``differentiate`` in ``bernstein``, the witness sums in
``interpolation``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

LAYERS = (
    "cli",
    "bernstein",
    "interpolation",
    "blaschke",
    "series",
    "hermitian",
    "quadrature",
    "verification",
)
SERIES_SPANNED = ("multiply",)
EIG = ("max_eigenpair", "eigenvalues", "jacobi_eigh")

ID, LAYER, NAME, PARENT, OP, START, END, ERROR, ATTRS = range(9)


def _dim(args: tuple, result: Any) -> dict:
    return {"dim": args[0].dim}


def _gram(args: tuple, result: Any) -> dict:
    vectors = args[0]
    return {"madds": max(v.trunc_len for v in vectors) * len(vectors) ** 2}


def _multiply(args: tuple, result: Any) -> dict:
    return {"madds": args[0].trunc_len * args[1].trunc_len}


def _basis(args: tuple, result: Any) -> dict:
    return {"bytes": result.trunc_len * result.sigma.n * 16}


def _sigma(args: tuple, result: Any) -> dict:
    return {"sigma": args[0].key()}


# Per-call counters, read from the arguments or result of a span.
ATTRS_OF: dict[tuple[str, str], Callable[[tuple, Any], dict]] = {
    **{("hermitian", name): _dim for name in EIG},
    ("hermitian", "gram_matrix"): _gram,
    ("series", "multiply"): _multiply,
    ("blaschke", "malmquist_basis"): _basis,
    ("blaschke", "malmquist_basis_auto"): _sigma,
}


class Tracer:
    """Collects spans while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs_of = ATTRS_OF.get((layer, name))

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = [len(spans), layer, name, stack[-1] if stack else None, self.op, clock(), None, False, None]
            spans.append(span)
            stack.append(span[ID])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if attrs_of is not None:
                try:
                    span[ATTRS] = attrs_of(args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass  # the signature moved on; the counter reads as absent
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        wrappers: dict[Callable, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mslab.{layer}")
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                    and (layer != "series" or name in SERIES_SPANNED)
                ):
                    wrappers[fn] = self._wrap(fn, layer, name)
        replaced = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mslab" and not mod_name.startswith("mslab."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    replaced.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)

    def write(self, path: Path, header: dict) -> None:
        keys = ("id", "layer", "name", "parent", "op", "start", "end", "error", "attrs")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# Per-layer metric name -> unit; every one is reported on every workload.
UNITS = {
    "cli.self_s": "s/pass",
    "cli.rows": "rows/pass",
    "bernstein.self_s": "s/pass",
    "interpolation.self_s": "s/pass",
    "blaschke.self_s": "s/pass",
    "blaschke.build_calls": "calls/pass",
    "blaschke.builds_per_sigma": "ratio",
    "blaschke.attempts_per_build": "ratio",
    "blaschke.cert_failures": "count/pass",
    "blaschke.coeff_bytes": "B/pass",
    "series.multiply_calls": "calls/pass",
    "series.multiply_s": "s/pass",
    "series.multiply_madds": "madd/pass",
    "hermitian.self_s": "s/pass",
    "hermitian.eig_calls": "calls/pass",
    "hermitian.eig_s": "s/pass",
    "hermitian.eig_dim_max": "count",
    "hermitian.eig_dim3_sum": "count/pass",
    "hermitian.minnorm_calls": "calls/pass",
    "hermitian.minnorm_s": "s/pass",
    "hermitian.minnorm_failures": "count/pass",
    "hermitian.gram_calls": "calls/pass",
    "hermitian.gram_s": "s/pass",
    "hermitian.gram_madds": "madd/pass",
    "quadrature.calls": "calls/pass",
    "quadrature.s": "s/pass",
    "verification.self_s": "s/pass",
    "trace.overhead": "ratio",
}


def self_seconds(spans: list[list]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    out = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        out[span[LAYER]] += span[END] - span[START] - child[span[ID]]
    return out


def layer_metrics(spans: list[list], passes: int, rows: int, overhead: float) -> dict[str, float]:
    """Every metric in UNITS, totals divided by the number of traced passes.

    A pass runs one variant of every cell of the workload, so per-pass
    figures compare across runs that fit different numbers of passes.
    """
    def parent_name(span: list) -> str | None:
        return None if span[PARENT] is None else spans[span[PARENT]][NAME]

    def dur(span: list) -> float:
        return span[END] - span[START]

    by_name: dict[tuple[str, str], list[list]] = defaultdict(list)
    for span in spans:
        by_name[span[LAYER], span[NAME]].append(span)
    herm = [s for s in spans if s[LAYER] == "hermitian"]
    # A solve nested in another eigen call or in a min-norm solve is part of
    # that call, not a separate one.
    eig = [s for s in herm if s[NAME] in EIG and parent_name(s) not in (*EIG, "min_norm_solve")]
    minnorm = by_name["hermitian", "min_norm_solve"]
    gram = by_name["hermitian", "gram_matrix"]
    builds = by_name["blaschke", "malmquist_basis_auto"]
    attempts = by_name["blaschke", "malmquist_basis"]
    mult = [s for s in spans if s[LAYER] == "series"]
    quad = [
        s for s in spans
        if s[LAYER] == "quadrature" and (s[PARENT] is None or spans[s[PARENT]][LAYER] != "quadrature")
    ]
    sigmas = {(s[OP], s[ATTRS]["sigma"]) for s in builds if s[ATTRS]}
    own = self_seconds(spans)
    totals = {
        "cli.self_s": own["cli"],
        "cli.rows": rows,
        "bernstein.self_s": own["bernstein"],
        "interpolation.self_s": own["interpolation"],
        "blaschke.self_s": own["blaschke"],
        "blaschke.build_calls": len(builds),
        "blaschke.cert_failures": sum(s[ERROR] for s in attempts),
        "blaschke.coeff_bytes": sum(s[ATTRS]["bytes"] for s in attempts if s[ATTRS]),
        "series.multiply_calls": len(mult),
        "series.multiply_s": sum(map(dur, mult)),
        "series.multiply_madds": sum(s[ATTRS]["madds"] for s in mult if s[ATTRS]),
        "hermitian.self_s": own["hermitian"],
        "hermitian.eig_calls": len(eig),
        "hermitian.eig_s": sum(map(dur, eig)),
        "hermitian.eig_dim3_sum": sum(s[ATTRS]["dim"] ** 3 for s in eig if s[ATTRS]),
        "hermitian.minnorm_calls": len(minnorm),
        "hermitian.minnorm_s": sum(map(dur, minnorm)),
        "hermitian.minnorm_failures": sum(s[ERROR] for s in minnorm),
        "hermitian.gram_calls": len(gram),
        "hermitian.gram_s": sum(map(dur, gram)),
        "hermitian.gram_madds": sum(s[ATTRS]["madds"] for s in gram if s[ATTRS]),
        "quadrature.calls": len(quad),
        "quadrature.s": sum(map(dur, quad)),
        "verification.self_s": own["verification"],
    }
    out = {name: value / passes for name, value in totals.items()}
    out["hermitian.eig_dim_max"] = max((s[ATTRS]["dim"] for s in eig if s[ATTRS]), default=0)
    out["blaschke.builds_per_sigma"] = len(builds) / len(sigmas) if sigmas else 0.0
    out["blaschke.attempts_per_build"] = len(attempts) / len(builds) if builds else 0.0
    out["trace.overhead"] = overhead
    return {name: out[name] for name in UNITS}
