"""Command line front end.

Subcommands
-----------
verify       run the deterministic invariant suite
bernstein    derivative constants for one or more configurations
interp       constrained interpolation constants with their brackets
asymptotics  normalized constants along n at fixed radius, against the limit
audit        numeric vs published closed form for the last element's norm

:func:`main` parses a command's arguments once, with that command's own
parser; help, an unknown command and arguments it leaves over go through
the top-level parser of :func:`build_parser`, whose texts and exit codes
are then the user's.

Row-emitting commands share one tabular schema, columns
``n,r,sigma,quantity,value,lower,upper,trunc,residual``, written as CSV
(default) or as JSON objects one per line to stdout or ``--out``.  CSV rows
are written in one pass, one f-string a row, to the bytes of
``csv.writer`` with ``QUOTE_MINIMAL``: only ``sigma`` is quoted, always,
since its points are comma-separated, and no other cell can hold a comma,
a quote or a line break (floats print to 17 digits, ``inf`` and ``nan``
included, and the quantity labels are fixed words).  Empty
lower/upper cells mean "no bound attached"; populated ones are enforced to
bracket the value before the process exits (audit rows excepted: there the
mismatch is the finding, and only ``--strict-paper`` turns it into a
failure).  ``residual`` is the eigensolver certificate for computed
quantities, the cross-oracle gap for audit rows, and 0 for closed-form bound
rows.  ``trunc`` is the series length behind a row: the row count L of the
Malmquist matrix E, the smallest whose dropped Hardy mass ||T^L||_F^2 is at
most 1e-20 (:mod:`mslab.blaschke`).  One-point ``bernstein``, ``interp`` and
``asymptotics`` rows come from the n x n banded operator, and ``bernstein``
rows of a configuration whose basis would need at least
:data:`mslab.interpolation.STEIN_ROWS_PER_POINT` rows per point from two
n x n Stein equations; neither has a series behind it, and both carry
``trunc`` = n.  Each configuration is one
:class:`mslab.interpolation.ModelSpace`, which alone picks the route from
whether the configuration is one point and from the fewest rows its basis
could stop at; no option overrides it.  ``interp``
emits every row for every configuration:
``interp-exact``, ``interp-upper`` (the projection bound sqrt(C_B^2 + 1),
carrying the residual of its C_B eigenpair) and, for one point with n >= 2,
``interp-lower-eq9``.  Human-oriented
summaries go to stderr so redirected stdout stays machine-readable.

Exit codes: 0 success, 1 invariant or bracket failure, 2 usage error
(including an unwritable ``--out``), 3 numerical certification failure
(a basis that cannot be allocated or certified, a Stein solve that fails
its certificate, eigensolver or memory).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .bernstein import (
    asymptotic_ratio_sweep,
    en_prime_bergman_audit,
    eq4_envelope,
    z2_upper_hardy,
)
from .blaschke import PoleConfiguration, parse_sigma_spec
from .errors import CertificationError
from .interpolation import (
    ModelSpace,
    _eq10_envelope,
    interp_lower_eq9,
    single_point_closed_form,
)
from .series import NormKind

__all__ = ["main"]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

BRACKET_SLACK = 1e-9


class OutputRow(NamedTuple):
    """One output row; its fields, in order, are the CSV columns and the
    JSON keys."""

    n: int
    r: float
    sigma: str
    quantity: str
    value: float
    lower: float | None
    upper: float | None
    trunc: int
    residual: float


CSV_FIELDS = OutputRow._fields
_CSV_HEADER = ",".join(CSV_FIELDS) + "\n"


def _sorted_rows(rows: list[OutputRow]) -> list[OutputRow]:
    return sorted(rows, key=lambda row: row[:4])


def _cell(x: float | None) -> str:
    return "" if x is None else f"{x:.17g}"


def _rows_to_csv(rows: list[OutputRow]) -> str:
    # One f-string a row; sigma is the one quoted cell (module docstring).
    return _CSV_HEADER + "".join(
        f'{n},{r:.17g},"{sigma}",{quantity},{value:.17g},'
        f"{_cell(lower)},{_cell(upper)},{trunc},{residual:.17g}\n"
        for n, r, sigma, quantity, value, lower, upper, trunc, residual in _sorted_rows(rows)
    )


def _rows_to_json(rows: list[OutputRow]) -> str:
    lines = [json.dumps(row._asdict()) for row in _sorted_rows(rows)]
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write --out: {exc}") from exc
        print(f"wrote {out}", file=sys.stderr)


def _emit_rows(rows: list[OutputRow], fmt: str, out: str | None) -> int:
    _emit(_rows_to_csv(rows) if fmt == "csv" else _rows_to_json(rows), out)
    violations = []
    for row in rows:
        if row.quantity == "audit":
            continue  # the mismatch is the point; see --strict-paper
        if row.lower is not None and row.value < row.lower - BRACKET_SLACK:
            violations.append(
                f"{row.quantity} n={row.n} r={row.r:.6g}: value {row.value:.12g} "
                f"below lower bound {row.lower:.12g}"
            )
        if row.upper is not None and row.value > row.upper + BRACKET_SLACK:
            violations.append(
                f"{row.quantity} n={row.n} r={row.r:.6g}: value {row.value:.12g} "
                f"above upper bound {row.upper:.12g}"
            )
    for msg in violations:
        print(f"bracket violation: {msg}", file=sys.stderr)
    return EXIT_INVARIANT if violations else EXIT_OK


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected comma-separated integers") from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("need at least one positive integer")
    return values


def _ascending_int_list(text: str) -> list[int]:
    values = _int_list(text)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError("values must be strictly ascending")
    return values


def _radii(values: list[float]) -> list[float]:
    if not values or any(not 0.0 <= v < 1.0 for v in values):
        raise argparse.ArgumentTypeError("radii must lie in [0, 1)")
    return values


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected comma-separated floats") from exc
    return _radii(values)


def _radius(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from exc
    return _radii([value])[0]


def cmd_verify(args: argparse.Namespace) -> int:
    # Imported here so that the other commands never load the suite and the
    # quadrature oracle it pulls in.
    from .verification import run_all

    results = run_all(seed=args.seed)
    if args.format == "json":
        lines = [
            json.dumps({"name": res.name, "passed": res.passed, "detail": res.detail})
            for res in results
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [
            f"{'PASS' if res.passed else 'FAIL'} {res.name} -- {res.detail}"
            for res in results
        ]
        _emit("\n".join(lines) + "\n", args.out)
    passed = sum(res.passed for res in results)
    print(f"{passed}/{len(results)} checks passed (seed={args.seed})", file=sys.stderr)
    return EXIT_OK if passed == len(results) else EXIT_INVARIANT


_TARGETS = {
    "bergman": (NormKind.BERGMAN,),
    "hardy": (NormKind.HARDY,),
    "both": (NormKind.BERGMAN, NormKind.HARDY),
}


def cmd_bernstein(args: argparse.Namespace) -> int:
    configs = parse_sigma_spec(args.sigma)
    rows: list[OutputRow] = []
    strict_failures = []
    for sigma in configs:
        n, r, key = sigma.n, sigma.radius, sigma.key()
        space = ModelSpace(sigma)
        for target in _TARGETS[args.target]:
            res = space.bernstein(target)
            if target is NormKind.BERGMAN:
                quantity = "bernstein-bergman"
                envelope = eq4_envelope(n, r)
                upper = envelope.upper
                note = ""
                if sigma.is_one_point:
                    # The left envelope member only holds asymptotically; it
                    # is reported, never enforced, unless --strict-paper.
                    note = f" (asymptotic lower {envelope.lower:.12g}, informational)"
                    if res.constant < envelope.lower - BRACKET_SLACK:
                        strict_failures.append(
                            f"n={n} r={r:.6g}: value "
                            f"{res.constant:.12g} below asymptotic lower "
                            f"{envelope.lower:.12g}"
                        )
            else:
                quantity = "bernstein-hardy"
                upper = z2_upper_hardy(n, r)
                note = ""
            rows.append(
                OutputRow(n, r, key, quantity, res.constant, None, upper, res.trunc_len, res.residual)
            )
            print(
                f"{quantity} n={n} r={r:.6g}: "
                f"{res.constant:.12g} <= {upper:.12g}{note}",
                file=sys.stderr,
            )
    code = _emit_rows(rows, args.format, args.out)
    if args.strict_paper and strict_failures:
        for msg in strict_failures:
            print(f"--strict-paper: {msg}", file=sys.stderr)
        return EXIT_INVARIANT
    return code


def cmd_interp(args: argparse.Namespace) -> int:
    configs = parse_sigma_spec(args.sigma)
    rows: list[OutputRow] = []
    for sigma in configs:
        n, r, key = sigma.n, sigma.radius, sigma.key()
        space = ModelSpace(sigma)
        res = space.interp()
        exact, upper = res.constant, space.projection_bound()
        one_point = sigma.is_one_point
        eq10 = _eq10_envelope(n, r) if one_point else None
        eq9 = interp_lower_eq9(n, r) if one_point and n >= 2 else None
        rows.append(
            OutputRow(n, r, key, "interp-exact", exact, eq9, upper, res.trunc_len, res.residual)
        )
        rows.append(
            OutputRow(
                n, r, key, "interp-upper", upper, exact,
                eq10.upper if one_point else None,
                res.trunc_len,
                # upper^2 = C_B^2 + 1 carries the absolute error of C_B^2.
                space.bernstein(NormKind.BERGMAN).residual,
            )
        )
        if eq9 is not None:
            rows.append(
                OutputRow(n, r, key, "interp-lower-eq9", eq9, None, exact, res.trunc_len, 0.0)
            )
            print(
                f"interp n={n} r={r:.6g}: {eq9:.12g} <= "
                f"{exact:.12g} <= {upper:.12g} "
                f"(one-sided refinement {eq10.lower:.12g}, informational)",
                file=sys.stderr,
            )
        else:
            print(
                f"interp n={n} r={r:.6g}: {exact:.12g} <= {upper:.12g}",
                file=sys.stderr,
            )
        if n == 1:
            closed = single_point_closed_form(r)
            print(
                f"  single-point closed form {closed:.12g} "
                f"(deviation {abs(exact - closed):.3e})",
                file=sys.stderr,
            )
    return _emit_rows(rows, args.format, args.out)


def cmd_asymptotics(args: argparse.Namespace) -> int:
    r = args.r
    target = NormKind.BERGMAN if args.target == "bergman" else NormKind.HARDY
    sweep = asymptotic_ratio_sweep(r, args.n_list, target)
    gaps = [row.gap for row in sweep]
    monotone = all(b <= a + BRACKET_SLACK for a, b in zip(gaps, gaps[1:]))
    rows: list[OutputRow] = []
    for row in sweep:
        rows.append(
            OutputRow(
                row.n,
                r,
                PoleConfiguration.one_point(row.n, r).key(),
                "ratio",
                row.ratio,
                None,
                row.limit,
                row.n,
                row.residual,
            )
        )
        print(
            f"ratio[{args.target}] n={row.n} r={r:.6g}: {row.ratio:.12g} "
            f"-> {row.limit:.12g} (gap {row.gap:.3e})",
            file=sys.stderr,
        )
    if monotone and len(gaps) >= 2:
        print(
            f"limit gap shrinks along n: {gaps[0]:.6g} -> {gaps[-1]:.6g}",
            file=sys.stderr,
        )
    elif not monotone:
        print("warning: limit gap failed to shrink along n", file=sys.stderr)
    code = _emit_rows(rows, args.format, args.out)
    if code == EXIT_OK and not monotone:
        code = EXIT_INVARIANT
    return code


def cmd_audit(args: argparse.Namespace) -> int:
    rows: list[OutputRow] = []
    worst = 0.0
    strict_failures = 0
    for n in args.n_list:
        for r in args.r_list:
            audit = en_prime_bergman_audit(n, r)
            cross = abs(audit.numeric_sq - audit.quadrature_sq)
            rows.append(
                OutputRow(
                    n,
                    r,
                    PoleConfiguration.one_point(n, r).key(),
                    "audit",
                    audit.numeric_sq,
                    audit.closed_form_sq,
                    audit.closed_form_sq,
                    audit.trunc_len,
                    cross,
                )
            )
            worst = max(worst, abs(audit.discrepancy))
            if abs(audit.discrepancy) > 1e-8 * (1.0 + abs(audit.closed_form_sq)):
                strict_failures += 1
            print(
                f"audit n={n} r={r:.6g}: numeric {audit.numeric_sq:.12g} vs "
                f"closed form {audit.closed_form_sq:.12g} "
                f"(gap {audit.discrepancy:+.6g}, quadrature residual {cross:.3e})",
                file=sys.stderr,
            )
    print(
        f"largest |numeric - closed form| gap: {worst:.6g}; the numeric value "
        "is the certified one (coefficient pipeline and quadrature agree)",
        file=sys.stderr,
    )
    code = _emit_rows(rows, args.format, args.out)
    if args.strict_paper and strict_failures:
        print(
            f"--strict-paper: {strict_failures} case(s) contradict the closed form",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return code


def _add_output_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", metavar="PATH", default=None, help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


@functools.cache  # built once per process; nothing mutates them or their list defaults
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and the name -> parser mapping of its
    subcommands that ``add_subparsers`` keeps."""
    parser = argparse.ArgumentParser(
        prog="mslab",
        description="Exact derivative and interpolation constants on model spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the deterministic invariant suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", metavar="PATH", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_bern = sub.add_parser("bernstein", help="derivative constants of configurations")
    p_bern.add_argument(
        "--sigma",
        required=True,
        help=(
            "configuration: 're,im;re,im;...', 'one-point:n=8,r=0.5', or "
            "'random:n=6,r=0.7,count=3[,seed=1]'; a value that starts with '-' "
            "must be joined to the flag, as in --sigma=-0.5,0"
        ),
    )
    p_bern.add_argument("--target", choices=tuple(_TARGETS), default="both")
    p_bern.add_argument(
        "--strict-paper",
        action="store_true",
        help="also enforce the asymptotic lower envelope (fails at small n)",
    )
    _add_output_options(p_bern)
    p_bern.set_defaults(func=cmd_bernstein)

    p_interp = sub.add_parser("interp", help="constrained interpolation constants")
    p_interp.add_argument(
        "--sigma",
        required=True,
        help="configuration, same grammar as bernstein (join a value that starts with '-': --sigma=-0.5,0)",
    )
    _add_output_options(p_interp)
    p_interp.set_defaults(func=cmd_interp)

    p_asym = sub.add_parser("asymptotics", help="normalized constants along n at fixed radius")
    p_asym.add_argument("--r", type=_radius, default=0.5)
    p_asym.add_argument("--n-list", type=_ascending_int_list, default=[25, 50, 100, 200], metavar="N1,N2,...")
    p_asym.add_argument("--target", choices=("bergman", "hardy"), default="bergman")
    _add_output_options(p_asym)
    p_asym.set_defaults(func=cmd_asymptotics)

    p_audit = sub.add_parser("audit", help="numeric norm vs published closed form")
    p_audit.add_argument("--n-list", type=_int_list, default=[2, 5, 10, 20], metavar="N1,N2,...")
    p_audit.add_argument(
        "--r-list", type=_float_list, default=[0.0, 0.3, 0.5, 0.7], metavar="R1,R2,..."
    )
    p_audit.add_argument(
        "--strict-paper",
        action="store_true",
        help="exit nonzero when the numeric value contradicts the closed form",
    )
    _add_output_options(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    return parser, sub.choices


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        args.command = argv[0]
    if command is None or extra:
        # No command, an unknown one or arguments its parser left over: the
        # top-level parser, whose help and usage name the whole command line.
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CertificationError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical certification failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
