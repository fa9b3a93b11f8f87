"""Command-line interface.

Subcommands map one-to-one onto the engine's operations:

    commutator    projected coordinate commutator at one kept-level count
    sweep         commutator reports for every kept-level count 0..N
    spectrum      level energies, degeneracies, and [H, L] = 0
    landau-gauge  momentum-grid convergence study of the same commutator
    crosscheck    grid route vs ladder route at one kept-level count
    dump-matrix   serialize a named operator matrix as JSON

Exit status is 0 exactly when every assertion inside the emitted report
holds, 1 when a report is emitted but fails, 2 for usage errors. Output
is JSON, CSV, or a plain table; the default comes from NCG_DEFAULT_OUTPUT
(table if unset). Every subcommand builds a report and one renderer turns
it into any of the three formats. The parsed arguments are the run
configuration: ``config_from_args`` checks them and fills in the values
the flags leave implicit. Every operator is held by its nonzero
diagonals, and no subcommand builds a dense matrix: ``dump-matrix``
writes its d² JSON entries from the diagonals. Identical invocations
produce byte-identical output.

A process executes only the engine modules its command runs: ``projection``,
``landau_gauge`` and ``spectrum`` load on first attribute access. The parser
reads ``ladder.H_FORMS``, so ``ladder`` loads at once.
"""

from __future__ import annotations

import argparse
import atexit
import importlib.util
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import fock, ladder
from .serialize import dumps, format_float, render_csv, render_table
from .units import PhysicalUnits, magnetic_length


def _lazy(name: str):
    """Submodule ``name``: the loaded one if there is one, else one that loads on first use."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[fullname]


# Module-level names, so that perfbench's span tracer wraps them as it wraps any other.
landau_gauge, projection, spectrum = map(_lazy, ("landau_gauge", "projection", "spectrum"))

__all__ = ["build_parser", "main", "entry"]

OUTPUT_FORMATS = ("json", "csv", "table")
ENV_OUTPUT = "NCG_DEFAULT_OUTPUT"

DEFAULT_N = 4
DEFAULT_J = 8
DEFAULT_GRID_M = "32,64,128,256"
DEFAULT_CROSSCHECK_M = 128


def _add_unit_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("physical constants")
    group.add_argument("--config", type=str, default=None, metavar="PATH",
                       help="JSON file with any of e, B, c, hbar, m (flags override)")
    for name, text in (
        ("e", "charge"),
        ("B", "magnetic field strength"),
        ("c", "speed of light"),
        ("hbar", "reduced Planck constant"),
        ("m", "particle mass"),
    ):
        group.add_argument(f"--{name}", type=float, default=None, help=f"{text} (default 1)")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", choices=OUTPUT_FORMATS, default=None,
                        help=f"report format (default ${ENV_OUTPUT} or table)")
    parser.add_argument("--out", dest="out_path", type=str, default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclandau",
        description="Coordinate commutators in truncated Landau-level spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("commutator", help="projected coordinate commutator")
    p.add_argument("--N", type=int, default=DEFAULT_N, help="highest retained level")
    p.add_argument("--J", type=int, default=DEFAULT_J, help="highest retained degeneracy orbit")
    p.add_argument("--keep", type=int, default=None, help="highest projected level (default N)")

    p = sub.add_parser("sweep", help="commutator reports for keep = 0..N")
    p.add_argument("--N", type=int, default=DEFAULT_N)
    p.add_argument("--J", type=int, default=DEFAULT_J)

    p = sub.add_parser("spectrum", help="level energies and degeneracies")
    p.add_argument("--N", type=int, default=DEFAULT_N)
    p.add_argument("--J", type=int, default=DEFAULT_J)

    p = sub.add_parser("landau-gauge", help="momentum-grid convergence study")
    p.add_argument("--keep", type=int, default=0, help="highest retained level")
    p.add_argument("--grid-M", type=str, default=DEFAULT_GRID_M,
                   help="comma-separated grid sizes (default %(default)s)")
    p.add_argument("--k-range", type=float, default=None,
                   help="half-width of the momentum grid in guiding-center lengths")

    p = sub.add_parser("crosscheck", help="grid route vs ladder route")
    p.add_argument("--keep", type=int, default=0)
    p.add_argument("--J", type=int, default=None,
                   help="degeneracy cutoff for the ladder route (default keep+3)")
    p.add_argument("--grid-M", type=str, default=str(DEFAULT_CROSSCHECK_M),
                   help="grid size for the momentum route")
    p.add_argument("--k-range", type=float, default=None)

    p = sub.add_parser("dump-matrix", help="serialize one operator matrix (JSON)")
    p.add_argument("--op", choices=tuple(_OPERATORS), required=True, help="which operator")
    p.add_argument("--N", type=int, default=DEFAULT_N)
    p.add_argument("--J", type=int, default=DEFAULT_J)
    p.add_argument("--keep", type=int, default=None, help="kept levels (projector only)")
    p.add_argument("--form", choices=ladder.H_FORMS, default="ladder", help="Hamiltonian form")

    for p in sub.choices.values():
        _add_unit_flags(p)
        _add_output_flags(p)
    return parser


def _units_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> PhysicalUnits:
    values = {"e": 1.0, "B": 1.0, "c": 1.0, "hbar": 1.0, "m": 1.0}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON, or a too-long int
            parser.error(f"--config: cannot read {args.config}: {exc}")
        if not isinstance(loaded, dict):
            parser.error(f"--config: {args.config} must hold a JSON object")
        unknown = set(loaded) - set(values)
        if unknown:
            parser.error(f"--config: unknown constants {sorted(unknown)}")
        values.update(loaded)
    for name in values:
        flag = getattr(args, name)
        if flag is not None:
            values[name] = flag
    try:
        return PhysicalUnits(**values)
    except ValueError as exc:
        parser.error(str(exc))


def _parse_grid_sizes(parser: argparse.ArgumentParser, text: str, keep: int) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        parser.error(f"--grid-M: expected comma-separated integers, got {text!r}")
    # coefficient extraction needs a nonempty grid interior
    if not sizes or any(size < 5 for size in sizes):
        parser.error(f"--grid-M: grid sizes must be >= 5, got {text!r}")
    if (keep + 1) * max(sizes) > fock.MAX_DIMENSION:
        parser.error(f"--grid-M: (--keep + 1) * {max(sizes)} exceeds {fock.MAX_DIMENSION}")
    return sizes


def _resolve_output(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    if args.output is not None:
        return args.output
    env = os.environ.get(ENV_OUTPUT)
    if env:
        if env not in OUTPUT_FORMATS:
            parser.error(f"{ENV_OUTPUT}={env!r} is not one of {OUTPUT_FORMATS}")
        return env
    return "table"


def config_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Check ``args`` in place and fill in what the flags leave implicit:
    the resolved ``output``, ``units``, ``grid_sizes``, ``k_range`` and crosscheck's ``J``."""
    output = _resolve_output(args, parser)
    args.units = _units_from_args(parser, args)

    if args.command in ("commutator", "sweep", "spectrum", "dump-matrix"):
        if args.N < 0:
            parser.error(f"--N must be nonnegative, got {args.N}")
        if args.J < 0:
            parser.error(f"--J must be nonnegative, got {args.J}")
        if args.J < 1 and args.command in ("commutator", "sweep"):
            parser.error(f"--J must be >= 1 for an interior in j, got {args.J}")

    if args.command in ("commutator", "dump-matrix"):
        if args.keep is not None and not 0 <= args.keep <= args.N:
            parser.error(f"--keep must lie in 0..--N (got --keep {args.keep}, --N {args.N})")

    if args.command in ("landau-gauge", "crosscheck"):
        if args.keep < 0:
            parser.error(f"--keep must be nonnegative, got {args.keep}")
        if args.k_range is None:
            args.k_range = landau_gauge.DEFAULT_HALF_WIDTH
        args.grid_sizes = _parse_grid_sizes(parser, args.grid_M, args.keep)
        for size in args.grid_sizes:  # KGrid rejects a range it cannot hold in normal floats
            try:
                landau_gauge.KGrid.centered(size, args.units, args.k_range)
            except ValueError as exc:
                parser.error(f"--k-range {args.k_range!r} in these units: {exc}")

    if args.command == "crosscheck":
        if len(args.grid_sizes) != 1:
            parser.error("--grid-M: crosscheck takes exactly one grid size")
        if args.J is None:
            args.J = args.keep + 3
        if args.J < 1:
            parser.error(f"--J must be >= 1, got {args.J}")

    if args.command == "dump-matrix":
        if args.op == "projector" and args.keep is None:
            parser.error("--keep is required with --op projector")
        if output != "json":
            if args.output is not None:
                parser.error("--output: dump-matrix only emits json")
            output = "json"
        if args.op == "H" and args.form == "quadratic":
            # the two coefficients ladder.build_H multiplies in, as it computes them
            u = args.units
            half_omega = u.e * u.B / (2.0 * u.m * u.c)
            coefficients = (1.0 / (2.0 * u.m), 0.5 * u.m * (half_omega * half_omega))
            if not all(map(math.isfinite, coefficients)):
                parser.error("--form quadratic: 1/(2*m) or m*(e*B/(2*m*c))**2/2 overflows in these units")

    args.output = output


# -- command implementations ---------------------------------------------


class Report(NamedTuple):
    """What one subcommand emits, in a form every output format can use.

    ``payload`` is the JSON document; ``header`` and ``rows`` feed the CSV
    and the table, which ``title`` heads. A report whose table is not
    column-shaped carries its own table text in ``body``.
    """

    ok: bool
    payload: dict
    header: Sequence = ()
    rows: Sequence = ()
    title: str = ""
    body: Optional[str] = None


def render(report: Report, output: str) -> str:
    """The report as ``output`` text; tables end with the status line."""
    if output == "json":
        return dumps(report.payload) + "\n"
    if output == "csv":
        return render_csv(report.header, report.rows)
    body = report.body
    if body is None:
        body = render_table(report.title, report.header, report.rows)
    return body + f"status: {'ok' if report.ok else 'FAILED'}\n"


def _cmd_commutator(args: argparse.Namespace) -> Report:
    cutoffs = fock.Cutoffs(args.N, args.J)
    keep = args.N if args.keep is None else args.keep
    report = projection.projected_commutator_xy(cutoffs, keep, args.units)
    title = f"projected coordinate commutator  N={args.N} J={args.J} keep={keep}"
    return Report(report.ok, report.as_dict(), report.csv_header(), [report.csv_row()], title)


def _cmd_sweep(args: argparse.Namespace) -> Report:
    reports = projection.sweep(fock.Cutoffs(args.N, args.J), args.units)
    ok = all(r.ok for r in reports)
    payload = {"reports": [r.as_dict() for r in reports], "ok": ok}
    return Report(ok, payload, projection.CommutatorReport.csv_header(),
                  [r.csv_row() for r in reports],
                  f"projected commutator sweep  N={args.N} J={args.J}")


def _cmd_spectrum(args: argparse.Namespace) -> Report:
    report = spectrum.verify_spectrum(fock.Cutoffs(args.N, args.J), args.units)
    title = (f"level spectrum  N={args.N} J={args.J}"
             f"  max error {format_float(report.max_abs_error)}")
    return Report(report.ok, report.as_dict(), ["level", "energy", "multiplicity"],
                  report.table_rows(), title)


def _cmd_landau_gauge(args: argparse.Namespace) -> Report:
    rows = landau_gauge.convergence_study(args.keep, args.grid_sizes, args.units, args.k_range)
    expected = -1j * (args.keep + 1) * magnetic_length(args.units) ** 2
    ok = bool(rows) and rows[-1].abs_error <= 0.01 * abs(expected)
    payload = {
        "keep": args.keep,
        "expected": [expected.real, expected.imag],
        "rows": [row.as_dict() for row in rows],
        "ok": ok,
    }
    return Report(ok, payload, landau_gauge.ConvergenceRow.csv_header(),
                  [r.csv_row() for r in rows], f"momentum-grid convergence  keep={args.keep}")


def _cmd_crosscheck(args: argparse.Namespace) -> Report:
    keep, M = args.keep, args.grid_sizes[0]
    cutoffs = fock.Cutoffs(keep, args.J)
    ladder_report = projection.projected_commutator_xy(cutoffs, keep, args.units)
    grid = landau_gauge.KGrid.centered(M, args.units, args.k_range)
    sym = ladder_report.top_coefficient
    lan = landau_gauge.projected_commutator_landau(grid, keep, args.units).top_coefficient
    rel = abs(lan - sym) / abs(sym)
    ok = ladder_report.ok and rel <= 0.01
    payload = {
        "keep": keep,
        "J": args.J,
        "grid_M": M,
        "symmetric_gauge": [sym.real, sym.imag],
        "landau_gauge": [lan.real, lan.imag],
        "relative_difference": rel,
        "ok": ok,
    }
    # The table is key : value lines, not columns; perfbench/checker.py parses it.
    body = (
        f"gauge crosscheck  keep={keep}\n"
        f"  ladder route    : {format_float(sym.real)} {format_float(sym.imag)}i\n"
        f"  momentum route  : {format_float(lan.real)} {format_float(lan.imag)}i\n"
        f"  relative diff   : {format_float(rel)}\n"
    )
    header = ["keep", "J", "grid_M", "sym_re", "sym_im", "lan_re", "lan_im", "rel_diff"]
    row = [keep, args.J, M, sym.real, sym.imag, lan.real, lan.imag, rel]
    return Report(ok, payload, header, [row], body=body)


# Operators dump-matrix can serialize, in the order --help lists them.
_OPERATORS = {
    "a": lambda c, args: ladder.build_a(c),
    "b": lambda c, args: ladder.build_b(c),
    "alpha": lambda c, args: ladder.build_alpha(c),
    "x": lambda c, args: ladder.build_xy(c, args.units)[0],
    "y": lambda c, args: ladder.build_xy(c, args.units)[1],
    "px": lambda c, args: ladder.build_momenta(c, args.units)[0],
    "py": lambda c, args: ladder.build_momenta(c, args.units)[1],
    "H": lambda c, args: ladder.build_H(c, args.units, form=args.form),
    "L": lambda c, args: ladder.build_L(c, args.units),
    "xy-commutator": lambda c, args: fock.commutator(*ladder.build_xy(c, args.units)),
    "projector": lambda c, args: projection.projector(c, args.keep),
}


def _cmd_dump_matrix(args: argparse.Namespace) -> Report:
    op = _OPERATORS[args.op](fock.Cutoffs(args.N, args.J), args)
    return Report(True, fock.to_json_dict(op))


_COMMANDS = {
    "commutator": _cmd_commutator,
    "sweep": _cmd_sweep,
    "spectrum": _cmd_spectrum,
    "landau-gauge": _cmd_landau_gauge,
    "crosscheck": _cmd_crosscheck,
    "dump-matrix": _cmd_dump_matrix,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config_from_args(parser, args)
    report = _COMMANDS[args.command](args)
    text = render(report, args.output)
    if args.out_path:
        try:
            Path(args.out_path).write_text(text)
        except OSError as exc:
            parser.error(f"--out: cannot write {args.out_path}: {exc}")
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 1


def entry() -> int:
    """Process entry point: ``main()``, then end the process without teardown.

    Once the report is written and the standard streams are flushed, the
    ``atexit`` handlers run, their output is flushed, and ``os._exit`` ends
    the process, skipping the interpreter's module teardown and final
    garbage collection. A ``SystemExit`` with an int code, as argparse raises
    for a usage error or ``--help``, ends the same way with that status. Any
    other exception from ``main()``, or a failed flush, takes the
    interpreter's normal exit instead, which retries the flush and reports
    it, with the same status as before.
    """
    try:
        status = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        status = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
        atexit._run_exitfuncs()  # from Python 3.11 on, reports a handler's exception without raising
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        return status
    os._exit(status)


if __name__ == "__main__":
    sys.exit(entry())
