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
(table if unset). The engine modules return numbers and verdicts; this
module alone lays out every report's JSON keys, CSV columns and table
rows, and one renderer turns them into any of the three formats. The
parsed arguments are the run configuration: ``config_from_args`` checks
them, admitting each command by one table of the counts its route holds
or prints, and fills in the values the flags leave implicit. Every
operator is held by its nonzero diagonals, and no subcommand builds a
dense matrix: ``dump-matrix`` writes its d² JSON entries from the
diagonals. Identical invocations produce byte-identical output.

Units live here. The engine returns pure numbers, both commutator routes
at ell = 1 and every operator at unit scale, and judges its verdicts on them.
Each printed value is a pure number times its scale (ell^2 = hbar c / eB,
e B ell / c for a grid's dk, or an ``_OPERATORS`` row), rounded once: within
(eps/2)|value| + 2^-1075.

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
from typing import Callable, NamedTuple, Optional, Sequence

from . import fock, ladder
from .serialize import Verbatim, dumps, format_float, render_csv, render_table
from .units import (PhysicalUnits, coordinate_scale, level_spacing, magnetic_length_squared, momentum_grid_scale,
                    momentum_scale)


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
    p.set_defaults(op="H", form="ladder")  # the operator whose eigenvalues it prints, for the overflow rule

    p = sub.add_parser("landau-gauge", help="momentum-grid convergence study")
    p.add_argument("--keep", type=int, default=0, help="highest retained level")
    p.add_argument("--grid-M", type=str, default=DEFAULT_GRID_M,
                   help="comma-separated grid sizes (default %(default)s)")
    p.add_argument("--k-range", type=float, default=None,
                   help="half-width of the momentum grid in guiding-center lengths; it moves only dk")

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


def _parse_grid_sizes(parser: argparse.ArgumentParser, text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        parser.error(f"--grid-M: expected comma-separated integers, got {text!r}")
    if not sizes:
        parser.error(f"--grid-M: expected at least one grid size, got {text!r}")
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


# The one size table: the counts each command's route holds or prints, named by the flags that set them. The ladder
# route holds keep+1 levels and J+1 orbits, the grid route keep+1 levels and max(M) points; on d = (N+1)(J+1) states
# spectrum prints 2d floats, dump-matrix d² entries (at least 8 B each: 2 GiB at the cap), sweep N²/2 artifacts.
MAX_DIMENSION = 16384
_KEPT, _ORBITS, _GRID = "--keep: kept-level count", "--J: orbit count", "--grid-M: grid size"
_SIZES = {
    "commutator": lambda args: {f"--N, {_KEPT}": args.keep + 1, _ORBITS: args.J + 1},
    "landau-gauge": lambda args: {_KEPT: args.keep + 1, _GRID: max(args.grid_sizes)},
    "crosscheck": lambda args: {_KEPT: args.keep + 1, _ORBITS: args.J + 1, _GRID: max(args.grid_sizes)},
    **dict.fromkeys(("sweep", "spectrum", "dump-matrix"),
                    lambda args: {"--N, --J: composite dimension": (args.N + 1) * (args.J + 1)}),
}


def config_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Check ``args`` in place and fill in what the flags leave implicit: the resolved ``output``, ``units``,
    ``grid_sizes``, ``k_range``, crosscheck's ``J``, commutator's ``keep``, and an ``op``'s ``pure`` and ``scale``."""
    output = _resolve_output(args, parser)
    args.units = _units_from_args(parser, args)

    if args.command in ("commutator", "sweep", "spectrum", "dump-matrix"):
        if args.N < 0:
            parser.error(f"--N must be nonnegative, got {args.N}")
        if args.J < 0:
            parser.error(f"--J must be nonnegative, got {args.J}")
        if getattr(args, "keep", None) is not None and not 0 <= args.keep <= args.N:
            parser.error(f"--keep must lie in 0..--N (got --keep {args.keep}, --N {args.N})")
    if args.command == "commutator":
        args.keep = args.N if args.keep is None else args.keep

    if args.command in ("landau-gauge", "crosscheck"):
        if args.keep < 0:
            parser.error(f"--keep must be nonnegative, got {args.keep}")
        args.grid_sizes = _parse_grid_sizes(parser, args.grid_M)
    if args.command == "crosscheck":
        if len(args.grid_sizes) != 1:
            parser.error("--grid-M: crosscheck takes exactly one grid size")
        args.J = min(args.keep + 3, MAX_DIMENSION - 1) if args.J is None else args.J  # --keep meets its own cap
    if args.command in ("commutator", "sweep", "crosscheck") and args.J < 1:
        parser.error(f"--J must be >= 1 for an interior in j, got {args.J}")

    if args.command == "dump-matrix":
        if args.op == "projector" and args.keep is None:
            parser.error("--keep is required with --op projector")
        if output != "json":
            if args.output is not None:
                parser.error("--output: dump-matrix only emits json")
            output = "json"

    for what, count in _SIZES[args.command](args).items():
        if count > MAX_DIMENSION:
            parser.error(f"{what} {count} exceeds the supported maximum {MAX_DIMENSION}")

    if args.command in ("landau-gauge", "crosscheck"):
        args.k_range = landau_gauge.DEFAULT_HALF_WIDTH if args.k_range is None else args.k_range
        scale = momentum_grid_scale(args.units)
        for size in args.grid_sizes:  # KGrid rejects too few points and a range outside the normal floats
            try:
                if not 0 < (dk := scale * landau_gauge.KGrid.centered(size, args.k_range).dk) < math.inf:
                    raise ValueError(f"dk times {scale!r} {'overflows' if dk else 'underflows to 0'} in these units")
            except ValueError as exc:
                parser.error(f"--grid-M {size} with --k-range {args.k_range!r}: {exc}")
        if 2 * (args.keep + 2) * magnetic_length_squared(args.units) == math.inf:  # landau_gauge, "Overflow"
            parser.error("--keep: 2 * (keep+2) * hbar*c/(e*B) overflows in these units")

    if args.command in ("spectrum", "dump-matrix"):  # the one overflow rule: see _OPERATORS
        build, scale = _OPERATORS[args.op]  # spectrum's H on the N+1 levels has the composite H's largest entry
        args.pure = build(fock.Cutoffs(args.N, args.J if args.command == "dump-matrix" else 0), args)
        args.scale = scale(args.units)
        if not math.isfinite(args.scale * args.pure.largest_part()):
            parser.error(f"{args.op}: its largest entry, {args.pure.largest_part()!r} times its unit scale "
                         f"{args.scale!r}, overflows in these units")

    args.output = output


# -- command implementations ---------------------------------------------


class Report(NamedTuple):
    """What one subcommand emits, in a form every output format can use.

    ``payload()`` builds the JSON document, and only :func:`render` calls it,
    for JSON alone; ``header`` and ``rows`` feed the CSV and the table, which
    ``title`` heads. A report whose table is not column-shaped carries its own
    table text in ``body``. The ``_cmd_*`` functions build them from the engine's report tuples.
    """

    ok: bool
    payload: Callable[[], dict]
    header: Sequence = ()
    rows: Sequence = ()
    title: str = ""
    body: Optional[str] = None


def render(report: Report, output: str) -> str:
    """The report as ``output`` text; tables end with the status line."""
    if output == "json":
        return dumps(report.payload()) + "\n"
    if output == "csv":
        return render_csv(report.header, report.rows)
    body = render_table(report.title, report.header, report.rows) if report.body is None else report.body
    return body + f"status: {'ok' if report.ok else 'FAILED'}\n"


def _pair(z: complex, scale: float) -> list[float]:
    """[re, im] of ``scale * z``, part by part: the complex product can flip a zero's sign."""
    return [scale * z.real, scale * z.imag]


COMMUTATOR_HEADER = ["keep", "re", "im", "residual"]


def _artifact(n: int, value: complex, J: int, ell2: float) -> Verbatim:
    """``dumps({"row": [n, J], "col": [n, J], "value": _pair(value, ell2)})``, written from one template."""
    re, im = map(format_float, _pair(value, ell2))
    return Verbatim([f'{{"row": [{n}, {J}], "col": [{n}, {J}], "value": [{re}, {im}]}}'])


def _commutator_payload(r: projection.CommutatorReport, ell2: float, texts: dict) -> dict:
    """The JSON object of one ladder-route ``CommutatorReport`` in units of ``ell2``; each artifact sits at (n, J).
    Every artifact is its JSON text, made once per (n, value) tuple, which sweep's keeps share; ``texts``, one dict
    per command, keys it by the tuple's identity, as equal values can differ in the sign of a zero."""
    J = r.cutoffs.degeneracy_cutoff
    artifacts = [texts.get(id(a)) or texts.setdefault(id(a), _artifact(*a, J, ell2)) for a in r.boundary_artifacts]
    return {"N": r.cutoffs.landau_cutoff, "J": J, "keep": r.keep_levels,
            "top_coefficient": _pair(r.top_coefficient, ell2), "max_offtop_residual": ell2 * r.max_offtop_residual,
            "boundary_artifacts": artifacts, "ok": r.ok}


def _commutator_row(r: projection.CommutatorReport, ell2: float) -> list:
    return [r.keep_levels, *_pair(r.top_coefficient, ell2), ell2 * r.max_offtop_residual]


def _cmd_commutator(args: argparse.Namespace) -> Report:
    keep, ell2 = args.keep, magnetic_length_squared(args.units)
    r = projection.projected_commutator_xy(fock.Cutoffs(args.N, args.J), keep)
    title = f"projected coordinate commutator  N={args.N} J={args.J} keep={keep}"
    return Report(r.ok, lambda: _commutator_payload(r, ell2, {}), COMMUTATOR_HEADER, [_commutator_row(r, ell2)], title)


def _cmd_sweep(args: argparse.Namespace) -> Report:
    reports, ell2 = projection.sweep(fock.Cutoffs(args.N, args.J)), magnetic_length_squared(args.units)
    ok, texts = all(r.ok for r in reports), {}  # the printed artifacts: N²/2, at most 2N+1 distinct
    payload = lambda: {"reports": [_commutator_payload(r, ell2, texts) for r in reports], "ok": ok}
    return Report(ok, payload, COMMUTATOR_HEADER, [_commutator_row(r, ell2) for r in reports],
                  f"projected commutator sweep  N={args.N} J={args.J}")


def _cmd_spectrum(args: argparse.Namespace) -> Report:
    r = spectrum.verify_spectrum(fock.Cutoffs(args.N, args.J), args.units)
    levels = sorted(r.degeneracy_table.items())
    payload = lambda: {"N": args.N, "J": args.J, "eigenvalues": r.eigenvalues, "expected": r.expected,
                       "max_abs_error": r.max_abs_error, "degeneracy_table": {str(n): m for n, m in levels},
                       "hl_commutes": r.hl_commutes, "ok": r.ok}
    rows = [[n, r.expected[n * (args.J + 1)], m] for n, m in levels]
    title = f"level spectrum  N={args.N} J={args.J}  max error {format_float(r.max_abs_error)}"
    return Report(r.ok, payload, ["level", "energy", "multiplicity"], rows, title)


GRID_HEADER = ["M", "dk", "keep", "re_coeff", "im_coeff", "abs_error", "observed_order"]


def _cmd_landau_gauge(args: argparse.Namespace) -> Report:
    study = landau_gauge.convergence_study(args.keep, args.grid_sizes, args.k_range)
    ell2, dk_scale = magnetic_length_squared(args.units), momentum_grid_scale(args.units)
    ok = study[-1].abs_error <= landau_gauge.TOLERANCE * (args.keep + 1)
    rows = [[r.size, dk_scale * r.dk, r.keep, *_pair(r.coefficient, ell2), ell2 * r.abs_error, r.observed_order]
            for r in study]
    payload = lambda: {"keep": args.keep, "expected": _pair(-1j * (args.keep + 1), ell2),
                       "rows": [dict(zip(GRID_HEADER, row)) for row in rows], "ok": ok}
    return Report(ok, payload, GRID_HEADER, rows, f"momentum-grid convergence  keep={args.keep}")


def _cmd_crosscheck(args: argparse.Namespace) -> Report:
    keep, M, ell2 = args.keep, args.grid_sizes[0], magnetic_length_squared(args.units)
    ladder_report = projection.projected_commutator_xy(fock.Cutoffs(keep, args.J), keep)
    lan = landau_gauge.projected_commutator_landau(landau_gauge.KGrid.centered(M, args.k_range), keep).top_coefficient
    rel = abs(lan - ladder_report.top_coefficient) / abs(ladder_report.top_coefficient)  # pure, as the verdict
    ok = ladder_report.ok and rel <= landau_gauge.TOLERANCE
    sym, lan = _pair(ladder_report.top_coefficient, ell2), _pair(lan, ell2)
    payload = lambda: {"keep": keep, "J": args.J, "grid_M": M, "symmetric_gauge": sym,
                       "landau_gauge": lan, "relative_difference": rel, "ok": ok}
    # The table is key : value lines, not columns; perfbench/checker.py parses it.
    body = (
        f"gauge crosscheck  keep={keep}\n"
        f"  ladder route    : {format_float(sym[0])} {format_float(sym[1])}i\n"
        f"  momentum route  : {format_float(lan[0])} {format_float(lan[1])}i\n"
        f"  relative diff   : {format_float(rel)}\n"
    )
    header = ["keep", "J", "grid_M", "sym_re", "sym_im", "lan_re", "lan_im", "rel_diff"]
    return Report(ok, payload, header, [[keep, args.J, M, *sym, *lan, rel]], body=body)


# Operators dump-matrix can serialize, in the order --help lists them, each a scale in these units times an operator
# at unit scale; spectrum prints H's. A command is a usage error exactly when scale * largest pure entry overflows.
_OPERATORS = {
    "a": (lambda c, args: ladder.build_a(c), lambda units: 1.0),
    "b": (lambda c, args: ladder.build_b(c), lambda units: 1.0),
    "alpha": (lambda c, args: ladder.build_alpha(c), lambda units: 1.0),
    "x": (lambda c, args: ladder.build_xy(c, 1.0)[0], coordinate_scale),
    "y": (lambda c, args: ladder.build_xy(c, 1.0)[1], coordinate_scale),
    "px": (lambda c, args: ladder.build_momenta(c, 1.0)[0], momentum_scale),
    "py": (lambda c, args: ladder.build_momenta(c, 1.0)[1], momentum_scale),
    "H": (lambda c, args: ladder.build_H(c, args.form), level_spacing),
    "L": (lambda c, args: ladder.build_L(c), lambda units: units.hbar),
    "xy-commutator": (lambda c, args: fock.commutator(*ladder.build_xy(c)), magnetic_length_squared),
    "projector": (lambda c, args: projection.projector(c, args.keep), lambda units: 1.0),
}


def _cmd_dump_matrix(args: argparse.Namespace) -> Report:
    return Report(True, lambda: fock.to_json_dict(args.pure.scaled(args.scale)))


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
    try:
        if args.out_path:
            Path(args.out_path).write_text(text)
        elif sys.stdout is None:  # its descriptor was closed at start
            raise OSError("stdout is closed")
        else:
            sys.stdout.write(text)
    except OSError as exc:
        parser.error(f"--out: cannot write {args.out_path}: {exc}" if args.out_path else f"cannot write stdout: {exc}")
    return 0 if report.ok else 1


def entry() -> int:
    """Process entry point: ``main()``, then end the process without teardown.

    Once the report is written and the standard streams are flushed, the
    ``atexit`` handlers run, their output is flushed, and ``os._exit`` ends
    the process, skipping the interpreter's module teardown and final
    garbage collection. A ``SystemExit`` with an int code, as argparse raises
    for a usage error or ``--help``, ends the same way with that status. Any
    other exception from ``main()``, or a failed flush (a stream closed at
    start is None, which fails too), takes the interpreter's normal exit,
    with the same status: it retries the flush and reports a failure.
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
    except (AttributeError, OSError, ValueError):  # AttributeError: None has no flush
        return status
    os._exit(status)


if __name__ == "__main__":
    sys.exit(entry())
