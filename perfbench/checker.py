"""Independent check of one CLI invocation's output.

The checker trusts neither the report's ``ok`` field nor the exit status
alone. It reads the op's own argv, works out what the physics says the
output must contain, and compares:

- ``top_coefficient`` equals -i (keep+1) l^2 to 1e-12 relative, with
  l^2 = hbar c / (e B) from the op's unit flags, and the off-top residual
  is at most 1e-12 l^2 (``commutator``, ``sweep``, the ladder side of
  ``crosscheck``);
- the spectrum has levels hbar omega (n + 1/2), each J+1 times;
- the last ``landau-gauge`` row is within 1% of -i (keep+1) l^2;
- the ``crosscheck`` relative difference, recomputed from the two
  reported coefficients, is at most 1%;
- ``dump-matrix`` gives d = (N+1)(J+1), d^2 finite entries, and a
  Hermitian matrix for the Hermitian operators;
- a report the contract expects to fail (exit 1) really misses the 1%;
- a usage error exits 2 with a usage message and nothing on stdout;
- nothing prints a traceback, and identical argv give identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from workloads import OK, USAGE, Op

__all__ = ["Failure", "Checker", "check"]

EXACT_TOL = 1e-12
GRID_TOL = 0.01
TRACEBACK = "Traceback (most recent call last)"
HERMITIAN = {"x", "y", "px", "py", "H", "L", "projector"}
DEFAULTS = {"N": 4, "J": 8}
DEFAULT_GRID = "32,64,128,256"


@dataclass(frozen=True)
class Failure:
    """Why an op failed. ``silent`` marks a wrong answer the CLI did not flag:
    the exit status was the one expected and no traceback was printed."""

    reason: str
    silent: bool


class BadOutput(Exception):
    pass


def _flags(argv: tuple[str, ...]) -> dict[str, str]:
    flags = {}
    for i, token in enumerate(argv[1:], start=1):
        if token.startswith("--") and i + 1 < len(argv):
            flags[token[2:]] = argv[i + 1]
    return flags


def _units(flags: dict[str, str]) -> tuple[float, float]:
    """(l^2, hbar omega) for the op's unit constants."""
    e, B, c, hbar, m = (float(flags.get(k, 1.0)) for k in ("e", "B", "c", "hbar", "m"))
    return hbar * c / (e * B), hbar * e * B / (m * c)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise BadOutput(message)


def _close(value: complex, expected: complex, rel: float) -> bool:
    return abs(value - expected) <= rel * abs(expected)


def _table(text: str) -> tuple[str, list[str], list[list[str]], Optional[str]]:
    """Title, header, rows and status line of a rendered table."""
    lines = text.splitlines()
    _require(len(lines) >= 3 and set(lines[2].replace(" ", "")) <= {"-"}, "malformed table")
    status = lines[-1] if lines[-1].startswith("status:") else None
    body = lines[3:-1] if status else lines[3:]
    return lines[0], lines[1].split(), [row.split() for row in body], status


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    _require(bool(lines), "empty csv")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _fmt(flags: dict[str, str]) -> str:
    return flags.get("output", "table")


def _check_commutator_row(keep: int, coef: complex, residual: float, ell2: float) -> None:
    expected = -1j * (keep + 1) * ell2
    _require(_close(coef, expected, EXACT_TOL),
             f"keep={keep}: top_coefficient {coef} != {expected}")
    _require(residual <= EXACT_TOL * ell2, f"keep={keep}: residual {residual} > {EXACT_TOL} l^2")


def _commutator_rows(fmt: str, text: str):
    """[(keep, coef, residual)] and the claimed verdict of a commutator/sweep report."""
    if fmt == "json":
        data = json.loads(text)
        reports = data["reports"] if "reports" in data else [data]
        rows = [(r["keep"], complex(*r["top_coefficient"]), r["max_offtop_residual"]) for r in reports]
        return rows, data["ok"], reports
    if fmt == "csv":
        header, body = _csv(text)
        _require(header == ["keep", "re", "im", "residual"], f"csv header {header}")
        return [(int(k), complex(float(re), float(im)), float(res)) for k, re, im, res in body], None, None
    title, header, body, status = _table(text)
    _require(header == ["keep", "re", "im", "residual"], f"table header {header}")
    rows = [(int(k), complex(float(re), float(im)), float(res)) for k, re, im, res in body]
    return rows, status == "status: ok", None


def _check_commutator(op: Op, flags: dict[str, str], text: str) -> Optional[bool]:
    ell2, _ = _units(flags)
    n = int(flags.get("N", DEFAULTS["N"]))
    j = int(flags.get("J", DEFAULTS["J"]))
    keeps = [int(flags.get("keep", n))] if op.subcommand == "commutator" else list(range(n + 1))
    rows, claimed, reports = _commutator_rows(_fmt(flags), text)
    _require([r[0] for r in rows] == keeps, f"reported keeps {[r[0] for r in rows]} != {keeps}")
    for report in reports or []:
        _require((report["N"], report["J"]) == (n, j), f"reported N, J {report['N']}, {report['J']}")
    for keep, coef, residual in rows:
        _check_commutator_row(keep, coef, residual, ell2)
    return claimed


def _check_spectrum(op: Op, flags: dict[str, str], text: str) -> Optional[bool]:
    _, quantum = _units(flags)
    n = int(flags.get("N", DEFAULTS["N"]))
    j = int(flags.get("J", DEFAULTS["J"]))
    tol = EXACT_TOL * quantum * (n + 1)
    fmt = _fmt(flags)
    if fmt == "json":
        data = json.loads(text)
        eig = data["eigenvalues"]
        _require(len(eig) == (n + 1) * (j + 1), f"{len(eig)} eigenvalues")
        for i, value in enumerate(eig):
            level = i // (j + 1)
            _require(abs(value - quantum * (level + 0.5)) <= tol, f"eigenvalue {i} = {value}")
        table = {int(k): v for k, v in data["degeneracy_table"].items()}
        _require(table == {level: j + 1 for level in range(n + 1)}, f"degeneracy table {table}")
        return data["ok"]
    if fmt == "csv":
        header, body = _csv(text)
        status = None
    else:
        _, header, body, status = _table(text)
    _require(header == ["level", "energy", "multiplicity"], f"header {header}")
    _require([int(r[0]) for r in body] == list(range(n + 1)), "levels are not 0..N")
    for level, energy, mult in body:
        _require(abs(float(energy) - quantum * (int(level) + 0.5)) <= tol, f"level {level} energy {energy}")
        _require(int(mult) == j + 1, f"level {level} multiplicity {mult} != {j + 1}")
    return None if fmt == "csv" else status == "status: ok"


def _check_landau_gauge(op: Op, flags: dict[str, str], text: str) -> Optional[bool]:
    ell2, _ = _units(flags)
    keep = int(flags.get("keep", 0))
    sizes = [int(s) for s in flags.get("grid-M", DEFAULT_GRID).split(",")]
    fmt = _fmt(flags)
    if fmt == "json":
        data = json.loads(text)
        rows = [(r["M"], r["keep"], complex(r["re_coeff"], r["im_coeff"])) for r in data["rows"]]
        claimed = data["ok"]
    else:
        if fmt == "csv":
            header, body = _csv(text)
            claimed = None
        else:
            _, header, body, status = _table(text)
            claimed = status == "status: ok"
        _require(header[:5] == ["M", "dk", "keep", "re_coeff", "im_coeff"], f"header {header}")
        rows = [(int(r[0]), int(r[2]), complex(float(r[3]), float(r[4]))) for r in body]
    _require([r[0] for r in rows] == sizes, f"grid sizes {[r[0] for r in rows]} != {sizes}")
    _require(all(r[1] == keep for r in rows), "rows report another keep")
    expected = -1j * (keep + 1) * ell2
    converged = _close(rows[-1][2], expected, GRID_TOL)
    _require(converged == (op.expect == OK),
             f"last row {rows[-1][2]} vs {expected}: within 1% is {converged}")
    return claimed


def _check_crosscheck(op: Op, flags: dict[str, str], text: str) -> Optional[bool]:
    ell2, _ = _units(flags)
    keep = int(flags.get("keep", 0))
    fmt = _fmt(flags)
    if fmt == "json":
        data = json.loads(text)
        sym, lan = complex(*data["symmetric_gauge"]), complex(*data["landau_gauge"])
        reported, claimed = data["relative_difference"], data["ok"]
    elif fmt == "csv":
        header, body = _csv(text)
        _require(header == ["keep", "J", "grid_M", "sym_re", "sym_im", "lan_re", "lan_im", "rel_diff"],
                 f"header {header}")
        row = [float(v) for v in body[0]]
        sym, lan, reported, claimed = complex(row[3], row[4]), complex(row[5], row[6]), row[7], None
    else:
        values = {}
        for line in text.splitlines()[1:-1]:
            key, _, value = line.partition(":")
            values[key.strip()] = value.split()
        re, im = values["ladder route"]
        sym = complex(float(re), float(im.rstrip("i")))
        re, im = values["momentum route"]
        lan = complex(float(re), float(im.rstrip("i")))
        reported = float(values["relative diff"][0])
        claimed = text.splitlines()[-1] == "status: ok"
    expected = -1j * (keep + 1) * ell2
    _require(_close(sym, expected, EXACT_TOL), f"ladder route {sym} != {expected}")
    rel = abs(lan - sym) / abs(sym)
    # both coefficients are printed to 15 digits, so rel is known to ~1e-15
    _require(abs(rel - reported) <= 1e-12, f"reported relative difference {reported} != {rel}")
    _require((rel <= GRID_TOL) == (op.expect == OK), f"relative difference {rel} against 1%")
    return claimed


def _check_dump(op: Op, flags: dict[str, str], text: str) -> Optional[bool]:
    n = int(flags.get("N", DEFAULTS["N"]))
    j = int(flags.get("J", DEFAULTS["J"]))
    data = json.loads(text)
    dim = (n + 1) * (j + 1)
    _require(data["dim"] == dim, f"dim {data['dim']} != {dim}")
    entries = np.asarray(data["entries"], dtype=float)
    _require(entries.shape == (dim * dim, 2), f"{entries.shape[0]} entries, expected {dim * dim}")
    _require(bool(np.all(np.isfinite(entries))), "non-finite entries")
    if flags["op"] in HERMITIAN:
        a = (entries[:, 0] + 1j * entries[:, 1]).reshape(dim, dim)
        scale = max(float(np.max(np.abs(a))), 1e-300)
        deviation = float(np.max(np.abs(a - a.conj().T)))
        _require(deviation <= EXACT_TOL * scale, f"{flags['op']} not Hermitian: {deviation}")
    return None


_CHECKS = {
    "commutator": _check_commutator,
    "sweep": _check_commutator,
    "spectrum": _check_spectrum,
    "landau-gauge": _check_landau_gauge,
    "crosscheck": _check_crosscheck,
    "dump-matrix": _check_dump,
}


def check(op: Op, status: int, stdout: bytes, stderr: str) -> Optional[Failure]:
    """None when the invocation kept the contract and its output is right."""
    if TRACEBACK in stderr:
        return Failure(f"traceback, exit {status}", silent=False)
    if status != op.expect:
        return Failure(f"exit {status}, expected {op.expect}", silent=False)
    if op.expect == USAGE:
        if stdout or "usage:" not in stderr:
            return Failure("usage error without a usage message, or with output", silent=True)
        return None
    try:
        flags = _flags(op.argv)
        claimed = _CHECKS[op.subcommand](op, flags, stdout.decode())
        if claimed is not None:
            _require(claimed == (op.expect == OK), f"report claims ok={claimed}")
    except BadOutput as exc:
        return Failure(str(exc), silent=True)
    except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
        return Failure(f"unreadable output: {type(exc).__name__}: {exc}", silent=True)
    return None


class Checker:
    """Checks every op and that identical argv always give identical bytes."""

    def __init__(self) -> None:
        self._digests: dict[tuple[str, ...], str] = {}

    def __call__(self, op: Op, status: int, stdout: bytes, stderr: str) -> Optional[Failure]:
        digest = hashlib.sha256(stdout).hexdigest()
        first = self._digests.setdefault(op.argv, digest)
        failure = check(op, status, stdout, stderr)
        if failure is None and first != digest:
            failure = Failure("output bytes differ from an identical earlier invocation", silent=True)
        return failure
