"""Deterministic rendering of report dictionaries.

All numeric output goes through one float formatter fixed at 15
significant digits, so identical runs serialize to identical bytes and
golden-file comparisons are meaningful. Dict key order is preserved
(insertion order), never sorted, so each report controls its own field
order. It writes int, float, bool, None, list, dict and :class:`Verbatim`
values, raises ``TypeError`` on any other, and imports no numpy.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

__all__ = ["Verbatim", "format_float", "format_cell", "dumps", "render_csv", "render_table"]


class Verbatim(NamedTuple):
    """JSON text that :func:`dumps` copies out unchanged, held as a list of pieces."""

    parts: list


def format_float(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return format(value, ".15g")


def _encode(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, Verbatim):
        out += obj.parts
    elif isinstance(obj, list):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _encode(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _encode(value, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def dumps(obj) -> str:
    """Deterministic JSON text (no trailing newline)."""
    out: list = []
    _encode(obj, out)
    return "".join(out)


def format_cell(value) -> str:
    """A CSV or table cell: empty for None, anything else as its JSON text."""
    return "" if value is None else dumps(value)


def render_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def render_table(title: str, header: list[str], rows: list[list]) -> str:
    cells = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"
