"""Spans at the boundaries between nclandau's modules, recorded from outside.

``install`` replaces, inside each module of the package, every name that
refers to another package module, or to a function or class defined in
one, with a wrapper that records a span: layer (the callee's module),
name, start, end, parent span and op id. Calls a module makes to its own
functions are not boundaries and stay unwrapped. ``OperatorMatrix``'s
arithmetic, called by the operator constructors, is wrapped on the class, and
its ``__init__`` is wrapped to count matrices. Nothing under ``src/`` is
edited; the wrappers exist only in the process that installs them.

Spans are kept in memory and handed back whole when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
import types
from collections import defaultdict

__all__ = ["LAYERS", "COUNTERS", "Tracer", "install", "layer_totals"]

PACKAGE = "nclandau"
LAYERS = ("cli", "serialize", "units", "fock", "ladder", "projection", "landau_gauge", "spectrum")
COUNTERS = ("fock.matrices", "fock.matrix_bytes", "landau_gauge.grid_rows")

# Span fields, in the order they are stored.
ID, PARENT, OP, LAYER, NAME, START, END, ERROR = range(8)


class Tracer:
    """Holds the spans and counters of one process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = None
        self._open: list[list] = []
        self._clock = clock

    def wrap(self, fn, layer: str, name: str, count=None):
        """``fn`` with a span around every call; ``count(args, kwargs)`` runs
        after a call that returned."""

        def traced(*args, **kwargs):
            parent = self._open[-1][ID] if self._open else None
            span = [len(self.spans), parent, self.op, layer, name, self._clock(), None, False]
            self.spans.append(span)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = self._clock()
                self._open.pop()
            if count is not None:
                count(args, kwargs)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def boundary(self, value):
        """A traced stand-in for a package callable reached across modules."""
        module = getattr(value, "__module__", None) or ""
        if not module.startswith(PACKAGE + "."):
            return value
        layer = module.rsplit(".", 1)[1]
        if isinstance(value, type):
            return _ClassProxy(value, self, layer)
        if callable(value):
            name = f"{layer}.{value.__qualname__}"
            rows = _GRID_ROWS.get(name)
            return self.wrap(value, layer, name, _grid_rows_counter(value, rows, self) if rows else None)
        return value


class _ModuleProxy:
    """Stands in for ``module`` where another module refers to it by name."""

    def __init__(self, module: types.ModuleType, tracer: Tracer) -> None:
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name: str):
        value = self._tracer.boundary(getattr(self._module, name))
        setattr(self, name, value)
        return value


class _ClassProxy:
    """Stands in for a class: construction and attribute calls are traced."""

    def __init__(self, cls: type, tracer: Tracer, layer: str) -> None:
        self._cls = cls
        self._tracer = tracer
        self._new = tracer.wrap(cls, layer, f"{layer}.{cls.__qualname__}")

    def __call__(self, *args, **kwargs):
        return self._new(*args, **kwargs)

    def __getattr__(self, name: str):
        value = getattr(self._cls, name)
        return self._tracer.boundary(value) if callable(value) else value


# Work counted where the CLI hands it to the grid route: the rows of every
# (levels+1)*M operator the route is asked for, whatever builds it.
_GRID_ROWS = {
    "landau_gauge.convergence_study": lambda a: (a["keep"] + 1) * sum(a["sizes"]),
    "landau_gauge.projected_commutator_landau": lambda a: (a["levels"] + 1) * a["grid"].size,
}


def _grid_rows_counter(fn, rows, tracer: Tracer):
    signature = inspect.signature(fn)

    def count(args, kwargs):
        tracer.counters["landau_gauge.grid_rows"] += rows(signature.bind(*args, **kwargs).arguments)

    return count


def install(tracer: Tracer) -> None:
    """Wrap every cross-module reference inside the imported package."""
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    for module in modules.values():
        for name, value in list(vars(module).items()):
            if name.startswith("__"):
                continue
            if isinstance(value, types.ModuleType):
                if value.__name__.startswith(PACKAGE + ".") and value is not module:
                    setattr(module, name, _ModuleProxy(value, tracer))
            elif getattr(value, "__module__", module.__name__) != module.__name__:
                setattr(module, name, tracer.boundary(value))

    matrix = modules["fock"].OperatorMatrix
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__"):
        setattr(matrix, name, tracer.wrap(getattr(matrix, name), "fock", f"fock.OperatorMatrix.{name}"))
    init = matrix.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.counters["fock.matrices"] += 1
        tracer.counters["fock.matrix_bytes"] += 16 * self.dim * self.dim

    matrix.__init__ = counting_init


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - _covered(children[span[ID]], span[START], span[END])
        for span in spans
    ]


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """``self_s``, ``calls`` and ``errors`` per layer; every layer is present."""
    totals = {layer: {"self_s": 0.0, "calls": 0, "errors": 0} for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[LAYER]]
        entry["self_s"] += own
        entry["calls"] += 1
        entry["errors"] += int(span[ERROR])
    return totals
