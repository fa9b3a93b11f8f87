"""The package's one-BLAS-thread policy and the premise it rests on.

``nclandau/__init__.py`` sets ``OPENBLAS_NUM_THREADS=1`` unless it is
already set, because no module calls BLAS. The first test fails when a
module starts to, so that the policy is revisited instead of a dense
product silently running on one thread; the others check the policy in
fresh interpreters. Further tests pin what ``import nclandau`` loads,
which the benchmark's start-up probe times, and which modules each CLI
command executes; check that the names in every module's ``__all__``
exist and are read by the package or imported by the acceptance gate, and
that every name a module imports is used; check that ``src/`` keeps to
its line ceiling, that only ``cli`` reads the size cap, that no command
reads the output format and only ``render`` builds a report's JSON, and
that ``serialize`` and the value types take only what reports hold; and check
that the benchmark's span tracer still installs on the package, which
breaks when a name it wraps is deleted, and that each name it binds
still exists.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nclandau"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
BLAS_NAMES = {"linalg", "dot", "vdot", "inner", "matmul", "tensordot", "einsum"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_references(source: str) -> list[int]:
    """Line numbers where ``source`` multiplies with ``@`` or reaches numpy's BLAS routines.

    A BLAS routine is reached through an attribute (``np.dot``, ``a.dot``,
    ``np.linalg.norm``) or imported from numpy by name. The package's own
    ``fock.matmul``, imported relatively and called bare, is not BLAS.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(getattr(node, "op", None), ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(BLAS_NAMES & set(alias.name.split(".")) for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            parts = node.module.split(".")
            imported = {alias.name for alias in node.names}
            if BLAS_NAMES & set(parts) or (parts[0] == "numpy" and BLAS_NAMES & imported):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source", [
    "c = a @ b",
    "a @= b",
    "c = np.dot(a, b)",
    "c = a.dot(b)",
    "n = np.linalg.norm(v)",
    "c = numpy.tensordot(a, b)",
    "from numpy import einsum",
    "from numpy.linalg import eigvalsh",
    "import numpy.linalg",
])
def test_blas_references_are_found(source):
    assert blas_references(source) == [1]


@pytest.mark.parametrize("source", [
    "from .fock import matmul\nc = matmul(a, b)",
    "inner = grid.interior",
    "def __matmul__(self, other):\n    return matmul(self, other)",
    "@dataclass\nclass A:\n    pass",
])
def test_own_names_are_not_blas(source):
    assert blas_references(source) == []


def test_no_module_calls_blas():
    found = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := blas_references(path.read_text()))}
    assert found == {}


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads, sorted.

    ``from __future__`` lines are compiler directives, not imports of a
    name, so they are left out.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("source, unused", [
    ("import math", ["math"]),
    ("import importlib.util\nimportlib.util.find_spec('x')", []),
    ("from .units import NATURAL, magnetic_length\nmagnetic_length(NATURAL)", []),
    ("from .units import NATURAL, magnetic_length\nNATURAL", ["magnetic_length"]),
    ("import numpy as np\nx: np.ndarray", []),
    ("from __future__ import annotations", []),
])
def test_unused_imports_are_found(source, unused):
    assert unused_imports(source) == unused


# The package root imports numpy and reads nothing of it: the benchmark's
# start-up probe times ``import nclandau`` and looks for numpy's line.
IMPORTED_FOR_THE_PROBE = {"__init__.py": ["numpy"]}


def test_every_import_is_used():
    found = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
             if (names := unused_imports(path.read_text())) != IMPORTED_FOR_THE_PROBE.get(path.name, [])}
    assert found == {}


def child_env(**threads: str) -> dict:
    """This process's environment without the thread variables, plus ``threads``.

    Built explicitly: once this process has imported nclandau, its own
    environment holds ``OPENBLAS_NUM_THREADS``.
    """
    env = {name: value for name, value in os.environ.items() if name not in THREAD_VARS}
    env.pop("NCG_DEFAULT_OUTPUT", None)
    env.update(threads)
    return env


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
@pytest.mark.parametrize("threads, expected", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_import_sets_one_thread_unless_set(threads, expected):
    probe = ("import json, os, nclandau; "
             "print(json.dumps([os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task'))]))")
    cp = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                        env=child_env(**threads), check=True)
    value, os_threads = json.loads(cp.stdout)
    assert value == expected
    if expected == "1":
        assert os_threads == 1


@pytest.mark.parametrize("argv", [
    ("commutator", "--N", "4", "--J", "4"),
    ("sweep", "--N", "4", "--J", "4"),
    ("spectrum", "--N", "4", "--J", "4"),
    ("dump-matrix", "--op", "x", "--N", "4", "--J", "4"),
])
def test_stdout_does_not_depend_on_the_thread_count(argv):
    runs = [subprocess.run([sys.executable, "-m", "nclandau", *argv], capture_output=True,
                           env=child_env(**threads))
            for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"})]
    assert [run.returncode for run in runs] == [0, 0, 0]
    assert runs[0].stdout and all(run.stdout == runs[0].stdout for run in runs)


def test_package_root_loads_numpy_and_no_submodule():
    probe = ("import json, sys, nclandau; "
             "print(json.dumps(['numpy' in sys.modules, sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'nclandau')]))")
    cp = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                        env=child_env(), check=True)
    numpy_loaded, loaded = json.loads(cp.stdout)
    assert numpy_loaded
    assert loaded == ["nclandau"]


# Which package modules a CLI command executed. ``type(module)``, unlike
# ``module.__class__``, does not load a lazy module.
LOAD_PROBE = """
import contextlib, io, json, sys, types
from nclandau import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
print(json.dumps([status, "dataclasses" in sys.modules, sorted(
    name.split(".")[1] for name, module in sys.modules.items()
    if name.startswith("nclandau.") and type(module) is types.ModuleType)]))
"""

# Every command executes these; the parser and the unit checks need them.
CORE = {"cli", "fock", "ladder", "serialize", "units"}


@pytest.mark.parametrize("argv, engine", [
    ("commutator", {"projection"}),
    ("sweep --N 2 --J 2", {"projection"}),
    ("spectrum", {"spectrum"}),
    ("landau-gauge --grid-M 16,32", {"landau_gauge"}),
    ("crosscheck", {"landau_gauge", "projection"}),
    ("dump-matrix --op x", set()),
    ("dump-matrix --op xy-commutator", set()),
    ("dump-matrix --op projector --keep 1", {"projection"}),
])
def test_each_command_executes_only_the_modules_it_runs(argv, engine):
    cp = subprocess.run([sys.executable, "-c", LOAD_PROBE, *argv.split()],
                        capture_output=True, text=True, env=child_env())
    assert cp.returncode == 0, cp.stderr
    status, dataclasses_loaded, executed = json.loads(cp.stdout)
    assert status == 0
    assert not dataclasses_loaded
    assert set(executed) == CORE | engine


SHARED_PROBE = """
import json
import nclandau.projection as first
from nclandau import cli
import nclandau.spectrum
print(json.dumps([cli.projection is first, cli.spectrum is nclandau.spectrum,
                  cli.spectrum.verify_spectrum.__module__]))
"""


def test_cli_shares_the_package_modules():
    # a module loaded before the CLI is reused, and a lazy one is the package's own
    cp = subprocess.run([sys.executable, "-c", SHARED_PROBE], capture_output=True, text=True,
                        env=child_env(), check=True)
    assert json.loads(cp.stdout) == [True, True, "nclandau.spectrum"]


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("__"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"nclandau.{name}")
    assert [item for item in module.__all__ if not hasattr(module, item)] == []


def defined_names(statement: ast.stmt) -> set[str]:
    """The names a top-level statement binds by ``def``, ``class`` or assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return {target.id for target in targets if isinstance(target, ast.Name)}


def unread_exports(sources: dict[str, str], kept: set[str]) -> list[str]:
    """``module.name`` for each name in a module's ``__all__`` that no module reads, sorted.

    ``sources`` maps module names to their text. A read is a bare name, or an
    attribute of one of those modules (``fock.Cutoffs``), loaded in any
    top-level statement but the one that defines the name. Names in ``kept``
    count as read.
    """
    statements, exports = [], []  # statements: (module, names defined, names loaded)
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            defines = defined_names(statement)
            if defines == {"__all__"}:
                exports += [(module, name) for name in ast.literal_eval(statement.value)]
            loads = {node.id for node in ast.walk(statement)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            loads |= {node.attr for node in ast.walk(statement) if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name) and node.value.id in sources}
            statements.append((module, defines, loads))
    return sorted(f"{module}.{name}" for module, name in exports if name not in kept and not any(
        name in loads and not (where == module and name in defines) for where, defines, loads in statements))


@pytest.mark.parametrize("sources, unread", [
    ({"m": "__all__ = ['f']\ndef f():\n    return f()"}, ["m.f"]),
    ({"m": "__all__ = ['f', 'g']\ndef f():\n    pass\ndef g():\n    return f()"}, ["m.g"]),
    ({"m": "__all__ = ['X']\nX = 1", "n": "from . import m\nm.X"}, []),
    ({"m": "__all__ = ['X']\nX = 1", "n": "from .m import X\nprint(X)"}, []),
    ({"m": "__all__ = ['X']\nX = 1", "n": "from .m import X"}, ["m.X"]),
    ({"m": "__all__ = ['X']\nX: int = 1", "n": "import numpy as np\nnp.X"}, ["m.X"]),
    ({"m": "__all__ = ['C']\nclass C:\n    def f(self) -> C:\n        return C()"}, ["m.C"]),
])
def test_unread_exports_are_found(sources, unread):
    assert unread_exports(sources, set()) == unread


def acceptance_imports() -> set[str]:
    tree = ast.parse((PACKAGE.parent.parent / "tests" / "test_acceptance.py").read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nclandau")
            for alias in node.names}


def test_every_export_is_read_or_gated():
    # The dead-code rule: a name the package exports is used by the package, or
    # by the acceptance gate; anything else belongs in the tests that use it.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_exports(sources, acceptance_imports()) == []


ENGINE = ("fock", "ladder", "projection", "landau_gauge", "spectrum")
# The engine returns pure numbers and cli scales them; units reach the engine only as a physical input of the
# spectrum, which the acceptance gate reads in them. Both commutator routes and the momentum grid are at ell = 1.
TAKES_UNITS = {"spectrum.verify_spectrum"}


def imports_from_units(source: str) -> bool:
    return any(isinstance(node, ast.ImportFrom) and (node.module == "units" or any(
        alias.name == "units" for alias in node.names)) for node in ast.walk(ast.parse(source)))


def test_units_reach_the_engine_only_as_physical_inputs():
    pure = ("projection", "ladder", "landau_gauge")
    assert [name for name in pure if imports_from_units((PACKAGE / f"{name}.py").read_text())] == []
    found = set()
    for name in ENGINE:
        module = importlib.import_module(f"nclandau.{name}")
        for attr, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = [(attr, value)] + [(f"{attr}.{key}", item) for key, item in vars(value).items()
                                         if isinstance(value, type)]
            for qualname, member in members:
                member = getattr(member, "__func__", member)  # a classmethod's function
                if inspect.isfunction(member) and "units" in inspect.signature(member).parameters:
                    found.add(f"{name}.{qualname}")
    assert found == TAKES_UNITS


@pytest.mark.parametrize("source, found", [
    ("from .units import NATURAL", True),
    ("from . import units", True),
    ("from .fock import Cutoffs\nunits = 1", False),
])
def test_imports_from_units_are_found(source, found):
    assert imports_from_units(source) is found


def imports_numpy(source: str) -> bool:
    return any(isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
               or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
               for node in ast.walk(ast.parse(source)))


def test_serialize_imports_no_numpy():
    # reports hold Python scalars, lists and dicts, so the renderer needs no numpy types
    assert not imports_numpy((PACKAGE / "serialize.py").read_text())


@pytest.mark.parametrize("source, found", [
    ("import numpy as np", True),
    ("from numpy.linalg import eigvalsh", True),
    ("import math\nfrom .fock import np", False),
])
def test_imports_numpy_is_found(source, found):
    assert imports_numpy(source) is found


def rejected_inputs():
    """Each call hands the package a value no report holds: a str, a tuple or a numpy scalar to ``dumps``, a numpy
    integer as a size to a value type. Each raises the error its type promises."""
    import numpy as np

    from nclandau.fock import Cutoffs, OperatorMatrix
    from nclandau.landau_gauge import KGrid
    from nclandau.serialize import dumps

    return [
        (lambda: dumps({"keep": "2"}), TypeError, "cannot serialize str"),
        (lambda: dumps([(1, 2)]), TypeError, "cannot serialize tuple"),
        (lambda: dumps([np.int64(-2)]), TypeError, "cannot serialize int64"),
        (lambda: Cutoffs(np.int64(2), 3), ValueError, "landau_cutoff must be a nonnegative integer"),
        (lambda: OperatorMatrix({}, np.int64(2)), ValueError, "dimension must be a positive integer"),
        (lambda: KGrid.centered(np.int64(16)), ValueError, "nonempty interior needs 5 grid points"),
    ]


@pytest.mark.parametrize("call, error, message", rejected_inputs(),
                         ids=["str", "tuple", "numpy-scalar", "Cutoffs", "OperatorMatrix", "KGrid"])
def test_takes_only_what_reports_hold(call, error, message):
    with pytest.raises(error, match=message):
        call()


def names_in(source: str) -> set[str]:
    """Every bare name and attribute name ``source`` reads or binds."""
    nodes = list(ast.walk(ast.parse(source)))
    return {node.id for node in nodes if isinstance(node, ast.Name)} | {
        node.attr for node in nodes if isinstance(node, ast.Attribute)}


def test_only_cli_reads_the_size_cap():
    # cli admits each command by one size table against the cap; no engine module holds or reads it
    readers = [path.stem for path in sorted(PACKAGE.glob("*.py")) if "MAX_DIMENSION" in names_in(path.read_text())]
    assert readers == ["cli"]


@pytest.mark.parametrize("source, found", [
    ("MAX_DIMENSION = 1", True),
    ("from . import fock\nfock.MAX_DIMENSION", True),
    ("'MAX_DIMENSION'", False),
])
def test_names_in_finds_bare_and_attribute_names(source, found):
    assert ("MAX_DIMENSION" in names_in(source)) is found


def payload_reads(source: str) -> list[tuple[str, bool]]:
    """Each read of a ``.payload`` attribute in ``source``: the top-level function that holds it (``""`` outside
    one), and whether the read is the callee of a call."""
    reads = []
    for top in ast.parse(source).body:
        called = {id(node.func) for node in ast.walk(top) if isinstance(node, ast.Call)}
        reads += [(getattr(top, "name", ""), id(node) in called) for node in ast.walk(top)
                  if isinstance(node, ast.Attribute) and node.attr == "payload" and isinstance(node.ctx, ast.Load)]
    return reads


def test_only_render_decides_what_gets_encoded():
    # no command reads the output format, and render alone calls a report's payload: JSON is built only when printed
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert len(commands) == 6
    assert [node.name for node in commands if "output" in names_in(ast.unparse(node))] == []
    reads = [(path.stem, *read) for path in sorted(PACKAGE.glob("*.py")) for read in payload_reads(path.read_text())]
    assert reads == [("cli", "render", True)]


@pytest.mark.parametrize("source, reads", [
    ("def render(report):\n    return dumps(report.payload())", [("render", True)]),
    ("def render(report):\n    return dumps(report.payload)", [("render", False)]),
    ("class R:\n    payload: dict\n\ndef f(r):\n    g = r.payload\n    return g()", [("f", False)]),
    ("print(report.payload())", [("", True)]),
    ("payload = {}\nreport.payload = payload", []),
])
def test_payload_reads_finds_every_read(source, reads):
    assert payload_reads(source) == reads


# The most lines src/nclandau/*.py may hold. The count should go down, not up:
# lower this when a change shrinks src/, and never raise it.
SRC_LINE_CEILING = 1564


def test_src_keeps_to_its_line_ceiling():
    lines = sum(len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py"))
    assert lines <= SRC_LINE_CEILING, f"src/nclandau holds {lines} lines, over its ceiling of {SRC_LINE_CEILING}"


SPAN_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import spans
import nclandau.cli
tracer = spans.Tracer()
spans.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    status = nclandau.cli.main(["commutator", "--N", "2", "--J", "2", "--output", "json"])
print(json.dumps([status, sorted({span[spans.LAYER] for span in tracer.spans})]))
"""


def test_benchmark_spans_install():
    cp = subprocess.run([sys.executable, "-c", SPAN_PROBE, str(PERFBENCH)],
                        capture_output=True, text=True, env=child_env())
    assert cp.returncode == 0, cp.stderr
    status, layers = json.loads(cp.stdout)
    assert status == 0
    assert {"fock", "ladder", "projection"} <= set(layers)


# The src/ names perfbench/spans.py depends on. A rename fails here, named,
# rather than deep inside the benchmark's trace test.
SPAN_PARAMETERS = {"convergence_study": ("keep", "sizes"), "projected_commutator_landau": ("grid", "levels")}
SPAN_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__")


def span_layers():
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


@pytest.mark.parametrize("function", sorted(SPAN_PARAMETERS))
def test_span_tracer_binds_these_parameter_names(function):
    params = inspect.signature(getattr(importlib.import_module("nclandau.landau_gauge"), function)).parameters
    missing = [name for name in SPAN_PARAMETERS[function] if name not in params]
    assert missing == [], f"perfbench/spans.py binds landau_gauge.{function} by parameter names {missing}"


def test_span_tracer_wraps_operator_dunders_and_reads_dim():
    from nclandau.fock import OperatorMatrix

    missing = [name for name in SPAN_DUNDERS if name not in vars(OperatorMatrix)]
    assert missing == [], f"perfbench/spans.py wraps OperatorMatrix.{missing}"
    assert "dim" in OperatorMatrix.__slots__, "perfbench/spans.py reads OperatorMatrix.dim after __init__"
    assert OperatorMatrix({}, 3).dim == 3


@pytest.mark.parametrize("layer", span_layers())
def test_span_tracer_layers_are_modules(layer):
    assert importlib.util.find_spec(f"nclandau.{layer}") is not None, f"perfbench/spans.py imports nclandau.{layer}"
    importlib.import_module(f"nclandau.{layer}")
