"""The package's one-BLAS-thread policy and the premise it rests on.

``nclandau/__init__.py`` sets ``OPENBLAS_NUM_THREADS=1`` unless it is
already set, because no module calls BLAS. The first test fails when a
module starts to, so that the policy is revisited instead of a dense
product silently running on one thread; the others check the policy in
fresh interpreters. Further tests pin what ``import nclandau`` loads,
which the benchmark's start-up probe times, and which modules each CLI
command executes; check that the names in every module's ``__all__``
exist; and check that the benchmark's span tracer still installs on the
package, which breaks when a name it wraps is deleted.
"""

import ast
import importlib
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
