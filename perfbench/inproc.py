"""Run a workload's op list in one process through ``nclandau.cli.main``.

    python perfbench/inproc.py --trace 1 < ops.json > result.json
    python perfbench/inproc.py --env

With ``--trace 1`` the cross-module wrappers of ``spans`` are installed
first and the spans come back with the result; with ``--trace 0`` the same
ops run bare, which gives the untraced in-process time that the tracing
overhead is measured against. Every op's output is checked as in the
spawned runs. ``--env`` prints the interpreter, numpy and BLAS details of
a process started with this environment. ``nclandau`` is found through
PYTHONPATH, as for the spawned CLI.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import platform
import sys
import time
import traceback

# Before numpy is loaded by the checker, so that a BLAS thread policy the
# package sets on import takes effect here as it does in the CLI.
import nclandau.cli

from checker import Checker
from workloads import Op

BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


def blas_info() -> dict:
    """numpy's BLAS, its version and the thread count it runs with."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_QUERIES:
            query = getattr(library, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                info["blas_threads"] = query()
                return info
    return info


def _invoke(main, argv: list[str]) -> tuple[int, str, str]:
    """Call ``main`` as the interpreter would: exit status, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            code = exc.code
            if code is None or isinstance(code, int):
                status = code or 0
            else:
                print(code, file=sys.stderr)
                status = 1
        except Exception:
            traceback.print_exc()
            status = 1
    return status, out.getvalue(), err.getvalue()


def run_ops(ops: list[Op], trace: bool) -> dict:
    main = nclandau.cli.main
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        main = tracer.wrap(main, "cli", "cli.main")
    checker = Checker()
    results = []
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op = op_id
        start, cpu_start = time.perf_counter(), time.process_time()
        status, stdout, stderr = _invoke(main, list(op.argv))
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        failure = checker(op, status, stdout.encode(), stderr)
        results.append({"wall_s": wall, "cpu_s": cpu, "status": status,
                        "failure": None if failure is None else [failure.reason, failure.silent]})
    payload = {"ops": results, "blas": blas_info()}
    if tracer is not None:
        payload["spans"] = tracer.spans
        payload["counters"] = tracer.counters
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--trace", type=int, choices=(0, 1))
    mode.add_argument("--env", action="store_true", help="print environment details and exit")
    args = parser.parse_args()
    if args.env:
        json.dump(blas_info(), sys.stdout)
        return 0
    ops = [Op(tuple(item["argv"]), item["expect"]) for item in json.load(sys.stdin)]
    json.dump(run_ops(ops, bool(args.trace)), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
