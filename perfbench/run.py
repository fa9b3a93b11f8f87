"""nclandau benchmark: per-subcommand CLI cost, plus a per-module trace.

    python3 perfbench/run.py --workload dense-ladder --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is taken from ``src/``.

``--trace 0`` runs the workload's op list as real CLI processes
(``python -m nclandau ...``) in a closed loop with one client, whole passes
of the list until the next pass would overrun ``--seconds``, and reports
the end-to-end metrics: each child's CPU time, which CPU steal by other
tenants of a shared machine barely moves, and the median ``commutator``
wall time with the steal seen during each child taken out; the other
wall-clock figures are kept as a field (see README.md). ``--trace 1``
runs the same list in one process through ``nclandau.cli.main`` three
times (traced, untraced, traced on one BLAS thread) and reports the
per-module metrics. Every output is checked
(see ``checker``). The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment and the spans, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import spans
import workloads
from checker import Checker

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_PROBES = 6  # before the first pass and again after the last
IMPORT_PROBES = 3
OP_TIMEOUT_S = 120.0
STOP_AFTER_S = 140.0  # start no new op after this; a run must end within 180 s
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
SUBCOMMAND_METRICS = {name: name.replace("-", "_") + "_s" for name in
                      ("commutator", "sweep", "spectrum", "landau-gauge", "crosscheck", "dump-matrix")}
T1_LAYERS = ("fock", "projection", "spectrum", "landau_gauge")
UNITS = {"_s": "s", "_mb": "MB", "calls": "count", "errors": "count", "matrices": "count",
         "matrix_bytes": "bytes", "grid_rows": "count"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def quantile(ordered: list[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile of sorted samples."""
    pos = p / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples: list[float], pass_size: int) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) over all samples. The percentile
    is the highest of ``PERCENTILES`` that leaves ``TAIL_MIN_BEYOND`` of one
    pass's ``pass_size`` ops beyond it, else the median: it depends on the op
    list alone, so a run that fits fewer passes reports the same percentile."""
    p = next((p for p in PERCENTILES if round(pass_size * (100.0 - p) / 100.0, 6) >= TAIL_MIN_BEYOND), 50.0)
    ordered = sorted(samples)
    value = quantile(ordered, p)
    return p, value, sum(s > value for s in ordered)


def child_env(src: Path) -> tuple[dict, dict]:
    """Environment of every child: ``src`` on the path, library-default BLAS
    threading and the CLI's default output format. Returns it and what was
    stripped from the inherited environment."""
    env = dict(os.environ)
    stripped = {name: env.pop(name) for name in (*THREAD_VARS, "NCG_DEFAULT_OUTPUT") if name in env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    return env, stripped


def stolen_s() -> float:
    """Seconds the hypervisor has stolen from this machine, per CPU: the
    steal column of /proc/stat summed over all CPUs, divided by their number."""
    with open("/proc/stat") as stat:
        steal_ticks = int(stat.readline().split()[8])
    return steal_ticks / os.sysconf("SC_CLK_TCK") / os.cpu_count()


class Child(NamedTuple):
    """One finished child. ``wall_s`` runs from spawn until the child has exited
    and its stdout is read; ``steal_s`` is the per-CPU steal over that
    interval; ``cpu_s`` is its user plus system time."""

    status: int
    stdout: bytes
    stderr: str
    wall_s: float
    steal_s: float
    cpu_s: float
    rss_mb: float


class Spawner:
    """Starts children in the checkout, times them, and reaps them with rusage."""

    def __init__(self, root: Path, env: dict, scratch: Path) -> None:
        self.root, self.env, self.scratch = root, env, scratch

    def run(self, argv: list[str]) -> Child:
        with tempfile.TemporaryFile(dir=self.scratch) as errfile:
            start, steal = time.perf_counter(), stolen_s()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=errfile, stdin=subprocess.DEVNULL,
                                    cwd=self.root, env=self.env)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                stdout = proc.stdout.read()
                proc.stdout.close()
                _, wait_status, usage = os.wait4(proc.pid, 0)
                wall, steal = time.perf_counter() - start, stolen_s() - steal
                proc.returncode = os.waitstatus_to_exitcode(wait_status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            errfile.seek(0)
            stderr = errfile.read().decode(errors="replace")
        return Child(proc.returncode, stdout, stderr, wall, steal, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0)


def setup_times(spawner: Spawner) -> list[dict]:
    """Per probe: CPU seconds of a child that starts the interpreter, imports
    nclandau and exits, and wall seconds from its spawn until the import is done."""
    code = "import time, nclandau; print(time.monotonic())"
    times = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        child = spawner.run([sys.executable, "-c", code])
        if child.status != 0:
            raise RuntimeError(f"import nclandau failed: {child.stderr}")
        times.append({"cpu_s": child.cpu_s, "wall_s": float(child.stdout) - spawned})
    return times


def import_times(spawner: Spawner) -> dict[str, float]:
    """Cumulative import seconds of numpy and nclandau from ``-X importtime``."""
    samples = {"numpy": [], "nclandau": []}
    for _ in range(IMPORT_PROBES):
        child = spawner.run([sys.executable, "-X", "importtime", "-c", "import nclandau"])
        for line in child.stderr.splitlines():
            fields = [f.strip() for f in line.partition(":")[2].split("|")]
            if len(fields) == 3 and fields[2] in samples:
                samples[fields[2]].append(int(fields[1]) / 1e6)
    return {name: statistics.median(values) for name, values in samples.items()}


def environment(root: Path, spawner: Spawner, stripped: dict, args) -> dict:
    child = spawner.run([sys.executable, str(HERE / "inproc.py"), "--env"])
    if child.status != 0:
        raise RuntimeError(f"environment probe failed: {child.stderr}")
    git_sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        **json.loads(child.stdout),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "stripped_env": stripped,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def _timings(records: list[dict], passes: list[dict], setup: list[dict], clock: str,
             pass_size: int) -> tuple[dict, dict]:
    """The timing metrics on one clock ("cpu_s" or "wall_s"), and how the tail was taken."""
    timings = {"setup_s": statistics.median(p[clock] for p in setup)}
    for subcommand, name in SUBCOMMAND_METRICS.items():
        timings[name] = statistics.median(r[clock] for r in records
                                          if r["op"].subcommand == subcommand and r["op"].expect != workloads.USAGE)
    if passes:
        timings["run_s"] = statistics.median(p[clock] for p in passes)
    else:  # no whole pass within STOP_AFTER_S: the part that ran, a lower bound
        timings["run_s"] = sum(r[clock] for r in records)
    percentile, value, beyond = tail_percentile([r[clock] for r in records], pass_size)
    timings["op_tail_s"] = value
    return timings, {"percentile": percentile, "samples": len(records), "beyond": beyond}


def timed_run(ops: list[workloads.Op], spawner: Spawner, seconds: float) -> dict:
    """Whole passes of the op list as CLI processes, until the next would overrun."""
    setup = setup_times(spawner)
    checker = Checker()
    records, passes = [], []
    begin = time.perf_counter()
    while True:
        pass_start, first = time.perf_counter(), len(records)
        for op in ops:
            if time.perf_counter() - begin > STOP_AFTER_S:
                break
            child = spawner.run([sys.executable, "-m", "nclandau", *op.argv])
            records.append({"op": op, "wall_s": child.wall_s, "steal_s": child.steal_s, "cpu_s": child.cpu_s,
                            "rss_mb": child.rss_mb,
                            "failure": checker(op, child.status, child.stdout, child.stderr)})
        else:
            passes.append({"wall_s": time.perf_counter() - pass_start,
                           "cpu_s": sum(r["cpu_s"] for r in records[first:])})
        elapsed = time.perf_counter() - begin
        mean_pass = statistics.mean(p["wall_s"] for p in passes) if passes else elapsed
        if elapsed + mean_pass > seconds or elapsed > STOP_AFTER_S:
            break
    setup += setup_times(spawner)

    metrics, tail = _timings(records, passes, setup, "cpu_s", len(ops))
    metrics["commutator_wall_s"] = statistics.median(r["wall_s"] - r["steal_s"] for r in records
                                                     if r["op"].subcommand == "commutator"
                                                     and r["op"].expect != workloads.USAGE)
    metrics["peak_rss_mb"] = max(r["rss_mb"] for r in records)
    wall, wall_tail = _timings(records, passes, setup, "wall_s", len(ops))
    failures = [(" ".join(r["op"].argv), r["failure"].reason, r["failure"].silent)
                for r in records if r["failure"] is not None]
    samples = {name: sum(r["op"].subcommand == sub and r["op"].expect != workloads.USAGE for r in records)
               for sub, name in SUBCOMMAND_METRICS.items()}
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failures": failures,
        "fields": {
            "passes": len(passes),
            "samples": samples,
            "op_tail": tail,
            "wall": wall,
            "wall_op_tail": wall_tail,
            "steal_share": sum(r["steal_s"] for r in records) / sum(r["wall_s"] for r in records),
            "fail_ratio": len(failures) / len(records),
            "setup_probes": len(setup),
        },
        "ops": [(" ".join(r["op"].argv), r["wall_s"], r["cpu_s"], r["rss_mb"], r["steal_s"]) for r in records],
    }


def _inproc(ops: list[workloads.Op], spawner: Spawner, trace: bool, env: dict) -> dict:
    payload = json.dumps([{"argv": op.argv, "expect": op.expect} for op in ops])
    proc = subprocess.run([sys.executable, str(HERE / "inproc.py"), "--trace", str(int(trace))],
                          input=payload, capture_output=True, text=True, cwd=spawner.root, env=env,
                          timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"in-process run failed: {proc.stderr}")
    return json.loads(proc.stdout)


def traced_run(ops: list[workloads.Op], spawner: Spawner) -> dict:
    """The op list in one process: traced, untraced, and traced on one BLAS thread."""
    imports = import_times(spawner)
    traced = _inproc(ops, spawner, True, spawner.env)
    bare = _inproc(ops, spawner, False, spawner.env)
    single = _inproc(ops, spawner, True, {**spawner.env, "OPENBLAS_NUM_THREADS": "1"})

    metrics = {}
    for layer, totals in spans.layer_totals(traced["spans"]).items():
        for key, value in totals.items():
            metrics[f"{layer}.{key}"] = value
    metrics.update(traced["counters"])
    metrics["import.numpy_s"] = imports["numpy"]
    metrics["import.nclandau_s"] = imports["nclandau"]
    single_totals = spans.layer_totals(single["spans"])
    for layer in T1_LAYERS:
        metrics[f"t1.{layer}.self_s"] = single_totals[layer]["self_s"]

    runs = {"traced": traced, "untraced": bare, "traced_1_thread": single}
    in_process = {name: {clock: sum(op[clock] for op in run["ops"]) for clock in ("cpu_s", "wall_s")}
                  for name, run in runs.items()}
    failures = [(" ".join(op.argv), *result["failure"]) for run in runs.values()
                for op, result in zip(ops, run["ops"]) if result["failure"] is not None]
    return {
        "metrics": metrics,
        "attempted": len(ops) * len(runs),
        "failures": failures,
        "fields": {
            "in_process_s": in_process,
            "tracing_overhead_cpu_s": in_process["traced"]["cpu_s"] - in_process["untraced"]["cpu_s"],
            "tracing_overhead_cpu_ratio": in_process["traced"]["cpu_s"] / in_process["untraced"]["cpu_s"] - 1.0,
            "spans": len(traced["spans"]),
            "blas_threads": {name: run["blas"]["blas_threads"] for name, run in runs.items()},
            "counters_repeat_on_1_thread": single["counters"] == traced["counters"],
        },
        "spans": traced["spans"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="nclandau benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "nclandau" / "__init__.py").is_file():
        print(f"perfbench: no nclandau package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env, stripped = child_env(src)
    spawner = Spawner(root, env, out_dir)
    ops = workloads.generate(args.workload, args.seed)

    record = {"environment": environment(root, spawner, stripped, args)}
    result = traced_run(ops, spawner) if args.trace else timed_run(ops, spawner, args.seconds)
    record.update(result)
    record["environment"]["samples"] = result["fields"].get("samples")
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    metrics = result["metrics"]
    for name, value in metrics.items():
        print(f"{name:28s} {value!r:>24} {unit_of(name)}")
    for name, value in result["fields"].items():
        print(f"{name:28s} {json.dumps(value)}")
    for argv_text, reason, silent in result["failures"]:
        print(f"FAILED {'(wrong answer) ' if silent else ''}{argv_text}: {reason}")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps({
        "correct": not any(silent for _, _, silent in result["failures"]),
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
