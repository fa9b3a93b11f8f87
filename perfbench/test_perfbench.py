"""Tests of the benchmark's own logic: spans, tail rule, checker, generator."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads
from checker import Checker, check
from run import tail_percentile
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent


def span(sid, parent, layer, start, end, error=False):
    return [sid, parent, 0, layer, f"{layer}.f", start, end, error]


def test_self_time_subtracts_nested_children():
    trace = [
        span(0, None, "cli", 0.0, 10.0),
        span(1, 0, "projection", 1.0, 6.0),
        span(2, 1, "fock", 2.0, 3.0),
        span(3, 1, "projection", 4.0, 5.0),  # same module, nested
        span(4, 0, "serialize", 7.0, 8.0, error=True),
    ]
    assert spans.self_times(trace) == pytest.approx([4.0, 3.0, 1.0, 1.0, 1.0])
    totals = spans.layer_totals(trace)
    assert totals["projection"] == {"self_s": pytest.approx(4.0), "calls": 2, "errors": 0}
    assert totals["fock"]["self_s"] == pytest.approx(1.0)
    assert totals["cli"]["self_s"] == pytest.approx(4.0)
    assert totals["serialize"]["errors"] == 1
    assert totals["spectrum"] == {"self_s": 0.0, "calls": 0, "errors": 0}
    # self times partition the root span
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    trace = [span(0, None, "cli", 0.0, 10.0), span(1, 0, "fock", 1.0, 4.0), span(2, 0, "fock", 3.0, 12.0)]
    assert spans.self_times(trace)[0] == pytest.approx(1.0)


def test_tracer_records_nesting_and_errors():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner(fail):
        if fail:
            raise ValueError("boom")
        return 1

    traced_inner = tracer.wrap(inner, "fock", "fock.inner")
    same_layer = tracer.wrap(lambda: traced_inner(False), "fock", "fock.outer")
    outer = tracer.wrap(lambda: same_layer() + traced_inner(False), "projection", "projection.outer")
    tracer.op = 7
    assert outer() == 2
    with pytest.raises(ValueError):
        traced_inner(True)
    parents = [s[spans.PARENT] for s in tracer.spans]
    assert parents == [None, 0, 1, 0, None]
    assert {s[spans.OP] for s in tracer.spans} == {7}
    totals = spans.layer_totals(tracer.spans)
    assert totals["fock"]["calls"] == 4 and totals["fock"]["errors"] == 1
    assert totals["projection"]["calls"] == 1


@pytest.mark.parametrize("pass_size, passes, percentile, beyond", [
    (20, 1, 50.0, 10), (40, 1, 75.0, 10), (100, 1, 90.0, 10), (1000, 1, 99.0, 10), (10000, 1, 99.9, 10),
    (12, 1, 50.0, 6), (17, 3, 50.0, 24), (44, 1, 75.0, 11), (44, 4, 75.0, 44)])
def test_tail_percentile_rule(pass_size, passes, percentile, beyond):
    samples = [float(i) for _ in range(passes) for i in range(pass_size, 0, -1)]
    p, value, count = tail_percentile(samples, pass_size)
    assert (p, count) == (percentile, beyond)
    assert sum(s > value for s in samples) == count


COMMUTATOR = Op(("commutator", "--N", "1", "--J", "3", "--keep", "1", "--B", "2", "--output", "json"))
COMMUTATOR_OUT = (b'{"N": 1, "J": 3, "keep": 1, "top_coefficient": [0, -1], "max_offtop_residual": 0, '
                  b'"boundary_artifacts": [], "ok": true}\n')


def test_checker_accepts_a_right_answer():
    assert check(COMMUTATOR, 0, COMMUTATOR_OUT, "") is None


def test_checker_rejects_a_sign_flipped_coefficient():
    failure = check(COMMUTATOR, 0, COMMUTATOR_OUT.replace(b"[0, -1]", b"[0, 1]"), "")
    assert failure is not None and failure.silent


def test_checker_rejects_a_traceback_with_exit_1():
    stderr = 'Traceback (most recent call last):\n  File "x"\nValueError: composite dimension\n'
    failure = check(Op(("commutator", "--N", "200", "--J", "200"), workloads.USAGE), 1, b"", stderr)
    assert failure is not None and not failure.silent


def test_checker_rejects_a_wrong_exit_code():
    failure = check(COMMUTATOR, 1, COMMUTATOR_OUT, "")
    assert failure is not None and "exit 1" in failure.reason


def test_checker_rejects_a_byte_mismatch():
    checker = Checker()
    assert checker(COMMUTATOR, 0, COMMUTATOR_OUT, "") is None
    failure = checker(COMMUTATOR, 0, COMMUTATOR_OUT.replace(b'"max_offtop_residual": 0', b'"max_offtop_residual": 0.0'), "")
    assert failure is not None and failure.silent and "bytes" in failure.reason


def test_checker_on_real_outputs_finds_only_the_known_contract_breaks():
    ops = workloads.generate("small-cli", 3)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("NCG_DEFAULT_OUTPUT", None)
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "inproc.py"), "--trace", "1"],
                          input=json.dumps([{"argv": op.argv, "expect": op.expect} for op in ops]),
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    result = json.loads(proc.stdout)
    failed = {op.argv for op, r in zip(ops, result["ops"]) if r["failure"] is not None}
    assert failed == set(workloads.KNOWN_CONTRACT_BREAKS)
    assert {s[spans.LAYER] for s in result["spans"]} == set(spans.LAYERS)
    assert result["counters"]["fock.matrices"] > 0 and result["counters"]["landau_gauge.grid_rows"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert workloads.generate(name, 11) == workloads.generate(name, 11)
    assert workloads.generate(name, 11) != workloads.generate(name, 12)
    subcommands = {op.subcommand for op in workloads.generate(name, 11)}
    assert subcommands == {"commutator", "sweep", "spectrum", "landau-gauge", "crosscheck", "dump-matrix"}


@pytest.mark.parametrize("name", ["dense-ladder", "momentum-grid"])
def test_problem_sizes_do_not_depend_on_the_seed(name):
    def sizes(seed):
        # the grid route's cost grows with keep, so keep is part of its size
        keys = ("N", "J", "grid-M", "keep")
        return sorted(
            (op.subcommand, [op.argv[op.argv.index(f"--{k}") + 1] for k in keys if f"--{k}" in op.argv
                             and (k != "keep" or "--grid-M" in op.argv)])
            for op in workloads.generate(name, seed)
        )

    assert sizes(1) == sizes(2) == sizes(99)
