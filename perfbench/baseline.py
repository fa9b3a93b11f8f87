"""Run the benchmark over many seeds and summarize each metric's spread.

    python3 perfbench/baseline.py --seeds 10 --write perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 10 --first-seed 101 --against perfbench/baseline.json

Run from the root of a checkout. For every workload in BENCHMARK.json it
runs the benchmark command once per seed with tracing off, and once with
tracing on for the first seed. For each end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread (Q3 - Q1) / median, flagging a spread above a third of the
metric's bound. ``--against`` also compares each median with a recorded
summary and flags one worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*config["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--write", type=Path, help="write the summary here")
    parser.add_argument("--against", type=Path, help="compare medians with this summary")
    args = parser.parse_args()

    config = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in config["end_to_end"]}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary = {"run_seconds": config["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        results = [run_once(config, workload, seed, 0) for seed in seeds]
        traced = run_once(config, workload, seeds[0], 1)
        record = Path(".perfbench_out") / f"{workload}-seed{seeds[0]}-trace0.json"
        entry = {
            "environment": json.loads(record.read_text())["environment"],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in [*results, traced]),
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in results]) for name in bounds},
            "per_layer": {name: metric["value"] for name, metric in traced["metrics"].items()},
        }
        summary["workloads"][workload] = entry
        print(f"{workload}: correct={entry['correct']} attempted={entry['attempted']} failed={entry['failed']}")
        for name, stats in entry["end_to_end"].items():
            bound = bounds[name]["bound"]
            flags = []
            if stats["spread"] > bound / 3:
                flags.append("SPREAD>bound/3")
            if name in earlier.get(workload, {}).get("end_to_end", {}):
                before = earlier[workload]["end_to_end"][name]["median"]
                change = stats["median"] / before - 1.0
                if bounds[name]["better"] == "higher":
                    change = -change
                flags.append(f"vs-recorded {change:+.3f}" + (" WORSE>bound" if change > bound else ""))
            print(f"  {name:16s} median {stats['median']:.6g} q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}"
                  f" spread {stats['spread']:.4f} (bound {bound}) {' '.join(flags)}")
        sys.stdout.flush()
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
