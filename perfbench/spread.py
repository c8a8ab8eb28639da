#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread across seeds.

    python3 perfbench/spread.py --workloads cold_pairs,warm_sweep --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --against earlier.json

Runs perfbench/run.py once per (workload, seed) with the run_seconds of
BENCHMARK.json and tracing off, then prints for every end-to-end metric
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound. A spread is steady when it
stays below a third of the bound (setup_s is exempt: only its median is
compared between sets). With --against, each median is also compared
with the one in an earlier output file. The raw values are written as
JSON to --out (default: <build dir>/spread-<workloads>.json).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, wall, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", help="an earlier --out file")
    parser.add_argument("--out")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out = Path(args.out) if args.out else (
        build / f"spread-{'-'.join(workloads)}-trace{args.trace}.json")
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]

    raw = {}
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for seed in seeds:
            code, wall, result = run_once(workload, seed,
                                          spec["run_seconds"], args.trace)
            walls.append(wall)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {code}, result {result}")
                ok = False
                continue
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        raw[workload] = {"seeds": seeds, "wall_s": walls, "values": values}
        print(f"\n{workload}: {len(seeds)} runs, wall median "
              f"{statistics.median(walls):.1f}s max {max(walls):.1f}s")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            line = (f"  {m['name']:34s} median {med:14.6g} q1 {q1:12.6g} "
                    f"q3 {q3:12.6g} spread {spread:7.4f}")
            if "bound" in m:
                steady = m["name"] == "setup_s" or spread < m["bound"] / 3
                line += f" bound {m['bound']:.3f} {'ok' if steady else 'WIDE'}"
                ok = ok and (steady or args.trace)
                old = earlier.get(workload, {}).get("values", {}).get(m["name"])
                if old:
                    old_med = statistics.median(old)
                    worse = (med - old_med) / old_med
                    if m["better"] == "higher":
                        worse = -worse
                    line += f" vs earlier {worse:+.4f}"
                    if worse > m["bound"]:
                        line += " WORSE"
                        ok = False
            print(line)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print(f"\nraw values: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
