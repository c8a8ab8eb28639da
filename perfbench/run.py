#!/usr/bin/env python3
"""Run one benchmark workload: build, generate seeded inputs, measure.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The script builds perfbench/ (which pulls
the library in from the parent directory) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, generates the workload's inputs (kept
until the binary changes), runs the workload, and
passes its output through. The last line of standard output is the
result: one JSON object with the keys correct, attempted, failed and
metrics. The exit code is non-zero when the build, the inputs or any
correctness check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; kills the whole group on timeout
    and always waits for it. Returns (exit code, captured stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                            stderr=sys.stderr, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {timeout}s: {' '.join(map(str, cmd))}")
        return 1, ""
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out or ""


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds the benchmark binary; returns its path or None.
    When the binary changed, cached inputs and digests are dropped: they
    belong to the code that made them."""
    out = build_dir()
    cmake_dir = out / "cmake"
    binary = cmake_dir / "af_perfbench"
    before = binary.stat().st_mtime_ns if binary.exists() else None
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", str(PACKAGE), "-B", str(cmake_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(cmake_dir), "--target", "af_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        code, _ = run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            log(f"build step failed ({code}): {' '.join(cmd)}")
            return None
    if not binary.exists():
        log("build produced no af_perfbench binary")
        return None
    if binary.stat().st_mtime_ns != before:
        for stale in ("inputs", "digests"):
            shutil.rmtree(out / stale, ignore_errors=True)
    return binary


def ensure_inputs(binary, workload, seed):
    """The workload's input directory: its dataset, generated once per
    binary, and the pair list of this seed (the binary skips what
    exists)."""
    inputs = build_dir() / "inputs" / workload
    inputs.mkdir(parents=True, exist_ok=True)
    code, _ = run_checked([str(binary), "gen", "--workload", workload,
                           "--seed", str(seed), "--dir", str(inputs)],
                          RUN_TIMEOUT_S, stdout=sys.stderr)
    return inputs if code == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and check the benchmark's own helpers")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds):
        parser.error("--workload, --seed and --seconds are required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return run_checked([str(binary), "self-test"], RUN_TIMEOUT_S)[0]

    inputs = ensure_inputs(binary, args.workload, args.seed)
    if inputs is None:
        log("input generation failed")
        return 1
    tag = f"{args.workload}-{args.seed}"
    for sub in ("digests", "traces", "results"):
        (build_dir() / sub).mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", str(inputs),
           "--digest", str(build_dir() / "digests" / f"{tag}.txt")]
    if args.trace:
        cmd += ["--spans", str(build_dir() / "traces" / f"{tag}.jsonl")]
    code, out = run_checked(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    (build_dir() / "results" / f"{tag}-trace{args.trace}.txt").write_text(out)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"the workload printed no result line (exit {code})")
        return code or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
