#!/usr/bin/env python3
"""End-to-end benchmark of the zero-downtime-release testbed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds perfbench/ (which compiles the
program from src/) into .bench_build/, runs one workload in a fresh
process, writes the full result with its provenance to
.bench_results/<workload>_seed<n>_trace<t>.json, and prints the report
followed by one JSON line: {"correct", "attempted", "failed", "metrics"}
with the metrics BENCHMARK.json lists for the mode (end_to_end when
--trace 0, per_layer when --trace 1).

Exits non-zero, without a result line, when the build or the run fails,
and with the result line but a non-zero code when a check fails.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RESULTS = ROOT / ".bench_results"
RUN_TIMEOUT_S = 170
# Workloads that run but are not in BENCHMARK.json: rolling_release fails
# a varying number of requests while an origin hands over (NOTES.md).
UNGATED = {"rolling_release"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("perfbench: no program sources (src/) next to perfbench/; nothing to build")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / target


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only this checkout's own history, not an enclosing repository's.
        if out.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return "unknown (not a git checkout)"


def selftest():
    try:
        exe = build("perfbench_selftest")
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: self-test build failed (is GTest installed?): {e}")
        return 2
    if exe is None:
        return 2
    return subprocess.run([str(exe)], timeout=600).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]} | UNGATED:
        log(f"perfbench: unknown workload {args.workload!r}")
        return 2

    started = time.monotonic()
    try:
        exe = build("zdr_perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    if exe is None:
        return 2

    RESULTS.mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(RESULTS)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        full = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: the run printed no result (exit {proc.returncode})")
        sys.stderr.write(proc.stdout)
        return 3

    metrics = {}
    missing = []
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(full["correct"]) and not missing and proc.returncode == 0
    result = {"correct": correct, "attempted": int(full["attempted"]),
              "failed": int(full["failed"]), "metrics": metrics}

    full["provenance"].update({
        "git_sha": git_sha(),
        "kernel": platform.release(),
        "nproc": str(os.cpu_count()),
        "command": " ".join(sys.argv),
        "wall_s": f"{time.monotonic() - started:.3f}",
    })
    full["result"] = result
    out = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=1) + "\n")

    for line in lines[:-1]:
        print(line)
    for name in missing:
        print(f"note: check failed: metric {name} missing or in the wrong unit")
    print(f"note: full result in {out.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
