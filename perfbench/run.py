#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark program (the ddbs library from src/ plus the files in
this directory) with CMake, runs one workload, and prints the program's
report followed by one JSON line with the metrics BENCHMARK.json names:
its end_to_end metrics with --trace 0, its per_layer metrics with --trace 1.

    python3 perfbench/run.py --workload steady_128 --seed 1 --seconds 30 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build), relative to the current directory.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT / 'src'} is missing: run from a full source checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    build_dir /= "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "ddbs_perfbench"],
    ):
        # Build chatter goes to stderr: stdout's last line is the result.
        rc = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if rc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "ddbs_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"ddbs_perfbench exited with code {proc.returncode}")
    print("\n".join(lines[:-1]))

    full = json.loads(lines[-1])
    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} [{m['unit']}] missing from the "
                 f"ddbs_perfbench output (got {got})")
        metrics[m["name"]] = got
    print(json.dumps({"correct": full["correct"],
                      "attempted": full["attempted"],
                      "failed": full["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
