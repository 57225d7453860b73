#!/usr/bin/env python3
"""Short-horizon smoke of every workload, untraced and traced.

Checks that each run prints every metric BENCHMARK.json names with its
unit, that the correctness gate ran with the oracles the workload needs,
and, for traced runs, that each of the workload's benchmark checks ran and
read ok: non-perturbation everywhere, the verifier-off pass on the churn
workloads and the DES twin on parallel_32. Those checks compare
deterministic simulations, so a FAILED one is a defect of the benchmark and
fails the smoke. A gate that ran and found violations is reported but does
not fail the smoke: the smoke checks the benchmark, not the program. Besides
the workloads BENCHMARK.json lists, it runs churn_16, which shows a known
defect of the program (see README.md) and is reported the same way.

    python3 perfbench/smoke.py        # from the repository root, ~1 min
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# churn_markall_16 simulates 4 s untraced and 1.33 s per traced-run pass:
# one crash episode each.
SECONDS = "1"

# Workloads the smoke runs besides those BENCHMARK.json lists.
EXTRA = ["churn_16"]

# Oracles the gate must run; the churn workloads record history and run the
# online verifier, so they add the history oracles and the verifier verdict.
BASE_GATE = ["convergence", "ns-agreement", "accounting"]
HISTORY_GATE = ["lost-write", "one-sr", "online-verifier"]

# The benchmark's own checks a traced run must print, by workload.
CHECKS = {
    "steady_128": ["non-perturbation"],
    "churn_markall_16": ["non-perturbation", "verifier-off"],
    "churn_16": ["non-perturbation", "verifier-off"],
    "parallel_32": ["non-perturbation", "final state identical to the DES twin"],
}


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout.rstrip("\n").split("\n")


def check(spec, workload, trace):
    problems = []
    rc, lines = run(workload, trace)
    if rc != 0:
        return [f"exit code {rc}"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("attempted", 0) < 1:
        problems.append("attempted < 1")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append("result metrics differ from BENCHMARK.json")
    printed = {}
    for line in lines:
        m = re.match(r"metric (\S+)\s+(\S+) (\S+)", line)
        if m:
            printed[m.group(1)] = m.group(3)
    for m in wanted:
        if printed.get(m["name"]) != m["unit"]:
            problems.append(f"{m['name']} not printed with unit {m['unit']}")
    gates = [line for line in lines if line.startswith("gate untraced: ran ")]
    need = BASE_GATE + (HISTORY_GATE if workload.startswith("churn") else [])
    ran = gates[0].split(" ran ")[1].split(";")[0].split(",") if gates else []
    for oracle in need:
        if oracle not in ran:
            problems.append(f"gate did not run {oracle}")
    checks = [line for line in lines if line.startswith("check ")]
    for line in checks:
        if not line.endswith(": ok"):
            problems.append(f"benchmark check failed: {line}")
    for name in CHECKS.get(workload, ["non-perturbation"]) if trace else []:
        if not any(line.startswith(f"check {name}") for line in checks):
            problems.append(f"check {name} missing")
    verdict = "correct" if result["correct"] else "gate found violations"
    print(f"{workload} trace={trace}: {verdict}, "
          f"{len(result['metrics'])} metrics")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for name in [w["name"] for w in spec["workloads"]] + EXTRA:
        for trace in (0, 1):
            for p in check(spec, name, trace):
                print(f"FAIL {name} trace={trace}: {p}")
                failures += 1
    print("smoke: ok" if failures == 0 else f"smoke: {failures} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
