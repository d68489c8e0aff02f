#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (about half a minute).

Run from the repository root:

    python3 perfbench/smoke_test.py

It checks that every workload prints every end-to-end metric named in
BENCHMARK.json with its unit, that every traced run prints every per-layer
metric with its unit, and that each seeded wrong output (--fault) makes the
command fail.  Exit code 0 when all of that holds.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = ["--seed", "1", "--seconds", "1", "--max-events", "4000"]
FAULTS = [
    ("artifact", "design-drr"),
    ("signature", "design-drr"),
    ("served", "serve-mix"),
    ("block", "deploy-drr"),
    ("parity", "deploy-drr"),
]


def run(workload, trace, extra=()):
    """Returns (exit code, result object or None, stderr) of one tiny run."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--trace", str(trace)] + TINY + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    plain = [(w["name"], trace, ()) for w in spec["workloads"]
             for trace in (0, 1)]
    faulty = [(workload, 0, ("--fault", fault)) for fault, workload in FAULTS]
    # The first run builds the binary; the rest share it, three at a time.
    first = run(*plain[0])
    with ThreadPoolExecutor(max_workers=3) as pool:
        rest = list(pool.map(lambda job: run(*job), plain[1:] + faulty))
    results = [first] + rest

    for (workload, trace, _), (rc, result, err) in zip(plain, results):
        tag = f"{workload} --trace {trace}"
        if rc != 0 or result is None or not result["correct"]:
            problems.append(f"{tag}: exit {rc}\n{err[-1500:]}")
            continue
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != wanted[trace]:
            missing = sorted(set(wanted[trace]) - set(got))
            extra = sorted(set(got) - set(wanted[trace]))
            wrong = sorted(k for k in got.keys() & wanted[trace].keys()
                           if got[k] != wanted[trace][k])
            problems.append(f"{tag}: missing {missing}, unexpected {extra}, "
                            f"wrong unit {wrong}")
        print(f"ok   {tag}: {len(got)} metrics, {result['attempted']} checks")

    for (workload, _, (_, fault)), (rc, result, _) in zip(
            faulty, results[len(plain):]):
        caught = rc != 0 and (result is None or not result["correct"])
        print(f"{'ok' if caught else 'FAIL'}   --fault {fault} on {workload}: "
              f"exit {rc}")
        if not caught:
            problems.append(f"--fault {fault} on {workload} was not caught")

    for p in problems:
        print("PROBLEM:", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
