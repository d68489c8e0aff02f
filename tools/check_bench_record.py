#!/usr/bin/env python3
"""Checks a perfbench run against the committed BENCH_perfbench.json.

The record's "deterministic" block holds, per workload, the fields of a
run that depend only on the code, never on the host: for design-drr the
peaks, evaluation and simulation counts, arena traffic, splits and
coalesces; for deploy-drr the single-thread caches-on peak and its ratio
to the designed bound.  A run must match every field its own workload's
block lists for its mode (traced or untraced) exactly, and report correct
with no failed operation.  Timing fields are not checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload design-drr --seed 1 --seconds 5 \\
        --trace 1 > run.json
    python3 tools/check_bench_record.py BENCH_perfbench.json run.json

Exit status 0 when every field matches, 1 on any mismatch, 2 on bad input
(unreadable files, fewer than two JSON lines, a workload the record holds
no block for, a mode its block does not list, or a run of another seed
than the block's).
"""

import json
import sys


def last_json_lines(path, count):
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    return [json.loads(line) for line in lines[-count:]]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_bench_record.py RECORD RUN", file=sys.stderr)
        return 2
    try:
        with open(argv[1], encoding="utf-8") as f:
            deterministic = json.load(f)["deterministic"]
        # perfbench prints the provenance block, then the result object.
        provenance, result = last_json_lines(argv[2], 2)
        provenance = provenance["provenance"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"check_bench_record: unreadable input: {e!r}", file=sys.stderr)
        return 2

    workload = provenance.get("workload")
    block = deterministic.get(workload)
    if not isinstance(block, dict):
        print(f"the record holds no block for workload {workload!r}",
              file=sys.stderr)
        return 2
    if provenance.get("seed") != block.get("seed"):
        print(f"run has seed {provenance.get('seed')!r}, the record's "
              f"{workload} block holds {block.get('seed')!r}",
              file=sys.stderr)
        return 2
    mode = "traced" if provenance.get("trace") else "untraced"
    expected = block.get(mode)
    if not isinstance(expected, dict):
        print(f"the record's {workload} block lists no {mode} fields",
              file=sys.stderr)
        return 2

    problems = []
    if not result.get("correct") or result.get("failed", 1) != 0:
        problems.append(f"run not clean: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    for name, want in sorted(expected.items()):
        got = metrics.get(name, {}).get("value")
        status = "ok" if got == want else "MISMATCH"
        print(f"  {name:32s} record {want!r:>10}  run {got!r:>10}  {status}")
        if got != want:
            problems.append(f"{name}: record {want!r}, run {got!r}")
    for p in problems:
        print(f"check_bench_record: {p}", file=sys.stderr)
    if not problems:
        print(f"check_bench_record: {len(expected)} {mode} {workload} "
              "fields match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
