#!/usr/bin/env python3
"""Self-test of the benchmark.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, runs the benchmark for one second
untraced and traced, and checks that the run is correct, ran a few
thousand ops and printed exactly the metrics BENCHMARK.json names for that
mode, each with its unit, none of the end-to-end ones 0. Then runs every
workload with a deliberately wrong expected value and checks that the
benchmark's checker fails it. Exits non-zero if any check failed.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_OPS = 2000


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for name in [w["name"] for w in bench["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            p, r = run(name, trace)
            want = {m["name"]: m["unit"] for m in bench[section]}
            what = f"{name} --trace {trace}"
            if p.returncode != 0 or r is None:
                failures.append(f"{what}: exit {p.returncode}\n{p.stderr[-2000:]}")
                continue
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            problems = []
            if set(r) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(r)}")
            if r["correct"] is not True or r["failed"] != 0:
                problems.append(f"correct={r['correct']} failed={r['failed']}")
            if r["attempted"] < MIN_OPS:
                problems.append(f"only {r['attempted']} ops")
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = [k for k in want if k in got and got[k] != want[k]]
            if missing or extra or units:
                problems.append(f"metrics differ: missing {missing}, extra {extra}, units {units}")
            bad = [k for k, v in r["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                problems.append(f"non-numeric values {bad}")
            if section == "end_to_end":
                zero = [k for k, v in r["metrics"].items() if v["value"] == 0]
                if zero:
                    problems.append(f"end-to-end metrics read 0: {zero}")
            print(f"{what}: {r['attempted']} ops, {len(got)} metrics"
                  + (f" -- {'; '.join(problems)}" if problems else " ok"), flush=True)
            failures += [f"{what}: {x}" for x in problems]
        p, r = run(name, 0, "--corrupt-expected")
        caught = p.returncode != 0 and r is not None and r["correct"] is False
        print(f"{name} with a wrong expected value: exit {p.returncode}, "
              + ("caught" if caught else "NOT caught"), flush=True)
        if not caught:
            failures.append(f"{name}: a wrong expected value was not caught")
    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
