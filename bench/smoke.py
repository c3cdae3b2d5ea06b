#!/usr/bin/env python3
"""Smoke test of the benchmark harness at a tiny run length.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json for half a second, untraced and traced,
and checks the result line: exactly the four keys and a correct run with no
failed job. It then runs
the benchmark in a directory holding only BENCHMARK.json and this directory,
where it must exit non-zero without printing a result. Takes about half a
minute.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(cwd, spec, workload, trace):
    argv = spec["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, spec, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            print(f"ok  {where}: {result['attempted']} jobs")

    bare = os.path.join(BENCH_DIR, f".smoke-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__", ".work-*", ".smoke-*"))
        proc = run(bare, spec, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("benchmark without the program sources did not fail cleanly")
        else:
            print(f"ok  without sources: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
