#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny data (TPC-H SF 0.01, 2k documents):

    python3 agorabench/selftest.py

Checks that
  * every workload, untraced and traced, prints a result line naming
    every metric of BENCHMARK.json with its unit;
  * tpch_olap and serve_mixed answer correctly with nothing failed;
  * a deliberately corrupted reference answer makes the answer check
    fire: the result says correct=false, counts failures, and the exit
    status is nonzero.

tpch_budget is run but its correctness is only reported: under a memory
budget the engine's floating-point aggregates differ in their last
digits from the unbudgeted reference (an open defect, see BENCHMARK.md).
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, trace, *extra):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in ("tpch_olap", "tpch_budget", "serve_mixed"):
        for trace in (0, 1):
            code, result, err = run(workload, trace)
            label = f"{workload} trace={trace}"
            if result is None:
                check(False, f"{label}: no result line (exit {code}): "
                             f"{err[-300:]}")
                continue
            want = spec["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in want
                       if result["metrics"].get(m["name"], {}).get("unit")
                       != m["unit"]]
            check(not missing, f"{label}: every metric with its unit "
                               f"(missing or wrong unit: {missing})")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result line has exactly the four result keys")
            check(result["attempted"] >= 1, f"{label}: attempted >= 1")
            if workload == "tpch_budget":
                print(f"info  {label}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
                continue
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  f"{label}: correct, nothing failed, exit 0")

    for workload in ("tpch_olap", "serve_mixed"):
        code, result, _ = run(workload, 0, "--corrupt-reference")
        check(result is not None and not result["correct"] and
              result["failed"] > 0 and code != 0,
              f"{workload}: corrupted reference is caught "
              f"(exit {code}, result {result and result['correct']})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
