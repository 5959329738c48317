#!/usr/bin/env python3
"""Quick self-test of the benchmark harness (about a minute on two cores).

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json end to end with a tiny K in both
modes and checks the result line: exactly the four keys, every metric
BENCHMARK.json names for that mode with its unit, and no failed row. It
also checks that the harness refuses, with a nonzero exit and no result
line, to run in a directory that holds only the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

from run import OUT_ROOT, ROOT
from workloads import DEFAULT_SEED

QUICK_K = 5


def run_harness(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
         "--realizations", str(QUICK_K)],
        cwd=root, capture_output=True, text=True, timeout=300)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run_harness(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(f"{where}: missing {sorted(set(wanted) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(wanted))}")
    for name, unit in wanted.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: metric {name} is {got}, expected unit {unit}")
    return problems


def check_refuses_bare_directory(spec: dict) -> list[str]:
    bare = os.path.join(OUT_ROOT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copyfile(os.path.join(ROOT, "BENCHMARK.json"), os.path.join(bare, "BENCHMARK.json"))
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_harness(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["harness ran without the package sources"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_refuses_bare_directory(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_result(spec, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: {'FAIL' if found else 'ok'}", flush=True)
            problems.extend(found)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
