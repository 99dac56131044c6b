#!/usr/bin/env python3
"""Self-test of the benchmark on its smoke configuration (about 30 s).

    python3 perfbench/selftest.py

For every workload, runs `run.py --smoke --seconds 1` with `--trace 0` and
with `--trace 1`, and checks the last output line against BENCHMARK.json:
exactly the keys correct/attempted/failed/metrics, exactly the metric
names of the mode with their units, and a correct run with no failures.
The traced run also carries run.py's own check that every expected span
was seen.  Finally, checks that run.py exits non-zero without a result
line in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(bench: dict, workload: str, trace: int) -> list:
    proc = run_bench(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if got != wanted:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(wanted))}")
    if not (result.get("correct") is True and result.get("failed") == 0
            and result.get("attempted", 0) >= 1):
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}"
                        f"\n{proc.stderr[-2000:]}")
    return problems


def check_bare_directory() -> list:
    """Without src/, the benchmark must fail and print no result."""
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(bare, "verify_sweep", 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            problems += check_result(bench, workload, trace)
    problems += check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
