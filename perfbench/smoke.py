"""Smoke test of the benchmark harness: every workload at a tiny size.

Runs each workload untraced and traced on tiny pools for one second and
checks the output contract: the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, the metrics are
exactly the ones ``BENCHMARK.json`` lists for that mode, the outputs
are correct and nothing failed.  It also checks that the benchmark
refuses to run, without printing a result, in a directory holding only
``BENCHMARK.json`` and the benchmark's own files.

Run from the repository root:

    python3 perfbench/smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
WORKLOADS = ("pages-decode", "pages-correct", "train-corrector", "layout-dense")


def _run(cmd, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def check_workload(name: str, trace: int, expected: set[str]) -> list[str]:
    proc = _run(RUN + ["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                       "--size", "tiny"], ROOT)
    where = f"{name} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}\n{proc.stdout}")
    if set(result.get("metrics", {})) != expected:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(result.get('metrics', {})) ^ expected)}")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        proc = _run([sys.executable, f"{HERE.name}/run.py", "--workload", "pages-decode", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"benchmark ran without library sources: exit {proc.returncode}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = check_refuses_without_sources()
    for name in WORKLOADS:
        for trace in (0, 1):
            found = check_workload(name, trace, expected[trace])
            print(f"{name} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p)
    print("smoke test", "passed" if not problems else "FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
