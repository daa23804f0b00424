"""Smoke self-test of the benchmark: every workload at tiny size, both modes.

Run from anywhere: ``python3 perfbench/smoke.py``. It checks that each run
exits 0 with a correct result whose last line has exactly the JSON shape and
the metric names and units of ``BENCHMARK.json``, and that the benchmark
refuses to produce a result in a directory without the simulator's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import WORK, WORKLOADS  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise SystemExit(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{where}: not a clean run: {result}\n{proc.stderr}")
    wanted = [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if got != wanted:
        raise SystemExit(f"{where}: metrics {got} differ from BENCHMARK.json {wanted}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if set(metric) != {"value", "unit"} or isinstance(value, bool) \
                or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise SystemExit(f"{where}: bad metric {name}: {metric}")
        if not trace and value <= 0:
            raise SystemExit(f"{where}: end-to-end metric {name} is {value}")
    print(f"ok {where}: {result['attempted']} calls")


def check_refuses_without_sources() -> None:
    """Only BENCHMARK.json and the benchmark itself: no result, non-zero exit."""
    bare = WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, "--workload", next(iter(WORKLOADS)), "--seed", "1",
                     "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            raise SystemExit(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory refused")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        raise SystemExit(f"BENCHMARK.json workloads {names} differ from run.py {list(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    for workload in names:
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_refuses_without_sources()
    print("smoke ok")


if __name__ == "__main__":
    main()
