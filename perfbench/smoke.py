"""Smoke test of the benchmark itself.

Usage (from the root of a checkout): python3 perfbench/smoke.py

Runs every workload once at a tiny size, untraced and traced, and requires:

- every end-to-end metric of BENCHMARK.json to be present, finite and > 0;
- every per-layer metric of BENCHMARK.json to be present, and finite or
  marked missing;
- no operation to fail, and every exact work count of the traced run to
  repeat when the same seed runs again;
- a deliberately wrong operation output to be counted as failed;
- the benchmark to exit non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import program

SCALE = 0.01
SEED = 7


def require(condition, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: {message}")


def _check_metrics(result: dict, names: set[str], allow_missing: bool, where: str) -> None:
    metrics = result["metrics"]
    require(set(metrics) == names, f"{where}: metrics {sorted(set(metrics) ^ names)} differ")
    for name, metric in metrics.items():
        value = metric["value"]
        if allow_missing and value is None:
            require(metric.get("missing") is True, f"{where}: {name} is null but not missing")
            continue
        require(isinstance(value, (int, float)) and math.isfinite(value),
                f"{where}: {name} = {value!r}")
        require(allow_missing or value > 0, f"{where}: {name} = {value!r} is not > 0")


def _counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "B")}


def main() -> None:
    program.load()
    import run
    import spans
    import workloads

    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    require(per_layer == {name for name, _, _ in spans.metric_specs()},
            "per_layer of BENCHMARK.json differs from spans.metric_specs()")
    require([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
            "workloads of BENCHMARK.json differ from workloads.WORKLOADS")

    for name in workloads.WORKLOADS:
        info, result = run.run_workload(name, SEED, 0, False, SCALE, setup_reps=1)
        require(result["correct"] and result["failed"] == 0, f"{name}: {info['failures']}")
        _check_metrics(result, end_to_end, False, f"{name} untraced")
        counts = []
        for _ in range(2):
            info, result = run.run_workload(name, SEED, 0, True, SCALE)
            require(result["correct"], f"{name} traced: {info['failures']}")
            _check_metrics(result, per_layer, True, f"{name} traced")
            counts.append(_counts(result))
        changed = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        require(not changed, f"{name}: counts differ between runs of one seed: {changed}")
        print(f"smoke: {name} ok ({result['attempted']} ops traced)")

    info, result = run.run_workload("exact_tables", SEED, 0, False, SCALE, setup_reps=1,
                                    corrupt_first=True)
    require(result["failed"] >= 1 and not result["correct"]
            and info["failed_ops_frac"]["value"] > 0, "a wrong output was not counted")
    print(f"smoke: wrong output counted ({info['failures'][0]})")

    bare = run.WORK_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(program.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(program.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact_tables", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0 and '"correct"' not in proc.stdout,
            "the benchmark ran without the program's sources")
    print("smoke: refuses to run without the program's sources")
    print("smoke: ok")


if __name__ == "__main__":
    main()
