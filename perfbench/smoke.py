"""Smoke test of the benchmark itself.

Runs every workload at the shortest length in both modes and checks that
each result carries exactly the metrics ``BENCHMARK.json`` declares, with
their units and finite values, and a host record; then perturbs one
reference prediction and checks that the correctness gate fails the
run.  Run from the repository root (takes a few minutes)::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("webar-frames", "browser-batch", "edge-fleet")
HOST_KEYS = {"cores", "blas", "plan_backend_available", "python", "numpy"}


def _run(*extra: str) -> tuple[int, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "0", "--seconds", "1", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("report "):
        raise AssertionError(f"{extra}: no report/result lines (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-2][len("report "):]), json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, report, result = _run("--workload", workload, "--trace", str(trace))
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {code}, result {result}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{label}: metrics {units} != declared {declared[trace]}")
            bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{label}: non-finite {bad}")
            if not HOST_KEYS <= set(report.get("host", {})):
                problems.append(f"{label}: host record {report.get('host')}")
            print(f"{label}: exit {code}, {len(units)} metrics", flush=True)

    code, _, result = _run("--workload", "webar-frames", "--perturb-reference")
    if code != 1 or result["correct"] or result["failed"] < 1:
        problems.append(f"perturbed reference not caught: exit {code}, {result}")
    print(f"gate self-test: exit {code}, failed {result['failed']}", flush=True)

    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
