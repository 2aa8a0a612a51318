"""Smoke check of the benchmark itself, at tiny sizes (under a minute).

    python3 perfbench/smoke.py

Runs every workload with tiny inputs through run.py, untraced and traced,
and exits 1 unless:
- every end-to-end metric of each workload, and every metric BENCHMARK.json
  declares, is emitted with its unit;
- every recorded span lies inside its parent span, so no child's self time
  can exceed its parent's.
The tiny runs train too little to pass the scenario checks, so their
correctness verdict is printed but not asserted.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

from run import OUT, WORKLOADS, declared
from tracer import nesting_errors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

COMMON = ("run_s", "setup_s", "peak_rss_mb", "error_rate")
EXPECTED = {
    "compress": COMMON + ("train_samples_per_s", "eta_fraction_below"),
    "adaptive-vnf": COMMON + ("train_samples_per_s", "forecast_vs_persistence",
                              "cpu_vs_static_peak", "underprovisioned_frac"),
    "conflict-scale": COMMON + ("loop_ticks_per_s", "winner_setpoint_frac",
                                "reversals_after_decision"),
}


def bench(trace: int) -> tuple[dict, dict]:
    """Runs every workload once at tiny size; returns (detail lines by
    workload, the final result object)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return {d["workload"]: d for d in lines[:-1]}, lines[-1]


def unit_problems(metrics: dict, names, where: str) -> list[str]:
    problems = []
    for name in names:
        entry = metrics.get(name)
        if entry is None:
            problems.append(f"{where}: {name} missing")
        elif not entry.get("unit"):
            problems.append(f"{where}: {name} has no unit")
    return problems


def span_problems(path: Path) -> list[str]:
    """Nesting errors in one written span file."""
    with open(path, newline="", encoding="utf-8") as fh:
        spans = [[r["name"], int(r["start_ns"]), int(r["end_ns"]), int(r["parent_id"]),
                  r["replay"] == "1"] for r in csv.DictReader(fh)]
    return [f"{path.name}: {error}" for error in nesting_errors(spans)]


def main() -> int:
    names = declared()
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        details, result = bench(trace)
        print(f"trace={trace}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for workload in WORKLOADS:
            detail = details.get(workload)
            if detail is None:
                problems.append(f"trace={trace}: no detail line for {workload}")
                continue
            e2e = {n: {"value": v, "unit": u} for n, (v, u) in detail["end_to_end"].items()}
            problems += unit_problems(e2e, EXPECTED[workload], f"{workload} end-to-end")
            final = {n.split(".", 1)[1]: m for n, m in result["metrics"].items()
                     if n.startswith(workload + ".")}
            problems += unit_problems(final, names[key], f"{workload} {key} (trace={trace})")
        if trace:
            spans = sorted((OUT / "runs").glob("*/spans-*.csv"))
            if len(spans) < len(WORKLOADS):
                problems.append(f"expected a span file per workload, found {len(spans)}")
            for path in spans:
                problems += span_problems(path)
    for problem in problems:
        print("FAIL", problem)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
