"""loopsim benchmark launcher.

    python3 perfbench/run.py --workload <compress|adaptive-vnf|conflict-scale|all>
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Each run of a workload happens in a fresh
worker process, one at a time, with BLAS threads capped at BLAS_THREADS.
The launcher first starts SETUP_RUNS set-up-only workers, then repeats the
workload as many times as are likely to end within --seconds (at least
once). Untraced workers report their times at the reference speed of
probe.py, which takes out the shared host's swings in speed.

--trace 0 reports the end-to-end metrics of untraced runs. --trace 1 runs
pairs of one untraced and one traced worker instead, and reports the
per-layer metrics of the traced ones (wall time) plus the tracing overhead.
Every run passes the correctness gate or counts as failed: the scenario
checks pass, no exception (capacity invariant included), conflict-scale's
unarbitrated pass thrashes, and the output-tree digest equals that of the
first run with the same seed and sources. The metric names and units come from BENCHMARK.json. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("compress", "adaptive-vnf", "conflict-scale")
# Training examples per second is the throughput of the two ML workloads,
# live loop ticks per second that of conflict-scale.
THROUGHPUT = {"compress": "train_samples_per_s", "adaptive-vnf": "train_samples_per_s",
              "conflict-scale": "loop_ticks_per_s"}
OUTCOME_UNITS = {
    "eta_fraction_below": "fraction", "forecast_vs_persistence": "ratio",
    "cpu_vs_static_peak": "ratio", "underprovisioned_frac": "fraction",
    "winner_setpoint_frac": "fraction", "reversals_after_decision": "count",
    "reversals_unarbitrated": "count", "arbitration_decisions": "count",
}
BLAS_THREADS = 1  # the matrices are small; one thread is steadier than two
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
BUDGET_S = 170.0  # each workload's runs end inside a 180 s limit


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "blas_thread_cap": BLAS_THREADS}


def source_hash() -> str:
    """Identifies the program under test and the workloads run on it: every
    source, config and benchmark file."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "configs").glob("*"),
                        *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Starts workers one at a time and keeps the per-run records."""

    def __init__(self, workload: str, seed: int, deadline: float, tiny: bool):
        self.workload, self.seed, self.deadline, self.tiny = workload, seed, deadline, tiny
        self.env = dict(os.environ, **{k: str(BLAS_THREADS) for k in BLAS_ENV})
        # Only the latest invocation's outputs and spans are kept.
        self.out = OUT / "runs" / workload
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.count = 0

    def worker(self, *extra: str) -> dict:
        self.count += 1
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(self.out / "out"),
               "--run-id", str(self.count), *extra]
        if self.tiny:
            cmd.append("--tiny")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return {"errors": ["time budget spent before the run started"]}
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  timeout=remaining, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return {"errors": [f"worker exceeded the {BUDGET_S:.0f} s budget"]}
        lines = proc.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return {"errors": [f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"]}

    def trace_file(self) -> str:
        return str(self.out / f"spans-{self.count + 1}.csv")


def gate(report: dict, reference: dict, key: str) -> list[str]:
    """Reasons this run counts as failed; empty when it passed."""
    reasons = list(report.get("errors", []))
    reasons += [f"check failed: {name}" for name, ok in report.get("checks", {}).items() if not ok]
    digest = report.get("digest")
    if digest is not None:
        expected = reference.setdefault(key, digest)
        if digest != expected:
            reasons.append(f"output digest {digest[:12]} != first run's {expected[:12]}")
    elif not reasons:
        reasons.append("no output digest")
    return reasons


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def bench_workload(workload: str, seed: int, seconds: float, trace: bool,
                   tiny: bool = False) -> dict:
    deadline = time.monotonic() + BUDGET_S
    runner = Runner(workload, seed, deadline, tiny)
    digests_path = OUT / "digests.json"
    reference = json.loads(digests_path.read_text()) if digests_path.exists() else {}
    key = f"{workload}|seed={seed}|tiny={int(tiny)}|blas={BLAS_THREADS}|src={source_hash()}"

    setup = []
    for _ in range(SETUP_RUNS):
        report = runner.worker("--setup-only")
        if "setup_s" in report:
            setup.append(report)

    plain, traced, failures = [], [], []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for with_trace in ((False, True) if trace else (False,)):
            extra = ("--trace-file", runner.trace_file()) if with_trace else ()
            report = runner.worker(*extra)
            reasons = gate(report, reference, key)
            if reasons:
                failures.append(reasons)
            if "setup_s" in report:
                setup.append(report)
            if "run_wall_s" in report:
                (traced if with_trace else plain).append(report)
        now = time.monotonic()
        # Start another round only if it is likely to end within --seconds.
        if now - start + (now - round_start) > seconds or now >= deadline:
            break

    OUT.mkdir(parents=True, exist_ok=True)
    digests_path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return {"workload": workload, "seed": seed, "setup": setup, "plain": plain,
            "traced": traced, "failures": failures, "attempted": runner.count - SETUP_RUNS}


def end_to_end(res: dict) -> dict:
    """Every end-to-end metric of the workload: name -> (value, unit)."""
    plain = res["plain"]
    run = quartiles([r["run_s"] for r in plain])
    out = {
        "run_s": (run["median"], "s"),
        "run_s.q1": (run["q1"], "s"),
        "run_s.q3": (run["q3"], "s"),
        "run_s.samples": (run["n"], "count"),
        "run_wall_s": (statistics.median(r["run_wall_s"] for r in plain), "s"),
        "probe_us": (statistics.median(r["probe_us"] for r in plain), "us"),
        "setup_s": (statistics.median(r["setup_s"] for r in res["setup"]), "s"),
        "setup_s.samples": (len(res["setup"]), "count"),
        "setup_wall_s": (statistics.median(r["setup_wall_s"] for r in res["setup"]), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MiB"),
        "error_rate": (len(res["failures"]) / res["attempted"], "fraction"),
        THROUGHPUT[res["workload"]]: (plain[0]["work"] / run["median"], "1/s"),
    }
    for name, value in plain[0]["outcome"].items():
        out[name] = (value, OUTCOME_UNITS.get(name, ""))
    return out


def per_layer(res: dict) -> dict:
    """Per-layer metrics: the median over traced runs of each value."""
    traced = res["traced"]
    names = traced[0]["layers"]
    out = {name: (statistics.median(r["layers"].get(name, 0.0) for r in traced), unit(name))
           for name in names}
    traced_s = statistics.median(r["run_wall_s"] for r in traced)
    untraced_s = statistics.median(r["run_wall_s"] for r in res["plain"])
    out["trace.traced_run_s"] = (traced_s, "s")
    out["trace.untraced_run_s"] = (untraced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    for layer in LAYERS:
        out[f"{layer}.share"] = (out[f"{layer}.self_s"][0] / traced_s, "fraction")
    return out


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": [m["name"] for m in spec["end_to_end"]],
            "per_layer": [m["name"] for m in spec["per_layer"]]}


def select(metrics: dict, names: list[str]) -> dict:
    out = {}
    for name in names:
        if name in metrics:
            value, name_unit = metrics[name]
        elif name.endswith(("p50_us", "p99_us")):
            value, name_unit = 0.0, "us"  # fewer than tracer.PERCENTILE_MIN_CALLS calls
        else:
            raise KeyError(f"declared metric {name!r} was not measured")
        out[name] = {"value": value, "unit": name_unit}
    return out


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, name_unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<58} {shown:>14} {name_unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="loopsim benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke check only")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills the running
    # worker and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in ("src/loopsim/__init__.py", "configs/compress.yaml", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: run from a loopsim checkout; missing {missing}", file=sys.stderr)
        return 2

    names = declared()["per_layer" if args.trace else "end_to_end"]
    facts = machine_facts()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    chosen, attempted, failed = {}, 0, 0
    for workload in workloads:
        res = bench_workload(workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny)
        attempted += res["attempted"]
        failed += len(res["failures"])
        if not res["plain"] or (args.trace and not res["traced"]):
            print(json.dumps({"workload": workload, "failures": res["failures"]}))
            print(f"perfbench: {workload}: no run completed", file=sys.stderr)
            return 1
        facts.update(numpy=res["plain"][0]["numpy"], blas=res["plain"][0]["blas"])
        e2e = end_to_end(res)
        layers = per_layer(res) if args.trace else {}
        print(json.dumps({"workload": workload, "seed": args.seed, "trace": args.trace,
                          "machine": facts, "source": source_hash(),
                          "failures": res["failures"],
                          "end_to_end": e2e, "per_layer": layers}))
        print_table(f"{workload} seed={args.seed}: end-to-end", e2e)
        if layers:
            print_table(f"{workload} seed={args.seed}: per-layer (traced)", layers)
        picked = select(layers if args.trace else e2e, names)
        if args.workload == "all":
            picked = {f"{workload}.{name}": m for name, m in picked.items()}
        chosen.update(picked)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
