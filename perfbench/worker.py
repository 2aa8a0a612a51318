"""One workload run in a fresh process; prints one JSON report on stdout.

    python3 perfbench/worker.py --workload <name> --seed <n> --out <dir>
        [--trace-file <csv>] [--tiny] [--setup-only] [--run-id <id>]

set-up time covers the loopsim import, the config load and, for
conflict-scale, building the topology and loop specs. The run time covers
the workload itself; the correctness inputs (checks, output digest) are
gathered after the clock stops. Untraced workers report both times at the
reference speed of probe.py (setup_s, run_s) and as wall time without the
probe's own time (setup_wall_s, run_wall_s). With --trace-file the public
functions of each layer are wrapped, and the spans are written there when
the run ends; traced workers report wall time only.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
from probe import Probe

ROOT = Path(__file__).resolve().parents[1]


def _blas_facts() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace-file", type=Path, default=None)
    parser.add_argument("--run-id", default="0")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    report: dict = {"errors": []}
    # Untraced workers sample the host's speed (probe.py) through set-up and
    # run; traced ones report wall time only.
    probe = None if args.trace_file is not None else Probe()
    try:
        shutil.rmtree(args.out, ignore_errors=True)
        args.out.mkdir(parents=True)
        if probe is not None:
            probe.start()
        t0 = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import workloads

        tracer = None
        if args.trace_file is not None:
            tracer = tracing.Tracer(args.run_id)
            tracer.install()
        run, finish = workloads.prepare(args.workload, args.seed, args.out, tiny=args.tiny,
                                        span=tracer.span if tracer else None)
        t1 = time.perf_counter()
        report["setup_wall_s"] = t1 - t0
        if probe is not None:
            report["setup_s"], report["setup_wall_s"], _ = probe.scaled()
            probe.mark()
        if not args.setup_only:
            raw = run()
            report["run_wall_s"] = time.perf_counter() - t1
            if probe is not None:
                report["run_s"], report["run_wall_s"], probe_s = probe.scaled()
                probe.stop()
                report["probe_us"] = probe_s * 1e6
            report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                tracer.uninstall()
            result = finish(raw)
            report.update(checks=result.checks, outcome=result.outcome, work=result.work,
                          digest=workloads.tree_digest(result.out_dir))
            if tracer is not None:
                tracer.write_csv(args.trace_file)
                report["layers"] = tracing.summarize(tracer)
                report["errors"].extend(tracing.nesting_errors(tracer.spans))
        report.update(_blas_facts())
    except Exception:  # reported to the launcher, which counts the run as failed
        report["errors"].append(traceback.format_exc())
    finally:
        if probe is not None:
            probe.stop()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
