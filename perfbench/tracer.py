"""Span tracing of loopsim's layers from outside the package.

`Tracer.install()` replaces each public function listed in TARGETS with a
wrapper that records one span per call: name, start, end, parent span and
run id. Each name is patched where its caller looks it up (`chain.embed` as
`control.embed`, the step functions in `steps` before an Orchestrator builds
its registry). Spans stay in memory; `write_csv` stores them once the run
has ended and `summarize` turns them into per-layer metrics.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import statistics
import time

# (module, attribute path, span name). The span name is "<layer>.<function>".
TARGETS = (
    ("engines", "mse_loss_and_grads", "engines.mse_loss_and_grads"),
    ("engines", "ae_train", "engines.ae_train"),
    ("engines", "ae_forward", "engines.ae_forward"),
    ("engines", "encode", "engines.encode"),
    ("engines", "save_model", "engines.save_model"),
    ("engines", "rnn_loss_and_grads", "engines.rnn_loss_and_grads"),
    ("engines", "rnn_train", "engines.rnn_train"),
    ("engines", "rnn_predict", "engines.rnn_predict"),
    ("metrics", "scrape", "metrics.scrape"),
    ("metrics", "scrape_series", "metrics.scrape_series"),
    ("metrics", "generate_workload", "metrics.generate_workload"),
    ("metrics", "export_csv", "metrics.export_csv"),
    ("sdi", "clone_state", "sdi.clone_state"),
    ("sdi", "set_knob", "sdi.set_knob"),
    ("sdi", "build_topology", "sdi.build_topology"),
    ("sdi", "path_metrics", "sdi.path_metrics"),
    ("control", "embed", "chain.embed"),
    ("control", "Orchestrator.run", "control.Orchestrator.run"),
    ("control", "Orchestrator.tick", "control.Orchestrator.tick"),
    ("control", "detect_conflicts", "control.detect_conflicts"),
    ("control", "arbitrate", "control.arbitrate"),
    ("control", "Orchestrator.sandbox_dryrun", "control.Orchestrator.sandbox_dryrun"),
    ("control", "Orchestrator.apply_proposal", "control.Orchestrator.apply_proposal"),
    ("control", "Orchestrator.assert_capacity_invariant",
     "control.Orchestrator.assert_capacity_invariant"),
    ("steps", "monitor_scrape_frame", "steps.monitor_scrape_frame"),
    ("steps", "monitor_traffic_window", "steps.monitor_traffic_window"),
    ("steps", "monitor_knob_value", "steps.monitor_knob_value"),
    ("steps", "analyze_encode_frame", "steps.analyze_encode_frame"),
    ("steps", "analyze_forecast_traffic", "steps.analyze_forecast_traffic"),
    ("steps", "plan_catalog_translate", "steps.plan_catalog_translate"),
    ("steps", "plan_knob_setpoint", "steps.plan_knob_setpoint"),
    ("steps", "knowledge_store", "steps.knowledge_store"),
    ("scenarios", "run_scenario", "scenarios.run_scenario"),
)

LAYERS = ("engines", "metrics", "sdi", "chain", "control", "steps", "scenarios")
SANDBOX = "control.Orchestrator.sandbox_dryrun"
TICK = "control.Orchestrator.tick"
# Ticks are reported apart by whether they ran live or inside a sandbox replay.
SPLIT_BY_REPLAY = (TICK,)
# Spans the benchmark itself opens around the phases of a run.
PHASES = ("instantiate", "unarbitrated_pass", "arbitrated_pass")
PERCENTILE_MIN_CALLS = 1000
TRAIN_SPANS = ("engines.ae_train", "engines.rnn_train")
LOSS_SPANS = ("engines.mse_loss_and_grads", "engines.rnn_loss_and_grads")
CONTROL_COUNTS = ("proposals", "conflicts", "applied", "rejected", "withheld", "sandbox_unstable")


def _sandbox_counts(args, result):
    unstable = result.verdict == "unstable"
    return (("sandbox_unstable", int(unstable)),
            ("withheld", len(list(args[1])) if unstable else 0))


# Counts taken from a wrapped call's arguments and result, at the boundary
# where the work happens. Calls made inside a sandbox replay count apart.
COUNTERS = {
    TICK: lambda args, result: (("proposals", len(result)),),
    "control.detect_conflicts": lambda args, result: (("conflicts", len(result.pairs)),),
    "control.arbitrate": lambda args, result: (("rejected", len(result.rejected)),),
    "control.Orchestrator.apply_proposal":
        lambda args, result: (("applied", int(result[0])), ("rejected", int(not result[0]))),
    SANDBOX: _sandbox_counts,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # One list per span: [name, start_ns, end_ns, parent index (-1 at the
        # root), inside a sandbox replay].
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._replay_depth = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._replay_depth > 0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around a phase of the run."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sandbox = name == SANDBOX

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            replay = self.spans[index][4]
            self._replay_depth += sandbox
            try:
                result = fn(*args, **kwargs)
            finally:
                self._replay_depth -= sandbox
                self._close(index)
            if counter is not None:
                prefix = "control.replay." if replay else "control."
                for key, n in counter(args, result):
                    self.counts[prefix + key] = self.counts.get(prefix + key, 0) + n
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(f"loopsim.{module_name}")
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- output ----------------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("run_id", "span_id", "parent_id", "name", "start_ns", "end_ns", "replay"))
            for i, (name, start, end, parent, replay) in enumerate(self.spans):
                out.writerow((self.run_id, i, parent, name, start, end, int(replay)))


def self_times(spans) -> list[int]:
    """Per-span self time in ns: duration minus the time its children cover.
    Spans nest strictly (one thread), so children never overlap."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [end - start - child_ns[i] for i, (_, start, end, _, _) in enumerate(spans)]


def span_key(name: str, replay: bool) -> str:
    if name in SPLIT_BY_REPLAY:
        return f"{name}.{'replay' if replay else 'live'}"
    return name


def all_keys() -> list[str]:
    keys = []
    for _, _, name in TARGETS:
        keys.extend((f"{name}.live", f"{name}.replay") if name in SPLIT_BY_REPLAY else (name,))
    return keys


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run. Every wrapped function gets
    `.calls` and `.self_s` (zero when it was not called); functions with at
    least PERCENTILE_MIN_CALLS calls also get `.p50_us` and `.p99_us` of
    their span durations."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls = {key: 0 for key in all_keys()}
    self_ns = {key: 0 for key in calls}
    durations: dict[str, list[int]] = {key: [] for key in calls}
    phase_ns = {phase: 0 for phase in PHASES}
    for (name, start, end, _, replay), own in zip(spans, selfs):
        if name.startswith("workload."):
            phase = name.split(".", 1)[1]
            if phase in phase_ns:
                phase_ns[phase] += end - start
            continue
        key = span_key(name, replay)
        calls[key] += 1
        self_ns[key] += own
        durations[key].append(end - start)

    out: dict[str, float] = {}
    for key in calls:
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.self_s"] = self_ns[key] / 1e9
        if calls[key] >= PERCENTILE_MIN_CALLS:
            cuts = statistics.quantiles(durations[key], n=100, method="inclusive")
            out[f"{key}.p50_us"] = cuts[49] / 1e3
            out[f"{key}.p99_us"] = cuts[98] / 1e3
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(self_ns[k] for k in self_ns if k.startswith(layer + ".")) / 1e9
    for phase, ns in phase_ns.items():
        out[f"phase.{phase}_s"] = ns / 1e9

    train_ns = sum(end - start for name, start, end, _, _ in spans if name in TRAIN_SPANS)
    steps = sum(calls[name] for name in LOSS_SPANS)
    out["engines.train_step_us"] = train_ns / steps / 1e3 if steps else 0.0

    for scope in ("control.", "control.replay."):
        for key in CONTROL_COUNTS:
            out[scope + key] = tracer.counts.get(scope + key, 0)
    live_ticks = calls[f"{TICK}.live"]
    out["control.apply_ratio"] = (out["control.applied"] / out["control.proposals"]
                                  if out["control.proposals"] else 0.0)
    out["control.replay_ticks_per_live_tick"] = (calls[f"{TICK}.replay"] / live_ticks
                                                 if live_ticks else 0.0)
    out["trace.spans"] = len(spans)
    return out


RATIOS = ("control.apply_ratio", "control.replay_ticks_per_live_tick")


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".share"):
        return "fraction"
    return "ratio" if name in RATIOS else "count"


def nesting_errors(spans) -> list[str]:
    """Spans that are not contained in their parent's interval, or whose
    self time is negative (children covering more than the parent)."""
    errors = []
    for i, ((name, start, end, parent, _), own) in enumerate(zip(spans, self_times(spans))):
        if own < 0:
            errors.append(f"span {i} {name}: children cover more than the span")
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            if start < p_start or end > p_end:
                errors.append(f"span {i} {name}: outside its parent {spans[parent][0]}")
    return errors
