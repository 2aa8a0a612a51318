"""Built-in step functions that chains reference by name.

Each function takes a StepContext and returns its step output: monitor
functions read the world, analyze functions run a learner, plan functions
emit ActionProposal lists, knowledge stores the tick record. Scenario
services (models, feeds, catalogs) are bound per instance at instantiation.
A context is reused from tick to tick, so a function reads it during its
call only and does not mutate ctx.inputs. The scrape, encode and forecast
steps import metrics or engines when called; they stay here, not in learning,
where the benchmark's tracer and build_default_registry find them by name.
"""

from __future__ import annotations

from . import sdi
from .chain import ActionProposal, AnalysisOutput, catalog_translate


def monitor_scrape_frame(ctx):
    """Scrape one metric frame; services: metric_catalog, workload (the
    rates of metrics.generate_workload, rate i at i * SCRAPE_INTERVAL_S)."""
    from . import metrics

    catalog = ctx.services["metric_catalog"]
    workload = ctx.services["workload"]
    idx = min(int(ctx.t_ms // (1000 * metrics.SCRAPE_INTERVAL_S)), len(workload) - 1)
    return metrics.scrape(ctx.state, workload[idx], catalog, idx * metrics.SCRAPE_INTERVAL_S)


def monitor_traffic_window(ctx):
    """Last `window` per-minute traffic means; services: traffic_feed."""
    feed = ctx.services["traffic_feed"]
    return feed.window_at(ctx.t_ms, int(ctx.params.get("window", 30)))


def monitor_knob_value(ctx):
    return sdi.get_knob(ctx.state, ctx.params["node"], ctx.params["parameter"])


def analyze_encode_frame(ctx):
    """Compress the monitored frame; services: compressor, scaler."""
    from . import engines

    frame = next(iter(ctx.inputs.values()))
    net = ctx.services["compressor"]
    scaler = ctx.services["scaler"]
    return engines.encode(net, scaler.transform(frame.values))


def analyze_forecast_traffic(ctx):
    """Forecast the horizon ahead and summarise it for planning; services:
    predictor. The aggregate defaults to the forecast max (provision for the
    worst upcoming minute)."""
    from . import engines

    window = next(iter(ctx.inputs.values()))
    model = ctx.services["predictor"]
    forecast = engines.rnn_predict(model, window)
    agg = ctx.params.get("aggregate", "max")
    value = float(forecast.max() if agg == "max" else forecast.mean())
    return AnalysisOutput(kind=ctx.params.get("kind", "traffic.forecast"), value=value)


def plan_catalog_translate(ctx):
    """Turn the analysis output into knob proposals via the action catalog;
    services: action_catalog."""
    output = next((v for v in ctx.inputs.values() if isinstance(v, AnalysisOutput)), None)
    if output is None:
        return []
    catalog = ctx.services["action_catalog"]
    return catalog_translate(catalog, output, ctx.instance.chain.destination_domain, ctx.state)


def plan_knob_setpoint(ctx):
    """Propose a fixed set-point for one knob (params: node, parameter,
    value), issued by the instance's own chain. Emits nothing when the knob
    already sits at the set-point."""
    node = ctx.params["node"]
    parameter = ctx.params["parameter"]
    value = float(ctx.params["value"])
    if value == sdi.get_knob(ctx.state, node, parameter):
        return []
    return [ActionProposal(node, parameter, value, ctx.instance.chain.id)]


def knowledge_store(ctx):
    """Append this tick's inputs to the instance knowledge store, which
    holds records, at most KNOWLEDGE_WINDOW, and drops the oldest past that.
    The tick hands each step a fresh inputs dict, so the record keeps it
    uncopied."""
    record = {"t_ms": ctx.t_ms, "inputs": ctx.inputs}
    ctx.instance.knowledge.append(record)
    return record


def build_default_registry():
    from .control import FunctionRegistry

    registry = FunctionRegistry()
    registry.register("monitor.scrape_frame", monitor_scrape_frame)
    registry.register("monitor.traffic_window", monitor_traffic_window)
    registry.register("monitor.knob_value", monitor_knob_value)
    registry.register("analyze.encode_frame", analyze_encode_frame)
    registry.register("analyze.forecast_traffic", analyze_forecast_traffic)
    registry.register("plan.catalog_translate", plan_catalog_translate)
    registry.register("plan.knob_setpoint", plan_knob_setpoint)
    registry.register("knowledge.store", knowledge_store)
    return registry
