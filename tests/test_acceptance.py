"""Acceptance gate: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s to watch them live).
Scenario-backed criteria use the shipped configs at seed 7; every scenario
runs twice so the determinism criterion can hash-compare the output trees.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from loopsim.engines import (TrainConfig, linfit, mse_loss_and_grads, net_init,
                             rnn_init, rnn_loss_and_grads)
from loopsim.scenarios import load_scenario_config, run_scenario

from test_engines import fd_gradient, flatten_params, max_rel_diff, rnn_params

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def criterion(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def run_twice(config_name, tmp_path_factory, label):
    cfg_path = CONFIG_DIR / config_name
    outs = []
    reports = []
    for run_id in ("a", "b"):
        cfg = load_scenario_config(cfg_path)
        out = tmp_path_factory.mktemp(f"{label}-{run_id}")
        cfg.out_dir = str(out)
        reports.append(run_scenario(cfg))
        outs.append(out)
    return reports, outs


@pytest.fixture(scope="module")
def compress_runs(tmp_path_factory):
    return run_twice("compress.yaml", tmp_path_factory, "compress")


@pytest.fixture(scope="module")
def adaptive_runs(tmp_path_factory):
    return run_twice("adaptive_vnf.yaml", tmp_path_factory, "adaptive")


@pytest.fixture(scope="module")
def conflict_runs(tmp_path_factory):
    return run_twice("conflict_demo.yaml", tmp_path_factory, "conflict")


def test_criterion_1_compressor_fidelity(compress_runs):
    report = compress_runs[0][0]
    fraction = report.metrics["fraction_eta_below_threshold"]
    ok = fraction >= 0.80 and report.wall_clock_s <= 300.0
    criterion(1, "compressor fidelity",
              ok, f"validation cpu-metric fraction |eta|<0.10 = {fraction:.4f} "
                  f"(>= 0.80 required) in {report.wall_clock_s:.1f}s")


def test_criterion_2_compression_ratio_exact(compress_runs):
    report = compress_runs[0][0]
    ratio = report.metrics["compression_ratio"]
    ok = ratio == 75 / 111
    criterion(2, "compression ratio",
              ok, f"reported ratio {ratio!r} == 75/111 exactly "
                  f"({1 - ratio:.1%} storage reduction)")


def test_criterion_3_gradient_checks():
    worst_dense = 0.0
    for seed in range(10):
        net = net_init((8, 5, 3, 5, 8), ("elu", "linear", "elu", "sigmoid"), seed)
        rng = np.random.Generator(np.random.PCG64(1000 + seed))
        x = rng.uniform(0, 1, size=(4, 8))
        _, grad = mse_loss_and_grads(net, x, x)
        numeric = fd_gradient(lambda: mse_loss_and_grads(net, x, x)[0],
                              flatten_params(net))
        worst_dense = max(worst_dense, max_rel_diff([grad], numeric))
    worst_rnn = 0.0
    for seed in range(10):
        model = rnn_init(hidden_size=4, window=6, horizon=1, seed=seed)
        rng = np.random.Generator(np.random.PCG64(2000 + seed))
        x = rng.uniform(0, 1, size=(3, 6))
        y = rng.uniform(0, 1, size=(3, 1))
        _, grad = rnn_loss_and_grads(model, x, y)
        numeric = fd_gradient(lambda: rnn_loss_and_grads(model, x, y)[0],
                              rnn_params(model))
        worst_rnn = max(worst_rnn, max_rel_diff([grad], numeric))
    ok = worst_dense < 1e-4 and worst_rnn < 1e-3
    criterion(3, "gradient checks",
              ok, f"max rel diff vs central differences: dense {worst_dense:.2e} "
                  f"(<1e-4), recurrent {worst_rnn:.2e} (<1e-3), 10 seeds each")


def test_criterion_4_linear_fit(adaptive_runs):
    report = adaptive_runs[0][0]
    rel = report.metrics["fit_slope_rel_err"]
    mse = report.metrics["fit_mse"]
    ok = rel < 0.01 and mse < 1e-5
    criterion(4, "linear fit",
              ok, f"planted slope recovered within {rel:.2%} (<1%), "
                  f"fit MSE {mse:.2e} (<1e-5)")


def test_criterion_5_predictor_utility(adaptive_runs):
    report = adaptive_runs[0][0]
    ratio = report.metrics["predictor_vs_persistence_ratio"]
    ok = ratio < 0.8 and report.wall_clock_s <= 120.0
    criterion(5, "predictor utility",
              ok, f"forecaster MSE / persistence MSE = {ratio:.3f} (<0.8) at a "
                  f"10-minute horizon in {report.wall_clock_s:.1f}s")


def test_criterion_6_embedding_oracle_agreement(embed_agreement):
    agree, disagreements, ratios = embed_agreement
    within = sum(1 for r in ratios if r <= 1.5)
    share = within / len(ratios)
    outliers = [round(r, 2) for r in ratios if r > 1.5]
    ok = agree == 200 and share >= 0.9
    criterion(6, "embedding oracle agreement",
              ok, f"feasibility agreement {agree}/200"
                  f"{' (disagreements: ' + str(disagreements) + ')' if disagreements else ''}; "
                  f"latency within 1.5x optimum on {share:.0%} of {len(ratios)} "
                  f"feasible instances (outliers: {outliers})")


def test_criterion_7_conflict_stability(conflict_runs):
    report = conflict_runs[0][0]
    unarb = report.metrics["reversals_unarbitrated"]
    after = report.metrics["reversals_after_first_decision"]
    ok = unarb >= 10 and after == 0
    criterion(7, "conflict suppression",
              ok, f"{unarb} knob sign reversals per 100 un-arbitrated ticks (>=10); "
                  f"{after} reversals after the first arbitration decision (==0); "
                  "per-tick capacity invariant asserted throughout both runs")


def test_criterion_9_conflict_liveness(conflict_runs):
    report = conflict_runs[0][0]
    m = report.metrics
    high = load_scenario_config(CONFIG_DIR / "conflict_demo.yaml").params["setpoint_high"]
    ok = (m["arbitrated_applies"] > 0 and m["arbitrated_final_knob"] == high
          and report.checks["winner_holds_knob"] and m["proposals_withheld_by_sandbox"] == 0)
    criterion(9, "conflict liveness",
              ok, f"{m['arbitrated_applies']} arbitrated apply(s) (>0); the knob ends at "
                  f"{m['arbitrated_final_knob']} (== set-point {high}) and holds it from "
                  f"the first apply to the last tick; "
                  f"{m['proposals_withheld_by_sandbox']} withheld (==0)")


def hash_tree(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


def test_criterion_8_bit_identical_reruns(compress_runs, adaptive_runs, conflict_runs):
    mismatches = []
    for label, (_, outs) in (("compress", compress_runs),
                             ("adaptive-vnf", adaptive_runs),
                             ("conflict-demo", conflict_runs)):
        a, b = hash_tree(outs[0]), hash_tree(outs[1])
        if a != b:
            differing = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            mismatches.append(f"{label}: {differing}")
    ok = not mismatches
    criterion(8, "determinism",
              ok, "all three scenarios rerun bit-identically (sha256 over every "
                  "output file)" if ok else f"hash mismatches: {mismatches}")
