"""Learners: forward oracles, finite-difference gradients, planted fits."""

import math

import numpy as np
import pytest

from loopsim import engines
from loopsim.engines import (DegenerateFitError, LinearModel, TrainConfig,
                             TrainingDivergedError, ae_forward, ae_init, ae_train,
                             decode, elu, encode, linfit, load_model,
                             make_windows, mse_loss_and_grads, net_init,
                             relative_error_distribution, rnn_init, rnn_loss_and_grads,
                             rnn_predict, rnn_train, save_model, sigmoid)
from loopsim.errors import ConfigError

SMALL_WIDTHS = (8, 5, 3, 5, 8)
SMALL_ACTS = ("elu", "linear", "elu", "sigmoid")


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_compressor_layer_dims():
    net = ae_init(seed=0)
    assert [l.weights.shape for l in net.layers] == [(90, 111), (85, 90), (75, 85), (90, 75),
                                                     (111, 90)]
    assert [l.activation for l in net.layers] == ["elu", "elu", "linear", "elu", "sigmoid"]
    assert net.encoder_layers == 3
    assert net.code_width == 75


def test_same_seed_bit_identical():
    a, b = ae_init(3), ae_init(3)
    for la, lb in zip(a.layers, b.layers):
        assert la.weights.tobytes() == lb.weights.tobytes()
        assert la.bias.tobytes() == lb.bias.tobytes()


def test_different_seeds_differ():
    a, b = ae_init(3), ae_init(4)
    assert any(la.weights.tobytes() != lb.weights.tobytes()
               for la, lb in zip(a.layers, b.layers))


def test_init_bounds_follow_fan():
    net = ae_init(0)
    for layer in net.layers:
        fan_out, fan_in = layer.weights.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.max(np.abs(layer.weights)) <= limit
        assert np.all(layer.bias == 0.0)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def test_activation_values():
    assert elu(np.array([2.0]))[0] == 2.0
    assert elu(np.array([-50.0]))[0] == pytest.approx(-1.0, abs=1e-12)
    assert elu(np.array([0.0]))[0] == 0.0
    assert sigmoid(np.array([0.0]))[0] == 0.5


def test_zero_weight_model_outputs_half():
    net = ae_init(0)
    for layer in net.layers:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    out = ae_forward(net, np.zeros(111))
    assert np.all(out == 0.5)


def test_sigmoid_matches_logistic_without_warnings():
    x = np.linspace(-750.0, 750.0, 300001)
    with np.errstate(over="ignore"):
        reference = 1.0 / (1.0 + np.exp(-x))
    with np.errstate(all="raise"):
        out = sigmoid(x)
        edges = sigmoid(np.array([-np.inf, 0.0, np.inf]))
    assert np.max(np.abs(out - reference)) <= 2.3e-16
    assert edges.tolist() == [0.0, 0.5, 1.0]


def test_forward_output_in_open_unit_interval():
    net = ae_init(1)
    rng = np.random.Generator(np.random.PCG64(1))
    out = ae_forward(net, rng.uniform(0, 1, size=(10, 111)))
    assert out.shape == (10, 111)
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_forward_width_mismatch_and_nonfinite():
    net = ae_init(1)
    with pytest.raises(Exception, match="width"):
        ae_forward(net, np.zeros(7))
    bad = np.zeros(111)
    bad[3] = np.nan
    with pytest.raises(Exception, match="finite"):
        ae_forward(net, bad)


def oracle_forward(net, x):
    """Straightforward per-neuron re-implementation (no shared code paths)."""
    h = [float(v) for v in x]
    for layer in net.layers:
        w, b = layer.weights, layer.bias
        z = []
        for o in range(w.shape[0]):
            acc = float(b[o])
            for i in range(w.shape[1]):
                acc += float(w[o, i]) * h[i]
            z.append(acc)
        if layer.activation == "elu":
            h = [v if v > 0 else math.exp(v) - 1.0 for v in z]
        elif layer.activation == "sigmoid":
            h = [1.0 / (1.0 + math.exp(-v)) for v in z]
        else:
            h = z
    return np.array(h)


def test_forward_matches_independent_oracle_small():
    net = net_init(SMALL_WIDTHS, SMALL_ACTS, seed=5)
    rng = np.random.Generator(np.random.PCG64(6))
    for _ in range(5):
        x = rng.uniform(0, 1, size=8)
        assert np.max(np.abs(ae_forward(net, x) - oracle_forward(net, x))) < 1e-10


def test_forward_matches_independent_oracle_full():
    net = ae_init(2)
    rng = np.random.Generator(np.random.PCG64(7))
    x = rng.uniform(0, 1, size=111)
    assert np.max(np.abs(ae_forward(net, x) - oracle_forward(net, x))) < 1e-10


# ---------------------------------------------------------------------------
# Encode / decode
# ---------------------------------------------------------------------------

def test_code_width_is_75():
    net = ae_init(0)
    assert encode(net, np.zeros(111)).shape == (75,)


def test_encode_decode_equals_forward_bitwise():
    net = ae_init(9)
    rng = np.random.Generator(np.random.PCG64(10))
    x = rng.uniform(0, 1, size=(4, 111))
    via_code = decode(net, encode(net, x))
    assert via_code.tobytes() == ae_forward(net, x).tobytes()


def test_zero_weight_code_equals_bottleneck_bias():
    net = ae_init(0)
    for layer in net.layers:
        layer.weights[:] = 0.0
    net.layers[2].bias[:] = np.arange(75, dtype=float)
    code = encode(net, np.ones(111) * 0.3)
    assert np.array_equal(code, np.arange(75, dtype=float))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_memorize_single_vector():
    # A 75-wide code trivially represents one point.
    rng = np.random.Generator(np.random.PCG64(3))
    x = rng.uniform(0.2, 0.8, size=111)
    data = np.tile(x, (16, 1))
    net = ae_init(0)
    net, history = ae_train(net, data, TrainConfig(learning_rate=2e-3, epochs=300,
                                                   batch_size=16, seed=0))
    assert history[-1] < 1e-4


def test_zero_learning_rate_constant_history():
    rng = np.random.Generator(np.random.PCG64(4))
    data = rng.uniform(0, 1, size=(40, 111))
    net = ae_init(1)
    net, history = ae_train(net, data, TrainConfig(learning_rate=0.0, epochs=5,
                                                   batch_size=16, seed=0, shuffle=False))
    assert len(history) == 5
    assert all(h == history[0] for h in history)


def test_training_divergence_reports_epoch():
    # A linear-output stack genuinely blows up under an absurd sgd rate (the
    # canonical compressor cannot: its sigmoid output bounds the loss).
    rng = np.random.Generator(np.random.PCG64(4))
    data = rng.uniform(0, 1, size=(64, 8))
    net = net_init((8, 5, 3, 5, 8), ("elu", "linear", "elu", "linear"), seed=1)
    with pytest.raises(TrainingDivergedError) as exc:
        ae_train(net, data, TrainConfig(learning_rate=1e9, epochs=60, batch_size=32,
                                        seed=0, optimizer="sgd"))
    assert exc.value.epoch >= 0


def test_rnn_divergence_reports_epoch():
    series = np.sin(np.arange(200.0) / 10) * 5 + 10
    with pytest.raises(TrainingDivergedError):
        rnn_train(series, 20, 5, TrainConfig(learning_rate=1e9, epochs=60,
                                             batch_size=32, seed=0, optimizer="sgd"))


def flatten_params(net):
    return [net.params]


def fd_gradient(loss_fn, params, h=1e-5):
    """Central finite differences over every scalar parameter."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            hi = loss_fn()
            p[idx] = orig - h
            lo = loss_fn()
            p[idx] = orig
            g[idx] = (hi - lo) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def max_rel_diff(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


@pytest.mark.parametrize("seed", range(3))
def test_dense_gradients_match_finite_differences(seed):
    net = net_init(SMALL_WIDTHS, SMALL_ACTS, seed=seed)
    rng = np.random.Generator(np.random.PCG64(100 + seed))
    x = rng.uniform(0, 1, size=(4, 8))
    _, grad = mse_loss_and_grads(net, x, x)
    numeric = fd_gradient(lambda: mse_loss_and_grads(net, x, x)[0], flatten_params(net))
    assert max_rel_diff([grad], numeric) < 1e-4


def test_training_monotonicity_sgd():
    """Statistical invariant: with sgd at lr=0.05 on correlated synthetic
    data, the epoch-10 loss beats the epoch-0 loss for >= 95% of 20 seeds."""
    rng = np.random.Generator(np.random.PCG64(42))
    latent = rng.uniform(0, 1, size=(200, 6))
    mix = rng.uniform(-1, 1, size=(6, 111))
    data = 0.5 + 0.3 * np.tanh(latent @ mix)
    wins = 0
    for seed in range(20):
        net = ae_init(seed)
        _, history = ae_train(net, data, TrainConfig(learning_rate=0.05, epochs=11,
                                                     batch_size=32, seed=seed,
                                                     optimizer="sgd"))
        if history[10] < history[0]:
            wins += 1
    assert wins >= 19


# ---------------------------------------------------------------------------
# Relative error distribution
# ---------------------------------------------------------------------------

def test_error_distribution_perfect_reconstruction():
    real = np.array([5.0, 10.0, 20.0])
    dist = relative_error_distribution(real, real.copy(), threshold=0.1)
    assert dist.fraction_below == 1.0
    assert dist.excluded == 0


def test_error_distribution_boundary_is_strict():
    dist = relative_error_distribution(np.array([10.0, 10.0]), np.array([9.0, 12.0]),
                                       threshold=0.1)
    assert dist.fraction_below == 0.0  # eta = [0.1, -0.2], neither strictly below


def test_error_distribution_excludes_near_zero():
    real = np.array([0.0, 1e-9, 10.0])
    recon = np.array([0.5, 0.5, 10.5])
    dist = relative_error_distribution(real, recon, threshold=0.1)
    assert dist.excluded == 2
    assert dist.included == 1
    assert dist.fraction_below == 1.0  # |(10-10.5)/10| = 0.05 < 0.1


def test_error_distribution_matches_loop_oracle():
    rng = np.random.Generator(np.random.PCG64(8))
    real = rng.uniform(-5, 5, size=500)
    recon = real + rng.normal(0, 0.4, size=500)
    threshold = 0.15
    dist = relative_error_distribution(real, recon, threshold)
    below = 0
    included = 0
    for r, c in zip(real, recon):
        if abs(r) < 1e-6:
            continue
        included += 1
        if abs((r - c) / r) < threshold:
            below += 1
    assert dist.included == included
    assert dist.fraction_below == pytest.approx(below / included)
    assert int(dist.histogram.sum()) == included


def test_error_distribution_length_mismatch():
    with pytest.raises(Exception, match="mismatch"):
        relative_error_distribution(np.zeros(3), np.zeros(4), 0.1)


# ---------------------------------------------------------------------------
# Linear fit
# ---------------------------------------------------------------------------

def test_linfit_exact_line():
    x = np.arange(10.0)
    model = linfit(x, 2.0 * x + 1.0)
    assert model.slope == pytest.approx(2.0, abs=1e-12)
    assert model.intercept == pytest.approx(1.0, abs=1e-12)
    assert model.fit_mse == pytest.approx(0.0, abs=1e-20)


def test_linfit_two_points_interpolates():
    model = linfit(np.array([0.0, 2.0]), np.array([1.0, 5.0]))
    assert model.slope == pytest.approx(2.0)
    assert model.intercept == pytest.approx(1.0)
    assert model.fit_mse == pytest.approx(0.0, abs=1e-20)


def test_linfit_constant_x_degenerate():
    with pytest.raises(DegenerateFitError):
        linfit(np.ones(5), np.arange(5.0))


def test_linfit_planted_model_recovery():
    rng = np.random.Generator(np.random.PCG64(12))
    x = rng.uniform(0, 1, size=240)
    y = 0.7 * x + 0.1 + rng.normal(0, 1e-3, size=240)
    model = linfit(x, y)
    assert abs(model.slope - 0.7) / 0.7 < 0.01
    assert model.fit_mse < 1e-5


def test_ols_optimality_under_perturbation():
    rng = np.random.Generator(np.random.PCG64(13))
    x = rng.uniform(0, 1, size=100)
    y = 0.4 * x + 0.2 + rng.normal(0, 0.01, size=100)
    model = linfit(x, y)

    def mse(slope, intercept):
        return float(np.mean((y - (slope * x + intercept)) ** 2))

    base = mse(model.slope, model.intercept)
    for ds in (-1e-3, 0.0, 1e-3):
        for di in (-1e-3, 0.0, 1e-3):
            assert mse(model.slope + ds, model.intercept + di) >= base - 1e-18


# ---------------------------------------------------------------------------
# Recurrent forecaster
# ---------------------------------------------------------------------------

def test_rnn_constant_series_fixed_point():
    series = np.full(80, 42.0)
    series = series + np.linspace(0, 1e-9, 80)  # avoid a zero input span
    model = rnn_train(series, window=10, horizon=5,
                      config=TrainConfig(learning_rate=1e-2, epochs=150, batch_size=16,
                                         seed=0), hidden_size=8)
    forecast = rnn_predict(model, series[-10:])
    assert np.all(np.abs(forecast - 42.0) / 42.0 < 0.05)


def test_rnn_sinusoid_beats_persistence_horizon_one():
    t = np.arange(240.0)
    series = 10.0 + 3.0 * np.sin(2 * np.pi * t / 24.0)
    cut = 180
    model = rnn_train(series[:cut], window=24, horizon=1,
                      config=TrainConfig(learning_rate=1e-2, epochs=200, batch_size=32,
                                         seed=1), hidden_size=8)
    x, y = make_windows(series, 24, 1)
    test_idx = [i for i in range(len(x)) if i + 24 >= cut]
    pred_se = [float(np.mean((rnn_predict(model, x[i]) - y[i]) ** 2)) for i in test_idx]
    persist_se = [float(np.mean((x[i][-1] - y[i]) ** 2)) for i in test_idx]
    assert np.mean(pred_se) < np.mean(persist_se)


def rnn_params(model):
    return [model.params]


def test_rnn_init_matches_per_gate_glorot_draws():
    hidden, horizon = 5, 3
    model = rnn_init(hidden, window=7, horizon=horizon, seed=11)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(11)))
    gate_limit = math.sqrt(6.0 / (1 + 2 * hidden))
    gates = [rng.uniform(-gate_limit, gate_limit, size=(hidden, 1 + hidden))
             for _ in ("input", "forget", "output", "cell")]
    out_limit = math.sqrt(6.0 / (hidden + horizon))
    w_out = rng.uniform(-out_limit, out_limit, size=(horizon, hidden))
    bias = np.concatenate([np.zeros(hidden), np.ones(hidden), np.zeros(2 * hidden)])
    expected = np.concatenate([np.vstack(gates).ravel(), bias, w_out.ravel(),
                               np.zeros(horizon)])
    assert model.params.tobytes() == expected.tobytes()
    assert model.w[hidden:2 * hidden].tobytes() == gates[1].tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_rnn_gradients_match_finite_differences(seed):
    model = rnn_init(hidden_size=4, window=6, horizon=1, seed=seed)
    rng = np.random.Generator(np.random.PCG64(200 + seed))
    x = rng.uniform(0, 1, size=(3, 6))
    y = rng.uniform(0, 1, size=(3, 1))
    _, grad = rnn_loss_and_grads(model, x, y)
    numeric = fd_gradient(lambda: rnn_loss_and_grads(model, x, y)[0], rnn_params(model))
    assert max_rel_diff([grad], numeric) < 1e-3


def test_rnn_insufficient_data():
    with pytest.raises(Exception, match="window"):
        rnn_train(np.arange(20.0), window=15, horizon=5,
                  config=TrainConfig(epochs=1))


def test_rnn_predict_window_size_checked():
    model = rnn_init(4, 6, 2, seed=0)
    with pytest.raises(Exception, match="window"):
        rnn_predict(model, np.zeros(5))


def textbook_lstm(model, x):
    """Per-sample, per-gate LSTM from the cell equations (Greff et al.), with
    each gate's weights sliced out of the stacked w and b; it shares no code
    with the kernel."""
    hid = model.hidden_size
    rows = {gate: slice(k * hid, (k + 1) * hid)
            for k, gate in enumerate(("input", "forget", "output", "cell"))}
    out = []
    for sample in x:
        h = np.zeros(hid)
        c = np.zeros(hid)
        for x_t in sample:
            u = np.concatenate(([x_t], h))
            z = {gate: model.w[r] @ u + model.b[r] for gate, r in rows.items()}
            i, f, o = (1.0 / (1.0 + np.exp(-z[gate])) for gate in ("input", "forget", "output"))
            c = f * c + i * np.tanh(z["cell"])
            h = o * np.tanh(c)
        out.append(model.w_out @ h + model.b_out)
    return np.array(out)


@pytest.mark.parametrize("batch", [1, 4])
def test_rnn_forward_matches_textbook_lstm(batch):
    model = rnn_init(hidden_size=5, window=9, horizon=3, seed=2)
    rng = np.random.Generator(np.random.PCG64(30 + batch))
    model.params[:] += rng.normal(0.0, 0.3, size=model.params.size)
    x = rng.uniform(0, 1, size=(batch, 9))
    y, _ = engines._rnn_forward(model, x)
    assert y.shape == (batch, 3)
    assert np.max(np.abs(y - textbook_lstm(model, x))) <= 1e-12


def test_rnn_reused_buffers_leave_no_trace_between_calls():
    model = rnn_init(hidden_size=6, window=8, horizon=3, seed=4)
    other = rnn_init(hidden_size=3, window=8, horizon=3, seed=5)
    rng = np.random.Generator(np.random.PCG64(41))
    x = rng.uniform(0, 1, size=(5, 8))
    y = rng.uniform(0, 1, size=(5, 3))
    loss, grad = rnn_loss_and_grads(model, x, y)
    grad_bytes = grad.tobytes()
    params = model.params.tobytes()
    for batch, window in [(7, 8), (1, 8), (5, 4), (5, 8), (2, 11)]:
        xb = rng.uniform(0, 1, size=(batch, window))
        yb = rng.uniform(0, 1, size=(batch, 3))
        rnn_loss_and_grads(model, xb, yb)
        rnn_loss_and_grads(other, xb, yb)
    assert model.params.tobytes() == params
    assert grad.tobytes() == grad_bytes  # a returned gradient is never a buffer
    again_loss, again = rnn_loss_and_grads(model, x, y)
    assert again_loss == loss and again.tobytes() == grad_bytes
    fresh = engines.RecurrentModel(6, 8, 3, params=model.params.copy())
    fresh_loss, fresh_grad = rnn_loss_and_grads(fresh, x, y)
    assert fresh_loss == loss and fresh_grad.tobytes() == grad_bytes


def test_rnn_predict_unchanged_by_training_calls():
    model = rnn_init(hidden_size=4, window=6, horizon=2, seed=7)
    model.in_lo, model.in_hi = 1.0, 5.0
    rng = np.random.Generator(np.random.PCG64(43))
    window = rng.uniform(1, 5, size=6)
    before = rnn_predict(model, window).tobytes()
    for batch in (9, 1):  # batch 1 shares the prediction's buffers
        rnn_loss_and_grads(model, rng.uniform(0, 1, size=(batch, 6)),
                           rng.uniform(0, 1, size=(batch, 2)))
    assert rnn_predict(model, window).tobytes() == before


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_dense_model_roundtrip(tmp_path):
    net = ae_init(21)
    path = tmp_path / "net.json"
    save_model(net, path, TrainConfig())
    back = load_model(path)
    assert [l.weights.shape for l in back.layers] == [l.weights.shape for l in net.layers]
    assert back.encoder_layers == net.encoder_layers
    for la, lb in zip(net.layers, back.layers):
        assert la.weights.tobytes() == lb.weights.tobytes()
        assert la.bias.tobytes() == lb.bias.tobytes()


def test_lstm_model_roundtrip(tmp_path):
    model = rnn_init(4, 6, 2, seed=5)
    model.in_lo, model.in_hi = 3.0, 9.0
    path = tmp_path / "rnn.json"
    save_model(model, path)
    back = load_model(path)
    rng = np.random.Generator(np.random.PCG64(1))
    window = rng.uniform(3, 9, size=6)
    assert rnn_predict(back, window).tobytes() == rnn_predict(model, window).tobytes()


def test_lstm_buffers_never_reach_the_model_file(tmp_path):
    model = rnn_init(4, 6, 2, seed=8)
    save_model(model, tmp_path / "before.json")
    rng = np.random.Generator(np.random.PCG64(44))
    rnn_loss_and_grads(model, rng.uniform(0, 1, size=(3, 6)), rng.uniform(0, 1, size=(3, 2)))
    rnn_predict(model, rng.uniform(0, 1, size=6))
    save_model(model, tmp_path / "after.json")
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
    assert "_work" not in repr(model)


def test_linear_model_roundtrip(tmp_path):
    model = LinearModel(0.25, -3.0, 1e-6)
    path = tmp_path / "lin.json"
    save_model(model, path)
    assert load_model(path) == model


@pytest.mark.parametrize("make", [lambda: net_init(SMALL_WIDTHS, SMALL_ACTS, seed=4),
                                  lambda: rnn_init(4, 6, 2, seed=4)],
                         ids=["dense", "lstm"])
def test_model_roundtrip_is_bitwise(tmp_path, make):
    model = make()
    rng = np.random.Generator(np.random.PCG64(9))
    model.params[:] = rng.normal(0, 1, size=model.params.size) / 3.0
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert type(back) is type(model)
    assert back.params.tobytes() == model.params.tobytes()
    for name in model.STORED:
        if name != "params":
            assert getattr(back, name) == getattr(model, name)


def test_version_1_model_file_refused(tmp_path):
    path = tmp_path / "old.json"
    path.write_text('{"format": "loopsim-model", "version": 1, "kind": "lstm"}')
    with pytest.raises(ConfigError, match="version 1"):
        load_model(path)


def test_unversioned_file_rejected(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"hello": 1}')
    with pytest.raises(Exception, match="model"):
        load_model(path)
