"""Per-layer microbenchmarks of the learners: one LSTM train step (batch 32,
window 30, H=16), one autoencoder train step (batch 32) and one Adam step
on the compressor's parameters.

The default test run executes each once as a smoke test (pyproject.toml
passes --benchmark-disable). To time them:

    pytest tests/test_microbench.py --benchmark-enable
"""

import numpy as np

from loopsim import engines
from loopsim.engines import TrainConfig


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_lstm_train_step(benchmark):
    model = engines.rnn_init(hidden_size=16, window=30, horizon=10, seed=0)
    rng = _rng(1)
    x = rng.uniform(0, 1, size=(32, 30))
    y = rng.uniform(0, 1, size=(32, 10))
    opt = engines._Optimizer(model.params, TrainConfig(learning_rate=1e-3))

    def step():
        loss, grad = engines.rnn_loss_and_grads(model, x, y)
        opt.step(grad)
        return loss

    assert np.isfinite(benchmark(step))


def test_ae_train_step(benchmark):
    net = engines.ae_init(seed=0)
    x = _rng(2).uniform(0, 1, size=(32, net.input_width))
    opt = engines._Optimizer(net.params, TrainConfig(learning_rate=1e-3))

    def step():
        loss, grad = engines.mse_loss_and_grads(net, x, x)
        opt.step(grad)
        return loss

    assert np.isfinite(benchmark(step))


def test_adam_step_on_compressor_params(benchmark):
    net = engines.ae_init(seed=0)
    assert net.params.size == 41206
    grad = _rng(3).normal(0.0, 1e-2, size=net.params.size)
    opt = engines._Optimizer(net.params, TrainConfig(learning_rate=1e-3))
    benchmark(opt.step, grad)
    assert opt.t >= 1 and np.all(np.isfinite(net.params))
