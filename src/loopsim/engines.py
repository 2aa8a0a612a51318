"""Numerical learners used by Analyze steps, written on plain numpy.

Three model families: dense feed-forward stacks (the telemetry compressor),
ordinary least squares, and a single-layer LSTM forecaster with a direct
multi-horizon readout. Gradients are hand-derived reverse mode; the test
suite checks them against central finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, SimError

MODEL_FORMAT = "loopsim-model"
MODEL_VERSION = 2

# The telemetry compressor: widths and activations of the five dense layers.
# Encoder is layers 1-3 (code width 75), decoder layers 4-5; the sigmoid
# output matches inputs normalized to [0, 1].
COMPRESSOR_WIDTHS = (111, 90, 85, 75, 90, 111)
COMPRESSOR_ACTIVATIONS = ("elu", "elu", "linear", "elu", "sigmoid")


class TrainingDivergedError(SimError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}")
        self.epoch = epoch


class DegenerateFitError(SimError):
    pass


class InsufficientDataError(SimError):
    pass


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def elu(x: np.ndarray) -> np.ndarray:
    # alpha = 1: identity for x > 0, exp(x) - 1 otherwise
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def _elu_deriv(preact: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.where(preact > 0, 1.0, out + 1.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # The tanh form never overflows: exact 0.5 at 0, 0 and 1 at -inf and +inf.
    return 0.5 * (1.0 + np.tanh(x / 2.0))


def _sigmoid_deriv(preact: np.ndarray, out: np.ndarray) -> np.ndarray:
    return out * (1.0 - out)


_ACTIVATIONS = {
    "elu": (elu, _elu_deriv),
    "linear": (lambda x: x, lambda preact, out: np.ones_like(preact)),
    "sigmoid": (sigmoid, _sigmoid_deriv),
}


# ---------------------------------------------------------------------------
# Flat parameter vectors
# ---------------------------------------------------------------------------

def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive reshaped views of a flat vector, one per shape."""
    sizes = [math.prod(shape) for shape in shapes]
    if flat.shape != (sum(sizes),):
        raise ConfigError(f"expected a flat vector of {sum(sizes)} parameters, "
                          f"got shape {flat.shape}")
    out = []
    start = 0
    for shape, size in zip(shapes, sizes):
        out.append(flat[start:start + size].reshape(shape))
        start += size
    return out


def _param_vector(params, shapes) -> np.ndarray:
    """The model's contiguous float64 parameter vector (zeros when None)."""
    if params is None:
        return np.zeros(sum(math.prod(shape) for shape in shapes))
    return np.ascontiguousarray(params, dtype=float)


# ---------------------------------------------------------------------------
# Dense networks
# ---------------------------------------------------------------------------

@dataclass
class DenseLayer:
    weights: np.ndarray  # out x in, a view into the net's params
    bias: np.ndarray  # out, a view into the net's params
    activation: str

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")


@dataclass
class DenseNet:
    """A stack of dense layers; encoder_layers marks the code boundary.

    params holds every layer's weights then bias, in layer order; each
    layer's arrays are views into it."""

    STORED = ("widths", "activations", "encoder_layers", "params")

    widths: tuple[int, ...]
    activations: tuple[str, ...]
    encoder_layers: int
    params: np.ndarray | None = None
    layers: list[DenseLayer] = field(init=False, repr=False)

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        self.activations = tuple(self.activations)
        if len(self.activations) != len(self.widths) - 1:
            raise ConfigError("need one activation per layer")
        self.params = _param_vector(self.params, self.shapes())
        views = _views(self.params, self.shapes())
        self.layers = [DenseLayer(views[2 * i], views[2 * i + 1], act)
                       for i, act in enumerate(self.activations)]

    def shapes(self) -> list[tuple[int, ...]]:
        out = []
        for fan_in, fan_out in zip(self.widths, self.widths[1:]):
            out.extend(((fan_out, fan_in), (fan_out,)))
        return out

    @property
    def input_width(self) -> int:
        return self.widths[0]

    @property
    def code_width(self) -> int:
        return self.widths[self.encoder_layers]


def _glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def net_init(widths, activations, seed: int) -> DenseNet:
    """Dense stack with uniform fan-based init (+-sqrt(6/(fan_in+fan_out)))
    and zero biases. The code boundary sits at the narrowest inner width."""
    widths = tuple(int(w) for w in widths)
    encoder_layers = 1 + int(np.argmin(widths[1:-1]))
    net = DenseNet(widths, activations, encoder_layers)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    for layer in net.layers:
        layer.weights[:] = _glorot_uniform(rng, *layer.weights.shape)
    return net


def ae_init(seed: int) -> DenseNet:
    """The 111 -> 90 -> 85 -> 75 -> 90 -> 111 telemetry compressor."""
    return net_init(COMPRESSOR_WIDTHS, COMPRESSOR_ACTIVATIONS, seed)


def _check_input(net: DenseNet, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.input_width:
        raise ConfigError(f"input width {x.shape[-1]} != model width {net.input_width}")
    if not np.all(np.isfinite(x)):
        raise ConfigError("non-finite input")
    return x


def _apply_layers(layers, x: np.ndarray) -> np.ndarray:
    h = x
    for layer in layers:
        act, _ = _ACTIVATIONS[layer.activation]
        h = act(h @ layer.weights.T + layer.bias)
    return h


def ae_forward(net: DenseNet, x) -> np.ndarray:
    """Full reconstruction pass; accepts one vector or a batch."""
    arr = np.asarray(x, dtype=float)
    squeeze = arr.ndim == 1
    out = _apply_layers(net.layers, _check_input(net, arr))
    return out[0] if squeeze else out


def encode(net: DenseNet, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    squeeze = arr.ndim == 1
    out = _apply_layers(net.layers[: net.encoder_layers], _check_input(net, arr))
    return out[0] if squeeze else out


def decode(net: DenseNet, code) -> np.ndarray:
    code = np.asarray(code, dtype=float)
    squeeze = code.ndim == 1
    if squeeze:
        code = code[None, :]
    if code.shape[1] != net.code_width:
        raise ConfigError(f"code width {code.shape[1]} != model code width {net.code_width}")
    out = _apply_layers(net.layers[net.encoder_layers:], code)
    return out[0] if squeeze else out


def mse_loss_and_grads(net: DenseNet, x: np.ndarray, target: np.ndarray):
    """Mean-squared-error loss over all elements and its gradient, a vector
    laid out like net.params, by reverse-mode differentiation through every
    layer. Overflow is left to produce non-finite values (the trainers
    report those as divergence)."""
    grad = np.empty_like(net.params)
    grad_views = _views(grad, net.shapes())
    with np.errstate(over="ignore", invalid="ignore"):
        acts = [x]
        preacts = []
        h = x
        for layer in net.layers:
            z = h @ layer.weights.T + layer.bias
            act, _ = _ACTIVATIONS[layer.activation]
            h = act(z)
            preacts.append(z)
            acts.append(h)
        diff = h - target
        loss = float(np.mean(diff * diff))
        grad_out = 2.0 * diff / diff.size
        for i in range(len(net.layers) - 1, -1, -1):
            layer = net.layers[i]
            _, deriv = _ACTIVATIONS[layer.activation]
            gz = grad_out * deriv(preacts[i], acts[i + 1])
            grad_views[2 * i][:] = gz.T @ acts[i]
            grad_views[2 * i + 1][:] = gz.sum(axis=0)
            grad_out = gz @ layer.weights
    return loss, grad


# ---------------------------------------------------------------------------
# Optimizers and the shared training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    optimizer: str = "adam"  # adam | sgd
    shuffle: bool = True

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


class _Optimizer:
    """Applies sgd or adam (beta1=0.9, beta2=0.999, eps=1e-8) updates to a
    flat parameter vector, in place."""

    def __init__(self, params: np.ndarray, config: TrainConfig):
        self.params = params
        self.lr = config.learning_rate
        self.kind = config.optimizer
        if self.kind == "adam":
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
            self.t = 0

    def step(self, grad: np.ndarray) -> None:
        if self.kind == "sgd":
            self.params -= self.lr * grad
            return
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        correction = math.sqrt(1.0 - b2 ** self.t) / (1.0 - b1 ** self.t)
        self.m *= b1
        self.m += (1 - b1) * grad
        self.v *= b2
        self.v += (1 - b2) * grad * grad
        self.params -= self.lr * correction * self.m / (np.sqrt(self.v) + eps)


def _fit(params: np.ndarray, loss_and_grads, x: np.ndarray, y: np.ndarray,
         config: TrainConfig, rng: np.random.Generator) -> list[float]:
    """Minibatch training of params in place. Returns one loss per epoch: the
    sample-weighted mean of the pre-update batch losses, i.e. total squared
    error over the epoch divided by total target elements."""
    opt = _Optimizer(params, config)
    history: list[float] = []
    for epoch in range(config.epochs):
        sse = 0.0
        count = 0
        order = rng.permutation(len(x)) if config.shuffle else np.arange(len(x))
        for start in range(0, len(x), config.batch_size):
            idx = order[start:start + config.batch_size]
            target = y[idx]
            loss, grad = loss_and_grads(x[idx], target)
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch)
            opt.step(grad)
            sse += loss * target.size
            count += target.size
        history.append(sse / count)
    return history


def ae_train(net: DenseNet, data01: np.ndarray, config: TrainConfig):
    """Train the reconstruction objective in place; returns (net, loss_history)."""
    data01 = np.asarray(data01, dtype=float)
    if data01.ndim != 2 or data01.shape[1] != net.input_width:
        raise ConfigError("training data width does not match the model")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    history = _fit(net.params, lambda x, y: mse_loss_and_grads(net, x, y),
                   data01, data01, config, rng)
    return net, history


# ---------------------------------------------------------------------------
# Reconstruction-error reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorDistribution:
    fraction_below: float
    histogram: np.ndarray
    bin_edges: np.ndarray
    included: int
    excluded: int  # samples with |real| < eps, reported separately
    threshold: float


def relative_error_distribution(real, recon, threshold: float,
                                eps: float = 1e-6, bins: int = 40,
                                bin_range: tuple[float, float] = (-2.0, 2.0)) -> ErrorDistribution:
    """Per-sample relative error (real - recon) / real.

    Samples with |real| < eps are excluded from the fraction and counted
    separately. fraction_below is the share of included samples with
    |error| strictly below the threshold. The histogram clips errors into
    bin_range so the tails stay visible in the edge bins.
    """
    real = np.asarray(getattr(real, "values", real), dtype=float)
    recon = np.asarray(getattr(recon, "values", recon), dtype=float)
    if real.shape != recon.shape:
        raise ConfigError(f"length mismatch: {real.shape} vs {recon.shape}")
    keep = np.abs(real) >= eps
    eta = (real[keep] - recon[keep]) / real[keep]
    included = int(keep.sum())
    fraction = float(np.mean(np.abs(eta) < threshold)) if included else 0.0
    clipped = np.clip(eta, bin_range[0], bin_range[1])
    hist, edges = np.histogram(clipped, bins=bins, range=bin_range)
    return ErrorDistribution(
        fraction_below=fraction, histogram=hist, bin_edges=edges,
        included=included, excluded=int(real.size - included), threshold=threshold,
    )


# ---------------------------------------------------------------------------
# Ordinary least squares
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearModel:
    STORED = ("slope", "intercept", "fit_mse")

    slope: float
    intercept: float
    fit_mse: float


def linfit(x, y) -> LinearModel:
    """Closed-form OLS of y on x."""
    x = np.asarray(getattr(x, "values", x), dtype=float)
    y = np.asarray(getattr(y, "values", y), dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigError("linfit expects two 1-d series of equal length")
    if len(x) < 2:
        raise DegenerateFitError("need at least 2 points")
    xm = x.mean()
    var = float(np.mean((x - xm) ** 2))
    if var == 0.0:
        raise DegenerateFitError("x is constant")
    slope = float(np.mean((x - xm) * (y - y.mean())) / var)
    intercept = float(y.mean() - slope * xm)
    resid = y - (slope * x + intercept)
    return LinearModel(slope=slope, intercept=intercept, fit_mse=float(np.mean(resid ** 2)))


# ---------------------------------------------------------------------------
# LSTM forecaster
# ---------------------------------------------------------------------------

@dataclass
class RecurrentModel:
    """Single-layer LSTM over a scalar series with a direct multi-step
    readout: the window feeds the recurrence, the final hidden state maps
    linearly to the full horizon. Input scaling (min-max of the training
    series) is stored with the model.

    params holds w, b, w_out and b_out in that order; each is a view into
    it. The gates are stacked in w and b as input, forget, output, cell,
    H rows each, and act on [x_t, h]."""

    STORED = ("hidden_size", "window", "horizon", "in_lo", "in_hi", "params")

    hidden_size: int
    window: int
    horizon: int
    params: np.ndarray | None = None
    in_lo: float = 0.0
    in_hi: float = 1.0
    train_loss: list[float] = field(default_factory=list)
    w: np.ndarray = field(init=False, repr=False)  # (4 * hidden, 1 + hidden)
    b: np.ndarray = field(init=False, repr=False)  # (4 * hidden,)
    w_out: np.ndarray = field(init=False, repr=False)  # (horizon, hidden)
    b_out: np.ndarray = field(init=False, repr=False)  # (horizon,)
    # The kernel's working arrays, one _LstmWork per (window, batch) shape.
    # Not serialized. Calls on one model must not run concurrently.
    _work: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.horizon < 1 or self.window < 1 or self.hidden_size < 1:
            raise ConfigError("hidden size, window and horizon must be >= 1")
        self.params = _param_vector(self.params, self.shapes())
        self.w, self.b, self.w_out, self.b_out = _views(self.params, self.shapes())

    def shapes(self) -> list[tuple[int, ...]]:
        hid = self.hidden_size
        return [(4 * hid, 1 + hid), (4 * hid,), (self.horizon, hid), (self.horizon,)]


def rnn_init(hidden_size: int, window: int, horizon: int, seed: int) -> RecurrentModel:
    model = RecurrentModel(hidden_size, window, horizon)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    model.w[:] = np.concatenate(
        [_glorot_uniform(rng, hidden_size, 1 + hidden_size) for _ in range(4)])
    model.b[hidden_size:2 * hidden_size] = 1.0  # forget gate: start remembering
    model.w_out[:] = _glorot_uniform(rng, horizon, hidden_size)
    return model


class _LstmWork:
    """The kernel's working arrays for one (window, batch) shape, feature
    major so that each gate is one contiguous (H, batch) block.

    u[t] = [x_t; h] (1 + H, batch) is the gate input of step t, and step t
    writes its h into u[t + 1, 1:]; gates[t] (4H, batch) holds the gate
    activations (sigmoid for input/forget/output, tanh for cell) until the
    backward pass overwrites it with the pre-activation gradient; c[t + 1]
    is the cell state after step t and tc[t] its tanh. u[0, 1:] and c[0]
    stay zero. The rest is scratch for one step or for the final sums."""

    def __init__(self, hid: int, steps: int, batch: int):
        self.u = np.zeros((steps + 1, 1 + hid, batch))
        self.gates = np.empty((steps, 4 * hid, batch))
        self.c = np.zeros((steps + 1, hid, batch))
        self.tc = np.empty((steps, hid, batch))
        self.bias = np.empty((4 * hid, batch))
        self.dh = np.empty((hid, batch))
        self.dc = np.empty((2, hid, batch))
        self.tmp = np.empty((2, hid, batch))
        self.prod = np.empty((3 * hid, batch))
        self.fac = np.empty((3 * hid, batch))
        self.g_w = np.empty((steps, 4 * hid, 1 + hid))
        self.ones = np.ones(batch)


def _rnn_forward(model: RecurrentModel, x: np.ndarray):
    """x: (batch, window) normalized. Returns (y, work) with y (batch, horizon)
    and work the model's _LstmWork for this shape, filled for the backward
    pass."""
    batch, steps = x.shape
    hid = model.hidden_size
    work = model._work.get((steps, batch))
    if work is None:
        work = model._work[(steps, batch)] = _LstmWork(hid, steps, batch)
    u, c, tc, bias, tmp = work.u, work.c, work.tc, work.bias, work.tmp[0]
    u[:steps, 0] = x.T
    bias[:] = model.b[:, None]
    for t in range(steps):
        g = work.gates[t]
        np.matmul(model.w, u[t], out=g)
        g += bias
        # sigmoid(z) = 0.5 * (1 + tanh(z / 2)) on the first 3H rows
        sig = g[:3 * hid]
        sig *= 0.5
        np.tanh(g, out=g)
        sig += 1.0
        sig *= 0.5
        c_next, tc_t = c[t + 1], tc[t]
        np.multiply(g[hid:2 * hid], c[t], out=c_next)
        np.multiply(g[:hid], g[3 * hid:], out=tmp)
        c_next += tmp
        np.tanh(c_next, out=tc_t)
        np.multiply(g[2 * hid:3 * hid], tc_t, out=u[t + 1, 1:])
    y = u[steps, 1:].T @ model.w_out.T + model.b_out
    return y, work


def rnn_loss_and_grads(model: RecurrentModel, x: np.ndarray, target: np.ndarray):
    """MSE over the horizon outputs and its gradient, a vector laid out like
    model.params, with full backpropagation through the unrolled window
    (truncation length = window length)."""
    hid = model.hidden_size
    steps = x.shape[1]
    grad = np.empty_like(model.params)
    g_w, g_b, g_wout, g_bout = _views(grad, model.shapes())
    with np.errstate(over="ignore", invalid="ignore"):
        y, work = _rnn_forward(model, x)
        u, c, tc, dh, prod, fac = work.u, work.c, work.tc, work.dh, work.prod, work.fac
        tmp, sq = work.tmp
        p_i, p_f, p_o = prod[:hid], prod[hid:2 * hid], prod[2 * hid:]
        diff = y - target
        loss = float(np.mean(diff * diff))
        dy = 2.0 * diff / diff.size
        g_wout[:] = dy.T @ u[steps, 1:].T
        g_bout[:] = dy.sum(axis=0)
        w_h = np.ascontiguousarray(model.w[:, 1:].T)
        np.matmul(model.w_out.T, dy.T, out=dh)
        dc, dc_next = work.dc
        dc.fill(0.0)
        # Step t overwrites gates[t] with dz[t], the gradient of the gate
        # pre-activations, once it has read the activations it needs:
        #   dc += dh * o * (1 - tanh(c)^2)
        #   dz_i = dc * g * i * (1 - i)     dz_f = dc * c_prev * f * (1 - f)
        #   dz_o = dh * tanh(c) * o * (1 - o)     dz_g = dc * i * (1 - g^2)
        # multiplied left to right, then dc *= f and dh = w[:, 1:]^T dz.
        for t in range(steps - 1, -1, -1):
            g = work.gates[t]
            sig, gi, gf, go, gc = (g[:3 * hid], g[:hid], g[hid:2 * hid],
                                   g[2 * hid:3 * hid], g[3 * hid:])
            tc_t = tc[t]
            np.subtract(1.0, sig, out=fac)
            np.multiply(dh, go, out=tmp)
            np.multiply(tc_t, tc_t, out=sq)
            np.subtract(1.0, sq, out=sq)
            tmp *= sq
            dc += tmp
            np.multiply(dc, gc, out=p_i)
            np.multiply(dc, c[t], out=p_f)
            np.multiply(dh, tc_t, out=p_o)
            np.multiply(gc, gc, out=sq)
            np.subtract(1.0, sq, out=sq)
            np.multiply(dc, gi, out=gc)
            gc *= sq
            np.multiply(dc, gf, out=dc_next)
            sig *= prod
            sig *= fac
            np.matmul(w_h, g, out=dh)
            dc, dc_next = dc_next, dc
        dz = work.gates
        np.matmul(dz, u[:steps].transpose(0, 2, 1), out=work.g_w)
        work.g_w.sum(axis=0, out=g_w)
        g_b[:] = (dz @ work.ones).sum(axis=0)
    return loss, grad


def make_windows(series: np.ndarray, window: int, horizon: int):
    """Sliding input windows and their following horizon targets."""
    series = np.asarray(series, dtype=float)
    n = len(series) - window - horizon + 1
    if n < 1:
        raise InsufficientDataError(
            f"series of {len(series)} samples is too short for window {window} + horizon {horizon}")
    x = np.stack([series[i:i + window] for i in range(n)])
    y = np.stack([series[i + window:i + window + horizon] for i in range(n)])
    return x, y


def rnn_train(series, window: int, horizon: int, config: TrainConfig,
              hidden_size: int = 16) -> RecurrentModel:
    """Fit the forecaster on a scalar series (raw units)."""
    series = np.asarray(getattr(series, "values", series), dtype=float)
    if len(series) <= window + horizon:
        raise InsufficientDataError(
            f"need more than window + horizon = {window + horizon} samples, got {len(series)}")
    model = rnn_init(hidden_size, window, horizon, config.seed)
    lo, hi = float(series.min()), float(series.max())
    model.in_lo, model.in_hi = lo, hi
    span = (hi - lo) or 1.0
    x, y = make_windows((series - lo) / span, window, horizon)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, 1))))
    model.train_loss = _fit(model.params, lambda xb, yb: rnn_loss_and_grads(model, xb, yb),
                            x, y, config, rng)
    return model


def rnn_predict(model: RecurrentModel, window_values) -> np.ndarray:
    """Forecast the next horizon values from one raw input window."""
    window_values = np.asarray(getattr(window_values, "values", window_values), dtype=float)
    if window_values.ndim != 1 or len(window_values) != model.window:
        raise ConfigError(f"expected a window of {model.window} values")
    span = (model.in_hi - model.in_lo) or 1.0
    norm = (window_values - model.in_lo) / span
    y, _ = _rnn_forward(model, norm[None, :])
    return y[0] * span + model.in_lo


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------

_MODEL_KINDS = {"dense": DenseNet, "lstm": RecurrentModel, "linear": LinearModel}


def save_model(model, path, train_config: TrainConfig | None = None) -> None:
    """Versioned JSON container: the model kind, its STORED fields (shape
    fields, then the flat params vector in layout order) and the training
    config used."""
    kind = next((k for k, cls in _MODEL_KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise ConfigError(f"cannot serialize model of type {type(model).__name__}")
    doc = {"format": MODEL_FORMAT, "version": MODEL_VERSION, "kind": kind,
           "train_config": None if train_config is None else asdict(train_config)}
    for name in model.STORED:
        value = getattr(model, name)
        doc[name] = value.tolist() if isinstance(value, np.ndarray) else value
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT:
        raise ConfigError(f"{path}: not a model file")
    if doc.get("version") != MODEL_VERSION:
        raise ConfigError(f"{path}: unsupported model version {doc.get('version')}")
    cls = _MODEL_KINDS.get(doc.get("kind"))
    if cls is None:
        raise ConfigError(f"{path}: unknown model kind {doc.get('kind')!r}")
    fields = {name: doc[name] for name in cls.STORED}
    if "params" in fields:
        fields["params"] = np.asarray(fields["params"], dtype=float)
    return cls(**fields)
