"""Numerical learners used by Analyze steps, written on plain numpy.

Three model families: dense feed-forward stacks (the telemetry compressor),
ordinary least squares, and a single-layer LSTM forecaster with a direct
multi-horizon readout. Gradients are hand-derived reverse mode; the test
suite checks them against central finite differences.

The train step runs on preallocated memory: each model keeps its kernel's
working arrays per batch shape (_DenseWork, _LstmWork), and Adam updates
through a reused scratch vector and the spent gradient; a warm step allocates
little more than the gradient vector it returns. The LSTM step does the work
that does not depend on the recurrence once per window, not once per
timestep: the backward factors 1 - sigmoid (input, forget and output gates),
1 - tanh(c)^2 and 1 - g^2 (cell input) are whole-window arrays, and the
sigmoid's z / 2 lives in per-call copies of the gate weights and bias whose
sigmoid rows are halved. Both kernels loop over tuples of views that their
work builds once per shape, per layer for the dense kernel and per timestep
for the LSTM, so the loops slice none of the working arrays. Every
elementwise operation keeps the operand order of the textbook formulas, so
results are bit-identical to evaluating them with fresh temporaries. The
halving keeps that exact on one condition: no weight, bias or partial
product of a sigmoid row is subnormal.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, TrainingDivergedError

MODEL_FORMAT = "loopsim-model"
MODEL_VERSION = 2


class DegenerateFitError(ConfigError):
    pass


class InsufficientDataError(ConfigError):
    pass


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def _elu(z: np.ndarray, tmp: np.ndarray) -> None:
    # alpha = 1, branch-free and in place: max(z, 0) + expm1(min(z, 0))
    np.minimum(z, 0.0, out=tmp)
    np.expm1(tmp, out=tmp)
    np.maximum(z, 0.0, out=z)
    z += tmp


def _elu_grad(g: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    # elu'(z) = min(out, 0) + 1, since out > 0 exactly when z > 0
    np.minimum(out, 0.0, out=tmp)
    tmp += 1.0
    g *= tmp


def _sigmoid(z: np.ndarray, tmp: np.ndarray) -> None:
    # The tanh form never overflows: exact 0.5 at 0, 0 and 1 at -inf and +inf.
    z /= 2.0
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5


def _sigmoid_grad(g: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    np.subtract(1.0, out, out=tmp)
    tmp *= out
    g *= tmp


# Per activation: (apply it to z in place, multiply g in place by its
# derivative given the activation's output); tmp is scratch shaped like z.
_ACTIVATIONS = {
    "elu": (_elu, _elu_grad),
    "linear": (lambda z, tmp: None, lambda g, out, tmp: None),
    "sigmoid": (_sigmoid, _sigmoid_grad),
}


def _activated(name: str, x) -> np.ndarray:
    z = np.array(x, dtype=float)
    _ACTIVATIONS[name][0](z, np.empty_like(z))
    return z


def elu(x: np.ndarray) -> np.ndarray:
    return _activated("elu", x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return _activated("sigmoid", x)


# ---------------------------------------------------------------------------
# Flat parameter vectors
# ---------------------------------------------------------------------------

def _spans(shapes) -> list[tuple[slice, tuple[int, ...]]]:
    """Where each shape's block sits in a flat vector laid out in order."""
    out = []
    start = 0
    for shape in shapes:
        size = math.prod(shape)
        out.append((slice(start, start + size), shape))
        start += size
    return out


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive reshaped views of a flat vector, one per shape."""
    spans = _spans(shapes)
    total = spans[-1][0].stop
    if flat.shape != (total,):
        raise ConfigError(f"expected a flat vector of {total} parameters, "
                          f"got shape {flat.shape}")
    return [flat[span].reshape(shape) for span, shape in spans]


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
    # The training kernel's working arrays, one _DenseWork per batch size.
    # Not serialized. Calls on one net must not run concurrently.
    _work: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def ae_init(seed: int, width: int = 111) -> DenseNet:
    """The telemetry compressor for frames of a width: 111 -> 90 -> 85 -> 75 -> 90 -> 111
    at the testbed's 111, the same ratios (inner widths at least 2) at another. The
    encoder is layers 1-3; the sigmoid output matches inputs normalized to [0, 1]."""
    a, b, c = (max(2, int(round(f * width))) for f in (90 / 111, 85 / 111, 75 / 111))
    net = net_init((width, a, b, c, a, width), ("elu", "elu", "linear", "elu", "sigmoid"), seed)
    net.encoder_layers = 3  # the c-wide layer, also where the rounded widths tie
    return net


def _forward(net: DenseNet, x, start: int, stop: int) -> np.ndarray:
    """Layers start..stop-1 of net on x, one vector or a batch of rows: the model's
    input when start is 0, else its code. Another width or a non-finite value is refused."""
    arr = np.asarray(x, dtype=float)
    h = arr[None, :] if arr.ndim == 1 else arr
    what, model = ("input", "model") if start == 0 else ("code", "model code")
    if h.ndim != 2 or h.shape[1] != net.widths[start]:
        raise ConfigError(f"{what} width {h.shape[-1]} != {model} width {net.widths[start]}")
    if not np.all(np.isfinite(h)):
        raise ConfigError(f"non-finite {what}")
    for layer in net.layers[start:stop]:
        z = h @ layer.weights.T
        z += layer.bias
        _ACTIVATIONS[layer.activation][0](z, np.empty_like(z))
        h = z
    return h[0] if arr.ndim == 1 else h


def ae_forward(net: DenseNet, x) -> np.ndarray:
    """Full reconstruction pass; accepts one vector or a batch."""
    return _forward(net, x, 0, len(net.layers))


def encode(net: DenseNet, x) -> np.ndarray:
    return _forward(net, x, 0, net.encoder_layers)


def decode(net: DenseNet, code) -> np.ndarray:
    return _forward(net, code, net.encoder_layers, len(net.layers))


class _DenseWork:
    """The dense kernel's working arrays for one batch size, per layer
    (batch, fan_out) each: acts[i] holds the layer's pre-activation, then
    its activation in place; grads[i] the loss gradient at its output, then
    at its pre-activation in place; tmp[i] is scratch. spans are the
    (slice, shape) of each weight and bias in the params layout.

    The per-layer tuples the kernel loops over are built here, once:
    fwd_layers holds (acts[i], tmp[i], activation) in layer order; bwd_layers
    holds (i, grads[i], acts[i], tmp[i], derivative, the layer's input
    activation, the gradient at that input) in reverse order, the last two
    None for layer 0, whose input is the call's x and whose input gradient
    is not needed. The weights are not bound here: the kernel reads them
    from net.layers on every call."""

    def __init__(self, net: DenseNet, batch: int):
        self.acts = [np.empty((batch, w)) for w in net.widths[1:]]
        self.grads = [np.empty((batch, w)) for w in net.widths[1:]]
        self.tmp = [np.empty((batch, w)) for w in net.widths[1:]]
        self.spans = _spans(net.shapes())
        fns = [_ACTIVATIONS[layer.activation] for layer in net.layers]
        self.fwd_layers = [(z, scratch, fn[0])
                           for z, scratch, fn in zip(self.acts, self.tmp, fns)]
        self.bwd_layers = [(i, self.grads[i], self.acts[i], self.tmp[i], fns[i][1],
                            self.acts[i - 1] if i else None, self.grads[i - 1] if i else None)
                           for i in range(len(fns) - 1, -1, -1)]


def mse_loss_and_grads(net: DenseNet, x: np.ndarray, target: np.ndarray):
    """Mean-squared-error loss over all elements and its gradient, a vector
    laid out like net.params, by reverse-mode differentiation through every
    layer. Overflow is left to produce non-finite values (the trainers
    report those as divergence)."""
    work = net._work.get(len(x))
    if work is None:
        work = net._work[len(x)] = _DenseWork(net, len(x))
    layers = net.layers
    grad = np.empty_like(net.params)
    grad_views = [grad[span].reshape(shape) for span, shape in work.spans]
    with np.errstate(over="ignore", invalid="ignore"):
        h = x
        for layer, (z, scratch, activate) in zip(layers, work.fwd_layers):
            np.matmul(h, layer.weights.T, out=z)
            z += layer.bias
            activate(z, scratch)
            h = z
        diff, sq = work.grads[-1], work.tmp[-1]
        np.subtract(h, target, out=diff)
        np.multiply(diff, diff, out=sq)
        # np.mean's own sum and division, without its dispatch
        loss = float(np.add.reduce(sq, axis=None) / sq.size)
        diff *= 2.0
        diff /= diff.size
        for i, gz, out, scratch, derive, h_in, g_in in work.bwd_layers:
            derive(gz, out, scratch)
            np.matmul(gz.T, x if h_in is None else h_in, out=grad_views[2 * i])
            np.add.reduce(gz, 0, out=grad_views[2 * i + 1])
            if g_in is not None:
                np.matmul(gz, layers[i].weights, out=g_in)
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

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")


# A config's train section: TrainConfig's own defaults; the master seed gives the seed.
TRAIN_TABLE = {f.name: f.default for f in fields(TrainConfig) if f.name != "seed"}


class _Optimizer:
    """Applies Adam (beta1=0.9, beta2=0.999, eps=1e-8) updates to a flat
    parameter vector, in place, through one reused scratch vector."""

    def __init__(self, params: np.ndarray, config: TrainConfig):
        self.params = params
        self.lr = config.learning_rate
        self.step_buf = np.empty_like(params)
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        """One update from grad, which it consumes: grad holds sqrt(v) + eps
        afterwards."""
        step = self.step_buf
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        correction = math.sqrt(1.0 - b2 ** self.t) / (1.0 - b1 ** self.t)
        # m, v and params as in m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g
        # and params -= lr * correction * m / (sqrt(v) + eps), evaluated in
        # that operand order.
        self.m *= b1
        np.multiply(1 - b1, grad, out=step)
        self.m += step
        self.v *= b2
        np.multiply(1 - b2, grad, out=step)
        step *= grad
        self.v += step
        np.multiply(self.lr * correction, self.m, out=step)
        np.sqrt(self.v, out=grad)
        grad += eps
        step /= grad
        self.params -= step


def _fit(params: np.ndarray, loss_and_grads, x: np.ndarray, y: np.ndarray,
         config: TrainConfig, rng: np.random.Generator) -> list[float]:
    """Minibatch training of params in place. Returns one loss per epoch: the
    sample-weighted mean of the pre-update batch losses, i.e. total squared
    error over the epoch divided by total target elements. When y is x (an
    autoencoder), each batch is gathered once and is its own target."""
    opt = _Optimizer(params, config)
    history: list[float] = []
    for epoch in range(config.epochs):
        sse = 0.0
        count = 0
        order = rng.permutation(len(x))
        for start in range(0, len(x), config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = x[idx]
            target = batch if y is x else y[idx]
            loss, grad = loss_and_grads(batch, target)
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
    if not np.all(np.isfinite(data01)):
        raise ConfigError("non-finite training data")
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
    excluded: int  # samples with |real| < ERROR_EPS, reported separately


ERROR_EPS = 1e-6  # samples with |real| below this have no relative error
ERROR_BINS = 40
ERROR_RANGE = (-2.0, 2.0)


def relative_error_distribution(real, recon, threshold: float) -> ErrorDistribution:
    """Per-sample relative error (real - recon) / real.

    Samples with |real| < ERROR_EPS are excluded from the fraction and
    counted separately. fraction_below is the share of included samples with
    |error| strictly below the threshold. The histogram has ERROR_BINS bins
    and clips errors into ERROR_RANGE so the tails stay visible in the edge
    bins.
    """
    real = np.asarray(real, dtype=float)
    recon = np.asarray(recon, dtype=float)
    if real.shape != recon.shape:
        raise ConfigError(f"length mismatch: {real.shape} vs {recon.shape}")
    keep = np.abs(real) >= ERROR_EPS
    eta = (real[keep] - recon[keep]) / real[keep]
    included = int(keep.sum())
    fraction = float(np.mean(np.abs(eta) < threshold)) if included else 0.0
    clipped = np.clip(eta, *ERROR_RANGE)
    hist, edges = np.histogram(clipped, bins=ERROR_BINS, range=ERROR_RANGE)
    return ErrorDistribution(fraction_below=fraction, histogram=hist, bin_edges=edges,
                             included=included, excluded=int(real.size - included))


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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
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
    stay zero.

    Each call copies the weights in. w and bias (b broadcast over the
    batch) have their first 3H rows halved, so the gate pre-activation
    holds z / 2 on the sigmoid rows and one tanh gives
    sigmoid(z) = 0.5 * (1 + tanh(z / 2)); halving is exact, so w u / 2 +
    b / 2 equals (w u + b) / 2 bit for bit unless a weight, bias or partial
    product is subnormal. w_h is w[:, 1:]^T, unhalved, for the backward
    pass.

    The backward factors that do not depend on the recurrence are
    whole-window arrays, filled once per call before the backward loop
    overwrites the activations: d_sig[t] = 1 - sigmoid on the 3H sigmoid
    rows, d_tc[t] = 1 - tanh(c)^2 and d_g[t] = 1 - g^2 for the cell input g.
    The rest is scratch for one step or for the final sums; spans are the
    (slice, shape) of w, b, w_out and b_out in the params layout.

    The views the step loops read and write are built here, once, into
    this work's own arrays only. fwd_steps has one tuple per timestep in
    forward order: u[t], gates[t], its 3H sigmoid rows and its i, f, o and
    g blocks, c[t], c[t + 1], tc[t] and u[t + 1, 1:]. bwd_steps has one per
    timestep in reverse order: the same six gate views, d_tc[t], c[t],
    tc[t], d_g[t], d_sig[t] and whether t is 0."""

    def __init__(self, model: RecurrentModel, steps: int, batch: int):
        hid = model.hidden_size
        self.u = np.zeros((steps + 1, 1 + hid, batch))
        self.gates = np.empty((steps, 4 * hid, batch))
        self.c = np.zeros((steps + 1, hid, batch))
        self.tc = np.empty((steps, hid, batch))
        self.w = np.empty((4 * hid, 1 + hid))
        self.bias = np.empty((4 * hid, batch))
        self.w_h = np.empty((hid, 4 * hid))
        self.d_sig = np.empty((steps, 3 * hid, batch))
        self.d_tc = np.empty((steps, hid, batch))
        self.d_g = np.empty((steps, hid, batch))
        self.dh = np.empty((hid, batch))
        self.dc = np.empty((2, hid, batch))
        self.tmp = np.empty((hid, batch))
        self.prod = np.empty((3 * hid, batch))
        self.g_w = np.empty((steps, 4 * hid, 1 + hid))
        self.g_b = np.empty((steps, 4 * hid))
        self.ones = np.ones(batch)
        self.spans = _spans(model.shapes())
        self.fwd_steps = []
        self.bwd_steps = []
        for t in range(steps):
            g = self.gates[t]
            blocks = (g, g[:3 * hid], g[:hid], g[hid:2 * hid], g[2 * hid:3 * hid], g[3 * hid:])
            self.fwd_steps.append((self.u[t], *blocks, self.c[t], self.c[t + 1], self.tc[t],
                                   self.u[t + 1, 1:]))
            self.bwd_steps.append((*blocks, self.d_tc[t], self.c[t], self.tc[t], self.d_g[t],
                                   self.d_sig[t], t == 0))
        self.bwd_steps.reverse()


def _rnn_forward(model: RecurrentModel, x: np.ndarray):
    """x: (batch, window) normalized. Returns (y, work) with y (batch, horizon)
    and work the model's _LstmWork for this shape, filled for the backward
    pass."""
    batch, steps = x.shape
    hid = model.hidden_size
    work = model._work.get((steps, batch))
    if work is None:
        work = model._work[(steps, batch)] = _LstmWork(model, steps, batch)
    u, w, bias, tmp = work.u, work.w, work.bias, work.tmp
    u[:steps, 0] = x.T
    w[:] = model.w
    w[:3 * hid] *= 0.5
    bias[:] = model.b[:, None]
    bias[:3 * hid] *= 0.5
    for u_t, g, sig, gi, gf, go, gc, c_prev, c_next, tc_t, h_next in work.fwd_steps:
        np.matmul(w, u_t, out=g)
        g += bias
        # the sigmoid rows hold z / 2, so sigmoid(z) = 0.5 * (1 + tanh(g))
        np.tanh(g, out=g)
        sig += 1.0
        sig *= 0.5
        np.multiply(gf, c_prev, out=c_next)
        np.multiply(gi, gc, out=tmp)
        c_next += tmp
        np.tanh(c_next, out=tc_t)
        np.multiply(go, tc_t, out=h_next)
    y = u[steps, 1:].T @ model.w_out.T + model.b_out
    return y, work


def rnn_loss_and_grads(model: RecurrentModel, x: np.ndarray, target: np.ndarray):
    """MSE over the horizon outputs and its gradient, a vector laid out like
    model.params, with full backpropagation through the unrolled window
    (truncation length = window length)."""
    hid = model.hidden_size
    steps = x.shape[1]
    grad = np.empty_like(model.params)
    with np.errstate(over="ignore", invalid="ignore"):
        y, work = _rnn_forward(model, x)
        g_w, g_b, g_wout, g_bout = (grad[span].reshape(shape) for span, shape in work.spans)
        u, tc, gates, dh, tmp = work.u, work.tc, work.gates, work.dh, work.tmp
        d_sig, d_tc, d_g, prod = work.d_sig, work.d_tc, work.d_g, work.prod
        p_i, p_f, p_o = prod[:hid], prod[hid:2 * hid], prod[2 * hid:]
        diff = y - target
        loss = float(np.mean(diff * diff))
        dy = 2.0 * diff / diff.size
        g_wout[:] = dy.T @ u[steps, 1:].T
        g_bout[:] = dy.sum(axis=0)
        w_h = work.w_h
        w_h[:] = model.w[:, 1:].T
        np.matmul(model.w_out.T, dy.T, out=dh)
        # Copied out first: a ufunc over the strided gate rows would allocate
        # numpy's iteration buffers on every call.
        d_sig[:] = gates[:, :3 * hid]
        np.subtract(1.0, d_sig, out=d_sig)
        np.multiply(tc, tc, out=d_tc)
        np.subtract(1.0, d_tc, out=d_tc)
        d_g[:] = gates[:, 3 * hid:]
        np.multiply(d_g, d_g, out=d_g)
        np.subtract(1.0, d_g, out=d_g)
        dc, dc_next = work.dc
        dc.fill(0.0)
        # Step t overwrites gates[t] with dz[t], the gradient of the gate
        # pre-activations, once it has read the activations it needs:
        #   dc += dh * o * (1 - tanh(c)^2)
        #   dz_i = dc * g * i * (1 - i)     dz_f = dc * c_prev * f * (1 - f)
        #   dz_o = dh * tanh(c) * o * (1 - o)     dz_g = dc * i * (1 - g^2)
        # multiplied left to right, then dc *= f and dh = w[:, 1:]^T dz. At
        # t = 0 dh is not computed: the state before the window is constant.
        for g, sig, gi, gf, go, gc, d_tc_t, c_prev, tc_t, d_g_t, d_sig_t, first in work.bwd_steps:
            np.multiply(dh, go, out=tmp)
            tmp *= d_tc_t
            dc += tmp
            np.multiply(dc, gc, out=p_i)
            np.multiply(dc, c_prev, out=p_f)
            np.multiply(dh, tc_t, out=p_o)
            np.multiply(dc, gi, out=gc)
            gc *= d_g_t
            np.multiply(dc, gf, out=dc_next)
            sig *= prod
            sig *= d_sig_t
            if not first:
                np.matmul(w_h, g, out=dh)
            dc, dc_next = dc_next, dc
        np.matmul(gates, u[:steps].transpose(0, 2, 1), out=work.g_w)
        work.g_w.sum(axis=0, out=g_w)
        np.matmul(gates, work.ones, out=work.g_b)
        work.g_b.sum(axis=0, out=g_b)
    return loss, grad


def make_windows(series: np.ndarray, window: int, horizon: int):
    """Sliding input windows and their following horizon targets."""
    series = np.asarray(series, dtype=float)
    n = len(series) - window - horizon + 1
    if n < 1:
        raise InsufficientDataError(
            f"series of {len(series)} samples is too short for window {window} + horizon {horizon}")
    windows = np.lib.stride_tricks.sliding_window_view
    x = windows(series[:n + window - 1], window).copy()
    y = windows(series[window:], horizon).copy()
    return x, y


def rnn_train(series, window: int, horizon: int, config: TrainConfig,
              hidden_size: int = 16) -> RecurrentModel:
    """Fit the forecaster on a scalar series (raw units)."""
    series = np.asarray(series, dtype=float)
    if len(series) <= window + horizon:
        raise InsufficientDataError(
            f"need more than window + horizon = {window + horizon} samples, got {len(series)}")
    if not np.all(np.isfinite(series)):
        raise ConfigError("non-finite training series")
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
    window_values = np.asarray(window_values, dtype=float)
    if window_values.ndim != 1 or len(window_values) != model.window:
        raise ConfigError(f"expected a window of {model.window} values")
    if not np.all(np.isfinite(window_values)):
        raise ConfigError("non-finite input")
    span = (model.in_hi - model.in_lo) or 1.0
    norm = (window_values - model.in_lo) / span
    y, _ = _rnn_forward(model, norm[None, :])
    return y[0] * span + model.in_lo


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------

_MODEL_KINDS = {"dense": DenseNet, "lstm": RecurrentModel, "linear": LinearModel}


_CHUNK = 256  # params rendered per write


def save_model(model, path, train_config: TrainConfig | None = None) -> None:
    """Versioned JSON container: the model kind, its STORED fields (shape
    fields, then the flat params vector in layout order) and the training
    config used. The file is what json.dump(doc, sort_keys=True, indent=1)
    writes of it, then a newline; the params vector is written a chunk at a
    time, never as one list."""
    kind = next((k for k, cls in _MODEL_KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise ConfigError(f"cannot serialize model of type {type(model).__name__}")
    doc = {"format": MODEL_FORMAT, "version": MODEL_VERSION, "kind": kind,
           "train_config": None if train_config is None else asdict(train_config),
           **{name: getattr(model, name) for name in model.STORED}}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, key in enumerate(sorted(doc)):
            fh.write(f"{',' if i else '{'}\n {json.dumps(key)}: ")
            value = doc[key]
            if isinstance(value, np.ndarray):
                _write_json_list(fh, value)
            else:  # json escapes every newline inside a string
                fh.write(json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n "))
        fh.write("\n}\n")


def _write_json_list(fh, values: np.ndarray) -> None:
    """A 1-D array as json.dump(indent=1) writes its list one level deep."""
    if values.size == 0:
        fh.write("[]")
        return
    sep = ",\n  "
    fh.write("[\n  ")
    for start in range(0, values.size, _CHUNK):
        chunk = json.dumps(values[start:start + _CHUNK].tolist(), separators=(sep, ": "))
        if start:
            fh.write(sep)
        fh.write(chunk[1:-1])
    fh.write("\n ]")


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
