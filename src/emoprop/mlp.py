"""Dense multilabel regressor: ReLU hidden layers, linear 26-unit output.

Two presets: "base" is a single affine map from the embedding to the 26
annotation dimensions; "deep" inserts hidden layers of 4096, 1024 and 256
units with 20% inverted dropout after the first two.  The training loss is
the fraction of variance unexplained (FVU), averaged over output
dimensions and computed per mini-batch; a dimension whose batch target
variance is below 1e-12 contributes plain mean squared error instead.
Optimization is Adam with early stopping on validation loss.

Precision: `train_mlp` runs forward, backward and Adam in float32, so a
trained model's weights, activations, Adam moments and checkpoints are
float32.  The FVU loss and its gradient are computed in float64, and the
gradient is cast to the output's dtype before backprop.  `init_model`
returns float64 parameters, and every pass follows the parameters' dtype,
so the finite-difference gradient oracles run in float64.  Inputs and
training targets are checked in float64 (finite, within float32's range
for training, within the parameters' range for a forward pass) before
any cast.

Memory layout: a model's parameters live in one flat buffer, laid out
w0, b0, w1, b1, ... as in a checkpoint, and each weight and bias is a
reshaped view into it.  `train_mlp` keeps both Adam moments and the
best-epoch copy in three more buffers of the same layout, four in all, and
no gradient buffer: backprop computes each layer's gradients in slabs of
about `SLAB_SIZE` elements, and Adam applies each slab to the same region
of the parameters and moments, in blocks of `BLOCK_SIZE` elements through
one block-sized scratch; Adam's first pass over each moment reads no
gradient, so a step makes it over the whole moment buffers before its
backward pass.  A model of one slab (the base regressor) has one slab
scratch and applies it on the calling thread.  A model of more has two,
and Adam runs on one worker thread: while it applies the slab in one
scratch, backprop computes the next slab into the other.  A slab of a
weight gradient holds whole rows, at least two, so it runs as a matrix
product with the same sums per element as the full product, and Adam is
elementwise: every element sees the same float32 operations in the same
order as a per-array update after a full backward pass, and the bits do
not depend on the layout, the slab size, the block size or the thread.
The forward pass applies ReLU and dropout in place on each pre-activation.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .graph import NUM_DIMENSIONS

if TYPE_CHECKING:
    from concurrent.futures import Future

VARIANT_HIDDEN = {"base": (), "deep": (4096, 1024, 256)}

VARIANCE_EPS = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
TRAIN_DTYPE = np.float32
# elements per block of the flat buffers: a block of parameters, gradients,
# both moments and the scratch (640 KB in float32) stays in cache
BLOCK_SIZE = 1 << 15
# elements per weight-gradient slab that backprop hands to Adam at once:
# four blocks (512 KB in float32), so the two scratches of a model of
# several slabs hold 1 MB; one-block slabs split the deep net's largest
# weight gradient into many small products that ran slower
SLAB_SIZE = 4 * BLOCK_SIZE

CHECKPOINT_MAGIC = b"EMLPCKPT"
CHECKPOINT_VERSION = 1


class MLPError(ValueError):
    """Invalid regressor configuration, shapes or training state."""


@dataclass
class MLPConfig:
    variant: str = "base"
    input_dim: int = 300
    hidden_dims: tuple[int, ...] | None = None
    dropout: float = 0.2
    patience: int = 30
    max_epochs: int = 1000
    batch_size: int = 256
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in VARIANT_HIDDEN:
            raise MLPError(f"unknown variant {self.variant!r}")
        if self.input_dim < 1:
            raise MLPError("input_dim must be >= 1")
        if self.hidden_dims is not None:
            self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
            if any(h < 1 for h in self.hidden_dims):
                raise MLPError("hidden layer sizes must be >= 1")
            if self.variant == "base" and self.hidden_dims:
                raise MLPError("base variant has no hidden layers")
        if not 0.0 <= self.dropout < 1.0:
            raise MLPError("dropout must be in [0, 1)")
        if self.patience < 1:
            raise MLPError("patience must be >= 1")
        if self.max_epochs < 1:
            raise MLPError("max_epochs must be >= 1")
        if self.batch_size < 2:
            raise MLPError("batch_size must be >= 2")
        if not 0.0 < self.learning_rate < math.inf:
            raise MLPError("learning_rate must be a positive finite number")
        if self.seed < 0:
            raise MLPError("seed must be non-negative")

    def resolved_hidden(self) -> tuple[int, ...]:
        if self.hidden_dims is not None:
            return self.hidden_dims
        return VARIANT_HIDDEN[self.variant]

    def layer_dims(self) -> list[tuple[int, int]]:
        sizes = [self.input_dim, *self.resolved_hidden(), NUM_DIMENSIONS]
        return list(zip(sizes[:-1], sizes[1:]))

    def dropout_layers(self) -> set[int]:
        """Hidden-layer indices followed by dropout: the first two."""
        n_hidden = len(self.resolved_hidden())
        return {i for i in range(min(2, n_hidden)) if self.dropout > 0.0}

    def num_parameters(self) -> int:
        return sum(fan_in * fan_out + fan_out for fan_in, fan_out in self.layer_dims())


@dataclass
class MLPModel:
    config: MLPConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class TrainReport:
    epochs_run: int
    best_epoch: int
    best_val_loss: float
    train_history: list[float] = field(default_factory=list)
    val_history: list[float] = field(default_factory=list)


def _param_views(cfg: MLPConfig, flat: np.ndarray) -> tuple[list, list]:
    """Weight and bias views into `flat`, laid out w0, b0, w1, b1, ..."""
    weights = []
    biases = []
    offset = 0
    for fan_in, fan_out in cfg.layer_dims():
        weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(flat[offset : offset + fan_out])
        offset += fan_out
    return weights, biases


def _init_into(cfg: MLPConfig, flat: np.ndarray) -> MLPModel:
    """`init_model` writing into the zeroed flat buffer `flat`.

    Each block of a weight takes its doubles from the stream into a
    float64 scratch and is then rounded into `flat`'s dtype: the values
    `rng.uniform(-bound, bound, size)` would give, cast as `astype` would.
    """
    rng = np.random.default_rng(cfg.seed)
    dims = cfg.layer_dims()
    weights, biases = _param_views(cfg, flat)
    scratch = np.empty(min(BLOCK_SIZE, flat.size), dtype=np.float64)
    for li, ((fan_in, fan_out), w) in enumerate(zip(dims, weights)):
        if li < len(dims) - 1:
            bound = np.sqrt(6.0 / fan_in)
        else:
            bound = np.sqrt(6.0 / (fan_in + fan_out))
        flat_w = w.reshape(-1)
        for start in range(0, flat_w.size, BLOCK_SIZE):
            buf = scratch[: min(BLOCK_SIZE, flat_w.size - start)]
            # uniform(low, high) is low + (high - low) * random()
            rng.random(out=buf)
            buf *= 2.0 * bound
            buf += -bound
            flat_w[start : start + buf.size] = buf
    return MLPModel(config=cfg, weights=weights, biases=biases)


def init_model(cfg: MLPConfig) -> MLPModel:
    """He-uniform init for ReLU layers, Glorot-uniform for the linear
    output, zero biases, as float64 parameters in one flat buffer."""
    return _init_into(cfg, np.zeros(cfg.num_parameters()))


def _check_rows(name: str, arr: np.ndarray, dtype) -> None:
    """Refuse the first row of the float64 `arr` holding NaN, inf or a
    finite value beyond `dtype`'s range, which a cast would turn into inf."""
    bad = ~(np.abs(arr) <= np.finfo(dtype).max).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        if np.isfinite(arr[row]).all():
            raise MLPError(f"{name} at row {row} exceed the {np.dtype(dtype).name} range")
        raise MLPError(f"non-finite {name} at row {row}")


def _check_input(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """The 2-D batch `x` in the parameters' dtype."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise MLPError(
            f"input shape mismatch: expected (n, {model.config.input_dim}), got {x.shape}"
        )
    dtype = model.weights[0].dtype
    _check_rows("input", x, dtype)
    return x.astype(dtype, copy=False)


def _forward(
    model: MLPModel, x: np.ndarray, masks: list[np.ndarray | None] | None
) -> list[np.ndarray]:
    """Every layer's activations, input first and output last, for backprop.

    Each hidden layer's ReLU and dropout run in place on its
    pre-activation, so an activation is positive exactly where the
    pre-activation is positive and the mask (0 or 1/(1-p) >= 1) keeps it.
    masks[i] is the inverted-dropout mask applied after hidden layer i's
    ReLU (None for no dropout); passing fixed masks keeps the whole pass
    deterministic for finite-difference checks.
    """
    n_layers = len(model.weights)
    activations = [x]
    for li, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = activations[-1] @ w
        h += b
        if li < n_layers - 1:
            np.maximum(h, 0.0, out=h)
            if masks is not None and masks[li] is not None:
                h *= masks[li]
        activations.append(h)
    return activations


def make_dropout_masks(
    cfg: MLPConfig, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray | None]:
    """float32 inverted-dropout masks: 0 or 1/(1-p), computed in float64.

    Each layer's uniforms are drawn a block at a time into one float64
    scratch of `BLOCK_SIZE` elements, the same doubles in the same stream
    order as one draw per layer, and compared straight into the layer's
    mask, so a call allocates little beyond the masks it returns, and
    nothing when no layer drops out.
    """
    hidden = cfg.resolved_hidden()
    active = cfg.dropout_layers()
    if not active:
        return [None] * len(hidden)
    kept = np.float32(1.0 / (1.0 - cfg.dropout))
    draws = np.empty(min(BLOCK_SIZE, batch_size * max(hidden[li] for li in active)))
    masks: list[np.ndarray | None] = []
    for li, width in enumerate(hidden):
        if li in active:
            mask = np.empty(batch_size * width, dtype=np.float32)
            for lo in range(0, mask.size, BLOCK_SIZE):
                u = rng.random(out=draws[: min(BLOCK_SIZE, mask.size - lo)])
                # the comparison's 0 or 1, times kept: 0 or 1/(1-p)
                np.greater_equal(u, cfg.dropout, out=mask[lo : lo + u.size])
            mask *= kept
            masks.append(mask.reshape(batch_size, width))
        else:
            masks.append(None)
    return masks


def predict(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """Eval-mode forward pass (no dropout) of an (n, input_dim) batch."""
    return _forward(model, _check_input(model, x), None)[-1]


def binarize(y: np.ndarray) -> np.ndarray:
    """Label j is active iff y_j >= 0.5."""
    return np.asarray(y) >= 0.5


def _fvu_denominators(target: np.ndarray) -> np.ndarray:
    """Per-dimension FVU denominators of float64 ``target`` rows: SS_tot,
    or the row count n (MSE) for a dimension whose variance is below
    VARIANCE_EPS."""
    n = target.shape[0]
    # np.mean's arithmetic (sum, then divide) without its overhead
    ss_tot = np.add.reduce(np.square(target - np.add.reduce(target, axis=0) / n), axis=0)
    return np.where(ss_tot / n < VARIANCE_EPS, n, ss_tot)


def _fvu_parts(
    pred: np.ndarray, target: np.ndarray, denom: np.ndarray | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """FVU loss, float64 residuals pred - target and the denominators;
    ``denom`` is the target's `_fvu_denominators`, when the caller keeps
    them."""
    pred = np.asarray(pred)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 2:
        raise MLPError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    if pred.shape[0] < 2:
        raise MLPError("FVU needs a batch of at least 2 samples")
    if denom is None:
        denom = _fvu_denominators(target)
    resid = np.subtract(pred, target, dtype=np.float64)
    ss_res = np.add.reduce(np.square(resid), axis=0)
    return float(np.add.reduce(ss_res / denom) / denom.size), resid, denom


def fvu_loss(pred: np.ndarray, target: np.ndarray, denom: np.ndarray | None = None) -> float:
    """`fvu_loss_and_grad`'s loss, without the gradient."""
    return _fvu_parts(pred, target, denom)[0]


def fvu_loss_and_grad(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over dimensions of SS_res/SS_tot, with an MSE fallback for
    batch-constant target dimensions; gradient is w.r.t. pred, in float64."""
    loss, resid, denom = _fvu_parts(pred, target)
    # scaled twice, as (2/dims) * resid * (1/denom); one division by
    # denom * dims / 2 would round differently
    resid *= 2.0 / denom.size
    resid *= 1.0 / denom
    return loss, resid


def _slab_rows(fan_in: int, fan_out: int) -> list[tuple[int, int]]:
    """Row ranges of a fan_in x fan_out weight's gradient slabs, about
    SLAB_SIZE elements each.  A one-row or one-column product runs as a
    matrix-vector product, whose sums round differently from the full
    matrix product's, so a slab has at least two rows (a trailing single
    row joins the slab before it) and a one-column weight is one slab."""
    rows = fan_in if fan_out == 1 else max(2, SLAB_SIZE // fan_out)
    edges = [*range(0, fan_in, rows), fan_in]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _backward_layout(model: MLPModel) -> tuple[list[int], list, list[np.ndarray]]:
    """What `_backward` needs besides the batch, fixed by the layer shapes:
    where each layer's weight starts in the flat layout, its `_slab_rows`,
    and the scratches of the parameters' dtype that hold any slab, with
    the bias after a layer's last slab: one for a model of one slab, two
    for a model of more, so that backprop can write one slab while the
    other is applied on a worker thread."""
    weights = model.weights
    starts = [0]
    for w in weights:
        starts.append(starts[-1] + w.size + w.shape[1])
    plans = [_slab_rows(*w.shape) for w in weights]
    size = max((e - r + 1) * w.shape[1] for w, plan in zip(weights, plans) for r, e in plan)
    n_scratch = 1 if sum(map(len, plans)) == 1 else 2
    scratches = [np.empty(size, dtype=weights[0].dtype) for _ in range(n_scratch)]
    return starts, plans, scratches


class _SlabWorker:
    """One worker thread that runs the calls handed to it in order;
    `drain` waits for every call handed over since the last drain and
    raises the first exception one of them raised."""

    def __init__(self) -> None:
        # imported here, as concurrent.futures loads logging: a run that
        # trains no model of several slabs does not pay for it
        from concurrent.futures import ThreadPoolExecutor

        self._pool = ThreadPoolExecutor(max_workers=1)
        self.in_flight: list[Future] = []

    def submit(self, fn, *args) -> Future:
        self.in_flight.append(self._pool.submit(fn, *args))
        return self.in_flight[-1]

    def drain(self) -> None:
        in_flight, self.in_flight = self.in_flight, []
        for future in in_flight:
            future.result()

    def shutdown(self) -> None:
        """Cancel the calls not yet started and join the thread."""
        self._pool.shutdown(cancel_futures=True)


def _backward(
    model: MLPModel,
    activations: list[np.ndarray],
    masks: list[np.ndarray | None] | None,
    d_out: np.ndarray,
    consume,
    layout: tuple[list[int], list, list[np.ndarray]],
    worker: _SlabWorker | None = None,
) -> None:
    """Backprop `d_out` from the last layer down, handing the gradients to
    `consume` slab by slab (see `loss_and_grads`).

    A layer's input delta is computed first, from its weights before
    `consume` sees any of its slabs; then its weight gradient, a slab of
    rows at a time, with the bias gradient after the last row, since the
    bias follows its weight in the flat layout.  The slabs take turns in
    the scratches of `layout`, the model's `_backward_layout`.  Without
    `worker`, `consume` runs on the calling thread before the next slab
    is computed.  With it, each slab goes to `worker.submit(consume, ...)`
    and backprop goes on to the next one; a scratch is written again only
    once the slab it held has been applied, and the input-delta order
    still holds, since the slabs in flight while a layer's input delta is
    computed belong to the layers after it.  Slabs may still be in flight
    when this returns.
    """
    weights = model.weights
    starts, plans, scratches = layout
    # the worker's future for the slab each scratch holds, until applied
    busy: list[Future | None] = [None] * len(scratches)
    turn = 0
    delta = d_out
    for li in range(len(weights) - 1, -1, -1):
        a, (fan_in, fan_out) = activations[li], weights[li].shape
        d_in = None
        if li > 0:
            d_in = delta @ weights[li].T
            if masks is not None and masks[li - 1] is not None:
                d_in *= masks[li - 1]
            d_in *= a > 0.0
        for r, e in plans[li]:
            if busy[turn] is not None:
                busy[turn].result()
            scratch = scratches[turn]
            size = (e - r) * fan_out
            np.matmul(a[:, r:e].T, delta, out=scratch[:size].reshape(e - r, fan_out))
            if e == fan_in:
                np.add.reduce(delta, axis=0, out=scratch[size : size + fan_out])
                size += fan_out
            if worker is None:
                consume(starts[li] + r * fan_out, scratch[:size])
            else:
                busy[turn] = worker.submit(consume, starts[li] + r * fan_out, scratch[:size])
            turn = (turn + 1) % len(scratches)
        delta = d_in


def loss_and_grads(
    model: MLPModel,
    x: np.ndarray,
    y: np.ndarray,
    masks: list[np.ndarray | None] | None = None,
    consume=None,
    layout: tuple[list[int], list, list[np.ndarray]] | None = None,
    worker: _SlabWorker | None = None,
) -> tuple[float, list[np.ndarray] | None, list[np.ndarray] | None]:
    """FVU loss plus gradients for every weight matrix and bias vector; the
    loss is float64, the gradients take the output's dtype.

    With `consume`, backprop calls `consume(start, slab)` for each slab it
    computes: `slab` is a flat run of gradients beginning at element
    `start` of the layout w0, b0, w1, b1, ..., held in a scratch that a
    later slab overwrites once `consume` has returned.  A layer's slabs
    arrive after its input delta is computed, so `consume` may update that
    layer's parameters in place, and the returned gradient lists are None.
    `consume` runs on the calling thread before the next slab is computed,
    or, given `worker` (a `_SlabWorker`), on the worker's thread, in the
    slabs' order, while backprop computes the next slab.  The caller
    drains a worker before this call, as the forward pass reads the
    parameters, and again before it reads them itself, as slabs may still
    be in flight when this returns.  Without `consume`, the slabs are
    gathered on the calling thread into one flat buffer and returned as
    weight and bias views.  ``layout`` is the model's `_backward_layout`,
    which a caller taking many steps builds once; without it, one is
    built."""
    activations = _forward(model, x, masks)
    loss, d_out = fvu_loss_and_grad(activations[-1], y)
    d_out = d_out.astype(activations[-1].dtype, copy=False)
    if layout is None:
        layout = _backward_layout(model)
    if consume is not None:
        _backward(model, activations, masks, d_out, consume, layout, worker)
        return loss, None, None
    grads = np.empty(model.config.num_parameters(), dtype=d_out.dtype)

    def gather(start: int, slab: np.ndarray) -> None:
        grads[start : start + slab.size] = slab

    _backward(model, activations, masks, d_out, gather, layout)
    return loss, *_param_views(model.config, grads)


def _batch_slices(n: int, batch_size: int) -> list[np.ndarray]:
    """Index blocks of batch_size; a trailing single sample is folded into
    the previous block so every batch has >= 2 samples."""
    edges = list(range(0, n, batch_size))
    blocks = [np.arange(s, min(s + batch_size, n)) for s in edges]
    if len(blocks) > 1 and len(blocks[-1]) == 1:
        blocks[-2] = np.concatenate([blocks[-2], blocks[-1]])
        blocks.pop()
    return blocks


def train_mlp(
    cfg: MLPConfig,
    train: tuple[np.ndarray, np.ndarray],
    val: tuple[np.ndarray, np.ndarray],
) -> tuple[MLPModel, TrainReport]:
    """Adam on mini-batch FVU with early stopping, in float32.

    Validation loss is evaluated once per epoch in eval mode; training
    stops after `patience` consecutive epochs without improvement or at
    max_epochs, and the returned parameters are those of the best epoch.
    Parameters, both Adam moments and the best-epoch copy are four flat
    buffers allocated once per call (see the module docstring), as are
    backprop's slab plan and scratches (`_backward_layout`).  Each step
    decays both moments, the one pass of Adam over each that reads no
    gradient, and hands `loss_and_grads` the rest of the Adam update,
    which it applies to every gradient slab as backprop produces it: every
    element sees the same operations in the same order, and so the same
    bits, as in an update of each weight and bias on its own after the
    whole backward pass.  A model of more than one slab opens a
    `_SlabWorker` for the call, which decays the moments during the
    forward pass and applies the slabs while backprop computes the next
    ones, and which is shut down, its thread joined, before this returns
    or raises.  Its last slabs of a step overlap the next batch's gather
    and dropout masks, which stay on the calling thread.  The parameters
    are read only after it drains: by the next forward pass, and by the
    validation pass, the best-epoch copy and the return, which follow the
    drain at the end of each epoch.
    """
    x_train, y_train = np.asarray(train[0], float), np.asarray(train[1], float)
    x_val, y_val = np.asarray(val[0], float), np.asarray(val[1], float)
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise MLPError("train and validation sets must be non-empty")
    if x_train.shape[1] != cfg.input_dim or x_val.shape[1] != cfg.input_dim:
        raise MLPError(
            f"input dimension mismatch with config: input_dim is {cfg.input_dim}, features "
            f"have {x_train.shape[1]} (train) and {x_val.shape[1]} (validation) columns"
        )
    if y_train.shape[1] != NUM_DIMENSIONS or y_val.shape[1] != NUM_DIMENSIONS:
        raise MLPError("target dimension mismatch with config")
    for name, arr in (
        ("train features", x_train),
        ("train targets", y_train),
        ("validation features", x_val),
        ("validation targets", y_val),
    ):
        _check_rows(name, arr, TRAIN_DTYPE)
    x_train, x_val = x_train.astype(TRAIN_DTYPE), x_val.astype(TRAIN_DTYPE)

    size = cfg.num_parameters()
    params, moment1, moment2 = (np.zeros(size, dtype=TRAIN_DTYPE) for _ in range(3))
    best = np.empty(size, dtype=TRAIN_DTYPE)
    model = _init_into(cfg, params)
    layout = _backward_layout(model)
    rng = np.random.default_rng(cfg.seed + 1)
    scratch = np.empty(min(BLOCK_SIZE, size), dtype=TRAIN_DTYPE)
    step = 0

    def decay() -> None:
        # Adam's first pass over each moment, m *= beta1 and v *= beta2,
        # reads no gradient, so a step makes it over the whole buffers
        # before its backward pass; every element still sees it first
        np.multiply(moment1, ADAM_BETA1, out=moment1)
        np.multiply(moment2, ADAM_BETA2, out=moment2)

    def adam(correction1: float, correction2: float, start: int, slab: np.ndarray) -> None:
        # the rest of p -= lr * (m / c1) / (sqrt(v / c2) + eps) where the
        # gradients g fall, block by block through the scratch s; the
        # corrections are bound per step, as a slab may still be applied
        # once the next step has begun
        for lo in range(start, start + slab.size, BLOCK_SIZE):
            g = slab[lo - start : lo - start + BLOCK_SIZE]
            p, m, v = (buf[lo : lo + g.size] for buf in (params, moment1, moment2))
            s = scratch[: g.size]
            np.multiply(g, 1.0 - ADAM_BETA1, out=s)
            m += s
            np.multiply(g, g, out=s)
            s *= 1.0 - ADAM_BETA2
            v += s
            np.divide(v, correction2, out=s)
            np.sqrt(s, out=s)
            s += ADAM_EPS
            np.divide(m, s, out=s)
            s *= cfg.learning_rate / correction1
            p -= s

    best_val = np.inf
    best_epoch = 0
    bad_epochs = 0
    train_history: list[float] = []
    val_history: list[float] = []
    n = x_train.shape[0]
    blocks = _batch_slices(n, cfg.batch_size)
    val_denom = _fvu_denominators(y_val)
    worker = _SlabWorker() if len(layout[2]) > 1 else None

    try:
        for epoch in range(1, cfg.max_epochs + 1):
            order = rng.permutation(n)
            epoch_loss = 0.0
            n_batches = 0
            for block in blocks:
                idx = order[block]
                masks = make_dropout_masks(cfg, len(idx), rng)
                step += 1
                update = partial(adam, 1.0 - ADAM_BETA1**step, 1.0 - ADAM_BETA2**step)
                if worker is None:
                    decay()
                else:
                    # the forward pass reads the parameters once the last
                    # step's slabs are applied; the moments decay meanwhile
                    worker.drain()
                    worker.submit(decay)
                # the loss is checked once backprop has handed Adam its
                # gradients; a non-finite one ends training, so that update
                # is never seen
                loss, _, _ = loss_and_grads(
                    model, x_train[idx], y_train[idx], masks, update, layout, worker
                )
                if not np.isfinite(loss):
                    raise MLPError(f"non-finite training loss at epoch {epoch}")
                epoch_loss += loss
                n_batches += 1
            train_history.append(epoch_loss / max(1, n_batches))
            if worker is not None:
                worker.drain()

            val_loss = fvu_loss(_forward(model, x_val, None)[-1], y_val, val_denom)
            if not np.isfinite(val_loss):
                raise MLPError(f"non-finite validation loss at epoch {epoch}")
            val_history.append(val_loss)

            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                np.copyto(best, params)
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= cfg.patience:
                    break
    finally:
        if worker is not None:
            worker.shutdown()

    model.weights, model.biases = _param_views(cfg, best)
    report = TrainReport(
        epochs_run=len(val_history),
        best_epoch=best_epoch,
        best_val_loss=float(best_val),
        train_history=train_history,
        val_history=val_history,
    )
    return model, report


def save_model(model: MLPModel, path) -> None:
    """Binary checkpoint: magic, version byte, JSON header (config echo +
    layer shapes), then parameters as little-endian float32."""
    cfg = model.config
    header = {
        "config": {**asdict(cfg), "hidden_dims": list(cfg.resolved_hidden())},
        "shapes": [list(w.shape) for w in model.weights],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for w, b in zip(model.weights, model.biases):
            fh.write(w.astype("<f4").tobytes())
            fh.write(b.astype("<f4").tobytes())


def _read_uint(fh, fmt: str, path) -> int:
    """The next header integer of struct format `fmt` in the checkpoint `fh`."""
    raw = fh.read(struct.calcsize(fmt))
    if len(raw) < struct.calcsize(fmt):
        raise MLPError(f"checkpoint {path} ends inside its header")
    return struct.unpack(fmt, raw)[0]


def load_model(path) -> MLPModel:
    """Read a `save_model` checkpoint; a malformed file raises MLPError naming it."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise MLPError(f"not a model checkpoint: {path}")
        version = _read_uint(fh, "<B", path)
        if version != CHECKPOINT_VERSION:
            raise MLPError(f"checkpoint {path} has unsupported version {version}")
        blob_len = _read_uint(fh, "<I", path)
        try:
            header = json.loads(fh.read(blob_len).decode("utf-8"))
        except ValueError as exc:
            raise MLPError(f"checkpoint {path} header is not JSON: {exc}") from exc
        if not (
            isinstance(header, dict)
            and isinstance(header.get("config"), dict)
            and isinstance(header.get("shapes"), list)
        ):
            raise MLPError(
                f"checkpoint {path} header must be an object with a 'config' object "
                f"and a 'shapes' list"
            )
        keys, names = set(header["config"]), {f.name for f in fields(MLPConfig)}
        if keys != names:
            key = min(keys ^ names)
            problem = "lacks the" if key in names else "has an unknown"
            raise MLPError(f"checkpoint {path} config {problem} key {key!r}")
        try:
            cfg = MLPConfig(**header["config"])
            shapes = [tuple(shape) for shape in header["shapes"]]
        except (TypeError, ValueError) as exc:
            raise MLPError(f"checkpoint {path} header: {exc}") from exc
        dims = cfg.layer_dims()
        if shapes != dims:
            raise MLPError(f"checkpoint shapes {shapes} do not chain per config {dims}")
        block = fh.read()
    expected = 4 * cfg.num_parameters()
    if len(block) != expected:
        raise MLPError(
            f"checkpoint {path} holds {len(block)} parameter bytes, expected {expected}"
        )
    flat = np.frombuffer(block, dtype="<f4").astype(np.float32)
    return MLPModel(cfg, *_param_views(cfg, flat))
