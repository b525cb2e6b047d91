"""Dense multilabel regressor: ReLU hidden layers, linear 26-unit output.

Two presets: "base" is a single affine map from the embedding to the 26
annotation dimensions; "deep" inserts hidden layers of 4096, 1024 and 256
units with 20% inverted dropout after the first two.  The training loss is
the fraction of variance unexplained (FVU), averaged over output
dimensions and computed per mini-batch; a dimension whose batch target
variance is below 1e-12 contributes plain mean squared error instead.
Optimization is Adam with early stopping on validation loss.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .graph import NUM_DIMENSIONS

VARIANT_HIDDEN = {"base": (), "deep": (4096, 1024, 256)}

VARIANCE_EPS = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_MAGIC = b"EMLPCKPT"
CHECKPOINT_VERSION = 1


class MLPError(ValueError):
    """Invalid regressor configuration, shapes or training state."""


@dataclass
class MLPConfig:
    variant: str = "base"
    input_dim: int = 300
    output_dim: int = NUM_DIMENSIONS
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
        if self.output_dim != NUM_DIMENSIONS:
            raise MLPError(f"output_dim must be {NUM_DIMENSIONS}")
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
        if self.batch_size < 1:
            raise MLPError("batch_size must be >= 1")
        if self.learning_rate <= 0.0:
            raise MLPError("learning_rate must be positive")
        if self.seed < 0:
            raise MLPError("seed must be non-negative")

    def resolved_hidden(self) -> tuple[int, ...]:
        if self.hidden_dims is not None:
            return self.hidden_dims
        return VARIANT_HIDDEN[self.variant]

    def layer_dims(self) -> list[tuple[int, int]]:
        sizes = [self.input_dim, *self.resolved_hidden(), self.output_dim]
        return list(zip(sizes[:-1], sizes[1:]))

    def dropout_layers(self) -> set[int]:
        """Hidden-layer indices followed by dropout: the first two."""
        n_hidden = len(self.resolved_hidden())
        return {i for i in range(min(2, n_hidden)) if self.dropout > 0.0}


@dataclass
class MLPModel:
    config: MLPConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def num_parameters(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


@dataclass
class TrainReport:
    epochs_run: int
    best_epoch: int
    best_val_loss: float
    train_history: list[float] = field(default_factory=list)
    val_history: list[float] = field(default_factory=list)


def init_model(cfg: MLPConfig) -> MLPModel:
    """He-uniform init for ReLU layers, Glorot-uniform for the linear
    output, zero biases."""
    rng = np.random.default_rng(cfg.seed)
    dims = cfg.layer_dims()
    weights = []
    biases = []
    for li, (fan_in, fan_out) in enumerate(dims):
        if li < len(dims) - 1:
            bound = np.sqrt(6.0 / fan_in)
        else:
            bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLPModel(config=cfg, weights=weights, biases=biases)


def _check_input(model: MLPModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise MLPError(
            f"input dimension mismatch: expected {model.config.input_dim}, got {x.shape}"
        )
    return x


def _forward_cached(
    model: MLPModel, x: np.ndarray, masks: list[np.ndarray | None] | None
) -> tuple[np.ndarray, dict]:
    """Forward pass keeping pre-activations and activations for backprop.

    masks[i] is the inverted-dropout mask applied after hidden layer i's
    ReLU (None for no dropout); passing fixed masks keeps the whole pass
    deterministic for finite-difference checks.
    """
    n_layers = len(model.weights)
    activations = [x]
    pre_acts = []
    h = x
    for li in range(n_layers):
        z = h @ model.weights[li] + model.biases[li]
        pre_acts.append(z)
        if li < n_layers - 1:
            h = np.maximum(z, 0.0)
            if masks is not None and masks[li] is not None:
                h = h * masks[li]
        else:
            h = z
        activations.append(h)
    return h, {"activations": activations, "pre_acts": pre_acts, "masks": masks}


def make_dropout_masks(
    cfg: MLPConfig, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray | None]:
    hidden = cfg.resolved_hidden()
    active = cfg.dropout_layers()
    masks: list[np.ndarray | None] = []
    for li, width in enumerate(hidden):
        if li in active:
            keep = rng.random((batch_size, width)) >= cfg.dropout
            masks.append(keep.astype(np.float64) / (1.0 - cfg.dropout))
        else:
            masks.append(None)
    return masks


def forward(
    model: MLPModel, x: np.ndarray, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Single forward pass; pass an rng for train mode (fresh dropout
    masks), omit it for deterministic eval mode."""
    xb = _check_input(model, x)
    masks = None
    if rng is not None:
        masks = make_dropout_masks(model.config, xb.shape[0], rng)
    out, _ = _forward_cached(model, xb, masks)
    return out[0] if np.asarray(x).ndim == 1 else out


def predict(model: MLPModel, x: np.ndarray) -> np.ndarray:
    return forward(model, x)


def binarize(y: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Label j is active iff y_j >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise MLPError("threshold must be in (0, 1)")
    return np.asarray(y) >= threshold


def fvu_loss(pred: np.ndarray, target: np.ndarray) -> float:
    loss, _ = fvu_loss_and_grad(pred, target)
    return loss


def fvu_loss_and_grad(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over dimensions of SS_res/SS_tot, with an MSE fallback for
    batch-constant target dimensions; gradient is w.r.t. pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 2:
        raise MLPError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    n, dims = pred.shape
    if n < 2:
        raise MLPError("FVU needs a batch of at least 2 samples")
    resid = pred - target
    ss_res = np.sum(resid**2, axis=0)
    centered = target - target.mean(axis=0)
    ss_tot = np.sum(centered**2, axis=0)
    constant = ss_tot / n < VARIANCE_EPS

    per_dim = np.where(constant, ss_res / n, ss_res / np.where(constant, 1.0, ss_tot))
    loss = float(per_dim.mean())
    scale = np.where(constant, 1.0 / n, 1.0 / np.where(constant, 1.0, ss_tot))
    grad = (2.0 / dims) * resid * scale
    return loss, grad


def _backward(model: MLPModel, cache: dict, d_out: np.ndarray) -> tuple[list, list]:
    activations = cache["activations"]
    pre_acts = cache["pre_acts"]
    masks = cache["masks"]
    n_layers = len(model.weights)
    d_weights = [None] * n_layers
    d_biases = [None] * n_layers
    delta = d_out
    for li in range(n_layers - 1, -1, -1):
        d_weights[li] = activations[li].T @ delta
        d_biases[li] = delta.sum(axis=0)
        if li > 0:
            da = delta @ model.weights[li].T
            if masks is not None and masks[li - 1] is not None:
                da = da * masks[li - 1]
            delta = da * (pre_acts[li - 1] > 0.0)
    return d_weights, d_biases


def loss_and_grads(
    model: MLPModel,
    x: np.ndarray,
    y: np.ndarray,
    masks: list[np.ndarray | None] | None = None,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """FVU loss plus gradients for every weight matrix and bias vector."""
    out, cache = _forward_cached(model, x, masks)
    loss, d_out = fvu_loss_and_grad(out, y)
    d_w, d_b = _backward(model, cache, d_out)
    return loss, d_w, d_b


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
    """Adam on mini-batch FVU with early stopping.

    Validation loss is evaluated once per epoch in eval mode; training
    stops after `patience` consecutive epochs without improvement or at
    max_epochs, and the returned parameters are those of the best epoch.
    """
    x_train, y_train = np.asarray(train[0], float), np.asarray(train[1], float)
    x_val, y_val = np.asarray(val[0], float), np.asarray(val[1], float)
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise MLPError("train and validation sets must be non-empty")
    if x_train.shape[1] != cfg.input_dim or x_val.shape[1] != cfg.input_dim:
        raise MLPError("input dimension mismatch with config")
    if y_train.shape[1] != cfg.output_dim or y_val.shape[1] != cfg.output_dim:
        raise MLPError("target dimension mismatch with config")
    for name, arr in (
        ("train features", x_train),
        ("train targets", y_train),
        ("validation features", x_val),
        ("validation targets", y_val),
    ):
        bad = ~np.isfinite(arr).all(axis=1)
        if bad.any():
            raise MLPError(f"non-finite {name} at row {int(np.argmax(bad))}")

    model = init_model(cfg)
    rng = np.random.default_rng(cfg.seed + 1)

    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    step = 0

    best_val = np.inf
    best_epoch = 0
    best_weights: list[np.ndarray] = []
    best_biases: list[np.ndarray] = []
    bad_epochs = 0
    train_history: list[float] = []
    val_history: list[float] = []
    n = x_train.shape[0]

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for block in _batch_slices(n, cfg.batch_size):
            idx = order[block]
            masks = make_dropout_masks(cfg, len(idx), rng)
            loss, d_w, d_b = loss_and_grads(model, x_train[idx], y_train[idx], masks)
            if not np.isfinite(loss):
                raise MLPError(f"non-finite training loss at epoch {epoch}")
            step += 1
            correction1 = 1.0 - ADAM_BETA1**step
            correction2 = 1.0 - ADAM_BETA2**step
            for li in range(len(model.weights)):
                m_w[li] = ADAM_BETA1 * m_w[li] + (1 - ADAM_BETA1) * d_w[li]
                v_w[li] = ADAM_BETA2 * v_w[li] + (1 - ADAM_BETA2) * d_w[li] ** 2
                model.weights[li] -= (
                    cfg.learning_rate
                    * (m_w[li] / correction1)
                    / (np.sqrt(v_w[li] / correction2) + ADAM_EPS)
                )
                m_b[li] = ADAM_BETA1 * m_b[li] + (1 - ADAM_BETA1) * d_b[li]
                v_b[li] = ADAM_BETA2 * v_b[li] + (1 - ADAM_BETA2) * d_b[li] ** 2
                model.biases[li] -= (
                    cfg.learning_rate
                    * (m_b[li] / correction1)
                    / (np.sqrt(v_b[li] / correction2) + ADAM_EPS)
                )
            epoch_loss += loss
            n_batches += 1
        train_history.append(epoch_loss / max(1, n_batches))

        val_out, _ = _forward_cached(model, x_val, None)
        val_loss = fvu_loss(val_out, y_val)
        if not np.isfinite(val_loss):
            raise MLPError(f"non-finite validation loss at epoch {epoch}")
        val_history.append(val_loss)

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_weights = [w.copy() for w in model.weights]
            best_biases = [b.copy() for b in model.biases]
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break

    model.weights = best_weights
    model.biases = best_biases
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
        "config": {
            "variant": cfg.variant,
            "input_dim": cfg.input_dim,
            "output_dim": cfg.output_dim,
            "hidden_dims": list(cfg.resolved_hidden()),
            "dropout": cfg.dropout,
            "patience": cfg.patience,
            "max_epochs": cfg.max_epochs,
            "batch_size": cfg.batch_size,
            "learning_rate": cfg.learning_rate,
            "seed": cfg.seed,
        },
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


def load_model(path) -> MLPModel:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise MLPError(f"not a model checkpoint: {path}")
        (version,) = struct.unpack("<B", fh.read(1))
        if version != CHECKPOINT_VERSION:
            raise MLPError(f"unsupported checkpoint version {version}")
        (blob_len,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(blob_len).decode("utf-8"))
        cfg_dict = dict(header["config"])
        cfg_dict["hidden_dims"] = tuple(cfg_dict["hidden_dims"])
        cfg = MLPConfig(**cfg_dict)
        weights = []
        biases = []
        for shape in header["shapes"]:
            fan_in, fan_out = shape
            w = np.frombuffer(fh.read(4 * fan_in * fan_out), dtype="<f4")
            weights.append(w.reshape(fan_in, fan_out).astype(np.float64))
            b = np.frombuffer(fh.read(4 * fan_out), dtype="<f4")
            biases.append(b.astype(np.float64))
    model = MLPModel(config=cfg, weights=weights, biases=biases)
    dims = cfg.layer_dims()
    actual = [w.shape for w in weights]
    if actual != [tuple(d) for d in dims]:
        raise MLPError(f"checkpoint shapes {actual} do not chain per config {dims}")
    return model
