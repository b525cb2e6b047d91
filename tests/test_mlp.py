"""Multilabel regressor: architecture, FVU loss, backprop, training loop."""

import json
import re
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from emoprop.graph import NUM_DIMENSIONS
from emoprop.mlp import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BLOCK_SIZE,
    CHECKPOINT_MAGIC,
    SLAB_SIZE,
    TRAIN_DTYPE,
    VARIANCE_EPS,
    MLPConfig,
    MLPError,
    MLPModel,
    TrainReport,
    binarize,
    fvu_loss,
    fvu_loss_and_grad,
    init_model,
    load_model,
    loss_and_grads,
    make_dropout_masks,
    predict,
    save_model,
    train_mlp,
    _batch_slices,
    _check_rows,
    _forward,
    _init_into,
    _slab_rows,
)
import emoprop.mlp


class TestConfig:
    def test_base_variant(self):
        cfg = MLPConfig(variant="base", input_dim=300)
        assert cfg.resolved_hidden() == ()
        assert cfg.layer_dims() == [(300, 26)]
        assert cfg.dropout_layers() == set()

    def test_deep_variant(self):
        cfg = MLPConfig(variant="deep", input_dim=300)
        assert cfg.resolved_hidden() == (4096, 1024, 256)
        assert cfg.layer_dims() == [(300, 4096), (4096, 1024), (1024, 256), (256, 26)]
        assert cfg.dropout_layers() == {0, 1}

    def test_custom_hidden(self):
        cfg = MLPConfig(variant="deep", input_dim=50, hidden_dims=(8,))
        assert cfg.layer_dims() == [(50, 8), (8, 26)]
        assert cfg.dropout_layers() == {0}

    def test_dropout_zero_disables_masks(self):
        cfg = MLPConfig(variant="deep", input_dim=50, dropout=0.0)
        assert cfg.dropout_layers() == set()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"variant": "wide"},
            {"seed": -1},
            {"dropout": 1.0},
            {"dropout": -0.1},
            {"variant": "base", "hidden_dims": (10,)},
            {"patience": 0},
            {"max_epochs": 0},
            {"batch_size": 0},
            {"batch_size": 1},
            {"learning_rate": 0.0},
            {"input_dim": 0},
        ],
    )
    def test_invalid(self, kwargs):
        kwargs.setdefault("input_dim", 300)
        with pytest.raises(ValueError):
            MLPConfig(**kwargs)


class TestInitAndParams:
    def test_deep_parameter_count(self):
        cfg = MLPConfig(variant="deep", input_dim=300)
        model = init_model(cfg)
        expected = (
            300 * 4096 + 4096
            + 4096 * 1024 + 1024
            + 1024 * 256 + 256
            + 256 * 26 + 26
        )
        assert cfg.num_parameters() == expected
        assert sum(p.size for p in [*model.weights, *model.biases]) == expected

    def test_base_parameter_count(self):
        assert MLPConfig(variant="base", input_dim=300).num_parameters() == 300 * 26 + 26

    def test_deterministic(self):
        cfg = MLPConfig(variant="deep", input_dim=20, hidden_dims=(6, 5), seed=3)
        a, b = init_model(cfg), init_model(cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_float32_init_is_the_float64_init_rounded(self):
        """Initialising into a float32 buffer, as train_mlp does, draws the
        same doubles as init_model and rounds them as astype does, also
        across block boundaries."""
        cfg = MLPConfig(variant="deep", input_dim=30, hidden_dims=(1500, 40), seed=4)
        assert cfg.layer_dims()[1][0] * cfg.layer_dims()[1][1] > BLOCK_SIZE
        wide = init_model(cfg)
        narrow = _init_into(cfg, np.zeros(cfg.num_parameters(), dtype=np.float32))
        for p64, p32 in zip([*wide.weights, *wide.biases], [*narrow.weights, *narrow.biases]):
            assert p64.dtype == np.float64 and p32.dtype == np.float32
            assert np.array_equal(p32, p64.astype(np.float32))

    def test_uniform_draws(self):
        """The weights are rng.uniform(-bound, bound) draws, layer by layer."""
        cfg = MLPConfig(variant="deep", input_dim=30, hidden_dims=(1500, 40), seed=3)
        rng = np.random.default_rng(cfg.seed)
        dims = cfg.layer_dims()
        for i, w in enumerate(init_model(cfg).weights):
            fan_in, fan_out = dims[i]
            last = i == len(dims) - 1
            bound = np.sqrt(6.0 / (fan_in + fan_out if last else fan_in))
            assert np.array_equal(w, rng.uniform(-bound, bound, size=(fan_in, fan_out)))

    def test_zero_biases_and_bounded_weights(self):
        cfg = MLPConfig(variant="deep", input_dim=20, hidden_dims=(6, 5), seed=3)
        model = init_model(cfg)
        dims = cfg.layer_dims()
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            assert np.array_equal(b, np.zeros_like(b))
            fan_in, fan_out = dims[i]
            if i < len(model.weights) - 1:
                bound = np.sqrt(6.0 / fan_in)
            else:
                bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.max(np.abs(w)) <= bound


class TestForward:
    def test_zero_weights_give_zero_output(self):
        cfg = MLPConfig(variant="base", input_dim=12)
        model = init_model(cfg)
        zeroed = MLPModel(
            config=cfg,
            weights=[np.zeros_like(w) for w in model.weights],
            biases=[np.zeros_like(b) for b in model.biases],
        )
        out = predict(zeroed, np.ones((1, 12)))
        assert np.array_equal(out, np.zeros((1, 26)))

    def test_shapes(self):
        model = init_model(MLPConfig(variant="deep", input_dim=14, hidden_dims=(7,), seed=0))
        assert predict(model, np.ones((1, 14))).shape == (1, 26)
        assert predict(model, np.ones((5, 14))).shape == (5, 26)

    def test_full_deep_eval(self):
        model = init_model(MLPConfig(variant="deep", input_dim=300, seed=1))
        out = predict(model, np.random.default_rng(0).normal(size=(1, 300)))
        assert out.shape == (1, 26)
        assert np.all(np.isfinite(out))

    def test_dropout_zero_train_equals_eval(self):
        cfg = MLPConfig(variant="deep", input_dim=10, hidden_dims=(6,), dropout=0.0, seed=2)
        model = init_model(cfg)
        x = np.random.default_rng(3).normal(size=(4, 10))
        masks = make_dropout_masks(cfg, 4, np.random.default_rng(9))
        train_out = _forward(model, x, masks)[-1]
        assert np.array_equal(train_out, predict(model, x))

    def test_input_dim_mismatch(self):
        """A wrong width and a single 1-D sample are both refused."""
        model = init_model(MLPConfig(variant="base", input_dim=10))
        for x in (np.ones((1, 11)), np.ones(10)):
            with pytest.raises(MLPError, match=r"expected \(n, 10\)"):
                predict(model, x)

    def test_mask_values(self):
        cfg = MLPConfig(variant="deep", input_dim=10, hidden_dims=(40, 40, 40), dropout=0.2, seed=0)
        masks = make_dropout_masks(cfg, 6, np.random.default_rng(5))
        assert len(masks) == 3
        assert masks[2] is None
        for m in masks[:2]:
            assert m.shape == (6, 40)
            assert set(np.unique(m)).issubset({0.0, 1.25})

    def test_masks_match_where_construction(self):
        """The in-place masks carry the bits of np.where over a fresh
        draw, layer after layer from the same stream, and leave the
        stream where those draws would."""
        cfg = MLPConfig(variant="deep", input_dim=10, hidden_dims=(30, 70, 20), dropout=0.3, seed=0)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        masks = make_dropout_masks(cfg, 9, rng)
        kept = np.float32(1.0 / (1.0 - cfg.dropout))
        for m, width in zip(masks[:2], (30, 70)):
            want = np.where(ref_rng.random((9, width)) >= cfg.dropout, kept, np.float32(0.0))
            assert m.dtype == np.float32
            assert np.array_equal(m.view(np.uint32), want.view(np.uint32))
        assert masks[2] is None
        assert rng.random() == ref_rng.random()

    def test_dropout_expectation(self):
        """With nonnegative weights the net is linear in the masks, so the
        inverted-dropout average over many draws must converge to the
        deterministic eval output."""
        cfg = MLPConfig(variant="deep", input_dim=12, hidden_dims=(32, 16), dropout=0.2, seed=9)
        model = init_model(cfg)
        positive = MLPModel(
            config=cfg,
            weights=[np.abs(w) for w in model.weights],
            biases=list(model.biases),
        )
        x = np.abs(np.random.default_rng(1).normal(size=12))
        expected = predict(positive, x[None, :])[0]
        rng = np.random.default_rng(77)
        total = np.zeros(26)
        draws = 10000
        for _ in range(draws):
            out = _forward(positive, x[None, :], make_dropout_masks(cfg, 1, rng))[-1]
            total += out[0]
        avg = total / draws
        rel = np.abs(avg - expected) / np.abs(expected)
        assert np.max(rel) < 0.02


class TestFvuLoss:
    def test_perfect_prediction_is_exact_zero(self):
        y = np.random.default_rng(0).normal(size=(6, 26))
        assert fvu_loss(y, y) == 0.0

    def test_mean_prediction_is_exact_one(self):
        y = np.random.default_rng(1).normal(size=(6, 26))
        pred = np.tile(y.mean(axis=0), (6, 1))
        assert fvu_loss(pred, y) == 1.0

    def test_constant_dim_falls_back_to_mse(self):
        y = np.random.default_rng(2).normal(size=(5, 26))
        y[:, 3] = 0.7
        pred = y.copy()
        assert fvu_loss(pred, y) == 0.0
        pred[:, 3] = 0.8
        # constant target dim contributes plain squared error
        expected_dim = 0.01
        assert fvu_loss(pred, y) == pytest.approx(expected_dim / 26, rel=1e-12)

    def test_batch_of_one_rejected(self):
        with pytest.raises(MLPError, match="at least 2"):
            fvu_loss(np.ones((1, 26)), np.ones((1, 26)))

    def test_shape_mismatch(self):
        with pytest.raises(MLPError):
            fvu_loss(np.ones((4, 26)), np.ones((5, 26)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_reference_bit_for_bit(self, dtype):
        """The same loss and float64 gradient bits as the formula written
        out step by step, a batch-constant target dimension included."""
        rng = np.random.default_rng(5)
        pred = rng.normal(size=(33, 26)).astype(dtype)
        y = rng.normal(size=(33, 26))
        y[:, 7] = 0.3
        loss, grad = fvu_loss_and_grad(pred, y)
        ref_loss, ref_grad = _reference_fvu_loss_and_grad(pred, y)
        assert loss == ref_loss
        assert grad.dtype == np.float64
        assert np.array_equal(grad.view(np.uint64), ref_grad.view(np.uint64))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        pred = rng.normal(size=(5, 26))
        y = rng.normal(size=(5, 26))
        _, grad = fvu_loss_and_grad(pred, y)
        h = 1e-6
        for i in (0, 2, 4):
            for j in (0, 13, 25):
                plus, minus = pred.copy(), pred.copy()
                plus[i, j] += h
                minus[i, j] -= h
                fd = (fvu_loss(plus, y) - fvu_loss(minus, y)) / (2 * h)
                assert abs(grad[i, j] - fd) <= 1e-6 + 1e-4 * abs(fd)


class TestGradients:
    def test_base_all_params(self):
        cfg = MLPConfig(variant="base", input_dim=12, seed=6)
        model = init_model(cfg)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 12))
        y = rng.normal(size=(5, 26))
        self._check_fd(model, x, y, masks=None)

    def test_deep_with_fixed_masks(self):
        cfg = MLPConfig(variant="deep", input_dim=7, hidden_dims=(9,), dropout=0.2, seed=8)
        model = init_model(cfg)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 7))
        y = rng.normal(size=(5, 26))
        masks = make_dropout_masks(cfg, 5, np.random.default_rng(10))
        self._check_fd(model, x, y, masks=masks)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_slabs_concatenate_to_the_full_gradients(self, dtype, monkeypatch):
        """With a consumer, backprop hands over slabs that tile the flat
        layout once and hold the gradients a full-matrix backprop gives
        (bit for bit in float32).  The consumer poisons each slab's
        parameters on arrival, so a layer's input delta computed after
        any of its slabs would carry NaN into the layers below."""
        monkeypatch.setattr(emoprop.mlp, "SLAB_SIZE", 20)
        cfg = MLPConfig(variant="deep", input_dim=7, hidden_dims=(9, 4), dropout=0.2, seed=8)
        flat = np.zeros(cfg.num_parameters(), dtype=dtype)
        model = _init_into(cfg, flat)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 7)).astype(dtype)
        y = rng.normal(size=(6, 26))
        masks = make_dropout_masks(cfg, 6, np.random.default_rng(10))
        ref_loss, ref_w, ref_b = _reference_loss_and_grads(model, x, y, masks)
        loss, d_w, d_b = loss_and_grads(model, x, y, masks)
        slabs = {}

        def consume(start, slab):
            slabs[start] = slab.copy()
            flat[start : start + slab.size] = np.nan

        assert loss_and_grads(model, x, y, masks, consume) == (loss, None, None)
        assert loss == ref_loss
        assert len(slabs) > 2 * len(cfg.layer_dims())
        starts = sorted(slabs)
        assert [a + slabs[a].size for a in starts] == [*starts[1:], flat.size]
        full = np.concatenate([slabs[a] for a in starts])
        assert full.dtype == dtype
        assert np.array_equal(full, np.concatenate([g.reshape(-1) for g in _interleave(d_w, d_b)]))
        want = np.concatenate([g.reshape(-1) for g in _interleave(ref_w, ref_b)])
        if dtype == np.float32:
            assert np.array_equal(full, want)
        else:
            np.testing.assert_allclose(full, want, rtol=1e-12, atol=1e-15)

    @staticmethod
    def _check_fd(model, x, y, masks):
        _, d_ws, d_bs = loss_and_grads(model, x, y, masks)
        h = 1e-5
        rng = np.random.default_rng(0)
        for layer in range(len(model.weights)):
            w = model.weights[layer]
            flat = rng.choice(w.size, size=min(60, w.size), replace=False)
            for f in flat:
                idx = np.unravel_index(f, w.shape)
                orig = w[idx]
                w[idx] = orig + h
                up = loss_and_grads(model, x, y, masks)[0]
                w[idx] = orig - h
                down = loss_and_grads(model, x, y, masks)[0]
                w[idx] = orig
                fd = (up - down) / (2 * h)
                a = d_ws[layer][idx]
                assert abs(a - fd) <= 1e-4 * (abs(a) + abs(fd)) + 1e-8
            b = model.biases[layer]
            for j in rng.choice(b.size, size=min(10, b.size), replace=False):
                orig = b[j]
                b[j] = orig + h
                up = loss_and_grads(model, x, y, masks)[0]
                b[j] = orig - h
                down = loss_and_grads(model, x, y, masks)[0]
                b[j] = orig
                fd = (up - down) / (2 * h)
                a = d_bs[layer][j]
                assert abs(a - fd) <= 1e-4 * (abs(a) + abs(fd)) + 1e-8


class TestBatchSlices:
    def test_trailing_single_folds_back(self):
        assert [s.tolist() for s in _batch_slices(5, 2)] == [[0, 1], [2, 3, 4]]

    def test_even_split(self):
        assert [s.tolist() for s in _batch_slices(4, 2)] == [[0, 1], [2, 3]]

    def test_single_sample(self):
        assert [s.tolist() for s in _batch_slices(1, 4)] == [[0]]


def _split_task(seed=12):
    """Linear regression task solvable to near-zero FVU."""
    rng = np.random.default_rng(seed)
    w_true = rng.normal(size=(10, 26)) * 0.5
    b_true = rng.normal(size=26) * 0.1
    x = rng.normal(size=(220, 10))
    y = x @ w_true + b_true
    return x[:200], y[:200], x[200:], y[200:]


def _interleave(weights, biases):
    """Arrays in the flat layout's order: w0, b0, w1, b1, ..."""
    return [a for pair in zip(weights, biases) for a in pair]


def _reference_fvu_loss_and_grad(pred, target):
    """`fvu_loss_and_grad` before its rewrite, verbatim."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    n, dims = pred.shape
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


def _reference_forward(model, x, masks):
    """The forward pass before in-place activations, verbatim: output,
    activations and pre-activations."""
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
    return h, activations, pre_acts


def _reference_loss_and_grads(model, x, y, masks):
    """FVU loss and full-matrix backprop before gradient slabs, verbatim:
    one product per weight gradient, masks and ReLU derivative applied to
    fresh arrays."""
    pred, activations, pre_acts = _reference_forward(model, x, masks)
    loss, d_out = _reference_fvu_loss_and_grad(pred, y)
    delta = d_out.astype(pred.dtype, copy=False)
    n_layers = len(model.weights)
    d_weights, d_biases = [None] * n_layers, [None] * n_layers
    for li in range(n_layers - 1, -1, -1):
        d_weights[li] = activations[li].T @ delta
        d_biases[li] = delta.sum(axis=0)
        if li > 0:
            da = delta @ model.weights[li].T
            if masks is not None and masks[li - 1] is not None:
                da = da * masks[li - 1]
            delta = da * (pre_acts[li - 1] > 0.0)
    return loss, d_weights, d_biases


def _reference_train_mlp(
    cfg: MLPConfig,
    train: tuple[np.ndarray, np.ndarray],
    val: tuple[np.ndarray, np.ndarray],
) -> tuple[MLPModel, TrainReport]:
    """`train_mlp` before the flat buffers, verbatim: float64 init cast with
    astype, a fresh gradient set per step from the full-matrix backprop of
    `_reference_loss_and_grads`, and Adam as 13 passes over each weight and
    bias with a full-size scratch, after the whole backward pass.
    Training must reproduce it bit for bit.

    Adam on mini-batch FVU with early stopping, in float32.

    Validation loss is evaluated once per epoch in eval mode; training
    stops after `patience` consecutive epochs without improvement or at
    max_epochs, and the returned parameters are those of the best epoch.
    Moments, scratch and best-epoch buffers are allocated once per call;
    every Adam step updates them in place.
    """
    x_train, y_train = np.asarray(train[0], float), np.asarray(train[1], float)
    x_val, y_val = np.asarray(val[0], float), np.asarray(val[1], float)
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise MLPError("train and validation sets must be non-empty")
    if x_train.shape[1] != cfg.input_dim or x_val.shape[1] != cfg.input_dim:
        raise MLPError("input dimension mismatch with config")
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

    model = init_model(cfg)
    model.weights = [w.astype(TRAIN_DTYPE) for w in model.weights]
    model.biases = [b.astype(TRAIN_DTYPE) for b in model.biases]
    rng = np.random.default_rng(cfg.seed + 1)

    params = [*model.weights, *model.biases]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    best = [np.empty_like(p) for p in params]
    flat_scratch = np.empty(max(p.size for p in params), dtype=TRAIN_DTYPE)
    scratch = [flat_scratch[: p.size].reshape(p.shape) for p in params]
    step = 0

    best_val = np.inf
    best_epoch = 0
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
            loss, d_w, d_b = _reference_loss_and_grads(model, x_train[idx], y_train[idx], masks)
            if not np.isfinite(loss):
                raise MLPError(f"non-finite training loss at epoch {epoch}")
            step += 1
            correction1 = 1.0 - ADAM_BETA1**step
            correction2 = 1.0 - ADAM_BETA2**step
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps), through the scratch view s
            for p, g, (m, v), s in zip(params, [*d_w, *d_b], moments, scratch):
                m *= ADAM_BETA1
                np.multiply(g, 1.0 - ADAM_BETA1, out=s)
                m += s
                v *= ADAM_BETA2
                np.multiply(g, g, out=s)
                s *= 1.0 - ADAM_BETA2
                v += s
                np.divide(v, correction2, out=s)
                np.sqrt(s, out=s)
                s += ADAM_EPS
                np.divide(m, s, out=s)
                s *= cfg.learning_rate / correction1
                p -= s
            epoch_loss += loss
            n_batches += 1
        train_history.append(epoch_loss / max(1, n_batches))

        val_out = _reference_forward(model, x_val, None)[0]
        val_loss = _reference_fvu_loss_and_grad(val_out, y_val)[0]
        if not np.isfinite(val_loss):
            raise MLPError(f"non-finite validation loss at epoch {epoch}")
        val_history.append(val_loss)

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            for b, p in zip(best, params):
                np.copyto(b, p)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break

    n_layers = len(model.weights)
    model.weights, model.biases = best[:n_layers], best[n_layers:]
    report = TrainReport(
        epochs_run=len(val_history),
        best_epoch=best_epoch,
        best_val_loss=float(best_val),
        train_history=train_history,
        val_history=val_history,
    )
    return model, report


# rows of a weight gradient slab 600 wide; a (3 * rows + 1) x 600 weight
# spans three slabs, the last one ragged with the trailing row joined to it
_SLAB_ROWS_600 = SLAB_SIZE // 600


class TestSlabRows:
    def test_slabs_tile_the_rows(self):
        rows = _SLAB_ROWS_600
        assert _slab_rows(3 * rows + 1, 600) == [(0, rows), (rows, 2 * rows), (2 * rows, 3 * rows + 1)]
        assert _slab_rows(2 * rows + 5, 600) == [(0, rows), (rows, 2 * rows), (2 * rows, 2 * rows + 5)]

    def test_at_least_two_rows(self):
        assert _slab_rows(5, 2 * SLAB_SIZE) == [(0, 2), (2, 5)]

    def test_one_row_or_one_column_weight_is_one_slab(self):
        assert _slab_rows(1, 26) == [(0, 1)]
        assert _slab_rows(3 * SLAB_SIZE, 1) == [(0, 3 * SLAB_SIZE)]


class TestTraining:
    @pytest.mark.parametrize(
        "cfg, n_train, constant_dim",
        [
            # the 200x300 weight spans flat elements 2200 to 62200, across
            # the first block boundary
            (
                MLPConfig(
                    variant="deep", input_dim=10, hidden_dims=(200, 300, 7), dropout=0.3,
                    batch_size=32, max_epochs=4, patience=5, seed=3,
                ),
                200,
                None,
            ),
            # the largest weight spans three gradient slabs, the last ragged;
            # the 600x1 and 1x26 weights are matrix-vector products, whose
            # sums on a slab of rows would round differently at this batch size
            (
                MLPConfig(
                    variant="deep", input_dim=10, hidden_dims=(3 * _SLAB_ROWS_600 + 1, 600, 1),
                    dropout=0.2, batch_size=128, max_epochs=3, patience=5, seed=4,
                ),
                200,
                None,
            ),
            # 161 % 32 == 1: the trailing sample joins the last batch
            (
                MLPConfig(
                    variant="deep", input_dim=10, hidden_dims=(40, 20), dropout=0.2,
                    batch_size=32, max_epochs=4, patience=5, seed=5,
                ),
                161,
                None,
            ),
            # a constant target dimension falls back to plain squared error
            (
                MLPConfig(
                    variant="deep", input_dim=10, hidden_dims=(40, 20), dropout=0.2,
                    batch_size=32, max_epochs=4, patience=5, seed=6,
                ),
                200,
                5,
            ),
            (
                MLPConfig(variant="base", input_dim=10, batch_size=16, max_epochs=30, patience=3, seed=2),
                200,
                None,
            ),
        ],
        ids=["deep", "deep_slabs", "deep_trailing_sample", "deep_constant_target", "base"],
    )
    def test_matches_reference_bit_for_bit(self, cfg, n_train, constant_dim):
        assert 2200 < BLOCK_SIZE < 62200
        x_tr, y_tr, x_va, y_va = _split_task(seed=6)
        x_tr, y_tr = x_tr[:n_train], y_tr[:n_train]
        if constant_dim is not None:
            y_tr[:, constant_dim] = y_va[:, constant_dim] = 0.25
        model, report = train_mlp(cfg, (x_tr, y_tr), (x_va, y_va))
        ref_model, ref_report = _reference_train_mlp(cfg, (x_tr, y_tr), (x_va, y_va))
        for p, q in zip([*model.weights, *model.biases], [*ref_model.weights, *ref_model.biases]):
            assert p.dtype == q.dtype == np.float32
            assert np.array_equal(p, q)
        assert report.train_history == ref_report.train_history
        assert report.val_history == ref_report.val_history
        assert report.best_epoch == ref_report.best_epoch
        assert report.epochs_run == ref_report.epochs_run
        assert report.epochs_run >= 3

    def test_linear_task_reaches_low_fvu(self):
        x_tr, y_tr, x_va, y_va = _split_task()
        cfg = MLPConfig(
            variant="base", input_dim=10, batch_size=32, learning_rate=0.01,
            max_epochs=400, patience=50, seed=2,
        )
        model, report = train_mlp(cfg, (x_tr, y_tr), (x_va, y_va))
        assert report.best_val_loss < 0.01

    def test_early_stopping_identity(self):
        """Stops patience epochs after the best one when the budget allows."""
        rng = np.random.default_rng(5)
        x_tr = rng.normal(size=(12, 6))
        y_tr = rng.normal(size=(12, 26))
        x_va = rng.normal(size=(8, 6))
        y_va = rng.normal(size=(8, 26))
        cfg = MLPConfig(
            variant="base", input_dim=6, batch_size=12, learning_rate=5e-3,
            max_epochs=500, patience=3, seed=7,
        )
        model, report = train_mlp(cfg, (x_tr, y_tr), (x_va, y_va))
        assert report.epochs_run < cfg.max_epochs
        assert report.epochs_run == report.best_epoch + cfg.patience
        assert report.best_val_loss == min(report.val_history)
        assert report.val_history[report.best_epoch - 1] == report.best_val_loss

        wider = MLPConfig(
            variant="base", input_dim=6, batch_size=12, learning_rate=5e-3,
            max_epochs=500, patience=5, seed=7,
        )
        _, report5 = train_mlp(wider, (x_tr, y_tr), (x_va, y_va))
        assert report5.best_epoch == report.best_epoch
        assert report5.epochs_run == report5.best_epoch + 5

    @pytest.mark.parametrize(
        "cfg",
        [
            MLPConfig(variant="base", input_dim=10, batch_size=16, max_epochs=1, seed=2),
            MLPConfig(
                variant="deep", input_dim=10, hidden_dims=(40, 20), dropout=0.3,
                batch_size=32, max_epochs=1, seed=5,
            ),
        ],
        ids=["base", "deep"],
    )
    def test_validation_loss_is_the_eval_mode_fvu(self, cfg):
        """The per-epoch validation loss, computed with denominators kept
        from before the first epoch, is bit for bit `fvu_loss` of the
        eval-mode forward pass, also with a constant target dimension."""
        x_tr, y_tr, x_va, y_va = _split_task(seed=6)
        y_va[:, 3] = 0.5
        model, report = train_mlp(cfg, (x_tr, y_tr), (x_va, y_va))
        assert report.epochs_run == 1
        assert report.val_history[0] == fvu_loss(predict(model, x_va), y_va)
        assert report.best_val_loss == report.val_history[0]

    def test_best_weights_restored(self):
        rng = np.random.default_rng(5)
        x_tr = rng.normal(size=(12, 6))
        y_tr = rng.normal(size=(12, 26))
        x_va = rng.normal(size=(8, 6))
        y_va = rng.normal(size=(8, 26))
        cfg = MLPConfig(
            variant="base", input_dim=6, batch_size=12, learning_rate=5e-3,
            max_epochs=500, patience=3, seed=7,
        )
        model, report = train_mlp(cfg, (x_tr, y_tr), (x_va, y_va))
        val_loss = fvu_loss(predict(model, x_va), y_va)
        assert val_loss == pytest.approx(report.best_val_loss, abs=1e-12)

    def test_deterministic(self):
        x_tr, y_tr, x_va, y_va = _split_task(seed=3)
        cfg = MLPConfig(
            variant="deep", input_dim=10, hidden_dims=(8,), batch_size=32,
            max_epochs=12, patience=30, seed=4,
        )
        m1, r1 = train_mlp(cfg, (x_tr, y_tr), (x_va, y_va))
        m2, r2 = train_mlp(cfg, (x_tr, y_tr), (x_va, y_va))
        assert r1.val_history == r2.val_history
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_nonfinite_input_raises(self):
        """Rejected up front, before any matmul can warn about it; a finite
        value float32 cannot hold is refused before the cast to float32
        could turn it into inf."""
        cfg = MLPConfig(variant="base", input_dim=10, max_epochs=5, seed=0)
        for which, row, value, message in (
            (0, 0, np.inf, "non-finite train features at row 0"),
            (3, 4, np.nan, "non-finite validation targets at row 4"),
            (0, 3, 1e300, "train features at row 3 exceed the float32 range"),
            (1, 0, -1e300, "train targets at row 0 exceed the float32 range"),
            (2, 7, 1e39, "validation features at row 7 exceed the float32 range"),
        ):
            arrays = [a.copy() for a in _split_task()]
            arrays[which][row, 1] = value
            x_tr, y_tr, x_va, y_va = arrays
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(MLPError, match=message):
                    train_mlp(cfg, (x_tr, y_tr), (x_va, y_va))

    def test_float32_model_refuses_out_of_range_input(self):
        x_tr, y_tr, x_va, y_va = _split_task()
        cfg = MLPConfig(variant="base", input_dim=10, max_epochs=2, seed=0)
        model, _ = train_mlp(cfg, (x_tr, y_tr), (x_va, y_va))
        x = np.ones((3, 10))
        x[1, 4] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MLPError, match="input at row 1 exceed the float32 range"):
                predict(model, x)
            with pytest.raises(MLPError, match="input at row 0 exceed the float32 range"):
                predict(model, x[1:2])
            x[1, 4] = np.nan
            with pytest.raises(MLPError, match="non-finite input at row 1"):
                predict(model, x)

    def test_dimension_errors(self):
        x_tr, y_tr, x_va, y_va = _split_task()
        cfg = MLPConfig(variant="base", input_dim=9, max_epochs=5, seed=0)
        with pytest.raises(MLPError):
            train_mlp(cfg, (x_tr, y_tr), (x_va, y_va))
        cfg10 = MLPConfig(variant="base", input_dim=10, max_epochs=5, seed=0)
        with pytest.raises(MLPError):
            train_mlp(cfg10, (x_tr[:0], y_tr[:0]), (x_va, y_va))


class TestBinarize:
    def test_all_below_threshold(self):
        assert not binarize(np.zeros(26)).any()

    def test_boundary_is_active(self):
        y = np.zeros(26)
        y[4] = 0.5
        out = binarize(y)
        assert out[4]
        assert out.sum() == 1

    def test_one_hot(self):
        y = np.zeros(26)
        y[5] = 1.0
        out = binarize(y)
        assert out.dtype == bool
        assert np.flatnonzero(out).tolist() == [5]


def _version_and_header(blob: bytes) -> bytes:
    """What a checkpoint holds after its magic: version 1, then `blob` as the header."""
    return b"\x01" + len(blob).to_bytes(4, "little") + blob


class TestCheckpoint:
    def _trained(self):
        cfg = MLPConfig(variant="deep", input_dim=9, hidden_dims=(5,), seed=11, max_epochs=3)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(20, 9))
        y = rng.normal(size=(20, 26))
        model, _ = train_mlp(cfg, (x[:16], y[:16]), (x[16:], y[16:]))
        return model

    def test_round_trip(self, tmp_path):
        model = self._trained()
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config.variant == model.config.variant
        assert loaded.config.resolved_hidden() == model.config.resolved_hidden()
        assert loaded.config.input_dim == model.config.input_dim
        for p, lp in zip([*model.weights, *model.biases], [*loaded.weights, *loaded.biases]):
            assert lp.dtype == np.float32
            np.testing.assert_array_equal(lp, p)
        x = np.random.default_rng(1).normal(size=(1, 9))
        np.testing.assert_array_equal(predict(loaded, x), predict(model, x))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 32)
        with pytest.raises(MLPError, match="not a model checkpoint"):
            load_model(path)

    def test_bad_version(self, tmp_path):
        model = self._trained()
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(MLPError, match="version"):
            load_model(path)

    def test_truncated_parameters(self, tmp_path):
        model = self._trained()
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        expected = 4 * model.config.num_parameters()
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(MLPError, match=f"{expected - 1} parameter bytes, expected {expected}"):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        model = self._trained()
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        expected = 4 * model.config.num_parameters()
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(MLPError, match=f"{expected + 4} parameter bytes, expected {expected}"):
            load_model(path)

    @staticmethod
    def _edit_config(path, edit):
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[9:13], "little")
        header = json.loads(raw[13 : 13 + header_len])
        edit(header["config"])
        body = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:9] + len(body).to_bytes(4, "little") + body + raw[13 + header_len :])

    def test_missing_config_key(self, tmp_path):
        """A header without `seed` must not load as the default seed 0."""
        path = tmp_path / "model.ckpt"
        save_model(self._trained(), path)
        self._edit_config(path, lambda cfg: cfg.pop("seed"))
        with pytest.raises(MLPError, match="config lacks the key 'seed'"):
            load_model(path)

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_model(self._trained(), path)
        self._edit_config(path, lambda cfg: cfg.update(momentum=0.9))
        with pytest.raises(MLPError, match="config has an unknown key 'momentum'"):
            load_model(path)

    def test_tampered_shape_chain(self, tmp_path):
        model = self._trained()
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[9:13], "little")
        header = raw[13 : 13 + header_len].decode("utf-8")
        tampered = header.replace("[9, 5]", "[9, 4]", 1)
        assert tampered != header
        body = tampered.encode("utf-8")
        path.write_bytes(raw[:9] + len(body).to_bytes(4, "little") + body + raw[13 + header_len :])
        with pytest.raises(MLPError):
            load_model(path)

    @pytest.mark.parametrize(
        "tail",
        [
            b"",
            b"\x01",
            _version_and_header(b"not json"),
            _version_and_header(b"{}"),
            _version_and_header(b"[]"),
            _version_and_header(json.dumps(
                {"config": {**asdict(MLPConfig()), "input_dim": "9"}, "shapes": []}
            ).encode()),
        ],
        ids=["magic-only", "no-header-length", "not-json", "empty-object", "array", "config-type"],
    )
    def test_malformed_header_names_the_file(self, tmp_path, tail):
        path = tmp_path / "model.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + tail)
        with pytest.raises(MLPError, match=re.escape(str(path))):
            load_model(path)


class TestPrecision:
    """float32 training, float64 loss and gradient oracles."""

    def test_trained_parameters_are_float32(self):
        x_tr, y_tr, x_va, y_va = _split_task()
        cfg = MLPConfig(
            variant="deep", input_dim=10, hidden_dims=(8, 6), batch_size=32,
            max_epochs=3, seed=1,
        )
        model, report = train_mlp(cfg, (x_tr, y_tr), (x_va, y_va))
        for p in [*model.weights, *model.biases]:
            assert p.dtype == np.float32
        assert predict(model, x_va).dtype == np.float32
        assert isinstance(report.best_val_loss, float)

    def test_oracle_model_grads_are_float64(self):
        cfg = MLPConfig(variant="deep", input_dim=7, hidden_dims=(9,), dropout=0.2, seed=8)
        model = init_model(cfg)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 7))
        y = rng.normal(size=(5, 26))
        masks = make_dropout_masks(cfg, 5, np.random.default_rng(10))
        assert all(m.dtype == np.float32 for m in masks if m is not None)
        loss, d_w, d_b = loss_and_grads(model, x, y, masks)
        assert isinstance(loss, float)
        for g in [*d_w, *d_b]:
            assert g.dtype == np.float64

    def test_training_peak_memory_per_parameter(self):
        """Parameters, both moments and the best-epoch copy in four float32
        buffers allocated once, and each gradient slab applied by Adam as
        soon as backprop computes it, through a slab-sized and a
        block-sized scratch: the traced peak of one call stays at or below
        23.0 bytes per parameter (22.2 measured; the 1 MB slab scratch,
        as large as this net's biggest weight, is 3.7 of it).  A flat
        gradient buffer besides (24.8 measured), a fresh gradient set per
        step or float64 moments exceed it."""
        cfg = MLPConfig(
            variant="deep", input_dim=16, hidden_dims=(1024, 256), batch_size=32,
            max_epochs=3, patience=3, seed=1,
        )
        rng = np.random.default_rng(0)
        x = rng.normal(size=(160, 16))
        y = rng.random(size=(160, 26))
        n_params = cfg.num_parameters()
        tracemalloc.start()
        try:
            train_mlp(cfg, (x[:128], y[:128]), (x[128:], y[128:]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n_params <= 23.0
