"""Multilabel regressor: architecture, FVU loss, backprop, training loop."""

import warnings

import numpy as np
import pytest

from emoprop.mlp import (
    MLPConfig,
    MLPError,
    MLPModel,
    binarize,
    forward,
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
)


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
            {"output_dim": 25},
            {"dropout": 1.0},
            {"dropout": -0.1},
            {"variant": "base", "hidden_dims": (10,)},
            {"patience": 0},
            {"max_epochs": 0},
            {"batch_size": 0},
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
        model = init_model(MLPConfig(variant="deep", input_dim=300))
        expected = (
            300 * 4096 + 4096
            + 4096 * 1024 + 1024
            + 1024 * 256 + 256
            + 256 * 26 + 26
        )
        assert model.num_parameters() == expected

    def test_base_parameter_count(self):
        model = init_model(MLPConfig(variant="base", input_dim=300))
        assert model.num_parameters() == 300 * 26 + 26

    def test_deterministic(self):
        cfg = MLPConfig(variant="deep", input_dim=20, hidden_dims=(6, 5), seed=3)
        a, b = init_model(cfg), init_model(cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

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
        out = forward(zeroed, np.ones(12))
        assert np.array_equal(out, np.zeros(26))

    def test_shapes(self):
        model = init_model(MLPConfig(variant="deep", input_dim=14, hidden_dims=(7,), seed=0))
        assert forward(model, np.ones(14)).shape == (26,)
        assert forward(model, np.ones((5, 14))).shape == (5, 26)

    def test_full_deep_eval(self):
        model = init_model(MLPConfig(variant="deep", input_dim=300, seed=1))
        out = predict(model, np.random.default_rng(0).normal(size=300))
        assert out.shape == (26,)
        assert np.all(np.isfinite(out))

    def test_dropout_zero_train_equals_eval(self):
        cfg = MLPConfig(variant="deep", input_dim=10, hidden_dims=(6,), dropout=0.0, seed=2)
        model = init_model(cfg)
        x = np.random.default_rng(3).normal(size=(4, 10))
        train_out = forward(model, x, rng=np.random.default_rng(9))
        eval_out = forward(model, x)
        assert np.array_equal(train_out, eval_out)

    def test_input_dim_mismatch(self):
        model = init_model(MLPConfig(variant="base", input_dim=10))
        with pytest.raises(MLPError):
            forward(model, np.ones(11))

    def test_mask_values(self):
        cfg = MLPConfig(variant="deep", input_dim=10, hidden_dims=(40, 40, 40), dropout=0.2, seed=0)
        masks = make_dropout_masks(cfg, 6, np.random.default_rng(5))
        assert len(masks) == 3
        assert masks[2] is None
        for m in masks[:2]:
            assert m.shape == (6, 40)
            assert set(np.unique(m)).issubset({0.0, 1.25})

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
        expected = forward(positive, x)
        rng = np.random.default_rng(77)
        total = np.zeros(26)
        draws = 10000
        for _ in range(draws):
            total += forward(positive, x, rng=rng)
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


class TestTraining:
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
        """Rejected up front, before any matmul can warn about it."""
        cfg = MLPConfig(variant="base", input_dim=10, max_epochs=5, seed=0)
        for which, row, value, message in (
            (0, 0, np.inf, "non-finite train features at row 0"),
            (3, 4, np.nan, "non-finite validation targets at row 4"),
        ):
            arrays = [a.copy() for a in _split_task()]
            arrays[which][row, 1] = value
            x_tr, y_tr, x_va, y_va = arrays
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(MLPError, match=message):
                    train_mlp(cfg, (x_tr, y_tr), (x_va, y_va))

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
        out = binarize(y, threshold=0.5)
        assert out[4]
        assert out.sum() == 1

    def test_one_hot(self):
        y = np.zeros(26)
        y[5] = 1.0
        out = binarize(y)
        assert out.dtype == bool
        assert np.flatnonzero(out).tolist() == [5]

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.3])
    def test_threshold_range(self, tau):
        with pytest.raises(MLPError):
            binarize(np.zeros(26), threshold=tau)


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
        for w, lw in zip(model.weights, loaded.weights):
            np.testing.assert_allclose(lw, w, rtol=1e-6, atol=1e-7)
        x = np.random.default_rng(1).normal(size=9)
        np.testing.assert_allclose(predict(loaded, x), predict(model, x), rtol=1e-4, atol=1e-5)

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
