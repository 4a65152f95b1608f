import numpy as np
import pytest

from crnn.cells import blstm_forward, lstm_forward
from crnn.framing import WindowSpec, max_pool_forward, window_count
from crnn.layers import (
    CrnnLayerConfig,
    DenseParams,
    SequenceTooShortError,
    dense_backward,
    dense_forward,
    init_dense,
    init_layer,
    layer_backward,
    layer_forward,
    softmax_backward,
    softmax_columns,
)
from crnn.model import ModelConfig, min_sequence_length
from crnn.numerics import Rng, param_count
from crnn.training import fd_check

from fdtools import TOL, probe_layer_check
from test_framing import make_windows


def one_layer_min_length(c: CrnnLayerConfig) -> int:
    """Shortest input of a one-layer model on this layer."""
    return min_sequence_length(ModelConfig(input_dim=2, num_classes=2, layers=(c,)))


def one(win: np.ndarray) -> np.ndarray:
    """One k-by-width window as a (width, k, 1) cell stack."""
    return win.T[:, :, None]


def seq(a: np.ndarray) -> np.ndarray:
    """The first sequence of a (T, n, B) stack as an n-by-T matrix."""
    return a[:, :, 0].T


def cfg(kind="clstm", features=3, window=(3, 2), pool=None, **kw):
    pool_spec = WindowSpec(*pool) if pool else None
    return CrnnLayerConfig(kind=kind, features=features,
                           window=WindowSpec(*window), pool=pool_spec, **kw)


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            cfg(kind="pooling")

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            cfg(source="logits")

    def test_cblstm_rejects_output_source(self):
        with pytest.raises(ValueError, match="hidden or cell"):
            cfg(kind="cblstm", source="output")

    def test_unknown_reduction(self):
        with pytest.raises(ValueError):
            cfg(reduction="sum")

    def test_conv_unknown_activation(self):
        with pytest.raises(ValueError):
            cfg(kind="conv", activation="selu")

    def test_hidden_dim_needs_projection_or_cblstm(self):
        with pytest.raises(ValueError):
            cfg(source="cell", hidden_dim=8)
        assert cfg(source="output", hidden_dim=8).state_dim == 8
        assert cfg(kind="cblstm", source="cell", hidden_dim=8).state_dim == 8

    def test_state_dim_defaults_to_features(self):
        assert cfg(features=5).state_dim == 5


class TestFramingArithmetic:
    @pytest.mark.parametrize("pool", [None, (2, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("window", [(1, 1), (3, 2), (5, 2), (4, 4)])
    def test_min_input_length_is_tight(self, window, pool):
        c = cfg(window=window, pool=pool)
        params = init_layer(c, 2, Rng(0))
        need = one_layer_min_length(c)
        out, _ = layer_forward(c, params, np.zeros((2, need)))
        assert out.shape[1] >= 1
        if need > 1:
            with pytest.raises(SequenceTooShortError):
                layer_forward(c, params, np.zeros((2, need - 1)))

    @pytest.mark.parametrize("pool", [None, (2, 2)])
    def test_output_length_matches_forward(self, pool):
        c = cfg(window=(3, 2), pool=pool)
        params = init_layer(c, 2, Rng(0))
        for length in range(one_layer_min_length(c), one_layer_min_length(c) + 9):
            out, _ = layer_forward(c, params, np.zeros((2, length)))
            cols = window_count(length, c.window)
            if pool is not None:
                cols = window_count(cols, c.pool)
            assert out.shape == (3, cols)


class TestParamCounts:
    def test_conv_formula(self):
        n, k, r1 = 7, 4, 5
        p = init_layer(cfg(kind="conv", features=n, window=(r1, 2)), k, Rng(0))
        assert param_count(p) == n * (k * r1 + 1)

    def test_clstm_formula_and_width_invariance(self):
        n, k = 6, 4
        expect = 4 * n * k + 7 * n * n + 4 * n
        for r1 in (1, 3, 8):
            p = init_layer(cfg(features=n, window=(r1, 2)), k, Rng(0))
            assert param_count(p) == expect

    def test_clstm_output_projection_adds_head(self):
        n, k, m = 6, 4, 3
        p = init_layer(cfg(features=n, window=(3, 2), source="output",
                           hidden_dim=m), k, Rng(0))
        assert param_count(p) == 4 * m * k + 7 * m * m + 4 * m + n * m + n

    def test_extended_grows_linearly_with_width(self):
        n, k = 5, 3
        counts = [param_count(init_layer(cfg(kind="extended_clstm", features=n,
                                             window=(r1, 1)), k, Rng(0)))
                  for r1 in (1, 2, 3)]
        assert counts[1] - counts[0] == 4 * n * k
        assert counts[2] - counts[1] == 4 * n * k

    def test_cblstm_formula_and_width_invariance(self):
        n, k, m = 4, 3, 5
        per_dir = 4 * m * k + 7 * m * m + 4 * m
        expect = 2 * per_dir + 2 * n * m + n
        for r1 in (2, 6):
            p = init_layer(cfg(kind="cblstm", features=n, window=(r1, 2),
                               source="hidden", hidden_dim=m), k, Rng(0))
            assert param_count(p) == expect


class TestConvLayer:
    def test_hand_fixture(self):
        # one feature, one input row, width 2: z_w = w0*x[2w] + w1*x[2w+1] + b
        c = cfg(kind="conv", features=1, window=(2, 2), activation="relu")
        p = init_layer(c, 1, Rng(0))
        p.weights[0, 0, :] = [1.0, -1.0]
        p.biases[0] = 0.5
        out, _ = layer_forward(c, p, np.array([[3.0, 1.0, 0.0, 4.0]]))
        np.testing.assert_allclose(out, [[2.5, 0.0]])

    @pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
    def test_matches_window_loop(self, activation):
        from crnn.numerics import ACTIVATIONS
        c = cfg(kind="conv", features=3, window=(3, 2), activation=activation)
        p = init_layer(c, 2, Rng(1))
        x = Rng(2).normal(0, 1, (2, 9))
        out, _ = layer_forward(c, p, x)
        for w, win in enumerate(make_windows(x, c.window)):
            z = np.tensordot(p.weights, win.T, axes=([1, 2], [1, 0])) + p.biases
            np.testing.assert_allclose(out[:, w], ACTIVATIONS[activation](z),
                                       atol=1e-12)


class TestRecurrentLayersAgainstWindowLoop:
    """The batched path must agree with running the cell window by window."""

    @pytest.mark.parametrize("source", ["hidden", "cell", "output"])
    @pytest.mark.parametrize("reduction", ["last", "mean", "max"])
    def test_clstm(self, source, reduction):
        hidden = 4 if source == "output" else None
        c = cfg(features=3, window=(3, 2), source=source, reduction=reduction,
                hidden_dim=hidden)
        p = init_layer(c, 2, Rng(3))
        x = Rng(4).normal(0, 1, (2, 9))
        out, _ = layer_forward(c, p, x)
        for w, win in enumerate(make_windows(x, c.window)):
            tr = lstm_forward(p.lstm, one(win))
            if source == "hidden":
                states = seq(tr.h)
            elif source == "cell":
                states = seq(tr.c)
            else:
                states = p.proj.W @ seq(tr.h) + p.proj.b[:, None]
            if reduction == "last":
                expect = states[:, -1]
            elif reduction == "mean":
                expect = states.mean(axis=1)
            else:
                expect = states.max(axis=1)
            np.testing.assert_allclose(out[:, w], expect, atol=1e-12)

    @pytest.mark.parametrize("source", ["hidden", "cell"])
    def test_cblstm(self, source):
        c = cfg(kind="cblstm", features=3, window=(4, 3), source=source,
                reduction="max", hidden_dim=2)
        p = init_layer(c, 2, Rng(5))
        x = Rng(6).normal(0, 1, (2, 10))
        out, _ = layer_forward(c, p, x)
        for w, win in enumerate(make_windows(x, c.window)):
            y, _, _ = blstm_forward(p, one(win))
            np.testing.assert_allclose(out[:, w], seq(y).max(axis=1), atol=1e-12)

    def test_extended_clstm(self):
        c = cfg(kind="extended_clstm", features=3, window=(3, 2),
                source="cell", reduction="last")
        p = init_layer(c, 2, Rng(7))
        x = Rng(8).normal(0, 1, (2, 9))
        out, _ = layer_forward(c, p, x)
        for w, win in enumerate(make_windows(x, c.window)):
            np.testing.assert_allclose(out[:, w], seq(lstm_forward(p.lstm, one(win)).c)[:, -1],
                                       atol=1e-12)

    def test_windows_restart_from_zero_state(self):
        # non-overlapping windows: permuting window order permutes output
        c = cfg(features=3, window=(3, 3), source="cell", reduction="last")
        p = init_layer(c, 2, Rng(9))
        x = Rng(10).normal(0, 1, (2, 9))
        out, _ = layer_forward(c, p, x)
        swapped = np.concatenate([x[:, 3:6], x[:, 0:3], x[:, 6:9]], axis=1)
        out2, _ = layer_forward(c, p, swapped)
        np.testing.assert_allclose(out2, out[:, [1, 0, 2]], atol=1e-12)


class TestPooling:
    def test_pool_stage_equals_max_pool_of_prepool(self):
        c = cfg(features=3, window=(2, 1), pool=(2, 2))
        p = init_layer(c, 2, Rng(11))
        x = Rng(12).normal(0, 1, (2, 9))
        out, trace = layer_forward(c, p, x)
        np.testing.assert_array_equal(out, max_pool_forward(trace.prepool, c.pool)[0])

    def test_too_short_for_pool_stage(self):
        c = cfg(features=3, window=(3, 2), pool=(3, 1))
        p = init_layer(c, 2, Rng(0))
        # 5 frames -> 2 windows, but the pool needs 3 columns
        with pytest.raises(SequenceTooShortError):
            layer_forward(c, p, np.zeros((2, 5)))


class TestLayerGradients:
    @pytest.mark.parametrize("case", [
        cfg(kind="conv", features=3, window=(3, 2), pool=(2, 1), activation="tanh"),
        cfg(features=3, window=(3, 2), pool=(2, 2), source="cell", reduction="last"),
        cfg(features=3, window=(3, 2), source="hidden", reduction="mean"),
        cfg(features=3, window=(3, 2), source="output", reduction="max", hidden_dim=4),
        cfg(kind="extended_clstm", features=3, window=(3, 2), source="cell",
            reduction="max"),
        cfg(kind="cblstm", features=3, window=(3, 2), pool=(2, 1), source="hidden",
            reduction="last", hidden_dim=2),
        cfg(kind="cblstm", features=3, window=(3, 2), source="cell", reduction="mean"),
    ])
    def test_fd(self, case):
        assert probe_layer_check(case, seed=0) < TOL

    def test_relu_conv_fd_uses_preactivation(self):
        # relu's kink sits at z=0; bias 0 with zero input would park every
        # coordinate exactly on it, so use a random input (seed 0 is fine)
        c = cfg(kind="conv", features=3, window=(3, 2), activation="relu")
        assert probe_layer_check(c, seed=0) < TOL


class TestDenseAndSoftmax:
    def test_dense_relu_forward(self):
        p = DenseParams(W=np.array([[1.0, -1.0]]), b=np.array([0.5]))
        out, pre = dense_forward(p, np.array([[1.0], [3.0]]))
        assert pre[0, 0] == -1.5 and out[0, 0] == 0.0

    def test_dense_fd(self):
        rng = Rng(13)
        p = init_dense(3, 4, rng.split())
        x = rng.split().normal(0, 1, (3, 5))
        out, pre = dense_forward(p, x)
        probe = rng.split().normal(0, 1, out.shape)
        grads, dx = dense_backward(p, x, pre, probe)

        def loss() -> float:
            y, _ = dense_forward(p, x)
            return float(np.sum(probe * y))

        assert fd_check(loss, p, grads).max_rel_error < TOL
        assert fd_check(loss, x, dx).max_rel_error < TOL

    def test_softmax_columns_sum_to_one(self):
        z = Rng(14).normal(0, 3, (5, 7))
        probs = softmax_columns(z)
        np.testing.assert_allclose(probs.sum(axis=0), np.ones(7), atol=1e-12)
        assert np.all(probs > 0.0)

    def test_softmax_shift_invariance(self):
        z = Rng(15).normal(0, 1, (4, 3))
        np.testing.assert_allclose(softmax_columns(z), softmax_columns(z + 100.0),
                                   atol=1e-12)

    def test_softmax_overflow_safe(self):
        probs = softmax_columns(np.array([[1000.0], [0.0]]))
        assert np.all(np.isfinite(probs)) and probs[0, 0] == pytest.approx(1.0)

    def test_softmax_backward_fd(self):
        rng = Rng(16)
        z = rng.normal(0, 1, (4, 3))
        probe = rng.normal(0, 1, (4, 3))
        probs = softmax_columns(z)
        dz = softmax_backward(probs, probe)

        def loss() -> float:
            return float(np.sum(probe * softmax_columns(z)))

        assert fd_check(loss, z, dz).max_rel_error < TOL
