import math

import numpy as np
import pytest

from crnn.data import Dataset, SequenceExample
from crnn.framing import WindowSpec
from crnn.layers import CrnnLayerConfig, SequenceTooShortError
from crnn.model import ModelConfig, init_model, model_backward, model_forward
from crnn.numerics import Rng, named_arrays, tree_copy, zeros_like_tree
from crnn.training import (
    TrainConfig,
    adam_step,
    cross_entropy,
    fd_check,
    grad_check,
    init_adam,
    loss_gradients,
    relative_error,
    should_stop,
    train,
)

from fdtools import TOL


class TestCrossEntropy:
    def test_uniform_two_class(self):
        assert cross_entropy(np.array([0.5, 0.5]), 0) == pytest.approx(math.log(2))
        assert cross_entropy(np.array([0.5, 0.5]), 1) == pytest.approx(math.log(2))

    def test_one_hot_correct_is_zero(self):
        assert cross_entropy(np.array([0.0, 1.0]), 1) == 0.0

    def test_hand_value(self):
        assert cross_entropy(np.array([0.25, 0.75]), 1) == pytest.approx(0.2877, abs=1e-4)
        assert cross_entropy(np.array([0.25, 0.75]), 1) == pytest.approx(-math.log(0.75))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label 2"):
            cross_entropy(np.array([0.5, 0.5]), 2)
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.5, 0.5]), -1)


def scalar_params():
    return np.array([[0.0]])


class TestAdam:
    def test_zero_gradient_is_exact_noop(self):
        p = Rng(0).normal(0, 1, (3, 4))
        before = p.copy()
        state = init_adam(p)
        adam_step(state, p, np.zeros_like(p))
        np.testing.assert_array_equal(p, before)
        assert state.t == 1

    @pytest.mark.parametrize("g", [0.1, -0.1, 1.0, -3.5, 250.0])
    def test_first_step_magnitude_is_lr(self, g):
        p = scalar_params()
        state = init_adam(p)
        adam_step(state, p, np.array([[g]]))
        # bias correction makes m_hat = g and v_hat = g*g on step one, so
        # the update is lr * g / (|g| + eps)
        assert abs(p[0, 0]) == pytest.approx(state.lr, rel=1e-6)
        assert np.sign(p[0, 0]) == -np.sign(g)

    def test_two_step_scalar_recurrence(self):
        # hand-iterate the five update equations for g = 1 twice
        lr, b1, b2, eps = 0.002, 0.1, 0.001, 1e-8
        m = v = 0.0
        theta = 0.0
        for t in (1, 2):
            m = b1 * m + (1.0 - b1) * 1.0
            v = b2 * v + (1.0 - b2) * 1.0
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            theta -= lr * m_hat / (math.sqrt(v_hat) + eps)

        p = scalar_params()
        state = init_adam(p, lr=lr, beta1=b1, beta2=b2, epsilon=eps)
        adam_step(state, p, np.ones((1, 1)))
        adam_step(state, p, np.ones((1, 1)))
        assert p[0, 0] == pytest.approx(theta, abs=1e-12)

    def test_defaults_match_stated_values(self):
        state = init_adam(scalar_params())
        assert (state.lr, state.beta1, state.beta2, state.epsilon) == \
            (0.002, 0.1, 0.001, 1e-8)

    def test_moment_shapes_mirror_params(self):
        from crnn.cells import init_lstm
        p = init_lstm(2, 3, Rng(0))
        state = init_adam(p)
        for (n1, a), (n2, m), (n3, v) in zip(named_arrays(p), named_arrays(state.m),
                                             named_arrays(state.v)):
            assert n1 == n2 == n3 and a.shape == m.shape == v.shape
            assert np.all(m == 0.0) and np.all(v == 0.0)

    def test_second_moment_stays_nonnegative(self):
        p = scalar_params()
        state = init_adam(p)
        for g in (1.0, -2.0, 0.5, -0.1):
            adam_step(state, p, np.array([[g]]))
            assert float(state.v[0, 0]) >= 0.0

    def test_shape_mismatch_rejected(self):
        p = np.zeros((2, 2))
        state = init_adam(p)
        with pytest.raises(ValueError):
            adam_step(state, p, np.zeros((2, 3)))

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            init_adam(scalar_params(), lr=0.0)
        with pytest.raises(ValueError):
            init_adam(scalar_params(), beta1=1.0)
        with pytest.raises(ValueError):
            init_adam(scalar_params(), beta2=-0.1)


def tiny_model():
    layer = CrnnLayerConfig(kind="clstm", features=3, window=WindowSpec(3, 2),
                            source="cell", reduction="last")
    return ModelConfig(input_dim=2, num_classes=2, layers=(layer,),
                       classifier="lstm", classifier_dim=3, dense_dim=4,
                       aggregation="all")


class TestLossGradients:
    def test_doubling_upstream_doubles_gradients_exactly(self):
        c = tiny_model()
        params = init_model(c, Rng(0))
        x = Rng(1).normal(0, 1, (2, 9))
        probs, trace = model_forward(c, params, x)
        d = Rng(2).normal(0, 1, probs.shape)
        g1, dx1 = model_backward(c, params, trace, d)
        g2, dx2 = model_backward(c, params, trace, 2.0 * d)
        for (_, a), (_, b) in zip(named_arrays(g1), named_arrays(g2)):
            np.testing.assert_array_equal(2.0 * a, b)
        np.testing.assert_array_equal(2.0 * dx1, dx2)

    def test_batch_gradient_is_mean_of_example_gradients(self):
        c = tiny_model()
        params = init_model(c, Rng(3))
        rng = Rng(4)
        examples = [(rng.normal(0, 1, (2, 9)), int(rng.integers(0, 2)))
                    for _ in range(3)]
        acc = zeros_like_tree(params)
        for x, label in examples:
            _, g = loss_gradients(c, params, x, label)
            for (_, a), (_, gg) in zip(named_arrays(acc), named_arrays(g)):
                a += gg
        for _, a in named_arrays(acc):
            a /= 3.0
        # the same mean computed in one shot per example, then averaged
        # pairwise in a different order, must agree to the last ulp scale
        gs = [loss_gradients(c, params, x, label)[1] for x, label in examples]
        for leaves in zip(named_arrays(acc), *(named_arrays(g) for g in gs)):
            (_, mean), rest = leaves[0], [arr for _, arr in leaves[1:]]
            np.testing.assert_allclose(mean, sum(rest) / 3.0, atol=1e-15)

    def test_stationary_point_has_zero_gradient(self):
        # all-zero parameters give uniform predictions for any input; a
        # label-balanced pair is then a stationary point of the summed
        # loss, so the total gradient must vanish identically
        c = tiny_model()
        params = init_model(c, Rng(5))
        for _, arr in named_arrays(params):
            arr[...] = 0.0
        rng = Rng(6)
        x = rng.normal(0, 1, (2, 9))
        total = zeros_like_tree(params)
        for label in (0, 1):
            _, g = loss_gradients(c, params, x, label)
            for (_, a), (_, gg) in zip(named_arrays(total), named_arrays(g)):
                a += gg
        norm = math.sqrt(sum(float(np.sum(a * a)) for _, a in named_arrays(total)))
        assert norm < 1e-10


class TestFdCheck:
    def test_quadratic_is_near_exact(self):
        # central differences are exact for polynomials up to cubic order
        target = np.array([[0.3, -1.2], [0.7, 2.0]])
        theta = np.array([[1.0, 0.5], [-0.25, 1.5]])
        analytic = 2.0 * (theta - target)

        def loss() -> float:
            return float(np.sum((theta - target) ** 2))

        report = fd_check(loss, theta, analytic)
        assert report.max_rel_error < 1e-9

    def test_zero_gradient_at_minimum(self):
        theta = np.array([[0.3, -1.2]])
        analytic = np.zeros_like(theta)

        def loss() -> float:
            return float(np.sum((theta - np.array([[0.3, -1.2]])) ** 2))

        assert fd_check(loss, theta, analytic).max_rel_error < 1e-9

    def test_sign_flip_is_detected(self):
        theta = np.array([[1.0, -0.5]])
        analytic = -2.0 * theta   # wrong sign

        def loss() -> float:
            return float(np.sum(theta ** 2))

        report = fd_check(loss, theta, analytic)
        assert report.max_rel_error > 0.5
        assert report.failures
        name, idx, err = report.worst(1)[0]
        assert err > 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_fails(self, bad):
        # NaN compares false against any threshold; it must still count
        theta = np.array([[1.0, -0.5]])
        analytic = np.full_like(theta, bad)

        def loss() -> float:
            return float(np.sum(theta ** 2))

        report = fd_check(loss, theta, analytic)
        assert report.max_rel_error == math.inf
        assert len(report.failures) == theta.size
        assert all(err == math.inf for _, _, err in report.failures)

    def test_relative_error_floor(self):
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(1e-12, 0.0) == pytest.approx(1e-4)

    def test_grad_check_toy_model(self):
        c = tiny_model()
        report = grad_check(c, seed=2, length=9)
        assert report.max_rel_error < TOL
        assert not report.failures
        assert set(report.per_param) == {n for n, _ in
                                         named_arrays(init_model(c, Rng(0)))}


class TestShouldStop:
    def test_best_is_latest(self):
        assert should_stop([0.1, 0.2, 0.3, 0.4, 0.5], patience=12) is False

    def test_boundary_at_patience(self):
        # best at epoch 1; 12 epochs since best is not yet "more than"
        hist13 = [1.0] + [0.5] * 12
        assert should_stop(hist13, patience=12) is False
        hist14 = [1.0] + [0.5] * 13
        assert should_stop(hist14, patience=12) is True

    def test_monotone_decreasing_stops_after_patience_exceeded(self):
        # strictly decreasing: best stays at epoch 1, so the first stop
        # decision comes once more than `patience` epochs have passed
        metric = [1.0 - 0.01 * i for i in range(20)]
        first_true = next(n for n in range(1, 21)
                          if should_stop(metric[:n], patience=12))
        assert first_true == 14

    def test_ties_keep_earliest_best(self):
        assert should_stop([0.5] * 14, patience=12) is True

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            should_stop([], patience=12)


def separable_dataset(count: int, seed: int) -> Dataset:
    rng = Rng(seed)
    examples = []
    for i in range(count):
        label = i % 2
        center = 1.0 if label == 0 else -1.0
        feats = rng.normal(center, 0.1, (2, 6))
        examples.append(SequenceExample(features=feats, label=label,
                                        group="synth", source_id=f"sep-{i}"))
    return Dataset(examples=examples, num_classes=2)


def head_only_model():
    return ModelConfig(input_dim=2, num_classes=2, classifier="lstm",
                       classifier_dim=4, dense_dim=4, aggregation="all")


class TestTrain:
    def test_separable_task_converges(self):
        train_set = separable_dataset(24, seed=0)
        result = train(head_only_model(), TrainConfig(batch_size=8, max_epochs=50,
                                                      seed=1),
                       train_set, train_set)
        assert result.best_metric == 1.0
        assert result.best_epoch <= 50
        from crnn.training import evaluate
        assert evaluate(head_only_model(), result.params, train_set).ua_recall == 1.0

    def test_same_seed_identical_history(self):
        train_set = separable_dataset(16, seed=2)
        val_set = separable_dataset(8, seed=3)
        tc = TrainConfig(batch_size=4, max_epochs=3, seed=7)
        r1 = train(head_only_model(), tc, train_set, val_set)
        r2 = train(head_only_model(), tc, train_set, val_set)
        assert [(e.epoch, e.train_loss, e.val_ua_recall) for e in r1.history] == \
            [(e.epoch, e.train_loss, e.val_ua_recall) for e in r2.history]
        for (_, a), (_, b) in zip(named_arrays(r1.params), named_arrays(r2.params)):
            assert a.tobytes() == b.tobytes()

    def test_different_seed_differs(self):
        train_set = separable_dataset(16, seed=2)
        r1 = train(head_only_model(), TrainConfig(max_epochs=2, seed=0),
                   train_set, train_set)
        r2 = train(head_only_model(), TrainConfig(max_epochs=2, seed=1),
                   train_set, train_set)
        assert any(a.tobytes() != b.tobytes()
                   for (_, a), (_, b) in zip(named_arrays(r1.params),
                                             named_arrays(r2.params)))

    def test_empty_sets_rejected(self):
        empty = Dataset(examples=[], num_classes=2)
        full = separable_dataset(4, seed=0)
        with pytest.raises(ValueError, match="training set"):
            train(head_only_model(), TrainConfig(), empty, full)
        with pytest.raises(ValueError, match="validation set"):
            train(head_only_model(), TrainConfig(), full, empty)

    def test_too_short_sequence_names_example_index(self):
        good = separable_dataset(4, seed=0)
        bad_examples = list(good.examples)
        bad_examples[2] = SequenceExample(features=np.zeros((2, 2)), label=0,
                                          group="synth", source_id="short")
        bad = Dataset(examples=bad_examples, num_classes=2)
        layer_model = ModelConfig(
            input_dim=2, num_classes=2, classifier_dim=4, dense_dim=4,
            layers=(CrnnLayerConfig(kind="clstm", features=2,
                                    window=WindowSpec(3, 1)),))
        with pytest.raises(SequenceTooShortError, match="example 2"):
            train(layer_model, TrainConfig(), bad, good)

    def test_history_records_every_epoch(self):
        train_set = separable_dataset(8, seed=4)
        result = train(head_only_model(), TrainConfig(max_epochs=4, seed=0,
                                                      batch_size=4),
                       train_set, train_set)
        assert [r.epoch for r in result.history] == list(range(1, len(result.history) + 1))
        assert all(math.isfinite(r.train_loss) for r in result.history)

    def test_log_callback_receives_lines(self):
        lines = []
        train_set = separable_dataset(8, seed=4)
        train(head_only_model(), TrainConfig(max_epochs=2, seed=0, batch_size=4),
              train_set, train_set, log=lines.append)
        assert len(lines) == 2
        assert all("train_loss" in ln and "wall_s" in ln for ln in lines)


class TestTrainConfigValidation:
    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    def test_rejects_bad_patience(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=0)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(lr=0.0), "lr and epsilon must be positive"),
        (dict(epsilon=0.0), "lr and epsilon must be positive"),
        (dict(beta1=1.0), r"beta1 and beta2 must lie in \[0, 1\)"),
    ])
    def test_rejects_bad_adam_settings(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs)
