"""A list of clips of their own lengths runs as one packed pass.

Each case feeds three clips of different lengths, in an order that is not
sorted by length: one clip at ``min_sequence_length`` (a single head
step, fewer than ``aggregation_steps``) and two longer ones.  Each clip's
probabilities must match its own one-clip pass to 1e-15 relative; the
batched loss and gradients must equal the per-example ones summed.  The
arithmetic is the same, only the order of summation moves, so leaves are
compared to 1e-12 of their largest entry.  The batched gradient is also
checked against central differences at the suite's tolerance; as in
``fdtools``, those seeds are pinned per case to draws where every
coordinate's gradient is above the difference quotient's noise floor.
"""
import itertools

import numpy as np
import pytest

import crnn.training
from crnn.data import Dataset, SequenceExample
from crnn.framing import WindowSpec
from crnn.layers import KINDS, CrnnLayerConfig
from crnn.model import (
    ModelConfig,
    init_model,
    min_sequence_length,
    model_backward,
    model_forward,
    predict_proba,
)
from crnn.numerics import Rng, named_arrays
from crnn.training import (
    NumericError,
    TrainConfig,
    cross_entropy,
    evaluate,
    fd_check,
    loss_gradients,
    train,
)

from fdtools import STEP, TOL

EXTRA_FRAMES = (4, 0, 7)   # frames beyond the minimum, per clip
REL = 1e-12
PROB_REL = 1e-15


def layer_config(kind: str, pool: bool) -> CrnnLayerConfig:
    extra = {
        "conv": dict(activation="tanh"),
        "clstm": dict(source="output", hidden_dim=2, reduction="max"),
        "extended_clstm": dict(source="cell", reduction="mean"),
        "cblstm": dict(source="hidden", hidden_dim=2, reduction="max"),
    }[kind]
    return CrnnLayerConfig(kind=kind, features=3, window=WindowSpec(3, 2),
                           pool=WindowSpec(2, 1) if pool else None, **extra)


def model_config(kind, pool, classifier, aggregation) -> ModelConfig:
    return ModelConfig(input_dim=2, num_classes=3, layers=(layer_config(kind, pool),),
                       classifier=classifier, classifier_dim=3, dense_dim=4,
                       aggregation=aggregation, aggregation_steps=2)


CASES = list(itertools.product(KINDS, (False, True), ("lstm", "blstm"), ("all", "last")))
FD_SEEDS = dict(zip(CASES, (
    5, 5, 5, 5, 5, 5, 5, 5,         # conv
    7, 6, 6, 8, 6, 6, 5, 5,         # clstm
    9, 5, 7, 6, 6, 7, 6, 6,         # extended_clstm
    5, 5, 6, 6, 6, 8, 6, 7,         # cblstm
)))


def batch_inputs(config: ModelConfig, seed: int):
    rng = Rng(seed)
    params = init_model(config, rng.split())
    drng = rng.split()
    need = min_sequence_length(config)
    xs = [drng.normal(0.0, 1.0, (config.input_dim, need + extra)) for extra in EXTRA_FRAMES]
    labels = [int(v) for v in drng.integers(0, config.num_classes, len(xs))]
    return params, xs, labels


def assert_leaf_close(got: np.ndarray, want: np.ndarray, name: str) -> None:
    scale = max(float(np.max(np.abs(want))), 1e-300)
    err = float(np.max(np.abs(got - want))) / scale
    assert err <= REL, f"{name}: relative difference {err:.3e}"


def assert_probs_close(got: np.ndarray, want: np.ndarray) -> None:
    err = float(np.max(np.abs(got - want) / np.abs(want)))
    assert err <= PROB_REL, f"probabilities differ by {err:.3e} relative"


@pytest.mark.parametrize("kind,pool,classifier,aggregation", CASES)
def test_batched_pass_equals_sum_of_examples(kind, pool, classifier, aggregation):
    c = model_config(kind, pool, classifier, aggregation)
    params, xs, labels = batch_inputs(c, seed=3)
    _, trace = model_forward(c, params, xs[1])
    assert trace.probs.shape[1] < c.aggregation_steps   # the shortest clip

    loss, grads = loss_gradients(c, params, xs, labels)
    probs, trace = model_forward(c, params, xs)
    assert probs.shape == (c.num_classes, len(xs))
    dprobs = Rng(4).normal(0.0, 1.0, probs.shape)
    _, dxs = model_backward(c, params, trace, dprobs)
    assert [dx.shape for dx in dxs] == [x.shape for x in xs]

    singles = [loss_gradients(c, params, x, y) for x, y in zip(xs, labels)]
    assert loss == pytest.approx(sum(s[0] for s in singles), rel=REL)
    for leaves in zip(named_arrays(grads), *(named_arrays(s[1]) for s in singles)):
        (name, got), rest = leaves[0], [arr for _, arr in leaves[1:]]
        assert_leaf_close(got, sum(rest), name)
    for b, x in enumerate(xs):
        p_b, tr_b = model_forward(c, params, x)
        assert p_b.shape == (c.num_classes,)
        assert_probs_close(probs[:, b], p_b)
        _, dx_b = model_backward(c, params, tr_b, dprobs[:, b])
        assert_leaf_close(dxs[b], dx_b, "dx")


@pytest.mark.parametrize("kind,pool,classifier,aggregation", CASES)
def test_batched_gradient_matches_finite_differences(kind, pool, classifier, aggregation):
    c = model_config(kind, pool, classifier, aggregation)
    params, xs, labels = batch_inputs(c, seed=FD_SEEDS[kind, pool, classifier, aggregation])
    _, grads = loss_gradients(c, params, xs, labels)
    assert all(np.any(g) for _, g in named_arrays(grads))

    def loss() -> float:
        probs, _ = model_forward(c, params, xs)
        return cross_entropy(probs, labels)

    report = fd_check(loss, params, grads, step=STEP, threshold=TOL)
    assert report.max_rel_error < TOL, report.worst()


@pytest.mark.parametrize("classifier", ["lstm", "blstm"])
def test_permuting_clips_permutes_outputs(classifier):
    c = model_config("clstm", True, classifier, "last")
    params, xs, labels = batch_inputs(c, seed=3)
    probs, trace = model_forward(c, params, xs)
    dprobs = Rng(4).normal(0.0, 1.0, probs.shape)
    _, dxs = model_backward(c, params, trace, dprobs)
    perm = [2, 0, 1]
    probs_p, trace_p = model_forward(c, params, [xs[j] for j in perm])
    _, dxs_p = model_backward(c, params, trace_p, dprobs[:, perm])
    np.testing.assert_array_equal(probs_p, probs[:, perm])
    for j, dx in zip(perm, dxs_p):
        np.testing.assert_array_equal(dx, dxs[j])


def mixed_length_dataset(config: ModelConfig, lengths, seed: int) -> Dataset:
    rng = Rng(seed)
    examples = [SequenceExample(features=rng.normal(0.0, 1.0, (config.input_dim, length)),
                                label=i % config.num_classes, source_id=f"mix-{i}")
                for i, length in enumerate(lengths)]
    return Dataset(examples=examples, num_classes=config.num_classes)


def test_evaluate_mixed_lengths_matches_per_example_predictions():
    c = model_config("clstm", True, "lstm", "last")
    params = init_model(c, Rng(6))
    need = min_sequence_length(c)
    lengths = [need + d for d in (0, 3, 0, 5, 3, 0, 0, 5, 3, 0, 1)]
    data = mixed_length_dataset(c, lengths, seed=7)
    want = [int(np.argmax(predict_proba(c, params, ex.features))) for ex in data.examples]
    assert evaluate(c, params, data, batch_size=2).predictions == want
    assert evaluate(c, params, data, batch_size=16).predictions == want


def test_train_makes_one_loss_gradients_call_per_batch(monkeypatch):
    c = model_config("clstm", False, "lstm", "all")
    need = min_sequence_length(c)
    train_set = mixed_length_dataset(c, [need + d for d in range(10)], seed=8)
    sizes = []

    def counting(config, params, x, label):
        sizes.append(len(x))
        return loss_gradients(config, params, x, label)

    monkeypatch.setattr(crnn.training, "loss_gradients", counting)
    train(c, TrainConfig(batch_size=4, max_epochs=2, seed=9), train_set, train_set)
    assert sizes == [4, 4, 2] * 2


def test_non_finite_example_stops_training_at_its_batch():
    c = model_config("clstm", False, "lstm", "all")
    need = min_sequence_length(c)
    train_set = mixed_length_dataset(c, [need + 2] * 12, seed=8)
    bad = 7
    train_set.examples[bad].features[1, 2] = np.nan
    tc = TrainConfig(batch_size=4, max_epochs=2, seed=9)

    # train() splits its seed into an init stream, then the shuffle stream
    rng = Rng(tc.seed)
    rng.split()
    order = list(rng.split().permutation(len(train_set.examples)))
    batch = order.index(bad) // tc.batch_size + 1
    first_leaf = named_arrays(init_model(c, Rng(0)))[0][0]

    with pytest.raises(NumericError) as info:
        train(c, tc, train_set, train_set)
    assert str(info.value) == (f"non-finite gradient in {first_leaf} "
                               f"at epoch 1, batch {batch}")
