"""A (k, l, B) stack of equal-length examples runs as one batched pass.

The batched loss and gradients must equal the per-example ones summed:
the arithmetic is the same, only the order of summation moves, so leaves
are compared to 1e-12 of their largest entry.  The batched gradient is
also checked against central differences at the suite's tolerance; as in
``fdtools``, those seeds are pinned per case to draws where every
coordinate's gradient is above the difference quotient's noise floor.
"""
import itertools

import numpy as np
import pytest

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

BATCH = 3
REL = 1e-12


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
    5, 5, 5, 5, 5, 5, 5, 7,         # conv
    7, 5, 19, 6, 6, 5, 5, 5,        # clstm
    7, 8, 8, 6, 7, 8, 8, 6,         # extended_clstm
    8, 5, 6, 27, 5, 5, 6, 6,        # cblstm
)))


def batch_inputs(config: ModelConfig, seed: int):
    rng = Rng(seed)
    params = init_model(config, rng.split())
    drng = rng.split()
    length = min_sequence_length(config) + 4
    x = drng.normal(0.0, 1.0, (config.input_dim, length, BATCH))
    labels = [int(v) for v in drng.integers(0, config.num_classes, BATCH)]
    return params, x, labels


def assert_leaf_close(got: np.ndarray, want: np.ndarray, name: str) -> None:
    scale = max(float(np.max(np.abs(want))), 1e-300)
    err = float(np.max(np.abs(got - want))) / scale
    assert err <= REL, f"{name}: relative difference {err:.3e}"


@pytest.mark.parametrize("kind,pool,classifier,aggregation", CASES)
def test_batched_pass_equals_sum_of_examples(kind, pool, classifier, aggregation):
    c = model_config(kind, pool, classifier, aggregation)
    params, x, labels = batch_inputs(c, seed=3)

    loss, grads = loss_gradients(c, params, x, labels)
    probs, trace = model_forward(c, params, x)
    assert probs.shape == (c.num_classes, BATCH)
    dprobs = Rng(4).normal(0.0, 1.0, probs.shape)
    _, dx = model_backward(c, params, trace, dprobs)
    assert dx.shape == x.shape

    singles = [loss_gradients(c, params, x[:, :, b], labels[b]) for b in range(BATCH)]
    assert loss == pytest.approx(sum(s[0] for s in singles), rel=REL)
    for leaves in zip(named_arrays(grads), *(named_arrays(s[1]) for s in singles)):
        (name, got), rest = leaves[0], [arr for _, arr in leaves[1:]]
        assert_leaf_close(got, sum(rest), name)
    for b in range(BATCH):
        p_b, tr_b = model_forward(c, params, x[:, :, b])
        assert_leaf_close(probs[:, b], p_b, "probs")
        _, dx_b = model_backward(c, params, tr_b, dprobs[:, b])
        assert_leaf_close(dx[:, :, b], dx_b, "dx")


@pytest.mark.parametrize("kind,pool,classifier,aggregation", CASES)
def test_batched_gradient_matches_finite_differences(kind, pool, classifier, aggregation):
    c = model_config(kind, pool, classifier, aggregation)
    params, x, labels = batch_inputs(c, seed=FD_SEEDS[kind, pool, classifier, aggregation])
    _, grads = loss_gradients(c, params, x, labels)
    assert all(np.any(g) for _, g in named_arrays(grads))

    def loss() -> float:
        probs, _ = model_forward(c, params, x)
        return cross_entropy(probs, labels)

    report = fd_check(loss, params, grads, step=STEP, threshold=TOL)
    assert report.max_rel_error < TOL, report.worst()


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
