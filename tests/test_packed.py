"""Packing a batch leaves every clip's numbers as they are alone.

The head packs B clips longest first and runs, at step t, only the clips
longer than t, so the strides of the views the LSTM kernel works on depend
on B and on how many clips are still running.  For every B from 1 to 17,
with distinct clip lengths in an unsorted order, each clip's probabilities
must equal its own one-clip pass to 1e-15 relative, and the batch's
gradients must equal the per-clip gradients summed to 1e-14 of each leaf's
largest entry (only the order of summation moves).

numpy 2.4.6 negates a view with a 64-byte stride in place as if it were
contiguous, which gave the longest of exactly 8 clips wrong gates.  The
scans at the end check each ufunc the kernel calls on views 1 to 64
doubles apart against a contiguous copy, so a fault of that kind in any of
them shows here and not only at some batch size.
"""
import numpy as np
import pytest

from crnn.framing import WindowSpec
from crnn.layers import CrnnLayerConfig
from crnn.model import ModelConfig, init_model, min_sequence_length, model_forward
from crnn.numerics import Rng, named_arrays, sigmoid_
from crnn.training import loss_gradients

BATCH_SIZES = range(1, 18)
PROB_REL = 1e-15
GRAD_REL = 1e-14
STRIDES = range(1, 65)   # in doubles; 8 is the 64-byte stride


def model_config(classifier: str) -> ModelConfig:
    # window shift 1 and no pooling: distinct frame counts give distinct
    # head step counts, so the longest clip runs some steps alone
    layer = CrnnLayerConfig(kind="clstm", features=4, window=WindowSpec(3, 1),
                            source="cell", reduction="last")
    return ModelConfig(input_dim=3, num_classes=3, layers=(layer,),
                       classifier=classifier, classifier_dim=5, dense_dim=6,
                       aggregation="last", aggregation_steps=3)


def batch(config: ModelConfig, size: int, seed: int):
    rng = Rng(seed)
    params = init_model(config, rng.split())
    need = min_sequence_length(config)
    lengths = need + 2 * rng.permutation(size)
    xs = [rng.normal(0.0, 1.0, (config.input_dim, int(l))) for l in lengths]
    labels = [int(v) for v in rng.integers(0, config.num_classes, size)]
    return params, xs, labels


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("classifier", ["lstm", "blstm"])
def test_packed_batch_equals_clips_run_alone(classifier, size):
    c = model_config(classifier)
    params, xs, labels = batch(c, size, seed=size)
    probs, _ = model_forward(c, params, xs)
    for b, x in enumerate(xs):
        alone, _ = model_forward(c, params, x)
        err = float(np.max(np.abs(probs[:, b] - alone) / alone))
        assert err <= PROB_REL, f"clip {b} of {size}: probabilities differ by {err:.3e}"

    _, grads = loss_gradients(c, params, xs, labels)
    singles = [named_arrays(loss_gradients(c, params, x, y)[1]) for x, y in zip(xs, labels)]
    for leaf, (name, got) in enumerate(named_arrays(grads)):
        want = sum(s[leaf][1] for s in singles)
        # the recurrent weights of a one-step clip get no gradient
        scale = max(float(np.max(np.abs(want))), 1e-300)
        err = float(np.max(np.abs(got - want))) / scale
        assert err <= GRAD_REL, f"{name}: differs by {err:.3e} of its largest entry"


def test_sigmoid_on_a_column_view_equals_contiguous():
    z = Rng(0).normal(0.0, 3.0, (512, 8))
    view = z[:, 0]                       # entries 64 bytes apart
    want = sigmoid_(view.copy())
    sigmoid_(view)
    np.testing.assert_allclose(view, want, rtol=PROB_REL, atol=0.0)


def column(values: np.ndarray, stride: int) -> np.ndarray:
    """``values`` as an (n, 1) view whose rows lie ``stride`` doubles apart,
    padded with NaN so a read between them shows."""
    base = np.full((len(values), stride), np.nan)
    base[:, 0] = values
    return base[:, :1]


def assert_strided_matches(op, operands, stride: int) -> None:
    """``op`` on strided views -- out of place, into a strided output, and
    in place over its array operand -- equals ``op`` on contiguous copies."""
    want = op(*(v[:, None] if isinstance(v, np.ndarray) else v for v in operands))
    views = [column(v, stride) if isinstance(v, np.ndarray) else v for v in operands]
    out = column(np.zeros(len(want)), stride)
    op(*views, out=out)
    results = {"out of place": op(*views), "strided out": out,
               "in place": op(*views, out=next(v for v in views if isinstance(v, np.ndarray)))}
    for how, got in results.items():
        np.testing.assert_allclose(got, want, rtol=PROB_REL, atol=0.0,
                                   err_msg=f"{op.__name__} {how}, stride {stride}")


# every elementwise ufunc of the LSTM kernel and sigmoid_, with the operand
# forms it takes: (n, 1) views, and scalars as in 1.0 - o and z * -1.0
ELEMENTWISE = {
    "exp": (np.exp, ("a",)),
    "tanh": (np.tanh, ("a",)),
    "reciprocal": (np.reciprocal, ("a",)),
    "add": (np.add, ("a", "b")),
    "add scalar": (np.add, ("a", 1.0)),
    "subtract": (np.subtract, ("a", "b")),
    "subtract from scalar": (np.subtract, (1.0, "a")),
    "multiply": (np.multiply, ("a", "b")),
    "multiply by scalar": (np.multiply, ("a", -1.0)),
}


@pytest.mark.parametrize("name", list(ELEMENTWISE))
def test_kernel_ufunc_on_strided_views_equals_contiguous(name):
    op, args = ELEMENTWISE[name]
    rng = Rng(1)
    for stride in STRIDES:
        arrays = {"a": rng.uniform(0.5, 2.0, 40), "b": rng.normal(0.0, 1.0, 40)}
        assert_strided_matches(op, [arrays.get(a, a) for a in args], stride)


def test_matmul_into_strided_views_equals_contiguous():
    rng = Rng(3)
    W = rng.normal(0.0, 1.0, (40, 12))
    for stride in STRIDES:
        x = rng.normal(0.0, 1.0, 12)
        want = W @ x[:, None]
        out = column(np.zeros(40), stride)
        np.matmul(W, column(x, stride), out=out)
        err = float(np.max(np.abs(out - want))) / float(np.max(np.abs(want)))
        assert err <= GRAD_REL, f"stride {stride}: differs by {err:.3e}"
