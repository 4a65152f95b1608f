"""Whole-model assembly: one chain of stages, run forward and backward.

The stages, in order:

  feature layers   zero or more, each through ``layers.layer_forward``
  head             LSTM (classifier ``lstm``) or BLSTM (``blstm``) over
                   the clips, packed longest first
  ReLU             after a dense layer for the lstm head; the blstm
                   head's learned combination of its two hidden
                   sequences *is* its dense layer (output ``dense_dim``)
  softmax          a class distribution per step
  average          each clip's mean distribution over all its steps or
                   the last few; the prediction is its argmax

A stage's forward maps ``(params, columns, lengths) -> (columns,
context)``, and its hand-written backward ``(params, context, d columns,
need_dx) -> (gradients, d input or None)``, checked against finite
differences in the test suite.  ``model_forward`` and ``model_backward``
are one loop each over the stages; the trace holds their contexts.

The input is one k-by-l sequence or a list of k-by-l_j clips, laid side
by side on the column axis with their frame counts as ``lengths``, so a
list runs as one batch through every stage.  The head packs the clips
into a zero-padded (T, k', B) stack and runs, at step t, only the clips
still longer than t (the idea behind PyTorch's PackedSequence); the
stages after it see just the sum of l_j real steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .cells import (
    BlstmParams,
    LstmParams,
    blstm_backward,
    blstm_forward,
    init_blstm,
    init_lstm,
    lstm_backward,
    lstm_forward,
)
from .layers import (
    CrnnLayerConfig,
    DenseParams,
    dense_backward,
    dense_forward,
    init_dense,
    init_layer,
    layer_backward,
    layer_forward,
    softmax_backward,
    softmax_columns,
)
from .numerics import Rng, as_clips

CLASSIFIERS = ("lstm", "blstm")
AGGREGATIONS = ("all", "last")


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    num_classes: int
    layers: tuple[CrnnLayerConfig, ...] = ()
    classifier: str = "lstm"
    classifier_dim: int = 256
    dense_dim: int = 400
    aggregation: str = "all"
    aggregation_steps: int = 4   # used when aggregation == "last"

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.classifier not in CLASSIFIERS:
            raise ValueError(f"unknown classifier {self.classifier!r}")
        if self.classifier_dim < 1 or self.dense_dim < 1:
            raise ValueError("classifier_dim and dense_dim must be >= 1")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.aggregation_steps < 1:
            raise ValueError(f"aggregation_steps must be >= 1, got {self.aggregation_steps}")

    @property
    def feature_dim(self) -> int:
        """Dimension of the sequence entering the classifier."""
        return self.layers[-1].features if self.layers else self.input_dim

    def layer_input_dim(self, index: int) -> int:
        return self.input_dim if index == 0 else self.layers[index - 1].features


@dataclass
class ModelParams:
    layers: list
    classifier: LstmParams | BlstmParams
    dense: DenseParams | None     # None for the blstm head
    softmax: DenseParams


def init_model(config: ModelConfig, rng: Rng) -> ModelParams:
    layer_params = [init_layer(lc, config.layer_input_dim(i), rng)
                    for i, lc in enumerate(config.layers)]
    k = config.feature_dim
    if config.classifier == "lstm":
        classifier = init_lstm(k, config.classifier_dim, rng)
        dense = init_dense(config.classifier_dim, config.dense_dim, rng)
    else:
        classifier = init_blstm(k, config.classifier_dim, config.dense_dim, rng,
                                source="hidden")
        dense = None
    softmax = init_dense(config.dense_dim, config.num_classes, rng)
    return ModelParams(layers=layer_params, classifier=classifier,
                       dense=dense, softmax=softmax)


def min_sequence_length(config: ModelConfig) -> int:
    """Shortest input the model accepts (classifier needs one column)."""
    need = 1
    for lc in reversed(config.layers):
        if lc.pool is not None:
            need = (need - 1) * lc.pool.shift + lc.pool.width
        need = (need - 1) * lc.window.shift + lc.window.width
    return need


@dataclass
class ModelTrace:
    contexts: list = field(default_factory=list)  # one per stage, in order
    single: bool = True                           # one sequence in, (C,) out
    lengths: np.ndarray | None = None             # frames of each input clip
    # the steps each clip averages, as a slice of its own steps
    sel: slice = field(default_factory=lambda: slice(None))

    @property
    def probs(self) -> np.ndarray:
        """Per-step class distributions (C, M), the average's input."""
        return self.contexts[-1][0]


def _unpack(seq: np.ndarray, cols) -> np.ndarray:
    """Packed (T, m, B) stack -> (m, M) columns of the real steps."""
    return seq.transpose(1, 0, 2)[:, cols[0], cols[1]]


def _pack(columns: np.ndarray, cols, shape) -> np.ndarray:
    """Inverse of ``_unpack``, zero past each clip's end."""
    seq = np.zeros(shape)
    seq.transpose(1, 0, 2)[:, cols[0], cols[1]] = columns
    return seq


def _head_forward(p, x, steps):
    """Pack the clips longest first and run the LSTM or BLSTM head over
    them; ``cols`` holds each output column's step and packed slot."""
    order = np.argsort(-steps, kind="stable")
    owner = np.repeat(np.arange(len(steps)), steps)
    cols = (np.arange(owner.size) - (np.cumsum(steps) - steps)[owner], np.argsort(order)[owner])
    seq = _pack(x, cols, (steps[order[0]], len(x), len(steps)))
    if isinstance(p, BlstmParams):
        y, *traces = blstm_forward(p, seq, steps[order])
    else:
        traces = [lstm_forward(p, seq, steps[order])]
        y = traces[0].h
    return _unpack(y, cols), (cols, traces)


def _head_backward(p, ctx, dy, need_dx):
    cols, traces = ctx
    T, _, B = traces[0].h.shape
    dseq = _pack(dy, cols, (T, len(dy), B))
    if isinstance(p, BlstmParams):
        grads, dx = blstm_backward(p, *traces, dseq, need_dx=need_dx)
    else:
        grads, dx = lstm_backward(p, *traces, dh=dseq, need_dx=need_dx)
    return grads, _unpack(dx, cols) if need_dx else None


def _relu_forward(p, x, steps):
    """ReLU, after the dense layer if ``p`` is one; the BLSTM head has
    none, as its combination is the dense layer."""
    if p is None:
        return np.maximum(x, 0.0), (x, x)
    y, z = dense_forward(p, x)
    return y, (x, z)


def _relu_backward(p, ctx, dy, need_dx):
    x, z = ctx
    if p is None:
        return None, dy * (z > 0.0)
    return dense_backward(p, x, z, dy)


def _softmax_forward(p, x, steps):
    probs = softmax_columns(p.W @ x + p.b[:, None])
    return probs, (x, probs)


def _softmax_backward(p, ctx, dprobs, need_dx):
    x, probs = ctx
    dlogits = softmax_backward(probs, dprobs)
    return DenseParams(W=dlogits @ x.T, b=dlogits.sum(axis=1)), p.W.T @ dlogits


def _average_forward(sel, p, probs, steps):
    """Each clip's mean distribution over ``sel`` = all its steps or the
    last few (fewer if the clip is shorter)."""
    cols, counts = np.arange(probs.shape[1]), steps
    if sel.start is not None:
        cols = np.flatnonzero(cols >= np.repeat(np.cumsum(steps) + sel.start, steps))
        counts = np.minimum(steps, -sel.start)
    starts = np.cumsum(counts) - counts
    return np.add.reduceat(probs[:, cols], starts, axis=1) / counts, (probs, cols, counts)


def _average_backward(p, ctx, dmean, need_dx):
    probs, cols, counts = ctx
    dprobs = np.zeros_like(probs)
    dmean = np.asarray(dmean, float).reshape(len(probs), -1) / counts
    dprobs[:, cols] = np.repeat(dmean, counts, axis=1)
    return None, dprobs


def _stages(config: ModelConfig, params: ModelParams, sel: slice) -> list[tuple]:
    """(parameters, forward, backward) of every stage, in order."""
    layers = [(lp, partial(layer_forward, lc), partial(layer_backward, lc))
              for lc, lp in zip(config.layers, params.layers)]
    return layers + [(params.classifier, _head_forward, _head_backward),
                     (params.dense, _relu_forward, _relu_backward),
                     (params.softmax, _softmax_forward, _softmax_backward),
                     (None, partial(_average_forward, sel), _average_backward)]


def model_forward(config: ModelConfig, params: ModelParams, x
                  ) -> tuple[np.ndarray, ModelTrace]:
    """Averaged class distribution for one k-by-l sequence (shape (C,)) or
    for each of a list of clips (shape (C, B)), plus the trace the backward
    pass consumes."""
    clips, single = as_clips(x)
    trace = ModelTrace(single=single, lengths=np.array([c.shape[1] for c in clips]))
    if config.aggregation == "last":
        trace.sel = slice(-config.aggregation_steps, None)
    columns = clips[0] if len(clips) == 1 else np.concatenate(clips, axis=1)
    lengths = trace.lengths
    for p, forward, _ in _stages(config, params, trace.sel):
        columns, ctx = forward(p, columns, lengths)
        trace.contexts.append(ctx)
        # feature layers shorten the clips; the stages after them keep their lengths
        lengths = getattr(ctx, "out_lengths", lengths)
    return (columns[:, 0] if single else columns), trace


def model_backward(config: ModelConfig, params: ModelParams, trace: ModelTrace,
                   dprobs_mean: np.ndarray, need_dx: bool = True
                   ) -> tuple[ModelParams, np.ndarray | list | None]:
    """Gradients of a scalar loss given d(loss)/d(averaged distribution),
    shaped like the ``model_forward`` result.

    Returns parameter gradients shaped like ``params`` and the gradient
    with respect to the model input (one array per clip for a list), or
    None for it when ``need_dx`` is false; the first stage then skips
    forming it.
    """
    stages = _stages(config, params, trace.sel)
    grads, d = [None] * len(stages), dprobs_mean
    for i in reversed(range(len(stages))):
        p, _, backward = stages[i]
        grads[i], d = backward(p, trace.contexts[i], d, need_dx or i > 0)
    *g_layers, g_head, g_dense, g_softmax, _ = grads
    grads = ModelParams(layers=g_layers, classifier=g_head, dense=g_dense, softmax=g_softmax)
    if not need_dx or trace.single:
        return grads, d
    return grads, np.split(d, np.cumsum(trace.lengths)[:-1], axis=1)


def predict_proba(config: ModelConfig, params: ModelParams, x: np.ndarray) -> np.ndarray:
    return model_forward(config, params, x)[0]


# ---------------------------------------------------------------------------
# Reference architectures.

def emotion_model_config(kind: str = "clstm", input_dim: int = 26,
                         num_classes: int = 5) -> ModelConfig:
    """Two feature layers (width 5, shift 2, 100 features, 2/2 max-pool,
    cell state of the last frame) into an LSTM-256 head with a 400-unit
    dense layer; predictions averaged over the last four steps."""
    from .framing import WindowSpec

    def layer():
        return CrnnLayerConfig(kind=kind, features=100,
                               window=WindowSpec(5, 2), pool=WindowSpec(2, 2),
                               source="cell", reduction="last")

    layers = (layer(), layer())
    return ModelConfig(input_dim=input_dim, num_classes=num_classes, layers=layers,
                       classifier="lstm", classifier_dim=256, dense_dim=400,
                       aggregation="last", aggregation_steps=4)


def age_gender_model_config(kind: str = "cblstm", input_dim: int = 26,
                            num_classes: int = 4) -> ModelConfig:
    """One feature layer (width 5, shift 2, 100 features, 2/2 max-pool,
    per-feature max over the window) into a BLSTM-256 head combined to a
    400-unit ReLU layer; predictions averaged over all steps."""
    from .framing import WindowSpec

    hidden = 100 if kind == "cblstm" else None
    layer = CrnnLayerConfig(kind=kind, features=100,
                            window=WindowSpec(5, 2), pool=WindowSpec(2, 2),
                            source="cell", reduction="max", hidden_dim=hidden)
    return ModelConfig(input_dim=input_dim, num_classes=num_classes, layers=(layer,),
                       classifier="blstm", classifier_dim=256, dense_dim=400,
                       aggregation="all")
