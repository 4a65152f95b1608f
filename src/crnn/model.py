"""Whole-model assembly: feature layers, recurrent classifier, prediction.

A model is a stack of zero or more feature layers followed by one of two
classifier heads:

``lstm``    LSTM over the feature sequence, a ReLU dense layer on each
            hidden state, then a softmax layer per step.
``blstm``   bidirectional LSTM whose learned combination of the two
            hidden sequences *is* the dense layer (output size
            ``dense_dim``), then ReLU and a softmax layer per step.

The per-step class distributions are averaged (over all steps, or only
the last few) and the prediction is the argmax of the average.  The
backward pass mirrors the forward exactly and is verified against finite
differences in the test suite.

The input is one k-by-l sequence or a list of k-by-l_j clips of their
own lengths.  ``model_forward`` lays the clips side by side, clip by
clip, on the column axis and passes their frame counts as ``lengths`` to
every layer, so a list runs as one batch through every layer; the input
gradient is split back into one array per clip only at the end of
``model_backward``.  The head
packs the clips longest first into a zero-padded (T, k', B) stack and
runs, at step t, only the clips still longer than t (the idea behind
PyTorch's PackedSequence); the dense and softmax layers then see just the
sum of l_j real steps, as columns side by side, clip by clip.  Averaging
and everything after it stay per clip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cells import (
    BlstmParams,
    LstmParams,
    LstmTrace,
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
    LayerTrace,
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
    layer_traces: list[LayerTrace] = field(default_factory=list)
    single: bool = True                     # one sequence in, (C,) out
    steps: np.ndarray | None = None         # head steps of each clip
    cols: tuple | None = None               # (step, slot) of each head column
    cls_trace: LstmTrace | None = None
    cls_bwd_trace: LstmTrace | None = None  # blstm head only
    hidden: np.ndarray | None = None        # lstm head: hidden columns (m, M)
    dense_pre: np.ndarray | None = None     # pre-ReLU activations (dense_dim, M)
    acts: np.ndarray | None = None          # post-ReLU (dense_dim, M)
    probs: np.ndarray | None = None         # per-step distributions (C, M)
    # the steps each clip averages, as a slice of its own steps
    sel: slice = field(default_factory=lambda: slice(None))
    avg_cols: np.ndarray | None = None      # the columns of probs they are
    avg_counts: np.ndarray | None = None    # how many of them per clip
    probs_mean: np.ndarray | None = None


def _head_layout(steps: np.ndarray):
    """Pack clips of ``steps`` head steps longest first: returns their
    sorted lengths and, for every step of every clip in input order, its
    step index and its slot in the packed batch."""
    order = np.argsort(-steps, kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    owner = np.repeat(np.arange(len(steps)), steps)
    step = np.arange(owner.size) - (np.cumsum(steps) - steps)[owner]
    return steps[order], (step, slot[owner])


def _averaged(sel: slice, steps: np.ndarray, step: np.ndarray):
    """Columns whose distributions each clip averages, and how many per
    clip, for ``sel`` = all steps or the last few (fewer if the clip is
    shorter)."""
    if sel.start is None:
        return np.arange(step.size), steps
    return (np.flatnonzero(step >= np.repeat(steps + sel.start, steps)),
            np.minimum(steps, -sel.start))


def _unpack(seq: np.ndarray, cols) -> np.ndarray:
    """Packed (T, m, B) stack -> (m, M) columns of the real steps."""
    return seq.transpose(1, 0, 2)[:, cols[0], cols[1]]


def _pack(columns: np.ndarray, cols, shape) -> np.ndarray:
    """Inverse of ``_unpack``, zero past each clip's end."""
    seq = np.zeros(shape)
    seq.transpose(1, 0, 2)[:, cols[0], cols[1]] = columns
    return seq


def model_forward(config: ModelConfig, params: ModelParams, x
                  ) -> tuple[np.ndarray, ModelTrace]:
    """Averaged class distribution for one k-by-l sequence (shape (C,)) or
    for each of a list of clips (shape (C, B)), plus the trace the backward
    pass consumes."""
    clips, single = as_clips(x)
    trace = ModelTrace(single=single)
    feats = clips[0] if len(clips) == 1 else np.concatenate(clips, axis=1)
    trace.steps = np.array([c.shape[1] for c in clips])
    for lc, lp in zip(config.layers, params.layers):
        feats, ltr = layer_forward(lc, lp, feats, trace.steps)
        trace.layer_traces.append(ltr)
        trace.steps = ltr.out_lengths
    lengths, trace.cols = _head_layout(trace.steps)
    seq = _pack(feats, trace.cols, (lengths[0], len(feats), len(clips)))

    if config.classifier == "lstm":
        ctr = lstm_forward(params.classifier, seq, lengths)
        trace.cls_trace = ctr
        trace.hidden = _unpack(ctr.h, trace.cols)
        trace.acts, trace.dense_pre = dense_forward(params.dense, trace.hidden)
    else:
        y, trace.cls_trace, trace.cls_bwd_trace = blstm_forward(params.classifier, seq,
                                                                lengths)
        trace.dense_pre = _unpack(y, trace.cols)
        trace.acts = np.maximum(trace.dense_pre, 0.0)

    logits = params.softmax.W @ trace.acts + params.softmax.b[:, None]
    trace.probs = softmax_columns(logits)
    if config.aggregation == "last":
        trace.sel = slice(-config.aggregation_steps, None)
    trace.avg_cols, trace.avg_counts = _averaged(trace.sel, trace.steps, trace.cols[0])
    starts = np.cumsum(trace.avg_counts) - trace.avg_counts
    trace.probs_mean = (np.add.reduceat(trace.probs[:, trace.avg_cols], starts, axis=1)
                        / trace.avg_counts)
    if single:
        trace.probs_mean = trace.probs_mean[:, 0]
    return trace.probs_mean, trace


def model_backward(config: ModelConfig, params: ModelParams, trace: ModelTrace,
                   dprobs_mean: np.ndarray, need_dx: bool = True
                   ) -> tuple[ModelParams, np.ndarray | list | None]:
    """Gradients of a scalar loss given d(loss)/d(averaged distribution),
    shaped like the ``model_forward`` result.

    Returns parameter gradients shaped like ``params`` and the gradient
    with respect to the model input (one array per clip for a list), or
    None for it when ``need_dx`` is false; the first feature layer (or the
    head, without layers) then skips forming it.
    """
    probs = trace.probs
    dmean = np.asarray(dprobs_mean, float).reshape(len(probs), -1) / trace.avg_counts
    dprobs = np.zeros_like(probs)
    dprobs[:, trace.avg_cols] = np.repeat(dmean, trace.avg_counts, axis=1)
    dlogits = softmax_backward(probs, dprobs)

    g_softmax = DenseParams(W=dlogits @ trace.acts.T, b=dlogits.sum(axis=1))
    dacts = params.softmax.W.T @ dlogits

    T, _, B = trace.cls_trace.h.shape
    head_dx = need_dx or bool(params.layers)
    if config.classifier == "lstm":
        g_dense, dhidden = dense_backward(params.dense, trace.hidden,
                                          trace.dense_pre, dacts)
        g_cls, dseq = lstm_backward(params.classifier, trace.cls_trace,
                                    dh=_pack(dhidden, trace.cols, (T, len(dhidden), B)),
                                    need_dx=head_dx)
    else:
        g_dense = None
        dy = _pack(dacts * (trace.dense_pre > 0.0), trace.cols, (T, len(dacts), B))
        g_cls, dseq = blstm_backward(params.classifier, trace.cls_trace,
                                     trace.cls_bwd_trace, dy, need_dx=head_dx)
    dx = _unpack(dseq, trace.cols) if head_dx else None

    g_layers = [None] * len(params.layers)
    for i in reversed(range(len(params.layers))):
        g_layers[i], dx = layer_backward(config.layers[i], params.layers[i],
                                         trace.layer_traces[i], dx,
                                         need_dx=need_dx or i > 0)

    grads = ModelParams(layers=g_layers, classifier=g_cls, dense=g_dense,
                        softmax=g_softmax)
    if not need_dx or trace.single:
        return grads, dx
    # the input frame counts: the first layer's, or the head's without layers
    lengths = trace.layer_traces[0].lengths if trace.layer_traces else trace.steps
    return grads, np.split(dx, np.cumsum(lengths)[:-1], axis=1)


def predict_proba(config: ModelConfig, params: ModelParams, x: np.ndarray) -> np.ndarray:
    probs_mean, _ = model_forward(config, params, x)
    return probs_mean


def predict(config: ModelConfig, params: ModelParams, x: np.ndarray) -> int:
    """Predicted class of one k-by-l sequence."""
    return int(np.argmax(predict_proba(config, params, x)))


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
