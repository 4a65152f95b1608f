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

The input is one k-by-l sequence or a (k, l, B) stack of B equal-length
sequences.  A stack runs as one batch through every layer: the head reads
a (T, k', B) sequence stack, and the dense and softmax layers see T*B
columns, t-major.  Averaging and everything after it stay per sequence.
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
from .numerics import Rng, as_sequences

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
    features: np.ndarray | None = None      # classifier input (k', T[, B])
    cls_trace: LstmTrace | None = None
    cls_bwd_trace: LstmTrace | None = None  # blstm head only
    hidden: np.ndarray | None = None        # lstm head: hidden columns (m, T*B)
    dense_pre: np.ndarray | None = None     # pre-ReLU activations (dense_dim, T*B)
    acts: np.ndarray | None = None          # post-ReLU (dense_dim, T*B)
    probs: np.ndarray | None = None         # per-step distributions (C, T[, B])
    sel: slice = field(default_factory=lambda: slice(None))
    probs_mean: np.ndarray | None = None


def _columns(seq: np.ndarray) -> np.ndarray:
    """(T, n, B) sequence stack -> (n, T*B) columns, t-major."""
    return seq.transpose(1, 0, 2).reshape(seq.shape[1], -1)


def _steps(cols: np.ndarray, steps: int) -> np.ndarray:
    """Inverse of ``_columns``."""
    return cols.reshape(cols.shape[0], steps, -1).transpose(1, 0, 2)


def model_forward(config: ModelConfig, params: ModelParams, x: np.ndarray
                  ) -> tuple[np.ndarray, ModelTrace]:
    """Averaged class distribution for one k-by-l sequence (shape (C,)) or
    for each of a (k, l, B) stack (shape (C, B)), plus the trace the
    backward pass consumes."""
    feats = as_sequences(x)
    trace = ModelTrace()
    for lc, lp in zip(config.layers, params.layers):
        feats, ltr = layer_forward(lc, lp, feats)
        trace.layer_traces.append(ltr)
    trace.features = feats
    k, steps = feats.shape[:2]
    seq = feats.reshape(k, steps, -1).transpose(1, 0, 2)

    if config.classifier == "lstm":
        ctr = lstm_forward(params.classifier, seq)
        trace.cls_trace = ctr
        trace.hidden = _columns(ctr.h)
        trace.acts, trace.dense_pre = dense_forward(params.dense, trace.hidden, "relu")
    else:
        y, trace.cls_trace, trace.cls_bwd_trace = blstm_forward(params.classifier, seq)
        trace.dense_pre = _columns(y)
        trace.acts = np.maximum(trace.dense_pre, 0.0)

    logits = params.softmax.W @ trace.acts + params.softmax.b[:, None]
    trace.probs = softmax_columns(logits).reshape((-1,) + feats.shape[1:])
    if config.aggregation == "last":
        trace.sel = slice(max(0, steps - config.aggregation_steps), steps)
    else:
        trace.sel = slice(0, steps)
    trace.probs_mean = trace.probs[:, trace.sel].mean(axis=1)
    return trace.probs_mean, trace


def model_backward(config: ModelConfig, params: ModelParams, trace: ModelTrace,
                   dprobs_mean: np.ndarray) -> tuple[ModelParams, np.ndarray]:
    """Gradients of a scalar loss given d(loss)/d(averaged distribution),
    shaped like the ``model_forward`` result.

    Returns parameter gradients shaped like ``params`` and the gradient
    with respect to the model input.
    """
    probs = trace.probs
    classes, steps = probs.shape[:2]
    dprobs = np.zeros_like(probs)
    ncols = trace.sel.stop - trace.sel.start
    dprobs[:, trace.sel] = np.asarray(dprobs_mean, float)[:, None] / ncols
    dlogits = softmax_backward(probs.reshape(classes, -1), dprobs.reshape(classes, -1))

    g_softmax = DenseParams(W=dlogits @ trace.acts.T, b=dlogits.sum(axis=1))
    dacts = params.softmax.W.T @ dlogits

    if config.classifier == "lstm":
        g_dense, dhidden = dense_backward(params.dense, trace.hidden,
                                          trace.dense_pre, dacts, "relu")
        g_cls, dseq = lstm_backward(params.classifier, trace.cls_trace,
                                    dh=_steps(dhidden, steps))
    else:
        g_dense = None
        dy = dacts * (trace.dense_pre > 0.0)
        g_cls, dseq = blstm_backward(params.classifier, trace.cls_trace,
                                     trace.cls_bwd_trace, _steps(dy, steps))
    dfeats = dseq.transpose(1, 0, 2).reshape(trace.features.shape)

    g_layers = [None] * len(params.layers)
    for i in reversed(range(len(params.layers))):
        g_layers[i], dfeats = layer_backward(config.layers[i], params.layers[i],
                                             trace.layer_traces[i], dfeats)

    grads = ModelParams(layers=g_layers, classifier=g_cls, dense=g_dense,
                        softmax=g_softmax)
    return grads, dfeats


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
