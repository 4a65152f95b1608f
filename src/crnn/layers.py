"""Sequence-to-sequence feature layers.

A layer turns a k-by-l sequence into an n-by-l' sequence in three moves:
cut the input into windows (width / shift), run one feature extractor
over every window, then optionally max-pool the resulting feature
sequence per feature.  Trailing frames that do not fill a window are
dropped, and the recurrent extractors restart from zero state in every
window, so window w's features depend only on the frames inside w.

A (k, l, B) stack of B equal-length sequences gives an (n, l', B) stack.
Because every window starts from zero state, the windows of all B
sequences run through the extractor as one batch; pooling stays inside
each sequence.

Extractor kinds:

``conv``            per-feature inner product with the whole window plus
                    a bias, through sigmoid/tanh/relu.
``clstm``           an LSTM read over the window's frames; the feature
                    vector is a reduction (last / mean / per-feature max)
                    of its hidden, cell, or projected-output sequence.
``extended_clstm``  same, but the LSTM's input weights have a separate
                    copy per frame position, so the window width is baked
                    into the parameters.
``cblstm``          a bidirectional LSTM over the window; the reduction
                    is applied to the combined output sequence.

Layers also expose exact backward passes, so stacks of them can be
trained end to end.  Dense/softmax helpers for classifier heads live at
the bottom of the module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import (
    BlstmParams,
    ExtendedLstmParams,
    LstmParams,
    LstmTrace,
    blstm_backward,
    blstm_forward,
    init_blstm,
    init_extended_lstm,
    init_lstm,
    lstm_backward,
    lstm_forward,
)
from .framing import (
    WindowSpec,
    max_pool_backward,
    max_pool_forward,
    scatter_windows_add,
    stack_windows,
    window_count,
)
from .numerics import ACTIVATIONS, Rng, as_sequences, init_params

KINDS = ("conv", "clstm", "extended_clstm", "cblstm")
SOURCES = ("hidden", "cell", "output")
REDUCTIONS = ("max", "mean", "last")


class SequenceTooShortError(ValueError):
    """Input has too few frames to produce even one output column."""


@dataclass(frozen=True)
class CrnnLayerConfig:
    """Static description of one layer.

    ``features`` is the layer's output dimension.  ``hidden_dim`` frees
    the recurrent state size from the output size where the two are not
    tied: a clstm with source="output" (projection maps hidden to
    features) and the per-direction state of a cblstm.  ``activation``
    applies to conv layers only.
    """

    kind: str
    features: int
    window: WindowSpec
    pool: WindowSpec | None = None
    source: str = "cell"
    reduction: str = "last"
    hidden_dim: int | None = None
    activation: str = "sigmoid"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.features < 1:
            raise ValueError(f"features must be >= 1, got {self.features}")
        if self.reduction not in REDUCTIONS:
            raise ValueError(f"unknown reduction {self.reduction!r}")
        if self.kind == "cblstm":
            if self.source not in ("hidden", "cell"):
                raise ValueError(
                    f"cblstm reads its own combined output; source must be "
                    f"hidden or cell, got {self.source!r}")
        elif self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if self.kind == "conv" and self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.hidden_dim is not None:
            if self.hidden_dim < 1:
                raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
            if self.kind == "conv" or (self.kind != "cblstm" and self.source != "output"):
                raise ValueError(
                    "hidden_dim only applies to clstm with source=output or to cblstm")

    @property
    def state_dim(self) -> int:
        """Recurrent state size (equals ``features`` unless freed)."""
        return self.features if self.hidden_dim is None else self.hidden_dim


@dataclass
class ConvParams:
    weights: np.ndarray   # (features, input_dim, width)
    biases: np.ndarray    # (features,)


@dataclass
class OutputProj:
    W: np.ndarray         # (features, state_dim)
    b: np.ndarray         # (features,)


@dataclass
class ClstmParams:
    lstm: LstmParams      # ExtendedLstmParams for the extended kind
    proj: OutputProj | None = None


def init_layer(config: CrnnLayerConfig, input_dim: int, rng: Rng):
    """Fresh parameters for one layer reading ``input_dim`` features."""
    n, k, width = config.features, input_dim, config.window.width
    if config.kind == "conv":
        flat = init_params((n, k * width), rng)
        return ConvParams(weights=flat.reshape(n, k, width), biases=np.zeros(n))
    if config.kind == "cblstm":
        return init_blstm(k, config.state_dim, n, rng, source=config.source)
    if config.kind == "extended_clstm":
        lstm = init_extended_lstm(k, config.state_dim, width, rng)
    else:
        lstm = init_lstm(k, config.state_dim, rng)
    proj = None
    if config.source == "output":
        proj = OutputProj(W=init_params((n, config.state_dim), rng), b=np.zeros(n))
    return ClstmParams(lstm=lstm, proj=proj)


def min_input_length(config: CrnnLayerConfig) -> int:
    """Shortest input that still yields one output column."""
    need = config.pool.width if config.pool is not None else 1
    return (need - 1) * config.window.shift + config.window.width


def output_length(config: CrnnLayerConfig, length: int) -> int:
    cols = window_count(length, config.window)
    if config.pool is not None:
        cols = window_count(cols, config.pool)
    return cols


@dataclass
class LayerTrace:
    length: int                          # input frame count
    windows: np.ndarray                  # (width, k, count * B), window-major
    prepool: np.ndarray                  # features before pooling (n, count[, B])
    conv_preact: np.ndarray | None = None
    cell_trace: LstmTrace | None = None
    bwd_trace: LstmTrace | None = None   # cblstm only
    proj_seq: np.ndarray | None = None   # projected/combined sequence (T, n, count)
    time_argmax: np.ndarray | None = None
    pool_argmax: np.ndarray | None = None


def _reduce(seq: np.ndarray, reduction: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Collapse the time axis of a (T, n, count) sequence to (n, count)."""
    if reduction == "last":
        return seq[-1], None
    if reduction == "mean":
        return seq.mean(axis=0), None
    amax = np.argmax(seq, axis=0)   # first index on ties
    n, cnt = amax.shape
    return seq[amax, np.arange(n)[:, None], np.arange(cnt)[None, :]], amax


def _reduce_backward(dvals: np.ndarray, reduction: str, steps: int,
                     amax: np.ndarray | None) -> np.ndarray:
    n, cnt = dvals.shape
    dseq = np.zeros((steps, n, cnt))
    if reduction == "last":
        dseq[-1] = dvals
    elif reduction == "mean":
        dseq += dvals / steps
    else:
        dseq[amax, np.arange(n)[:, None], np.arange(cnt)[None, :]] = dvals
    return dseq


def layer_forward(config: CrnnLayerConfig, params, x: np.ndarray
                  ) -> tuple[np.ndarray, LayerTrace]:
    """Apply one layer to a k-by-l sequence (or a (k, l, B) stack); returns
    (n-by-l' output (or (n, l', B) stack), trace)."""
    x = as_sequences(x)
    k, length = x.shape[:2]
    if window_count(length, config.window) < 1:
        raise SequenceTooShortError(
            f"{length} frames cannot fill a window of width {config.window.width}")
    windows = stack_windows(x, config.window)
    xw = windows.reshape(config.window.width, k, -1)

    trace = LayerTrace(length=length, windows=xw, prepool=None)
    if config.kind == "conv":
        z = np.tensordot(params.weights, xw, axes=([1, 2], [1, 0])) + params.biases[:, None]
        trace.conv_preact = z
        feats = ACTIVATIONS[config.activation](z)
    elif config.kind == "cblstm":
        y, trace.cell_trace, trace.bwd_trace = blstm_forward(params, xw)
        trace.proj_seq = y
        feats, trace.time_argmax = _reduce(y, config.reduction)
    else:
        tr = lstm_forward(params.lstm, xw)
        trace.cell_trace = tr
        if config.source == "hidden":
            seq = tr.h
        elif config.source == "cell":
            seq = tr.c
        else:
            seq = np.matmul(params.proj.W, tr.h) + params.proj.b[None, :, None]
            trace.proj_seq = seq
        feats, trace.time_argmax = _reduce(seq, config.reduction)

    feats = feats.reshape((feats.shape[0],) + windows.shape[2:])
    trace.prepool = feats
    if config.pool is None:
        return feats, trace
    if window_count(feats.shape[1], config.pool) < 1:
        raise SequenceTooShortError(
            f"{feats.shape[1]} windows cannot fill a pool of width {config.pool.width}")
    out, trace.pool_argmax = max_pool_forward(feats, config.pool)
    return out, trace


def layer_backward(config: CrnnLayerConfig, params, trace: LayerTrace,
                   dout: np.ndarray) -> tuple[object, np.ndarray]:
    """Gradients of a scalar loss through one layer.

    ``dout`` matches the layer output; returns (parameter gradients shaped
    like ``params``, gradient w.r.t. the layer input).
    """
    if config.pool is not None:
        dfeats = max_pool_backward(trace.pool_argmax, np.asarray(dout, float),
                                   trace.prepool.shape[1])
    else:
        dfeats = np.asarray(dout, dtype=np.float64)

    xw = trace.windows
    steps, k, cols = xw.shape
    dfeats = dfeats.reshape(-1, cols)
    if config.kind == "conv":
        f = trace.prepool.reshape(-1, cols)
        act = config.activation
        if act == "sigmoid":
            dz = dfeats * f * (1.0 - f)
        elif act == "tanh":
            dz = dfeats * (1.0 - f * f)
        else:
            dz = dfeats * (trace.conv_preact > 0.0)
        gw = np.tensordot(dz, xw, axes=([1], [2])).transpose(0, 2, 1)
        grads = ConvParams(weights=gw, biases=dz.sum(axis=1))
        dxw = np.tensordot(params.weights, dz, axes=([0], [0])).transpose(1, 0, 2)
    elif config.kind == "cblstm":
        dseq = _reduce_backward(dfeats, config.reduction, steps, trace.time_argmax)
        grads, dxw = blstm_backward(params, trace.cell_trace, trace.bwd_trace, dseq)
    else:
        dseq = _reduce_backward(dfeats, config.reduction, steps, trace.time_argmax)
        proj_grads = None
        if config.source == "output":
            proj_grads = OutputProj(
                W=np.tensordot(dseq, trace.cell_trace.h, axes=([0, 2], [0, 2])),
                b=dseq.sum(axis=(0, 2)))
            dseq = np.matmul(params.proj.W.T, dseq)
        key = "dc" if config.source == "cell" else "dh"
        lstm_grads, dxw = lstm_backward(params.lstm, trace.cell_trace, **{key: dseq})
        grads = ClstmParams(lstm=lstm_grads, proj=proj_grads)

    dxw = dxw.reshape((steps, k) + trace.prepool.shape[1:])
    dx = scatter_windows_add(dxw, config.window, trace.length)
    return grads, dx


# ---------------------------------------------------------------------------
# Classifier-head pieces.

@dataclass
class DenseParams:
    W: np.ndarray
    b: np.ndarray


def init_dense(in_dim: int, out_dim: int, rng: Rng) -> DenseParams:
    return DenseParams(W=init_params((out_dim, in_dim), rng), b=np.zeros(out_dim))


def dense_forward(p: DenseParams, x: np.ndarray, activation: str | None = "relu"
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Affine map over columns, optional activation; returns (out, preact)."""
    z = p.W @ x + p.b[:, None]
    if activation is None:
        return z, z
    return ACTIVATIONS[activation](z), z


def dense_backward(p: DenseParams, x: np.ndarray, preact: np.ndarray,
                   dout: np.ndarray, activation: str | None = "relu"
                   ) -> tuple[DenseParams, np.ndarray]:
    if activation == "relu":
        dz = dout * (preact > 0.0)
    elif activation == "sigmoid":
        s = ACTIVATIONS["sigmoid"](preact)
        dz = dout * s * (1.0 - s)
    elif activation == "tanh":
        t = np.tanh(preact)
        dz = dout * (1.0 - t * t)
    else:
        dz = np.asarray(dout, dtype=np.float64)
    grads = DenseParams(W=dz @ x.T, b=dz.sum(axis=1))
    return grads, p.W.T @ dz


def softmax_columns(z: np.ndarray) -> np.ndarray:
    """Column-wise softmax, shifted for overflow safety."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def softmax_backward(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Pull a gradient on the probabilities back to the logits."""
    inner = (probs * dprobs).sum(axis=0, keepdims=True)
    return probs * (dprobs - inner)
