"""Sequence-to-sequence feature layers.

A layer turns a k-by-l sequence into an n-by-l' sequence in three moves:
cut the input into windows (width / shift), run one feature extractor
over every window, then optionally max-pool the resulting feature
sequence per feature.  Trailing frames that do not fill a window are
dropped, and the recurrent extractors restart from zero state in every
window, so window w's features depend only on the frames inside w.

A list of clips of their own lengths gives a list of outputs.  Because
every window starts from zero state, the windows of all clips run
through the extractor as one batch, clip after clip on the column axis;
reduction and pooling then work on each clip's own column range through
index arrays, never across a clip boundary.

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
    window_counts,
)
from .numerics import ACTIVATIONS, Rng, as_clips, init_params, relu

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
    lstm: LstmParams      # per-frame (width, 4n, k) W_x for the extended kind
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


@dataclass
class LayerTrace:
    lengths: np.ndarray                  # input frame count of each clip
    single: bool                         # the input was one sequence, not a list
    windows: np.ndarray                  # (width, k, W): every clip's windows in turn
    prepool: np.ndarray                  # (n, W) features before pooling
    conv_preact: np.ndarray | None = None
    cell_trace: LstmTrace | None = None
    bwd_trace: LstmTrace | None = None   # cblstm only
    proj_seq: np.ndarray | None = None   # projected/combined sequence (T, n, W)
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


def split_columns(cols: np.ndarray, counts) -> list[np.ndarray]:
    """Side-by-side clip columns back to one view per clip."""
    ends = np.cumsum(counts).tolist()
    return [cols[:, a:b] for a, b in zip([0] + ends, ends)]


def _check_fill(counts: np.ndarray, sizes, what: str, spec: WindowSpec, unit: str) -> None:
    short = np.flatnonzero(counts < 1)
    if short.size:
        raise SequenceTooShortError(
            f"{sizes[short[0]]} {unit} cannot fill a {what} of width {spec.width}")


def layer_forward(config: CrnnLayerConfig, params, x
                  ) -> tuple[np.ndarray | list[np.ndarray], LayerTrace]:
    """Apply one layer to a k-by-l sequence, or to a list of clips; returns
    (the n-by-l' output, or one per clip, trace)."""
    clips, single = as_clips(x)
    lengths = np.array([c.shape[1] for c in clips])
    counts = window_counts(lengths, config.window)
    _check_fill(counts, lengths, "window", config.window, "frames")
    xw = stack_windows(clips, config.window)

    trace = LayerTrace(lengths=lengths, single=single, windows=xw, prepool=None)
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

    trace.prepool = feats
    if config.pool is not None:
        pooled = window_counts(counts, config.pool)
        _check_fill(pooled, counts, "pool", config.pool, "windows")
        feats, trace.pool_argmax = max_pool_forward(split_columns(feats, counts), config.pool)
        counts = pooled
    return (feats if single else split_columns(feats, counts)), trace


def layer_backward(config: CrnnLayerConfig, params, trace: LayerTrace,
                   dout) -> tuple[object, np.ndarray | list[np.ndarray]]:
    """Gradients of a scalar loss through one layer.

    ``dout`` matches the layer output; returns (parameter gradients shaped
    like ``params``, gradient w.r.t. the layer input, shaped like it).
    """
    dfeats = np.asarray(dout if trace.single else np.concatenate(dout, axis=1),
                        dtype=np.float64)
    if config.pool is not None:
        dfeats = max_pool_backward(trace.pool_argmax, dfeats, trace.prepool.shape[1])

    xw = trace.windows
    steps = xw.shape[0]
    if config.kind == "conv":
        f = trace.prepool
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

    dx = scatter_windows_add(dxw, config.window, trace.lengths)
    return grads, (dx if trace.single else split_columns(dx, trace.lengths))


# ---------------------------------------------------------------------------
# Classifier-head pieces.

@dataclass
class DenseParams:
    W: np.ndarray
    b: np.ndarray


def init_dense(in_dim: int, out_dim: int, rng: Rng) -> DenseParams:
    return DenseParams(W=init_params((out_dim, in_dim), rng), b=np.zeros(out_dim))


def dense_forward(p: DenseParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine map over columns through a ReLU; returns (out, preact)."""
    z = p.W @ x + p.b[:, None]
    return relu(z), z


def dense_backward(p: DenseParams, x: np.ndarray, preact: np.ndarray,
                   dout: np.ndarray) -> tuple[DenseParams, np.ndarray]:
    dz = dout * (preact > 0.0)
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
