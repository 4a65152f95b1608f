"""Sequence-to-sequence feature layers.

A layer turns a k-by-l sequence into an n-by-l' sequence in three moves:
cut the input into windows (width / shift), run one feature extractor
over every window, then optionally max-pool the resulting feature
sequence per feature.  Trailing frames that do not fill a window are
dropped, and the recurrent extractors restart from zero state in every
window, so window w's features depend only on the frames inside w.

Several clips of their own lengths come side by side, clip by clip, on
the column axis, with their frame counts as ``lengths`` (``None`` means
one clip), and their outputs leave the same way, each clip's output
column count recorded on the trace.  Because every window starts from
zero state, the windows of all clips run through the extractor as one
batch; reduction and pooling then work on each clip's own column range
through index arrays, never across a clip boundary.  One rule spreads
the work over threads (``_column_blocks``): a recurrent layer's window
batch runs as two column halves, two tasks on ``cells.run_tasks``, once
one step of a half's LSTM is ``_TASK_MIN_MACS`` multiply-adds or more,
and as one block below that.  The cut depends on the window count and
the layer's sizes alone, never on the thread count.

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
from functools import partial

import numpy as np

from .cells import (
    LstmParams,
    blstm_backward,
    blstm_forward,
    init_blstm,
    init_extended_lstm,
    init_lstm,
    lstm_backward,
    lstm_forward,
    run_tasks,
)
from .framing import (
    WindowSpec,
    max_pool_backward,
    max_pool_forward,
    scatter_windows_add,
    stack_windows,
    window_count,
)
from .numerics import ACTIVATIONS, Rng, init_params, named_arrays, relu

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
    windows: np.ndarray                  # (width, k, W): every clip's windows in turn
    prepool: np.ndarray | None = None    # (n, W) features before pooling
    out_lengths: np.ndarray | None = None  # output column count of each clip
    conv_preact: np.ndarray | None = None
    blocks: list[slice] | None = None    # recurrent kinds: the column blocks run
    # one per block: an LstmTrace, or the (forward, backward) pair for cblstm
    cell_trace: list | None = None
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


def _check_fill(counts: np.ndarray, sizes, what: str, spec: WindowSpec, unit: str) -> None:
    short = np.flatnonzero(counts < 1)
    if short.size:
        raise SequenceTooShortError(
            f"{sizes[short[0]]} {unit} cannot fill a {what} of width {spec.width}")


# Multiply-adds in one step of a column block's LSTM, cols * n * (n + k),
# from which a recurrent layer's window batch runs as two halves on two
# threads.  The threads overlap only inside BLAS calls; at every other
# numpy call they pass the interpreter lock back and forth, and each pass
# wakes the other thread.  A step below this holds the lock for much of
# its time: split, the age/gender BLSTM-256 head over 1-8 clips (9e4-7e5)
# ran 1.7x faster on an idle host, but its threads woke each other about
# 3500 times a second, so on a busy shared host, where a wake-up waits for
# the other vCPU, it fell to one thread's speed or below.  From here up
# (clstm and cblstm window batches, 1e6-7e7) the threads wake each other
# under 350 times a second and two tasks ran at 1.2-1.8x.  Tiny LSTMs
# (n <= 32 over hundreds of columns) ran at 0.4-0.98x.  The rule halves
# window batches only, never a classifier head.  Every BLSTM, head or
# cblstm block, runs its two directions as two tasks at any size instead
# (``cells.blstm_forward``): an age/gender round of feature extraction
# and forward passes ran 1.26x on an idle host, and 0.97x with a CPU-bound
# process on the other vCPU.
_TASK_MIN_MACS = 1_000_000


def _column_blocks(p: LstmParams, count: int) -> list[slice]:
    """A recurrent layer's column blocks over ``count`` windows: halves
    when one step of ``p`` over a half reaches ``_TASK_MIN_MACS``, else
    one block (for cblstm, ``p`` is the forward direction)."""
    half = count // 2
    if half * p.n * (p.n + p.input_dim) < _TASK_MIN_MACS:
        return [slice(0, count)]
    return [slice(0, half), slice(half, count)]


def _block_forward(config: CrnnLayerConfig, params, xw: np.ndarray):
    """Run the recurrent extractor over one column block of windows;
    returns its trace (the direction pair for cblstm), the reduced
    features and the reduction's argmax."""
    if config.kind == "cblstm":
        y, fwd, bwd = blstm_forward(params, xw)
        return ((fwd, bwd), *_reduce(y, config.reduction))
    tr = lstm_forward(params.lstm, xw)
    if config.source == "hidden":
        seq = tr.h
    elif config.source == "cell":
        seq = tr.c
    else:
        seq = np.matmul(params.proj.W, tr.h) + params.proj.b[None, :, None]
    return (tr, *_reduce(seq, config.reduction))


def _block_backward(config: CrnnLayerConfig, params, tr, dfeats: np.ndarray,
                    amax: np.ndarray | None, need_dx: bool):
    """Gradients through one column block: (a bundle shaped like
    ``params``, the block's (width, k, cols) window gradient or None)."""
    dseq = _reduce_backward(dfeats, config.reduction, config.window.width, amax)
    if config.kind == "cblstm":
        return blstm_backward(params, *tr, dseq, need_dx=need_dx)
    proj_grads = None
    if config.source == "output":
        proj_grads = OutputProj(W=np.tensordot(dseq, tr.h, axes=([0, 2], [0, 2])),
                                b=dseq.sum(axis=(0, 2)))
        dseq = np.matmul(params.proj.W.T, dseq)
    key = "dc" if config.source == "cell" else "dh"
    lstm_grads, dxw = lstm_backward(params.lstm, tr, **{key: dseq}, need_dx=need_dx)
    return ClstmParams(lstm=lstm_grads, proj=proj_grads), dxw


def layer_forward(config: CrnnLayerConfig, params, x: np.ndarray,
                  lengths=None) -> tuple[np.ndarray, LayerTrace]:
    """Apply one layer to a k-by-l sequence, or to clips of ``lengths``
    frames side by side; returns (the n-by-l' output, clips side by side,
    trace)."""
    lengths = np.atleast_1d(x.shape[1] if lengths is None else lengths)
    counts = window_count(lengths, config.window)
    _check_fill(counts, lengths, "window", config.window, "frames")
    xw = stack_windows(x, config.window, lengths)

    trace = LayerTrace(lengths=lengths, windows=xw)
    if config.kind == "conv":
        z = np.tensordot(params.weights, xw, axes=([1, 2], [1, 0])) + params.biases[:, None]
        trace.conv_preact = z
        feats = ACTIVATIONS[config.activation](z)
    else:
        lstm = params.fwd if config.kind == "cblstm" else params.lstm
        trace.blocks = _column_blocks(lstm, xw.shape[2])
        traces, feats, amax = zip(*run_tasks(
            [partial(_block_forward, config, params, xw[:, :, cols]) for cols in trace.blocks]))
        trace.cell_trace = list(traces)
        feats = np.concatenate(feats, axis=1)
        if amax[0] is not None:
            trace.time_argmax = np.concatenate(amax, axis=1)

    trace.prepool = feats
    if config.pool is not None:
        pooled = window_count(counts, config.pool)
        _check_fill(pooled, counts, "pool", config.pool, "windows")
        feats, trace.pool_argmax = max_pool_forward(feats, config.pool, counts)
        counts = pooled
    trace.out_lengths = counts
    return feats, trace


def layer_backward(config: CrnnLayerConfig, params, trace: LayerTrace,
                   dout: np.ndarray, need_dx: bool = True) -> tuple[object, np.ndarray | None]:
    """Gradients of a scalar loss through one layer.

    ``dout`` matches the layer output; returns (parameter gradients shaped
    like ``params``, gradient w.r.t. the layer input, shaped like it, or
    None when ``need_dx`` is false).
    """
    dfeats = np.asarray(dout, dtype=np.float64)
    if config.pool is not None:
        dfeats = max_pool_backward(trace.pool_argmax, dfeats, trace.prepool.shape[1])

    xw = trace.windows
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
        dxw = (np.tensordot(params.weights, dz, axes=([0], [0])).transpose(1, 0, 2)
               if need_dx else None)
    else:
        amax = trace.time_argmax
        blocks = run_tasks([
            partial(_block_backward, config, params, tr, dfeats[:, cols],
                    None if amax is None else amax[:, cols], need_dx)
            for tr, cols in zip(trace.cell_trace, trace.blocks)])
        grads = blocks[0][0]
        for part, _ in blocks[1:]:
            for (_, total), (_, add) in zip(named_arrays(grads), named_arrays(part)):
                total += add
        dxw = np.concatenate([d for _, d in blocks], axis=2) if need_dx else None

    return grads, scatter_windows_add(dxw, config.window, trace.lengths) if need_dx else None


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
