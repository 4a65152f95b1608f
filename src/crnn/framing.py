"""Slicing sequences into overlapping windows, and per-feature max-pooling.

A window spec is a (width, shift) pair: windows are ``width`` consecutive
columns, consecutive windows start ``shift`` columns apart, and trailing
columns that do not fill a whole window are dropped.

Every function here also takes a list of clips, k-by-l_j sequences of
their own lengths.  The clips then sit side by side, clip by clip, on the
column axis (the window axis for ``stack_windows``); windows and pools
never cross a clip boundary, and pooling argmaxes index the side-by-side
columns.  The work is done with index arrays over all clips at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_clips


@dataclass(frozen=True)
class WindowSpec:
    width: int
    shift: int

    def __post_init__(self):
        if self.width < 1 or self.shift < 1:
            raise ValueError(f"window width and shift must be >= 1, got {self}")


def window_count(length: int, spec: WindowSpec) -> int:
    """Number of full windows in a sequence of ``length`` columns."""
    if length < spec.width:
        return 0
    return (length - spec.width) // spec.shift + 1


def window_starts(length: int, spec: WindowSpec) -> range:
    return range(0, spec.shift * window_count(length, spec), spec.shift)


def window_counts(lengths, spec: WindowSpec) -> np.ndarray:
    """``window_count`` of each clip length."""
    lengths = np.asarray(lengths, dtype=np.intp)
    return np.where(lengths < spec.width, 0, (lengths - spec.width) // spec.shift + 1)


def _starts(lengths, spec: WindowSpec) -> np.ndarray:
    """First column of every window of clips laid side by side, clip by clip."""
    lengths = np.atleast_1d(np.asarray(lengths, dtype=np.intp))
    counts = window_counts(lengths, spec)
    owner = np.repeat(np.arange(len(lengths)), counts)
    first = np.cumsum(counts) - counts
    local = np.arange(owner.size) - first[owner]
    return (np.cumsum(lengths) - lengths)[owner] + spec.shift * local


def _side_by_side(x) -> tuple[np.ndarray, list[int]]:
    clips, _ = as_clips(x)
    cat = clips[0] if len(clips) == 1 else np.concatenate(clips, axis=1)
    return cat, [c.shape[1] for c in clips]


def stack_windows(x, spec: WindowSpec) -> np.ndarray:
    """All windows of a k-by-l sequence as one (width, k, count) array; for
    a list of clips, every clip's windows in turn on the last axis.

    Axis 0 is the frame position inside the window, so windows can be fed
    through a recurrent cell as one batch of short sequences.
    """
    cat, lengths = _side_by_side(x)
    cols = _starts(lengths, spec)[None, :] + np.arange(spec.width)[:, None]
    return np.ascontiguousarray(cat[:, cols].swapaxes(0, 1))


def scatter_windows_add(dwindows: np.ndarray, spec: WindowSpec, length) -> np.ndarray:
    """Adjoint of ``stack_windows``: sum window gradients back onto the
    source sequence (overlapping windows accumulate, in window order).
    ``length`` is the source's frame count, or the clips' frame counts,
    whose gradients are returned side by side."""
    starts = _starts(length, spec)
    dx = np.zeros((dwindows.shape[1], int(np.sum(length))))
    # one frame position per pass: no column repeats within a pass, and
    # the last position first adds each column's windows in window order
    for t in reversed(range(dwindows.shape[0])):
        dx[:, starts + t] += dwindows[t]
    return dx


def max_pool_forward(x, spec: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """Max-pool columns, also returning the winning source column per cell.

    Ties go to the first (lowest-index) column, which is where the backward
    pass routes the gradient.
    """
    cat, lengths = _side_by_side(x)
    starts = _starts(lengths, spec)
    blocks = cat[:, starts[:, None] + np.arange(spec.width)]   # (n, count, width)
    argmax = np.argmax(blocks, axis=2) + starts
    return np.take_along_axis(cat, argmax, axis=1), argmax


def max_pool_backward(argmax: np.ndarray, dout: np.ndarray, length: int) -> np.ndarray:
    """Route pooled gradients to the columns that produced each max;
    ``length`` is the pooled source's column count."""
    dout = np.asarray(dout, dtype=np.float64)
    n = dout.shape[0]
    # flat index into dx of each pooled cell's winning column; bincount adds
    # overlapping windows' gradients in pool order, starting from zero
    cells = np.arange(n)[:, None] * length + argmax
    dx = np.bincount(cells.ravel(), weights=dout.ravel(), minlength=n * length)
    return dx.reshape(n, length)
