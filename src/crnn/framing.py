"""Slicing sequences into overlapping windows, and per-feature max-pooling.

A window spec is a (width, shift) pair: windows are ``width`` consecutive
columns, consecutive windows start ``shift`` columns apart, and trailing
columns that do not fill a whole window are dropped.

Every function here also takes several clips, k-by-l_j sequences of
their own lengths, laid side by side, clip by clip, on the column axis as
one k-by-sum(l_j) matrix, with their column counts as ``lengths``
(``None`` means one clip).  Windows and pools never cross a clip
boundary; the windows of all clips follow one another on the window axis
of ``stack_windows``, and pooling argmaxes index the side-by-side
columns.  The work is done with index arrays over all clips at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WindowSpec:
    width: int
    shift: int

    def __post_init__(self):
        if self.width < 1 or self.shift < 1:
            raise ValueError(f"window width and shift must be >= 1, got {self}")


def window_count(length, spec: WindowSpec):
    """Number of full windows in a sequence of ``length`` columns, or of
    each sequence of an array of lengths."""
    return np.maximum((np.asarray(length) - spec.width) // spec.shift + 1, 0)


def _starts(lengths, spec: WindowSpec) -> np.ndarray:
    """First column of every window of clips laid side by side, clip by clip."""
    lengths = np.atleast_1d(np.asarray(lengths, dtype=np.intp))
    counts = window_count(lengths, spec)
    owner = np.repeat(np.arange(len(lengths)), counts)
    first = np.cumsum(counts) - counts
    local = np.arange(owner.size) - first[owner]
    return (np.cumsum(lengths) - lengths)[owner] + spec.shift * local


def stack_windows(x: np.ndarray, spec: WindowSpec, lengths=None) -> np.ndarray:
    """All windows of a k-by-l sequence as one (width, k, count) array; for
    clips of ``lengths`` columns side by side, every clip's windows in
    turn on the last axis.

    Axis 0 is the frame position inside the window, so windows can be fed
    through a recurrent cell as one batch of short sequences.
    """
    starts = _starts(x.shape[1] if lengths is None else lengths, spec)
    cols = starts[None, :] + np.arange(spec.width)[:, None]
    return np.ascontiguousarray(x[:, cols].swapaxes(0, 1))


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


def max_pool_forward(x: np.ndarray, spec: WindowSpec,
                     lengths=None) -> tuple[np.ndarray, np.ndarray]:
    """Max-pool columns, also returning the winning source column per cell;
    with ``lengths``, each clip's pools stay within its own columns.

    Ties go to the first (lowest-index) column, which is where the backward
    pass routes the gradient.
    """
    starts = _starts(x.shape[1] if lengths is None else lengths, spec)
    blocks = x[:, starts[:, None] + np.arange(spec.width)]   # (n, count, width)
    argmax = np.argmax(blocks, axis=2) + starts
    return np.take_along_axis(x, argmax, axis=1), argmax


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
