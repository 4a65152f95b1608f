"""Slicing sequences into overlapping windows, and per-feature max-pooling.

A window spec is a (width, shift) pair: windows are ``width`` consecutive
columns, consecutive windows start ``shift`` columns apart, and trailing
columns that do not fill a whole window are dropped.

Every function here also takes a (k, l, B) stack of B equal-length
sequences: windows and pools then run along axis 1 of each sequence
separately, and the batch axis is carried through as the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix, as_sequences


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


def make_windows(x: np.ndarray, spec: WindowSpec) -> list[np.ndarray]:
    """Copy out each k-by-width window of a k-by-l sequence."""
    x = as_matrix(x)
    return [x[:, s:s + spec.width].copy() for s in window_starts(x.shape[1], spec)]


def stack_windows(x: np.ndarray, spec: WindowSpec) -> np.ndarray:
    """All windows of a k-by-l sequence as one (width, k, count) array
    ((width, k, count, B) for a stack of B sequences).

    Axis 0 is the frame position inside the window, so windows can be fed
    through a recurrent cell as one batch of short sequences.
    """
    x = as_sequences(x)
    k, length = x.shape[:2]
    frames = x.swapaxes(0, 1)
    out = np.empty((spec.width, k, window_count(length, spec)) + x.shape[2:])
    for i, s in enumerate(window_starts(length, spec)):
        out[:, :, i] = frames[s:s + spec.width]
    return out


def scatter_windows_add(dwindows: np.ndarray, spec: WindowSpec, length: int) -> np.ndarray:
    """Adjoint of ``stack_windows``: sum window gradients back onto the
    source sequence (overlapping windows accumulate)."""
    width, k = dwindows.shape[:2]
    dx = np.zeros((k, length) + dwindows.shape[3:])
    frames = dx.swapaxes(0, 1)
    for i, s in enumerate(window_starts(length, spec)):
        frames[s:s + width] += dwindows[:, :, i]
    return dx


def max_pool_sequence(x: np.ndarray, spec: WindowSpec) -> np.ndarray:
    """Per-feature max over each window of columns."""
    out, _ = max_pool_forward(x, spec)
    return out


def max_pool_forward(x: np.ndarray, spec: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """Max-pool columns, also returning the winning source column per cell.

    Ties go to the first (lowest-index) column, which is where the backward
    pass routes the gradient.
    """
    x = as_sequences(x)
    starts = np.asarray(window_starts(x.shape[1], spec))
    blocks = x[:, starts[:, None] + np.arange(spec.width)]   # (n, count, width[, B])
    argmax = np.argmax(blocks, axis=2) + starts.reshape((-1,) + (1,) * (x.ndim - 2))
    return np.take_along_axis(x, argmax, axis=1), argmax


def max_pool_backward(argmax: np.ndarray, dout: np.ndarray, length: int) -> np.ndarray:
    """Route pooled gradients to the columns that produced each max."""
    dout = np.asarray(dout, dtype=np.float64)
    n, count = dout.shape[:2]
    batch = int(np.prod(dout.shape[2:]))
    # flat index into dx of each pooled cell's winning column; bincount adds
    # overlapping windows' gradients in pool order, starting from zero
    cells = (np.arange(n)[:, None, None] * length + argmax.reshape(n, count, batch)) * batch
    cells += np.arange(batch)
    dx = np.bincount(cells.ravel(), weights=dout.ravel(), minlength=n * length * batch)
    return dx.reshape((n, length) + dout.shape[2:])
