"""Float64 array coercion, scalar nonlinearities, deterministic RNG.

Everything here is pure: identical inputs give bit-identical outputs.
Matrices are plain C-ordered float64 ``numpy.ndarray`` objects, features
as rows and time steps as columns.
"""

from __future__ import annotations

import dataclasses

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions do not line up."""


def as_matrix(data) -> np.ndarray:
    """Coerce to a C-ordered float64 2-D array."""
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def as_clips(data) -> tuple[list[np.ndarray], bool]:
    """Coerce one k-by-l sequence (an array) or a list of k-by-l_j
    sequences sharing k to a list of C-ordered float64 matrices; the flag
    tells whether a single sequence was given."""
    single = not isinstance(data, (list, tuple))
    clips = [as_matrix(data)] if single else [as_matrix(c) for c in data]
    if not clips:
        raise ShapeError("expected at least one sequence, got an empty list")
    if any(c.shape[0] != clips[0].shape[0] for c in clips):
        raise ShapeError(f"sequences differ in feature dimension: "
                         f"{sorted({c.shape[0] for c in clips})}")
    return clips, single


def sigmoid_(z: np.ndarray) -> np.ndarray:
    """Logistic function in place, z <- 1 / (1 + exp(-z)).

    Above z = 36.7 the result rounds to exactly 1.  Below z = -709.78
    exp(-z) overflows to inf and the result is exactly 0, where the exact
    value is below 2e-308; above that it is at most 2 ulp from the exact
    value.
    """
    # not np.negative, which numpy 2.4.6 gets wrong in place at a 64-byte stride:
    # a = np.arange(64.0); v = a[::8]; np.negative(v, out=v) gives [-0, -1, ..., -7]
    np.multiply(z, -1.0, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def sigmoid(z: np.ndarray) -> np.ndarray:
    return sigmoid_(np.array(z, dtype=np.float64))


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


ACTIVATIONS = {
    "sigmoid": sigmoid,
    "tanh": np.tanh,
    "relu": relu,
}


def glorot_limit(rows: int, cols: int) -> float:
    return float(np.sqrt(6.0 / (rows + cols)))


def init_params(shape: tuple[int, ...], rng: "Rng") -> np.ndarray:
    """Uniform init on [-a, a] with a = sqrt(6 / (rows + cols)), where rows
    and cols are the last two dimensions.  Leading dimensions stack
    successive draws: ``init_params((g, rows, cols), rng)`` holds the same
    numbers as g calls of ``init_params((rows, cols), rng)``."""
    rows, cols = shape[-2:]
    if min(shape) < 1:
        raise ShapeError(f"parameter shape must be positive, got {shape}")
    a = glorot_limit(rows, cols)
    return rng.uniform(-a, a, shape)


class Rng:
    """Deterministic, splittable random stream.

    A fixed 64-bit seed fully determines the stream (PCG64 behind a
    ``SeedSequence``), bit-identical across runs and platforms.  ``split``
    derives an independent child stream without disturbing the parent's
    draw sequence.
    """

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._seq = np.random.SeedSequence(self.seed) if _seq is None else _seq
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def split(self) -> "Rng":
        child = self._seq.spawn(1)[0]
        return Rng(self.seed, _seq=child)

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float, scale: float, size=None) -> np.ndarray:
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


# ---------------------------------------------------------------------------
# Parameter trees.
#
# Parameter bundles are dataclasses whose leaves are float64 arrays (plain
# config fields like strings and ints are carried along untouched).  The
# walkers below give the optimizer, the serializer and the gradient checker
# one uniform view of any bundle.

def named_arrays(tree, prefix: str = "") -> list[tuple[str, np.ndarray]]:
    """Flatten a parameter tree into (dotted-name, array) leaves, in a
    stable field order."""
    out: list[tuple[str, np.ndarray]] = []
    if isinstance(tree, np.ndarray):
        out.append((prefix, tree))
    elif dataclasses.is_dataclass(tree):
        for f in dataclasses.fields(tree):
            name = f"{prefix}.{f.name}" if prefix else f.name
            out.extend(named_arrays(getattr(tree, f.name), name))
    elif isinstance(tree, (list, tuple)):
        for i, item in enumerate(tree):
            name = f"{prefix}.{i}" if prefix else str(i)
            out.extend(named_arrays(item, name))
    # scalars, strings and None are hyperparameters, not leaves
    return out


def tree_map(fn, tree):
    """Rebuild a parameter tree with ``fn`` applied to every array leaf."""
    if isinstance(tree, np.ndarray):
        return fn(tree)
    if dataclasses.is_dataclass(tree):
        kwargs = {f.name: tree_map(fn, getattr(tree, f.name)) for f in dataclasses.fields(tree)}
        return type(tree)(**kwargs)
    if isinstance(tree, list):
        return [tree_map(fn, item) for item in tree]
    if isinstance(tree, tuple):
        return tuple(tree_map(fn, item) for item in tree)
    return tree


def tree_copy(tree):
    return tree_map(np.copy, tree)


def zeros_like_tree(tree):
    return tree_map(np.zeros_like, tree)


def param_count(tree) -> int:
    """Total number of scalar parameters in a bundle."""
    return sum(int(a.size) for _, a in named_arrays(tree))
