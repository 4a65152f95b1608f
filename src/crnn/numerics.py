"""Dense float64 linear algebra, scalar nonlinearities, deterministic RNG.

Everything here is pure: identical inputs give bit-identical outputs.
Matrices are plain C-ordered float64 ``numpy.ndarray`` objects, features
as rows and time steps as columns.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.special import expit


class ShapeError(ValueError):
    """Operand dimensions do not line up."""


def as_matrix(data) -> np.ndarray:
    """Coerce to a C-ordered float64 2-D array."""
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def as_sequences(data) -> np.ndarray:
    """Coerce a k-by-l sequence, or a (k, l, B) stack of B equal-length
    sequences, to a C-ordered float64 array."""
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim not in (2, 3):
        raise ShapeError(f"expected a k-by-l sequence or a (k, l, B) stack, got shape {m.shape}")
    return m


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with shape validation and double accumulation."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def sigmoid(z: np.ndarray) -> np.ndarray:
    return expit(z)


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


ACTIVATIONS = {
    "sigmoid": sigmoid,
    "tanh": np.tanh,
    "relu": relu,
}


def apply_activation(m: np.ndarray, kind: str) -> np.ndarray:
    """Element-wise sigmoid, tanh or relu; shape preserved."""
    try:
        fn = ACTIVATIONS[kind]
    except KeyError:
        raise ValueError(f"unknown activation {kind!r}") from None
    return fn(np.asarray(m, dtype=np.float64))


def glorot_limit(rows: int, cols: int) -> float:
    return float(np.sqrt(6.0 / (rows + cols)))


def init_params(shape: tuple[int, int], rng: "Rng") -> np.ndarray:
    """Uniform init on [-a, a] with a = sqrt(6 / (rows + cols))."""
    rows, cols = shape
    if rows < 1 or cols < 1:
        raise ShapeError(f"parameter shape must be positive, got {shape}")
    a = glorot_limit(rows, cols)
    return rng.uniform(-a, a, (rows, cols))


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
