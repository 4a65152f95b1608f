"""Model files: versioned flat binary of named tensors + config sidecar.

Layout (all integers little-endian):

    magic   4 bytes  b"CRNM"
    version u32      currently 2
    count   u32      number of tensors
    per tensor:
        name length  u16, then UTF-8 name (dotted parameter path)
        ndim         u8, then ndim u32 dimensions
        data         float64 little-endian, C order

The writer is fully deterministic: identical parameters produce
byte-identical files.  Next to the binary, ``save_model`` writes a
``<path>.cfg`` sidecar holding the canonical config text, so a model
file alone is enough to rebuild and run the model.  Both files are
written through ``write_atomic``: a reader sees the old file or the new
one, never a partly written one.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config_text, render_config
from .data import DataError, _read_text
from .model import ModelParams, init_model
from .numerics import Rng, named_arrays

MAGIC = b"CRNM"
VERSION = 2


class ModelFileError(DataError):
    """Model file is corrupt, wrong version, or inconsistent with its config."""


def sidecar_path(path) -> Path:
    return Path(str(path) + ".cfg")


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file in the same directory, then
    rename it over ``path``.  Nothing is fsynced: this guards against a
    crash of the process, not of the machine."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_tensors(path, named: list[tuple[str, np.ndarray]]) -> None:
    parts = [MAGIC, struct.pack("<II", VERSION, len(named))]
    for name, arr in named:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    write_atomic(path, b"".join(parts))


def read_tensors(path) -> dict[str, np.ndarray]:
    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        raise ModelFileError(f"cannot read {path}: {e.strerror or e}") from None
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise ModelFileError(f"{path}: not a model file (bad magic)")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise ModelFileError(f"{path}: unsupported model file version {version}")
    pos = 12
    out: dict[str, np.ndarray] = {}

    def need(nbytes: int):
        nonlocal pos
        if pos + nbytes > len(blob):
            raise ModelFileError(f"{path}: truncated model file")
        chunk = blob[pos:pos + nbytes]
        pos += nbytes
        return chunk

    for _ in range(count):
        (nlen,) = struct.unpack("<H", need(2))
        try:
            name = need(nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFileError(f"{path}: tensor name is not UTF-8") from None
        if name in out:
            raise ModelFileError(f"{path}: tensor {name} is listed twice")
        (ndim,) = struct.unpack("<B", need(1))
        shape = struct.unpack(f"<{ndim}I", need(4 * ndim))
        # an exact product: np.prod wraps in int64 on huge dimensions
        size = math.prod(shape)
        data = np.frombuffer(need(8 * size), dtype="<f8")
        if not np.isfinite(data).all():
            raise ModelFileError(f"{path}: tensor {name} holds a non-finite value")
        out[name] = data.reshape(shape).copy()
    if pos != len(blob):
        raise ModelFileError(f"{path}: {len(blob) - pos} trailing bytes")
    return out


def assign_named(params, tensors: dict[str, np.ndarray], origin: str = "model file") -> None:
    """Copy a name->tensor mapping into an existing parameter tree.

    The name sets and every shape must match exactly."""
    leaves = named_arrays(params)
    names = {name for name, _ in leaves}
    missing = sorted(names - tensors.keys())
    extra = sorted(tensors.keys() - names)
    if missing or extra:
        raise ModelFileError(
            f"{origin}: parameter names do not match "
            f"(missing: {missing[:3]}, unexpected: {extra[:3]})")
    for name, arr in leaves:
        t = tensors[name]
        if t.shape != arr.shape:
            raise ModelFileError(
                f"{origin}: tensor {name} has shape {t.shape}, expected {arr.shape}")
        arr[...] = t


def save_model(path, run: RunConfig, params: ModelParams) -> None:
    write_tensors(path, named_arrays(params))
    write_atomic(sidecar_path(path), render_config(run).encode())


def load_model(path) -> tuple[RunConfig, ModelParams]:
    """Rebuild (config, parameters) from a model file and its sidecar."""
    side = sidecar_path(path)
    if not side.exists():
        raise ModelFileError(f"{path}: missing config sidecar {side}")
    run = parse_config_text(_read_text(side), origin=str(side))
    params = init_model(run.model, Rng(0))
    assign_named(params, read_tensors(path), origin=str(path))
    return run, params
