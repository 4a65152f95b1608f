"""Flat key=value run configuration.

One text file drives a whole run: model architecture, optimizer and
training settings, dataset manifests, output directory.  Layers are
numbered ``layer1.``, ``layer2.``, ... and must be contiguous from 1.
Unknown keys are rejected (catching typos like ``patienc``), every error
names the offending line, and ``render_config`` emits a canonical form
that parses back to an identical configuration, which is what the model
file sidecar stores.

Defaults: lr 0.002, beta1 0.1, beta2 0.001, epsilon 1e-8, batch_size 16,
patience 12, max_epochs 100, classifier lstm (dim 256), dense_dim 400,
aggregation all.  A minimal file is just ``input_dim`` and ``classes``.
Every key is declared once, in ``_KEYS`` or ``_LAYER_KEYS``; a key left
out of the file takes the default of the dataclass field it sets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .framing import WindowSpec
from .layers import CrnnLayerConfig
from .model import ModelConfig
from .training import TrainConfig


class ConfigError(Exception):
    """Configuration file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    balance: bool = False
    normalize: bool = False
    train_manifest: str | None = None
    val_manifest: str | None = None
    test_manifest: str | None = None
    out_dir: str | None = None


def _bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(raw)
    return raw == "true"


# what a value that a reader rejects should have been
_EXPECTED = {int: "an integer", float: "a number", _bool: "true or false"}

# key -> (the object it sets, its field, the reader of its value)
_KEYS = {
    "input_dim": ("model", "input_dim", int),
    "classes": ("model", "num_classes", int),
    "classifier": ("model", "classifier", str),
    "classifier_dim": ("model", "classifier_dim", int),
    "dense_dim": ("model", "dense_dim", int),
    "aggregation": ("model", "aggregation", str),
    "aggregation_steps": ("model", "aggregation_steps", int),
    "lr": ("train", "lr", float),
    "beta1": ("train", "beta1", float),
    "beta2": ("train", "beta2", float),
    "epsilon": ("train", "epsilon", float),
    "batch_size": ("train", "batch_size", int),
    "max_epochs": ("train", "max_epochs", int),
    "patience": ("train", "patience", int),
    "seed": ("train", "seed", int),
    "balance": ("run", "balance", _bool),
    "normalize": ("run", "normalize", _bool),
    "train_manifest": ("run", "train_manifest", str),
    "val_manifest": ("run", "val_manifest", str),
    "test_manifest": ("run", "test_manifest", str),
    "out_dir": ("run", "out_dir", str),
}

# layerN. sub-key -> reader; window/shift and pool/pool_shift become WindowSpecs
_LAYER_KEYS = {"kind": str, "features": int, "window": int, "shift": int, "pool": int,
               "pool_shift": int, "source": str, "reduction": str, "hidden_dim": int,
               "activation": str}

_LAYER_KEY = re.compile(r"^layer(\d+)\.(.+)$")


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    top: dict[str, object] = {}
    layers: dict[int, dict[str, object]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        m = _LAYER_KEY.match(key)
        if m and m.group(2) in _LAYER_KEYS:
            values, name = layers.setdefault(int(m.group(1)), {}), m.group(2)
            reader = _LAYER_KEYS[name]
        elif key in _KEYS:
            values, name, reader = top, key, _KEYS[key][2]
        else:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if name in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        try:
            values[name] = reader(raw)
        except ValueError:
            raise ConfigError(f"{origin}:{lineno}: {key} must be "
                              f"{_EXPECTED[reader]}, got {raw!r}") from None

    model_layers = []
    for pos, num in enumerate(sorted(layers), start=1):
        if num != pos:
            raise ConfigError(
                f"{origin}: layer numbers must run 1..{len(layers)} "
                f"without gaps; found layer{num}")
        model_layers.append(_parse_layer(layers[num], f"layer{num}", origin))

    for key in ("input_dim", "classes"):
        if key not in top:
            raise ConfigError(f"{origin}: missing required key {key!r}")
    given = {"run": {}, "model": {}, "train": {}}
    for key, value in top.items():
        obj, field, _ = _KEYS[key]
        given[obj][field] = value
    try:
        return RunConfig(model=ModelConfig(layers=tuple(model_layers), **given["model"]),
                         train=TrainConfig(**given["train"]), **given["run"])
    except ValueError as e:
        raise ConfigError(f"{origin}: {e}") from None


def _parse_layer(values: dict, prefix: str, origin: str) -> CrnnLayerConfig:
    for sub in ("kind", "features", "window", "shift"):
        if sub not in values:
            raise ConfigError(f"{origin}: missing required key '{prefix}.{sub}'")
    try:
        values["window"] = WindowSpec(values["window"], values.pop("shift"))
        if "pool" in values:
            values["pool"] = WindowSpec(values["pool"], values.pop("pool_shift", values["pool"]))
        elif "pool_shift" in values:
            raise ValueError(f"{prefix}.pool_shift given without {prefix}.pool")
        return CrnnLayerConfig(**values)
    except ValueError as e:
        raise ConfigError(f"{origin}: {prefix}: {e}") from None


def parse_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not text: {e.reason} at byte {e.start}") from None
    return parse_config_text(text, origin=str(path))


def _layer_values(lc: CrnnLayerConfig) -> dict:
    """The sub-keys that apply to a layer of this kind, with their values."""
    values = {"kind": lc.kind, "features": lc.features,
              "window": lc.window.width, "shift": lc.window.shift}
    if lc.pool is not None:
        values.update(pool=lc.pool.width, pool_shift=lc.pool.shift)
    if lc.kind == "conv":
        values["activation"] = lc.activation
    else:
        values.update(source=lc.source, reduction=lc.reduction, hidden_dim=lc.hidden_dim)
    return values


def render_config(run: RunConfig) -> str:
    """Canonical text form; ``parse_config_text`` returns an equal RunConfig."""
    objects = {"run": run, "model": run.model, "train": run.train}
    values = {key: getattr(objects[obj], field) for key, (obj, field, _) in _KEYS.items()}
    for i, lc in enumerate(run.model.layers, start=1):
        values.update({f"layer{i}.{sub}": v for sub, v in _layer_values(lc).items()})
    # bools are written the way _bool reads them; str(float) round-trips
    return "".join(f"{key} = {str(v).lower() if isinstance(v, bool) else v}\n"
                   for key, v in values.items() if v is not None)
