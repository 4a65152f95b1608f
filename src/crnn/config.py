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


_LAYER_KEY = re.compile(r"^layer(\d+)\.(.+)$")

_MODEL_KEYS = {"input_dim", "classes", "classifier", "classifier_dim",
               "dense_dim", "aggregation", "aggregation_steps"}
_TRAIN_KEYS = {"lr", "beta1", "beta2", "epsilon", "batch_size", "max_epochs",
               "patience", "seed"}
_DATA_KEYS = {"balance", "normalize", "train_manifest", "val_manifest",
              "test_manifest", "out_dir"}
_LAYER_SUBKEYS = {"kind", "features", "window", "shift", "pool", "pool_shift",
                  "source", "reduction", "hidden_dim", "activation"}


class _Entries:
    """Parsed key/value lines with line numbers for error messages."""

    def __init__(self, origin: str):
        self.origin = origin
        self.values: dict[str, str] = {}
        self.lines: dict[str, int] = {}

    def add(self, key: str, value: str, lineno: int) -> None:
        if key in self.values:
            raise ConfigError(f"{self.origin}:{lineno}: duplicate key {key!r}")
        self.values[key] = value
        self.lines[key] = lineno

    def error(self, key: str, message: str):
        return ConfigError(f"{self.origin}:{self.lines[key]}: {message}")

    def take(self, key: str, default=None):
        return self.values.pop(key, default)

    def take_int(self, key: str, default: int | None = None) -> int | None:
        raw = self.take(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise self.error(key, f"{key} must be an integer, got {raw!r}") from None

    def take_float(self, key: str, default: float | None = None) -> float | None:
        raw = self.take(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise self.error(key, f"{key} must be a number, got {raw!r}") from None

    def take_bool(self, key: str, default: bool) -> bool:
        raw = self.take(key)
        if raw is None:
            return default
        if raw not in ("true", "false"):
            raise self.error(key, f"{key} must be true or false, got {raw!r}")
        return raw == "true"


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    entries = _Entries(origin)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        entries.add(key.strip(), value.strip(), lineno)

    # peel off layer blocks first so leftover keys are genuinely unknown
    layer_keys: dict[int, dict[str, str]] = {}
    for key in list(entries.values):
        m = _LAYER_KEY.match(key)
        if not m:
            continue
        num, sub = int(m.group(1)), m.group(2)
        if sub not in _LAYER_SUBKEYS:
            raise entries.error(key, f"unknown key {key!r}")
        layer_keys.setdefault(num, {})[sub] = key

    layers = []
    for pos, num in enumerate(sorted(layer_keys), start=1):
        if num != pos:
            raise ConfigError(
                f"{origin}: layer numbers must run 1..{len(layer_keys)} "
                f"without gaps; found layer{num}")
        layers.append(_parse_layer(entries, num, layer_keys[num]))

    for key in ("input_dim", "classes"):
        if key not in entries.values:
            raise ConfigError(f"{origin}: missing required key {key!r}")

    try:
        model = ModelConfig(
            input_dim=entries.take_int("input_dim"),
            num_classes=entries.take_int("classes"),
            layers=tuple(layers),
            classifier=entries.take("classifier", "lstm"),
            classifier_dim=entries.take_int("classifier_dim", 256),
            dense_dim=entries.take_int("dense_dim", 400),
            aggregation=entries.take("aggregation", "all"),
            aggregation_steps=entries.take_int("aggregation_steps", 4),
        )
        train = TrainConfig(
            batch_size=entries.take_int("batch_size", 16),
            max_epochs=entries.take_int("max_epochs", 100),
            patience=entries.take_int("patience", 12),
            seed=entries.take_int("seed", 0),
            lr=entries.take_float("lr", 0.002),
            beta1=entries.take_float("beta1", 0.1),
            beta2=entries.take_float("beta2", 0.001),
            epsilon=entries.take_float("epsilon", 1e-8),
        )
    except ValueError as e:
        raise ConfigError(f"{origin}: {e}") from None

    run = RunConfig(
        model=model,
        train=train,
        balance=entries.take_bool("balance", False),
        normalize=entries.take_bool("normalize", False),
        train_manifest=entries.take("train_manifest"),
        val_manifest=entries.take("val_manifest"),
        test_manifest=entries.take("test_manifest"),
        out_dir=entries.take("out_dir"),
    )
    for key in sorted(entries.values, key=lambda k: entries.lines[k]):
        raise entries.error(key, f"unknown key {key!r}")
    return run


def _parse_layer(entries: _Entries, num: int, keys: dict[str, str]) -> CrnnLayerConfig:
    def take(sub, conv=str, default=None):
        if sub not in keys:
            return default
        key = keys[sub]
        raw = entries.take(key)
        if conv is str:
            return raw
        try:
            return conv(raw)
        except ValueError:
            raise entries.error(key, f"{key} must be an integer, got {raw!r}") from None

    prefix = f"layer{num}"
    for sub in ("kind", "features", "window", "shift"):
        if sub not in keys:
            raise ConfigError(
                f"{entries.origin}: missing required key '{prefix}.{sub}'")
    try:
        window = WindowSpec(take("window", int), take("shift", int))
        pool_width = take("pool", int)
        pool_shift = take("pool_shift", int)
        if pool_shift is not None and pool_width is None:
            raise ValueError(f"{prefix}.pool_shift given without {prefix}.pool")
        pool = None
        if pool_width is not None:
            pool = WindowSpec(pool_width, pool_shift if pool_shift is not None else pool_width)
        return CrnnLayerConfig(
            kind=take("kind"),
            features=take("features", int),
            window=window,
            pool=pool,
            source=take("source", default="cell"),
            reduction=take("reduction", default="last"),
            hidden_dim=take("hidden_dim", int),
            activation=take("activation", default="sigmoid"),
        )
    except ValueError as e:
        raise ConfigError(f"{entries.origin}: layer{num}: {e}") from None


def parse_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config_text(text, origin=str(path))


def render_config(run: RunConfig) -> str:
    """Canonical text form; ``parse_config_text`` returns an equal RunConfig."""
    m, t = run.model, run.train
    lines = [
        f"input_dim = {m.input_dim}",
        f"classes = {m.num_classes}",
        f"classifier = {m.classifier}",
        f"classifier_dim = {m.classifier_dim}",
        f"dense_dim = {m.dense_dim}",
        f"aggregation = {m.aggregation}",
        f"aggregation_steps = {m.aggregation_steps}",
    ]
    for i, lc in enumerate(m.layers, start=1):
        p = f"layer{i}"
        lines += [f"{p}.kind = {lc.kind}",
                  f"{p}.features = {lc.features}",
                  f"{p}.window = {lc.window.width}",
                  f"{p}.shift = {lc.window.shift}"]
        if lc.pool is not None:
            lines += [f"{p}.pool = {lc.pool.width}",
                      f"{p}.pool_shift = {lc.pool.shift}"]
        if lc.kind == "conv":
            lines.append(f"{p}.activation = {lc.activation}")
        else:
            lines += [f"{p}.source = {lc.source}",
                      f"{p}.reduction = {lc.reduction}"]
            if lc.hidden_dim is not None:
                lines.append(f"{p}.hidden_dim = {lc.hidden_dim}")
    lines += [
        f"lr = {t.lr!r}",
        f"beta1 = {t.beta1!r}",
        f"beta2 = {t.beta2!r}",
        f"epsilon = {t.epsilon!r}",
        f"batch_size = {t.batch_size}",
        f"max_epochs = {t.max_epochs}",
        f"patience = {t.patience}",
        f"seed = {t.seed}",
        f"balance = {'true' if run.balance else 'false'}",
        f"normalize = {'true' if run.normalize else 'false'}",
    ]
    for key in ("train_manifest", "val_manifest", "test_manifest", "out_dir"):
        value = getattr(run, key)
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
