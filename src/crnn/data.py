"""Datasets: balancing, per-group normalization, synthetic data, audio.

A dataset is a list of labeled sequences (k-by-l float matrices, one
column per frame) with a group id per example, typically the speaker.
Everything here returns new datasets; nothing mutates its input.

Audio support is deliberately narrow: canonical RIFF/WAVE PCM 16-bit in,
log mel filterbank energies out.  The filterbank convention is pinned so
downstream numbers are stable: Hann analysis window, power spectrum on a
next-power-of-two FFT, triangular filters with unit peaks whose edge
frequencies are equally spaced on the mel scale m = 2595 log10(1 + f/700)
between 0 Hz and Nyquist, natural log with an absolute floor of 1e-10.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import Rng, as_matrix


class DataError(Exception):
    """A dataset, manifest, or audio file is unusable."""


class WavMagicError(DataError):
    """Not a RIFF/WAVE file."""


class WavCodecError(DataError):
    """WAVE file is not 16-bit PCM."""


class WavTruncatedError(DataError):
    """WAVE data chunk is shorter than its declared size."""


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{path} is not text: {e.reason} at byte {e.start}") from None


def _read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror or e}") from None


@dataclass
class SequenceExample:
    features: np.ndarray   # k-by-l, one column per frame
    label: int
    group: str = ""
    source_id: str = ""

    def __post_init__(self):
        self.features = as_matrix(self.features)
        if self.features.shape[1] < 1:
            raise DataError(f"example {self.source_id!r} has no frames")
        if self.label < 0:
            raise DataError(f"example {self.source_id!r} has negative label")


@dataclass
class Dataset:
    examples: list[SequenceExample]
    num_classes: int

    def __post_init__(self):
        dims = {ex.features.shape[0] for ex in self.examples}
        if len(dims) > 1:
            raise DataError(f"mixed feature dimensions in dataset: {sorted(dims)}")
        for ex in self.examples:
            if ex.label >= self.num_classes:
                raise DataError(
                    f"example {ex.source_id!r} has label {ex.label} but the "
                    f"dataset declares {self.num_classes} classes")

    @property
    def feature_dim(self) -> int:
        return self.examples[0].features.shape[0] if self.examples else 0

    def class_counts(self) -> list[int]:
        counts = [0] * self.num_classes
        for ex in self.examples:
            counts[ex.label] += 1
        return counts


def balance_classes(d: Dataset, rng: Rng) -> Dataset:
    """Append random duplicates until every class matches the largest.

    Duplication is round-based: each round samples originals without
    replacement, and a new round begins only after every original has
    been duplicated once more, so duplicate multiplicities within a class
    never spread by more than one.  Duplicates keep their source id.
    """
    counts = d.class_counts()
    if min(counts) == 0:
        empty = counts.index(0)
        raise DataError(f"cannot balance: class {empty} has no examples")
    target = max(counts)
    extra: list[SequenceExample] = []
    for c in range(d.num_classes):
        originals = [ex for ex in d.examples if ex.label == c]
        need = target - len(originals)
        while need > 0:
            take = min(need, len(originals))
            picks = rng.permutation(len(originals))[:take]
            for j in picks:
                src = originals[int(j)]
                extra.append(SequenceExample(features=src.features.copy(),
                                             label=src.label, group=src.group,
                                             source_id=src.source_id))
            need -= take
    return Dataset(examples=list(d.examples) + extra, num_classes=d.num_classes)


def normalize_per_group(d: Dataset) -> tuple[Dataset, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Zero-mean, unit-std each (group, feature row) pair.

    Statistics pool every frame of every sequence in the group.  Rows
    with std below 1e-8 are centered but not divided.  Returns the new
    dataset and {group: (mean, std)} for reuse on later data.
    """
    groups: dict[str, list[int]] = {}
    for idx, ex in enumerate(d.examples):
        groups.setdefault(ex.group, []).append(idx)

    stats: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    new_examples: list[SequenceExample] = list(d.examples)
    for group, idxs in groups.items():
        frames = np.concatenate([d.examples[i].features for i in idxs], axis=1)
        mean = frames.mean(axis=1)
        std = frames.std(axis=1)
        stats[group] = (mean, std)
        safe = std >= 1e-8
        for i in idxs:
            f = d.examples[i].features - mean[:, None]
            f[safe] /= std[safe, None]
            ex = d.examples[i]
            new_examples[i] = SequenceExample(features=f, label=ex.label,
                                              group=ex.group, source_id=ex.source_id)
    return Dataset(examples=new_examples, num_classes=d.num_classes), stats


def gen_order_task(count: int, k: int, l: int, rng: Rng) -> Dataset:
    """Two-class task where only intra-window temporal order carries signal.

    Sequences are concatenations of 5-frame ramps.  Examples come in
    pairs sharing the exact same per-ramp value multisets: the class-0
    member sorts each ramp ascending, the class-1 member descending, so
    any order-insensitive window statistic (sum, mean, max) is identical
    across the pair by construction.  Independent N(0, 0.05) noise is
    added per example.  Labels alternate 0, 1, 0, 1, ...
    """
    if l < 5:
        raise ValueError(f"sequences must be at least 5 frames, got {l}")
    ramps = math.ceil(l / 5)
    examples: list[SequenceExample] = []
    for pair in range((count + 1) // 2):
        values = np.sort(rng.uniform(0.0, 1.0, (k, ramps, 5)), axis=2)
        ascending = values.reshape(k, ramps * 5)[:, :l]
        descending = values[:, :, ::-1].reshape(k, ramps * 5)[:, :l]
        for label, base in ((0, ascending), (1, descending)):
            idx = 2 * pair + label
            if idx >= count:
                break
            noisy = base + rng.normal(0.0, 0.05, base.shape)
            examples.append(SequenceExample(features=noisy, label=label,
                                            group="synth",
                                            source_id=f"order-{idx:05d}"))
    return Dataset(examples=examples, num_classes=2)


# ---------------------------------------------------------------------------
# RIFF/WAVE.

def read_wav(path) -> tuple[np.ndarray, int]:
    """Samples in [-1, 1] (stereo averaged to mono) and the sample rate.

    Only canonical RIFF/WAVE with 16-bit PCM is accepted; sample s maps
    to s/32768.
    """
    blob = _read_bytes(path)
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WavMagicError(f"{path}: missing RIFF/WAVE header")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk_id = blob[pos:pos + 4]
        (size,) = struct.unpack("<I", blob[pos + 4:pos + 8])
        body = blob[pos + 8:pos + 8 + size]
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            if len(body) < size:
                raise WavTruncatedError(
                    f"{path}: data chunk declares {size} bytes, only "
                    f"{len(body)} present")
            data = body
        pos += 8 + size + (size & 1)   # chunks are word-aligned

    if fmt is None or len(fmt) < 16:
        raise DataError(f"{path}: fmt chunk missing or too short")
    if data is None:
        raise DataError(f"{path}: data chunk missing")
    format_code, channels, rate = struct.unpack_from("<HHI", fmt, 0)
    (bits,) = struct.unpack_from("<H", fmt, 14)
    if format_code != 1:
        raise WavCodecError(f"{path}: format code {format_code}, only PCM (1) supported")
    if bits != 16:
        raise WavCodecError(f"{path}: {bits}-bit samples, only 16-bit supported")
    if channels < 1:
        raise WavCodecError(f"{path}: channel count 0")
    if rate < 1:
        raise WavCodecError(f"{path}: sample rate 0")

    raw = np.frombuffer(data[:len(data) - len(data) % 2], dtype="<i2")
    raw = raw[:len(raw) - len(raw) % channels]
    samples = raw.astype(np.float64).reshape(-1, channels).mean(axis=1)
    return samples / 32768.0, int(rate)


def write_wav(path, samples: np.ndarray, rate: int) -> None:
    """Inverse of read_wav for fixtures: mono 16-bit PCM."""
    pcm = np.clip(np.round(np.asarray(samples) * 32768.0), -32768, 32767).astype("<i2")
    data = pcm.tobytes()
    body = (b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
            + b"data" + struct.pack("<I", len(data)) + data)
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


# ---------------------------------------------------------------------------
# Log mel filterbanks.

@dataclass(frozen=True)
class MelConfig:
    sample_rate: int
    window_ms: float = 25.0
    hop_ms: float = 10.0
    num_filters: int = 26
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.sample_rate < 1:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate}")
        if not self.window_ms > self.hop_ms > 0:
            raise ValueError(
                f"need window > hop > 0, got {self.window_ms} / {self.hop_ms} ms")
        if self.num_filters < 1:
            raise ValueError(f"need at least one filter, got {self.num_filters}")
        if self.hop_samples < 1:
            raise ValueError(f"a {self.hop_ms} ms hop is under one sample at "
                             f"{self.sample_rate} Hz")

    @property
    def window_samples(self) -> int:
        return int(round(self.sample_rate * self.window_ms / 1000.0))

    @property
    def hop_samples(self) -> int:
        return int(round(self.sample_rate * self.hop_ms / 1000.0))

    @property
    def fft_size(self) -> int:
        return 1 << (self.window_samples - 1).bit_length()


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_edge_frequencies(cfg: MelConfig) -> np.ndarray:
    """num_filters + 2 edge points in Hz, equally spaced on the mel scale
    from 0 to Nyquist.  Filter j spans edges [j, j+2] with its peak at
    edge j+1."""
    nyquist = cfg.sample_rate / 2.0
    mels = np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), cfg.num_filters + 2)
    return mel_to_hz(mels)


def mel_filterbank(cfg: MelConfig) -> np.ndarray:
    """(num_filters, fft_size/2 + 1) matrix of unit-peak triangles,
    evaluated at the FFT bin frequencies, linear in Hz between edges."""
    edges = mel_edge_frequencies(cfg)
    bins = np.arange(cfg.fft_size // 2 + 1) * (cfg.sample_rate / cfg.fft_size)
    lo, center, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bins - lo) / (center - lo)
    falling = (hi - bins) / (hi - center)
    return np.clip(np.minimum(rising, falling), 0.0, None)


def log_mel(samples: np.ndarray, cfg: MelConfig) -> np.ndarray:
    """Log mel energies, one column per frame.

    Frame count is 1 + floor((N - window)/hop); per frame: Hann window,
    zero-padded power spectrum, filterbank, natural log clamped at the
    floor.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    win = cfg.window_samples
    hop = cfg.hop_samples
    if samples.shape[0] < win:
        raise DataError(
            f"{samples.shape[0]} samples is shorter than one {win}-sample window")
    frames = np.lib.stride_tricks.sliding_window_view(samples, win)[::hop]
    power = np.abs(np.fft.rfft(frames * np.hanning(win), n=cfg.fft_size)) ** 2
    # one matrix-vector product per frame: a single GEMM rounds differently
    energies = np.matmul(mel_filterbank(cfg), power[:, :, None])[:, :, 0]
    return np.ascontiguousarray(np.log(np.maximum(energies, cfg.log_floor)).T)


# ---------------------------------------------------------------------------
# Dataset interchange: manifest + feature-matrix files.

def write_features(path, features: np.ndarray) -> None:
    """Text feature matrix: three header lines (k, l, "row-major") then
    k*l values, one feature row per line."""
    m = as_matrix(features)
    k, l = m.shape
    np.savetxt(path, m, fmt="%.17g", header=f"{k}\n{l}\nrow-major", comments="")


def read_features(path) -> np.ndarray:
    text = _read_text(path).split()
    if len(text) < 3:
        raise DataError(f"{path}: feature file too short for its header")
    try:
        k, l = int(text[0]), int(text[1])
    except ValueError:
        raise DataError(f"{path}: header must start with integers k and l") from None
    if k < 1 or l < 1:
        raise DataError(f"{path}: header gives a {k} x {l} matrix; k and l must be >= 1")
    if text[2] != "row-major":
        raise DataError(f"{path}: unsupported layout {text[2]!r}")
    values = text[3:]
    if len(values) != k * l:
        raise DataError(f"{path}: expected {k * l} values, found {len(values)}")
    try:
        return np.array(values, dtype=np.float64).reshape(k, l)
    except ValueError:
        raise DataError(f"{path}: non-numeric value in feature data") from None


def _manifest_rows(path: Path, kind: str):
    """Yield (relative path, resolved path, label, group) per entry of a
    <file>\\t<label>\\t<group> manifest; blank and # lines are skipped and
    paths resolve relative to the manifest's directory."""
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields, "
                            f"got {len(parts)}")
        rel, label_s, group = parts
        try:
            label = int(label_s)
        except ValueError:
            raise DataError(f"{path}:{lineno}: label {label_s!r} is not an integer") from None
        fpath = path.parent / rel   # an absolute rel replaces the base
        if not fpath.exists():
            raise DataError(f"{path}:{lineno}: {kind} file {fpath} does not exist")
        yield rel, fpath, label, group


def read_manifest(path, num_classes: int | None = None) -> Dataset:
    """Line format: <feature-file>\\t<label>\\t<group>; paths resolve
    relative to the manifest's directory."""
    path = Path(path)
    examples = [SequenceExample(features=read_features(fpath), label=label,
                                group=group, source_id=rel)
                for rel, fpath, label, group in _manifest_rows(path, "feature")]
    if not examples:
        raise DataError(f"{path}: manifest lists no examples")
    for ex in examples:
        if ex.features.shape[0] != examples[0].features.shape[0]:
            raise DataError(f"{path}: {ex.source_id} has k = {ex.features.shape[0]} rows, "
                            f"but {examples[0].source_id} has {examples[0].features.shape[0]}")
    if num_classes is None:
        num_classes = max(ex.label for ex in examples) + 1
    return Dataset(examples=examples, num_classes=num_classes)


def read_audio_manifest(path) -> list[tuple[Path, int, str]]:
    """Manifest of WAV files: <wav-path>\\t<label>\\t<group> per line."""
    path = Path(path)
    entries = [(wav, label, group) for _, wav, label, group in _manifest_rows(path, "audio")]
    if not entries:
        raise DataError(f"{path}: manifest lists no files")
    return entries


def write_manifest(directory, dataset: Dataset, name: str = "manifest.tsv") -> Path:
    """Write each example as a feature file plus one manifest lining them up."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, ex in enumerate(dataset.examples):
        fname = f"ex{i:06d}.txt"
        write_features(directory / fname, ex.features)
        lines.append(f"{fname}\t{ex.label}\t{ex.group}")
    manifest = directory / name
    manifest.write_text("\n".join(lines) + "\n")
    return manifest
