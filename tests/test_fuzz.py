"""Property-based fuzzing of every parser that reads user files.

Whatever the input, a parser either returns or raises its documented
error type (``ConfigError`` for run configurations, ``DataError`` and its
subclasses for manifests, feature files, WAV and model files), and the
command line turns those into exit codes 2 and 3.  The draws are
derandomized so the suite gives the same verdict on every run.
"""
import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crnn import cli
from crnn.config import ConfigError, parse_config, parse_config_text
from crnn.data import DataError, read_features, read_manifest, read_wav, write_features
from crnn.serialize import read_tensors

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

CONFIG_KEYS = ("input_dim", "classes", "classifier", "classifier_dim", "dense_dim",
               "aggregation", "aggregation_steps", "lr", "beta1", "beta2", "epsilon",
               "batch_size", "max_epochs", "patience", "seed", "balance", "normalize",
               "layer1.kind", "layer1.features", "layer1.window", "layer1.shift",
               "layer1.pool", "layer1.pool_shift", "layer1.source", "layer1.reduction",
               "layer1.hidden_dim", "layer1.activation", "layer2.kind", "layer3.window")
VALUES = st.one_of(st.text(max_size=12), st.integers(-3, 40).map(str),
                   st.sampled_from(["nan", "inf", "-0", "1e400", "0x10", "٣", "1_0",
                                    "true", "clstm", "cblstm", "conv", "last", "hidden",
                                    "output", "lstm", "blstm", "all", "relu"]))
CONFIG_TEXT = st.one_of(
    st.text(),
    st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), VALUES), max_size=20).map(
        lambda kv: "\n".join(f"{k} = {v}" for k, v in kv)))


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def wav_bytes(fmt: bytes, data: bytes) -> bytes:
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    return b"RIFF" + struct.pack("<I", len(body)) + body


WAV = st.one_of(
    st.binary(max_size=200),
    st.builds(lambda fmt, data: wav_bytes(fmt, data),
              st.builds(lambda code, ch, rate, bits: struct.pack("<HHIIHH", code, ch, rate,
                                                                 rate * 2, 2, bits),
                        st.sampled_from([1, 3]), st.integers(0, 3),
                        st.integers(0, 70000), st.sampled_from([8, 16])),
              st.binary(max_size=2000)))


@FUZZ
@given(CONFIG_TEXT)
def test_parse_config_text_raises_only_config_error(text):
    try:
        parse_config_text(text)
    except ConfigError:
        pass


@FUZZ
@given(st.binary(max_size=300))
def test_config_file_bytes_exit_2(tmp_path, blob):
    path = tmp_path / "run.cfg"
    path.write_bytes(blob)
    try:
        parse_config(path)
    except ConfigError:
        assert run_cli(["eval", "--config", str(path), "--out", str(tmp_path)]) == 2
    else:
        # a usable config, but there is no model file to evaluate
        assert run_cli(["eval", "--config", str(path), "--out", str(tmp_path),
                        "--data", str(path)]) == 3


@FUZZ
@given(st.one_of(st.binary(max_size=300),
                 st.lists(st.text(max_size=6), min_size=1, max_size=8).map(
                     lambda parts: "\n".join(parts).encode())))
def test_read_features_raises_only_data_error(tmp_path, blob):
    path = tmp_path / "feats.txt"
    path.write_bytes(blob)
    try:
        m = read_features(path)
    except DataError:
        return
    assert m.ndim == 2


@FUZZ
@given(st.one_of(st.binary(max_size=300),
                 st.lists(st.tuples(st.sampled_from(["ok.txt", "missing.txt", ".", ""]),
                                    st.text(max_size=4), st.text(max_size=4)),
                          max_size=4).map(
                     lambda rows: "\n".join("\t".join(r) for r in rows).encode())))
def test_read_manifest_raises_only_data_error(tmp_path, blob):
    write_features(tmp_path / "ok.txt", np.zeros((2, 3)))
    path = tmp_path / "list.tsv"
    path.write_bytes(blob)
    try:
        read_manifest(path, 2)
    except DataError:
        pass


@FUZZ
@given(WAV)
def test_read_wav_raises_only_data_error(tmp_path, blob):
    path = tmp_path / "clip.wav"
    path.write_bytes(blob)
    try:
        samples, rate = read_wav(path)
    except DataError:
        return
    assert samples.ndim == 1 and rate > 0


@FUZZ
@given(WAV)
def test_extract_features_exits_0_or_3(tmp_path, blob):
    (tmp_path / "clip.wav").write_bytes(blob)
    manifest = tmp_path / "audio.tsv"
    manifest.write_text("clip.wav\t0\tspk\n")
    assert run_cli(["extract-features", "--data", str(manifest),
                    "--out", str(tmp_path / "out")]) in (0, 3)


@FUZZ
@given(st.one_of(st.binary(max_size=300),
                 st.binary(max_size=120).map(lambda b: b"CRNM" + struct.pack("<II", 2, 3) + b)))
def test_read_tensors_raises_only_data_error(tmp_path, blob):
    path = tmp_path / "model.bin"
    path.write_bytes(blob)
    try:
        read_tensors(path)
    except DataError:
        pass


def pcm_fmt(rate: int, channels: int = 1) -> bytes:
    return struct.pack("<HHIIHH", 1, channels, rate, rate * 2 * channels, 2 * channels, 16)


def test_odd_data_chunk_drops_the_trailing_byte(tmp_path):
    path = tmp_path / "odd.wav"
    path.write_bytes(wav_bytes(pcm_fmt(16000), struct.pack("<h", 16384) + b"\x01"))
    samples, rate = read_wav(path)
    np.testing.assert_array_equal(samples, [0.5])
    assert rate == 16000


def test_zero_sample_rate_is_a_data_error(tmp_path):
    path = tmp_path / "zero.wav"
    path.write_bytes(wav_bytes(pcm_fmt(0), b"\x00\x00" * 4))
    with pytest.raises(DataError, match="sample rate 0"):
        read_wav(path)


@pytest.mark.parametrize("rate", [0, 49])
def test_unusable_sample_rate_exits_3(tmp_path, rate):
    # at 49 Hz the 10 ms hop rounds to zero samples
    (tmp_path / "clip.wav").write_bytes(wav_bytes(pcm_fmt(rate), b"\x00\x00" * 64))
    manifest = tmp_path / "audio.tsv"
    manifest.write_text("clip.wav\t0\tspk\n")
    assert run_cli(["extract-features", "--data", str(manifest),
                    "--out", str(tmp_path / "out")]) == 3
