import numpy as np
import pytest

from crnn.config import parse_config_text
from crnn.model import init_model
from crnn import serialize
from crnn.numerics import Rng, named_arrays
from crnn.serialize import (
    ModelFileError,
    load_model,
    read_tensors,
    save_model,
    sidecar_path,
    write_atomic,
    write_tensors,
)

CFG = """
input_dim = 3
classes = 2
layer1.kind = clstm
layer1.features = 3
layer1.window = 3
layer1.shift = 2
layer1.source = cell
layer1.reduction = last
classifier_dim = 4
dense_dim = 4
"""


def example_model():
    run = parse_config_text(CFG)
    params = init_model(run.model, Rng(42))
    return run, params


class TestTensorFile:
    def test_round_trip_exact(self, tmp_path):
        rng = Rng(0)
        named = [("a.W", rng.normal(0, 1, (3, 4))),
                 ("b", rng.normal(0, 1, (2,))),
                 ("c.deep.T", rng.normal(0, 1, (2, 3, 4)))]
        path = tmp_path / "t.bin"
        write_tensors(path, named)
        got = read_tensors(path)
        assert set(got) == {"a.W", "b", "c.deep.T"}
        for name, arr in named:
            np.testing.assert_array_equal(got[name], arr)

    def test_writer_is_deterministic(self, tmp_path):
        _, params = example_model()
        write_tensors(tmp_path / "a.bin", named_arrays(params))
        write_tensors(tmp_path / "b.bin", named_arrays(params))
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ModelFileError, match="magic"):
            read_tensors(path)

    def test_unsupported_version(self, tmp_path):
        # version 1 files hold one tensor per LSTM gate, which no longer loads
        path = tmp_path / "t.bin"
        write_tensors(path, [("x", np.zeros(2))])
        blob = bytearray(path.read_bytes())
        for version in (1, 9):
            blob[4] = version
            path.write_bytes(bytes(blob))
            with pytest.raises(ModelFileError, match=f"unsupported model file version {version}"):
                read_tensors(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensors(path, [("x", np.arange(6.0))])
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ModelFileError, match="truncated"):
            read_tensors(path)

    def test_trailing_bytes_detected(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensors(path, [("x", np.arange(6.0))])
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ModelFileError, match="trailing"):
            read_tensors(path)


class TestModelRoundTrip:
    def test_save_load_exact(self, tmp_path):
        run, params = example_model()
        path = tmp_path / "model.bin"
        save_model(path, run, params)
        run2, params2 = load_model(path)
        assert run2 == run
        for (n1, a), (n2, b) in zip(named_arrays(params), named_arrays(params2)):
            assert n1 == n2
            np.testing.assert_array_equal(a, b)

    def test_sidecar_written(self, tmp_path):
        run, params = example_model()
        path = tmp_path / "model.bin"
        save_model(path, run, params)
        side = sidecar_path(path)
        assert side.exists()
        assert parse_config_text(side.read_text()) == run

    def test_missing_sidecar(self, tmp_path):
        run, params = example_model()
        path = tmp_path / "model.bin"
        save_model(path, run, params)
        sidecar_path(path).unlink()
        with pytest.raises(ModelFileError, match="sidecar"):
            load_model(path)

    def test_shape_mismatch_detected(self, tmp_path):
        run, params = example_model()
        path = tmp_path / "model.bin"
        named = named_arrays(params)
        name0 = named[0][0]
        bad = [(n, (a[:, :-1] if n == name0 else a)) for n, a in named]
        write_tensors(path, bad)
        sidecar_path(path).write_text(
            __import__("crnn.config", fromlist=["render_config"]).render_config(run))
        with pytest.raises(ModelFileError, match="shape"):
            load_model(path)

    def test_name_mismatch_detected(self, tmp_path):
        run, params = example_model()
        path = tmp_path / "model.bin"
        named = named_arrays(params)
        renamed = [("zz." + n, a) for n, a in named[:1]] + named[1:]
        write_tensors(path, renamed)
        from crnn.config import render_config
        sidecar_path(path).write_text(render_config(run))
        with pytest.raises(ModelFileError, match="names"):
            load_model(path)

    def test_save_is_byte_deterministic(self, tmp_path):
        run, params = example_model()
        save_model(tmp_path / "a.bin", run, params)
        save_model(tmp_path / "b.bin", run, params)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert sidecar_path(tmp_path / "a.bin").read_text() == \
            sidecar_path(tmp_path / "b.bin").read_text()


class TestAtomicWrites:
    def test_failed_replace_keeps_old_files(self, tmp_path, monkeypatch):
        run, params = example_model()
        path = tmp_path / "model.bin"
        save_model(path, run, params)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        other = init_model(run.model, Rng(7))

        def failing_replace(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(serialize.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk went away"):
            save_model(path, run, other)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_write_atomic_replaces_whole_file(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_bytes(b"old contents, longer than the new ones\n")
        write_atomic(path, b"new\n")
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.jsonl"]
