"""End-to-end checks of the command line entry point.

Everything runs in-process through cli.main(argv) so exit codes and the
exact bytes of the artifacts can be asserted without spawning a shell.
"""
import json
import struct

import numpy as np
import pytest

from crnn import cli
from crnn.data import read_features, write_features, write_wav
from crnn.numerics import Rng
from crnn.serialize import read_tensors, write_tensors


def write_split(root, name, count, seed, k=2, l=6):
    """Feature files plus a manifest for a linearly separable 2-class task."""
    rng = Rng(seed)
    lines = []
    for i in range(count):
        label = i % 2
        center = 1.0 if label == 0 else -1.0
        x = rng.normal(center, 0.1, (k, l))
        fname = f"{name}{i:04d}.txt"
        write_features(root / fname, x)
        lines.append(f"{fname}\t{label}\tg0")
    path = root / f"{name}.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path


def write_run_config(root, train_tsv, val_tsv, **overrides):
    keys = {
        "input_dim": 2,
        "classes": 2,
        "layer1.kind": "clstm",
        "layer1.features": 3,
        "layer1.window": 3,
        "layer1.shift": 1,
        "layer1.source": "cell",
        "layer1.reduction": "max",
        "classifier_dim": 3,
        "dense_dim": 4,
        "aggregation": "all",
        "batch_size": 8,
        "max_epochs": 3,
        "seed": 5,
        "train_manifest": str(train_tsv),
        "val_manifest": str(val_tsv),
        "test_manifest": str(val_tsv),
        "out_dir": str(root / "out"),
    }
    keys.update(overrides)
    path = root / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


@pytest.fixture()
def trained(tmp_path):
    train_tsv = write_split(tmp_path, "train", 16, seed=1)
    val_tsv = write_split(tmp_path, "val", 8, seed=2)
    cfg = write_run_config(tmp_path, train_tsv, val_tsv)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return tmp_path, cfg


class TestTrain:
    def test_writes_artifacts(self, trained):
        tmp_path, _ = trained
        out = tmp_path / "out"
        assert (out / "model.bin").exists()
        assert (out / "model.bin.cfg").exists()
        records = [json.loads(line)
                   for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in records] == list(range(1, len(records) + 1))
        for r in records:
            assert set(r) == {"epoch", "train_loss", "val_ua_recall"}
            assert np.isfinite(r["train_loss"])

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        train_tsv = write_split(tmp_path, "train", 16, seed=1)
        val_tsv = write_split(tmp_path, "val", 8, seed=2)
        cfg = write_run_config(tmp_path, train_tsv, val_tsv)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.main(["train", "--config", str(cfg),
                             "--out", str(out)]) == 0
            outs.append(out)
        a, b = outs
        assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()
        assert (a / "model.bin").read_bytes() == (b / "model.bin").read_bytes()

    def test_seed_flag_changes_the_run(self, tmp_path):
        train_tsv = write_split(tmp_path, "train", 16, seed=1)
        val_tsv = write_split(tmp_path, "val", 8, seed=2)
        cfg = write_run_config(tmp_path, train_tsv, val_tsv)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["train", "--config", str(cfg), "--out", str(b),
                         "--seed", "77"]) == 0
        assert (a / "model.bin").read_bytes() != (b / "model.bin").read_bytes()

    def test_missing_config_is_config_error(self, capsys):
        assert cli.main(["train"]) == 2
        assert "error: config:" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("input_dim = 2\nclasses = 2\npatienc = 12\n")
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "patienc" in capsys.readouterr().err

    def test_missing_manifest_file_is_data_error(self, tmp_path, capsys):
        val_tsv = write_split(tmp_path, "val", 4, seed=2)
        cfg = write_run_config(tmp_path, tmp_path / "nope.tsv", val_tsv)
        assert cli.main(["train", "--config", str(cfg)]) == 3
        assert "error: data:" in capsys.readouterr().err

    def test_feature_dim_mismatch_is_data_error(self, tmp_path, capsys):
        train_tsv = write_split(tmp_path, "train", 4, seed=1, k=3)
        val_tsv = write_split(tmp_path, "val", 4, seed=2, k=3)
        cfg = write_run_config(tmp_path, train_tsv, val_tsv)
        assert cli.main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"error: data: {train_tsv}: feature files have k = 3 rows" in err
        assert "input_dim is 2" in err

    def test_non_finite_gradient_is_numeric_error(self, tmp_path, capsys):
        train_tsv = write_split(tmp_path, "train", 16, seed=1)
        val_tsv = write_split(tmp_path, "val", 8, seed=2)
        bad = read_features(tmp_path / "train0003.txt")
        bad[0, 4] = np.nan
        write_features(tmp_path / "train0003.txt", bad)
        cfg = write_run_config(tmp_path, train_tsv, val_tsv)
        assert cli.main(["train", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "error: numeric: non-finite gradient in layers.0.lstm.W_x at epoch 1" in err
        assert not (tmp_path / "out" / "model.bin").exists()

    def test_negative_seed_in_config_is_config_error(self, tmp_path, capsys):
        split = write_split(tmp_path, "train", 4, seed=1)
        cfg = write_run_config(tmp_path, split, split, seed=-1)
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: config: {cfg}: seed must be >= 0, got -1\n"

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        split = write_split(tmp_path, "train", 4, seed=1)
        cfg = write_run_config(tmp_path, split, split)
        assert cli.main(["train", "--config", str(cfg), "--seed", "-5"]) == 2
        assert capsys.readouterr().err == "error: config: --seed must be >= 0, got -5\n"


class TestEval:
    def test_reports_recalls(self, trained, capsys):
        tmp_path, cfg = trained
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "ua_recall" in out
        assert "class 0 recall" in out and "class 1 recall" in out

    def test_class_count_mismatch(self, trained, capsys):
        tmp_path, _ = trained
        val_tsv = tmp_path / "val.tsv"
        cfg = write_run_config(tmp_path, tmp_path / "train.tsv", val_tsv,
                               classes=3)
        assert cli.main(["eval", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "2" in err and "3" in err

    def test_feature_dim_mismatch_is_data_error(self, trained, capsys):
        tmp_path, cfg = trained
        test_tsv = write_split(tmp_path, "test", 4, seed=3, k=3)
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(cfg), "--data", str(test_tsv)]) == 3
        err = capsys.readouterr().err
        assert f"error: data: {test_tsv}: feature files have k = 3 rows" in err
        assert "input_dim is 2" in err

    def test_short_clip_names_manifest_and_file(self, trained, capsys):
        tmp_path, cfg = trained
        test_tsv = write_split(tmp_path, "test", 4, seed=3)
        write_features(tmp_path / "test0002.txt", np.zeros((2, 2)))
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(cfg), "--data", str(test_tsv)]) == 3
        err = capsys.readouterr().err
        assert f"error: data: {test_tsv} example 2 ('test0002.txt') has 2 frames" in err

    @pytest.mark.parametrize("damage, reason", [("binary", "is not text"),
                                                ("directory", "cannot read")])
    def test_unreadable_sidecar_is_data_error(self, trained, capsys, damage, reason):
        tmp_path, cfg = trained
        side = tmp_path / "out" / "model.bin.cfg"
        side.unlink()
        if damage == "binary":
            side.write_bytes(b"\xff\xfe")
        else:
            side.mkdir()
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and "model.bin.cfg" in err and reason in err

    @pytest.mark.parametrize("name, shape, reason", [
        (b"\xff", (1,), "tensor name is not UTF-8"),
        # (2**32 - 1)**2 entries wrap to 0 in an int64 product
        (b"x", (2**32 - 1, 2**32 - 1), "truncated model file")],
        ids=["non-utf8-name", "int64-wrapping-dims"])
    def test_damaged_model_file_is_data_error(self, trained, capsys, name, shape, reason):
        tmp_path, cfg = trained
        model = tmp_path / "out" / "model.bin"
        model.write_bytes(b"CRNM" + struct.pack("<IIH", 2, 1, len(name)) + name
                          + struct.pack(f"<B{len(shape)}I", len(shape), *shape))
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == f"error: data: {model}: {reason}\n"

    def test_repeated_tensor_name_is_data_error(self, trained, capsys):
        tmp_path, cfg = trained
        model = tmp_path / "out" / "model.bin"
        named = list(read_tensors(model).items())
        name, arr = named[0]
        write_tensors(model, [(name, np.zeros_like(arr))] + named)
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == f"error: data: {model}: tensor {name} is listed twice\n"

    def test_non_finite_probabilities_are_numeric_error(self, trained, capsys):
        tmp_path, cfg = trained
        test_tsv = write_split(tmp_path, "test", 4, seed=3)
        bad = read_features(tmp_path / "test0002.txt")
        bad[1, 3] = np.nan
        write_features(tmp_path / "test0002.txt", bad)
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(cfg), "--data", str(test_tsv)]) == 4
        out, err = capsys.readouterr()
        assert "ua_recall" not in out
        assert err == ("error: numeric: non-finite class probabilities for example 2 "
                       "('test0002.txt')\n")

    def test_non_finite_feature_under_normalize_names_its_clip(self, trained, capsys):
        # pooling a group's statistics would turn all four clips into NaN
        tmp_path, cfg = trained
        test_tsv = write_split(tmp_path, "test", 4, seed=3)
        bad = read_features(tmp_path / "test0002.txt")
        bad[1, 3] = np.nan
        write_features(tmp_path / "test0002.txt", bad)
        cfg = write_run_config(tmp_path, test_tsv, test_tsv, normalize="true")
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(cfg), "--data", str(test_tsv)]) == 4
        out, err = capsys.readouterr()
        assert "ua_recall" not in out
        assert err == (f"error: numeric: {test_tsv} example 2 ('test0002.txt') "
                       f"holds a non-finite feature value\n")

    def test_non_finite_model_tensor_is_data_error(self, trained, capsys):
        tmp_path, cfg = trained
        model = tmp_path / "out" / "model.bin"
        named = list(read_tensors(model).items())
        name, arr = named[0]
        arr.flat[0] = np.nan
        write_tensors(model, named)
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == (f"error: data: {model}: tensor {name} "
                                           f"holds a non-finite value\n")

    def test_missing_model_file_is_data_error(self, tmp_path, capsys):
        val_tsv = write_split(tmp_path, "val", 4, seed=2)
        cfg = write_run_config(tmp_path, val_tsv, val_tsv)
        assert cli.main(["eval", "--config", str(cfg)]) == 3
        assert "error: data:" in capsys.readouterr().err


class TestGradcheck:
    def test_builtin_toy_model_passes(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "param " in out
        last = [l for l in out.splitlines() if l.startswith("max_rel_err")][0]
        assert float(last.split()[1]) < 1e-5

    def test_negative_seed_is_config_error(self, capsys):
        assert cli.main(["gradcheck", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: config: --seed must be >= 0, got -1\n"


class TestExtractFeatures:
    def test_wav_to_feature_files(self, tmp_path, capsys):
        rate = 16000
        t = np.arange(4000) / rate
        for i, freq in enumerate((440.0, 1000.0)):
            write_wav(tmp_path / f"s{i}.wav", 0.5 * np.sin(2 * np.pi * freq * t),
                      rate)
        manifest = tmp_path / "audio.tsv"
        manifest.write_text(f"s0.wav\t0\tspk0\ns1.wav\t1\tspk1\n")
        out = tmp_path / "feats"
        assert cli.main(["extract-features", "--data", str(manifest),
                         "--out", str(out)]) == 0
        feats = read_features(out / "mel000000.txt")
        # 4000 samples, 25 ms window, 10 ms hop: 1 + (4000-400)//160 frames
        assert feats.shape == (26, 23)
        body = (out / "manifest.tsv").read_text().splitlines()
        assert body == ["mel000000.txt\t0\tspk0", "mel000001.txt\t1\tspk1"]

    def test_requires_data(self, capsys):
        assert cli.main(["extract-features", "--out", "x"]) == 2
        assert "error: config:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["s.wav\t0\n", "s.wav\tzero\tg\n", "gone.wav\t0\tg\n",
                                      "# no clips\n"])
    def test_bad_manifest_is_data_error(self, tmp_path, capsys, line):
        write_wav(tmp_path / "s.wav", np.zeros(4000), 16000)
        manifest = tmp_path / "audio.tsv"
        manifest.write_text(line)
        assert cli.main(["extract-features", "--data", str(manifest),
                         "--out", str(tmp_path / "o")]) == 3
        assert "error: data:" in capsys.readouterr().err

    def test_too_short_wav_names_manifest_and_wav(self, tmp_path, capsys):
        write_wav(tmp_path / "short.wav", np.zeros(100), 16000)
        manifest = tmp_path / "audio.tsv"
        manifest.write_text("short.wav\t0\tg\n")
        assert cli.main(["extract-features", "--data", str(manifest),
                         "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {manifest}: {tmp_path / 'short.wav'}: "
                              f"100 samples is shorter than one 400-sample window")

    def test_bad_wav_is_data_error(self, tmp_path, capsys):
        (tmp_path / "junk.wav").write_bytes(b"not really a wav file at all")
        manifest = tmp_path / "audio.tsv"
        manifest.write_text("junk.wav\t0\tg\n")
        assert cli.main(["extract-features", "--data", str(manifest),
                         "--out", str(tmp_path / "o")]) == 3
        assert "error: data:" in capsys.readouterr().err
