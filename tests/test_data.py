import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnn.data import (
    DataError,
    Dataset,
    MelConfig,
    SequenceExample,
    WavCodecError,
    WavMagicError,
    WavTruncatedError,
    balance_classes,
    gen_order_task,
    hz_to_mel,
    log_mel,
    mel_edge_frequencies,
    mel_filterbank,
    mel_to_hz,
    normalize_per_group,
    read_audio_manifest,
    read_features,
    read_manifest,
    read_wav,
    write_features,
    write_manifest,
    write_wav,
)
from crnn.numerics import Rng


def make_dataset(counts, k=2, l=4, seed=0):
    rng = Rng(seed)
    examples = []
    for label, n in enumerate(counts):
        for i in range(n):
            examples.append(SequenceExample(features=rng.normal(0, 1, (k, l)),
                                            label=label, group="g",
                                            source_id=f"c{label}-{i}"))
    return Dataset(examples=examples, num_classes=len(counts))


def oracle_mel_filterbank(cfg):
    """The filterbank built one filter at a time; mel_filterbank must
    match it bit for bit."""
    edges = mel_edge_frequencies(cfg)
    bins = np.arange(cfg.fft_size // 2 + 1) * (cfg.sample_rate / cfg.fft_size)
    fb = np.zeros((cfg.num_filters, bins.shape[0]))
    for j in range(cfg.num_filters):
        lo, center, hi = edges[j], edges[j + 1], edges[j + 2]
        rising = (bins - lo) / (center - lo)
        falling = (hi - bins) / (hi - center)
        fb[j] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


def oracle_log_mel(samples, cfg):
    """Log mel energies one frame at a time: one rfft and one
    matrix-vector product per frame; log_mel must match it bit for bit."""
    win, hop = cfg.window_samples, cfg.hop_samples
    frames = 1 + (samples.shape[0] - win) // hop
    hann = np.hanning(win)
    fb = oracle_mel_filterbank(cfg)
    out = np.empty((cfg.num_filters, frames))
    for i in range(frames):
        seg = samples[i * hop:i * hop + win] * hann
        power = np.abs(np.fft.rfft(seg, n=cfg.fft_size)) ** 2
        out[:, i] = np.log(np.maximum(fb @ power, cfg.log_floor))
    return out


class TestDatasetValidation:
    def test_mixed_feature_dims_rejected(self):
        exs = [SequenceExample(np.zeros((2, 3)), 0, source_id="a"),
               SequenceExample(np.zeros((3, 3)), 0, source_id="b")]
        with pytest.raises(DataError, match="mixed"):
            Dataset(examples=exs, num_classes=1)

    def test_label_beyond_classes_rejected(self):
        with pytest.raises(DataError, match="label 2"):
            Dataset(examples=[SequenceExample(np.zeros((2, 3)), 2)], num_classes=2)

    def test_empty_sequence_rejected(self):
        with pytest.raises(DataError):
            SequenceExample(np.zeros((2, 0)), 0)

    def test_negative_label_rejected(self):
        with pytest.raises(DataError):
            SequenceExample(np.zeros((2, 3)), -1)

    def test_class_counts(self):
        assert make_dataset([2, 5]).class_counts() == [2, 5]
        assert make_dataset([2, 5]).feature_dim == 2


class TestBalanceClasses:
    def test_already_balanced_unchanged(self):
        d = make_dataset([5, 5])
        out = balance_classes(d, Rng(0))
        assert len(out.examples) == 10
        assert out.class_counts() == [5, 5]

    def test_three_of_five_duplicates_distinct_originals(self):
        d = make_dataset([3, 5])
        out = balance_classes(d, Rng(1))
        assert out.class_counts() == [5, 5]
        copies = Counter(ex.source_id for ex in out.examples if ex.label == 0)
        # 2 extra copies drawn without replacement: no original reaches 3
        assert sorted(copies.values()) == [1, 2, 2]

    def test_two_of_five_round_rule(self):
        d = make_dataset([2, 5])
        out = balance_classes(d, Rng(2))
        copies = Counter(ex.source_id for ex in out.examples if ex.label == 0)
        # round 1 duplicates both originals, round 2 one of them again
        assert sorted(copies.values()) == [2, 3]

    def test_empty_class_rejected(self):
        d = Dataset(examples=[SequenceExample(np.zeros((2, 3)), 1)], num_classes=2)
        with pytest.raises(DataError, match="class 0"):
            balance_classes(d, Rng(0))

    def test_originals_preserved_in_order(self):
        d = make_dataset([2, 4])
        out = balance_classes(d, Rng(3))
        assert out.examples[:len(d.examples)] == d.examples

    def test_duplicates_copy_features(self):
        d = make_dataset([1, 3])
        out = balance_classes(d, Rng(4))
        dup = out.examples[-1]
        assert dup.source_id == d.examples[0].source_id
        np.testing.assert_array_equal(dup.features, d.examples[0].features)
        assert dup.features is not d.examples[0].features

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=2, max_size=4), st.integers(0, 100))
    def test_round_rule_properties(self, counts, seed):
        d = make_dataset(counts, seed=seed)
        out = balance_classes(d, Rng(seed))
        target = max(counts)
        assert out.class_counts() == [target] * len(counts)
        for label in range(len(counts)):
            copies = Counter(ex.source_id for ex in out.examples
                             if ex.label == label)
            assert len(copies) == counts[label]  # every original still there
            assert max(copies.values()) - min(copies.values()) <= 1


class TestNormalizePerGroup:
    def test_mean_zero_std_one(self):
        rng = Rng(5)
        examples = [SequenceExample(rng.normal(3.0, 2.0, (2, 10)), 0, group="spk1")
                    for _ in range(4)]
        out, stats = normalize_per_group(Dataset(examples=examples, num_classes=1))
        frames = np.concatenate([ex.features for ex in out.examples], axis=1)
        np.testing.assert_allclose(frames.mean(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(frames.std(axis=1), 1.0, atol=1e-10)
        assert set(stats) == {"spk1"}

    def test_constant_row_becomes_zero(self):
        feats = np.vstack([np.full(6, 7.0), np.arange(6.0)])
        d = Dataset(examples=[SequenceExample(feats, 0, group="g")], num_classes=1)
        out, _ = normalize_per_group(d)
        np.testing.assert_array_equal(out.examples[0].features[0], np.zeros(6))
        assert out.examples[0].features[1].std() == pytest.approx(1.0)

    def test_groups_normalized_independently(self):
        a = SequenceExample(np.full((1, 4), 10.0) + np.arange(4.0), 0, group="a")
        b = SequenceExample(np.full((1, 4), -50.0) + np.arange(4.0), 0, group="b")
        out, stats = normalize_per_group(Dataset(examples=[a, b], num_classes=1))
        np.testing.assert_allclose(out.examples[0].features,
                                   out.examples[1].features, atol=1e-12)
        assert stats["a"][0][0] == pytest.approx(11.5)
        assert stats["b"][0][0] == pytest.approx(-48.5)

    def test_idempotent(self):
        d = make_dataset([3, 3], k=3, l=8, seed=6)
        once, _ = normalize_per_group(d)
        twice, _ = normalize_per_group(once)
        for e1, e2 in zip(once.examples, twice.examples):
            np.testing.assert_allclose(e1.features, e2.features, atol=1e-10)

    def test_input_not_mutated(self):
        d = make_dataset([2, 2], seed=7)
        before = [ex.features.copy() for ex in d.examples]
        normalize_per_group(d)
        for ex, b in zip(d.examples, before):
            np.testing.assert_array_equal(ex.features, b)


class TestGenOrderTask:
    def test_count_and_labels(self):
        d = gen_order_task(200, k=4, l=25, rng=Rng(0))
        assert len(d.examples) == 200
        assert d.class_counts() == [100, 100]
        assert [ex.label for ex in d.examples[:4]] == [0, 1, 0, 1]

    def test_shapes_and_truncation(self):
        d = gen_order_task(4, k=3, l=7, rng=Rng(1))
        assert all(ex.features.shape == (3, 7) for ex in d.examples)

    def test_rejects_short_sequences(self):
        with pytest.raises(ValueError):
            gen_order_task(4, k=2, l=4, rng=Rng(0))

    def test_paired_ramps_share_value_multisets(self):
        # pair members differ only by per-ramp ordering plus noise, so the
        # sorted frames of each ramp agree to noise scale
        d = gen_order_task(20, k=2, l=25, rng=Rng(2))
        for i in range(0, 20, 2):
            asc = d.examples[i].features
            desc = d.examples[i + 1].features
            for r in range(5):
                block_a = np.sort(asc[:, 5 * r:5 * r + 5], axis=1)
                block_d = np.sort(desc[:, 5 * r:5 * r + 5], axis=1)
                assert np.max(np.abs(block_a - block_d)) < 0.5

    def test_order_insensitive_statistics_carry_no_signal(self):
        d = gen_order_task(400, k=1, l=25, rng=Rng(3))
        sums = {0: [], 1: []}
        maxes = {0: [], 1: []}
        firsts = {0: [], 1: []}
        for ex in d.examples:
            f = ex.features[0]
            for r in range(5):
                block = f[5 * r:5 * r + 5]
                sums[ex.label].append(block.sum())
                maxes[ex.label].append(block.max())
            firsts[ex.label].append(f[0])
        # per-window sum and max distributions match across classes
        assert abs(np.mean(sums[0]) - np.mean(sums[1])) < 0.05
        assert abs(np.mean(maxes[0]) - np.mean(maxes[1])) < 0.02
        # but the first frame alone separates the classes cleanly
        assert np.mean(firsts[1]) - np.mean(firsts[0]) > 0.5

    def test_ascending_versus_descending_within_ramps(self):
        d = gen_order_task(40, k=1, l=25, rng=Rng(4))
        # noise sigma 0.05 vs mean neighbor gap ~1/6: the median slope sign
        # still tracks the class
        for ex in d.examples[:10]:
            diffs = np.diff(ex.features[0][:5])
            if ex.label == 0:
                assert np.median(diffs) > 0
            else:
                assert np.median(diffs) < 0

    def test_deterministic(self):
        a = gen_order_task(10, k=2, l=10, rng=Rng(5))
        b = gen_order_task(10, k=2, l=10, rng=Rng(5))
        for e1, e2 in zip(a.examples, b.examples):
            assert e1.features.tobytes() == e2.features.tobytes()


class TestWav:
    def test_round_trip(self, tmp_path):
        rng = Rng(6)
        samples = np.clip(rng.normal(0, 0.2, 400), -1, 1)
        path = tmp_path / "t.wav"
        write_wav(path, samples, 16000)
        got, rate = read_wav(path)
        assert rate == 16000
        np.testing.assert_allclose(got, samples, atol=1.0 / 32768)

    def test_scaling_rule(self, tmp_path):
        path = tmp_path / "t.wav"
        write_wav(path, np.array([0.0, 32767.0 / 32768.0, -1.0]), 8000)
        got, _ = read_wav(path)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(32767.0 / 32768.0)
        assert got[2] == -1.0

    def test_rifx_rejected(self, tmp_path):
        path = tmp_path / "t.wav"
        write_wav(path, np.zeros(10), 8000)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"RIFX"
        path.write_bytes(bytes(blob))
        with pytest.raises(WavMagicError):
            read_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "t.wav"
        write_wav(path, np.zeros(10), 8000)
        blob = bytearray(path.read_bytes())
        # format code lives at offset 20 in the canonical layout
        struct.pack_into("<H", blob, 20, 3)
        path.write_bytes(bytes(blob))
        with pytest.raises(WavCodecError, match="format code 3"):
            read_wav(path)

    def test_wrong_bit_depth_rejected(self, tmp_path):
        path = tmp_path / "t.wav"
        write_wav(path, np.zeros(10), 8000)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 34, 24)
        path.write_bytes(bytes(blob))
        with pytest.raises(WavCodecError, match="24-bit"):
            read_wav(path)

    def test_truncated_data_rejected(self, tmp_path):
        path = tmp_path / "t.wav"
        write_wav(path, np.zeros(100), 8000)
        blob = path.read_bytes()
        path.write_bytes(blob[:-60])
        with pytest.raises(WavTruncatedError):
            read_wav(path)

    def test_stereo_averaged(self, tmp_path):
        left = np.array([8192, -8192, 16384], dtype="<i2")
        right = np.array([0, 0, 0], dtype="<i2")
        inter = np.empty(6, dtype="<i2")
        inter[0::2] = left
        inter[1::2] = right
        data = inter.tobytes()
        body = (b"WAVE"
                + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 8000, 32000, 4, 16)
                + b"data" + struct.pack("<I", len(data)) + data)
        path = tmp_path / "st.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        got, _ = read_wav(path)
        np.testing.assert_allclose(got, np.array([4096, -4096, 8192]) / 32768.0)

    def test_missing_data_chunk(self, tmp_path):
        body = b"WAVE" + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
        path = tmp_path / "nd.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(DataError, match="data chunk"):
            read_wav(path)


class TestMel:
    def test_frame_count_formula(self):
        cfg = MelConfig(sample_rate=16000)
        assert cfg.window_samples == 400 and cfg.hop_samples == 160
        assert cfg.fft_size == 512
        out = log_mel(np.zeros(16000), cfg)
        assert out.shape == (26, 1 + (16000 - 400) // 160)
        assert out.shape[1] == 98

    def test_silence_hits_log_floor(self):
        cfg = MelConfig(sample_rate=16000)
        out = log_mel(np.zeros(1600), cfg)
        np.testing.assert_allclose(out, np.log(1e-10))

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            log_mel(np.zeros(399), MelConfig(sample_rate=16000))

    def test_hop_translation_covariance(self):
        rng = Rng(7)
        samples = rng.normal(0, 0.1, 4000)
        cfg = MelConfig(sample_rate=16000)
        a = log_mel(samples, cfg)
        b = log_mel(samples[cfg.hop_samples:], cfg)
        np.testing.assert_allclose(a[:, 1:b.shape[1] + 1], b, atol=1e-9)

    def test_mel_scale_round_trip(self):
        f = np.array([0.0, 440.0, 1000.0, 7999.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, atol=1e-9)
        assert hz_to_mel(1000.0) == pytest.approx(2595.0 * np.log10(1 + 1000 / 700))

    def test_edges_span_zero_to_nyquist(self):
        cfg = MelConfig(sample_rate=16000)
        edges = mel_edge_frequencies(cfg)
        assert edges.shape == (28,)
        assert edges[0] == pytest.approx(0.0, abs=1e-9)
        assert edges[-1] == pytest.approx(8000.0)
        assert np.all(np.diff(edges) > 0)

    def test_filters_have_unit_peak_shape(self):
        cfg = MelConfig(sample_rate=16000)
        fb = mel_filterbank(cfg)
        assert fb.shape == (26, 257)
        assert np.all(fb >= 0.0) and np.all(fb <= 1.0)
        edges = mel_edge_frequencies(cfg)
        bins = np.arange(257) * (16000 / 512)
        for j in range(26):
            # response is zero outside the filter's support
            outside = (bins <= edges[j]) | (bins >= edges[j + 2])
            assert np.all(fb[j][outside] == 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MelConfig(sample_rate=16000, window_ms=10.0, hop_ms=25.0)
        with pytest.raises(ValueError):
            MelConfig(sample_rate=0)


RATES = [8000, 16000, 22050, 44100]


class TestMelOracle:
    @pytest.mark.parametrize("rate", RATES)
    def test_fft_size_is_next_power_of_two(self, rate):
        for window_ms in (0.5, 1.0, 12.5, 25.0, 64.0):
            cfg = MelConfig(sample_rate=rate, window_ms=window_ms, hop_ms=0.25)
            n = cfg.fft_size
            assert n & (n - 1) == 0 and n // 2 < cfg.window_samples <= n

    @pytest.mark.parametrize("rate", RATES)
    def test_filterbank_matches_oracle(self, rate):
        cfg = MelConfig(sample_rate=rate)
        np.testing.assert_array_equal(mel_filterbank(cfg), oracle_mel_filterbank(cfg))

    @pytest.mark.parametrize("rate", RATES)
    def test_log_mel_matches_oracle(self, rate):
        cfg = MelConfig(sample_rate=rate)
        win, hop = cfg.window_samples, cfg.hop_samples
        rng = Rng(rate)
        for n in (win, win + 1, win + hop - 1, win + hop, win + 7 * hop + 3, 3 * rate + 11):
            x = rng.normal(0.0, 0.1, n)
            got = log_mel(x, cfg)
            np.testing.assert_array_equal(got, oracle_log_mel(x, cfg))
            assert got.flags.c_contiguous


class TestFeatureFiles:
    def test_round_trip_exact(self, tmp_path):
        m = Rng(8).normal(0, 1, (3, 5))
        path = tmp_path / "f.txt"
        write_features(path, m)
        got = read_features(path)
        np.testing.assert_array_equal(got, m)   # %.17g round-trips float64

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "f.txt"
        write_features(path, np.array([[-0.0, 0.1, 1.0], [1e-300, -2.5, 1 / 3]]))
        assert path.read_bytes() == (b"2\n3\nrow-major\n-0 0.10000000000000001 1\n"
                                     b"1e-300 -2.5 0.33333333333333331\n")

    def test_header_shape(self, tmp_path):
        path = tmp_path / "f.txt"
        write_features(path, np.zeros((2, 3)))
        lines = path.read_text().splitlines()
        assert lines[0] == "2" and lines[1] == "3" and lines[2] == "row-major"

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("2\n3\nrow-major\n1 2 3\n")
        with pytest.raises(DataError, match="expected 6 values"):
            read_features(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("x\n3\nrow-major\n")
        with pytest.raises(DataError, match="header"):
            read_features(path)

    @pytest.mark.parametrize("text", ["-2\n-2\nrow-major\n1 2\n3 4\n", "0\n5\nrow-major\n"])
    def test_header_shape_must_be_positive(self, tmp_path, text):
        path = tmp_path / "f.txt"
        path.write_text(text)
        with pytest.raises(DataError, match="header gives a"):
            read_features(path)

    def test_bad_layout(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1\n1\ncolumn-major\n1\n")
        with pytest.raises(DataError, match="column-major"):
            read_features(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1\n2\nrow-major\n1 abc\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_features(path)


class TestManifest:
    def test_round_trip(self, tmp_path):
        d = make_dataset([2, 3], seed=9)
        manifest = write_manifest(tmp_path, d)
        got = read_manifest(manifest)
        assert got.num_classes == 2
        assert got.class_counts() == [2, 3]
        for a, b in zip(got.examples, d.examples):
            np.testing.assert_array_equal(a.features, b.features)
            assert a.label == b.label and a.group == b.group

    def test_explicit_class_count(self, tmp_path):
        d = make_dataset([2], seed=9)
        manifest = write_manifest(tmp_path, d)
        assert read_manifest(manifest, num_classes=4).num_classes == 4

    def test_missing_feature_file(self, tmp_path):
        (tmp_path / "m.tsv").write_text("gone.txt\t0\tg\n")
        with pytest.raises(DataError, match="does not exist"):
            read_manifest(tmp_path / "m.tsv")

    def test_bad_field_count_names_line(self, tmp_path):
        (tmp_path / "m.tsv").write_text("a.txt\t0\n")
        with pytest.raises(DataError, match=r"m\.tsv:1"):
            read_manifest(tmp_path / "m.tsv")

    def test_non_integer_label(self, tmp_path):
        write_features(tmp_path / "a.txt", np.zeros((1, 1)))
        (tmp_path / "m.tsv").write_text("a.txt\tzero\tg\n")
        with pytest.raises(DataError, match="zero"):
            read_manifest(tmp_path / "m.tsv")

    def test_comments_and_blanks_skipped(self, tmp_path):
        write_features(tmp_path / "a.txt", np.ones((1, 2)))
        (tmp_path / "m.tsv").write_text("# header\n\na.txt\t0\tg\n")
        assert len(read_manifest(tmp_path / "m.tsv").examples) == 1

    def test_empty_manifest_rejected(self, tmp_path):
        (tmp_path / "m.tsv").write_text("# nothing\n")
        with pytest.raises(DataError, match="no examples"):
            read_manifest(tmp_path / "m.tsv")

    def test_mixed_feature_dims_name_the_file(self, tmp_path):
        write_features(tmp_path / "a.txt", np.zeros((2, 3)))
        write_features(tmp_path / "b.txt", np.zeros((2, 4)))
        write_features(tmp_path / "c.txt", np.zeros((3, 3)))
        (tmp_path / "m.tsv").write_text("a.txt\t0\tg\nb.txt\t0\tg\nc.txt\t1\tg\n")
        with pytest.raises(DataError, match=r"m\.tsv: c\.txt has k = 3 rows, but a\.txt has 2"):
            read_manifest(tmp_path / "m.tsv")


class TestAudioManifest:
    def test_resolves_relative_and_absolute_paths(self, tmp_path):
        write_wav(tmp_path / "a.wav", np.zeros(16), 16000)
        write_wav(tmp_path / "b.wav", np.zeros(16), 16000)
        (tmp_path / "m.tsv").write_text(f"# clips\na.wav\t1\tspk0\n\n"
                                        f"{tmp_path / 'b.wav'}\t0\tspk1\n")
        assert read_audio_manifest(tmp_path / "m.tsv") == [
            (tmp_path / "a.wav", 1, "spk0"), (tmp_path / "b.wav", 0, "spk1")]

    def test_bad_field_count_names_line(self, tmp_path):
        (tmp_path / "m.tsv").write_text("# header\na.wav\t0\n")
        with pytest.raises(DataError, match=r"m\.tsv:2: expected 3 tab-separated fields, got 2"):
            read_audio_manifest(tmp_path / "m.tsv")

    def test_non_integer_label(self, tmp_path):
        write_wav(tmp_path / "a.wav", np.zeros(16), 16000)
        (tmp_path / "m.tsv").write_text("a.wav\tzero\tg\n")
        with pytest.raises(DataError, match="label 'zero' is not an integer"):
            read_audio_manifest(tmp_path / "m.tsv")

    def test_missing_wav(self, tmp_path):
        (tmp_path / "m.tsv").write_text("gone.wav\t0\tg\n")
        with pytest.raises(DataError, match="audio file .*gone.wav does not exist"):
            read_audio_manifest(tmp_path / "m.tsv")

    def test_empty_manifest_rejected(self, tmp_path):
        (tmp_path / "m.tsv").write_text("# nothing\n")
        with pytest.raises(DataError, match="manifest lists no files"):
            read_audio_manifest(tmp_path / "m.tsv")
