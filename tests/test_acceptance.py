"""Acceptance suite: one test per release criterion, each printing a
single PASS line with the measured figure when it holds.

Criteria, in test order:
 1  every extractor kind x (source, reduction) combination and both full
    model presets (at toy dims) pass finite-difference gradient checks
    below 1e-5 on at least three seeds, in under two minutes
 2  parameter-count behavior as window width grows
 3  the synthetic ordering task trains to at least 95% UA recall
 4  window framing matches brute-force enumeration for all sizes in [1, 20]
 5  a bidirectional cell with swapped directions reverses its output exactly
 6  a single whole-sequence window reduces to the plain recurrence exactly
 7  Adam steps match the hand-iterated recurrence to 1e-12
 8  log-mel features: frame count, silence floor, tone-to-filter mapping
 9  two identically seeded training runs produce byte-identical artifacts
10  unweighted-average recall fixtures
"""
import json
import math
import time

import numpy as np
import pytest

from fdtools import TOL, model_ce_check, probe_layer_check
from test_cli import write_run_config, write_split
from test_framing import make_windows

from crnn import cli
from crnn.cells import BlstmParams, blstm_forward, init_blstm, init_lstm, lstm_forward
from crnn.data import MelConfig, gen_order_task, log_mel
from crnn.framing import WindowSpec, stack_windows, window_count
from crnn.layers import (
    REDUCTIONS,
    SOURCES,
    CrnnLayerConfig,
    init_layer,
    layer_forward,
)
from crnn.metrics import per_class_recall, ua_recall
from crnn.model import ModelConfig
from crnn.numerics import Rng, named_arrays, param_count, tree_copy, zeros_like_tree
from crnn.training import TrainConfig, adam_step, evaluate, init_adam, train


def report(n: int, detail: str) -> None:
    print(f"criterion {n:2d} PASS  {detail}")


def layer_cfg(kind: str, source: str = "cell", reduction: str = "last",
              width: int = 3, shift: int = 2, features: int = 3) -> CrnnLayerConfig:
    return CrnnLayerConfig(kind=kind, features=features,
                           window=WindowSpec(width, shift),
                           source=source, reduction=reduction)


def all_layer_combinations() -> list[CrnnLayerConfig]:
    combos = [CrnnLayerConfig(kind="conv", features=3, window=WindowSpec(3, 2),
                              activation=act)
              for act in ("relu", "tanh", "sigmoid")]
    for kind in ("clstm", "extended_clstm"):
        combos += [layer_cfg(kind, s, r) for s in SOURCES for r in REDUCTIONS]
    combos += [layer_cfg("cblstm", s, r)
               for s in ("hidden", "cell") for r in REDUCTIONS]
    return combos


def emotion_toy() -> ModelConfig:
    layers = tuple(
        CrnnLayerConfig(kind="clstm", features=3, window=WindowSpec(5, 2),
                        pool=WindowSpec(2, 2), source="cell", reduction="last")
        for _ in range(2))
    return ModelConfig(input_dim=3, num_classes=2, layers=layers,
                       classifier="lstm", classifier_dim=4, dense_dim=5,
                       aggregation="last", aggregation_steps=4)


def age_gender_toy() -> ModelConfig:
    layer = CrnnLayerConfig(kind="cblstm", features=5, window=WindowSpec(5, 2),
                            pool=WindowSpec(2, 2), source="cell",
                            reduction="max", hidden_dim=3)
    return ModelConfig(input_dim=3, num_classes=2, layers=(layer,),
                       classifier="blstm", classifier_dim=4, dense_dim=5,
                       aggregation="all")


def test_criterion_01_gradient_fidelity():
    started = time.monotonic()
    worst = 0.0
    for config in all_layer_combinations():
        for seed in (1, 3, 6):
            err = probe_layer_check(config, seed)
            assert err < TOL, (config.kind, config.source, config.reduction,
                               seed, err)
            worst = max(worst, err)
    for config, seeds, extra in ((emotion_toy(), (2, 7, 9), 4),
                                 (age_gender_toy(), (5, 6, 11), 12)):
        for seed in seeds:
            err = model_ce_check(config, seed, extra_frames=extra)
            assert err < TOL, (config.classifier, seed, err)
            worst = max(worst, err)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(1, f"worst relative error {worst:.2e} over all combinations, "
              f"{elapsed:.1f}s")


def test_criterion_02_parameter_counts():
    n, k = 3, 2
    counts = {}
    for kind in ("conv", "clstm", "extended_clstm", "cblstm"):
        source = "hidden" if kind == "cblstm" else "cell"
        counts[kind] = [
            param_count(init_layer(layer_cfg(kind, source=source, width=r1,
                                             shift=1), k, Rng(0)))
            for r1 in range(1, 11)]
    assert counts["conv"] == [n * (k * r1 + 1) for r1 in range(1, 11)]
    assert len(set(counts["clstm"])) == 1
    assert len(set(counts["cblstm"])) == 1
    diffs = np.diff(counts["extended_clstm"])
    assert all(d == 4 * n * k for d in diffs)
    report(2, f"conv n(k*r1+1); clstm {counts['clstm'][0]} and cblstm "
              f"{counts['cblstm'][0]} flat in r1; extended +{4 * n * k}/unit")


def order_model(kind: str) -> ModelConfig:
    layer = CrnnLayerConfig(kind=kind, features=16, window=WindowSpec(5, 5),
                            source="cell", reduction="max")
    return ModelConfig(input_dim=4, num_classes=2, layers=(layer,),
                       classifier="lstm", classifier_dim=16, dense_dim=16,
                       aggregation="all")


def test_criterion_03_order_task():
    k, l = 4, 25
    train_set = gen_order_task(2000, k, l, Rng(11))
    val_set = gen_order_task(300, k, l, Rng(12))
    test_set = gen_order_task(500, k, l, Rng(13))

    started = time.monotonic()
    result = train(order_model("clstm"), TrainConfig(seed=1),
                   train_set, val_set)
    ua = evaluate(order_model("clstm"), result.params, test_set).ua_recall
    elapsed = time.monotonic() - started
    assert ua >= 0.95, ua
    assert elapsed < 300.0

    baseline = train(order_model("conv"), TrainConfig(seed=1, max_epochs=30),
                     train_set, val_set)
    conv_ua = evaluate(order_model("conv"), baseline.params, test_set).ua_recall
    report(3, f"recurrent UA {ua:.3f} in {elapsed:.1f}s "
              f"(conv baseline {conv_ua:.3f}, informational)")


def test_criterion_04_exhaustive_framing():
    checked = 0
    for l in range(1, 21):
        x = np.arange(float(l))[None, :]
        for width in range(1, 21):
            for shift in range(1, 21):
                starts = list(range(0, l - width + 1, shift))
                spec = WindowSpec(width, shift)
                assert window_count(l, spec) == len(starts)
                got = make_windows(x, spec)
                assert len(got) == len(starts)
                for w, s in zip(got, starts):
                    np.testing.assert_array_equal(w, x[:, s:s + width])
                stacked = stack_windows(x, spec)
                assert stacked.shape == (width, 1, len(starts))
                for i, w in enumerate(got):
                    np.testing.assert_array_equal(stacked[:, :, i], w.T)
                checked += 1
    report(4, f"{checked} (length, width, shift) combinations vs enumeration")


def test_criterion_05_reversal_symmetry():
    rng = Rng(21)
    for case in range(100):
        dims = rng.split()
        n = int(dims.integers(1, 6))
        k = int(dims.integers(1, 5))
        t = int(dims.integers(1, 9))
        source = "hidden" if case % 2 == 0 else "cell"
        p = init_blstm(k, n, n, rng.split(), source=source)
        # one k-by-t sequence as a (t, k, 1) stack, a batch of one
        xs = rng.split().normal(0.0, 1.0, (k, t)).T[:, :, None]
        y, _, _ = blstm_forward(p, xs)
        swapped = BlstmParams(fwd=p.bwd, bwd=p.fwd, W_fy=p.W_by, W_by=p.W_fy,
                              b_y=p.b_y, source=p.source)
        y_rev, _, _ = blstm_forward(swapped, np.ascontiguousarray(xs[::-1]))
        np.testing.assert_array_equal(y_rev, y[::-1])
    report(5, "100 random direction swaps reverse the output bit-exactly")


def test_criterion_06_whole_sequence_window():
    rng = Rng(31)
    for _ in range(50):
        dims = rng.split()
        k = int(dims.integers(1, 5))
        n = int(dims.integers(1, 6))
        l = int(dims.integers(1, 11))
        config = CrnnLayerConfig(kind="clstm", features=n,
                                 window=WindowSpec(l, l),
                                 source="hidden", reduction="last")
        params = init_layer(config, k, rng.split())
        x = rng.split().normal(0.0, 1.0, (k, l))
        out, _ = layer_forward(config, params, x)
        assert out.shape == (n, 1)
        trace = lstm_forward(params.lstm, x.T[:, :, None])
        np.testing.assert_array_equal(out[:, 0], trace.h[-1, :, 0])
    report(6, "50 whole-sequence windows equal the plain recurrence bit-exactly")


def test_criterion_07_adam_reference():
    rng = Rng(41)
    params = init_lstm(2, 3, rng.split())

    frozen = tree_copy(params)
    state = init_adam(params)
    adam_step(state, params, zeros_like_tree(params))
    for (_, a), (_, b) in zip(named_arrays(params), named_arrays(frozen)):
        np.testing.assert_array_equal(a, b)

    params = tree_copy(frozen)
    state = init_adam(params)
    g1 = tree_copy(params)
    g2 = tree_copy(params)
    for (_, g), (_, h) in zip(named_arrays(g1), named_arrays(g2)):
        g[...] = rng.split().normal(0.0, 1.0, g.shape)
        h[...] = rng.split().normal(0.0, 1.0, h.shape)

    adam_step(state, params, g1)
    worst = 0.0
    for (_, p), (_, p0), (_, g) in zip(named_arrays(params),
                                       named_arrays(frozen), named_arrays(g1)):
        expected = p0 - state.lr * g / (np.sqrt(g * g) + state.epsilon)
        worst = max(worst, float(np.max(np.abs(p - expected))))
    assert worst <= 1e-12

    adam_step(state, params, g2)
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.epsilon
    for (_, p), (_, p0), (_, ga), (_, gb) in zip(
            named_arrays(params), named_arrays(frozen),
            named_arrays(g1), named_arrays(g2)):
        m = v = 0.0
        expected = p0.copy()
        for t, g in ((1, ga), (2, gb)):
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            expected -= lr * m_hat / (np.sqrt(v_hat) + eps)
        worst = max(worst, float(np.max(np.abs(p - expected))))
    assert worst <= 1e-12
    report(7, f"zero-gradient no-op exact; one/two step deviation {worst:.1e}")


def test_criterion_08_log_mel_oracle():
    cfg = MelConfig(sample_rate=16000)
    for samples in (400, 401, 559, 560, 15999, 16000):
        feats = log_mel(np.zeros(samples), cfg)
        assert feats.shape == (26, 1 + (samples - 400) // 160)
    silence = log_mel(np.zeros(1600), cfg)
    np.testing.assert_array_equal(silence, math.log(1e-10))

    t = np.arange(16000) / 16000.0
    tone = log_mel(0.5 * np.sin(2 * np.pi * 1000.0 * t), cfg)
    assert tone.shape == (26, 98)
    hottest = int(np.argmax(tone.mean(axis=1)))

    # independent filter-center oracle from the textbook mel formula
    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = [hz(m) for m in np.linspace(mel(0.0), mel(8000.0), 28)]
    centers = np.array(edges[1:-1])
    assert hottest == int(np.argmin(np.abs(centers - 1000.0)))
    report(8, f"frame counts, silence floor ln(1e-10), 1 kHz tone peaks in "
              f"filter {hottest} (center {centers[hottest]:.0f} Hz)")


def test_criterion_09_training_determinism(tmp_path):
    train_tsv = write_split(tmp_path, "train", 16, seed=1)
    val_tsv = write_split(tmp_path, "val", 8, seed=2)
    cfg = write_run_config(tmp_path, train_tsv, val_tsv, max_epochs=4)
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append(((out / "metrics.jsonl").read_bytes(),
                      (out / "model.bin").read_bytes()))
    assert blobs[0] == blobs[1]
    epochs = len(blobs[0][0].splitlines())
    records = [json.loads(line) for line in blobs[0][0].splitlines()]
    assert all(set(r) == {"epoch", "train_loss", "val_ua_recall"}
               for r in records)
    report(9, f"two seeded runs byte-identical over {epochs} epochs "
              f"(metrics and model file)")


def test_criterion_10_ua_recall_fixtures():
    labels = [0, 0, 0, 0, 1, 1, 1]
    preds = [0, 0, 1, 1, 1, 1, 1]
    np.testing.assert_allclose(per_class_recall(preds, labels, 2), [0.5, 1.0])
    assert ua_recall(preds, labels, 2) == pytest.approx(0.75)
    assert ua_recall([1, 0, 1, 0], [1, 1, 0, 0], 2) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="class 1"):
        ua_recall([0, 0], [0, 0], 2)
    report(10, "recall fixtures incl. (0.5, 1.0) -> 0.75 and absent-class error")
