"""The benchmark's three workloads.

Why each exists:

``order_train``
    ``train()`` on the order task with the README/demo-05 model (clstm, 16
    features, window 5/5, ``max`` reduction, LSTM-16 head).  The arrays are
    tiny (n=16, 5-step windows), so the time goes to numpy dispatch and the
    Python bookkeeping of parameter trees.  Whole-batch passes show their
    effect here.
``emotion_train``
    ``train()`` with ``emotion_model_config()`` on log-mel features of
    synthetic 16 kHz clips of 1 to 4 s.  GEMM-bound (clstm-100 over about
    150 windows per clip, an LSTM-256 head at B=1, dense-400), so the LSTM
    kernel's FLOP rate decides the time.  Clip lengths vary, so batching
    across examples must pay for padding or bucketing here.
``agegender_audio``
    WAV clips through ``extract-features``, ``eval`` and a per-clip
    ``read_wav`` -> ``log_mel`` -> ``predict_proba`` pass with an
    ``age_gender_model_config()`` model (cblstm layer, BLSTM-256 head).
    Forward only: the bidirectional kernel, the audio front end, text
    feature files and model-file I/O.  It never reaches the training loop,
    so training-side optimisations should leave it unchanged, and moving
    work from backward into forward shows up here.

Every input comes from the workload seed.  Clip lengths are a fixed,
evenly spaced set shuffled by the seed, so every seed asks for the same
amount of work.  Each timed unit yields rate samples (examples per wall
second); ``summarize`` adds the figures particular to a workload.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RATE = 16000


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class Unit:
    """One repetition of a workload's timed work."""
    wall_s: float
    rates: list[float]                  # examples per second, one per sample
    phases: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)   # what verify() checks


def median_metric(values, unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


def percentile_metric(values, q: int, unit: str) -> dict:
    """q-th percentile (1..99) with the number of samples beyond it: above
    it for q >= 50, below it otherwise."""
    cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    beyond = sum(v > cut for v in values) if q >= 50 else sum(v < cut for v in values)
    return {"value": cut, "unit": unit, "samples": len(values), "beyond": beyond}


def synth_clips(gen: np.random.Generator, count: int, freqs, seconds=(1.0, 4.0)):
    """Class-dependent tone plus noise.  Returns (samples, label) pairs."""
    lengths = gen.permutation(np.linspace(seconds[0], seconds[1], count))
    labels = gen.permutation(np.arange(count) % len(freqs))
    clips = []
    for length, label in zip(lengths, labels):
        t = np.arange(int(round(length * RATE))) / RATE
        freq = freqs[label] * gen.uniform(0.9, 1.1)
        tone = 0.3 * np.sin(2.0 * np.pi * freq * t + gen.uniform(0.0, 2.0 * np.pi))
        clips.append((tone + gen.normal(0.0, 0.05, t.shape), int(label)))
    return clips


class TrainWorkload:
    """``train()`` for a fixed number of epochs; one rate sample per epoch
    (training examples over the wall time between epoch-log callbacks,
    which includes the epoch's validation pass)."""

    epochs: int

    def __init__(self, crnn, seed: int):
        self.crnn = crnn
        self.seed = seed

    def run_unit(self) -> Unit:
        crnn = self.crnn
        tc = crnn.training.TrainConfig(seed=self.seed, max_epochs=self.epochs,
                                       patience=self.epochs)
        stamps = [time.perf_counter()]
        try:
            result = crnn.training.train(self.config, tc, self.train_set, self.val_set,
                                         log=lambda _line: stamps.append(time.perf_counter()))
        except crnn.training.NumericError as e:
            return Unit(wall_s=time.perf_counter() - stamps[0], rates=[],
                        outputs={"error": str(e)})
        wall = time.perf_counter() - stamps[0]
        n = len(self.train_set.examples)
        return Unit(wall_s=wall, rates=[n / (b - a) for a, b in zip(stamps, stamps[1:])],
                    outputs={"result": result})

    def verify(self, unit: Unit, checks: Checks) -> None:
        result = unit.outputs.get("result")
        if result is None:
            checks.check(False, f"train raised {unit.outputs['error']}")
            return
        for rec in result.history:
            checks.check(math.isfinite(rec.train_loss),
                         f"epoch {rec.epoch} loss {rec.train_loss}")
        self.check_result(result, checks)

    def check_result(self, result, checks: Checks) -> None:
        pass

    def summarize(self, units: list[Unit]) -> dict:
        rates = [r for u in units for r in u.rates]
        return {"train_examples_per_s": median_metric(rates, "1/s")}


class OrderTrain(TrainWorkload):
    name = "order_train"
    epochs = 6
    n_train, n_val = 256, 64
    min_ua = 0.95

    def setup(self, workdir: Path) -> None:
        crnn = self.crnn
        layer = crnn.layers.CrnnLayerConfig(
            kind="clstm", features=16, window=crnn.framing.WindowSpec(5, 5),
            source="cell", reduction="max")
        self.config = crnn.model.ModelConfig(
            input_dim=4, num_classes=2, layers=(layer,), classifier="lstm",
            classifier_dim=16, dense_dim=16, aggregation="all")
        rng = crnn.numerics.Rng(self.seed)
        self.train_set = crnn.data.gen_order_task(self.n_train, 4, 25, rng.split())
        self.val_set = crnn.data.gen_order_task(self.n_val, 4, 25, rng.split())

    def check_result(self, result, checks: Checks) -> None:
        checks.check(result.best_metric >= self.min_ua,
                     f"order task best val UA {result.best_metric} < {self.min_ua}")


class EmotionTrain(TrainWorkload):
    name = "emotion_train"
    epochs = 4
    n_train, n_val = 16, 5
    freqs = (250.0, 500.0, 1000.0, 2000.0, 4000.0)

    def setup(self, workdir: Path) -> None:
        crnn = self.crnn
        self.config = crnn.model.emotion_model_config()
        mel = crnn.data.MelConfig(sample_rate=RATE)
        gen = np.random.default_rng(self.seed)
        # Separate draws so the validation set holds every class.
        clips = (synth_clips(gen, self.n_train, self.freqs)
                 + synth_clips(gen, self.n_val, self.freqs))
        examples = [
            crnn.data.SequenceExample(features=crnn.data.log_mel(x, mel), label=label,
                                      group="synth", source_id=f"clip{i}")
            for i, (x, label) in enumerate(clips)]
        data, _ = crnn.data.normalize_per_group(
            crnn.data.Dataset(examples=examples, num_classes=len(self.freqs)))
        self.train_set = crnn.data.Dataset(examples=data.examples[:self.n_train],
                                           num_classes=len(self.freqs))
        self.val_set = crnn.data.Dataset(examples=data.examples[self.n_train:],
                                         num_classes=len(self.freqs))


class AgeGenderAudio:
    """One round: ``extract-features`` and ``eval`` in process through
    ``crnn.cli.main``, then the per-clip library pass.  The rate sample is
    clips per wall second of the whole round."""

    name = "agegender_audio"
    n_clips = 8
    freqs = (150.0, 300.0, 600.0, 1200.0)

    def __init__(self, crnn, seed: int):
        self.crnn = crnn
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        crnn = self.crnn
        workdir.mkdir(parents=True, exist_ok=True)
        gen = np.random.default_rng(self.seed)
        self.wavs, self.labels, self.seconds, lines = [], [], [], []
        for i, (x, label) in enumerate(synth_clips(gen, self.n_clips, self.freqs)):
            wav = workdir / f"clip{i:03d}.wav"
            crnn.data.write_wav(wav, x, RATE)
            self.wavs.append(wav)
            self.labels.append(label)
            self.seconds.append(len(x) / RATE)
            lines.append(f"{wav.name}\t{label}\tspk{i % 3}")
        self.audio_manifest = workdir / "audio.tsv"
        self.audio_manifest.write_text("\n".join(lines) + "\n")

        self.config = crnn.model.age_gender_model_config()
        self.params = crnn.model.init_model(self.config, crnn.numerics.Rng(self.seed))
        model_dir = workdir / "model"
        model_dir.mkdir(exist_ok=True)
        self.feats_dir = workdir / "feats"
        run = crnn.config.RunConfig(model=self.config,
                                    train=crnn.training.TrainConfig(seed=self.seed),
                                    out_dir=str(model_dir))
        crnn.serialize.save_model(model_dir / "model.bin", run, self.params)
        self.run_config = workdir / "run.cfg"
        self.run_config.write_text(crnn.config.render_config(run))

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = self.crnn.cli.main(argv)
        return code, out.getvalue()

    def run_unit(self) -> Unit:
        crnn = self.crnn
        shutil.rmtree(self.feats_dir, ignore_errors=True)
        t0 = time.perf_counter()
        extract = self._cli(["extract-features", "--data", str(self.audio_manifest),
                             "--out", str(self.feats_dir)])
        t1 = time.perf_counter()
        evaluated = self._cli(["eval", "--config", str(self.run_config),
                               "--data", str(self.feats_dir / "manifest.tsv")])
        t2 = time.perf_counter()
        infer_ms, feats, preds = [], [], []
        for wav, secs in zip(self.wavs, self.seconds):
            start = time.perf_counter()
            samples, rate = crnn.data.read_wav(wav)
            mel = crnn.data.log_mel(samples, crnn.data.MelConfig(sample_rate=rate))
            probs = crnn.model.predict_proba(self.config, self.params, mel)
            infer_ms.append((time.perf_counter() - start) * 1000.0 / secs)
            feats.append(mel)
            preds.append(int(np.argmax(probs)))
        t3 = time.perf_counter()

        audio_s = sum(self.seconds)
        return Unit(wall_s=t3 - t0, rates=[len(self.wavs) / (t3 - t0)],
                    phases={"extract_audio_s_per_s": audio_s / (t1 - t0),
                            "eval_audio_s_per_s": audio_s / (t2 - t1),
                            "infer_ms": infer_ms},
                    outputs={"extract": extract, "eval": evaluated,
                             "feats": feats, "preds": preds})

    def verify(self, unit: Unit, checks: Checks) -> None:
        crnn = self.crnn
        (extract_code, extract_out), (eval_code, eval_out) = (
            unit.outputs["extract"], unit.outputs["eval"])
        checks.check(extract_code == 0, f"extract-features exit {extract_code}: {extract_out}")
        for i, mel in enumerate(unit.outputs["feats"]):
            path = self.feats_dir / f"mel{i:06d}.txt"
            try:
                stored = crnn.data.read_features(path)
            except crnn.data.DataError as e:
                checks.check(False, f"{path}: {e}")
                continue
            checks.check(stored.shape == mel.shape and stored.tobytes() == mel.tobytes(),
                         f"{path} differs from in-memory log_mel")
        checks.check(eval_code == 0, f"eval exit {eval_code}: {eval_out}")
        recalls = crnn.metrics.per_class_recall(unit.outputs["preds"], self.labels,
                                                len(self.freqs))
        expected = [f"class {c} recall {r:.4f}" for c, r in enumerate(recalls)]
        got = [line for line in eval_out.splitlines() if line.startswith("class ")]
        checks.check(got == expected,
                     f"eval recalls {got} differ from per-clip predictions {expected}")

    def summarize(self, units: list[Unit]) -> dict:
        infer = [v for u in units for v in u.phases["infer_ms"]]
        return {
            "extract_audio_s_per_s": median_metric(
                [u.phases["extract_audio_s_per_s"] for u in units], "s/s"),
            "eval_audio_s_per_s": median_metric(
                [u.phases["eval_audio_s_per_s"] for u in units], "s/s"),
            "infer_ms_per_audio_s_p50": median_metric(infer, "ms/s"),
            "infer_ms_per_audio_s_p90": percentile_metric(infer, 90, "ms/s"),
        }


WORKLOADS = {w.name: w for w in (OrderTrain, EmotionTrain, AgeGenderAudio)}
