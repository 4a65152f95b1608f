"""Loss, Adam optimization, the epoch loop, and finite-difference checks.

The loss is cross-entropy of the *averaged* per-step class distribution
(one scalar per example); a mini-batch gradient is the arithmetic mean of
the per-example gradients.  Each shuffled mini-batch, whatever its clips'
lengths, runs as one forward/backward pass over the list of its clips
(see ``model``), so the per-example gradients are summed inside the
weight-gradient GEMMs; results are bit-identical run to run.  Evaluation
runs the dataset in its own order, in chunks of the training batch size.

Adam defaults to lr=0.002, beta1=0.1, beta2=0.001.  Those decay rates are
far smaller than the usual 0.9/0.999, which makes the moment estimates
nearly memoryless; they are used literally as the exponential decay rates
of the standard bias-corrected update, and the conventional values remain
one config line away.

Model selection: after each epoch the model is scored by unweighted
average recall on the validation set, the best-scoring parameters are
kept, and training stops once the best epoch is more than ``patience``
epochs in the past.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .layers import SequenceTooShortError
from .metrics import per_class_recall, ua_recall
from .model import (
    ModelConfig,
    ModelParams,
    init_model,
    min_sequence_length,
    model_backward,
    model_forward,
)
from .numerics import Rng, named_arrays, tree_copy, zeros_like_tree


class NumericError(RuntimeError):
    """A computation produced a non-finite value or failed verification."""


def cross_entropy(probs: np.ndarray, label) -> float:
    """-ln(probs[label]) for one probability vector and its label, or the
    sum over the columns of a (C, B) stack given B labels."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(label)
    if np.any(labels < 0) or np.any(labels >= probs.shape[0]):
        raise ValueError(f"label {label} out of range for {probs.shape[0]} classes")
    return float(-np.log(np.take_along_axis(probs, labels[None], axis=0)).sum())


def loss_gradients(config: ModelConfig, params: ModelParams, x,
                   label) -> tuple[float, ModelParams]:
    """Cross-entropy loss and its exact parameter gradients, for one k-by-l
    example and its label, or summed over a list of B clips given their B
    labels."""
    probs_mean, trace = model_forward(config, params, x)
    loss = cross_entropy(probs_mean, label)
    labels = np.asarray(label)[None]
    dprobs_mean = np.zeros_like(probs_mean)
    np.put_along_axis(dprobs_mean, labels,
                      -1.0 / np.take_along_axis(probs_mean, labels, axis=0), axis=0)
    grads, _ = model_backward(config, params, trace, dprobs_mean)
    return loss, grads


# ---------------------------------------------------------------------------
# Training settings and Adam.

@dataclass
class TrainConfig:
    batch_size: int = 16
    max_epochs: int = 100
    patience: int = 12
    seed: int = 0
    lr: float = 0.002
    beta1: float = 0.1
    beta2: float = 0.001
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        _check_adam(self.lr, self.beta1, self.beta2, self.epsilon)


@dataclass
class AdamState:
    m: ModelParams        # first-moment tree, shapes mirror the parameters
    v: ModelParams        # second-moment tree
    t: int
    lr: float
    beta1: float
    beta2: float
    epsilon: float


def _check_adam(lr: float, beta1: float, beta2: float, epsilon: float) -> None:
    if not (0 < lr < math.inf and 0 < epsilon < math.inf):   # NaN fails too
        raise ValueError("lr and epsilon must be positive and finite")
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ValueError("beta1 and beta2 must lie in [0, 1)")


def init_adam(params, lr: float = TrainConfig.lr, beta1: float = TrainConfig.beta1,
              beta2: float = TrainConfig.beta2,
              epsilon: float = TrainConfig.epsilon) -> AdamState:
    _check_adam(lr, beta1, beta2, epsilon)
    return AdamState(m=zeros_like_tree(params), v=zeros_like_tree(params), t=0,
                     lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon)


def adam_step(state: AdamState, params, grads) -> None:
    """One bias-corrected Adam update, in place on params and state."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    leaves = zip(named_arrays(params), named_arrays(grads),
                 named_arrays(state.m), named_arrays(state.v))
    for (name, p), (gname, g), (_, m), (_, v) in leaves:
        if p.shape != g.shape or name != gname:
            raise ValueError(f"gradient leaf {gname} {g.shape} does not match "
                             f"parameter {name} {p.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.epsilon)


# ---------------------------------------------------------------------------
# Epoch loop.

@dataclass
class EpochRecord:
    epoch: int            # 1-based
    train_loss: float
    val_ua_recall: float


@dataclass
class TrainResult:
    params: ModelParams   # parameters from the best validation epoch
    history: list[EpochRecord]
    best_epoch: int
    best_metric: float


@dataclass
class EvalResult:
    ua_recall: float
    per_class: np.ndarray
    predictions: list[int]


def evaluate(config: ModelConfig, params: ModelParams, dataset,
             batch_size: int = TrainConfig.batch_size) -> EvalResult:
    """Predict every example, ``batch_size`` examples per forward pass."""
    examples = dataset.examples
    preds: list[int] = []
    for lo in range(0, len(examples), batch_size):
        probs, _ = model_forward(config, params,
                                 [ex.features for ex in examples[lo:lo + batch_size]])
        preds.extend(int(p) for p in np.argmax(probs, axis=0))
    labels = [ex.label for ex in examples]
    return EvalResult(ua_recall=ua_recall(preds, labels, config.num_classes),
                      per_class=per_class_recall(preds, labels, config.num_classes),
                      predictions=preds)


def should_stop(history: list[float], patience: int) -> bool:
    """True iff the best value is more than ``patience`` epochs old.

    ``history`` holds one metric per epoch, higher is better; ties keep
    the earliest epoch as best.
    """
    if not history:
        raise ValueError("history is empty")
    best_epoch = int(np.argmax(history)) + 1
    return (len(history) - best_epoch) > patience


def _check_lengths(config: ModelConfig, dataset, split: str) -> None:
    """Raise SequenceTooShortError naming the first clip too short for the
    model's framing; ``split`` names where the clips came from."""
    need = min_sequence_length(config)
    for idx, ex in enumerate(dataset.examples):
        if ex.features.shape[1] < need:
            raise SequenceTooShortError(
                f"{split} example {idx} ({ex.source_id!r}) has "
                f"{ex.features.shape[1]} frames; the model's framing needs at least {need}")


def train(config: ModelConfig, tc: TrainConfig, train_set, val_set,
          log=None) -> TrainResult:
    """Mini-batch Adam with early stopping on validation UA recall.

    Fully deterministic given ``tc.seed``: that one value drives both
    initialization and epoch shuffling.  ``log``, if given, receives one
    human-readable line per epoch (this line carries wall time; the
    returned history holds only reproducible fields).
    """
    if not train_set.examples:
        raise ValueError("training set is empty")
    if not val_set.examples:
        raise ValueError("validation set is empty")
    _check_lengths(config, train_set, "train")
    _check_lengths(config, val_set, "validation")

    rng = Rng(tc.seed)
    params = init_model(config, rng.split())
    shuffle_rng = rng.split()
    adam = init_adam(params, lr=tc.lr, beta1=tc.beta1, beta2=tc.beta2,
                     epsilon=tc.epsilon)

    examples = train_set.examples
    history: list[EpochRecord] = []
    best_metric = -math.inf
    best_epoch = 0
    best_params = tree_copy(params)

    for epoch in range(1, tc.max_epochs + 1):
        started = time.perf_counter()
        order = shuffle_rng.permutation(len(examples))
        total_loss = 0.0
        for number, lo in enumerate(range(0, len(order), tc.batch_size), start=1):
            batch = order[lo:lo + tc.batch_size]
            loss, grads = loss_gradients(config, params,
                                         [examples[j].features for j in batch],
                                         [examples[j].label for j in batch])
            total_loss += loss
            scale = 1.0 / len(batch)
            for name, a in named_arrays(grads):
                a *= scale
                if not np.all(np.isfinite(a)):
                    raise NumericError(f"non-finite gradient in {name} at epoch "
                                       f"{epoch}, batch {number}")
            adam_step(adam, params, grads)
        train_loss = total_loss / len(examples)
        if not math.isfinite(train_loss):
            raise NumericError(f"non-finite training loss at epoch {epoch}")

        metric = evaluate(config, params, val_set, tc.batch_size).ua_recall
        history.append(EpochRecord(epoch=epoch, train_loss=train_loss,
                                   val_ua_recall=metric))
        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_params = tree_copy(params)
        if log is not None:
            log(f"epoch {epoch}  train_loss {train_loss:.6f}  "
                f"val_ua_recall {metric:.4f}  "
                f"wall_s {time.perf_counter() - started:.2f}")
        if should_stop([r.val_ua_recall for r in history], tc.patience):
            break

    return TrainResult(params=best_params, history=history,
                       best_epoch=best_epoch, best_metric=best_metric)


# ---------------------------------------------------------------------------
# Finite-difference verification.

@dataclass
class GradCheckReport:
    max_rel_error: float
    step: float
    per_param: dict[str, float]                      # name -> max rel error
    failures: list[tuple[str, tuple, float]] = field(default_factory=list)

    def worst(self, limit: int = 5) -> list[tuple[str, tuple, float]]:
        return sorted(self.failures, key=lambda f: -f[2])[:limit]


def relative_error(a: float, f: float) -> float:
    return abs(a - f) / max(abs(a), abs(f), 1e-8)


def fd_check(loss_fn, params, analytic, step: float = 1e-5,
             threshold: float = 1e-5) -> GradCheckReport:
    """Compare an analytic gradient tree against central differences.

    ``loss_fn()`` re-evaluates the scalar loss at the current parameter
    values (``params`` is perturbed in place, one coordinate at a time);
    ``analytic`` is a tree of the same shape holding the gradients under
    test.  Coordinates whose relative error reaches ``threshold`` are
    recorded as failures; a non-finite analytic or numerical gradient
    counts as an infinite error.
    """
    per_param: dict[str, float] = {}
    failures: list[tuple[str, tuple, float]] = []
    worst = 0.0
    for (name, arr), (_, g) in zip(named_arrays(params), named_arrays(analytic)):
        local = 0.0
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = arr[idx]
            arr[idx] = saved + step
            up = loss_fn()
            arr[idx] = saved - step
            down = loss_fn()
            arr[idx] = saved
            fd = (up - down) / (2.0 * step)
            err = relative_error(float(g[idx]), fd)
            if not math.isfinite(err):
                err = math.inf   # NaN compares false against everything
            if err > local:
                local = err
            if err >= threshold:
                failures.append((name, idx, err))
        per_param[name] = local
        worst = max(worst, local)
    return GradCheckReport(max_rel_error=worst, step=step,
                           per_param=per_param, failures=failures)


def grad_check(config: ModelConfig, seed: int = 0, step: float = 1e-5,
               length: int | None = None, threshold: float = 1e-5
               ) -> GradCheckReport:
    """Finite-difference check of the full model gradient on one random
    example.  Keep the config tiny; cost is two forward passes per scalar
    parameter."""
    rng = Rng(seed)
    params = init_model(config, rng.split())
    data_rng = rng.split()
    l = length if length is not None else min_sequence_length(config)
    x = data_rng.normal(0.0, 1.0, (config.input_dim, l))
    label = int(data_rng.integers(0, config.num_classes))

    _, analytic = loss_gradients(config, params, x, label)

    def loss_fn() -> float:
        probs, _ = model_forward(config, params, x)
        return cross_entropy(probs, label)

    return fd_check(loss_fn, params, analytic, step=step, threshold=threshold)
