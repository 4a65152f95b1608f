"""Convolutional recurrent feature extraction for sequence classification.

Sequences are k-by-l float64 matrices (one column per frame).  Feature
layers slide a window over the frames and run an extractor per window: a
plain convolution, an LSTM (reading its hidden, cell, or projected-output
sequence), or a bidirectional LSTM.  Stacks of layers feed an LSTM or
BLSTM classifier head.  Every operation ships an exact hand-written
backward pass; training uses Adam with early stopping on unweighted
average recall.
"""

from .cells import (
    BlstmParams,
    LstmParams,
    blstm_backward,
    blstm_forward,
    init_blstm,
    init_extended_lstm,
    init_lstm,
    lstm_backward,
    lstm_forward,
    lstm_step,
)
from .config import ConfigError, RunConfig, parse_config, parse_config_text, render_config
from .data import (
    DataError,
    Dataset,
    MelConfig,
    SequenceExample,
    balance_classes,
    gen_order_task,
    log_mel,
    mel_filterbank,
    normalize_per_group,
    read_manifest,
    read_wav,
    write_manifest,
    write_wav,
)
from .framing import WindowSpec, stack_windows, window_count
from .layers import (
    ClstmParams,
    ConvParams,
    CrnnLayerConfig,
    SequenceTooShortError,
    init_layer,
    layer_backward,
    layer_forward,
)
from .metrics import per_class_recall, ua_recall
from .model import (
    ModelConfig,
    ModelParams,
    age_gender_model_config,
    emotion_model_config,
    init_model,
    min_sequence_length,
    model_backward,
    model_forward,
    predict_proba,
)
from .numerics import Rng, ShapeError, param_count
from .serialize import load_model, save_model
from .training import (
    AdamState,
    GradCheckReport,
    NumericError,
    TrainConfig,
    adam_step,
    cross_entropy,
    evaluate,
    grad_check,
    init_adam,
    loss_gradients,
    should_stop,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
