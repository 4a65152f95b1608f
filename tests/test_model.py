import numpy as np
import pytest

from crnn.framing import WindowSpec
from crnn.layers import CrnnLayerConfig, SequenceTooShortError
from crnn.model import (
    ModelConfig,
    age_gender_model_config,
    emotion_model_config,
    init_model,
    min_sequence_length,
    model_backward,
    model_forward,
    predict,
    predict_proba,
)
from crnn.numerics import Rng, ShapeError, named_arrays, param_count

from fdtools import TOL, model_ce_check


def tiny_config(classifier="lstm", aggregation="all", layers=1):
    layer = CrnnLayerConfig(kind="clstm", features=3, window=WindowSpec(3, 2),
                            source="cell", reduction="last")
    return ModelConfig(input_dim=2, num_classes=3, layers=(layer,) * layers,
                       classifier=classifier, classifier_dim=3, dense_dim=4,
                       aggregation=aggregation, aggregation_steps=2)


class TestConfigValidation:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            ModelConfig(input_dim=2, num_classes=1)

    def test_rejects_unknown_classifier(self):
        with pytest.raises(ValueError):
            ModelConfig(input_dim=2, num_classes=2, classifier="gru")

    def test_rejects_unknown_aggregation(self):
        with pytest.raises(ValueError):
            ModelConfig(input_dim=2, num_classes=2, aggregation="first")

    def test_feature_dim_follows_last_layer(self):
        assert tiny_config().feature_dim == 3
        assert ModelConfig(input_dim=7, num_classes=2).feature_dim == 7

    def test_layer_input_dims_chain(self):
        c = tiny_config(layers=2)
        assert c.layer_input_dim(0) == 2
        assert c.layer_input_dim(1) == 3


class TestMinSequenceLength:
    def test_no_layers(self):
        assert min_sequence_length(ModelConfig(input_dim=2, num_classes=2)) == 1

    def test_single_layer_no_pool(self):
        assert min_sequence_length(tiny_config()) == 3

    def test_emotion_preset_needs_31_frames(self):
        # layer 2: pool needs 2 columns -> 7 input frames; layer 1: pool
        # needs 7 columns -> 14 windows? no: (7-1)*2+2 = 14 columns ->
        # (14-1)*2+5 = 31 frames
        assert min_sequence_length(emotion_model_config()) == 31

    def test_age_gender_preset_needs_7_frames(self):
        assert min_sequence_length(age_gender_model_config()) == 7

    def test_forward_rejects_shorter(self):
        c = tiny_config()
        params = init_model(c, Rng(0))
        with pytest.raises(SequenceTooShortError):
            model_forward(c, params, np.zeros((2, min_sequence_length(c) - 1)))

    def test_list_names_the_short_clip(self):
        c = tiny_config()
        params = init_model(c, Rng(0))
        need = min_sequence_length(c)
        with pytest.raises(SequenceTooShortError, match=f"^{need - 1} frames"):
            model_forward(c, params, [np.zeros((2, need + 4)), np.zeros((2, need - 1))])


class TestInputForms:
    """One k-by-l array, or a list of k-by-l_j clips; nothing else."""

    @pytest.mark.parametrize("x", [np.zeros((2, 9, 3)), [], [np.zeros((2, 9)), np.zeros((3, 9))],
                                   [np.zeros(9)]])
    def test_rejects_other_forms(self, x):
        c = tiny_config()
        with pytest.raises(ShapeError):
            model_forward(c, init_model(c, Rng(0)), x)

    def test_list_of_one_keeps_the_batch_axis(self):
        c = tiny_config()
        params = init_model(c, Rng(1))
        x = Rng(2).normal(0, 1, (2, 11))
        probs, _ = model_forward(c, params, [x])
        assert probs.shape == (3, 1)
        np.testing.assert_array_equal(probs[:, 0], model_forward(c, params, x)[0])


class TestForward:
    @pytest.mark.parametrize("classifier", ["lstm", "blstm"])
    def test_probs_mean_is_distribution(self, classifier):
        c = tiny_config(classifier=classifier)
        params = init_model(c, Rng(1))
        x = Rng(2).normal(0, 1, (2, 11))
        probs, trace = model_forward(c, params, x)
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs > 0.0)
        np.testing.assert_allclose(trace.probs.sum(axis=0),
                                   np.ones(trace.probs.shape[1]), atol=1e-12)

    def test_aggregation_all_averages_every_step(self):
        c = tiny_config(aggregation="all")
        params = init_model(c, Rng(3))
        x = Rng(4).normal(0, 1, (2, 13))
        probs, trace = model_forward(c, params, x)
        np.testing.assert_allclose(probs, trace.probs.mean(axis=1), atol=1e-15)

    def test_aggregation_last_uses_final_steps(self):
        c = tiny_config(aggregation="last")   # aggregation_steps=2
        params = init_model(c, Rng(3))
        x = Rng(4).normal(0, 1, (2, 13))
        probs, trace = model_forward(c, params, x)
        np.testing.assert_allclose(probs, trace.probs[:, -2:].mean(axis=1),
                                   atol=1e-15)
        assert trace.probs.shape[1] > 2

    def test_aggregation_last_clamps_to_available_steps(self):
        c = tiny_config(aggregation="last")
        params = init_model(c, Rng(3))
        x = Rng(4).normal(0, 1, (2, 3))   # one feature column
        probs, trace = model_forward(c, params, x)
        assert trace.probs.shape[1] == 1
        np.testing.assert_allclose(probs, trace.probs[:, 0], atol=1e-15)

    def test_blstm_head_has_no_separate_dense(self):
        c = tiny_config(classifier="blstm")
        params = init_model(c, Rng(5))
        assert params.dense is None
        # the combination layer itself outputs dense_dim features
        assert params.classifier.W_fy.shape == (4, 3)

    def test_predict_is_argmax_of_proba(self):
        c = tiny_config()
        params = init_model(c, Rng(6))
        x = Rng(7).normal(0, 1, (2, 9))
        assert predict(c, params, x) == int(np.argmax(predict_proba(c, params, x)))

    def test_forward_is_deterministic(self):
        c = tiny_config(classifier="blstm")
        params = init_model(c, Rng(8))
        x = Rng(9).normal(0, 1, (2, 9))
        a, _ = model_forward(c, params, x)
        b, _ = model_forward(c, params, x)
        assert a.tobytes() == b.tobytes()


class TestGradients:
    @pytest.mark.parametrize("classifier,aggregation,seed", [
        ("lstm", "all", 2),
        ("lstm", "last", 2),
        ("blstm", "all", 3),
    ])
    def test_full_model_fd(self, classifier, aggregation, seed):
        c = tiny_config(classifier=classifier, aggregation=aggregation)
        assert model_ce_check(c, seed=seed, extra_frames=4) < TOL

    def test_two_layer_stack_fd(self):
        c = tiny_config(layers=2)
        assert model_ce_check(c, seed=2, extra_frames=2) < TOL

    @pytest.mark.parametrize("classifier", ["lstm", "blstm"])
    @pytest.mark.parametrize("kind", ["conv", "clstm", "extended_clstm", "cblstm", None])
    def test_skipping_input_gradient_keeps_parameter_gradients(self, kind, classifier):
        layers = () if kind is None else (
            CrnnLayerConfig(kind=kind, features=3, window=WindowSpec(3, 2),
                            source="cell", reduction="max"),) * 2
        c = ModelConfig(input_dim=2, num_classes=3, layers=layers, classifier=classifier,
                        classifier_dim=3, dense_dim=4)
        params = init_model(c, Rng(4))
        rng = Rng(5)
        clips = [rng.normal(0, 1, (2, l)) for l in (11, 9, 15)]
        _, trace = model_forward(c, params, clips)
        dprobs = rng.normal(0, 1, (3, 3))
        full, dx = model_backward(c, params, trace, dprobs)
        assert len(dx) == 3
        skipped, none = model_backward(c, params, trace, dprobs, need_dx=False)
        assert none is None
        for (name, a), (_, b) in zip(named_arrays(full), named_arrays(skipped)):
            assert a.tobytes() == b.tobytes(), name


class TestPresets:
    def test_emotion_shape(self):
        c = emotion_model_config()
        assert len(c.layers) == 2
        for lc in c.layers:
            assert lc.kind == "clstm" and lc.features == 100
            assert lc.window == WindowSpec(5, 2) and lc.pool == WindowSpec(2, 2)
            assert lc.source == "cell" and lc.reduction == "last"
        assert c.classifier == "lstm" and c.classifier_dim == 256
        assert c.dense_dim == 400
        assert c.aggregation == "last" and c.aggregation_steps == 4

    def test_age_gender_shape(self):
        c = age_gender_model_config()
        assert len(c.layers) == 1
        lc = c.layers[0]
        assert lc.kind == "cblstm" and lc.features == 100 and lc.hidden_dim == 100
        assert lc.reduction == "max"
        assert c.classifier == "blstm" and c.aggregation == "all"

    def test_presets_initialize(self):
        c = emotion_model_config()
        params = init_model(c, Rng(0))
        assert param_count(params) > 100_000
        c2 = age_gender_model_config(kind="clstm")
        assert c2.layers[0].hidden_dim is None
        init_model(c2, Rng(0))
