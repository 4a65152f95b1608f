import pytest

from crnn.config import (ConfigError, RunConfig, parse_config, parse_config_text,
                         render_config)
from crnn.framing import WindowSpec
from crnn.layers import CrnnLayerConfig
from crnn.model import ModelConfig, age_gender_model_config, emotion_model_config
from crnn.training import TrainConfig

MINIMAL = "input_dim = 26\nclasses = 5\n"

FULL = """
# emotion-style run
input_dim = 26
classes = 5
layer1.kind = clstm
layer1.features = 100
layer1.window = 5
layer1.shift = 2
layer1.pool = 2
layer1.pool_shift = 2
layer1.source = cell
layer1.reduction = last
layer2.kind = clstm
layer2.features = 100
layer2.window = 5
layer2.shift = 2
layer2.pool = 2
layer2.source = cell
layer2.reduction = last
classifier = lstm
classifier_dim = 256
dense_dim = 400
aggregation = last
aggregation_steps = 4
lr = 0.002
batch_size = 16
seed = 3
train_manifest = train.tsv
val_manifest = val.tsv
out_dir = runs/emotion
"""


class TestDefaults:
    def test_minimal_file_fills_documented_defaults(self):
        run = parse_config_text(MINIMAL)
        assert run.model.input_dim == 26 and run.model.num_classes == 5
        assert run.model.layers == ()
        assert run.model.classifier == "lstm"
        assert run.model.classifier_dim == 256
        assert run.model.dense_dim == 400
        assert run.model.aggregation == "all"
        assert run.train.lr == 0.002
        assert run.train.beta1 == 0.1
        assert run.train.beta2 == 0.001
        assert run.train.epsilon == 1e-8
        assert run.train.batch_size == 16
        assert run.train.patience == 12
        assert run.train.max_epochs == 100
        assert run.train.seed == 0
        assert run.balance is False and run.normalize is False
        assert run.train_manifest is None

    def test_full_file(self):
        run = parse_config_text(FULL)
        assert len(run.model.layers) == 2
        lc = run.model.layers[0]
        assert lc.kind == "clstm" and lc.features == 100
        assert lc.window == WindowSpec(5, 2) and lc.pool == WindowSpec(2, 2)
        assert run.model.aggregation == "last" and run.model.aggregation_steps == 4
        assert run.train.seed == 3
        assert run.out_dir == "runs/emotion"

    def test_pool_shift_defaults_to_pool_width(self):
        run = parse_config_text(FULL)
        assert run.model.layers[1].pool == WindowSpec(2, 2)


class TestErrors:
    def test_unknown_key_names_the_key(self):
        with pytest.raises(ConfigError, match="patienc"):
            parse_config_text(MINIMAL + "patienc = 12\n")

    def test_unknown_key_names_the_line(self):
        with pytest.raises(ConfigError, match=":3:"):
            parse_config_text(MINIMAL + "patienc = 12\n")

    def test_unknown_layer_subkey(self):
        with pytest.raises(ConfigError, match="layer1.widht"):
            parse_config_text(MINIMAL + "layer1.widht = 5\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="classes"):
            parse_config_text("input_dim = 26\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(MINIMAL + "classes = 4\n")

    def test_malformed_value_names_line(self):
        with pytest.raises(ConfigError, match=":3:.*integer"):
            parse_config_text(MINIMAL + "batch_size = sixteen\n")

    def test_line_without_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text(MINIMAL + "just words\n")

    def test_layer_gap_rejected(self):
        text = (MINIMAL + "layer2.kind = clstm\nlayer2.features = 4\n"
                "layer2.window = 3\nlayer2.shift = 2\n")
        with pytest.raises(ConfigError, match="layer2"):
            parse_config_text(text)

    def test_layer_missing_required_subkey(self):
        text = MINIMAL + "layer1.kind = clstm\nlayer1.features = 4\nlayer1.window = 3\n"
        with pytest.raises(ConfigError, match="layer1.shift"):
            parse_config_text(text)

    def test_pool_shift_without_pool(self):
        text = (MINIMAL + "layer1.kind = clstm\nlayer1.features = 4\n"
                "layer1.window = 3\nlayer1.shift = 2\nlayer1.pool_shift = 2\n")
        with pytest.raises(ConfigError, match="pool_shift"):
            parse_config_text(text)

    def test_rate_ranges_validated(self):
        with pytest.raises(ConfigError, match="lr"):
            parse_config_text(MINIMAL + "lr = 0\n")
        with pytest.raises(ConfigError, match="beta"):
            parse_config_text(MINIMAL + "beta1 = 1.5\n")

    def test_dims_validated(self):
        with pytest.raises(ConfigError):
            parse_config_text("input_dim = 0\nclasses = 5\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="true or false"):
            parse_config_text(MINIMAL + "balance = yes\n")

    def test_bad_layer_kind_mentions_layer(self):
        text = (MINIMAL + "layer1.kind = dense\nlayer1.features = 4\n"
                "layer1.window = 3\nlayer1.shift = 2\n")
        with pytest.raises(ConfigError, match="layer1"):
            parse_config_text(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "none.cfg")


class TestRender:
    @pytest.mark.parametrize("text", [MINIMAL, FULL])
    def test_round_trip(self, text):
        run = parse_config_text(text)
        rendered = render_config(run)
        assert parse_config_text(rendered) == run

    def test_render_is_canonical_fixed_point(self):
        run = parse_config_text(FULL)
        once = render_config(run)
        assert render_config(parse_config_text(once)) == once

    def test_conv_layer_renders_activation(self):
        text = (MINIMAL + "layer1.kind = conv\nlayer1.features = 4\n"
                "layer1.window = 3\nlayer1.shift = 2\nlayer1.activation = relu\n")
        run = parse_config_text(text)
        rendered = render_config(run)
        assert "layer1.activation = relu" in rendered
        assert parse_config_text(rendered) == run

    def test_hidden_dim_round_trips(self):
        text = (MINIMAL + "layer1.kind = cblstm\nlayer1.features = 4\n"
                "layer1.window = 3\nlayer1.shift = 2\nlayer1.source = hidden\n"
                "layer1.hidden_dim = 7\n")
        run = parse_config_text(text)
        assert run.model.layers[0].hidden_dim == 7
        assert parse_config_text(render_config(run)) == run

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(FULL)
        assert parse_config(p) == parse_config_text(FULL)


# Sidecars as earlier versions of render_config wrote them, layers in the
# middle; they must keep loading, and today's rendering writes the same lines.
AGE_GENDER_SIDECAR = """input_dim = 26
classes = 4
classifier = blstm
classifier_dim = 256
dense_dim = 400
aggregation = all
aggregation_steps = 4
layer1.kind = cblstm
layer1.features = 100
layer1.window = 5
layer1.shift = 2
layer1.pool = 2
layer1.pool_shift = 2
layer1.source = cell
layer1.reduction = max
layer1.hidden_dim = 100
lr = 0.002
beta1 = 0.1
beta2 = 0.001
epsilon = 1e-08
batch_size = 16
max_epochs = 100
patience = 12
seed = 0
balance = false
normalize = true
out_dir = runs/agegender
"""

EMOTION_SIDECAR = """input_dim = 26
classes = 5
classifier = lstm
classifier_dim = 256
dense_dim = 400
aggregation = last
aggregation_steps = 4
layer1.kind = clstm
layer1.features = 100
layer1.window = 5
layer1.shift = 2
layer1.pool = 2
layer1.pool_shift = 2
layer1.source = cell
layer1.reduction = last
layer2.kind = clstm
layer2.features = 100
layer2.window = 5
layer2.shift = 2
layer2.pool = 2
layer2.pool_shift = 2
layer2.source = cell
layer2.reduction = last
lr = 0.002
beta1 = 0.1
beta2 = 0.001
epsilon = 1e-08
batch_size = 16
max_epochs = 100
patience = 12
seed = 3
balance = false
normalize = false
train_manifest = train.tsv
"""

CONV_SIDECAR = """input_dim = 2
classes = 2
classifier = lstm
classifier_dim = 256
dense_dim = 400
aggregation = all
aggregation_steps = 4
layer1.kind = conv
layer1.features = 4
layer1.window = 3
layer1.shift = 2
layer1.activation = relu
lr = 0.002
beta1 = 0.1
beta2 = 0.001
epsilon = 1e-08
batch_size = 16
max_epochs = 100
patience = 12
seed = 0
balance = false
normalize = false
"""


def old_sidecar_runs():
    conv = CrnnLayerConfig(kind="conv", features=4, window=WindowSpec(3, 2),
                           activation="relu")
    return [
        (AGE_GENDER_SIDECAR, RunConfig(model=age_gender_model_config(), train=TrainConfig(),
                                       normalize=True, out_dir="runs/agegender")),
        (EMOTION_SIDECAR, RunConfig(model=emotion_model_config(), train=TrainConfig(seed=3),
                                    train_manifest="train.tsv")),
        (CONV_SIDECAR, RunConfig(model=ModelConfig(input_dim=2, num_classes=2, layers=(conv,)),
                                 train=TrainConfig())),
    ]


@pytest.mark.parametrize("text, run", old_sidecar_runs(),
                         ids=["agegender", "emotion", "conv"])
class TestOldSidecars:
    def test_parses_to_the_run_it_was_written_for(self, text, run):
        assert parse_config_text(text) == run

    def test_rendering_writes_the_same_lines(self, text, run):
        rendered = render_config(run)
        assert sorted(rendered.splitlines()) == sorted(text.splitlines())
