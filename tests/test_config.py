import dataclasses

import pytest

from otsheaf.config import (
    REGISTRY,
    RunConfig,
    build_config,
    coerce,
    default_values,
    parse_config_file,
    parse_overrides,
)
from otsheaf.graphs import make_split, synthetic_dataset
from otsheaf.training import Dataset, TrainConfig, init_state


class TestCoercion:
    def test_every_registered_key_has_a_default(self):
        values = default_values()
        assert set(values) == set(REGISTRY)

    def test_int_float_parsing(self):
        assert coerce("seed", "7") == 7
        assert coerce("ot.eps", "0.05") == pytest.approx(0.05)

    def test_optional_edge_dimension(self):
        assert coerce("train.d_e", "none") is None
        assert coerce("train.d_e", "4") == 4

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(KeyError, match="ot.epss"):
            coerce("ot.epss", "0.1")

    def test_unparseable_value_names_the_key(self):
        with pytest.raises(ValueError, match="train.epochs"):
            coerce("train.epochs", "many")


class TestConfigFile:
    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# experiment\n\not.eps = 0.05  # tight lift\nseed=3\n")
        values = parse_config_file(p)
        assert values == {"ot.eps": 0.05, "seed": 3}

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\njust words\n")
        with pytest.raises(ValueError, match=":2"):
            parse_config_file(p)

    def test_unknown_key_in_file_rejected(self, tmp_path):
        # a misspelled key, and removed ones
        for key, text in (("train.lerning_rate", "0.1"),
                          ("train.lambda_kl", "0.1"),
                          ("train.fd_check", "true")):
            p = tmp_path / "run.cfg"
            p.write_text(f"{key} = {text}\n")
            with pytest.raises(KeyError, match=key):
                parse_config_file(p)


class TestOverrides:
    def test_flag_overrides_parse(self):
        assert parse_overrides(["seed=5", "train.lr=0.01"]) == {
            "seed": 5, "train.lr": 0.01}

    def test_removed_tau_key_is_rejected(self):
        with pytest.raises(KeyError, match="ot.tau"):
            build_config(overrides=["ot.tau=1"])

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_overrides(["seed"])


class TestBuildConfig:
    def test_precedence_defaults_file_flags(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\ntrain.lr = 0.5\n")
        cfg = build_config(p, overrides=["train.lr=0.25"])
        assert cfg.seed == 1                      # file beats default
        assert cfg["train.lr"] == 0.25            # flag beats file
        assert cfg["train.epochs"] == 200         # untouched default

    def test_train_config_mapping(self):
        cfg = build_config(overrides=[
            "ot.eps=0.07", "seed=9", "train.d_v=5"])
        tc = cfg.train_config()
        assert tc.lift_eps == pytest.approx(0.07)
        assert tc.seed == 9
        assert tc.d_v == 5
        # the unset edge dimension stays unset and follows d_v where
        # init_state draws W_theta
        assert tc.d_e is None
        g, feats, labels = synthetic_dataset(n=12, num_classes=2, d0=3, seed=0)
        data = Dataset(g, feats, labels, make_split(labels, 2, seed=0))
        assert init_state(data, tc).params.W_theta.shape == (5, 5)

    def test_defaults_are_train_config_defaults(self):
        # the trainer's keys are read off TrainConfig, one per field
        assert build_config().train_config() == TrainConfig()
        assert len(REGISTRY) == 3 + len(dataclasses.fields(TrainConfig))

    def test_hash_stable_and_value_sensitive(self):
        a = RunConfig(values=default_values(), out_dir="runs")
        b = RunConfig(values=default_values(), out_dir="elsewhere")
        assert a.hash() == b.hash()   # digest covers values, not paths
        c = build_config(overrides=["seed=1"])
        assert c.hash() != a.hash()
