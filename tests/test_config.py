"""Configuration defaults, validation rules, and file/flag layering."""

import json
import re
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from toporec.config import (
    ConfigWarning,
    TrainConfig,
    config_from_dict,
    load_config_file,
    resolve_config,
    validate_config,
)


def test_defaults_validate_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = validate_config(TrainConfig())
    assert cfg.lr == 1e-3
    assert cfg.prune_k == 5
    assert cfg.eval_topn == (10, 20)


def test_hard_validation_errors():
    with pytest.raises(ValueError, match="temperature"):
        validate_config(TrainConfig(temperature=0.0))
    with pytest.raises(ValueError, match="prune_mode"):
        validate_config(TrainConfig(prune_mode="topk"))
    with pytest.raises(ValueError, match="na_anchor_mode"):
        validate_config(TrainConfig(na_anchor_mode="batch"))
    with pytest.raises(ValueError, match="modality"):
        validate_config(TrainConfig(use_visual=False, use_textual=False))
    with pytest.raises(ValueError, match="visual_weight"):
        validate_config(TrainConfig(visual_weight=1.5))
    with pytest.raises(ValueError, match="na_weight"):
        validate_config(TrainConfig(na_weight=-0.1))
    with pytest.raises(ValueError, match="dtype"):
        validate_config(TrainConfig(dtype="float16"))
    with pytest.raises(ValueError, match="batch_size"):
        validate_config(TrainConfig(batch_size=0))
    with pytest.raises(ValueError, match="eval_stride"):
        validate_config(TrainConfig(eval_stride=0))
    for topn in ((), (0, 20), (10, -1)):
        with pytest.raises(ValueError, match="eval_topn"):
            validate_config(TrainConfig(eval_topn=topn))
    # The rules hold for every TrainConfig, not only validated ones.
    bad = [
        ({"prune_mode": "TPS"}, "prune_mode must be one of ('tps', 'none', 'random'), got 'TPS'"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"lr": -0.01}, "lr must be >= 0, got -0.01"),
        ({"lr": float("nan")}, "lr must be >= 0, got nan"),
        ({"l2_weight": -0.1}, "l2_weight must be >= 0, got -0.1"),
        ({"patience": -1}, "patience must be >= 0, got -1"),
        ({"gcn_layers": -1}, "gcn_layers must be >= 0, got -1"),
        ({"embed_dim": 0}, "embed_dim must be >= 1, got 0"),
        ({"hidden_dim": 0}, "hidden_dim must be >= 1, got 0"),
        ({"depth": 0}, "depth must be >= 1, got 0"),
        ({"knn_k": 0}, "knn_k must be >= 1, got 0"),
        ({"prune_k": 0}, "prune_k must be >= 1, got 0"),
        ({"max_epochs": 0}, "max_epochs must be >= 1, got 0"),
        ({"dropout": 1.0}, "dropout must be in [0, 1), got 1.0"),
        ({"dropout": -0.5}, "dropout must be in [0, 1), got -0.5"),
        # Every float is finite; NaN keeps its range rule's message (above).
        ({"lr": float("inf")}, "lr must be finite, got inf"),
        ({"l2_weight": float("inf")}, "l2_weight must be finite, got inf"),
        ({"na_weight": float("inf")}, "na_weight must be finite, got inf"),
        ({"temperature": float("inf")}, "temperature must be finite, got inf"),
        # The type rule, whichever way the config is made.
        ({"batch_size": 2.5}, "config key 'batch_size': expected an integer, got 2.5"),
        ({"seed": 1.5}, "config key 'seed': expected an integer, got 1.5"),
        ({"eval_topn": (10.0,)}, "config key 'eval_topn': expected a list of integers"),
        ({"eval_topn": 5}, "config key 'eval_topn': expected a list of integers, got 5"),
        ({"use_visual": "no"}, "config key 'use_visual': expected a boolean, got 'no'"),
        ({"lr": "0.1"}, "config key 'lr': expected a number, got '0.1'"),
    ]
    for values, message in bad:
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(**values)
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(TrainConfig(), **values)
    edge = TrainConfig(seed=0, lr=0.0, patience=0, gcn_layers=0, dropout=0.5, eval_topn=[5])
    assert edge.eval_topn == (5,)


@pytest.mark.parametrize(
    "name", [f.name for f in fields(TrainConfig) if f.type in ("int", "float")]
)
def test_every_numeric_field_has_a_rule(name):
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        TrainConfig(**{name: -1})
    with pytest.raises(ValueError, match=rf"^run\.json: {name} must be "):
        config_from_dict({name: -1}, "run.json")
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        resolve_config(flag_overrides={name: "-1"})


def test_off_grid_values_warn_but_pass():
    with pytest.warns(ConfigWarning, match="lr=0.002"):
        validate_config(TrainConfig(lr=2e-3))
    with pytest.warns(ConfigWarning, match="depth=5"):
        validate_config(TrainConfig(depth=5))
    with pytest.warns(ConfigWarning, match="prune_k=11"):
        validate_config(TrainConfig(prune_k=11))
    with pytest.warns(ConfigWarning, match="na_weight=2.5"):
        validate_config(TrainConfig(na_weight=2.5))
    with pytest.warns(ConfigWarning, match="knn_k=7"):
        cfg = validate_config(TrainConfig(knn_k=7))
    assert cfg.knn_k == 7


def test_off_default_warnings_name_the_value_and_the_default():
    cfg = TrainConfig(temperature=0.5, visual_weight=0.2, knn_k=7, gcn_layers=3,
                      batch_size=64, embed_dim=8, hidden_dim=16, dropout=0.1,
                      max_epochs=5, patience=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        validate_config(cfg)
    assert [str(w.message) for w in caught] == [
        "temperature=0.5 differs from the default 1.0",
        "visual_weight=0.2 differs from the default 0.1",
        "knn_k=7 differs from the default 10",
        "gcn_layers=3 differs from the default 2",
        "batch_size=64 differs from the default 2048",
        "embed_dim=8 differs from the default 64",
        "hidden_dim=16 differs from the default 512",
        "dropout=0.1 differs from the default 0.0",
        "max_epochs=5 differs from the default 1000",
        "patience=2 differs from the default 20",
    ]
    assert all(w.category is ConfigWarning for w in caught)


def test_numpy_dtype_mapping():
    assert TrainConfig().numpy_dtype() is np.float32
    assert TrainConfig(dtype="float64").numpy_dtype() is np.float64


def test_config_roundtrips_through_json():
    # As a run manifest stores it: asdict, with eval_topn written as a list.
    d = json.loads(json.dumps(asdict(TrainConfig())))
    assert d["eval_topn"] == [10, 20]
    assert d["lr"] == 1e-3
    assert config_from_dict(d) == TrainConfig()


def test_flag_coercion():
    cfg = resolve_config(flag_overrides={"lr": "0.005", "use_visual": "false"})
    assert cfg.lr == 0.005
    assert cfg.use_visual is False
    cfg = resolve_config(flag_overrides={"eval_topn": "5, 15"})
    assert cfg.eval_topn == (5, 15)
    with pytest.raises(ValueError, match="boolean"):
        resolve_config(flag_overrides={"use_visual": "maybe"})
    with pytest.raises(ValueError, match="unknown config key"):
        resolve_config(flag_overrides={"learning_rate": 0.01})


def test_config_from_dict_checks_each_value_against_its_field():
    cfg = config_from_dict({"lr": 1, "eval_topn": [5, 15], "use_visual": False, "seed": 3})
    assert (cfg.lr, cfg.eval_topn, cfg.use_visual, cfg.seed) == (1, (5, 15), False, 3)
    assert config_from_dict(asdict(TrainConfig())) == TrainConfig()
    base = TrainConfig(seed=9)
    assert config_from_dict({"lr": 5e-4}, base=base) == TrainConfig(seed=9, lr=5e-4)
    bad = [
        ({"seed": True}, "config key 'seed': expected an integer, got True"),
        ({"embed_dim": 8.0}, "expected an integer"),
        ({"embed_dim": "8"}, "expected an integer"),
        ({"lr": "0.1"}, "config key 'lr': expected a number"),
        ({"lr": False}, "expected a number"),
        ({"use_visual": 1}, "expected a boolean"),
        ({"dtype": 32}, "expected a string"),
        ({"eval_topn": 5}, "expected a list of integers"),
        ({"eval_topn": [5, True]}, "expected a list of integers"),
        ({"eval_topn": None}, "expected a list of integers"),
        ({"hop_order": 1}, "run.json: unknown config key 'hop_order'"),
    ]
    for values, message in bad:
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict(values, "run.json")


def test_none_overrides_are_skipped():
    cfg = resolve_config(flag_overrides={"lr": None, "seed": 9})
    assert cfg.lr == 1e-3
    assert cfg.seed == 9


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[train]\n"
        "lr = 0.0005\n"
        "na_weight = 0.5\n"
        "eval_topn = 10, 20\n"
        "use_textual = yes\n"
    )
    train = load_config_file(path)
    assert train == {
        "lr": 0.0005,
        "na_weight": 0.5,
        "eval_topn": (10, 20),
        "use_textual": True,
    }
    cfg = resolve_config(file_overrides=train)
    assert cfg.lr == 0.0005


def test_config_file_rejects_unknown_entries(tmp_path):
    bad_key = tmp_path / "k.ini"
    bad_key.write_text("[train]\nlearning_rate = 0.1\n")
    with pytest.raises(ValueError, match="learning_rate"):
        load_config_file(bad_key)

    bad_value = tmp_path / "v.ini"
    bad_value.write_text("[train]\nembed_dim = wide\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad_value}: config key 'embed_dim'")):
        load_config_file(bad_value)

    out_of_range = tmp_path / "r.ini"
    out_of_range.write_text("[train]\nembed_dim = 0\n")
    with pytest.raises(ValueError, match=re.escape(f"{out_of_range}: embed_dim must be >= 1")):
        load_config_file(out_of_range)

    bad_section = tmp_path / "s.ini"
    bad_section.write_text("[model]\nlr = 0.1\n")
    with pytest.raises(ValueError, match="unknown config section"):
        load_config_file(bad_section)

    paths = tmp_path / "p.ini"
    paths.write_text("[train]\nlr = 0.001\n[paths]\ngraph = g.tmg\n")
    with pytest.raises(ValueError, match=r"unknown config section \[paths\]"):
        load_config_file(paths)


def test_layering_order_flags_beat_file():
    file_overrides = {"lr": 5e-4, "seed": 1}
    flag_overrides = {"lr": 5e-3}
    cfg = resolve_config(file_overrides, flag_overrides)
    assert cfg.lr == 5e-3  # flag wins
    assert cfg.seed == 1  # file survives where no flag is given
    assert cfg.batch_size == 2048  # default survives everywhere else
