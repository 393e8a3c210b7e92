"""Configuration defaults, validation rules, and file/flag layering."""

import warnings

import numpy as np
import pytest

from toporec.config import (
    ConfigWarning,
    TrainConfig,
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


def test_numpy_dtype_mapping():
    assert TrainConfig().numpy_dtype() is np.float32
    assert TrainConfig(dtype="float64").numpy_dtype() is np.float64


def test_as_dict_listifies_tuples():
    d = TrainConfig().as_dict()
    assert d["eval_topn"] == [10, 20]
    assert d["lr"] == 1e-3
    assert TrainConfig(**{**d, "eval_topn": tuple(d["eval_topn"])}) == TrainConfig()


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
