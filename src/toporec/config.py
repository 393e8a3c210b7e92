"""Run configuration: defaults, INI-style file layering, grid checks.

Resolution order is defaults, then the config file, then command-line
flags. Values outside the supported search grids are accepted but
warned about; a few settings are hard requirements and raise instead.
"""

from __future__ import annotations

import configparser
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "TrainConfig",
    "ConfigWarning",
    "validate_config",
    "load_config_file",
    "resolve_config",
]


class ConfigWarning(UserWarning):
    pass


LR_GRID = (1e-4, 5e-4, 1e-3, 5e-3)
DEPTH_GRID = (2, 3, 4)
L2_GRID = (0.0, 1e-3, 1e-2, 1e-1)
PRUNE_K_RANGE = (3, 10)
NA_WEIGHT_RANGE = (0.0, 2.0)
PRUNE_MODES = ("tps", "none", "random")
ANCHOR_MODES = ("independent", "bpr_batch")


@dataclass
class TrainConfig:
    seed: int = 42
    lr: float = 1e-3
    batch_size: int = 2048
    embed_dim: int = 64
    hidden_dim: int = 512
    depth: int = 2
    gcn_layers: int = 2
    na_weight: float = 1.0
    temperature: float = 1.0
    l2_weight: float = 0.0
    dropout: float = 0.0
    visual_weight: float = 0.1
    knn_k: int = 10
    prune_k: int = 5
    prune_mode: str = "tps"
    use_visual: bool = True
    use_textual: bool = True
    binarize_knn: bool = True
    na_anchor_mode: str = "independent"
    na_on_modalities: bool = False
    max_epochs: int = 1000
    patience: int = 20
    eval_stride: int = 1
    eval_topn: tuple = (10, 20)
    dtype: str = "float32"

    def numpy_dtype(self):
        try:
            return {"float32": np.float32, "float64": np.float64}[self.dtype]
        except KeyError:
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}") from None

    def as_dict(self):
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def validate_config(cfg):
    """Raise on unsupported settings; warn when off the search grids."""
    if cfg.temperature <= 0:
        raise ValueError(f"temperature must be positive, got {cfg.temperature}")
    if cfg.prune_mode not in PRUNE_MODES:
        raise ValueError(f"prune_mode must be one of {PRUNE_MODES}, got {cfg.prune_mode!r}")
    if cfg.na_anchor_mode not in ANCHOR_MODES:
        raise ValueError(
            f"na_anchor_mode must be one of {ANCHOR_MODES}, got {cfg.na_anchor_mode!r}"
        )
    if not (cfg.use_visual or cfg.use_textual):
        raise ValueError("at least one modality must be enabled")
    if not 0.0 <= cfg.visual_weight <= 1.0:
        raise ValueError(f"visual_weight must be in [0, 1], got {cfg.visual_weight}")
    if cfg.na_weight < 0:
        raise ValueError(f"na_weight must be non-negative, got {cfg.na_weight}")
    if cfg.batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {cfg.batch_size}")
    if cfg.eval_stride < 1:
        raise ValueError(f"eval_stride must be >= 1, got {cfg.eval_stride}")
    if len(cfg.eval_topn) == 0 or min(cfg.eval_topn) < 1:
        raise ValueError(
            f"eval_topn must hold at least one cutoff, each >= 1, got {tuple(cfg.eval_topn)}"
        )
    cfg.numpy_dtype()

    checks = [
        (cfg.lr in LR_GRID, f"lr={cfg.lr} is outside the searched grid {LR_GRID}"),
        (cfg.depth in DEPTH_GRID, f"depth={cfg.depth} is outside the searched grid {DEPTH_GRID}"),
        (cfg.l2_weight in L2_GRID, f"l2_weight={cfg.l2_weight} is outside the searched grid {L2_GRID}"),
        (
            NA_WEIGHT_RANGE[0] <= cfg.na_weight <= NA_WEIGHT_RANGE[1],
            f"na_weight={cfg.na_weight} is outside the searched range {NA_WEIGHT_RANGE}",
        ),
        (
            PRUNE_K_RANGE[0] <= cfg.prune_k <= PRUNE_K_RANGE[1],
            f"prune_k={cfg.prune_k} is outside the searched range {PRUNE_K_RANGE}",
        ),
        (cfg.temperature == 1.0, f"temperature={cfg.temperature} differs from the default 1.0"),
        (cfg.visual_weight == 0.1, f"visual_weight={cfg.visual_weight} differs from the default 0.1"),
        (cfg.knn_k == 10, f"knn_k={cfg.knn_k} differs from the default 10"),
        (cfg.gcn_layers == 2, f"gcn_layers={cfg.gcn_layers} differs from the default 2"),
        (cfg.batch_size == 2048, f"batch_size={cfg.batch_size} differs from the default 2048"),
        (cfg.embed_dim == 64, f"embed_dim={cfg.embed_dim} differs from the default 64"),
        (cfg.hidden_dim == 512, f"hidden_dim={cfg.hidden_dim} differs from the default 512"),
        (cfg.dropout == 0.0, f"dropout={cfg.dropout} differs from the default 0.0"),
        (cfg.max_epochs == 1000, f"max_epochs={cfg.max_epochs} differs from the default 1000"),
        (cfg.patience == 20, f"patience={cfg.patience} differs from the default 20"),
    ]
    for ok, message in checks:
        if not ok:
            warnings.warn(message, ConfigWarning)
    return cfg


_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}


def _coerce(name, raw):
    if isinstance(raw, (int, float, bool, tuple)):
        return raw
    text = str(raw).strip()
    kind = _FIELD_TYPES[name]
    if name == "eval_topn":
        return tuple(int(p) for p in text.replace(",", " ").split())
    if kind == "bool":
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"config key {name!r}: expected a boolean, got {text!r}")
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    return text


def load_config_file(path):
    """Read an INI config whose one section is [train]; returns its overrides."""
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    train = {}
    for section in parser.sections():
        if section != "train":
            raise ValueError(f"{path}: unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}: unknown config key {key!r} in [train]")
            train[key] = _coerce(key, value)
    return train


def resolve_config(file_overrides=None, flag_overrides=None):
    """Layer overrides onto the defaults and validate the result."""
    cfg = TrainConfig()
    for layer in (file_overrides, flag_overrides):
        if not layer:
            continue
        clean = {}
        for key, value in layer.items():
            if value is None:
                continue
            if key not in _FIELD_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            clean[key] = _coerce(key, value)
        cfg = replace(cfg, **clean)
    return validate_config(cfg)
