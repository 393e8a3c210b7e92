"""Run configuration: defaults, INI-style file layering, grid checks.

Resolution order is defaults, then the config file, then command-line
flags. Values outside the supported search grids are accepted but
warned about; values no run can use are rejected when a `TrainConfig`
is made.
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
    "config_from_dict",
    "value_fits",
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
_DTYPES = {"float32": np.float32, "float64": np.float64}
# Fields whose smallest legal value is 0, and those whose smallest is 1.
_NON_NEGATIVE = ("seed", "lr", "l2_weight", "patience", "gcn_layers")
_POSITIVE = ("batch_size", "embed_dim", "hidden_dim", "depth", "knn_k", "prune_k",
             "max_epochs", "eval_stride")
# Fields outside any search grid that are warned about when not at their default.
_WARN_OFF_DEFAULT = ("temperature", "visual_weight", "knn_k", "gcn_layers", "batch_size",
                     "embed_dim", "hidden_dim", "dropout", "max_epochs", "patience")


@dataclass
class TrainConfig:
    """One run's settings. Making one (directly, by `dataclasses.replace`
    or from flags, an INI file or a run manifest) raises a ValueError on
    any value no run can use."""

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

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not value_fits(kind, value):
                raise ValueError(f"config key {name!r}: expected {_KINDS[kind][0]}, "
                                 f"got {value!r}")
        self.eval_topn = tuple(self.eval_topn)
        topn = self.eval_topn
        rules = [
            (name, getattr(self, name) >= least, f"be >= {least}")
            for least, names in ((0, _NON_NEGATIVE), (1, _POSITIVE))
            for name in names
        ]
        rules += [
            ("temperature", self.temperature > 0, "be positive"),
            ("prune_mode", self.prune_mode in PRUNE_MODES, f"be one of {PRUNE_MODES}"),
            ("na_anchor_mode", self.na_anchor_mode in ANCHOR_MODES, f"be one of {ANCHOR_MODES}"),
            ("visual_weight", 0.0 <= self.visual_weight <= 1.0, "be in [0, 1]"),
            ("na_weight", self.na_weight >= 0, "be non-negative"),
            ("dropout", 0.0 <= self.dropout < 1.0, "be in [0, 1)"),
            ("eval_topn", len(topn) > 0 and min(topn) >= 1, "hold at least one cutoff, each >= 1"),
            ("dtype", self.dtype in _DTYPES, "be float32 or float64"),
        ]
        # After the range rules, so NaN keeps their message.
        rules += [(name, np.isfinite(getattr(self, name)), "be finite")
                  for name, kind in _FIELD_TYPES.items() if kind == "float"]
        # Each rule tests what must hold, so NaN, which fails every comparison, breaks it.
        for name, ok, what in rules:
            if not ok:
                value = getattr(self, name)
                shown = repr(value) if isinstance(value, str) else value
                raise ValueError(f"{name} must {what}, got {shown}")
        if not self.modalities():
            raise ValueError("at least one modality must be enabled")

    def modalities(self):
        """The enabled modality tags, visual first."""
        return [tag for tag in ("visual", "textual") if getattr(self, f"use_{tag}")]

    def numpy_dtype(self):
        return _DTYPES[self.dtype]


def validate_config(cfg):
    """Warn about settings off the search grids or, for settings no grid
    covers, off their defaults; `TrainConfig` itself rejects bad values."""
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
    ]
    defaults = TrainConfig()
    for name in _WARN_OFF_DEFAULT:
        value, default = getattr(cfg, name), getattr(defaults, name)
        checks.append((value == default, f"{name}={value} differs from the default {default}"))
    for ok, message in checks:
        if not ok:
            warnings.warn(message, ConfigWarning)
    return cfg


_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}

# Field type -> (what it takes, check of a value, parser of flag or file text).
# `type(v) is int` turns bools away. "dict" and "list" are types of run
# manifest fields, which no flag or file sets.
_KINDS = {
    "int": ("an integer", lambda v: type(v) is int, int),
    "float": ("a number", lambda v: type(v) is int or isinstance(v, float), float),
    "bool": ("a boolean", lambda v: isinstance(v, bool),
             lambda t: configparser.ConfigParser.BOOLEAN_STATES[t.lower()]),
    "str": ("a string", lambda v: isinstance(v, str), str),
    "tuple": (
        "a list of integers",
        lambda v: isinstance(v, (list, tuple)) and all(type(n) is int for n in v),
        lambda t: tuple(int(p) for p in t.replace(",", " ").split()),
    ),
    "dict": ("an object", lambda v: isinstance(v, dict), None),
    "list": ("a list", lambda v: isinstance(v, list), None),
}


def value_fits(kind, value):
    """Whether `value` fits a field of declared type `kind`: an int counts
    as a float, and a bool as neither. A type with no rule here takes any
    value."""
    return kind not in _KINDS or _KINDS[kind][1](value)


def _parse(name, text):
    """A flag or config-file value as the type of field `name`; other values,
    and text that does not parse, stay as they are for config_from_dict."""
    if not isinstance(text, str):
        return text
    try:
        return _KINDS[_FIELD_TYPES.get(name, "str")][2](text.strip())
    except (KeyError, ValueError):
        return text


def config_from_dict(values, source="", base=None):
    """`base` (the defaults when None) with the fields in `values`.

    A ValueError, prefixed by `source` when given, rejects an unknown key
    and any value `TrainConfig` rejects.
    """
    prefix = f"{source}: " if source else ""
    for name in values:
        if name not in _FIELD_TYPES:
            raise ValueError(f"{prefix}unknown config key {name!r}")
    try:
        return replace(base or TrainConfig(), **values)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None


def load_config_file(path):
    """Read an INI config whose one section is [train]; returns its overrides."""
    parser = configparser.ConfigParser()
    train = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        if parser.defaults():
            raise ValueError(f"{path}: keys in [DEFAULT] are not read; put them under [train]")
        for section in parser.sections():
            if section != "train":
                raise ValueError(f"{path}: unknown config section [{section}]")
            train = {key: _parse(key, value) for key, value in parser.items(section)}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from None
    config_from_dict(train, path)
    return train


def resolve_config(file_overrides=None, flag_overrides=None):
    """Layer overrides onto the defaults and validate the result; text
    values are parsed as flags are, and None values are skipped."""
    cfg = TrainConfig()
    for layer in (file_overrides or {}, flag_overrides or {}):
        given = {key: _parse(key, value) for key, value in layer.items() if value is not None}
        cfg = config_from_dict(given, base=cfg)
    return validate_config(cfg)
