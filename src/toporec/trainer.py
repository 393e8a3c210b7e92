"""Joint training: BPR plus graph alignment, early stopping, variants.

One epoch is ceil(train_edges / batch_size) sampled BPR batches. The
model is validated on Recall@20 every `eval_stride` epochs, the best
checkpoint is restored at the end, and training stops early after
`patience` validations (`patience * eval_stride` epochs) without
improvement. A validation pass also scores the `eval_topn` cutoffs; the
best epoch's validation metrics and embeddings are kept, so the test
pass scores them without a further forward pass. All randomness comes
from named generator streams spawned off the run seed, so reruns with
the same config are bit-identical. `fit` keeps a run's state in a
`_Run`: its fixed inputs (config, table, features, `s_ui`, `s_iu`,
positive graph) and what training changes (the six streams, the model's
weights and Adam state, the `RunManifest` record, and `best`, the best
validation's weights and embeddings).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import autograd as ag
from .config import TrainConfig, config_from_dict, validate_config, value_fits
from .data import ROLE_TEST, ROLE_TRAIN, ROLE_VAL, sample_bpr_triples, write_file
from .itemgraph import build_knn_graph, corrupt_graph, fuse_graphs, random_prune, tps_prune
from .metrics import evaluate
# build_na_batch, eligible_anchor_items and na_batch_from_items: unused here,
# wrapped by name in bench/spans.py.
from .model import (  # noqa: F401
    ModelConfig,
    MultimodalRecommender,
    build_na_batch,
    build_propagation_matrix,
    bpr_loss,
    eligible_anchor_items,
    joint_loss,
    na_batch_from_items,
    neighborhood_alignment_loss,
    positive_subgraph,
    sample_na_batch,
    slice_na_batch,
)
from .optim import adam_step, save_checkpoint

__all__ = [
    "VARIANTS",
    "RunManifest",
    "TrainingAborted",
    "variant_config",
    "rng_streams",
    "build_item_graph",
    "build_model",
    "data_hash",
    "fit",
    "run_variant",
    "ablate",
]

# Each ablation variant is the config fields it sets.
VARIANTS = {
    "full": {},
    "no_na": {"na_weight": 0.0},
    "no_prune": {"prune_mode": "none"},
    "rand_prune": {"prune_mode": "random"},
    "text_only": {"use_visual": False, "use_textual": True},
    "visual_only": {"use_visual": True, "use_textual": False},
}

_STREAM_NAMES = ("init", "negatives", "anchors", "dropout", "corruption", "graph")


class TrainingAborted(RuntimeError):
    """Raised when a non-finite loss is encountered."""


def variant_config(cfg, name):
    """Translate an ablation variant name into a config transform."""
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; expected one of {tuple(VARIANTS)}")
    return replace(cfg, **VARIANTS[name])


def rng_streams(seed):
    """Named, independent generator streams derived from one seed."""
    children = np.random.SeedSequence(seed).spawn(len(_STREAM_NAMES))
    return {name: np.random.default_rng(ss) for name, ss in zip(_STREAM_NAMES, children)}


def build_item_graph(cfg, features_visual, features_textual, corrupt_eps=0.0):
    """Modality kNN graphs, fusion, optional corruption, then pruning.

    Returns (supervision graph, fused graph, prune report or None). The
    corruption and random-prune draws come from this config's seed
    streams, so the whole construction is reproducible.
    """
    streams = rng_streams(cfg.seed)
    given = {"visual": features_visual, "textual": features_textual}
    parts = [build_knn_graph(given[tag], cfg.knn_k, binarize=cfg.binarize_knn)
             for tag in cfg.modalities()]
    fused = parts[0] if len(parts) == 1 else fuse_graphs(*parts, cfg.visual_weight)
    if corrupt_eps > 0.0:
        fused = corrupt_graph(fused, corrupt_eps, streams["corruption"])
    report = None
    if cfg.prune_mode == "tps":
        graph, report = tps_prune(fused, cfg.prune_k)
    elif cfg.prune_mode == "random":
        graph = random_prune(fused, cfg.prune_k, streams["graph"])
    else:
        graph = fused
    return graph, fused, report


@dataclass
class RunManifest:
    """One training run: `fit` fills it in as it trains; `save` writes the
    run directory and `load` is its one reader. Both `fit` and `load` set
    a `checkpoint_path` attribute, and `fit` a `model`; neither is saved."""

    config: TrainConfig
    data_hash: str
    feature_hashes: dict
    graph_hash: str
    num_users: int
    num_items: int
    visual_dim: int
    textual_dim: int
    epochs: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_r20: float = math.nan
    test_metrics: dict = field(default_factory=dict)
    val_metrics: dict = field(default_factory=dict)
    prepared_dir: str = ""
    graph_path: str = ""

    def save(self, out_dir):
        manifest = json.dumps(_nulls(asdict(self)), indent=2, sort_keys=True, allow_nan=False)
        write_file(os.path.join(out_dir, "manifest.json"), manifest, "\n")
        _write_table(os.path.join(out_dir, "epochs.csv"), "epoch",
                     ("loss_bpr", "loss_na", "val_r20", "val_n20"), self.epochs)

    @classmethod
    def load(cls, run_dir):
        """The run saved in run_dir, its config checked; the checkpoint is
        always run_dir's own, whatever path the file records."""
        path = os.path.join(run_dir, "manifest.json")
        if not os.path.exists(path):
            raise FileNotFoundError(f"run manifest not found at {path}; run `toporec train` first")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                saved = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if not isinstance(saved, dict) or not isinstance(saved.get("config"), dict):
            raise ValueError(f"{path}: not a run manifest (it has no config object)")
        values = {f.name: saved[f.name] for f in fields(cls) if f.name in saved}
        values["config"] = config_from_dict(saved["config"], path)
        # save writes each NaN as null.
        if values.get("best_val_r20", math.nan) is None:
            values["best_val_r20"] = math.nan
        for f in fields(cls):
            if f.name in values and not value_fits(f.type, values[f.name]):
                raise ValueError(f"{path}: not a run manifest ({f.name} is "
                                 f"{type(values[f.name]).__name__}, expected {f.type})")
        try:
            values["epochs"] = [{k: math.nan if v is None else v for k, v in row.items()}
                                for row in values.get("epochs", [])]
            run = cls(**values)
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"{path}: not a run manifest ({exc})") from None
        run.checkpoint_path = os.path.join(run_dir, "checkpoint.tmc")
        return run


def _write_table(path, key, cols, rows):
    """CSV of `rows` (dicts): column `key` as written, then each of `cols` as its repr."""
    write_file(path, f"{key},{','.join(cols)}\n",
               *(f"{row[key]},{','.join(repr(row[c]) for c in cols)}\n" for row in rows))


def _nulls(value):
    """value with each non-finite float as None, which JSON writes as null."""
    if isinstance(value, dict):
        return {k: _nulls(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nulls(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _sha256(*arrays):
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr))
    return digest.hexdigest()


def data_hash(table):
    """SHA-256 of a table's interactions and their split roles."""
    return _sha256(table.edges, table.roles)


_NAN_BATCH = "nan_batch.npz"  # the batch that made a run's loss non-finite


def build_model(cfg, table, features):
    """The untrained model for this config and data, plus its inputs.

    features maps modality name to a FeatureMatrix or array; only the
    modalities the config enables are used. Returns (model, feature
    dict cast to the config's dtype). Initial weights come from the
    seed's "init" stream, so a model rebuilt from the same config has
    the same parameter layout and starting values.
    """
    dtype = cfg.numpy_dtype()
    arrays = {
        tag: np.asarray(getattr(features[tag], "values", features[tag]), dtype=dtype)
        for tag in cfg.modalities()
    }
    model = MultimodalRecommender(
        ModelConfig(
            num_users=table.num_users,
            num_items=table.num_items,
            **{f"{tag}_dim": arr.shape[1] for tag, arr in arrays.items()},
            embed_dim=cfg.embed_dim,
            hidden_dim=cfg.hidden_dim,
            depth=cfg.depth,
            gcn_layers=cfg.gcn_layers,
            dropout=cfg.dropout,
            dtype=dtype,
        ),
        rng_streams(cfg.seed)["init"],
    )
    return model, arrays


def _metric_keys(cfg):
    """The metric names a run reports: recall and NDCG at each `eval_topn`
    cutoff, each name once."""
    return [f"{name}@{n}" for name in ("recall", "ndcg") for n in dict.fromkeys(cfg.eval_topn)]


class _Run:
    """One `fit` run: its fixed inputs and the state that training changes."""

    def __init__(self, cfg, table, features, na_graph, out_dir, prepared_dir, graph_path):
        cfg = validate_config(cfg)
        dtype = cfg.numpy_dtype()
        if cfg.na_weight > 0 and na_graph is None:
            raise ValueError("na_weight > 0 requires an item graph; pass `train --graph` the "
                             "output of `toporec build-graph` and `toporec prune`")
        if na_graph is not None and na_graph.num_nodes != table.num_items:
            where = f" {graph_path}" if graph_path else ""
            raise ValueError(f"item graph{where} has {na_graph.num_nodes} nodes, "
                             f"but the interactions have {table.num_items} items")
        self.cfg = cfg
        self.table = table
        self.out_dir = out_dir
        self.streams = rng_streams(cfg.seed)
        self.model, self.features = build_model(cfg, table, features)
        self.s_ui, self.s_iu = build_propagation_matrix(table, dtype)

        self.positive = positive_subgraph(na_graph, dtype) if cfg.na_weight > 0 else None
        if self.positive is not None and self.positive.nnz == 0:
            warnings.warn("supervision graph has no positive-weight edges; alignment disabled")
            self.positive = None

        n_train = len(table.role_edges(ROLE_TRAIN))
        self.steps = max(1, math.ceil(n_train / cfg.batch_size))
        self.has_val = (table.roles == ROLE_VAL).any()

        self.record = RunManifest(
            config=cfg,
            data_hash=data_hash(table),
            feature_hashes={tag: _sha256(arr) for tag, arr in self.features.items()},
            graph_hash="" if na_graph is None else _sha256(na_graph.indptr, na_graph.indices,
                                                           na_graph.weights),
            num_users=table.num_users,
            num_items=table.num_items,
            visual_dim=self.model.cfg.visual_dim,
            textual_dim=self.model.cfg.textual_dim,
            prepared_dir=prepared_dir,
            graph_path=graph_path,
        )
        self.record.model = self.model
        self.record.checkpoint_path = os.path.join(out_dir, "checkpoint.tmc") if out_dir else ""
        self.best = None
        if out_dir and os.path.exists(stale := os.path.join(out_dir, _NAN_BATCH)):
            os.remove(stale)  # an earlier run's dump does not describe this one

    def train_epoch(self, epoch):
        """One epoch of steps; returns its mean BPR and alignment losses."""
        cfg = self.cfg
        bpr_total = 0.0
        na_total = 0.0
        for step in range(self.steps):
            batch = sample_bpr_triples(self.table, cfg.batch_size, self.streams["negatives"])
            h_items, branches = self.model.encode_items(self.features, self.streams["dropout"])
            z_u, z_i = self.model.aggregate(h_items, self.s_ui, self.s_iu)
            l_bpr = bpr_loss(z_u, z_i, batch)
            l_na = None
            na_ids = None
            if self.positive is not None:
                if cfg.na_anchor_mode == "independent":
                    na = sample_na_batch(self.positive, self.streams["anchors"], cfg.batch_size)
                else:
                    ids = np.unique(np.concatenate([batch.pos_items, batch.neg_items]))
                    na = slice_na_batch(self.positive, ids, ids)
                na_ids, anchor_rows, na_weights = na
                tags = sorted(branches) if cfg.na_on_modalities else []
                for h in [h_items] + [branches[tag] for tag in tags]:
                    term = neighborhood_alignment_loss(
                        ag.gather_rows(h, na_ids), anchor_rows, na_weights, cfg.temperature
                    )
                    l_na = term if l_na is None else ag.add(l_na, term)
            loss = joint_loss(l_bpr, l_na, cfg.na_weight)
            if not np.isfinite(loss.values).all():
                self._abort(epoch, step, batch, na_ids)
            loss.backward()
            adam_step(self.model.params, cfg.lr, weight_decay=cfg.l2_weight)
            bpr_total += l_bpr.item()
            na_total += l_na.item() if l_na is not None else 0.0
        return bpr_total / self.steps, na_total / self.steps

    def _abort(self, epoch, step, batch, na_ids):
        message = f"non-finite loss at epoch {epoch} step {step}"
        if self.out_dir:
            buf = io.BytesIO()
            np.savez(
                buf,
                epoch=np.array([epoch]),
                step=np.array([step]),
                users=batch.users,
                pos_items=batch.pos_items,
                neg_items=batch.neg_items,
                na_items=na_ids if na_ids is not None else np.zeros(0, dtype=np.int64),
            )
            write_file(path := os.path.join(self.out_dir, _NAN_BATCH), buf.getbuffer())
            message += f"; offending batch dumped to {path}"
        raise TrainingAborted(message)

    def validate(self, epoch):
        """The val split's scores at the reported cutoffs and at 20 (a cutoff
        given twice scores once); a new best keeps its weights and embeddings."""
        z_users, z_items = self.model.embeddings(self.features, self.s_ui, self.s_iu)
        val = evaluate(z_users, z_items, self.table, "val", ns=(*self.cfg.eval_topn, 20))
        if self.record.best_epoch < 0 or val["recall@20"] > self.record.best_val_r20:
            self.record.best_val_r20 = float(val["recall@20"])
            self.record.best_epoch = epoch
            # Copies: with no LightGCN layer z_users is the user_embed
            # array, which the optimizer updates in place.
            self.best = (self.model.params.state_arrays(), z_users.copy(), z_items.copy())
            kept = {"split", "num_users", *_metric_keys(self.cfg)}
            self.record.val_metrics = {k: v for k, v in val.items() if k in kept}
        return val


def fit(cfg, table, features_visual, features_textual, na_graph=None, out_dir=None,
        prepared_dir="", graph_path=""):
    """Train one model; returns the RunManifest (with .model attached).

    na_graph is the item-item supervision graph, already pruned however
    the caller wanted; it is required whenever na_weight > 0.
    """
    state = _Run(cfg, table, {"visual": features_visual, "textual": features_textual},
                 na_graph, out_dir, prepared_dir, graph_path)
    run = state.record
    for epoch in range(cfg.max_epochs):
        loss_bpr, loss_na = state.train_epoch(epoch)
        val = state.validate(epoch) if state.has_val and epoch % cfg.eval_stride == 0 else {}
        run.epochs.append(
            {
                "epoch": epoch,
                "loss_bpr": loss_bpr,
                "loss_na": loss_na,
                "val_r20": val.get("recall@20", math.nan),
                "val_n20": val.get("ndcg@20", math.nan),
                "best_val_r20": run.best_val_r20,
            }
        )
        # Validations fall on the multiples of eval_stride from epoch 0, so
        # this counts the validations since the best one.
        if state.has_val and (epoch - run.best_epoch) // cfg.eval_stride >= cfg.patience:
            break

    model = state.model
    if state.best is not None:
        model.params.load_state(state.best[0])
    # With no validation split, the test pass scores the final weights.
    z = state.best[1:] if state.best else model.embeddings(state.features, state.s_ui, state.s_iu)
    if (table.roles == ROLE_TEST).any():
        run.test_metrics = evaluate(*z, table, "test", ns=cfg.eval_topn)
    if out_dir:
        save_checkpoint(run.checkpoint_path, model.params.state_arrays())
        run.save(out_dir)
    return run


def run_variant(name, cfg, table, features_visual, features_textual,
                out_dir=None, corrupt_eps=0.0, prepared_dir=""):
    """Build this variant's graphs and train it end to end; `prepared_dir`
    is recorded in the manifest, so `evaluate` can find the data."""
    vcfg = variant_config(cfg, name)
    graph = None
    if vcfg.na_weight > 0:
        graph, _, _ = build_item_graph(vcfg, features_visual, features_textual,
                                       corrupt_eps=corrupt_eps)
    return fit(vcfg, table, features_visual, features_textual, na_graph=graph, out_dir=out_dir,
               prepared_dir=prepared_dir)


def ablate(cfg, variants, table, features_visual, features_textual, out_dir=None,
           prepared_dir=""):
    """Train the requested variants and tabulate their test metrics: each
    row is the variant's name, then recall@N for each N in `eval_topn`,
    then ndcg@N for each."""
    # A bad list fails before any training.
    if not variants:
        raise ValueError(f"no variant given; expected some of {tuple(VARIANTS)}")
    for i, name in enumerate(variants):
        variant_config(cfg, name)
        if name in variants[:i]:
            raise ValueError(f"variant {name!r} is listed twice")
    cols = _metric_keys(cfg)
    rows = []
    for name in variants:
        run_dir = os.path.join(out_dir, name) if out_dir else None
        manifest = run_variant(name, cfg, table, features_visual, features_textual, run_dir,
                               prepared_dir=prepared_dir)
        metrics = manifest.test_metrics or manifest.val_metrics
        rows.append({"variant": name, **{c: metrics.get(c, math.nan) for c in cols}})
    if out_dir:
        _write_table(os.path.join(out_dir, "ablation.csv"), "variant", cols, rows)
    return rows
