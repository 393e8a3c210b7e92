"""Joint training: BPR plus graph alignment, early stopping, variants.

One epoch is ceil(train_edges / batch_size) sampled BPR batches. The
model is validated on Recall@20 every `eval_stride` epochs, the best
checkpoint is restored at the end, and training stops early after
`patience` validations (`patience * eval_stride` epochs) without
improvement. All randomness comes from named generator streams spawned
off the run seed, so reruns with the same config are bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .config import TrainConfig, validate_config
from .data import ROLE_TEST, ROLE_TRAIN, ROLE_VAL, sample_bpr_triples
from .itemgraph import build_knn_graph, corrupt_graph, fuse_graphs, random_prune, tps_prune
from .metrics import evaluate
from .model import (
    ModelConfig,
    MultimodalRecommender,
    build_na_batch,
    build_propagation_matrix,
    bpr_loss,
    eligible_anchor_items,
    joint_loss,
    na_batch_from_items,
    neighborhood_alignment_loss,
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

VARIANTS = ("full", "no_na", "no_prune", "rand_prune", "text_only", "visual_only")

_STREAM_NAMES = ("init", "negatives", "anchors", "dropout", "corruption", "graph")


class TrainingAborted(RuntimeError):
    """Raised when a non-finite loss is encountered."""


def variant_config(cfg, name):
    """Translate an ablation variant name into a config transform."""
    from dataclasses import replace

    if name == "full":
        return replace(cfg)
    if name == "no_na":
        return replace(cfg, na_weight=0.0)
    if name == "no_prune":
        return replace(cfg, prune_mode="none")
    if name == "rand_prune":
        return replace(cfg, prune_mode="random")
    if name == "text_only":
        return replace(cfg, use_visual=False, use_textual=True)
    if name == "visual_only":
        return replace(cfg, use_visual=True, use_textual=False)
    raise ValueError(f"unknown variant {name!r}; expected one of {VARIANTS}")


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
    parts = []
    if cfg.use_visual:
        parts.append(build_knn_graph(features_visual, cfg.knn_k, binarize=cfg.binarize_knn))
    if cfg.use_textual:
        parts.append(build_knn_graph(features_textual, cfg.knn_k, binarize=cfg.binarize_knn))
    if not parts:
        raise ValueError("at least one modality must be enabled")
    if len(parts) == 2:
        fused = fuse_graphs(parts[0], parts[1], cfg.visual_weight)
    else:
        fused = parts[0]
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
    """Everything needed to audit or reload one training run."""

    config: dict
    seed: int
    data_hash: str
    feature_hashes: dict
    graph_hash: str
    num_users: int
    num_items: int
    visual_dim: int
    textual_dim: int
    epochs: list
    best_epoch: int
    best_val_r20: float
    checkpoint_path: str
    test_metrics: dict
    val_metrics: dict
    prepared_dir: str = ""
    graph_path: str = ""
    model: object = field(default=None, repr=False, compare=False)

    def to_dict(self):
        out = {k: v for k, v in self.__dict__.items() if k != "model"}
        return out

    def save(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(out_dir, "epochs.csv"), "w", encoding="utf-8") as fh:
            fh.write("epoch,loss_bpr,loss_na,val_r20,val_n20\n")
            for row in self.epochs:
                fh.write(
                    f"{row['epoch']},{row['loss_bpr']!r},{row['loss_na']!r},"
                    f"{row['val_r20']!r},{row['val_n20']!r}\n"
                )


def _sha256(*arrays):
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def data_hash(table):
    """SHA-256 of a table's interactions and their split roles."""
    return _sha256(table.edges, table.roles)


def _graph_hash(graph):
    if graph is None:
        return ""
    return _sha256(graph.indptr, graph.indices, graph.weights)


def _dump_bad_batch(out_dir, epoch, step, batch, na_ids):
    if not out_dir:
        return ""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "nan_batch.npz")
    np.savez(
        path,
        epoch=np.array([epoch]),
        step=np.array([step]),
        users=batch.users,
        pos_items=batch.pos_items,
        neg_items=batch.neg_items,
        na_items=na_ids if na_ids is not None else np.zeros(0, dtype=np.int64),
    )
    return path


def build_model(cfg, table, features):
    """The untrained model for this config and data, plus its inputs.

    features maps modality name to a FeatureMatrix or array; only the
    modalities the config enables are used. Returns (model, feature
    dict cast to the config's dtype). Initial weights come from the
    seed's "init" stream, so a model rebuilt from the same config has
    the same parameter layout and starting values.
    """
    dtype = cfg.numpy_dtype()
    enabled = [tag for tag, use in (("visual", cfg.use_visual), ("textual", cfg.use_textual)) if use]
    arrays = {
        tag: np.asarray(getattr(features[tag], "values", features[tag]), dtype=dtype)
        for tag in enabled
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


def fit(cfg, table, features_visual, features_textual, na_graph=None, out_dir=None):
    """Train one model; returns the RunManifest (with .model attached).

    na_graph is the item-item supervision graph, already pruned however
    the caller wanted; it is required whenever na_weight > 0.
    """
    cfg = validate_config(cfg)
    dtype = cfg.numpy_dtype()
    if cfg.na_weight > 0 and na_graph is None:
        raise ValueError("na_weight > 0 requires an item graph; build and prune one first")

    streams = rng_streams(cfg.seed)
    model, features = build_model(
        cfg, table, {"visual": features_visual, "textual": features_textual}
    )
    s_ui, s_iu = build_propagation_matrix(table, dtype)

    use_na = cfg.na_weight > 0
    eligible = None
    if use_na:
        eligible = eligible_anchor_items(na_graph)
        if len(eligible) == 0:
            warnings.warn("supervision graph has no positive-weight edges; alignment disabled")
            use_na = False

    n_train = len(table.role_edges(ROLE_TRAIN))
    steps_per_epoch = max(1, math.ceil(n_train / cfg.batch_size))
    has_val = (table.roles == ROLE_VAL).any()
    has_test = (table.roles == ROLE_TEST).any()

    epoch_rows = []
    best_val = -np.inf
    best_epoch = -1
    best_state = None
    since_best = 0
    checkpoint_path = os.path.join(out_dir, "checkpoint.tmc") if out_dir else ""

    for epoch in range(cfg.max_epochs):
        bpr_total = 0.0
        na_total = 0.0
        for step in range(steps_per_epoch):
            batch = sample_bpr_triples(table, cfg.batch_size, streams["negatives"])
            z_u, z_i, h_items = model.forward(
                features, s_ui, s_iu, train_mode=True, rng=streams["dropout"]
            )
            l_bpr = bpr_loss(z_u, z_i, batch)
            l_na = None
            na_ids = None
            if use_na:
                if cfg.na_anchor_mode == "independent":
                    na = build_na_batch(
                        na_graph, streams["anchors"], cfg.batch_size, eligible, dtype
                    )
                else:
                    pool = np.concatenate([batch.pos_items, batch.neg_items])
                    na = na_batch_from_items(na_graph, pool, dtype)
                if na is not None:
                    na_ids, anchor_rows, na_weights = na
                    terms = [
                        neighborhood_alignment_loss(
                            ag.gather_rows(h_items, na_ids),
                            anchor_rows,
                            na_weights,
                            cfg.temperature,
                        )
                    ]
                    if cfg.na_on_modalities:
                        _, branches = model.encode_items(
                            features, train_mode=True, rng=streams["dropout"],
                            return_branches=True,
                        )
                        for tag in sorted(branches):
                            terms.append(
                                neighborhood_alignment_loss(
                                    ag.gather_rows(branches[tag], na_ids),
                                    anchor_rows,
                                    na_weights,
                                    cfg.temperature,
                                )
                            )
                    l_na = terms[0]
                    for extra in terms[1:]:
                        l_na = ag.add(l_na, extra)
            loss = joint_loss(l_bpr, l_na, cfg.na_weight)
            if not np.isfinite(loss.values).all():
                dump = _dump_bad_batch(out_dir, epoch, step, batch, na_ids)
                raise TrainingAborted(
                    f"non-finite loss at epoch {epoch} step {step}"
                    + (f"; offending batch dumped to {dump}" if dump else "")
                )
            model.params.zero_grad()
            loss.backward()
            adam_step(model.params, cfg.lr, weight_decay=cfg.l2_weight)
            bpr_total += l_bpr.item()
            na_total += l_na.item() if l_na is not None else 0.0

        val_r20 = math.nan
        val_n20 = math.nan
        if has_val and epoch % cfg.eval_stride == 0:
            z_users, z_items = model.embeddings(features, s_ui, s_iu)
            val = evaluate(z_users, z_items, table, "val", ns=(20,))
            val_r20 = val["recall@20"]
            val_n20 = val["ndcg@20"]
            if val_r20 > best_val:
                best_val = val_r20
                best_epoch = epoch
                best_state = model.params.state_arrays()
                since_best = 0
            else:
                since_best += 1
        epoch_rows.append(
            {
                "epoch": epoch,
                "loss_bpr": bpr_total / steps_per_epoch,
                "loss_na": na_total / steps_per_epoch,
                "val_r20": val_r20,
                "val_n20": val_n20,
                "best_val_r20": best_val if best_val > -np.inf else math.nan,
            }
        )
        if has_val and since_best >= cfg.patience:
            break

    if best_state is not None:
        model.params.load_state(best_state)
    if checkpoint_path:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(checkpoint_path, model.params.state_arrays())

    val_metrics = {}
    test_metrics = {}
    z_users, z_items = model.embeddings(features, s_ui, s_iu)
    if has_val:
        val_metrics = evaluate(z_users, z_items, table, "val", ns=cfg.eval_topn)
    if has_test:
        test_metrics = evaluate(z_users, z_items, table, "test", ns=cfg.eval_topn)

    manifest = RunManifest(
        config=cfg.as_dict(),
        seed=cfg.seed,
        data_hash=data_hash(table),
        feature_hashes={
            tag: _sha256(arr) for tag, arr in features.items()
        },
        graph_hash=_graph_hash(na_graph),
        num_users=table.num_users,
        num_items=table.num_items,
        visual_dim=model.cfg.visual_dim,
        textual_dim=model.cfg.textual_dim,
        epochs=epoch_rows,
        best_epoch=best_epoch,
        best_val_r20=float(best_val) if best_val > -np.inf else math.nan,
        checkpoint_path=checkpoint_path,
        test_metrics=test_metrics,
        val_metrics=val_metrics,
        model=model,
    )
    if out_dir:
        manifest.save(out_dir)
    return manifest


def run_variant(name, cfg, table, features_visual, features_textual,
                out_dir=None, corrupt_eps=0.0):
    """Build this variant's graphs and train it end to end."""
    vcfg = variant_config(cfg, name)
    fv = features_visual if vcfg.use_visual else None
    ft = features_textual if vcfg.use_textual else None
    graph = None
    if vcfg.na_weight > 0:
        graph, _, _ = build_item_graph(vcfg, fv, ft, corrupt_eps=corrupt_eps)
    return fit(vcfg, table, fv, ft, na_graph=graph, out_dir=out_dir)


def ablate(cfg, variants, table, features_visual, features_textual, out_dir=None):
    """Train the requested variants and tabulate their test metrics."""
    rows = []
    for name in variants:
        run_dir = os.path.join(out_dir, name) if out_dir else None
        manifest = run_variant(name, cfg, table, features_visual, features_textual, run_dir)
        metrics = manifest.test_metrics or manifest.val_metrics
        rows.append(
            {
                "variant": name,
                "recall@10": metrics.get("recall@10", math.nan),
                "recall@20": metrics.get("recall@20", math.nan),
                "ndcg@10": metrics.get("ndcg@10", math.nan),
                "ndcg@20": metrics.get("ndcg@20", math.nan),
            }
        )
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "ablation.csv"), "w", encoding="utf-8") as fh:
            fh.write("variant,recall@10,recall@20,ndcg@10,ndcg@20\n")
            for row in rows:
                fh.write(
                    f"{row['variant']},{row['recall@10']!r},{row['recall@20']!r},"
                    f"{row['ndcg@10']!r},{row['ndcg@20']!r}\n"
                )
    return rows
