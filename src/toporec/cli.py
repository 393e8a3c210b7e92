"""Command-line pipeline: prepare, build-graph, prune, corrupt, train,
evaluate, ablate, plus a synthetic-data generator for demos.

Progress goes to stderr as key=value lines; results land in files. Every
command exits 0 only when its artifacts were written and validated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .config import TrainConfig, load_config_file, resolve_config
from .data import (
    FeatureMatrix,
    load_features,
    load_interactions,
    load_prepared,
    make_split,
    save_features,
    save_prepared,
)
# build_knn_graph and fuse_graphs are unused here; bench/spans.py wraps them by name.
from .itemgraph import (  # noqa: F401
    build_knn_graph,
    corrupt_graph,
    fuse_graphs,
    load_graph,
    save_graph,
    tps_prune,
)
from .metrics import evaluate, write_metrics_csv, write_metrics_json
from .model import build_propagation_matrix
from .optim import load_checkpoint
from .synth import make_clustered_dataset
from .trainer import VARIANTS, ablate, build_item_graph, build_model, data_hash, fit


def _log(**kv):
    print(" ".join(f"{k}={v}" for k, v in kv.items()), file=sys.stderr)


def _require(path, what, hint):
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found at {path}; run `toporec {hint}` first")
    return path


def _add_train_flags(parser):
    for f in fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, default=None, metavar=f.name.upper())


def _collect_flag_overrides(args):
    return {f.name: getattr(args, f.name) for f in fields(TrainConfig) if hasattr(args, f.name)}


def _resolve(args):
    file_train = load_config_file(args.config) if getattr(args, "config", None) else {}
    return resolve_config(file_train, _collect_flag_overrides(args))


def cmd_synth(args):
    data = make_clustered_dataset(
        num_users=args.users,
        num_items=args.items,
        num_clusters=args.clusters,
        seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    inter = os.path.join(args.out, "interactions.txt")
    with open(inter, "w", encoding="utf-8") as fh:
        for u, i in data.table.edges:
            fh.write(f"{data.table.user_tokens[u]} {data.table.item_tokens[i]}\n")
    # `prepare` numbers items by first appearance in the interaction file
    # and reads feature row k as item k, so rows go out in that order;
    # items no user touched get no id and are left out.
    seen, first = np.unique(data.table.edges[:, 1], return_index=True)
    order = seen[np.argsort(first)]
    for features in (data.features_visual, data.features_textual):
        save_features(
            os.path.join(args.out, f"features_{features.modality}.tmf"),
            FeatureMatrix(features.modality, features.values[order]),
        )
    np.savetxt(
        os.path.join(args.out, "item_clusters.txt"),
        data.item_clusters[order],
        fmt="%d",
    )
    _log(event="synth", users=args.users, items=args.items, out=args.out)
    return 0


def cmd_prepare(args):
    table = load_interactions(_require(args.interactions, "interaction file", "synth"))
    if not table.has_roles():
        ratios = tuple(float(r) for r in args.ratios.split(","))
        table = make_split(table, ratios=ratios, seed=args.seed)
    fv = load_features(
        _require(args.features_visual, "visual feature file", "synth"),
        "visual",
        table.num_items,
    )
    ft = load_features(
        _require(args.features_textual, "textual feature file", "synth"),
        "textual",
        table.num_items,
    )
    stats = save_prepared(args.out, table, fv, ft)
    _log(event="prepare", out=args.out, **{k: v for k, v in stats.items() if k != "splits"})
    print(
        f"users={stats['users']} items={stats['items']} "
        f"interactions={stats['interactions']} sparsity={stats['sparsity_pct']:.2f}%"
    )
    return 0


def cmd_build_graph(args):
    cfg = _resolve(args)
    _, fv, ft = load_prepared(args.prepared)
    graph, _, _ = build_item_graph(replace(cfg, prune_mode="none"), fv, ft)
    save_graph(args.out, graph)
    _log(event="build_graph", nodes=graph.num_nodes, edges=graph.nnz, out=args.out)
    return 0


def cmd_prune(args):
    graph = load_graph(_require(args.graph, "graph file", "build-graph"))
    pruned, report = tps_prune(graph, args.k)
    save_graph(args.out, pruned)
    if args.report:
        report.to_csv(args.report)
    _log(
        event="prune",
        k=args.k,
        kept=report.total_kept(),
        dropped=report.total_dropped(),
        out=args.out,
    )
    return 0


def cmd_corrupt(args):
    graph = load_graph(_require(args.graph, "graph file", "build-graph"))
    noisy = corrupt_graph(graph, args.eps, args.seed)
    save_graph(args.out, noisy)
    # Rows are re-sorted after rewiring, so count the new (src, dst) pairs.
    src, dst, _ = graph.to_edges()
    noisy_src, noisy_dst, _ = noisy.to_edges()
    n = graph.num_nodes
    changed = len(np.setdiff1d(noisy_src * n + noisy_dst, src * n + dst))
    _log(event="corrupt", eps=args.eps, rewired=changed, edges=graph.nnz, out=args.out)
    return 0


def cmd_train(args):
    cfg = _resolve(args)
    table, fv, ft = load_prepared(args.prepared)
    graph = None
    if cfg.na_weight > 0:
        if not args.graph:
            raise ValueError(
                "na_weight > 0 needs --graph; run `toporec build-graph` and "
                "`toporec prune` first"
            )
        graph = load_graph(_require(args.graph, "graph file", "prune"))
    graph_path = os.path.abspath(args.graph) if args.graph else ""
    manifest = fit(cfg, table, fv, ft, na_graph=graph, out_dir=args.out,
                   prepared_dir=os.path.abspath(args.prepared), graph_path=graph_path)
    _log(
        event="train",
        epochs=len(manifest.epochs),
        best_epoch=manifest.best_epoch,
        best_val_r20=manifest.best_val_r20,
        out=args.out,
    )
    for key, value in sorted((manifest.test_metrics or {}).items()):
        if "@" in str(key):
            print(f"test {key} {value:.6f}")
    return 0


def cmd_evaluate(args):
    manifest_path = _require(os.path.join(args.run, "manifest.json"), "run manifest", "train")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ValueError(f"{manifest_path}: not a run manifest (it has no config object)")
    prepared = args.prepared or manifest.get("prepared_dir")
    if not prepared:
        raise ValueError("manifest has no prepared_dir; pass --prepared")
    cfg_dict = dict(manifest["config"])
    unknown = sorted(set(cfg_dict) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise ValueError(
            f"{manifest_path}: config keys {unknown} are not settings of this "
            "toporec version; retrain the run"
        )
    cfg_dict["eval_topn"] = tuple(cfg_dict.get("eval_topn", (10, 20)))
    cfg = TrainConfig(**cfg_dict)
    table, fv, ft = load_prepared(prepared)
    if data_hash(table) != manifest.get("data_hash"):
        raise ValueError(
            f"prepared directory {prepared} holds other interactions or splits than "
            f"the run was trained on (data_hash differs from {manifest_path})"
        )
    model, features = build_model(cfg, table, {"visual": fv, "textual": ft})
    local_ckpt = os.path.join(args.run, "checkpoint.tmc")
    ckpt = _require(
        local_ckpt if os.path.exists(local_ckpt) else manifest.get("checkpoint_path", ""),
        "checkpoint",
        "train",
    )
    model.params.load_state(load_checkpoint(ckpt))
    s_ui, s_iu = build_propagation_matrix(table, cfg.numpy_dtype())
    z_users, z_items = model.embeddings(features, s_ui, s_iu)
    metrics = evaluate(z_users, z_items, table, args.split, ns=cfg.eval_topn)
    out_base = args.out or os.path.join(args.run, f"metrics_{args.split}")
    write_metrics_csv(out_base + ".csv", metrics)
    write_metrics_json(out_base + ".json", metrics)
    _log(event="evaluate", split=args.split, users=metrics["num_users"], out=out_base + ".csv")
    for key, value in sorted(metrics.items()):
        if "@" in str(key):
            print(f"{args.split} {key} {value:.6f}")
    return 0


def cmd_ablate(args):
    cfg = _resolve(args)
    table, fv, ft = load_prepared(args.prepared)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    for v in variants:
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}; expected one of {VARIANTS}")
    rows = ablate(cfg, variants, table, fv, ft, out_dir=args.out)
    _log(event="ablate", variants=",".join(variants), out=args.out)
    header = f"{'variant':<12} {'R@10':>8} {'R@20':>8} {'N@10':>8} {'N@20':>8}"
    print(header)
    for row in rows:
        print(
            f"{row['variant']:<12} {row['recall@10']:>8.4f} {row['recall@20']:>8.4f} "
            f"{row['ndcg@10']:>8.4f} {row['ndcg@20']:>8.4f}"
        )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toporec",
        description="Multimodal recommendation with topology-pruned item graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic clustered dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--users", type=int, default=300)
    p.add_argument("--items", type=int, default=100)
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="index, split, and validate a dataset")
    p.add_argument("--interactions", required=True)
    p.add_argument("--features-visual", required=True)
    p.add_argument("--features-textual", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("build-graph", help="build (and fuse) modality kNN graphs")
    p.add_argument("--prepared", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    _add_train_flags(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("prune", help="keep the top-K edges by topological similarity")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--report", help="write per-node prune stats CSV here")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("corrupt", help="randomly rewire a fraction of edges")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("--prepared", required=True)
    p.add_argument("--graph", help="item graph for the alignment loss")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a finished run on val or test")
    p.add_argument("--run", required=True)
    p.add_argument("--split", choices=("val", "test"), default="test")
    p.add_argument("--prepared", help="override the prepared dir recorded in the manifest")
    p.add_argument("--out", help="output path base (writes .csv and .json)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train and compare ablation variants")
    p.add_argument("--prepared", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variants", default=",".join(VARIANTS))
    p.add_argument("--config")
    _add_train_flags(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, OSError) as exc:
        _log(event="error", command=args.command)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
