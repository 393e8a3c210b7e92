"""Command-line pipeline: prepare, build-graph, prune, corrupt, train,
evaluate, ablate, plus a synthetic-data generator for demos.

Progress goes to stderr as key=value lines; results land in files. Every
command exits 0 only when its artifacts were written and validated.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import fields, replace

import numpy as np

from .config import ConfigWarning, TrainConfig, load_config_file, resolve_config, validate_config
from .data import (
    FeatureMatrix,
    load_features,
    load_interactions,
    load_prepared,
    make_split,
    save_features,
    save_prepared,
    write_file,
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
from .trainer import (
    VARIANTS, RunManifest, TrainingAborted, ablate, build_item_graph, build_model,
    data_hash, fit,
)


def _line(**kv):
    return " ".join(f"{k}={v}" for k, v in kv.items())


def _log(**kv):
    print(_line(**kv), file=sys.stderr)


def _print_metrics(split, metrics):
    """One `<split> <key> <value>` stdout line per cutoff metric, in key order."""
    for key, value in sorted(metrics.items()):
        if "@" in key:
            print(f"{split} {key} {value:.6f}")


def _require(path, what, hint):
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found at {path}; run `toporec {hint}` first")
    return path


# The TrainConfig fields `build_item_graph` reads with pruning off, and
# so the only ones `build-graph` takes as flags.
GRAPH_FIELDS = ("use_visual", "use_textual", "knn_k", "binarize_knn", "visual_weight")


def _add_train_flags(parser, names=tuple(f.name for f in fields(TrainConfig))):
    for name in names:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, default=None, metavar=name.upper())


def _seed(text):
    """A --seed value, held to TrainConfig's rule for `seed`."""
    try:
        return TrainConfig(seed=int(text)).seed
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _resolve(args, names=None):
    """The command's config. A file key outside `names` (when given) is
    checked but not applied, so it draws no ConfigWarning from a command
    that never reads it."""
    file_train = load_config_file(args.config) if getattr(args, "config", None) else {}
    if names is not None:
        file_train = {key: value for key, value in file_train.items() if key in names}
    flags = {f.name: getattr(args, f.name) for f in fields(TrainConfig) if hasattr(args, f.name)}
    return resolve_config(file_train, flags)


def cmd_synth(args):
    data = make_clustered_dataset(
        num_users=args.users,
        num_items=args.items,
        num_clusters=args.clusters,
        seed=args.seed,
    )
    users, items = data.table.user_tokens, data.table.item_tokens
    lines = "".join(f"{users[u]} {items[i]}\n" for u, i in data.table.edges.tolist())
    write_file(os.path.join(args.out, "interactions.txt"), lines)
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
    clusters = "".join(f"{c}\n" for c in data.item_clusters[order].tolist())
    write_file(os.path.join(args.out, "item_clusters.txt"), clusters)
    _log(event="synth", users=args.users, items=args.items, out=args.out)
    return 0


def cmd_prepare(args):
    table = load_interactions(_require(args.interactions, "interaction file", "synth"))
    if table.has_roles():
        for flag, value in (("--ratios", args.ratios), ("--seed", args.seed)):
            if value is not None:
                raise ValueError(f"{flag} {value}: {args.interactions} already has a split "
                                 "column; drop the flag or the column")
    else:
        ratios = "0.8,0.1,0.1" if args.ratios is None else args.ratios
        seed = 42 if args.seed is None else args.seed
        try:
            table = make_split(table, ratios=ratios.split(","), seed=seed)
        except ValueError as exc:
            raise ValueError(f"--ratios {ratios}: {exc}") from None
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
    cfg = _resolve(args, GRAPH_FIELDS)
    _, fv, ft = load_prepared(args.prepared)
    graph, _, _ = build_item_graph(replace(cfg, prune_mode="none"), fv, ft)
    save_graph(args.out, graph)
    _log(event="build_graph", nodes=graph.num_nodes, edges=graph.nnz, out=args.out)
    return 0


def cmd_prune(args):
    # --k is `prune_k`, so it takes that field's rule and grid warning.
    validate_config(TrainConfig(prune_k=args.k))
    graph = load_graph(_require(args.graph, "graph file", "build-graph"))
    pruned, report = tps_prune(graph, args.k)
    save_graph(args.out, pruned)
    if args.report:
        report.to_csv(args.report)
    _log(
        event="prune",
        k=args.k,
        kept=int(report.kept.sum()),
        dropped=int(report.dropped.sum()),
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
    graph, graph_path = None, ""
    if cfg.na_weight > 0 and args.graph:
        graph = load_graph(_require(args.graph, "graph file", "prune"))
        graph_path = os.path.abspath(args.graph)
    manifest = fit(cfg, table, fv, ft, na_graph=graph, out_dir=args.out,
                   prepared_dir=os.path.abspath(args.prepared), graph_path=graph_path)
    _log(
        event="train",
        epochs=len(manifest.epochs),
        best_epoch=manifest.best_epoch,
        best_val_r20=manifest.best_val_r20,
        out=args.out,
    )
    _print_metrics("test", manifest.test_metrics)
    return 0


def cmd_evaluate(args):
    manifest = RunManifest.load(args.run)
    prepared = args.prepared or manifest.prepared_dir
    if not prepared:
        raise ValueError("manifest has no prepared_dir; pass --prepared")
    cfg = manifest.config
    table, fv, ft = load_prepared(prepared)
    if data_hash(table) != manifest.data_hash:
        raise ValueError(
            f"prepared directory {prepared} holds other interactions or splits than "
            f"the run was trained on (data_hash differs from the manifest in {args.run})"
        )
    for feats in (fv, ft):
        dim = getattr(manifest, f"{feats.modality}_dim")
        if feats.modality in cfg.modalities() and feats.dim != dim:
            raise ValueError(
                f"prepared directory {prepared} holds {feats.dim}-d {feats.modality} features, "
                f"but the manifest in {args.run} records {feats.modality}_dim {dim}"
            )
    model, features = build_model(cfg, table, {"visual": fv, "textual": ft})
    ckpt = _require(manifest.checkpoint_path, "checkpoint", "train")
    model.params.load_state(load_checkpoint(ckpt))
    s_ui, s_iu = build_propagation_matrix(table, cfg.numpy_dtype())
    # Finite weights can still be too large to score: fail on the file.
    try:
        with np.errstate(over="raise"):
            z_users, z_items = model.embeddings(features, s_ui, s_iu)
            metrics = evaluate(z_users, z_items, table, args.split, ns=cfg.eval_topn)
    except FloatingPointError as exc:
        raise ValueError(f"{ckpt}: its weights overflow {cfg.dtype} ({exc})") from None
    out_base = args.out or os.path.join(args.run, f"metrics_{args.split}")
    write_metrics_csv(out_base + ".csv", metrics)
    write_metrics_json(out_base + ".json", metrics)
    _log(event="evaluate", split=args.split, users=metrics["num_users"], out=out_base + ".csv")
    _print_metrics(args.split, metrics)
    return 0


def cmd_ablate(args):
    cfg = _resolve(args)
    table, fv, ft = load_prepared(args.prepared)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    rows = ablate(cfg, variants, table, fv, ft, out_dir=args.out,
                  prepared_dir=os.path.abspath(args.prepared))
    _log(event="ablate", variants=",".join(variants), out=args.out)
    cols = list(rows[0])[1:]
    print(f"{'variant':<12}" + "".join(f" {c:>9}" for c in cols))
    for row in rows:
        print(f"{row['variant']:<12}" + "".join(f" {row[c]:>9.4f}" for c in cols))
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
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="index, split, and validate a dataset")
    p.add_argument("--interactions", required=True)
    p.add_argument("--features-visual", required=True)
    p.add_argument("--features-textual", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, help="split seed for a file with no split column "
                   "(default 42)")
    p.add_argument("--ratios", help="train,val,test shares for a file with no split column "
                   "(default 0.8,0.1,0.1)")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("build-graph", help="build (and fuse) modality kNN graphs")
    p.add_argument("--prepared", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    _add_train_flags(p, GRAPH_FIELDS)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("prune", help="keep the top-K edges by topological similarity")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=TrainConfig.prune_k)
    p.add_argument("--report", help="write per-node prune stats CSV here")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("corrupt", help="randomly rewire a fraction of edges")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=_seed, default=0)
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
    python_format = warnings.formatwarning

    def one_line(message, category, *where, **line):
        # A shown ConfigWarning is one key=value line like the progress log.
        if issubclass(category, ConfigWarning):
            return _line(event="warning", command=args.command, message=message) + "\n"
        return python_format(message, category, *where, **line)

    warnings.formatwarning = one_line
    try:
        return args.func(args)
    except (ValueError, OSError, TrainingAborted) as exc:
        _log(event="error", command=args.command)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = python_format


if __name__ == "__main__":
    sys.exit(main())
