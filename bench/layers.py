"""Per-layer metrics derived from one traced pipeline iteration.

Times are inclusive span durations summed over the iteration, with the
call count next to them; `layer.<module>.self_s` sums self time per
module. A training step runs from the start of `sample_bpr_triples` to
the return of the `adam_step` that follows it; the step-part times
only count spans inside steps.
"""

from __future__ import annotations

from spans import percentile, tail

MODULES = ("cli", "data", "itemgraph", "model", "autograd", "optim", "metrics", "trainer")

# Direct children of `trainer.fit` that make up a training step, as
# (metric, span names).
STEP_PARTS = (
    ("data.sample_bpr_s", ("data.sample_bpr_triples",)),
    ("model.encode_s", ("model.encode_items",)),
    ("model.aggregate_s", ("model.aggregate",)),
    ("model.bpr_loss_s", ("model.bpr_loss",)),
    ("model.na_batch_s", ("model.build_na_batch", "model.na_batch_from_items")),
    ("model.na_loss_s", ("model.neighborhood_alignment_loss",)),
    ("autograd.backward_s", ("autograd.backward",)),
    ("optim.adam_s", ("optim.adam_step",)),
)


def _children(spans):
    out = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            out[s.parent].append(i)
    return out


def steps_and_epochs(spans):
    """(step windows, epoch durations, per-epoch val pass spans) of every fit."""
    kids = _children(spans)
    steps, epochs, val_passes = [], [], []
    for i, s in enumerate(spans):
        if s.name != "trainer.fit":
            continue
        step_start = epoch_start = None
        for c in kids[i]:
            child = spans[c]
            if child.name == "data.sample_bpr_triples":
                if step_start is None:
                    step_start = child.start
                if epoch_start is None:
                    epoch_start = child.start
            elif child.name == "optim.adam_step" and step_start is not None:
                steps.append((i, step_start, child.end))
                step_start = None
            elif child.name == "metrics.evaluate" and epoch_start is not None:
                # A val pass that follows steps closes an epoch; the final
                # val and test passes after the loop follow no step.
                epochs.append(child.end - epoch_start)
                val_passes.append(child)
                epoch_start = None
        if epoch_start is not None:
            epochs.append(s.end - epoch_start)
    return steps, epochs, val_passes


def _sum(spans, name, where=lambda s: True):
    chosen = [s for s in spans if s.name == name and where(s)]
    return sum(s.duration for s in chosen), len(chosen)


def per_layer(recorder, probes):
    """{metric: (value, unit)} from the recorder's spans and the BLAS probes."""
    spans = recorder.spans
    kids = _children(spans)
    out = {}

    knn = [s for s in spans if s.name == "itemgraph.build_knn_graph"]
    for modality in ("visual", "textual"):
        mine = [s for s in knn if s.attrs.get("modality") == modality]
        out[f"itemgraph.knn_{modality}_s"] = (sum(s.duration for s in mine), "s")
    out["itemgraph.knn_calls"] = (len(knn), "count")
    for metric, name in (
        ("itemgraph.fuse_s", "itemgraph.fuse_graphs"),
        ("itemgraph.tps_prune_s", "itemgraph.tps_prune"),
        ("itemgraph.save_graph_s", "itemgraph.save_graph"),
        ("itemgraph.load_graph_s", "itemgraph.load_graph"),
    ):
        out[metric] = (_sum(spans, name)[0], "s")
    validate_s, validate_calls = _sum(spans, "itemgraph.validate")
    out["itemgraph.validate_s"] = (validate_s, "s")
    out["itemgraph.validate_calls"] = (validate_calls, "count")
    prune = [s for s in spans if s.name == "itemgraph.tps_prune" and s.command == "prune"]
    fused = sum(s.attrs["fused_edges"] for s in prune)
    kept = sum(s.attrs["kept_edges"] for s in prune)
    out["itemgraph.fused_edges"] = (fused, "count")
    out["itemgraph.kept_edges"] = (kept, "count")
    out["itemgraph.prune_keep_ratio"] = (kept / fused if fused else 0.0, "ratio")
    visual = [s for s in knn if s.attrs.get("modality") == "visual"]
    gram_flops = sum(2.0 * s.attrs["rows"] ** 2 * s.attrs["dim"] for s in visual)
    visual_s = sum(s.duration for s in visual)
    out["itemgraph.knn_gram_blas_ratio"] = (
        gram_flops / probes["dgemm_flops_per_s"] / visual_s if visual_s else 0.0,
        "ratio",
    )

    for metric, name in (
        ("data.load_interactions_s", "data.load_interactions"),
        ("data.make_split_s", "data.make_split"),
        ("data.save_prepared_s", "data.save_prepared"),
    ):
        out[metric] = (_sum(spans, name)[0], "s")
    load_s, load_calls = _sum(spans, "data.load_prepared")
    out["data.load_prepared_s"] = (load_s, "s")
    out["data.load_prepared_calls"] = (load_calls, "count")

    steps, epochs, val_passes = steps_and_epochs(spans)
    in_step = []
    for fit, lo, hi in steps:
        in_step.extend(spans[c] for c in kids[fit] if lo <= spans[c].start and spans[c].end <= hi)
    step_total = sum(hi - lo for _, lo, hi in steps)
    parts = 0.0
    for metric, names in STEP_PARTS:
        chosen = [s for s in in_step if s.name in names]
        out[metric] = (sum(s.duration for s in chosen), "s")
        parts += out[metric][0]
    out["trainer.step_other_s"] = (step_total - parts, "s")
    out["data.sample_bpr_calls"] = (sum(1 for s in in_step if s.name == "data.sample_bpr_triples"), "count")
    bpr = [s for s in spans if s.name == "data.sample_bpr_triples"]
    requested = sum(s.attrs["requested"] for s in bpr)
    out["data.bpr_fill_ratio"] = (
        sum(s.attrs["returned"] for s in bpr) / requested if requested else 0.0,
        "ratio",
    )
    encode = [s for s in in_step if s.name == "model.encode_items"]
    encode_s = sum(s.duration for s in encode)
    out["model.encoder_blas_ratio"] = (
        sum(s.attrs["flops"] for s in encode) / probes["sgemm_flops_per_s"] / encode_s
        if encode_s else 0.0,
        "ratio",
    )
    na = [s for s in spans if s.name in ("model.build_na_batch", "model.na_batch_from_items")]
    anchors = sum(s.attrs["anchors"] for s in na)
    out["model.na_anchor_keep_ratio"] = (
        sum(s.attrs["kept"] for s in na) / anchors if anchors else 0.0,
        "ratio",
    )

    durations = [hi - lo for _, lo, hi in steps]
    out["trainer.steps"] = (len(durations), "count")
    out["trainer.epochs"] = (len(epochs), "count")
    if durations:
        value, pct = tail(durations)
        out["trainer.step_s.p50"] = (percentile(durations, 50), "s")
        out["trainer.step_s.tail"] = (value, "s")
        out["trainer.step_s.tail_pct"] = (pct, "%")
    else:
        out["trainer.step_s.p50"] = out["trainer.step_s.tail"] = (0.0, "s")
        out["trainer.step_s.tail_pct"] = (0.0, "%")
    out["trainer.epoch_s.p50"] = (percentile(epochs, 50) if epochs else 0.0, "s")

    in_fit = [
        s for s in spans
        if s.name == "metrics.evaluate" and s.parent >= 0 and spans[s.parent].name == "trainer.fit"
    ]
    val = [s for s in in_fit if s.attrs["split"] == "val"]
    val_s = sum(s.duration for s in val)
    out["metrics.evaluate_s"] = (val_s, "s")
    out["metrics.evaluate_calls"] = (len(val), "count")
    out["metrics.users_per_s"] = (
        sum(s.attrs["users"] for s in val) / val_s if val_s else 0.0, "1/s"
    )
    out["metrics.val_pass_s.p50"] = (
        percentile([s.duration for s in val_passes], 50) if val_passes else 0.0, "s"
    )
    at_eval = lambda s: s.command == "evaluate"
    out["metrics.evaluate_test_s"] = (_sum(spans, "metrics.evaluate", at_eval)[0], "s")
    out["model.embeddings_s"] = (_sum(spans, "model.embeddings", at_eval)[0], "s")

    saves = [s for s in spans if s.name == "optim.save_checkpoint"]
    out["optim.save_checkpoint_s"] = (sum(s.duration for s in saves), "s")
    out["optim.load_checkpoint_s"] = (_sum(spans, "optim.load_checkpoint")[0], "s")
    out["optim.checkpoint_mb"] = (
        max((s.attrs["bytes"] for s in saves), default=0) / 2**20, "MB"
    )

    selfs = recorder.self_times()
    for module in MODULES:
        out[f"layer.{module}.self_s"] = (
            sum(t for s, t in zip(spans, selfs) if s.name.startswith(module + ".")), "s"
        )
    out["probe.sgemm_gflops"] = (probes["sgemm_flops_per_s"] / 1e9, "GFLOP/s")
    out["probe.dgemm_gflops"] = (probes["dgemm_flops_per_s"] / 1e9, "GFLOP/s")
    return out


def baseline_rows(m):
    """The rows of ROADMAP's measured-baseline table, from per-layer metrics."""
    step_total = sum(m[metric][0] for metric, _ in STEP_PARTS) + m["trainer.step_other_s"][0]
    share = lambda name: 100.0 * m[name][0] / step_total if step_total else 0.0
    split = ", ".join(
        f"{label} {share(name):.1f}%"
        for label, name in (
            ("backward", "autograd.backward_s"),
            ("encoders", "model.encode_s"),
            ("NA loss", "model.na_loss_s"),
            ("NA batch", "model.na_batch_s"),
            ("BPR sampling", "data.sample_bpr_s"),
            ("Adam", "optim.adam_s"),
            ("LightGCN", "model.aggregate_s"),
            ("BPR loss", "model.bpr_loss_s"),
            ("other", "trainer.step_other_s"),
        )
    )
    return [
        ("kNN, visual", f"{m['itemgraph.knn_visual_s'][0]:.2f} s"),
        ("kNN, textual", f"{m['itemgraph.knn_textual_s'][0]:.2f} s"),
        ("Fusion", f"{m['itemgraph.fuse_s'][0]:.2f} s"),
        ("TPS prune", f"{m['itemgraph.tps_prune_s'][0]:.2f} s"),
        (
            "One training step",
            f"{m['trainer.step_s.p50'][0]:.3f} s median of {m['trainer.steps'][0]}",
        ),
        ("Step split", split),
        (
            "One validation pass",
            f"{m['metrics.val_pass_s.p50'][0]:.2f} s ({m['metrics.users_per_s'][0]:.0f} users/s)",
        ),
        ("One epoch", f"{m['trainer.epoch_s.p50'][0]:.2f} s"),
    ]
