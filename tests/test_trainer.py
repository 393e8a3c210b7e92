"""Training loop, variant handling, and run artifacts."""

import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import toporec.model as model_module
import toporec.trainer as trainer_module
from toporec.cli import GRAPH_FIELDS
from toporec.config import ConfigWarning, TrainConfig, config_from_dict
from toporec.data import ROLE_TRAIN, ROLE_VAL, InteractionTable, make_split
from toporec.itemgraph import SparseGraph, graphs_equal
from toporec.metrics import evaluate
from toporec.model import build_propagation_matrix
from toporec.optim import load_checkpoint
from toporec.synth import make_clustered_dataset
from toporec.trainer import (
    RunManifest,
    TrainingAborted,
    VARIANTS,
    ablate,
    build_item_graph,
    build_model,
    data_hash,
    fit,
    rng_streams,
    run_variant,
    variant_config,
)


def _tiny_config(**kw):
    defaults = dict(
        seed=5,
        lr=1e-3,
        batch_size=64,
        embed_dim=8,
        hidden_dim=8,
        depth=2,
        knn_k=3,
        prune_k=3,
        max_epochs=4,
        patience=20,
        eval_topn=(10, 20),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def _tiny_data(seed=0):
    data = make_clustered_dataset(
        num_users=40,
        num_items=20,
        num_clusters=4,
        visual_dim=6,
        textual_dim=4,
        interactions_low=5,
        interactions_high=8,
        seed=seed,
    )
    data.table = make_split(data.table, seed=seed)
    return data


def _quiet_fit(cfg, data, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        return fit(
            cfg, data.table, data.features_visual, data.features_textual, **kw
        )


def _quiet_graph(cfg, data, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        return build_item_graph(
            cfg, data.features_visual.values, data.features_textual.values, **kw
        )


def test_variant_config_transforms():
    cfg = TrainConfig()
    assert variant_config(cfg, "full") == cfg
    assert variant_config(cfg, "no_na").na_weight == 0.0
    assert variant_config(cfg, "no_prune").prune_mode == "none"
    assert variant_config(cfg, "rand_prune").prune_mode == "random"
    text = variant_config(cfg, "text_only")
    assert (text.use_visual, text.use_textual) == (False, True)
    vis = variant_config(cfg, "visual_only")
    assert (vis.use_visual, vis.use_textual) == (True, False)
    with pytest.raises(ValueError, match="unknown variant"):
        variant_config(cfg, "half_na")
    assert set(VARIANTS) == {
        "full", "no_na", "no_prune", "rand_prune", "text_only", "visual_only"
    }


def test_rng_streams_are_named_and_independent():
    streams = rng_streams(11)
    assert set(streams) == {
        "init", "negatives", "anchors", "dropout", "corruption", "graph"
    }
    again = rng_streams(11)
    for name in streams:
        assert streams[name].random() == again[name].random()
    draws = {name: rng_streams(11)[name].random() for name in streams}
    assert len(set(draws.values())) == len(draws)
    other = rng_streams(12)
    assert other["init"].random() != rng_streams(11)["init"].random()


def test_build_item_graph_modes():
    data = _tiny_data()
    cfg = _tiny_config()
    graph, fused, report = _quiet_graph(cfg, data)
    assert report is not None
    assert np.all(graph.out_degrees() <= cfg.prune_k)
    assert np.all(fused.out_degrees() >= cfg.knn_k)

    none_graph, none_fused, none_report = _quiet_graph(
        _tiny_config(prune_mode="none"), data
    )
    assert none_report is None
    assert graphs_equal(none_graph, none_fused)
    assert graphs_equal(none_fused, fused)

    rand_graph, _, rand_report = _quiet_graph(
        _tiny_config(prune_mode="random"), data
    )
    assert rand_report is None
    assert np.all(
        rand_graph.out_degrees() == np.minimum(fused.out_degrees(), cfg.prune_k)
    )

    solo, solo_fused, _ = _quiet_graph(_tiny_config(use_textual=False), data)
    assert np.all(solo_fused.out_degrees() == cfg.knn_k)
    assert np.all(solo_fused.weights == 1.0)


def test_build_item_graph_corruption_path():
    data = _tiny_data()
    cfg = _tiny_config(prune_mode="none")
    _, clean, _ = _quiet_graph(cfg, data)
    _, noisy, _ = _quiet_graph(cfg, data, corrupt_eps=0.5)
    assert not graphs_equal(clean, noisy)
    assert np.array_equal(clean.out_degrees(), noisy.out_degrees())
    _, noisy2, _ = _quiet_graph(cfg, data, corrupt_eps=0.5)
    assert graphs_equal(noisy, noisy2)


def test_unpruned_graph_reads_only_the_build_graph_fields():
    data = _tiny_data()
    base = _tiny_config(prune_mode="none")
    graph, _, _ = _quiet_graph(base, data)
    others = dict(
        seed=9, lr=5e-4, batch_size=32, embed_dim=4, hidden_dim=16, depth=3, gcn_layers=0,
        na_weight=0.5, temperature=0.5, l2_weight=1e-2, dropout=0.2, prune_k=4,
        prune_mode="random", na_anchor_mode="bpr_batch", na_on_modalities=True, max_epochs=3,
        patience=2, eval_stride=2, eval_topn=(5,), dtype="float64",
    )
    assert set(others) == {f.name for f in fields(TrainConfig)} - set(GRAPH_FIELDS)
    moved = replace(base, **others)
    assert all(getattr(moved, name) != getattr(base, name) for name in others)
    assert graphs_equal(_quiet_graph(replace(moved, prune_mode="none"), data)[0], graph)
    changes = dict(use_visual=False, use_textual=False, knn_k=4, binarize_knn=False,
                   visual_weight=0.5)
    assert set(changes) == set(GRAPH_FIELDS)
    for name, value in changes.items():
        changed, _, _ = _quiet_graph(replace(base, **{name: value}), data)
        assert not graphs_equal(changed, graph), name


def test_fit_requires_graph_for_alignment():
    data = _tiny_data()
    with pytest.raises(ValueError, match="requires an item graph"):
        _quiet_fit(_tiny_config(), data)


def test_fit_basics_and_best_restore():
    data = _tiny_data()
    cfg = _tiny_config(max_epochs=6)
    graph, _, _ = _quiet_graph(cfg, data)
    manifest = _quiet_fit(cfg, data, na_graph=graph)

    assert len(manifest.epochs) == 6
    row = manifest.epochs[0]
    assert set(row) == {
        "epoch", "loss_bpr", "loss_na", "val_r20", "val_n20", "best_val_r20"
    }
    assert manifest.best_epoch >= 0
    vals = [r["val_r20"] for r in manifest.epochs]
    assert manifest.best_val_r20 == max(vals)
    assert manifest.epochs[manifest.best_epoch]["val_r20"] == manifest.best_val_r20
    bests = [r["best_val_r20"] for r in manifest.epochs]
    assert bests == [max(vals[: i + 1]) for i in range(len(vals))]

    # the returned model carries the best-epoch weights: re-evaluating
    # reproduces the recorded best validation recall exactly
    assert manifest.val_metrics["recall@20"] == manifest.best_val_r20
    model = manifest.model
    features = {
        "visual": data.features_visual.values,
        "textual": data.features_textual.values,
    }
    from toporec.model import build_propagation_matrix

    s_ui, s_iu = build_propagation_matrix(data.table, dtype=cfg.numpy_dtype())
    z_u, z_i = model.embeddings(features, s_ui, s_iu)
    again = evaluate(z_u, z_i, data.table, "val", ns=(20,))
    assert again["recall@20"] == manifest.best_val_r20

    assert manifest.num_users == 40 and manifest.num_items == 20
    assert manifest.visual_dim == 6 and manifest.textual_dim == 4
    assert len(manifest.data_hash) == 64
    assert set(manifest.feature_hashes) == {"visual", "textual"}
    assert manifest.graph_hash != ""
    for key in ("recall@10", "recall@20", "ndcg@10", "ndcg@20"):
        assert 0.0 <= manifest.test_metrics[key] <= 1.0


def test_hashes_are_sha256_of_the_array_bytes():
    data = _tiny_data()
    cfg = _tiny_config(max_epochs=1, na_weight=0.0)
    dtype = cfg.numpy_dtype()
    visual = np.asfortranarray(data.features_visual.values, dtype=dtype)
    textual = np.asfortranarray(data.features_textual.values, dtype=dtype)
    assert not visual.flags.c_contiguous
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        manifest = fit(cfg, data.table, visual, textual)
    assert manifest.feature_hashes == {
        "visual": hashlib.sha256(visual.tobytes()).hexdigest(),
        "textual": hashlib.sha256(textual.tobytes()).hexdigest(),
    }

    edges = np.asfortranarray(data.table.edges)
    table = InteractionTable(
        data.table.num_users, data.table.num_items, data.table.user_tokens,
        data.table.item_tokens, edges, data.table.roles,
    )
    assert not table.edges.flags.c_contiguous
    expected = hashlib.sha256(edges.tobytes() + table.roles.tobytes()).hexdigest()
    assert data_hash(table) == expected
    empty = InteractionTable(1, 1, ["u"], ["i"], np.zeros((0, 2)), np.zeros(0))
    assert data_hash(empty) == hashlib.sha256(b"").hexdigest()


def test_fit_zero_lr_stops_on_patience():
    data = _tiny_data()
    cfg = _tiny_config(lr=0.0, na_weight=0.0, max_epochs=50, patience=3)
    manifest = _quiet_fit(cfg, data)
    # nothing ever improves on epoch 0, so training stops after
    # exactly patience further epochs
    assert manifest.best_epoch == 0
    assert len(manifest.epochs) == 4


def test_fit_aborts_on_nonfinite_loss(tmp_path):
    data = _tiny_data()
    cfg = _tiny_config(na_weight=0.0, max_epochs=2)
    bad = np.full_like(data.features_visual.values, np.nan)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        with pytest.raises(TrainingAborted, match="epoch 0 step 0"):
            fit(cfg, data.table, bad, data.features_textual, out_dir=str(out))
    dump = np.load(out / "nan_batch.npz")
    assert dump["epoch"].tolist() == [0]
    assert dump["step"].tolist() == [0]
    assert len(dump["users"]) > 0


def test_fit_without_out_dir_aborts_naming_no_dump():
    data = _tiny_data()
    cfg = _tiny_config(na_weight=0.0, max_epochs=2)
    bad = np.full_like(data.features_visual.values, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        with pytest.raises(TrainingAborted) as info:
            fit(cfg, data.table, bad, data.features_textual)
    assert str(info.value) == "non-finite loss at epoch 0 step 0"


def test_a_finished_run_leaves_no_older_nan_batch(tmp_path):
    data = _tiny_data()
    cfg = _tiny_config(na_weight=0.0, max_epochs=2)
    bad = np.full_like(data.features_visual.values, np.nan)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        with pytest.raises(TrainingAborted):
            fit(cfg, data.table, bad, data.features_textual, out_dir=str(out))
        assert (out / "nan_batch.npz").exists()
        fit(cfg, data.table, data.features_visual, data.features_textual, out_dir=str(out))
    assert sorted(os.listdir(out)) == ["checkpoint.tmc", "epochs.csv", "manifest.json"]


def test_fit_disables_alignment_on_weightless_graph():
    data = _tiny_data()
    cfg = _tiny_config(max_epochs=2)
    n = data.table.num_items
    hollow = SparseGraph.from_rows(
        n, [([(m + 1) % n], [0.0]) for m in range(n)]
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        manifest = fit(
            cfg,
            data.table,
            data.features_visual,
            data.features_textual,
            na_graph=hollow,
        )
    assert any("alignment disabled" in str(w.message) for w in caught)
    assert all(row["loss_na"] == 0.0 for row in manifest.epochs)


def test_fit_builds_one_positive_view_per_run(monkeypatch):
    data = _tiny_data()
    cfg = _tiny_config(max_epochs=2)
    graph, _, _ = _quiet_graph(cfg, data)
    calls = []

    def counted(g, dtype=np.float64, build=model_module.positive_subgraph):
        calls.append((g, dtype))
        return build(g, dtype)

    # Both names: model's own helpers call it through their module.
    monkeypatch.setattr(model_module, "positive_subgraph", counted)
    monkeypatch.setattr(trainer_module, "positive_subgraph", counted)
    for mode in ("independent", "bpr_batch"):
        calls.clear()
        manifest = _quiet_fit(replace(cfg, na_anchor_mode=mode), data, na_graph=graph)
        # One view, in the run's dtype, so no slice casts its weights.
        assert len(calls) == 1 and calls[0][0] is graph and calls[0][1] is np.float32, mode
        assert all(row["loss_na"] > 0.0 for row in manifest.epochs), mode


def _bench_modules():
    """bench/spans.py and bench/layers.py, imported as bench/test_bench.py does."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import layers
    import spans

    return spans, layers


def test_bench_sees_each_step_and_validation_as_a_child_of_fit():
    # bench/layers.py finds a step among the direct children of the
    # `trainer.fit` span, from `sample_bpr_triples` to the next `adam_step`.
    spans, layers = _bench_modules()
    data = _tiny_data()
    cfg = _tiny_config(max_epochs=2)
    graph, _, _ = _quiet_graph(cfg, data)
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConfigWarning)
            trainer_module.fit(cfg, data.table, data.features_visual, data.features_textual,
                               na_graph=graph)
    finally:
        uninstall()
    recorded = recorder.spans
    steps_per_epoch = math.ceil(len(data.table.role_edges(ROLE_TRAIN)) / cfg.batch_size)
    assert steps_per_epoch > 1
    steps, epochs, val_passes = layers.steps_and_epochs(recorded)
    assert len(steps) == cfg.max_epochs * steps_per_epoch
    assert len(epochs) == len(val_passes) == cfg.max_epochs

    fit_span = next(i for i, s in enumerate(recorded) if s.name == "trainer.fit")
    parts = {name for _, names in layers.STEP_PARTS for name in names}
    # The evaluation forward encodes and aggregates too, outside any step.
    forward = {i for i, s in enumerate(recorded) if s.name == "model.embeddings"}
    seen = set()
    for s in recorded:
        if s.name in parts and s.parent not in forward:
            seen.add(s.name)
            assert s.parent == fit_span, s.name
            assert any(lo <= s.start and s.end <= hi for _, lo, hi in steps), s.name
    # fit draws its alignment batches through no function the bench wraps.
    assert parts - {"model.build_na_batch", "model.na_batch_from_items"} <= seen
    val = [s for s in recorded if s.name == "metrics.evaluate" and s.attrs["split"] == "val"]
    assert len(val) == cfg.max_epochs
    assert all(s.parent == fit_span for s in val)


def test_fit_reruns_are_bit_identical(tmp_path):
    data = _tiny_data()
    cfg = _tiny_config(max_epochs=3)
    graph, _, _ = _quiet_graph(cfg, data)
    a = _quiet_fit(cfg, data, na_graph=graph, out_dir=str(tmp_path / "a"))
    b = _quiet_fit(cfg, data, na_graph=graph, out_dir=str(tmp_path / "b"))
    assert a.epochs == b.epochs
    assert a.val_metrics == b.val_metrics
    assert a.test_metrics == b.test_metrics
    bytes_a = (tmp_path / "a" / "checkpoint.tmc").read_bytes()
    bytes_b = (tmp_path / "b" / "checkpoint.tmc").read_bytes()
    assert bytes_a == bytes_b
    csv_a = (tmp_path / "a" / "epochs.csv").read_text()
    csv_b = (tmp_path / "b" / "epochs.csv").read_text()
    assert csv_a == csv_b


@pytest.mark.parametrize(
    "option",
    [{"na_anchor_mode": "bpr_batch"}, {"na_on_modalities": True}],
    ids=["bpr_batch", "na_on_modalities"],
)
def test_fit_alignment_options_rerun_bit_identical(tmp_path, option):
    data = _tiny_data()
    cfg = _tiny_config(max_epochs=3, **option)
    graph, _, _ = _quiet_graph(cfg, data)
    runs = [
        _quiet_fit(cfg, data, na_graph=graph, out_dir=str(tmp_path / name))
        for name in ("a", "b")
    ]
    for row in runs[0].epochs:
        assert np.isfinite(row["loss_bpr"]) and np.isfinite(row["loss_na"])
        assert row["loss_na"] > 0.0
    assert runs[0].epochs == runs[1].epochs
    for name in ("epochs.csv", "checkpoint.tmc"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_batch_anchored_alignment_on_modalities_reruns_bit_identical(tmp_path, monkeypatch):
    data = make_clustered_dataset(num_users=60, num_items=30, num_clusters=5, visual_dim=6,
                                  textual_dim=4, interactions_low=5, interactions_high=8, seed=2)
    data.table = make_split(data.table, seed=2)
    cfg = _tiny_config(max_epochs=3, na_anchor_mode="bpr_batch", na_on_modalities=True)
    graph, _, _ = _quiet_graph(cfg, data)
    weights_seen = []

    def sparse_only(reps, anchor_rows, weights, temperature,
                    loss=trainer_module.neighborhood_alignment_loss):
        weights_seen.append(weights)
        return loss(reps, anchor_rows, weights, temperature)

    # fit keeps each batch's weights sparse and never builds a dense one.
    monkeypatch.setattr(trainer_module, "neighborhood_alignment_loss", sparse_only)
    monkeypatch.setattr(model_module, "_dense_weights", None)
    runs = [_quiet_fit(cfg, data, na_graph=graph, out_dir=str(tmp_path / name))
            for name in ("a", "b")]
    # Three terms a step: the fused encoding and each modality's branch.
    assert len(weights_seen) == 2 * 3 * cfg.max_epochs * math.ceil(
        len(data.table.role_edges(ROLE_TRAIN)) / cfg.batch_size)
    assert all(w.format == "csr" and w.dtype == np.float32 for w in weights_seen)
    assert all(row["loss_na"] > 0.0 for row in runs[0].epochs)
    assert runs[0].epochs == runs[1].epochs
    a, b = (load_checkpoint(tmp_path / name / "checkpoint.tmc") for name in ("a", "b"))
    assert list(a) == list(b)
    assert all(a[k].tobytes() == b[k].tobytes() for k in a)
    assert (tmp_path / "a" / "epochs.csv").read_bytes() == (tmp_path / "b" / "epochs.csv").read_bytes()


@pytest.mark.parametrize("gcn_layers", [0, 2])
@pytest.mark.parametrize("eval_topn", [(10, 20), (5, 15)])
def test_manifest_metrics_equal_evaluate_of_reloaded_checkpoint(tmp_path, gcn_layers, eval_topn):
    data = make_clustered_dataset(
        num_users=60, num_items=80, num_clusters=4, visual_dim=6, textual_dim=4,
        interactions_low=5, interactions_high=8, seed=1,
    )
    data.table = make_split(data.table, seed=1)
    cfg = _tiny_config(max_epochs=6, gcn_layers=gcn_layers, eval_topn=eval_topn)
    graph, _, _ = _quiet_graph(cfg, data)
    manifest = _quiet_fit(cfg, data, na_graph=graph, out_dir=str(tmp_path))
    # The kept epoch is not the last, so later updates must not reach it.
    assert manifest.best_epoch < len(manifest.epochs) - 1

    model, features = build_model(
        cfg, data.table, {"visual": data.features_visual, "textual": data.features_textual}
    )
    model.params.load_state(load_checkpoint(str(tmp_path / "checkpoint.tmc")))
    s_ui, s_iu = build_propagation_matrix(data.table, cfg.numpy_dtype())
    z_users, z_items = model.embeddings(features, s_ui, s_iu)
    saved = json.loads((tmp_path / "manifest.json").read_text())
    for split, key in (("val", "val_metrics"), ("test", "test_metrics")):
        want = evaluate(z_users, z_items, data.table, split, ns=eval_topn)
        assert getattr(manifest, key) == want
        assert saved[key] == want


def test_manifest_artifacts(tmp_path):
    data = _tiny_data()
    cfg = _tiny_config(max_epochs=2)
    graph, _, _ = _quiet_graph(cfg, data)
    manifest = _quiet_fit(cfg, data, na_graph=graph, out_dir=str(tmp_path))

    loaded = json.loads((tmp_path / "manifest.json").read_text())
    assert loaded["config"] == {**asdict(cfg), "eval_topn": list(cfg.eval_topn)}
    assert loaded["best_epoch"] == manifest.best_epoch
    # The seed is the config's, and the checkpoint is always the run directory's own.
    assert not {"model", "seed", "checkpoint_path"} & set(loaded)
    assert manifest.checkpoint_path == str(tmp_path / "checkpoint.tmc")
    assert os.path.exists(manifest.checkpoint_path)

    lines = (tmp_path / "epochs.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,loss_bpr,loss_na,val_r20,val_n20"
    assert len(lines) == 3
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 5
        float(parts[1]), float(parts[3])  # repr round-trip stays parseable


def _no_constant(name):
    raise ValueError(f"manifest.json holds {name}, which strict JSON readers reject")


def test_load_returns_the_manifest_fit_returned(tmp_path):
    data = _tiny_data()
    # With eval_stride 2, epoch 1 has no validation and its metrics are NaN.
    for eval_stride in (1, 2):
        cfg = _tiny_config(max_epochs=2, eval_stride=eval_stride)
        graph, _, _ = _quiet_graph(cfg, data)
        run = tmp_path / f"run{eval_stride}"
        manifest = _quiet_fit(cfg, data, na_graph=graph, out_dir=str(run))
        json.loads((run / "manifest.json").read_text(), parse_constant=_no_constant)

        loaded = RunManifest.load(str(run))
        assert loaded.config == cfg
        assert loaded.best_epoch == manifest.best_epoch >= 0
        assert loaded.epochs == manifest.epochs
        assert loaded.checkpoint_path == manifest.checkpoint_path == str(run / "checkpoint.tmc")
        assert not hasattr(loaded, "model")
        # Through one JSON encoder, so NaN fields compare equal too.
        saved, returned = (json.dumps(asdict(m), sort_keys=True) for m in (loaded, manifest))
        assert saved == returned
    assert np.isnan(loaded.epochs[1]["val_r20"]) and np.isnan(loaded.epochs[1]["val_n20"])

    # A copied run directory points at its own checkpoint, also when its
    # manifest is of the older kind that recorded a seed and a checkpoint path.
    copy = tmp_path / "copy"
    copy.mkdir()
    old = json.loads((run / "manifest.json").read_text())
    old.update(seed=cfg.seed, checkpoint_path=str(run / "checkpoint.tmc"))
    (copy / "manifest.json").write_text(json.dumps(old))
    copied = RunManifest.load(str(copy))
    assert copied.checkpoint_path == str(copy / "checkpoint.tmc")
    assert json.dumps(asdict(copied), sort_keys=True) == saved


def _stop_reference(script, eval_stride, patience, max_epochs):
    """(epochs run, best epoch) by a count of validations since the best."""
    recalls = iter(script)
    best_epoch, best, since_best = -1, None, 0
    for epoch in range(max_epochs):
        if epoch % eval_stride == 0:
            recall = next(recalls)
            if best_epoch < 0 or recall > best:
                best_epoch, best, since_best = epoch, recall, 0
            else:
                since_best += 1
        if since_best >= patience:
            return epoch + 1, best_epoch
    return max_epochs, best_epoch


@pytest.mark.parametrize("script", [
    [0.1 * (i + 1) for i in range(9)],
    [0.5] * 9,
    [0.1, 0.3, 0.2, 0.4, 0.4, 0.1, 0.5, 0.3, 0.2],
], ids=["improving", "flat", "mixed"])
@pytest.mark.parametrize("patience", [0, 1, 3])
@pytest.mark.parametrize("eval_stride", [1, 2, 3])
def test_early_stopping_counts_validations_since_the_best(monkeypatch, eval_stride, patience,
                                                          script):
    calls = iter(script)

    def scripted(z_users, z_items, table, split, ns=(10, 20)):
        recall = next(calls) if split == "val" else 0.0
        return {"split": split, "num_users": 1,
                **{f"{m}@{n}": recall for m in ("recall", "ndcg") for n in ns}}

    monkeypatch.setattr(trainer_module, "evaluate", scripted)
    cfg = _tiny_config(na_weight=0.0, max_epochs=9, eval_stride=eval_stride, patience=patience)
    manifest = _quiet_fit(cfg, _tiny_data())
    expected = _stop_reference(script, eval_stride, patience, cfg.max_epochs)
    assert (len(manifest.epochs), manifest.best_epoch) == expected


def test_run_variant_skips_graph_without_alignment():
    data = _tiny_data()
    cfg = _tiny_config(na_weight=0.0, max_epochs=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        manifest = run_variant(
            "no_na", cfg, data.table, data.features_visual, data.features_textual
        )
    assert manifest.graph_hash == ""
    assert all(row["loss_na"] == 0.0 for row in manifest.epochs)


def test_ablate_checks_every_variant_before_training(tmp_path, monkeypatch):
    data = _tiny_data()

    def no_training(*args, **kwargs):
        raise AssertionError("a variant trained before all names were checked")

    monkeypatch.setattr("toporec.trainer.fit", no_training)
    for variants, message in [(("full", "bogus"), "unknown variant 'bogus'"),
                              ((), "no variant given"),
                              (("full", "no_na", "full"), "variant 'full' is listed twice")]:
        with pytest.raises(ValueError, match=message):
            ablate(_tiny_config(), variants, data.table, data.features_visual,
                   data.features_textual, out_dir=str(tmp_path / "ablate"))
        assert not (tmp_path / "ablate").exists()


def test_fit_without_validation_split_scores_the_final_weights(tmp_path):
    data = _tiny_data()
    table = data.table
    roles = np.where(table.roles == ROLE_VAL, ROLE_TRAIN, table.roles)
    table = InteractionTable(num_users=table.num_users, num_items=table.num_items,
                             user_tokens=table.user_tokens, item_tokens=table.item_tokens,
                             edges=table.edges, roles=roles)
    cfg = _tiny_config(na_weight=0.0, max_epochs=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        manifest = fit(cfg, table, data.features_visual, data.features_textual)
    assert len(manifest.epochs) == 2
    assert manifest.best_epoch == -1 and manifest.val_metrics == {}
    s_ui, s_iu = build_propagation_matrix(table, cfg.numpy_dtype())
    features = {"visual": data.features_visual.values.astype(np.float32),
                "textual": data.features_textual.values.astype(np.float32)}
    z_users, z_items = manifest.model.embeddings(features, s_ui, s_iu)
    assert manifest.test_metrics == evaluate(z_users, z_items, table, "test", ns=(10, 20))


def test_ablate_tabulates_variants(tmp_path):
    data = _tiny_data()
    cfg = _tiny_config(max_epochs=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        rows = ablate(
            cfg,
            ("full", "no_na"),
            data.table,
            data.features_visual,
            data.features_textual,
            out_dir=str(tmp_path),
        )
    assert [r["variant"] for r in rows] == ["full", "no_na"]
    for row in rows:
        for key in ("recall@10", "recall@20", "ndcg@10", "ndcg@20"):
            assert 0.0 <= row[key] <= 1.0
    lines = (tmp_path / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "variant,recall@10,recall@20,ndcg@10,ndcg@20"
    assert len(lines) == 3
    assert (tmp_path / "full" / "manifest.json").exists()
    assert (tmp_path / "no_na" / "manifest.json").exists()


# (field type, JSON value, accepted?): the one value rule of both config
# readers. A float manifest field takes null too, as NaN, so no case has it.
_VALUE_RULE = [
    ("int", 3, True), ("int", 3.0, False), ("int", True, False), ("int", "3", False),
    ("int", None, False), ("int", [3], False),
    ("float", 3, True), ("float", 0.5, True), ("float", False, False), ("float", "0.5", False),
    ("float", {}, False),
    ("str", "tps", True), ("str", 3, False), ("str", ["tps"], False), ("str", None, False),
]


@pytest.mark.parametrize("kind, value, accepted", _VALUE_RULE)
def test_config_and_manifest_readers_share_one_value_rule(tmp_path, kind, value, accepted):
    config_field = {"int": "knn_k", "float": "na_weight", "str": "prune_mode"}[kind]
    manifest_field = {"int": "num_items", "float": "best_val_r20", "str": "prepared_dir"}[kind]
    verdicts = []
    try:
        config_from_dict({config_field: value})
        verdicts.append(True)
    except ValueError as exc:
        assert f"config key {config_field!r}: expected" in str(exc)
        verdicts.append(False)

    RunManifest(config=TrainConfig(), data_hash="", feature_hashes={}, graph_hash="",
                num_users=1, num_items=1, visual_dim=1, textual_dim=1).save(str(tmp_path))
    path = tmp_path / "manifest.json"
    saved = json.loads(path.read_text())
    saved[manifest_field] = value
    path.write_text(json.dumps(saved))
    try:
        assert getattr(RunManifest.load(str(tmp_path)), manifest_field) == value
        verdicts.append(True)
    except ValueError as exc:
        assert f"not a run manifest ({manifest_field} is {type(value).__name__}" in str(exc)
        verdicts.append(False)
    assert verdicts == [accepted, accepted]
