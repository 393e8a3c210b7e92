"""End-to-end command-line pipeline on a small synthetic dataset."""

import hashlib
import json
import os
import shutil
import struct
import warnings

import numpy as np
import pytest

from toporec.cli import main
from toporec.config import ConfigWarning
from toporec.data import load_prepared
from toporec.itemgraph import load_graph
from toporec.synth import make_clustered_dataset


def _run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        return main(argv)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> prepare -> graph -> prune run shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw"
    prep = root / "prep"
    assert _run(["synth", "--out", str(raw), "--users", "40", "--items", "20",
                 "--clusters", "4", "--seed", "3"]) == 0
    assert _run([
        "prepare",
        "--interactions", str(raw / "interactions.txt"),
        "--features-visual", str(raw / "features_visual.tmf"),
        "--features-textual", str(raw / "features_textual.tmf"),
        "--out", str(prep),
    ]) == 0
    graph = root / "fused.tmg"
    assert _run(["build-graph", "--prepared", str(prep), "--out", str(graph),
                 "--knn-k", "4"]) == 0
    pruned = root / "pruned.tmg"
    assert _run(["prune", "--graph", str(graph), "--out", str(pruned),
                 "--k", "3", "--report", str(root / "prune.csv")]) == 0
    return root, raw, prep, graph, pruned


def test_synth_writes_dataset(pipeline):
    _, raw, _, _, _ = pipeline
    names = sorted(os.listdir(raw))
    assert names == [
        "features_textual.tmf",
        "features_visual.tmf",
        "interactions.txt",
        "item_clusters.txt",
    ]
    first = (raw / "interactions.txt").read_text().splitlines()[0]
    assert len(first.split()) == 2


def test_synth_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert _run(["synth", "--out", str(out), "--users", "20", "--items", "10",
                     "--clusters", "2", "--seed", "9"]) == 0
    for name in ("interactions.txt", "features_visual.tmf", "features_textual.tmf"):
        assert _digest(a / name) == _digest(b / name)


def test_prepare_emits_stats_line(pipeline, capsys):
    root, raw, _, _, _ = pipeline
    out = root / "prep2"
    assert _run([
        "prepare",
        "--interactions", str(raw / "interactions.txt"),
        "--features-visual", str(raw / "features_visual.tmf"),
        "--features-textual", str(raw / "features_textual.tmf"),
        "--out", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "users=40 items=20" in stdout
    assert "sparsity=" in stdout


def test_prepare_is_idempotent(pipeline, tmp_path):
    _, raw, prep, _, _ = pipeline
    again = tmp_path / "prep_again"
    assert _run([
        "prepare",
        "--interactions", str(raw / "interactions.txt"),
        "--features-visual", str(raw / "features_visual.tmf"),
        "--features-textual", str(raw / "features_textual.tmf"),
        "--out", str(again),
    ]) == 0
    for name in ("split.txt", "user_map.txt", "item_map.txt",
                 "features_visual.tmf", "features_textual.tmf"):
        assert _digest(prep / name) == _digest(again / name)


def test_prepare_missing_input_fails(tmp_path, capsys):
    code = _run([
        "prepare",
        "--interactions", str(tmp_path / "nope.txt"),
        "--features-visual", str(tmp_path / "v.tmf"),
        "--features-textual", str(tmp_path / "t.tmf"),
        "--out", str(tmp_path / "prep"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "toporec synth" in err


def test_synth_features_follow_prepared_item_ids(tmp_path):
    raw, prep = tmp_path / "raw", tmp_path / "prep"
    assert _run(["synth", "--out", str(raw), "--users", "10", "--items", "40",
                 "--clusters", "4", "--seed", "7"]) == 0
    assert _run([
        "prepare",
        "--interactions", str(raw / "interactions.txt"),
        "--features-visual", str(raw / "features_visual.tmf"),
        "--features-textual", str(raw / "features_textual.tmf"),
        "--out", str(prep),
    ]) == 0
    data = make_clustered_dataset(num_users=10, num_items=40, num_clusters=4, seed=7)
    table, fv, ft = load_prepared(prep)
    rows = [data.table.item_tokens.index(t) for t in table.item_tokens]
    assert rows != sorted(rows)  # first appearance differs from generator order
    assert len(rows) < 40  # some items no user touched are left out
    assert np.array_equal(fv.values, data.features_visual.values[rows])
    assert np.array_equal(ft.values, data.features_textual.values[rows])
    clusters = np.loadtxt(raw / "item_clusters.txt", dtype=int)
    assert np.array_equal(clusters, data.item_clusters[rows])


def test_build_graph_modalities_differ(pipeline, tmp_path, capsys):
    _, _, prep, graph, _ = pipeline
    fused = load_graph(graph)
    solo_path = tmp_path / "vis.tmg"
    assert _run(["build-graph", "--prepared", str(prep), "--out", str(solo_path),
                 "--use-textual", "false", "--knn-k", "4"]) == 0
    solo = load_graph(solo_path)
    assert np.all(solo.out_degrees() == 4)
    assert np.all(fused.out_degrees() >= 4)
    assert fused.nnz > solo.nnz
    with pytest.raises(SystemExit):
        _run(["build-graph", "--prepared", str(prep), "--out", str(solo_path),
              "--modality", "visual"])
    assert "--modality" in capsys.readouterr().err


def test_prune_artifacts(pipeline):
    root, _, _, graph, pruned = pipeline
    before = load_graph(graph)
    after = load_graph(pruned)
    assert np.all(after.out_degrees() <= 3)
    assert after.nnz < before.nnz
    lines = (root / "prune.csv").read_text().splitlines()
    assert lines[0] == "node,kept,dropped,min_ts,max_ts"
    assert len(lines) == before.num_nodes + 1


def test_corrupt_roundtrip(pipeline, tmp_path, capsys):
    _, _, _, graph, _ = pipeline
    out = tmp_path / "noisy.tmg"
    assert _run(["corrupt", "--graph", str(graph), "--out", str(out),
                 "--eps", "0.3", "--seed", "5"]) == 0
    noisy = load_graph(out)
    clean = load_graph(graph)
    assert np.array_equal(noisy.out_degrees(), clean.out_degrees())
    assert not np.array_equal(noisy.indices, clean.indices)
    # The log counts the rewired edges: noisy (src, dst) pairs not in the input.
    pairs = [set(zip(g.to_edges()[0].tolist(), g.indices.tolist())) for g in (clean, noisy)]
    assert f" rewired={len(pairs[1] - pairs[0])} " in capsys.readouterr().err


def _tmg2_bytes():
    """A 3-node, 2-edge graph in the retired binary TMG2 layout: the magic,
    node and edge counts, then the CSR arrays."""
    arrays = np.array([0, 2, 2, 2, 1, 2], dtype="<i8").tobytes()
    return b"TMG2" + struct.pack("<IQ", 3, 2) + arrays + np.array([1.0, 0.5], "<f8").tobytes()


NOT_A_GRAPH = "not a graph file (expected a TMG1 header)"


@pytest.mark.parametrize("content, message", [
    (b"TMG1 3 2\n0 1 1.0\n-1 1 1.0\n", "edge line 2: -1 -> 1 is outside 3 nodes"),
    (b"TMG1 3 2\n5 1 1.0\n0 2 1.0\n", "edge line 1: 5 -> 1 is outside 3 nodes"),
    (_tmg2_bytes()[:10], NOT_A_GRAPH),
    (_tmg2_bytes()[:-8], NOT_A_GRAPH),
    (b"TMG1 3 1\n0 1 nan\n", "edge weights must be finite and non-negative"),
    (b"TMG1 3 1\n0 1 inf\n", "edge weights must be finite and non-negative"),
    (b"TMG1 3 1\n0 1 1.0\n0 2 1.0\n", "edge line 2: the header declares only 1 edges"),
], ids=["tmg1-negative-source", "tmg1-source-past-end", "tmg2-short-header", "tmg2-short-body",
        "tmg1-nan-weight", "tmg1-inf-weight", "tmg1-edge-past-count"])
def test_bad_graph_file_fails_with_error_line_naming_it(tmp_path, capsys, content, message):
    bad = tmp_path / "bad.tmg"
    bad.write_bytes(content)
    out = tmp_path / "out.tmg"
    assert _run(["prune", "--graph", str(bad), "--out", str(out), "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["build-graph", "--prepared", "p", "--out", "o"],
    ["prune", "--graph", "g", "--out", "o"],
    ["corrupt", "--graph", "g", "--out", "o", "--eps", "0.1"],
], ids=["build-graph", "prune", "corrupt"])
def test_graph_commands_have_no_binary_flag(argv, capsys):
    with pytest.raises(SystemExit):
        _run([*argv, "--binary"])
    assert "unrecognized arguments: --binary" in capsys.readouterr().err


def test_train_writes_manifest_once(pipeline, tmp_path, monkeypatch):
    _, _, prep, _, pruned = pipeline
    from toporec.trainer import RunManifest

    saves = []
    original = RunManifest.save

    def counting_save(self, out_dir):
        saves.append(out_dir)
        original(self, out_dir)

    monkeypatch.setattr(RunManifest, "save", counting_save)
    run = tmp_path / "run"
    assert _run(["train", "--prepared", str(prep), "--graph", str(pruned), "--out", str(run),
                 "--max-epochs", "1", "--embed-dim", "8", "--hidden-dim", "8"]) == 0
    assert saves == [str(run)]
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["prepared_dir"] == str(prep)
    assert manifest["graph_path"] == str(pruned)


def test_train_without_graph_names_missing_steps(pipeline, capsys):
    root, _, prep, _, _ = pipeline
    code = _run(["train", "--prepared", str(prep), "--out", str(root / "run_x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "build-graph" in err and "prune" in err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--eval-topn", ""], "eval_topn must hold at least one cutoff"),
        (["--eval-topn", "0,20"], "each >= 1"),
        (["--batch-size", "0"], "batch_size must be >= 1"),
        (["--eval-stride", "0"], "eval_stride must be >= 1"),
    ],
    ids=["eval-topn-empty", "eval-topn-zero", "batch-size-zero", "eval-stride-zero"],
)
def test_train_rejects_bad_settings_before_training(pipeline, tmp_path, capsys, monkeypatch,
                                                    flags, message):
    _, _, prep, _, pruned = pipeline

    def no_training(*args, **kwargs):
        raise AssertionError("fit ran with a bad setting")

    monkeypatch.setattr("toporec.cli.fit", no_training)
    code = _run(["train", "--prepared", str(prep), "--graph", str(pruned),
                 "--out", str(tmp_path / "run"), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert not (tmp_path / "run").exists()


def test_train_evaluate_ablate(pipeline, capsys):
    root, _, prep, _, pruned = pipeline
    run = root / "run"
    code = _run([
        "train",
        "--prepared", str(prep),
        "--graph", str(pruned),
        "--out", str(run),
        "--max-epochs", "3",
        "--embed-dim", "8",
        "--hidden-dim", "8",
        "--batch-size", "64",
        "--knn-k", "4",
        "--prune-k", "3",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "test recall@20" in stdout
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["config"]["embed_dim"] == 8
    assert manifest["prepared_dir"] == str(prep)
    assert (run / "checkpoint.tmc").exists()
    assert (run / "epochs.csv").exists()

    # re-scoring the saved checkpoint reproduces the recorded metrics
    assert _run(["evaluate", "--run", str(run), "--split", "test"]) == 0
    stdout = capsys.readouterr().out
    scored = {}
    for line in stdout.strip().splitlines():
        parts = line.split()
        scored[parts[1]] = float(parts[2])
    for key, value in manifest["test_metrics"].items():
        if "@" in key:
            assert abs(scored[key] - value) < 5e-7  # printed at 6 decimals
    metrics = json.loads((run / "metrics_test.json").read_text())
    assert metrics["split"] == "test"
    assert (run / "metrics_test.csv").exists()

    abl = root / "ablation"
    code = _run([
        "ablate",
        "--prepared", str(prep),
        "--out", str(abl),
        "--variants", "no_na,text_only",
        "--max-epochs", "2",
        "--embed-dim", "8",
        "--hidden-dim", "8",
        "--batch-size", "64",
        "--na-weight", "0",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0].startswith("variant")
    assert (abl / "ablation.csv").exists()
    assert (abl / "no_na" / "manifest.json").exists()


@pytest.fixture(scope="module")
def trained(pipeline):
    """A short training run on the shared pipeline's prepared data."""
    root, _, prep, _, pruned = pipeline
    run = root / "run_small"
    assert _run(["train", "--prepared", str(prep), "--graph", str(pruned),
                 "--out", str(run), "--max-epochs", "1", "--embed-dim", "8",
                 "--hidden-dim", "8", "--batch-size", "64", "--knn-k", "4"]) == 0
    return run


def test_evaluate_refuses_other_prepared_data(pipeline, trained, tmp_path, capsys):
    _, raw, _, _, _ = pipeline
    other = tmp_path / "prep_other"
    assert _run([
        "prepare",
        "--interactions", str(raw / "interactions.txt"),
        "--features-visual", str(raw / "features_visual.tmf"),
        "--features-textual", str(raw / "features_textual.tmf"),
        "--out", str(other), "--seed", "8",
    ]) == 0
    capsys.readouterr()
    code = _run(["evaluate", "--run", str(trained), "--prepared", str(other),
                 "--out", str(tmp_path / "m")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "data_hash" in err
    assert not (tmp_path / "m.json").exists()


def test_evaluate_rejects_unknown_manifest_config_key(trained, tmp_path, capsys):
    run = tmp_path / "old_run"
    run.mkdir()
    manifest = json.loads((trained / "manifest.json").read_text())
    manifest["config"]["hop_order"] = 1
    (run / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert _run(["evaluate", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "hop_order" in err


def test_evaluate_rejects_manifest_without_config(trained, tmp_path, capsys):
    run = tmp_path / "no_config"
    run.mkdir()
    manifest = json.loads((trained / "manifest.json").read_text())
    del manifest["config"]
    (run / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert _run(["evaluate", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert f"error: {run / 'manifest.json'}: not a run manifest" in err


def test_evaluate_reports_cut_checkpoint(trained, tmp_path, capsys):
    run = tmp_path / "cut_run"
    run.mkdir()
    shutil.copy(trained / "manifest.json", run / "manifest.json")
    ckpt = run / "checkpoint.tmc"
    ckpt.write_bytes((trained / "checkpoint.tmc").read_bytes()[:20])
    capsys.readouterr()
    assert _run(["evaluate", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert f"error: {ckpt}: truncated at byte " in err


def test_ablate_rejects_unknown_variant(pipeline, capsys):
    root, _, prep, _, _ = pipeline
    code = _run(["ablate", "--prepared", str(prep), "--out", str(root / "a2"),
                 "--variants", "full,bogus"])
    assert code == 1
    assert "unknown variant" in capsys.readouterr().err


def test_config_file_and_flags_layer(pipeline, tmp_path, capsys):
    root, _, prep, _, pruned = pipeline
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[train]\n"
        "max_epochs = 2\n"
        "embed_dim = 8\n"
        "hidden_dim = 8\n"
        "batch_size = 64\n"
        "na_weight = 0.5\n"
    )
    run = tmp_path / "run_ini"
    code = _run([
        "train",
        "--prepared", str(prep),
        "--graph", str(pruned),
        "--out", str(run),
        "--config", str(ini),
        "--na-weight", "1.0",  # flag beats file
    ])
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["config"]["na_weight"] == 1.0
    assert manifest["config"]["max_epochs"] == 2

    ini.write_text("[train]\nmax_epochs = 2\n[paths]\ngraph = g.tmg\n")
    code = _run(["train", "--prepared", str(prep), "--graph", str(pruned),
                 "--out", str(tmp_path / "run_paths"), "--config", str(ini)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "unknown config section [paths]" in err


def test_stderr_logging_is_key_value(pipeline, tmp_path, capsys):
    _run(["synth", "--out", str(tmp_path / "s"), "--users", "20",
          "--items", "10", "--clusters", "2"])
    err = capsys.readouterr().err
    assert "event=synth" in err
    assert "users=20" in err
