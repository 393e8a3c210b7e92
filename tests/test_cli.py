"""End-to-end command-line pipeline on a small synthetic dataset."""

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import toporec
from toporec.autograd import Tensor
from toporec.cli import build_parser, main
from toporec.config import ConfigWarning, TrainConfig
from toporec.data import FeatureMatrix, load_prepared, save_features
from toporec.itemgraph import load_graph
from toporec.optim import load_checkpoint, save_checkpoint
from toporec.synth import make_clustered_dataset
from toporec.trainer import fit


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


@pytest.mark.parametrize("ratios", ["0.8,-0.1,0.3", "nan,0.5,0.5", "inf,0.5,0.5", "a,b,c"],
                         ids=["negative", "nan", "inf", "not-a-number"])
def test_prepare_rejects_bad_ratios(pipeline, tmp_path, capsys, ratios):
    _, raw, _, _, _ = pipeline
    out = tmp_path / "prep"
    assert _run([
        "prepare",
        "--interactions", str(raw / "interactions.txt"),
        "--features-visual", str(raw / "features_visual.tmf"),
        "--features-textual", str(raw / "features_textual.tmf"),
        "--out", str(out),
        "--ratios", ratios,
    ]) == 1
    assert f"error: --ratios {ratios}: " in capsys.readouterr().err
    assert not out.exists()


def test_prepare_rejects_a_file_that_mixes_split_and_plain_lines(pipeline, tmp_path, capsys):
    _, raw, _, _, _ = pipeline
    lines = (raw / "interactions.txt").read_text().splitlines()
    user, item = lines[0].split()
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("".join(f"{line}\n" for line in lines + [f"{user} {item} test"]))
    out = tmp_path / "prep"
    assert _run([
        "prepare",
        "--interactions", str(mixed),
        "--features-visual", str(raw / "features_visual.tmf"),
        "--features-textual", str(raw / "features_textual.tmf"),
        "--out", str(out),
    ]) == 1
    err = capsys.readouterr().err
    assert f"error: {mixed}:{len(lines) + 1}: 3 fields, but the first line has 2" in err
    assert not out.exists()


def test_other_warnings_keep_pythons_format(pipeline, tmp_path, capsys, monkeypatch):
    _, raw, _, _, _ = pipeline
    lines = (raw / "interactions.txt").read_text().splitlines()
    doubled = tmp_path / "doubled.txt"
    doubled.write_text("".join(f"{line}\n" for line in lines + lines[:1]))
    _show_warnings_on_stderr(monkeypatch)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert main([
            "prepare",
            "--interactions", str(doubled),
            "--features-visual", str(raw / "features_visual.tmf"),
            "--features-textual", str(raw / "features_textual.tmf"),
            "--out", str(tmp_path / "prep"),
        ]) == 0
    warned = [line for line in capsys.readouterr().err.splitlines() if "Warning" in line]
    assert len(warned) == 1
    assert warned[0].endswith(f": UserWarning: {doubled}: dropped 1 duplicate interaction row(s)")
    assert warned[0].startswith(os.path.join(os.path.dirname(toporec.__file__), "data.py:"))


@pytest.mark.parametrize("ratios", ["0.8,0.1,0.1", "nan,a"], ids=["valid", "invalid"])
def test_prepare_refuses_ratios_beside_a_split_column(pipeline, tmp_path, capsys, ratios):
    _, raw, prep, _, _ = pipeline
    argv = [
        "prepare",
        "--interactions", str(prep / "split.txt"),
        "--features-visual", str(prep / "features_visual.tmf"),
        "--features-textual", str(prep / "features_textual.tmf"),
    ]
    out = tmp_path / "prep"
    assert _run(argv + ["--out", str(out), "--ratios", ratios]) == 1
    err = capsys.readouterr().err
    assert f"error: --ratios {ratios}: {prep / 'split.txt'} already has a split column" in err
    assert not out.exists()
    # Without the flag the file's own split is kept.
    assert _run(argv + ["--out", str(out)]) == 0
    assert _digest(out / "split.txt") == _digest(prep / "split.txt")
    # On a file with no split column, the default split is 0.8, 0.1, 0.1.
    explicit = tmp_path / "explicit"
    assert _run([
        "prepare",
        "--interactions", str(raw / "interactions.txt"),
        "--features-visual", str(raw / "features_visual.tmf"),
        "--features-textual", str(raw / "features_textual.tmf"),
        "--out", str(explicit),
        "--ratios", "0.8,0.1,0.1",
    ]) == 0
    assert _digest(explicit / "split.txt") == _digest(prep / "split.txt")


def test_prepare_refuses_seed_beside_a_split_column(pipeline, tmp_path, capsys):
    _, raw, prep, _, _ = pipeline
    out = tmp_path / "prep"
    assert _run([
        "prepare",
        "--interactions", str(prep / "split.txt"),
        "--features-visual", str(prep / "features_visual.tmf"),
        "--features-textual", str(prep / "features_textual.tmf"),
        "--out", str(out),
        "--seed", "5",
    ]) == 1
    err = capsys.readouterr().err
    assert f"error: --seed 5: {prep / 'split.txt'} already has a split column" in err
    assert not out.exists()
    # On a file with no split column, the split seed defaults to 42.
    assert _run([
        "prepare",
        "--interactions", str(raw / "interactions.txt"),
        "--features-visual", str(raw / "features_visual.tmf"),
        "--features-textual", str(raw / "features_textual.tmf"),
        "--out", str(out),
        "--seed", "42",
    ]) == 0
    assert _digest(out / "split.txt") == _digest(prep / "split.txt")


@pytest.mark.parametrize("flag, value, name", [
    ("--clusters", "0", "num_clusters"),
    ("--clusters", "-1", "num_clusters"),
    ("--items", "0", "num_items"),
    ("--users", "0", "num_users"),
], ids=["no-clusters", "negative-clusters", "no-items", "no-users"])
def test_synth_rejects_counts_below_one(tmp_path, capsys, flag, value, name):
    out = tmp_path / "raw"
    assert _run(["synth", "--out", str(out), "--users", "20", "--items", "10",
                 "--clusters", "2", flag, value]) == 1
    assert f"error: {name} must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "prepare", "corrupt"])
def test_seed_flags_take_the_config_rule(pipeline, tmp_path, capsys, command):
    _, raw, _, graph, _ = pipeline
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--out", str(out)],
        "prepare": ["prepare", "--interactions", str(raw / "interactions.txt"),
                    "--features-visual", str(raw / "features_visual.tmf"),
                    "--features-textual", str(raw / "features_textual.tmf"), "--out", str(out)],
        "corrupt": ["corrupt", "--graph", str(graph), "--out", str(out), "--eps", "0.1"],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        _run([*argv, "--seed", "-1"])
    assert exit_info.value.code == 2
    assert "argument --seed: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


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


def test_prune_k_defaults_to_the_config_default():
    args = build_parser().parse_args(["prune", "--graph", "g", "--out", "o"])
    assert args.k == TrainConfig().prune_k


def test_prune_k_takes_the_config_rule(pipeline, tmp_path, capsys, monkeypatch):
    _, _, _, graph, _ = pipeline
    _show_warnings_on_stderr(monkeypatch)
    capsys.readouterr()
    out = tmp_path / "pruned.tmg"
    with warnings.catch_warnings():
        warnings.simplefilter("always", ConfigWarning)
        assert main(["prune", "--graph", str(graph), "--out", str(out), "--k", "20"]) == 0
    assert capsys.readouterr().err.splitlines()[0] == (
        "event=warning command=prune message=prune_k=20 is outside the searched range (3, 10)"
    )
    out.unlink()
    assert _run(["prune", "--graph", str(graph), "--out", str(out), "--k", "0"]) == 1
    assert "error: prune_k must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("flag", [["--lr", "0.1"], ["--prune-k", "3"]], ids=["lr", "prune-k"])
def test_build_graph_refuses_flags_it_does_not_read(pipeline, tmp_path, capsys, flag):
    _, _, prep, _, _ = pipeline
    out = tmp_path / "g.tmg"
    with pytest.raises(SystemExit) as exit_info:
        _run(["build-graph", "--prepared", str(prep), "--out", str(out), "--knn-k", "4", *flag])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_build_graph_config_may_hold_training_keys(pipeline, tmp_path):
    _, _, prep, graph, _ = pipeline
    ini = tmp_path / "run.ini"
    ini.write_text("[train]\nknn_k = 4\nlr = 0.1\nprune_k = 3\nseed = 9\ndtype = float64\n")
    out = tmp_path / "g.tmg"
    assert _run(["build-graph", "--prepared", str(prep), "--out", str(out),
                 "--config", str(ini)]) == 0
    assert _digest(out) == _digest(graph)


def test_build_graph_warns_only_about_graph_settings(pipeline, tmp_path):
    _, _, prep, _, _ = pipeline
    ini = tmp_path / "run.ini"
    ini.write_text("[train]\nlr = 0.1\nprune_k = 20\nmax_epochs = 5\n")
    argv = ["build-graph", "--prepared", str(prep), "--out", str(tmp_path / "g.tmg"),
            "--config", str(ini)]
    for flags, expected in [([], []), (["--knn-k", "4"], ["knn_k=4 differs from the default 10"])]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, *flags]) == 0
        assert [str(w.message) for w in caught if w.category is ConfigWarning] == expected


def _show_warnings_on_stderr(monkeypatch):
    def show(message, category, filename, lineno, file=None, line=None):
        # What Python does with a warning that no recorder takes.
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    monkeypatch.setattr(warnings, "showwarning", show)


def test_config_warning_is_one_key_value_line(pipeline, tmp_path, capsys, monkeypatch):
    _, _, prep, _, _ = pipeline
    _show_warnings_on_stderr(monkeypatch)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("always", ConfigWarning)
        assert main(["build-graph", "--prepared", str(prep), "--out", str(tmp_path / "g.tmg"),
                     "--knn-k", "4"]) == 0
    assert capsys.readouterr().err.splitlines()[0] == (
        "event=warning command=build-graph message=knn_k=4 differs from the default 10"
    )
    # Outside the command, warnings keep Python's format.
    assert warnings.formatwarning("x", ConfigWarning, "f.py", 1, "").startswith("f.py:1:")


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


def test_train_records_no_graph_it_did_not_read(pipeline, tmp_path):
    _, _, prep, _, _ = pipeline
    run = tmp_path / "run"
    assert _run(["train", "--prepared", str(prep), "--graph", str(tmp_path / "none" / "g.tmg"),
                 "--out", str(run), "--na-weight", "0", "--max-epochs", "1",
                 "--embed-dim", "8", "--hidden-dim", "8"]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    assert (manifest["graph_path"], manifest["graph_hash"]) == ("", "")


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
        (["--embed-dim", "0"], "embed_dim must be >= 1, got 0"),
        (["--hidden-dim", "0"], "hidden_dim must be >= 1, got 0"),
        (["--lr", "-0.01"], "lr must be >= 0, got -0.01"),
        (["--l2-weight", "-0.1"], "l2_weight must be >= 0, got -0.1"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--dropout", "1.5"], "dropout must be in [0, 1), got 1.5"),
        (["--max-epochs", "0"], "max_epochs must be >= 1, got 0"),
        (["--lr", "inf"], "lr must be finite, got inf"),
        (["--l2-weight", "inf"], "l2_weight must be finite, got inf"),
        (["--na-weight", "inf"], "na_weight must be finite, got inf"),
        (["--temperature", "inf"], "temperature must be finite, got inf"),
    ],
    ids=["eval-topn-empty", "eval-topn-zero", "batch-size-zero", "eval-stride-zero",
         "embed-dim-zero", "hidden-dim-zero", "lr-negative", "l2-weight-negative",
         "seed-negative", "dropout-above-one", "max-epochs-zero", "lr-inf", "l2-weight-inf",
         "na-weight-inf", "temperature-inf"],
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


def test_train_reports_non_finite_loss_as_error_line(pipeline, tmp_path, capsys, monkeypatch):
    _, _, prep, _, pruned = pipeline
    monkeypatch.setattr("toporec.trainer.joint_loss",
                        lambda *args: Tensor(np.full((1, 1), np.nan)))
    run = tmp_path / "run"
    code = _run(["train", "--prepared", str(prep), "--graph", str(pruned), "--out", str(run),
                 "--max-epochs", "1", "--embed-dim", "8", "--hidden-dim", "8"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: non-finite loss at epoch 0 step 0" in err
    assert str(run / "nan_batch.npz") in err


def test_evaluate_needs_a_run_manifest(tmp_path, capsys):
    assert _run(["evaluate", "--run", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"error: run manifest not found at {tmp_path / 'manifest.json'}" in err


def test_evaluate_a_library_run_needs_prepared(pipeline, tmp_path, capsys):
    _, _, prep, _, _ = pipeline
    table, fv, ft = load_prepared(str(prep))
    cfg = TrainConfig(seed=2, na_weight=0.0, embed_dim=8, hidden_dim=8, max_epochs=1)
    run = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        manifest = fit(cfg, table, fv, ft, out_dir=str(run))
    assert manifest.prepared_dir == ""
    capsys.readouterr()
    assert _run(["evaluate", "--run", str(run)]) == 1
    assert "error: manifest has no prepared_dir; pass --prepared" in capsys.readouterr().err
    assert _run(["evaluate", "--run", str(run), "--prepared", str(prep)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4  # recall and NDCG at the default cutoffs, 10 and 20
    assert out == [f"test {key} {value:.6f}"
                   for key, value in sorted(manifest.test_metrics.items()) if "@" in key]


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
    # Every artifact of the pipeline (raw, prepared, graphs, runs) was renamed into place.
    assert sorted(root.rglob("*.tmp")) == []


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_train_with_batch_anchors_on_every_modality(pipeline, tmp_path, capsys, dtype):
    _, _, prep, _, pruned = pipeline
    runs = [tmp_path / "a", tmp_path / "b"]
    for run in runs:
        assert _run(["train", "--prepared", str(prep), "--graph", str(pruned), "--out", str(run),
                     "--max-epochs", "3", "--embed-dim", "8", "--hidden-dim", "8",
                     "--batch-size", "64", "--na-anchor-mode", "bpr_batch",
                     "--na-on-modalities", "true", "--dtype", dtype]) == 0
    arrays = load_checkpoint(runs[0] / "checkpoint.tmc")
    assert arrays and {a.dtype for a in arrays.values()} == {np.dtype(dtype)}
    manifest = json.loads((runs[0] / "manifest.json").read_text())
    assert manifest["config"]["dtype"] == dtype
    assert manifest["config"]["na_anchor_mode"] == "bpr_batch"
    assert manifest["config"]["na_on_modalities"] is True
    assert len(manifest["epochs"]) == 3
    assert all(row["loss_na"] > 0 for row in manifest["epochs"])
    for name in ("epochs.csv", "checkpoint.tmc"):
        assert _digest(runs[0] / name) == _digest(runs[1] / name)

    capsys.readouterr()
    assert _run(["evaluate", "--run", str(runs[0]), "--out", str(tmp_path / "m")]) == 0
    scored = json.loads((tmp_path / "m.json").read_text())
    for key, value in manifest["test_metrics"].items():
        if "@" in key:
            assert scored[key] == value, key


def test_commands_create_output_directories(pipeline, tmp_path):
    _, _, prep, graph, _ = pipeline
    fused = tmp_path / "new" / "fused.tmg"
    assert _run(["build-graph", "--prepared", str(prep), "--out", str(fused),
                 "--knn-k", "4"]) == 0
    assert _digest(fused) == _digest(graph)
    pruned = tmp_path / "other" / "deeper" / "pruned.tmg"
    assert _run(["prune", "--graph", str(fused), "--out", str(pruned), "--k", "3"]) == 0
    assert load_graph(pruned).nnz > 0
    assert sorted(tmp_path.rglob("*.tmp")) == []


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


@pytest.mark.parametrize("key, value, expected", [
    ("eval_topn", 5, "a list of integers"),
    ("embed_dim", "x", "an integer"),
], ids=["eval_topn-int", "embed_dim-str"])
def test_evaluate_rejects_mistyped_manifest_config(trained, tmp_path, capsys, key, value,
                                                   expected):
    run = tmp_path / "mistyped"
    shutil.copytree(trained, run)
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["config"][key] = value
    (run / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert _run(["evaluate", "--run", str(run), "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err
    assert f"error: {run / 'manifest.json'}: config key {key!r}: expected {expected}" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("key, value, expected", [
    ("eval_topn", [], "eval_topn must hold at least one cutoff, each >= 1, got ()"),
    ("embed_dim", -1, "embed_dim must be >= 1, got -1"),
    ("embed_dim", 0, "embed_dim must be >= 1, got 0"),
], ids=["eval_topn-empty", "embed_dim-negative", "embed_dim-zero"])
def test_evaluate_applies_config_rules_to_manifest(trained, tmp_path, capsys, monkeypatch, key,
                                                   value, expected):
    run = tmp_path / "out_of_range"
    shutil.copytree(trained, run)
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["config"][key] = value
    (run / "manifest.json").write_text(json.dumps(manifest))

    def no_loading(*args, **kwargs):
        raise AssertionError("load_prepared ran with a bad manifest config")

    monkeypatch.setattr("toporec.cli.load_prepared", no_loading)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["evaluate", "--run", str(run), "--out", str(tmp_path / "m")]) == 1
    assert not [w for w in caught if issubclass(w.category, ConfigWarning)]
    err = capsys.readouterr().err
    assert f"error: {run / 'manifest.json'}: {expected}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


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


def test_evaluate_names_a_damaged_manifest(trained, tmp_path, capsys):
    run = tmp_path / "bad_json"
    shutil.copytree(trained, run)
    (run / "manifest.json").write_text("{not json")
    capsys.readouterr()
    assert _run(["evaluate", "--run", str(run), "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err
    assert f"error: {run / 'manifest.json'}: Expecting property name" in err
    assert not (tmp_path / "m.json").exists()


def test_evaluate_names_a_checkpoint_whose_scores_overflow(trained, tmp_path, capsys):
    run = tmp_path / "huge"
    shutil.copytree(trained, run)
    arrays = load_checkpoint(run / "checkpoint.tmc")
    arrays["item_embed"] *= np.float32(1e30)  # finite, but no score fits float32
    save_checkpoint(run / "checkpoint.tmc", arrays)
    capsys.readouterr()
    assert _run(["evaluate", "--run", str(run), "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err
    assert f"error: {run / 'checkpoint.tmc'}: its weights overflow float32" in err
    assert not (tmp_path / "m.json").exists()


def test_evaluate_refuses_features_of_another_width(pipeline, trained, tmp_path, capsys):
    _, _, prep, _, _ = pipeline
    wide = tmp_path / "prep_wide"
    shutil.copytree(prep, wide)
    _, _, ft = load_prepared(str(prep))
    values = np.random.default_rng(0).random((ft.num_items, 2 * ft.dim))
    save_features(str(wide / "features_textual.tmf"), FeatureMatrix("textual", values))
    capsys.readouterr()
    # Same interactions and split, so only the widths tell the runs apart.
    assert _run(["evaluate", "--run", str(trained), "--prepared", str(wide),
                 "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err
    assert (f"error: prepared directory {wide} holds {2 * ft.dim}-d textual features, "
            f"but the manifest in {trained} records textual_dim {ft.dim}") in err
    assert not (tmp_path / "m.json").exists()


def test_evaluate_rejects_manifest_without_a_field(trained, tmp_path, capsys):
    run = tmp_path / "no_width"
    shutil.copytree(trained, run)
    manifest = json.loads((run / "manifest.json").read_text())
    del manifest["visual_dim"]
    (run / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert _run(["evaluate", "--run", str(run), "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err
    assert f"error: {run / 'manifest.json'}: not a run manifest (" in err
    assert "visual_dim" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("key, value, got, expected", [
    ("prepared_dir", 5, "int", "str"),
    ("num_items", "20", "str", "int"),
    ("visual_dim", True, "bool", "int"),
    ("best_epoch", 0.5, "float", "int"),
    ("best_val_r20", "0.3", "str", "float"),
    ("epochs", {}, "dict", "list"),
    ("test_metrics", [], "list", "dict"),
    ("feature_hashes", "x", "str", "dict"),
], ids=["prepared_dir", "num_items", "visual_dim", "best_epoch", "best_val_r20", "epochs",
        "test_metrics", "feature_hashes"])
def test_evaluate_rejects_mistyped_manifest_field(trained, tmp_path, capsys, key, value, got,
                                                  expected):
    run = tmp_path / "mistyped"
    shutil.copytree(trained, run)
    manifest = json.loads((run / "manifest.json").read_text())
    manifest[key] = value
    (run / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert _run(["evaluate", "--run", str(run), "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err
    assert (f"error: {run / 'manifest.json'}: not a run manifest "
            f"({key} is {got}, expected {expected})") in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_evaluate_takes_an_integer_float_field(trained, tmp_path):
    run = tmp_path / "int_best"
    shutil.copytree(trained, run)
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["best_val_r20"] = 0
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert _run(["evaluate", "--run", str(run), "--out", str(tmp_path / "m")]) == 0


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


def test_evaluate_loads_only_the_run_directory_checkpoint(trained, tmp_path, capsys):
    run = tmp_path / "no_checkpoint"
    run.mkdir()
    manifest = json.loads((trained / "manifest.json").read_text())
    # An older manifest named its checkpoint; this one names the other
    # run's, which exists.
    manifest["checkpoint_path"] = str(trained / "checkpoint.tmc")
    (run / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert _run(["evaluate", "--run", str(run), "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err
    assert f"error: checkpoint not found at {run / 'checkpoint.tmc'}" in err
    assert not (tmp_path / "m.json").exists()


def test_evaluate_reads_a_manifest_with_retired_keys(trained, tmp_path):
    run = tmp_path / "old_run"
    shutil.copytree(trained, run)
    manifest = json.loads((run / "manifest.json").read_text())
    assert not {"seed", "checkpoint_path"} & set(manifest)
    manifest.update(seed=manifest["config"]["seed"], checkpoint_path="run0/checkpoint.tmc")
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert _run(["evaluate", "--run", str(trained), "--out", str(tmp_path / "new")]) == 0
    assert _run(["evaluate", "--run", str(run), "--out", str(tmp_path / "old")]) == 0
    assert (tmp_path / "old.json").read_text() == (tmp_path / "new.json").read_text()


def test_map_ids_out_of_file_order_fail_with_error_line(pipeline, trained, tmp_path, capsys):
    _, _, prep, _, pruned = pipeline
    bad = tmp_path / "prep_bad_map"
    shutil.copytree(prep, bad)
    (bad / "user_map.txt").write_text("1 alice\n0 bob\n7 carol\n")
    expected = f"error: {bad / 'user_map.txt'}:1: id 1 where id 0 is due"
    capsys.readouterr()
    assert _run(["evaluate", "--run", str(trained), "--prepared", str(bad)]) == 1
    assert expected in capsys.readouterr().err
    assert _run(["train", "--prepared", str(bad), "--graph", str(pruned),
                 "--out", str(tmp_path / "run"), "--max-epochs", "1"]) == 1
    assert expected in capsys.readouterr().err


def test_ablate_rejects_unknown_variant(pipeline, capsys):
    root, _, prep, _, _ = pipeline
    code = _run(["ablate", "--prepared", str(prep), "--out", str(root / "a2"),
                 "--variants", "full,bogus"])
    assert code == 1
    assert "unknown variant" in capsys.readouterr().err


@pytest.mark.parametrize("variants, message", [
    (",", "no variant given"),
    ("full,full", "variant 'full' is listed twice"),
], ids=["empty", "repeated"])
def test_ablate_rejects_an_empty_or_repeated_variant_list(pipeline, tmp_path, capsys, variants,
                                                          message):
    _, _, prep, _, _ = pipeline
    out = tmp_path / "abl"
    assert _run(["ablate", "--prepared", str(prep), "--out", str(out),
                 "--variants", variants]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cutoffs", ["5", "5,5"], ids=["one", "repeated"])
def test_ablate_columns_follow_eval_topn(pipeline, tmp_path, capsys, cutoffs):
    _, _, prep, _, _ = pipeline
    out = tmp_path / "abl"
    assert _run(["ablate", "--prepared", str(prep), "--out", str(out), "--variants", "no_na",
                 "--max-epochs", "1", "--embed-dim", "8", "--hidden-dim", "8",
                 "--batch-size", "64", "--eval-topn", cutoffs]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["variant", "recall@5", "ndcg@5"]
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "variant,recall@5,ndcg@5"
    assert lines[1].split(",")[0] == row.split()[0] == "no_na"
    test_metrics = json.loads((out / "no_na" / "manifest.json").read_text())["test_metrics"]
    for key, shown, written in zip(("recall@5", "ndcg@5"), row.split()[1:],
                                   lines[1].split(",")[1:]):
        assert np.isfinite(float(written)) and float(written) == test_metrics[key]
        assert shown == f"{float(written):.4f}"


def test_ablate_runs_evaluate_without_prepared(pipeline, tmp_path, capsys):
    _, _, prep, _, _ = pipeline
    out = tmp_path / "abl"
    assert _run(["ablate", "--prepared", str(prep), "--out", str(out), "--variants", "no_na",
                 "--max-epochs", "1", "--embed-dim", "8", "--hidden-dim", "8",
                 "--batch-size", "64"]) == 0
    manifest = json.loads((out / "no_na" / "manifest.json").read_text())
    assert manifest["prepared_dir"] == str(prep)
    capsys.readouterr()
    assert _run(["evaluate", "--run", str(out / "no_na")]) == 0
    scored = {key: float(value) for _, key, value in
              (line.split() for line in capsys.readouterr().out.splitlines())}
    assert scored.keys() == manifest["test_metrics"].keys() - {"split", "num_users"}
    for key, value in scored.items():
        assert abs(value - manifest["test_metrics"][key]) < 5e-7  # printed at 6 decimals


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

    # The file is checked on its own: a flag does not mend a bad file value.
    ini.write_text("[train]\nembed_dim = 0\n")
    code = _run(["train", "--prepared", str(prep), "--graph", str(pruned),
                 "--out", str(tmp_path / "run_bad"), "--config", str(ini),
                 "--embed-dim", "8"])
    assert code == 1
    assert f"error: {ini}: embed_dim must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "run_bad").exists()


@pytest.mark.parametrize("text", [
    "[train]\nlr = 0.001\nlr = 0.002\n",
    "[train]\nlr = 0.001\n[train]\nseed = 1\n",
    "lr = 0.001\n",
], ids=["repeated-key", "repeated-section", "no-section-header"])
def test_ini_file_mistakes_end_in_error_line(pipeline, tmp_path, capsys, text):
    _, _, prep, _, _ = pipeline
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    capsys.readouterr()
    assert _run(["build-graph", "--prepared", str(prep), "--out", str(tmp_path / "g.tmg"),
                 "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert f"error: {ini}: " in err
    assert "Traceback" not in err


def test_stderr_logging_is_key_value(pipeline, tmp_path, capsys):
    _run(["synth", "--out", str(tmp_path / "s"), "--users", "20",
          "--items", "10", "--clusters", "2"])
    err = capsys.readouterr().err
    assert "event=synth" in err
    assert "users=20" in err


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nembed_dim = 0\n",
    "[DEFAULT]\nlr = 0.5\n[train]\nseed = 3\n",
], ids=["only-default", "default-beside-train"])
def test_ini_default_section_is_rejected(pipeline, tmp_path, capsys, text):
    _, _, prep, _, _ = pipeline
    ini = tmp_path / "default.ini"
    ini.write_text(text)
    capsys.readouterr()
    assert _run(["build-graph", "--prepared", str(prep), "--out", str(tmp_path / "g.tmg"),
                 "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert f"error: {ini}: keys in [DEFAULT] are not read; put them under [train]" in err
    assert not (tmp_path / "g.tmg").exists()


def _set_byte(path, offset, value=0xFF):
    data = bytearray(path.read_bytes())
    data[offset] = value
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("case", ["interactions", "user-map", "split", "config", "tmf1-tag",
                                  "tmc1-name"])
def test_bytes_that_are_not_utf8_fail_with_error_line_naming_the_file(
        pipeline, trained, tmp_path, capsys, case):
    _, raw, prep, _, pruned = pipeline
    bad_prep = tmp_path / "prep"
    shutil.copytree(prep, bad_prep)
    run = tmp_path / "run"
    shutil.copytree(trained, run)
    shutil.copy(raw / "interactions.txt", tmp_path / "interactions.txt")
    (tmp_path / "run.ini").write_text("[train]\nlr = 0.001\n")
    prepare = ["prepare", "--interactions", str(tmp_path / "interactions.txt"),
               "--features-visual", str(raw / "features_visual.tmf"),
               "--features-textual", str(raw / "features_textual.tmf"),
               "--out", str(tmp_path / "prep_new")]
    train = ["train", "--prepared", str(bad_prep), "--graph", str(pruned),
             "--out", str(tmp_path / "run_new"), "--max-epochs", "1"]
    build = ["build-graph", "--prepared", str(prep), "--out", str(tmp_path / "g.tmg"),
             "--config", str(tmp_path / "run.ini")]
    # (file, offset of the byte made 0xff, command); the TMF1 tag starts at
    # byte 13 and the first TMC1 array name at byte 12.
    bad, offset, argv = {
        "interactions": (tmp_path / "interactions.txt", 1, prepare),
        "user-map": (bad_prep / "user_map.txt", 2, train),
        "split": (bad_prep / "split.txt", 0, train),
        "config": (tmp_path / "run.ini", 9, build),
        "tmf1-tag": (bad_prep / "features_visual.tmf", 13,
                     ["evaluate", "--run", str(trained), "--prepared", str(bad_prep)]),
        "tmc1-name": (run / "checkpoint.tmc", 12, ["evaluate", "--run", str(run)]),
    }[case]
    _set_byte(bad, offset)
    capsys.readouterr()
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}" in err
    if case == "tmc1-name":
        assert f"error: {bad}: array name at byte 12 is not UTF-8" in err
    elif case in ("interactions", "user-map", "split"):
        assert f"error: {bad}: not UTF-8 text (" in err
    assert not (tmp_path / "prep_new").exists() and not (tmp_path / "run_new").exists()


@pytest.mark.parametrize("case", ["tmf1", "tmc1", "tmg1"])
def test_header_count_past_the_end_fails_with_error_line(pipeline, trained, tmp_path, capsys,
                                                         case):
    # Each header declares more than 2**63 bytes, so no reader may try to
    # allocate or read that much before it fails.
    _, raw, _, _, _ = pipeline
    big = 2**32 - 1
    bad = tmp_path / f"bad.{case}"
    if case == "tmf1":
        bad.write_bytes(b"TMF1" + struct.pack("<IIB", big, big, 6) + b"visual")
        argv = ["prepare", "--interactions", str(raw / "interactions.txt"),
                "--features-visual", str(bad),
                "--features-textual", str(raw / "features_textual.tmf"),
                "--out", str(tmp_path / "prep")]
        message = "truncated at byte 19: the feature payload needs "
    elif case == "tmc1":
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(trained / "manifest.json", run / "manifest.json")
        bad = run / "checkpoint.tmc"
        bad.write_bytes(b"TMC1" + struct.pack("<HIH", 1, 1, 1) + b"a"
                        + struct.pack("<BII", 1, big, big))
        argv = ["evaluate", "--run", str(run)]
        message = "truncated at byte 22: the payload of 'a' needs "
    else:
        bad.write_bytes(b"TMG1 3 99999999999999999999999\n")
        argv = ["prune", "--graph", str(bad), "--out", str(tmp_path / "out.tmg"), "--k", "1"]
        message = "edge line 1 malformed"
    capsys.readouterr()
    assert _run(argv) == 1
    assert f"error: {bad}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("body", [b"", b"0 1 1.0\n"], ids=["no-edges", "one-edge"])
def test_graph_node_count_past_memory_fails_with_error_line(tmp_path, capsys, body):
    # 10**15 nodes need an 8 PB index array, more than any address space
    # holds, so the allocation fails at once without touching memory.
    bad = tmp_path / "huge.tmg"
    bad.write_bytes(b"TMG1 1000000000000000 %d\n" % body.count(b"\n") + body)
    out = tmp_path / "out.tmg"
    capsys.readouterr()
    assert _run(["prune", "--graph", str(bad), "--out", str(out), "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: the header declares 1000000000000000 nodes" in err
    assert "Traceback" not in err and not out.exists()


def test_graph_node_count_past_file_size_fails_before_allocating(tmp_path, capsys):
    # 10**7 nodes from 16 bytes: the index array alone would take 80 MB.
    bad = tmp_path / "nodes.tmg"
    bad.write_bytes(b"TMG1 10000000 0\n")
    out = tmp_path / "out.tmg"
    capsys.readouterr()
    assert _run(["prune", "--graph", str(bad), "--out", str(out), "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: the header declares 10000000 nodes" in err
    assert not out.exists()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="the header declares 10000000 nodes"):
            load_graph(bad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak} bytes"


@pytest.mark.parametrize("nodes", [10, 40], ids=["fewer-nodes", "more-nodes"])
def test_train_rejects_graph_of_another_node_count(pipeline, tmp_path, capsys, nodes):
    _, _, prep, _, _ = pipeline
    graph = tmp_path / "g.tmg"
    graph.write_text(f"TMG1 {nodes} 2\n0 {nodes - 1} 1.0\n{nodes - 1} 0 1.0\n")
    run = tmp_path / "run"
    capsys.readouterr()
    assert _run(["train", "--prepared", str(prep), "--graph", str(graph), "--out", str(run),
                 "--max-epochs", "1", "--embed-dim", "8", "--hidden-dim", "8"]) == 1
    err = capsys.readouterr().err
    assert f"error: item graph {graph} has {nodes} nodes, but the interactions have 20 items" in err
    assert not run.exists()


# Run in a fresh interpreter: every step must leave scipy unloaded.
_COLD_START = """
import json, sys
import toporec.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    loaded[argv[0]] = scipy_modules()
print(json.dumps(loaded))
"""


def test_graph_building_commands_start_without_scipy(tmp_path):
    raw, prep = tmp_path / "raw", tmp_path / "prep"
    steps = [
        ["synth", "--out", str(raw), "--users", "60", "--items", "30", "--clusters", "3"],
        ["prepare", "--interactions", str(raw / "interactions.txt"),
         "--features-visual", str(raw / "features_visual.tmf"),
         "--features-textual", str(raw / "features_textual.tmf"), "--out", str(prep)],
        ["build-graph", "--prepared", str(prep), "--out", str(tmp_path / "g.tmg")],
        ["corrupt", "--graph", str(tmp_path / "g.tmg"), "--out", str(tmp_path / "c.tmg"),
         "--eps", "0.2"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(toporec.__file__)))
    done = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(steps)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    # `prepare` prints its stats line first.
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == {"import": [], "synth": [], "prepare": [], "build-graph": [], "corrupt": []}
