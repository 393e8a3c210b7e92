"""Seeded damage to every file a command reads.

Each case damages one valid file of a small pipeline run in turn and
runs a command that reads it through `cli.main`. Every run must exit 0,
or exit 1 with an `error:` line on stderr that names a file of the run;
no exception may escape. The damage is seeded per file: the empty file,
cuts inside the header and anywhere after it, replaced bytes and
appended bytes.
"""

import warnings

import numpy as np
import pytest

from toporec.cli import main
from toporec.config import ConfigWarning


def _run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        return main(argv)


TRAIN = ["--prepared", "{root}/prep", "--graph", "{root}/pruned.tmg", "--max-epochs", "1",
         "--embed-dim", "8", "--hidden-dim", "8", "--batch-size", "64"]
BUILD = ["build-graph", "--prepared", "{root}/prep", "--out", "{root}/out/fused.tmg",
         "--knn-k", "4"]


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """synth -> prepare -> build-graph -> prune -> train on 60 x 30 data,
    and an INI file, all valid."""
    root = tmp_path_factory.mktemp("fuzz")
    raw, prep = root / "raw", root / "prep"
    assert _run(["synth", "--out", str(raw), "--users", "60", "--items", "30",
                 "--clusters", "3", "--seed", "5"]) == 0
    assert _run(["prepare", "--interactions", str(raw / "interactions.txt"),
                 "--features-visual", str(raw / "features_visual.tmf"),
                 "--features-textual", str(raw / "features_textual.tmf"),
                 "--out", str(prep)]) == 0
    assert _run(["build-graph", "--prepared", str(prep), "--out", str(root / "fused.tmg"),
                 "--knn-k", "4"]) == 0
    assert _run(["prune", "--graph", str(root / "fused.tmg"), "--out", str(root / "pruned.tmg"),
                 "--k", "3"]) == 0
    assert _run([arg.format(root=root) for arg in ["train", *TRAIN, "--out", "{root}/run"]]) == 0
    (root / "run.ini").write_text(
        "[train]\nknn_k = 4\nvisual_weight = 0.25\nbinarize_knn = false\n", encoding="utf-8")
    return root


# The file each case damages, and the commands that read it.
CASES = {
    "raw/interactions.txt": [[
        "prepare", "--interactions", "{root}/raw/interactions.txt",
        "--features-visual", "{root}/raw/features_visual.tmf",
        "--features-textual", "{root}/raw/features_textual.tmf", "--out", "{root}/out/prep"]],
    "prep/split.txt": [BUILD],
    "prep/user_map.txt": [BUILD],
    "prep/item_map.txt": [BUILD],
    "prep/features_visual.tmf": [BUILD],
    "prep/features_textual.tmf": [BUILD],
    "pruned.tmg": [["prune", "--graph", "{root}/pruned.tmg", "--out", "{root}/out/p.tmg",
                    "--k", "2"],
                   ["train", *TRAIN, "--out", "{root}/out/run"]],
    "run/checkpoint.tmc": [["evaluate", "--run", "{root}/run", "--out", "{root}/out/m"]],
    "run/manifest.json": [["evaluate", "--run", "{root}/run", "--out", "{root}/out/m"]],
    "run.ini": [[*BUILD, "--config", "{root}/run.ini"]],
}


def _damaged(data, seed):
    """Seeded damaged copies of `data`: empty, cut in the first 32 bytes
    (every header's first bytes) and anywhere, with 1-3 bytes replaced,
    and with 1-12 bytes appended."""
    rng = np.random.default_rng(seed)
    size = len(data)
    out = [b""]
    out += [data[:cut] for cut in rng.integers(1, min(size, 32), 4)]
    out += [data[:cut] for cut in rng.integers(1, size, 4)]
    for _ in range(8):
        copy = bytearray(data)
        for at in rng.integers(0, size, rng.integers(1, 4)):
            copy[at] = rng.integers(0, 256)
        out.append(bytes(copy))
    out += [data + rng.integers(0, 256, rng.integers(1, 13), dtype=np.uint8).tobytes()
            for _ in range(3)]
    return out


@pytest.mark.parametrize("name", list(CASES))
def test_damaged_input_exits_with_an_error_line(root, name, capsys):
    path = root / name
    valid = path.read_bytes()
    seed = sum(name.encode())
    try:
        for case, data in enumerate(_damaged(valid, seed)):
            path.write_bytes(data)
            for argv in CASES[name]:
                capsys.readouterr()
                code = _run([arg.format(root=root) for arg in argv])
                err = capsys.readouterr().err
                where = f"{name} damage {case}: {argv[0]} exited {code}"
                assert code in (0, 1), where
                if code == 1:  # the error line names a file of the run
                    assert any(line.startswith("error: ") and str(root) in line
                               for line in err.splitlines()), where
    finally:
        path.write_bytes(valid)
