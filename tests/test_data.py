"""Interaction parsing, splitting, negative sampling, and feature IO."""

import io
import os
import re
import stat
import struct
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from toporec.data import (
    ROLE_TEST,
    ROLE_TRAIN,
    ROLE_UNSET,
    ROLE_VAL,
    FeatureMatrix,
    InteractionTable,
    dataset_stats,
    is_member,
    load_features,
    load_interactions,
    load_prepared,
    make_split,
    read_end,
    sample_bpr_triples,
    save_features,
    save_prepared,
    save_split,
    write_file,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _table(num_users, num_items, edges, roles=None):
    edges = np.asarray(edges, dtype=np.int64)
    if roles is None:
        roles = np.full(len(edges), ROLE_UNSET, dtype=np.int8)
    return InteractionTable(
        num_users=num_users,
        num_items=num_items,
        user_tokens=[f"u{k}" for k in range(num_users)],
        item_tokens=[f"i{k}" for k in range(num_items)],
        edges=edges,
        roles=np.asarray(roles, dtype=np.int8),
    )


def test_load_interactions_counts_and_id_maps(tmp_path):
    path = _write(tmp_path, "tiny.txt", "u1 i1\nu1 i2\nu2 i1\n")
    table = load_interactions(path)
    assert table.num_users == 2
    assert table.num_items == 2
    assert table.num_interactions == 3
    # first-appearance order, and token -> index -> token is the identity
    assert table.user_tokens == ["u1", "u2"]
    assert table.item_tokens == ["i1", "i2"]
    assert table.edges.tolist() == [[0, 0], [0, 1], [1, 0]]
    assert not table.has_roles()


def test_load_interactions_with_roles_and_blank_lines(tmp_path):
    path = _write(tmp_path, "r.txt", "a x train\n\nb x val\na y test\n")
    table = load_interactions(path)
    assert table.has_roles()
    assert table.roles.tolist() == [ROLE_TRAIN, ROLE_VAL, ROLE_TEST]


def test_load_interactions_duplicate_rows_warn_and_drop(tmp_path):
    path = _write(tmp_path, "dup.txt", "u1 i1 train\nu1 i1 train\nu2 i1 train\n")
    with pytest.warns(UserWarning, match="1 duplicate"):
        table = load_interactions(path)
    assert table.num_interactions == 2


def test_load_interactions_errors(tmp_path):
    bad = _write(tmp_path, "bad.txt", "u1 i1\nu2 i2 rest of line here\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2"):
        load_interactions(bad)
    role = _write(tmp_path, "role.txt", "u1 i1 holdout\n")
    with pytest.raises(ValueError, match=r"role\.txt:1.*holdout"):
        load_interactions(role)
    empty = _write(tmp_path, "empty.txt", "\n\n")
    with pytest.raises(ValueError, match="no interactions"):
        load_interactions(empty)


def test_load_interactions_hand_made_file(tmp_path):
    # CRLF endings, tabs, blank and whitespace-only lines, and duplicates
    # within one split (lines 6, 8, 11) beside the same pair in other
    # splits, which are kept.
    path = tmp_path / "hand.txt"
    path.write_bytes(
        b"u1 i1 train\r\nu1\ti2 val\r\n\r\n  \t \r\nu2 i1 val\r\nu1 i1 train\r\n"
        b"u1 i1 test\r\nu1 i2 val\r\nu3 i3 test\r\n\r\nu2 i1 val\r\nu2\ti1\ttrain\r\n"
        b"u1 i1 val\r\n"
    )
    with pytest.warns(UserWarning) as record:
        table = load_interactions(path)
    assert [str(w.message) for w in record] == [f"{path}: dropped 3 duplicate interaction row(s)"]
    assert table.user_tokens == ["u1", "u2", "u3"]
    assert table.item_tokens == ["i1", "i2", "i3"]
    assert table.edges.dtype == np.int64 and table.edges.flags.c_contiguous
    assert table.edges.tolist() == [[0, 0], [0, 1], [1, 0], [0, 0], [2, 2], [1, 0], [0, 0]]
    assert table.roles.dtype == np.int8
    assert table.roles.tolist() == [ROLE_TRAIN, ROLE_VAL, ROLE_VAL, ROLE_TEST, ROLE_TEST,
                                    ROLE_TRAIN, ROLE_VAL]
    path.write_bytes(path.read_bytes() + b"\r\nu4 i4 train extra\r\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:15: expected 'user item [split]', got 4 fields")):
        load_interactions(path)


@pytest.mark.parametrize("text, lineno, got, first", [
    ("u1 i1\nu1 i2\nu1 i2 test\n", 3, 3, 2),
    ("\nu1 i1 train\n\nu1 i1\nu2 i1\n", 4, 2, 3),
], ids=["role-after-none", "none-after-role"])
def test_load_interactions_rejects_mixed_field_counts(tmp_path, text, lineno, got, first):
    # A pair given with a role and without would load as two interactions,
    # and a file that is partly split would be split again.
    path = _write(tmp_path, "mixed.txt", text)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:{lineno}: {got} fields, but the first line has {first}")):
        load_interactions(path)


def test_read_end_counts_the_tail_without_reading_it(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"HEAD" + bytes(1000))

    class NoRead(io.BufferedReader):
        def read(self, *args):
            raise AssertionError("read_end read the tail")

    with NoRead(io.FileIO(path)) as fh:
        fh.seek(4)
        with pytest.raises(ValueError) as info:
            read_end(fh, path)
        assert str(info.value) == f"{path}: 1000 bytes follow the last payload, from byte 4"
        fh.seek(1004)
        read_end(fh, path)


def test_make_split_ratio_rules():
    rng = np.random.default_rng(0)
    edges = []
    for u, count in enumerate([10, 2, 3, 20, 1]):
        for i in range(count):
            edges.append((u, i))
    table = _table(5, 20, edges)
    split = make_split(table, seed=17)
    assert split.has_roles()

    def counts(u):
        mask = split.edges[:, 0] == u
        r = split.roles[mask]
        return [(r == role).sum() for role in (ROLE_TRAIN, ROLE_VAL, ROLE_TEST)]

    assert counts(0) == [8, 1, 1]
    assert counts(1) == [2, 0, 0]  # too few interactions: everything trains
    assert counts(2) == [1, 1, 1]
    assert counts(3) == [16, 2, 2]
    assert counts(4) == [1, 0, 0]
    for u in range(5):
        assert counts(u)[0] >= 1


@pytest.mark.parametrize("ratios", [(0, 0.5, 0.5), (0, 0, 1), (0, 1, 0)])
def test_make_split_keeps_one_row_per_role_at_a_zero_train_share(ratios):
    edges = [(u, i) for u, count in enumerate([3, 4, 5, 10]) for i in range(count)]
    split = make_split(_table(4, 10, edges), ratios=ratios, seed=3)
    for u in range(4):
        roles = split.roles[split.edges[:, 0] == u]
        for role in (ROLE_TRAIN, ROLE_VAL, ROLE_TEST):
            assert (roles == role).sum() >= 1, (u, role)


def test_make_split_determinism_bytes(tmp_path):
    rng = np.random.default_rng(1)
    edges = [(u, i) for u in range(30) for i in rng.choice(50, size=8, replace=False)]
    table = _table(30, 50, edges)
    a = make_split(table, seed=5)
    b = make_split(_table(30, 50, edges), seed=5)
    save_split(tmp_path / "a.txt", a)
    save_split(tmp_path / "b.txt", b)
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    c = make_split(_table(30, 50, edges), seed=6)
    assert not np.array_equal(a.roles, c.roles)


def test_make_split_rejects_bad_input():
    table = _table(1, 3, [(0, 0), (0, 1), (0, 2)])
    with pytest.raises(ValueError, match="sum to 1"):
        make_split(table, ratios=(0.8, 0.1, 0.2))
    with pytest.raises(ValueError, match="exactly 3"):
        make_split(table, ratios=(0.9, 0.1))
    for ratios in [(0.8, -0.1, 0.3), (float("nan"), 0.5, 0.5), (float("inf"), 0.5, 0.5)]:
        with pytest.raises(ValueError, match="finite and non-negative"):
            make_split(table, ratios=ratios)
    split = make_split(table)
    with pytest.raises(ValueError, match="already"):
        make_split(split)


def test_split_counts_and_role_edges():
    table = _table(2, 3, [(0, 0), (0, 1), (1, 2)], roles=[0, 1, 2])
    assert table.split_counts() == {"train": 1, "val": 1, "test": 1}
    assert table.role_edges(ROLE_VAL).tolist() == [[0, 1]]


@pytest.mark.parametrize(
    "roles", [(ROLE_TRAIN,), (ROLE_VAL,), (ROLE_TEST,), (ROLE_TRAIN, ROLE_VAL)]
)
def test_pair_keys_are_the_sorted_distinct_pairs_of_the_roles(roles):
    rng = np.random.default_rng(8)
    edges = rng.integers(0, [6, 9], size=(60, 2))
    table = _table(6, 9, edges, roles=rng.integers(0, 3, size=60))
    pairs = table.edges[np.isin(table.roles, roles)]
    keys = table.pair_keys(*roles)
    assert np.array_equal(keys, np.unique(pairs[:, 0] * 9 + pairs[:, 1]))
    assert table.pair_keys(*roles) is keys


def test_is_member_matches_isin():
    keys = np.array([3, 5, 6, 11, 20])
    query = np.array([[0, 3, 4, 5], [6, 7, 20, 25]])
    assert np.array_equal(is_member(keys, query), np.isin(query, keys))
    assert is_member(keys, 11) and not is_member(keys, 21)


def _train_sets(table):
    sets = [set() for _ in range(table.num_users)]
    for u, i in table.role_edges(ROLE_TRAIN).tolist():
        sets[u].add(i)
    return sets


def _sample_bpr_row_loop(table, batch_size, rng):
    # Reference: every row tests and redraws its own negative in turn.
    train = table.role_edges(ROLE_TRAIN)
    sets = _train_sets(table)
    picks = rng.integers(0, len(train), size=batch_size)
    users, pos = train[picks, 0], train[picks, 1]
    negs = rng.integers(0, table.num_items, size=batch_size)
    keep = np.ones(batch_size, dtype=bool)
    for k in range(batch_size):
        owned = sets[int(users[k])]
        if len(owned) >= table.num_items:
            keep[k] = False
            continue
        j = int(negs[k])
        while j in owned:
            j = int(rng.integers(0, table.num_items))
        negs[k] = j
    return users[keep], pos[keep], negs[keep]


def test_sample_bpr_triples_matches_row_loop():
    rng = np.random.default_rng(5)
    # Dense rows make most first negatives collide; user 0 owns every item.
    edges = [(0, i) for i in range(12)]
    edges += [(u, int(i)) for u in range(1, 9) for i in rng.choice(12, size=u + 2, replace=False)]
    table = _table(9, 12, edges, roles=[ROLE_TRAIN] * len(edges))
    for seed in range(5):
        with pytest.warns(UserWarning, match="every item") if seed == 0 else nullcontext():
            batch = sample_bpr_triples(table, 300, np.random.default_rng(seed))
        users, pos, negs = _sample_bpr_row_loop(table, 300, np.random.default_rng(seed))
        assert np.array_equal(batch.users, users)
        assert np.array_equal(batch.pos_items, pos)
        assert np.array_equal(batch.neg_items, negs)


def test_sample_bpr_triples_soundness():
    rng = np.random.default_rng(2)
    edges = [(u, i) for u in range(20) for i in rng.choice(30, size=6, replace=False)]
    table = make_split(_table(20, 30, edges), seed=3)
    sets = _train_sets(table)
    sampler = np.random.default_rng(4)
    for _ in range(20):
        batch = sample_bpr_triples(table, 64, sampler)
        assert len(batch) == 64
        for u, i, j in zip(batch.users, batch.pos_items, batch.neg_items):
            assert int(i) in sets[int(u)]
            assert int(j) not in sets[int(u)]


def test_sample_bpr_triples_single_negative_case():
    table = _table(1, 2, [(0, 0)], roles=[ROLE_TRAIN])
    batch = sample_bpr_triples(table, 16, np.random.default_rng(0))
    assert np.all(batch.users == 0)
    assert np.all(batch.pos_items == 0)
    assert np.all(batch.neg_items == 1)


def test_sample_bpr_triples_saturated_user_warns_once():
    table = _table(1, 2, [(0, 0), (0, 1)], roles=[ROLE_TRAIN, ROLE_TRAIN])
    with pytest.warns(UserWarning, match="every item"):
        batch = sample_bpr_triples(table, 8, np.random.default_rng(0))
    assert len(batch) == 0
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample_bpr_triples(table, 8, np.random.default_rng(1))


def test_sample_bpr_triples_requires_train_edges():
    table = _table(1, 2, [(0, 0)], roles=[ROLE_VAL])
    with pytest.raises(ValueError, match="train split is empty"):
        sample_bpr_triples(table, 4, np.random.default_rng(0))


def test_negative_sampling_is_uniform():
    # one user owns item 0 out of 6, so negatives spread over 5 items
    table = _table(1, 6, [(0, 0)], roles=[ROLE_TRAIN])
    batch = sample_bpr_triples(table, 100_000, np.random.default_rng(7))
    counts = np.bincount(batch.neg_items, minlength=6)
    assert counts[0] == 0
    freqs = counts[1:] / len(batch)
    assert np.abs(freqs - 0.2).max() < 0.02

    expected = len(batch) / 5.0
    chi2 = float(((counts[1:] - expected) ** 2 / expected).sum())
    assert chi2 < 30.0  # df=4; this bound is far out in the tail


def test_feature_matrix_shape_checks():
    with pytest.raises(ValueError, match="2-D"):
        FeatureMatrix("visual", np.zeros(4))
    fm = FeatureMatrix("textual", np.zeros((3, 2)))
    assert fm.num_items == 3 and fm.dim == 2
    assert fm.values.dtype == np.float32


def test_features_roundtrip_and_errors(tmp_path):
    rng = np.random.default_rng(9)
    fm = FeatureMatrix("visual", rng.standard_normal((7, 5)).astype(np.float32))
    path = tmp_path / "v.tmf"
    save_features(path, fm)
    loaded = load_features(path, "visual", expected_rows=7)
    assert np.array_equal(loaded.values, fm.values)

    with pytest.raises(ValueError, match="'visual'.*expected 'textual'"):
        load_features(path, "textual")
    with pytest.raises(ValueError, match=r"\(7\).*\(9\)"):
        load_features(path, "visual", expected_rows=9)

    blob = path.read_bytes()
    short = tmp_path / "short.tmf"
    short.write_bytes(blob[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_features(short, "visual")


@pytest.mark.filterwarnings("ignore:loadtxt:UserWarning")
def test_features_cut_at_every_length_fail_naming_the_file(tmp_path):
    path = tmp_path / "v.tmf"
    save_features(path, FeatureMatrix("visual", np.ones((3, 2), dtype=np.float32)))
    blob = path.read_bytes()
    cut = tmp_path / "cut.tmf"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(ValueError, match=re.escape(str(cut))) as info:
            load_features(cut, "visual", expected_rows=3)
        if size >= 4:
            assert "truncated at byte" in str(info.value)
    # Cut inside the tag: the tag is reported short, not as another modality.
    cut.write_bytes(blob[:15])
    with pytest.raises(ValueError, match="byte 13: the modality tag needs 6 bytes, 2 remain"):
        load_features(cut, "visual")


@pytest.mark.parametrize("extra", [4, 8])
def test_features_with_trailing_bytes_fail_naming_the_offset(tmp_path, extra):
    path = tmp_path / "v.tmf"
    save_features(path, FeatureMatrix("visual", np.ones((3, 2), dtype=np.float32)))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\x00" * extra)
    message = f"{path}: {extra} bytes follow the last payload, from byte {size}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_features(path, "visual")


def test_write_file_joins_text_and_bytes_and_creates_the_directory(tmp_path):
    path = tmp_path / "new" / "sub" / "out.bin"
    write_file(path, "é\n", b"\x00\x01", np.array([1.0], dtype="<f4"), bytearray(b"!"))
    assert path.read_bytes() == "é\n".encode("utf-8") + b"\x00\x01" + b"\x00\x00\x80\x3f!"
    write_file(path, "again")
    assert path.read_bytes() == b"again"
    assert os.listdir(path.parent) == ["out.bin"]


def _fail_on_replace(monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")
    monkeypatch.setattr(os, "replace", refuse)
    return ("head\n", "tail\n")


@pytest.mark.parametrize("chunks, error", [
    # A chunk fails halfway through the file: one that is neither text
    # nor bytes, and text with a lone surrogate, which UTF-8 cannot encode.
    (lambda mp: ("head\n", b"more", object(), "tail\n"), TypeError),
    (lambda mp: ("head\n", "bad \ud800\n"), UnicodeEncodeError),
    # Every chunk is out, but the rename fails.
    (_fail_on_replace, OSError),
], ids=["unwritable-chunk", "unencodable-text", "replace-fails"])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, chunks, error):
    path = tmp_path / "out.txt"
    write_file(path, "old contents\n")
    with pytest.raises(error):
        write_file(path, *chunks(monkeypatch))
    monkeypatch.undo()
    assert path.read_text() == "old contents\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_file_gives_the_mode_bits_of_open(tmp_path):
    old = os.umask(0o022)
    try:
        write_file(tmp_path / "helper.txt", "x")
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(os.stat(tmp_path / n).st_mode) for n in ("helper.txt", "plain.txt")]
    assert modes[0] == modes[1] == 0o644


def test_features_reject_non_finite(tmp_path):
    vals = np.ones((4, 2), dtype=np.float32)
    vals[2, 1] = np.inf
    save_features(tmp_path / "bad.tmf", FeatureMatrix("visual", vals))
    with pytest.raises(ValueError, match="row 2"):
        load_features(tmp_path / "bad.tmf", "visual")


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_features_name_the_first_non_finite_row(tmp_path, value):
    vals = np.random.default_rng(10).standard_normal((7, 3)).astype(np.float32)
    vals[3, 2] = value
    vals[6, 0] = value
    save_features(tmp_path / "bad.tmf", FeatureMatrix("visual", vals))
    with pytest.raises(ValueError, match="non-finite feature value at row 3$"):
        load_features(tmp_path / "bad.tmf", "visual")


def _traced(fn):
    """fn's result, or the ValueError it raised, and the peak bytes
    allocated while it ran."""
    tracemalloc.start()
    try:
        try:
            out = fn()
        except ValueError as exc:
            out = exc
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_feature_payload_is_read_in_place(tmp_path):
    # The array the payload is read into, and no second copy of it.
    path = tmp_path / "v.tmf"
    values = np.random.default_rng(11).standard_normal((1000, 512)).astype(np.float32)
    save_features(path, FeatureMatrix("visual", values))
    loaded, peak = _traced(lambda: load_features(path, "visual"))
    assert np.array_equal(loaded.values, values)
    assert peak < 1.25 * values.nbytes, f"peak {peak} for a {values.nbytes}-byte payload"


def test_feature_header_past_the_end_fails_before_allocating(tmp_path):
    path = tmp_path / "v.tmf"
    path.write_bytes(b"TMF1" + struct.pack("<IIB", 2**20, 2**10, 6) + b"visual" + bytes(64))
    err, peak = _traced(lambda: load_features(path, "visual"))
    assert "byte 19: the feature payload needs 4294967296 bytes, 64 remain" in str(err)
    assert peak < 2**16


def test_features_csv_fallback(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n", encoding="utf-8")
    fm = load_features(path, "textual", expected_rows=2)
    assert fm.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_dataset_stats_sparsity_at_catalog_scale():
    # 19445 users x 7050 items with 160792 interactions is 99.88% sparse
    edges = np.zeros((160792, 2), dtype=np.int64)
    table = _table(19445, 7050, edges)
    stats = dataset_stats(table)
    assert stats["sparsity_pct"] == 99.88
    assert stats["users"] == 19445
    assert stats["items"] == 7050
    assert stats["interactions"] == 160792


def test_save_and_load_prepared_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    edges = [(u, i) for u in range(6) for i in rng.choice(9, size=4, replace=False)]
    table = make_split(_table(6, 9, edges), seed=1)
    fv = FeatureMatrix("visual", rng.standard_normal((9, 3)).astype(np.float32))
    ft = FeatureMatrix("textual", rng.standard_normal((9, 2)).astype(np.float32))
    out = tmp_path / "prep"
    stats = save_prepared(out, table, fv, ft)
    assert stats["users"] == 6
    assert (out / "stats.json").exists()
    assert (out / "stats.csv").read_text().startswith("users,items,")

    table2, fv2, ft2 = load_prepared(out)
    assert table2.user_tokens == table.user_tokens
    assert table2.item_tokens == table.item_tokens
    assert np.array_equal(table2.edges, table.edges)
    assert np.array_equal(table2.roles, table.roles)
    assert np.array_equal(fv2.values, fv.values)
    assert np.array_equal(ft2.values, ft.values)


@pytest.mark.parametrize("line, message", [
    ("6 0 train", "user 6 or item 0 is outside the 6 users .* 9 items"),
    ("-1 0 train", "user -1 or item 0 is outside"),
    ("0 9 val", "user 0 or item 9 is outside"),
    ("0 -2 test", "user 0 or item -2 is outside"),
    ("u0 1 train", "ids must be integers"),
], ids=["user-past-end", "negative-user", "item-past-end", "negative-item", "non-integer"])
def test_load_prepared_rejects_bad_ids_naming_the_line(tmp_path, line, message):
    table = make_split(_table(6, 9, [(u, u) for u in range(6)]), seed=1)
    rng = np.random.default_rng(0)
    fv = FeatureMatrix("visual", rng.standard_normal((9, 3)).astype(np.float32))
    ft = FeatureMatrix("textual", rng.standard_normal((9, 2)).astype(np.float32))
    out = tmp_path / "prep"
    save_prepared(out, table, fv, ft)
    split = out / "split.txt"
    lines = split.read_text().splitlines()
    split.write_text("\n".join(lines[:2] + ["", line] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(split))}:4: {message}"):
        load_prepared(out)


@pytest.mark.parametrize("lines, message", [
    (["1 alice", "0 bob", "7 carol"], ":1: id 1 where id 0 is due"),
    (["0 alice", "1 bob", "7 carol"], ":3: id 7 where id 2 is due"),
    (["0 alice", "", "1 bob", "x carol"], ":4: id 'x' is not an integer"),
], ids=["out-of-order", "gap", "non-integer"])
def test_load_prepared_rejects_map_ids_out_of_file_order(tmp_path, lines, message):
    table = make_split(_table(3, 3, [(u, u) for u in range(3)]), seed=1)
    rng = np.random.default_rng(0)
    fv = FeatureMatrix("visual", rng.standard_normal((3, 3)).astype(np.float32))
    ft = FeatureMatrix("textual", rng.standard_normal((3, 2)).astype(np.float32))
    out = tmp_path / "prep"
    save_prepared(out, table, fv, ft)
    for name in ("user_map.txt", "item_map.txt"):
        good = (out / name).read_bytes()
        (out / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(out / name) + message)):
            load_prepared(out)
        (out / name).write_bytes(good)
    load_prepared(out)


@pytest.mark.parametrize("name, line, message", [
    ("user_map.txt", "0", ":1: expected 'id token', got 1 fields"),
    ("item_map.txt", "0 pen cap", ":1: expected 'id token', got 3 fields"),
    ("split.txt", "0 0", ":1: expected 'user item role', got 2 fields"),
    ("split.txt", "0 0 train 1", ":1: expected 'user item role', got 4 fields"),
    ("split.txt", "0 0 holdout", ":1: expected 'user item role'"),
], ids=["map-one-field", "map-three-fields", "split-two-fields", "split-four-fields",
        "split-unknown-role"])
def test_load_prepared_rejects_wrong_field_counts(tmp_path, name, line, message):
    table = make_split(_table(3, 3, [(u, u) for u in range(3)]), seed=1)
    rng = np.random.default_rng(0)
    fv = FeatureMatrix("visual", rng.standard_normal((3, 3)).astype(np.float32))
    ft = FeatureMatrix("textual", rng.standard_normal((3, 2)).astype(np.float32))
    out = tmp_path / "prep"
    save_prepared(out, table, fv, ft)
    lines = (out / name).read_text().splitlines()
    (out / name).write_text("\n".join([line] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match=re.escape(str(out / name) + message) + "$"):
        load_prepared(out)


def test_load_prepared_requires_prepare_run(tmp_path):
    with pytest.raises(FileNotFoundError, match="toporec prepare"):
        load_prepared(tmp_path)


def test_table_rejects_length_mismatch():
    with pytest.raises(ValueError, match="disagree"):
        _table(2, 2, [(0, 0), (1, 1)], roles=[0])
