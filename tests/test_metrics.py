"""Top-N ranking metrics and the all-ranking evaluation harness."""

import json
import math

import numpy as np
import pytest

from oracles import ndcg_oracle, rank_oracle, recall_oracle
from toporec import metrics
from toporec.data import InteractionTable, ROLE_TEST, ROLE_TRAIN, ROLE_VAL
from toporec.metrics import (
    evaluate,
    ndcg_at,
    ranked_list,
    recall_at,
    write_metrics_csv,
    write_metrics_json,
)


def _table(edges):
    num_users = max(u for u, _, _ in edges) + 1
    num_items = max(i for _, i, _ in edges) + 1
    pairs = np.array([[u, i] for u, i, _ in edges], dtype=np.int64)
    roles = np.array([r for _, _, r in edges], dtype=np.int8)
    tokens_u = [f"u{k}" for k in range(num_users)]
    tokens_i = [f"i{k}" for k in range(num_items)]
    return InteractionTable(num_users, num_items, tokens_u, tokens_i, pairs, roles)


def _scores_eval(scores, table, split, ns, **kw):
    # feed an explicit score matrix through the factored interface
    scores = np.asarray(scores, dtype=np.float64)
    return evaluate(scores, np.eye(scores.shape[1]), table, split, ns, **kw)


def test_recall_closed_forms():
    assert recall_at([3, 1, 2], {1, 2, 3}, 3) == 1.0
    assert recall_at([0, 4], {1, 2}, 2) == 0.0
    assert recall_at([1, 0, 5], {1, 2}, 3) == 0.5
    assert recall_at([1, 2], {1, 2, 3, 4}, 2) == 0.5


def test_ndcg_closed_forms():
    assert abs(ndcg_at([7], {7}, 10) - 1.0) < 1e-12
    # single relevant item at rank 2: dcg = 1/log2(3), idcg = 1
    assert abs(ndcg_at([4, 7], {7}, 10) - 1.0 / math.log2(3.0)) < 1e-12
    assert ndcg_at([4, 5], {7}, 10) == 0.0
    # perfect ordering of two relevant items
    assert abs(ndcg_at([7, 8, 1], {7, 8}, 10) - 1.0) < 1e-12


def test_metrics_reject_empty_relevant():
    with pytest.raises(ValueError, match="relevant"):
        recall_at([1, 2], set(), 2)
    with pytest.raises(ValueError, match="relevant"):
        ndcg_at([1, 2], set(), 2)


def test_ranked_list_masks_and_truncates():
    scores = np.array([0.9, 0.5, 0.8, 0.1])
    assert ranked_list(scores, [], 2).tolist() == [0, 2]
    assert ranked_list(scores, [0], 2).tolist() == [2, 1]
    assert ranked_list(scores, [0, 1, 2], 5).tolist() == [3]
    assert ranked_list(scores, [0, 1, 2, 3], 5).tolist() == []


def test_ranked_list_breaks_ties_by_index():
    scores = np.array([0.5, 0.7, 0.5, 0.5])
    assert ranked_list(scores, [], 4).tolist() == [1, 0, 2, 3]


def test_metrics_match_enumeration_oracle():
    rng = np.random.default_rng(50)
    for _ in range(100):
        n_items = int(rng.integers(2, 9))
        scores = rng.standard_normal(n_items)
        n_rel = int(rng.integers(1, n_items + 1))
        relevant = set(rng.choice(n_items, size=n_rel, replace=False).tolist())
        top = int(rng.integers(1, n_items + 2))
        n_mask = int(rng.integers(0, n_items - n_rel + 1))
        eligible = [j for j in range(n_items) if j not in relevant]
        masked = rng.permutation(eligible)[:n_mask].tolist()
        got = ranked_list(scores, masked, top).tolist()
        assert got == rank_oracle(scores, masked, top)
        assert abs(
            recall_at(got, relevant, top) - recall_oracle(scores, masked, relevant, top)
        ) < 1e-12
        assert abs(
            ndcg_at(got, relevant, top) - ndcg_oracle(scores, masked, relevant, top)
        ) < 1e-12


def test_recall_monotone_in_cutoff_and_bounded():
    rng = np.random.default_rng(51)
    for _ in range(50):
        scores = rng.standard_normal(12)
        relevant = set(rng.choice(12, size=4, replace=False).tolist())
        values = []
        for top in (1, 2, 5, 8, 12):
            r = recall_at(ranked_list(scores, [], top), relevant, top)
            assert 0.0 <= r <= 1.0
            values.append(r)
        assert values == sorted(values)
        n = ndcg_at(ranked_list(scores, [], 10), relevant, 10)
        assert 0.0 <= n <= 1.0


def test_metrics_shift_invariance():
    rng = np.random.default_rng(52)
    scores = rng.standard_normal(10)
    base = ranked_list(scores, [1], 5).tolist()
    for c in (17.0, -3.5, 1e6):
        assert ranked_list(scores + c, [1], 5).tolist() == base


def test_evaluate_hand_computed_toy():
    # user 0 trains on item 0, validates on item 1; user 1 trains on
    # item 2, validates on item 0
    table = _table(
        [
            (0, 0, ROLE_TRAIN),
            (0, 1, ROLE_VAL),
            (1, 2, ROLE_TRAIN),
            (1, 0, ROLE_VAL),
            (0, 2, ROLE_TEST),
            (1, 1, ROLE_TEST),
        ]
    )
    scores = np.array(
        [
            [9.0, 5.0, 1.0],  # after masking item 0: ranks 1, 2
            [2.0, 1.0, 8.0],  # after masking item 2: ranks 0, 1
        ]
    )
    out = _scores_eval(scores, table, "val", (1, 2))
    assert out["num_users"] == 2
    assert abs(out["recall@1"] - 1.0) < 1e-12  # both val items rank first
    assert abs(out["ndcg@1"] - 1.0) < 1e-12

    # at test time the val items are masked too, so the test items of
    # both users bubble up to the top rank
    out = _scores_eval(scores, table, "test", (1,))
    assert abs(out["recall@1"] - 1.0) < 1e-12


def test_evaluate_masks_only_train_at_val():
    table = _table(
        [
            (0, 0, ROLE_TRAIN),
            (0, 1, ROLE_VAL),
            (0, 2, ROLE_TEST),
        ]
    )
    # item 2 outranks item 1, so val recall suffers unless test items
    # were (wrongly) masked during validation
    scores = np.array([[0.0, 1.0, 5.0]])
    out = _scores_eval(scores, table, "val", (1,))
    assert out["recall@1"] == 0.0
    out = _scores_eval(scores, table, "test", (1,))
    assert out["recall@1"] == 1.0


def test_evaluate_skips_users_without_holdout():
    table = _table(
        [
            (0, 0, ROLE_TRAIN),
            (0, 1, ROLE_VAL),
            (1, 2, ROLE_TRAIN),  # user 1 has no validation item
        ]
    )
    scores = np.array([[0.0, 1.0, 0.0], [9.0, 9.0, 9.0]])
    out = _scores_eval(scores, table, "val", (1,))
    assert out["num_users"] == 1
    assert out["recall@1"] == 1.0


def test_evaluate_rejects_bad_split_and_empty():
    table = _table([(0, 0, ROLE_TRAIN), (0, 1, ROLE_VAL)])
    scores = np.zeros((1, 2))
    with pytest.raises(ValueError, match="split"):
        _scores_eval(scores, table, "train", (1,))
    with pytest.raises(ValueError, match="no interactions"):
        _scores_eval(scores, table, "test", (1,))
    with pytest.raises(ValueError, match=r"cutoffs must be >= 1, got \(0,\)"):
        _scores_eval(scores, table, "val", (0,))


def test_evaluate_block_size_invariance(monkeypatch):
    rng = np.random.default_rng(53)
    edges = []
    for u in range(30):
        items = rng.choice(50, size=6, replace=False)
        for i in items[:4]:
            edges.append((u, int(i), ROLE_TRAIN))
        edges.append((u, int(items[4]), ROLE_VAL))
        edges.append((u, int(items[5]), ROLE_TEST))
    table = _table(edges)
    z_users = rng.standard_normal((30, 8))
    z_items = rng.standard_normal((50, 8))
    full = evaluate(z_users, z_items, table, "test", (5, 10))
    monkeypatch.setattr(metrics, "_USER_BLOCK", 7)
    chunked = evaluate(z_users, z_items, table, "test", (5, 10))
    assert full == chunked
    assert isinstance(full["recall@5"], float)
    assert isinstance(full["ndcg@10"], float)


def _reference_evaluate(scores, table, split, ns):
    # The per-user definition: ranked_list, recall_at and ndcg_at per
    # user, summed in user order.
    role = {"val": ROLE_VAL, "test": ROLE_TEST}[split]
    hide = [ROLE_TRAIN] if split == "val" else [ROLE_TRAIN, ROLE_VAL]
    users = sorted({int(u) for u, _ in table.role_edges(role)})
    sums = {(metric, n): 0.0 for metric in ("recall", "ndcg") for n in ns}
    for u in users:
        mine = table.edges[:, 0] == u
        relevant = table.edges[mine & (table.roles == role), 1]
        masked = table.edges[mine & np.isin(table.roles, hide), 1]
        ranked = ranked_list(scores[u], masked, max(ns))
        for n in ns:
            sums[("recall", n)] += recall_at(ranked, relevant, n)
            sums[("ndcg", n)] += ndcg_at(ranked, relevant, n)
    out = {"split": split, "num_users": len(users)}
    out.update({f"{m}@{n}": float(total / len(users)) for (m, n), total in sums.items()})
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_evaluate_equals_per_user_definition_under_ties(monkeypatch, dtype):
    rng = np.random.default_rng(57)
    for trial in range(6):
        num_users, num_items = 40, int(rng.integers(12, 40))
        edges, roles = [], []
        for u in range(num_users):
            # Heavy users leave fewer unmasked items than the largest cutoff.
            size = int(rng.integers(1, num_items if u % 5 == 0 else 6))
            edges += [(u, int(i)) for i in rng.choice(num_items, size=size)]
            roles += rng.choice([ROLE_TRAIN, ROLE_VAL, ROLE_TEST], size=size).tolist()
        table = InteractionTable(
            num_users, num_items, [f"u{k}" for k in range(num_users)],
            [f"i{k}" for k in range(num_items)], np.array(edges), np.array(roles),
        )
        # Quantised embeddings, zero rows and -0.0 entries give exact
        # products with few distinct values, so ties cross every cutoff.
        z_users = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(num_users, 2)).astype(dtype)
        z_items = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(num_items, 2)).astype(dtype)
        z_items[: trial + 1] = -0.0
        scores = z_users @ z_items.T
        ns = (1, 5, 20) if trial % 2 else (3, 50)
        for split in ("val", "test"):
            expected = _reference_evaluate(scores, table, split, ns)
            for block_size in (1, 7, 512):
                monkeypatch.setattr(metrics, "_USER_BLOCK", block_size)
                got = evaluate(z_users, z_items, table, split, ns)
                assert got == expected
                assert list(got) == list(expected)


def test_metrics_file_outputs(tmp_path):
    results = {"split": "test", "num_users": 3, "recall@10": 0.5, "ndcg@10": 0.25}
    csv_path = tmp_path / "m.csv"
    write_metrics_csv(csv_path, results)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "split,metric,N,value"
    assert "test,recall,10,0.5" in lines
    assert "test,ndcg,10,0.25" in lines

    json_path = tmp_path / "m.json"
    write_metrics_json(json_path, results)
    loaded = json.loads(json_path.read_text())
    assert loaded == results
