"""Top-N ranking metrics computed over the full item catalog.

Ranking is by score descending with ties broken toward the lower item
index; masked items never appear in a ranked list. Recall@N is the hit
fraction of the relevant set; NDCG@N uses 1/log2(position + 1) gains
against the ideal prefix.
"""

from __future__ import annotations

import json

import numpy as np

from .data import ROLE_TEST, ROLE_TRAIN, ROLE_VAL, is_member, write_file
from .itemgraph import top_k_entries

__all__ = [
    "ranked_list",
    "recall_at",
    "ndcg_at",
    "evaluate",
    "write_metrics_csv",
    "write_metrics_json",
]

_USER_BLOCK = 512  # users scored per (users x items) score array


def ranked_list(scores, masked, n):
    """Top-n item indices for one score row.

    masked is an index array of items to exclude. The list is truncated
    to the number of unmasked items when that is smaller than n.
    """
    scores = np.asarray(scores, dtype=np.float64).copy()
    masked = np.asarray(masked, dtype=np.int64)
    if len(masked):
        scores[masked] = -np.inf
    available = len(scores) - len(np.unique(masked))
    order = np.argsort(-scores, kind="stable")
    return order[: min(n, available)]


def recall_at(ranked, relevant, n):
    """Fraction of the relevant set present in the top n."""
    relevant = set(int(r) for r in relevant)
    if not relevant:
        raise ValueError("relevant set is empty")
    hits = sum(1 for i in ranked[:n] if int(i) in relevant)
    return hits / len(relevant)


def ndcg_at(ranked, relevant, n):
    """DCG over hit positions, normalized by the ideal prefix."""
    relevant = set(int(r) for r in relevant)
    if not relevant:
        raise ValueError("relevant set is empty")
    dcg = 0.0
    for pos, item in enumerate(ranked[:n], start=1):
        if int(item) in relevant:
            dcg += 1.0 / np.log2(pos + 1)
    ideal = sum(1.0 / np.log2(p + 1) for p in range(1, min(n, len(relevant)) + 1))
    return dcg / ideal


def evaluate(z_users, z_items, table, split, ns=(10, 20)):
    """All-ranking metrics for one split, averaged over its users.

    Train items are always masked; at test time validation items are
    masked as well. Users with no interactions in the split are
    excluded from the average. Every value equals what ranked_list,
    recall_at and ndcg_at give user by user, summed in user order.
    """
    role = {"val": ROLE_VAL, "test": ROLE_TEST}.get(split)
    if role is None:
        raise ValueError(f"split must be 'val' or 'test', got {split!r}")
    z_users = np.asarray(z_users)
    z_items = np.asarray(z_items)
    ns = tuple(int(n) for n in ns)
    if min(ns) < 1:
        raise ValueError(f"cutoffs must be >= 1, got {ns}")
    num_items = table.num_items
    top = min(max(ns), num_items)

    # (user, item) sets as sorted keys user * num_items + item.
    relevant = table.pair_keys(role)
    users, num_relevant = np.unique(relevant // num_items, return_counts=True)
    if not len(users):
        raise ValueError(f"split {split!r} has no interactions to evaluate")
    hidden = table.pair_keys(*((ROLE_TRAIN,) if role == ROLE_VAL else (ROLE_TRAIN, ROLE_VAL)))

    hits = np.empty((len(users), top), dtype=bool)
    for start in range(0, len(users), _USER_BLOCK):
        chunk = users[start:start + _USER_BLOCK]
        scores = z_users[chunk] @ z_items.T
        # The hidden keys from the block's first user to its last, kept
        # where their user is in the block.
        lo, hi = np.searchsorted(hidden, [chunk[0] * num_items, (chunk[-1] + 1) * num_items])
        cut = hidden[lo:hi]
        cut = cut[is_member(chunk, cut // num_items)]
        scores[np.searchsorted(chunk, cut // num_items), cut % num_items] = -np.inf
        # NaN ranks after every item, as in a stable descending sort.
        np.copyto(scores, -np.inf, where=np.isnan(scores))
        # Each row's top columns come in ascending order, so a stable sort
        # of the row by descending score lets the lower item win a tie.
        cols = top_k_entries(scores, top)[1].reshape(len(chunk), top)
        order = np.argsort(-np.take_along_axis(scores, cols, axis=1), axis=1, kind="stable")
        ranked = np.take_along_axis(cols, order, axis=1)
        # A row ranks only its unmasked items; its tail past them is cut.
        available = np.isfinite(scores).sum(axis=1, keepdims=True)
        keys = chunk[:, None] * num_items + ranked
        hits[start:start + len(chunk)] = is_member(relevant, keys) & (np.arange(top) < available)

    # Gains from the scalar log2 that ndcg_at uses; cumsum adds position
    # by position from 0.0, in ndcg_at's order.
    gains = np.array([1.0 / np.log2(p + 1) for p in range(1, top + 1)])
    hit_counts = np.cumsum(hits, axis=1)
    dcg = np.cumsum(np.where(hits, gains, 0.0), axis=1)
    ideal = np.cumsum(gains)
    per_user = {f"recall@{n}": hit_counts[:, min(n, top) - 1] / num_relevant for n in ns}
    for n in ns:
        per_user[f"ndcg@{n}"] = dcg[:, min(n, top) - 1] / ideal[np.minimum(n, num_relevant) - 1]
    out = {"split": split, "num_users": len(users)}
    for key, values in per_user.items():
        out[key] = float(np.cumsum(values)[-1]) / len(users)  # added in user order
    return out


def write_metrics_csv(path, metrics):
    split = metrics.get("split", "")
    rows = [
        f"{split},{key.replace('@', ',')},{value!r}\n"
        for key, value in sorted(metrics.items())
        if "@" in str(key)
    ]
    write_file(path, "split,metric,N,value\n", *rows)


def write_metrics_json(path, metrics):
    write_file(path, json.dumps(metrics, indent=2, sort_keys=True), "\n")
