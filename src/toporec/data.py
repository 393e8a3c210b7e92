"""Interaction and feature ingestion: ID maps, splits, BPR sampling.

Interaction files are whitespace separated, one ``user item [split]``
row per line. Feature matrices load from CSV (one item per row) or from
the TMF1 binary format written by :func:`save_features`. Tokens map to
contiguous indices in first-appearance order.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ROLE_TRAIN",
    "ROLE_VAL",
    "ROLE_TEST",
    "ROLE_UNSET",
    "InteractionTable",
    "TripleBatch",
    "FeatureMatrix",
    "load_interactions",
    "make_split",
    "sample_bpr_triples",
    "read_exact",
    "load_features",
    "save_features",
    "dataset_stats",
    "save_prepared",
    "load_prepared",
]

ROLE_UNSET = -1
ROLE_TRAIN, ROLE_VAL, ROLE_TEST = 0, 1, 2
_ROLE_BY_NAME = {"train": ROLE_TRAIN, "val": ROLE_VAL, "test": ROLE_TEST}
_NAME_BY_ROLE = {v: k for k, v in _ROLE_BY_NAME.items()}


@dataclass
class InteractionTable:
    """User-item interactions with contiguous indices and split roles."""

    num_users: int
    num_items: int
    user_tokens: list
    item_tokens: list
    edges: np.ndarray  # (n, 2) int64 rows of (user, item)
    roles: np.ndarray  # (n,) int8, ROLE_* values
    _train_keys: np.ndarray = field(default=None, repr=False, compare=False)
    _warned_saturated: set = field(default_factory=set, repr=False, compare=False)

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.roles = np.asarray(self.roles, dtype=np.int8)
        if len(self.roles) != len(self.edges):
            raise ValueError(
                f"edges and roles disagree: {len(self.edges)} vs {len(self.roles)}"
            )

    @property
    def num_interactions(self):
        return len(self.edges)

    def has_roles(self):
        return bool(len(self.roles)) and bool((self.roles != ROLE_UNSET).all())

    def role_edges(self, role):
        return self.edges[self.roles == role]

    def train_keys(self):
        """Sorted distinct keys user * num_items + item of the train edges."""
        if self._train_keys is None:
            train = self.role_edges(ROLE_TRAIN)
            self._train_keys = np.unique(train[:, 0] * self.num_items + train[:, 1])
        return self._train_keys

    def split_counts(self):
        return {
            name: int((self.roles == role).sum())
            for name, role in _ROLE_BY_NAME.items()
        }


@dataclass
class TripleBatch:
    """BPR triples: one positive and one sampled negative per row."""

    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __len__(self):
        return len(self.users)


@dataclass
class FeatureMatrix:
    """Row-per-item dense features for one modality."""

    modality: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {self.values.shape}")

    @property
    def num_items(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return self.values.shape[1]


def load_interactions(path):
    """Parse an interaction file into an InteractionTable.

    Duplicate (user, item) rows within the same split are dropped with a
    warning. Raises on malformed rows (with the line number) and on
    files with no usable rows.
    """
    user_ids: dict = {}
    item_ids: dict = {}
    user_tokens: list = []
    item_tokens: list = []
    edges = []
    roles = []
    seen = set()
    dropped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"{path}:{lineno}: expected 'user item [split]', got {len(parts)} fields"
                )
            role = ROLE_UNSET
            if len(parts) == 3:
                if parts[2] not in _ROLE_BY_NAME:
                    raise ValueError(
                        f"{path}:{lineno}: unknown split role {parts[2]!r} "
                        f"(expected train, val, or test)"
                    )
                role = _ROLE_BY_NAME[parts[2]]
            u_tok, i_tok = parts[0], parts[1]
            if u_tok not in user_ids:
                user_ids[u_tok] = len(user_tokens)
                user_tokens.append(u_tok)
            if i_tok not in item_ids:
                item_ids[i_tok] = len(item_tokens)
                item_tokens.append(i_tok)
            key = (user_ids[u_tok], item_ids[i_tok], role)
            if key in seen:
                dropped += 1
                continue
            seen.add(key)
            edges.append((user_ids[u_tok], item_ids[i_tok]))
            roles.append(role)
    if not edges:
        raise ValueError(f"{path}: no interactions found")
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} duplicate interaction row(s)")
    return InteractionTable(
        num_users=len(user_tokens),
        num_items=len(item_tokens),
        user_tokens=user_tokens,
        item_tokens=item_tokens,
        edges=np.array(edges, dtype=np.int64),
        roles=np.array(roles, dtype=np.int8),
    )


def make_split(table, ratios=(0.8, 0.1, 0.1), seed=0):
    """Assign per-user train/val/test roles.

    Users with fewer than 3 interactions go entirely to train; everyone
    else gets at least one val and one test interaction while always
    retaining at least one train interaction. Deterministic in (table,
    ratios, seed).
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3:
        raise ValueError(f"need exactly 3 split ratios, got {len(ratios)}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    if table.has_roles():
        raise ValueError("table already carries split roles")
    rng = np.random.default_rng(seed)
    roles = np.full(len(table.edges), ROLE_TRAIN, dtype=np.int8)
    order = np.argsort(table.edges[:, 0], kind="stable")
    users = table.edges[order, 0]
    bounds = np.searchsorted(users, np.arange(table.num_users + 1))
    for u in range(table.num_users):
        rows = order[bounds[u]:bounds[u + 1]]
        n = len(rows)
        if n < 3:
            continue
        n_test = max(1, int(n * ratios[2]))
        n_val = max(1, int(n * ratios[1]))
        while n_val + n_test >= n:
            if n_test > 1:
                n_test -= 1
            elif n_val > 1:
                n_val -= 1
            else:
                break
        perm = rng.permutation(n)
        roles[rows[perm[:n_test]]] = ROLE_TEST
        roles[rows[perm[n_test:n_test + n_val]]] = ROLE_VAL
    return InteractionTable(
        num_users=table.num_users,
        num_items=table.num_items,
        user_tokens=table.user_tokens,
        item_tokens=table.item_tokens,
        edges=table.edges.copy(),
        roles=roles,
    )


def sample_bpr_triples(table, batch_size, rng):
    """Sample BPR triples from the train split.

    Positives are train edges drawn uniformly with replacement;
    negatives are rejection-sampled per user against that user's train
    set. A user who interacted with every item is skipped (warned once
    per table), so the batch can come back shorter than requested.
    """
    train_edges = table.role_edges(ROLE_TRAIN)
    if len(train_edges) == 0:
        raise ValueError("train split is empty; run make_split first")
    n = table.num_items
    owned = table.train_keys()

    def is_owned(keys):
        return owned[np.minimum(np.searchsorted(owned, keys), len(owned) - 1)] == keys

    picks = rng.integers(0, len(train_edges), size=batch_size)
    users = train_edges[picks, 0]
    pos = train_edges[picks, 1]
    negs = rng.integers(0, n, size=batch_size)
    keep = np.ones(batch_size, dtype=bool)
    # Only rows whose first draw hits a train item redraw, in row order.
    for k in np.flatnonzero(is_owned(users * n + negs)).tolist():
        u = int(users[k])
        if np.searchsorted(owned, (u + 1) * n) - np.searchsorted(owned, u * n) >= n:
            if u not in table._warned_saturated:
                table._warned_saturated.add(u)
                warnings.warn(f"user {u} interacted with every item; skipped in BPR sampling")
            keep[k] = False
            continue
        j = int(rng.integers(0, n))
        while is_owned(u * n + j):
            j = int(rng.integers(0, n))
        negs[k] = j
    return TripleBatch(users=users[keep], pos_items=pos[keep], neg_items=negs[keep])


_FEAT_MAGIC = b"TMF1"


def save_features(path, features):
    """Write a FeatureMatrix as TMF1: header plus little-endian f32."""
    tag = features.modality.encode("utf-8")
    rows, cols = features.values.shape
    with open(path, "wb") as fh:
        fh.write(_FEAT_MAGIC)
        fh.write(struct.pack("<IIB", rows, cols, len(tag)))
        fh.write(tag)
        fh.write(features.values.astype("<f4", copy=False).tobytes(order="C"))


def read_exact(fh, size, path, what):
    """The next size bytes of a binary file; a ValueError naming the file
    and the byte offset when the file ends first."""
    start = fh.tell()
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(
            f"{path}: truncated at byte {start}: the {what} needs {size} bytes, "
            f"{len(data)} remain"
        )
    return data


def load_features(path, modality, expected_rows=None):
    """Load CSV or TMF1 features; validates shape and finiteness."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic == _FEAT_MAGIC:
            rows, cols, tag_len = struct.unpack("<IIB", read_exact(fh, 9, path, "TMF1 header"))
            tag = read_exact(fh, tag_len, path, "modality tag").decode("utf-8")
            if tag != modality:
                raise ValueError(
                    f"{path}: file holds {tag!r} features, expected {modality!r}"
                )
            payload = read_exact(fh, rows * cols * 4, path, "feature payload")
            values = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).copy()
        else:
            try:
                values = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            values = values.astype(np.float32)
    if expected_rows is not None and values.shape[0] != expected_rows:
        raise ValueError(
            f"{path}: feature rows ({values.shape[0]}) do not match "
            f"interaction items ({expected_rows})"
        )
    bad = ~np.isfinite(values)
    if bad.any():
        row = int(np.argwhere(bad)[0][0])
        raise ValueError(f"{path}: non-finite feature value at row {row}")
    return FeatureMatrix(modality=modality, values=values)


def dataset_stats(table):
    """Counts plus sparsity of the interaction matrix, in percent."""
    denom = table.num_users * table.num_items
    sparsity = 100.0 * (1.0 - table.num_interactions / denom) if denom else 0.0
    return {
        "users": table.num_users,
        "items": table.num_items,
        "interactions": table.num_interactions,
        "sparsity_pct": round(sparsity, 2),
    }


def save_split(path, table):
    with open(path, "w", encoding="utf-8") as fh:
        for (u, i), r in zip(table.edges, table.roles):
            fh.write(f"{u} {i} {_NAME_BY_ROLE[int(r)]}\n")


def _save_map(path, tokens):
    with open(path, "w", encoding="utf-8") as fh:
        for idx, tok in enumerate(tokens):
            fh.write(f"{idx} {tok}\n")


def _load_map(path):
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split(maxsplit=1)
            if not parts:
                continue
            tokens.append(parts[1].strip() if len(parts) > 1 else "")
    return tokens


def save_prepared(out_dir, table, features_visual, features_textual):
    """Persist the split table, ID maps, features, and stats to a directory."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    _save_map(os.path.join(out_dir, "user_map.txt"), table.user_tokens)
    _save_map(os.path.join(out_dir, "item_map.txt"), table.item_tokens)
    save_split(os.path.join(out_dir, "split.txt"), table)
    save_features(os.path.join(out_dir, "features_visual.tmf"), features_visual)
    save_features(os.path.join(out_dir, "features_textual.tmf"), features_textual)
    stats = dataset_stats(table)
    stats["splits"] = table.split_counts()
    with open(os.path.join(out_dir, "stats.json"), "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "stats.csv"), "w", encoding="utf-8") as fh:
        fh.write("users,items,interactions,sparsity_pct\n")
        fh.write(
            f"{stats['users']},{stats['items']},{stats['interactions']},{stats['sparsity_pct']}\n"
        )
    return stats


def load_prepared(prepared_dir):
    """Load the artifacts written by save_prepared."""
    import os

    split_path = os.path.join(prepared_dir, "split.txt")
    if not os.path.exists(split_path):
        raise FileNotFoundError(
            f"{prepared_dir}: not a prepared dataset directory "
            f"(missing split.txt; run `toporec prepare` first)"
        )
    user_tokens = _load_map(os.path.join(prepared_dir, "user_map.txt"))
    item_tokens = _load_map(os.path.join(prepared_dir, "item_map.txt"))
    num_users, num_items = len(user_tokens), len(item_tokens)
    edges = []
    roles = []
    with open(split_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3 or parts[2] not in _ROLE_BY_NAME:
                raise ValueError(f"{split_path}:{lineno}: expected 'user item role'")
            try:
                u, i = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{split_path}:{lineno}: ids must be integers") from None
            if not (0 <= u < num_users and 0 <= i < num_items):
                raise ValueError(
                    f"{split_path}:{lineno}: user {u} or item {i} is outside the "
                    f"{num_users} users of user_map.txt and the {num_items} items "
                    "of item_map.txt"
                )
            edges.append((u, i))
            roles.append(_ROLE_BY_NAME[parts[2]])
    table = InteractionTable(
        num_users=num_users,
        num_items=num_items,
        user_tokens=user_tokens,
        item_tokens=item_tokens,
        edges=np.array(edges, dtype=np.int64),
        roles=np.array(roles, dtype=np.int8),
    )
    fv = load_features(
        os.path.join(prepared_dir, "features_visual.tmf"), "visual", table.num_items
    )
    ft = load_features(
        os.path.join(prepared_dir, "features_textual.tmf"), "textual", table.num_items
    )
    return table, fv, ft
