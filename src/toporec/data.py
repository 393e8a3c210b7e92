"""Interaction and feature ingestion: ID maps, splits, BPR sampling.

Interaction files are whitespace separated, one ``user item [split]``
row per line. Feature matrices load from CSV (one item per row) or from
the TMF1 binary format written by :func:`save_features`. Tokens map to
contiguous indices in first-appearance order. Every text table is read
through :func:`_rows`, and every file the package writes goes through
:func:`write_file`.
"""

from __future__ import annotations

import json
import math
import os
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
    "is_member",
    "sample_bpr_triples",
    "read_exact",
    "read_end",
    "write_file",
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
    _pair_keys: dict = field(default_factory=dict, init=False, repr=False, compare=False)
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

    def pair_keys(self, *roles):
        """Sorted distinct keys user * num_items + item of the edges with
        these roles, built once per table and role tuple."""
        if roles not in self._pair_keys:
            pairs = self.edges[np.isin(self.roles, roles)]
            self._pair_keys[roles] = np.unique(pairs[:, 0] * self.num_items + pairs[:, 1])
        return self._pair_keys[roles]

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


def _rows(path, widths, layout):
    """(line number, fields) of each non-blank line of a UTF-8 text table.
    A line whose field count is not in widths, or bytes that are not
    UTF-8, raise a ValueError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                fields = line.split()
                if not fields:
                    continue
                if len(fields) not in widths:
                    raise ValueError(
                        f"{path}:{lineno}: expected {layout!r}, got {len(fields)} fields"
                    )
                yield lineno, fields
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None


def load_interactions(path):
    """Parse an interaction file into an InteractionTable.

    Duplicate (user, item) rows within the same split are dropped with a
    warning. Raises on malformed rows (with the line number), on a line
    whose field count differs from the first line's (every line carries
    a split role or none does) and on files with no usable rows.
    """
    user_ids: dict = {}
    item_ids: dict = {}
    rows = []
    for lineno, parts in _rows(path, (2, 3), "user item [split]"):
        if not rows:
            width = len(parts)
        elif len(parts) != width:
            raise ValueError(f"{path}:{lineno}: {len(parts)} fields, but the first line has "
                             f"{width}; give every line a split role or none")
        role = _ROLE_BY_NAME.get(parts[2]) if len(parts) == 3 else ROLE_UNSET
        if role is None:
            raise ValueError(
                f"{path}:{lineno}: unknown split role {parts[2]!r} "
                f"(expected train, val, or test)"
            )
        rows += (user_ids.setdefault(parts[0], len(user_ids)),
                 item_ids.setdefault(parts[1], len(item_ids)), role)
    if not rows:
        raise ValueError(f"{path}: no interactions found")
    rows = np.array(rows, dtype=np.int64).reshape(-1, 3)
    # The first row of each (user, item, role) key, in file order.
    keys = (rows[:, 0] * len(item_ids) + rows[:, 1]) * 4 + rows[:, 2] + 1
    first = np.sort(np.unique(keys, return_index=True)[1])
    if len(first) < len(rows):
        warnings.warn(f"{path}: dropped {len(rows) - len(first)} duplicate interaction row(s)")
    return InteractionTable(
        num_users=len(user_ids),
        num_items=len(item_ids),
        user_tokens=list(user_ids),
        item_tokens=list(item_ids),
        edges=rows[first, :2],
        roles=rows[first, 2].astype(np.int8),
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
    if not all(math.isfinite(r) and r >= 0 for r in ratios):
        raise ValueError(f"split ratios must be finite and non-negative, got {ratios}")
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
        # n >= 3, so the loop stops at n_val = n_test = 1 at the latest.
        while n_val + n_test >= n:
            if n_test > 1:
                n_test -= 1
            else:
                n_val -= 1
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


def is_member(keys, query):
    """Whether each query value is in keys, a sorted non-empty array."""
    return keys[np.minimum(np.searchsorted(keys, query), len(keys) - 1)] == query


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
    owned = table.pair_keys(ROLE_TRAIN)
    picks = rng.integers(0, len(train_edges), size=batch_size)
    users = train_edges[picks, 0]
    pos = train_edges[picks, 1]
    negs = rng.integers(0, n, size=batch_size)
    keep = np.ones(batch_size, dtype=bool)
    # Only rows whose first draw hits a train item redraw, in row order.
    for k in np.flatnonzero(is_member(owned, users * n + negs)).tolist():
        u = int(users[k])
        if np.searchsorted(owned, (u + 1) * n) - np.searchsorted(owned, u * n) >= n:
            if u not in table._warned_saturated:
                table._warned_saturated.add(u)
                warnings.warn(f"user {u} interacted with every item; skipped in BPR sampling")
            keep[k] = False
            continue
        j = int(rng.integers(0, n))
        while is_member(owned, u * n + j):
            j = int(rng.integers(0, n))
        negs[k] = j
    return TripleBatch(users=users[keep], pos_items=pos[keep], neg_items=negs[keep])


_FEAT_MAGIC = b"TMF1"


def save_features(path, features):
    """Write a FeatureMatrix as TMF1: header plus little-endian f32."""
    tag = features.modality.encode("utf-8")
    rows, cols = features.values.shape
    header = _FEAT_MAGIC + struct.pack("<IIB", rows, cols, len(tag)) + tag
    write_file(path, header, np.ascontiguousarray(features.values, dtype="<f4"))


def read_exact(fh, size, path, what):
    """The next size bytes of a binary file; a ValueError naming the file
    and the byte offset when the file ends first."""
    return _read_array(fh, 1, size, np.uint8, path, what).tobytes()


def _read_array(fh, rows, cols, dtype, path, what):
    """The next rows x cols payload of a binary file, read straight into a
    new array of dtype; a ValueError naming the file and the byte offset
    when the file ends first, raised before the array is allocated."""
    size = rows * cols * np.dtype(dtype).itemsize
    start = fh.tell()
    left = os.fstat(fh.fileno()).st_size - start
    if size <= left:
        out = np.empty((rows, cols), dtype=dtype)
        left = fh.readinto(out)
    if size > left:
        raise ValueError(
            f"{path}: truncated at byte {start}: the {what} needs {size} bytes, {left} remain"
        )
    return out


def read_end(fh, path):
    """Check that a binary file ends at the current position; a ValueError
    naming the file and the byte offset when more bytes follow."""
    end = fh.tell()
    extra = os.fstat(fh.fileno()).st_size - end
    if extra:
        raise ValueError(f"{path}: {extra} bytes follow the last payload, from byte {end}")


def write_file(path, *chunks):
    """Write str chunks as UTF-8 and other chunks as bytes to path, creating
    its directory. They go to a temp file beside path that replaces it only
    once all are out; on any exception the temp file is removed, path keeps
    what it held, and the exception propagates.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_features(path, modality, expected_rows=None):
    """Load CSV or TMF1 features; validates shape and finiteness."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic == _FEAT_MAGIC:
            rows, cols, tag_len = struct.unpack("<IIB", read_exact(fh, 9, path, "TMF1 header"))
            tag = read_exact(fh, tag_len, path, "modality tag").decode("utf-8", "replace")
            if tag != modality:
                raise ValueError(
                    f"{path}: file holds {tag!r} features, expected {modality!r}"
                )
            values = _read_array(fh, rows, cols, "<f4", path, "feature payload")
            read_end(fh, path)
        else:
            # An empty file is an error, not numpy's "no data" warning.
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)
                try:
                    values = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
                except (ValueError, UserWarning) as exc:
                    raise ValueError(f"{path}: {exc}") from None
            values = values.astype(np.float32)
    if expected_rows is not None and values.shape[0] != expected_rows:
        raise ValueError(
            f"{path}: feature rows ({values.shape[0]}) do not match "
            f"interaction items ({expected_rows})"
        )
    # A NaN makes the minimum NaN, and an infinity is the minimum or the
    # maximum: two passes and no temporary array.
    if values.size and not np.isfinite([values.min(), values.max()]).all():
        row = int(np.argwhere(~np.isfinite(values))[0][0])
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
    rows = zip(table.edges.tolist(), table.roles.tolist())
    write_file(path, "".join(f"{u} {i} {_NAME_BY_ROLE[r]}\n" for (u, i), r in rows))


def _save_map(path, tokens):
    write_file(path, "".join(f"{idx} {tok}\n" for idx, tok in enumerate(tokens)))


def _load_map(path):
    """Tokens of an `<id> <token>` map file, whose ids run 0, 1, 2, ...
    in file order."""
    tokens = []
    for lineno, (idx, token) in _rows(path, (2,), "id token"):
        try:
            idx = int(idx)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: id {idx!r} is not an integer") from None
        if idx != len(tokens):
            raise ValueError(
                f"{path}:{lineno}: id {idx} where id {len(tokens)} is due; "
                "ids must run 0, 1, 2, ... in file order"
            )
        tokens.append(token)
    return tokens


def save_prepared(out_dir, table, features_visual, features_textual):
    """Persist the split table, ID maps, features, and stats to a directory."""
    _save_map(os.path.join(out_dir, "user_map.txt"), table.user_tokens)
    _save_map(os.path.join(out_dir, "item_map.txt"), table.item_tokens)
    save_split(os.path.join(out_dir, "split.txt"), table)
    save_features(os.path.join(out_dir, "features_visual.tmf"), features_visual)
    save_features(os.path.join(out_dir, "features_textual.tmf"), features_textual)
    stats = dataset_stats(table)
    stats["splits"] = table.split_counts()
    stats_json = json.dumps(stats, indent=2, sort_keys=True)
    write_file(os.path.join(out_dir, "stats.json"), stats_json, "\n")
    cols = ("users", "items", "interactions", "sparsity_pct")
    row = ",".join(str(stats[c]) for c in cols)
    write_file(os.path.join(out_dir, "stats.csv"), ",".join(cols), "\n", row, "\n")
    return stats


def load_prepared(prepared_dir):
    """Load the artifacts written by save_prepared."""
    split_path = os.path.join(prepared_dir, "split.txt")
    if not os.path.exists(split_path):
        raise FileNotFoundError(
            f"{prepared_dir}: not a prepared dataset directory "
            f"(missing split.txt; run `toporec prepare` first)"
        )
    user_tokens = _load_map(os.path.join(prepared_dir, "user_map.txt"))
    item_tokens = _load_map(os.path.join(prepared_dir, "item_map.txt"))
    num_users, num_items = len(user_tokens), len(item_tokens)
    rows = []
    for lineno, (u, i, role) in _rows(split_path, (3,), "user item role"):
        if role not in _ROLE_BY_NAME:
            raise ValueError(f"{split_path}:{lineno}: expected 'user item role'")
        try:
            u, i = int(u), int(i)
        except ValueError:
            raise ValueError(f"{split_path}:{lineno}: ids must be integers") from None
        if not (0 <= u < num_users and 0 <= i < num_items):
            raise ValueError(
                f"{split_path}:{lineno}: user {u} or item {i} is outside the "
                f"{num_users} users of user_map.txt and the {num_items} items "
                "of item_map.txt"
            )
        rows += u, i, _ROLE_BY_NAME[role]
    rows = np.array(rows, dtype=np.int64).reshape(-1, 3)
    table = InteractionTable(
        num_users=num_users,
        num_items=num_items,
        user_tokens=user_tokens,
        item_tokens=item_tokens,
        edges=rows[:, :2].copy(),
        roles=rows[:, 2],
    )
    fv, ft = (load_features(os.path.join(prepared_dir, f"features_{tag}.tmf"), tag, num_items)
              for tag in ("visual", "textual"))
    return table, fv, ft
