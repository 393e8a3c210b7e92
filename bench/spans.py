"""Spans around the package's public calls, recorded from outside it.

`install` swaps the module attributes that `toporec.cli` and
`toporec.trainer` look up, plus a few methods on the package's classes,
for timing wrappers, and returns a function that restores the
originals, so untraced runs execute the package's own function objects.
Spans live in memory until `Recorder.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    command: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """A stack of open spans plus the list of every span recorded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.command = ""
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent, command=self.command))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index].end = self.clock()
        while self._stack:
            if self._stack.pop() == index:
                break

    def self_times(self):
        """Each span's duration minus the part its children cover."""
        children = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span.parent >= 0:
                children[span.parent].append(i)
        out = []
        for i, span in enumerate(self.spans):
            covered = 0.0
            edge = span.start
            for c in sorted(children[i], key=lambda c: self.spans[c].start):
                lo = max(self.spans[c].start, edge)
                hi = min(self.spans[c].end, span.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append(span.duration - covered)
        return out

    def dump(self, path):
        selfs = self.self_times()
        rows = [dict(asdict(s), self=st) for s, st in zip(self.spans, selfs)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def _wrap(recorder, fn, name, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if note is not None:
            recorder.spans[index].attrs.update(note(args, kwargs, result))
        return result

    return wrapper


def _knn_note(args, kwargs, result):
    values = getattr(args[0], "values", args[0])
    return {
        "modality": getattr(args[0], "modality", ""),
        "rows": int(values.shape[0]),
        "dim": int(values.shape[1]),
    }


def _prune_note(args, kwargs, result):
    return {"fused_edges": int(args[0].nnz), "kept_edges": int(result[0].nnz)}


def _bpr_note(args, kwargs, result):
    return {"requested": int(args[1]), "returned": len(result)}


def _na_batch_note(args, kwargs, result):
    if result is None:
        return {"anchors": 0, "kept": 0}
    _, anchor_rows, weights = result
    return {"anchors": len(anchor_rows), "kept": int((weights > 0).any(axis=1).sum())}


def _encode_note(args, kwargs, result):
    """Forward FLOPs of the encoder and fuser matmuls over the catalogue."""
    model = args[0]
    n = model.cfg.num_items
    flops = sum(
        2.0 * n * t.values.shape[0] * t.values.shape[1]
        for name, t in model.params.items()
        if name.endswith("_w")
    )
    return {"flops": flops}


def _evaluate_note(args, kwargs, result):
    return {"split": result["split"], "users": int(result["num_users"])}


def _checkpoint_note(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module attribute, span name, note) for the names toporec.cli and
# toporec.trainer look up at call time.
CLI_NAMES = (
    ("load_interactions", "data.load_interactions", None),
    ("make_split", "data.make_split", None),
    ("load_features", "data.load_features", None),
    ("save_prepared", "data.save_prepared", None),
    ("load_prepared", "data.load_prepared", None),
    ("build_knn_graph", "itemgraph.build_knn_graph", _knn_note),
    ("fuse_graphs", "itemgraph.fuse_graphs", None),
    ("tps_prune", "itemgraph.tps_prune", _prune_note),
    ("save_graph", "itemgraph.save_graph", None),
    ("load_graph", "itemgraph.load_graph", None),
    ("fit", "trainer.fit", None),
    ("ablate", "trainer.ablate", None),
    ("build_propagation_matrix", "model.build_propagation_matrix", None),
    ("evaluate", "metrics.evaluate", _evaluate_note),
    ("write_metrics_csv", "metrics.write_metrics_csv", None),
    ("write_metrics_json", "metrics.write_metrics_json", None),
    ("load_checkpoint", "optim.load_checkpoint", None),
)
TRAINER_NAMES = (
    ("build_item_graph", "trainer.build_item_graph", None),
    ("fit", "trainer.fit", None),
    ("build_knn_graph", "itemgraph.build_knn_graph", _knn_note),
    ("fuse_graphs", "itemgraph.fuse_graphs", None),
    ("tps_prune", "itemgraph.tps_prune", _prune_note),
    ("random_prune", "itemgraph.random_prune", None),
    ("corrupt_graph", "itemgraph.corrupt_graph", None),
    ("sample_bpr_triples", "data.sample_bpr_triples", _bpr_note),
    ("build_propagation_matrix", "model.build_propagation_matrix", None),
    ("eligible_anchor_items", "model.eligible_anchor_items", None),
    ("bpr_loss", "model.bpr_loss", None),
    ("build_na_batch", "model.build_na_batch", _na_batch_note),
    ("na_batch_from_items", "model.na_batch_from_items", _na_batch_note),
    ("neighborhood_alignment_loss", "model.neighborhood_alignment_loss", None),
    ("joint_loss", "model.joint_loss", None),
    ("adam_step", "optim.adam_step", None),
    ("save_checkpoint", "optim.save_checkpoint", _checkpoint_note),
    ("evaluate", "metrics.evaluate", _evaluate_note),
)


def _targets():
    from toporec import autograd, cli, itemgraph, model, trainer

    out = [(cli, attr, name, note) for attr, name, note in CLI_NAMES]
    out += [(trainer, attr, name, note) for attr, name, note in TRAINER_NAMES]
    out += [
        (model.MultimodalRecommender, "encode_items", "model.encode_items", _encode_note),
        (model.MultimodalRecommender, "aggregate", "model.aggregate", None),
        (model.MultimodalRecommender, "embeddings", "model.embeddings", None),
        (autograd.Tensor, "backward", "autograd.backward", None),
        (itemgraph.SparseGraph, "validate", "itemgraph.validate", None),
    ]
    return out


def install(recorder):
    """Wrap every target so that it records into `recorder`; returns the
    function that puts the originals back."""
    saved = []
    for owner, attr, name, note in _targets():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(recorder, original, name, note))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def wrapped_names():
    """(owner, attribute) pairs whose current value is a trace wrapper."""
    return [
        (owner, attr)
        for owner, attr, _, _ in _targets()
        if hasattr(owner.__dict__[attr], "__wrapped__")
    ]


_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples, pct):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def tail(samples):
    """(value, percentile) of the highest ladder percentile with at least
    ten samples above its nearest-rank position.

    With fewer than 20 samples not even the median qualifies; the tail
    is then the maximum, reported as percentile 100.
    """
    n = len(samples)
    for pct in _LADDER:
        if n - max(1, math.ceil(pct / 100.0 * n)) >= 10:
            return percentile(samples, pct), pct
    return max(samples), 100.0
