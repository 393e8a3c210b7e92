"""Quick tests of the benchmark's own logic.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def _recorder(events):
    """Replay ("open", name) / ("close",) events at times 0, 1, 2, ..."""
    rec = spans.Recorder(clock=FakeClock(range(len(events))))
    stack = []
    for event in events:
        if event[0] == "open":
            stack.append(rec.open(event[1]))
        else:
            rec.close(stack.pop())
    return rec


def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond():
    assert spans.tail(list(range(1000))) == (989, 99.0)
    assert spans.tail(list(range(100))) == (89, 90.0)
    assert spans.tail(list(range(30))) == (14, 50.0)
    assert spans.tail(list(range(20))) == (9, 50.0)


def test_tail_falls_back_to_maximum_below_twenty_samples():
    assert spans.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert spans.tail(list(range(19))) == (18, 100.0)


def test_self_time_subtracts_nested_children():
    rec = _recorder([
        ("open", "a"),        # 0
        ("open", "b"),        # 1
        ("open", "c"),        # 2
        ("close",),           # 3: c lasts 1
        ("close",),           # 4: b lasts 3
        ("open", "d"),        # 5
        ("close",),           # 6: d lasts 1
        ("close",),           # 7: a lasts 7
    ])
    names = [s.name for s in rec.spans]
    assert names == ["a", "b", "c", "d"]
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 0]
    assert rec.self_times() == [3, 2, 1, 1]


def test_steps_and_epochs_follow_sampling_to_adam():
    rec = _recorder([
        ("open", "trainer.fit"),
        ("open", "data.sample_bpr_triples"), ("close",),
        ("open", "optim.adam_step"), ("close",),
        ("open", "data.sample_bpr_triples"), ("close",),
        ("open", "optim.adam_step"), ("close",),
        ("open", "metrics.evaluate"), ("close",),
        ("open", "metrics.evaluate"), ("close",),  # final pass, after the loop
        ("close",),
    ])
    steps, epochs, val_passes = layers.steps_and_epochs(rec.spans)
    assert [(lo, hi) for _, lo, hi in steps] == [(1, 4), (5, 8)]
    assert epochs == [9]
    assert len(val_passes) == 1


def test_wrappers_record_spans_and_are_removed_after_the_traced_run():
    from toporec import cli, itemgraph

    original_prune = cli.tps_prune
    original_validate = itemgraph.SparseGraph.validate
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        assert spans.wrapped_names()
        graph = itemgraph.SparseGraph.from_rows(
            4, [([1, 2, 3], [1.0, 1.0, 1.0]), ([0, 2], [1.0, 1.0]), ([3], [1.0]), ([0], [1.0])]
        )
        cli.tps_prune(graph, 1)
    finally:
        uninstall()
    names = [s.name for s in rec.spans]
    assert names[0] == "itemgraph.validate"
    assert "itemgraph.tps_prune" in names
    prune = rec.spans[names.index("itemgraph.tps_prune")]
    assert prune.attrs == {"fused_edges": 7, "kept_edges": 4}
    assert any(rec.spans[s.parent].name == "itemgraph.tps_prune" for s in rec.spans if s.parent >= 0)

    assert spans.wrapped_names() == []
    assert cli.tps_prune is original_prune is itemgraph.tps_prune
    assert itemgraph.SparseGraph.validate is original_validate
    count = len(rec.spans)
    cli.tps_prune(graph, 1)
    assert len(rec.spans) == count


def test_na_batch_note_counts_anchors_with_positive_weight():
    weights = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    note = spans._na_batch_note((), {}, (np.arange(3), np.array([0, 2]), weights))
    assert note == {"anchors": 2, "kept": 1}
