"""tools/ab.py with a stub runner in place of the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

NAMES = [m["name"] for m in ab.load_spec()["end_to_end"]]
DIGESTS = {f"file{i}": f"{i:064x}" for i in range(5)}


class StubRunner:
    """Records the side of each call; side `s` of pair p reads
    values[s][p] for every metric, and digests[s][p] if given."""

    def __init__(self, base, values, digests=None, failed=None):
        self.base, self.values = base.resolve(), values
        self.digests, self.failed = digests or {}, failed or {}
        self.calls = []

    def __call__(self, tree, command, workload, seed, seconds):
        side = "base" if tree == self.base else "change"
        pair = sum(s == side for s in self.calls)
        self.calls.append(side)
        result = {
            "failed": self.failed.get(side, [0] * (pair + 1))[pair],
            "metrics": {name: {"value": self.values[side][pair]} for name in NAMES},
        }
        return self.digests.get(side, [DIGESTS] * (pair + 1))[pair], result


@pytest.fixture
def base(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("")
    return tmp_path


def _run(capsys, base, runner, pairs, workload="accept"):
    argv = ["--base", str(base), "--workload", workload, "--pairs", str(pairs)]
    assert ab.main(argv, runner=runner) == 0
    out = capsys.readouterr().out.strip().splitlines()
    return out, json.loads(out[-1])


def test_pairs_alternate_which_side_runs_first(capsys, base):
    runner = StubRunner(base, {"base": [1.0] * 4, "change": [1.0] * 4})
    _, summary = _run(capsys, base, runner, 4)
    assert runner.calls == ["base", "change", "change", "base"] * 2
    assert summary["pairs"] == 4 and summary["digests"] == 5
    assert summary["digests_match"] and not summary["failed_rose"]


def test_wins_count_the_better_side_and_not_ties(capsys, base):
    values = {"base": [2.0, 2.0, 2.0, 2.0, 5.0], "change": [1.0, 3.0, 2.0, 1.5, 1.0]}
    lines, summary = _run(capsys, base, StubRunner(base, values), 5)
    # Lower is better for times, higher for recall: pairs 1, 4 and 5
    # against pair 2 alone, and pair 3 is a tie.
    assert summary["metrics"]["train_s"]["wins"] == 3
    assert summary["metrics"]["test_recall_20"]["wins"] == 1
    assert summary["metrics"]["train_s"]["base"] == [2.0, 2.0, 2.0]
    assert summary["metrics"]["train_s"]["change"] == [1.5, 1.0, 2.0]
    assert summary["metrics"]["train_s"]["gap"] == -0.5
    assert summary["metrics"]["train_s"]["gap_over_iqr"] is None  # no base spread
    # The recall median fell by a quarter of 2.0: exactly the bound.
    assert summary["metrics"]["test_recall_20"]["within_bound"]
    assert summary["metrics"]["eval_s"]["base_range"] == [2.0, 5.0]  # heap-bound on accept
    assert "base_range" not in summary["metrics"]["train_s"]
    assert any(line.startswith("train_s: 2.0 [2.0, 2.0] -> 1.5") for line in lines)
    quoted = lines[-2]
    assert quoted.startswith("accept seed 0, 5 pairs: setup_s 2.0 -> 1.5 (3/5), ")
    assert "test_recall_20 2.0 -> 1.5 (1/5)" in quoted
    assert quoted.endswith("; digests match; failed 0 -> 0")


def test_a_digest_mismatch_and_more_failures_are_reported(capsys, base):
    other = dict(DIGESTS, file3="f" * 64)
    runner = StubRunner(
        base, {"base": [1.0, 1.0], "change": [1.0, 1.0]},
        digests={"change": [DIGESTS, other]}, failed={"change": [0, 1]},
    )
    lines, summary = _run(capsys, base, runner, 2)
    assert not summary["digests_match"]
    assert summary["failed"] == {"base": 0, "change": 1} and summary["failed_rose"]
    assert "digests (5) match in every run: False" in lines
    assert lines[-2].endswith("; digests DIFFER; failed 0 -> 1")


def test_rejects_a_base_without_the_bench(capsys, tmp_path):
    with pytest.raises(SystemExit):
        ab.main(["--base", str(tmp_path), "--workload", "accept", "--pairs", "1"],
                runner=None)
    assert "has no bench/run.py" in capsys.readouterr().err


@pytest.mark.parametrize("drop, lost, met", [
    (5.0, 0, True),    # 10/10 wins, gap 5 beyond the base IQR of 4.5
    (4.0, 0, False),   # 10/10 wins, but the gap is inside the IQR
    (9.0, 2, False),   # a wide gap, but only 8/10 wins
    (9.0, 1, True),    # 9/10 wins is enough
])
def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_base_iqr(
        capsys, base, drop, lost, met):
    before = [10.0 + p for p in range(10)]  # quartiles 12.25 and 16.75
    after = [b - drop for b in before]
    for p in range(lost):
        after[p] = before[p] + 1.0
    lines, summary = _run(capsys, base, StubRunner(base, {"base": before, "change": after}), 10)
    # Lower is better for times and memory; recall read lower too.
    assert summary["metrics"]["train_s"]["claim_met"] is met
    assert summary["metrics"]["peak_rss_mb"]["claim_met"] is met
    assert summary["metrics"]["test_recall_20"]["claim_met"] is False
    train_line = next(line for line in lines if line.startswith("train_s:"))
    assert train_line.endswith("; CLAIM MET") is met
