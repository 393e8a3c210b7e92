"""Paired A/B runs of the benchmark: a base checkout against this one.

Usage, from a toporec checkout:

    git archive HEAD~1 | tar -x -C /tmp/base
    python3 tools/ab.py --base /tmp/base --workload baby --pairs 10 --seed 0

Each pair runs BENCHMARK.json's command with `--workload W --seed S
--seconds T` once in the base tree and once in this tree, as separate
processes, base first in odd pairs and this tree first in even ones
(Kalibera & Jones, "Rigorous Benchmarking in Reasonable Time", ISMM
2013). T, and each end-to-end metric's direction and bound, come from
this tree's BENCHMARK.json.

For each end-to-end metric it prints both sides' medians and quartiles,
the pairs this tree won (ties count for neither side), and the gap of
the medians against the base's interquartile range; for the metrics in
HEAP_BOUND it adds each side's min-max. It says whether every run wrote
the base's first digests and whether failures rose. The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Metrics that move between runs of the same code with the heap's state
# (where glibc returns memory, what an earlier allocation left), so a
# median alone hides how far apart two runs of one tree can read.
HEAP_BOUND = {("accept", "eval_s"), ("baby", "peak_rss_mb"), ("baby", "graph_s")}


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_bench(tree, command, workload, seed, seconds):
    """One benchmark process in `tree`: (digests, its closing JSON object)."""
    # The bench puts its own src/ first; an inherited PYTHONPATH could
    # point both trees at one of them.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {out.returncode}")
    digests = dict(line.split()[1:3] for line in lines if line.startswith("digest "))
    return digests, json.loads(lines[-1])


def pair_order(pair):
    """The sides of 0-based pair `pair` in the order they run."""
    return ("base", "change") if pair % 2 == 0 else ("change", "base")


def wins(base, change, better):
    """Pairs in which the change reads better; ties count for neither."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - b) > 0 for b, c in zip(base, change))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _round(x):
    return float(f"{x:.4g}")


def summarise(workload, spec, runs):
    """Per-metric statistics of runs = {"base": [...], "change": [...]},
    each a list of (digests, bench JSON) in pair order."""
    reference = runs["base"][0][0]
    summary = {
        "workload": workload,
        "pairs": len(runs["base"]),
        "digests": len(reference),
        "digests_match": all(d == reference for side in runs.values() for d, _ in side),
        "failed": {side: sum(r["failed"] for _, r in rs) for side, rs in runs.items()},
        "metrics": {},
    }
    summary["failed_rose"] = summary["failed"]["change"] > summary["failed"]["base"]
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        values = {side: [r["metrics"][name]["value"] for _, r in rs] for side, rs in runs.items()}
        row = {}
        for side, vals in values.items():
            q1, q3 = _quartiles(vals)
            row[side] = [_round(v) for v in (statistics.median(vals), q1, q3)]
            if (workload, name) in HEAP_BOUND:
                row[f"{side}_range"] = [_round(min(vals)), _round(max(vals))]
        base_median, change_median = (statistics.median(values[s]) for s in ("base", "change"))
        q1, q3 = _quartiles(values["base"])
        gap = change_median - base_median
        worse = gap if better == "lower" else -gap
        row["wins"] = wins(values["base"], values["change"], better)
        row["gap"] = _round(gap)
        row["gap_over_iqr"] = _round(gap / (q3 - q1)) if q3 > q1 else None
        row["within_bound"] = worse <= metric["bound"] * abs(base_median)
        summary["metrics"][name] = row
    return summary


def report(summary):
    """Human-readable lines for a summary."""
    n = summary["pairs"]
    lines = [f"workload {summary['workload']}: {n} pairs; "
             "median [q1, q3] base -> change, wins of change, gap / base IQR"]
    for name, row in summary["metrics"].items():
        (bm, bq1, bq3), (cm, cq1, cq3) = row["base"], row["change"]
        line = (f"{name}: {bm} [{bq1}, {bq3}] -> {cm} [{cq1}, {cq3}], "
                f"{row['wins']}/{n}, gap {row['gap']} ({row['gap_over_iqr']} IQR)")
        if "base_range" in row:
            line += f"; ranges {row['base_range']} -> {row['change_range']}"
        if not row["within_bound"]:
            line += "; WORSE BEYOND BOUND"
        lines.append(line)
    lines.append(f"digests ({summary['digests']}) match in every run: {summary['digests_match']}")
    lines.append(f"failed: base {summary['failed']['base']}, change {summary['failed']['change']}")
    return lines


def main(argv=None, runner=run_bench):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if not (args.base / spec["command"][-1]).is_file():
        parser.error(f"{args.base} has no {spec['command'][-1]}")

    trees = {"base": args.base.resolve(), "change": ROOT}
    runs = {"base": [], "change": []}
    for pair in range(args.pairs):
        for side in pair_order(pair):
            digests, result = runner(trees[side], spec["command"], args.workload,
                                     args.seed, spec["run_seconds"])
            runs[side].append((digests, result))
            print(f"pair {pair + 1}/{args.pairs} {side}: failed {result['failed']}",
                  file=sys.stderr, flush=True)
    summary = summarise(args.workload, spec, runs)
    summary["seed"] = args.seed
    print("\n".join(report(summary)))
    print(json.dumps(summary, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
