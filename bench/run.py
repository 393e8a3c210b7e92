"""Benchmark of the README walkthrough, driven in-process through
`toporec.cli.main` on generated inputs.

Usage, from the root of a toporec checkout:

    python3 bench/run.py --workload accept --seed 0 --seconds 50 --trace 0

An iteration runs the stages `prepare`; `build-graph` and `prune`;
`train`; and `evaluate` on inputs made from the seed, then checks the
outputs. `--trace 0` repeats iterations for `--seconds` and reports the
end-to-end metrics. `--trace 1` runs one untraced iteration and one
traced run of each stage and reports the per-layer metrics; the traced
`baby` run also prints the rows of ROADMAP's measured-baseline table.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

# At most two BLAS threads, so that runs on hosts with more cores
# compare with runs on the two-core host the workloads were sized for.
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# Pipeline stage -> the end-to-end metric that times it.
STAGES = {"setup": "setup_s", "graph": "graph_s", "train": "train_s", "evaluate": "eval_s"}
# Within an iteration each stage reruns until it has taken STAGE_SECONDS
# or MAX_REPEATS runs. The host's speed drifts over seconds to minutes, so
# short stages are timed over a few seconds of work, like the long ones.
STAGE_SECONDS = 6.0
MAX_REPEATS = 40
IMPORT_PROBES = 3

WORKLOADS = {
    # The acceptance scale with gates 07-09's SYNTH_KW and BENCH_KW; the
    # epoch count is fixed (patience = max epochs). Tiny matrices: the
    # per-call Python and autograd tape overhead dominates.
    "accept": dict(
        graph_flags=["--knn-k", "5"],
        train_flags=["--na-weight", "2.0", "--knn-k", "5", "--max-epochs", "10", "--patience", "10"],
        epochs=10,
    ),
    # Baby's catalogue and feature widths with the default TrainConfig and
    # one epoch: kNN and the encoders are BLAS-bound, every command reads
    # a 115 MB feature file, and ranking covers 7,050 items per user.
    "baby": dict(
        graph_flags=[],
        train_flags=["--max-epochs", "1"],
        epochs=1,
    ),
}
PRUNE_K = 5
# Graphs up to this many nodes are checked whole against the dense
# `prune_oracle`; larger ones on a fixed sample of PRUNE_SAMPLE_ROWS rows.
ORACLE_MAX_NODES = 1000
PRUNE_SAMPLE_ROWS = 40

END_TO_END = (
    ("setup_s", "s"),
    ("graph_s", "s"),
    ("train_s", "s"),
    ("eval_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
    ("test_recall_20", "ratio"),
    ("test_ndcg_20", "ratio"),
)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def generate(workload, seed, out_dir):
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), workload, str(seed), str(out_dir)],
        env=_env(), check=True,
    )


def import_seconds():
    """Median time to import `toporec.cli` in a fresh interpreter."""
    probe = (
        "import time; t = time.perf_counter(); import toporec.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", probe], env=_env(), check=True,
            capture_output=True, text=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Pipeline:
    """One workload's commands, their timings and their output checks.

    Each command is one operation; it fails on a non-zero exit or when a
    check of its output fails.
    """

    def __init__(self, cli, workload, seed, raw):
        self.cli = cli
        self.spec = WORKLOADS[workload]
        self.seed = str(seed)
        self.raw = raw
        self.recorder = None
        self.ops = []
        self.digests = None

    def command(self, argv):
        """Run one CLI command; returns its operation record."""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                if self.recorder is None:
                    code = self.cli.main(argv)
                else:
                    self.recorder.command = argv[0]
                    index = self.recorder.open("cli." + argv[0])
                    try:
                        code = self.cli.main(argv)
                    finally:
                        self.recorder.close(index)
        except Exception:
            traceback.print_exc()
            code = -1
        op = {"command": argv[0], "seconds": time.perf_counter() - start, "ok": code == 0}
        if code != 0:
            print(f"bench: `toporec {argv[0]}` exited {code}", file=sys.stderr)
        self.ops.append(op)
        return op

    def stage(self, argvs, repeats):
        """Run the commands in order, `repeats` times or, with repeats=None,
        until they have taken STAGE_SECONDS or MAX_REPEATS runs; returns
        the seconds of each run and the last run's operations."""
        seconds = []
        while True:
            ops = [self.command(argv) for argv in argvs]
            seconds.append(sum(op["seconds"] for op in ops))
            if len(seconds) == (repeats or MAX_REPEATS):
                break
            if repeats is None and sum(seconds) >= STAGE_SECONDS:
                break
        return seconds, ops

    def iteration(self, work, repeats=None):
        """Run every stage of the pipeline in `work`; returns the stage
        times and outputs."""
        raw, prep, graphs = self.raw, work / "prepared", work / "graphs"
        graphs.mkdir(parents=True)
        fused, pruned, run = graphs / "fused.tmg", graphs / "pruned.tmg", work / "run"
        stages = {
            "setup": [[
                "prepare",
                "--interactions", str(raw / "interactions.txt"),
                "--features-visual", str(raw / "features_visual.tmf"),
                "--features-textual", str(raw / "features_textual.tmf"),
                "--out", str(prep), "--seed", self.seed,
            ]],
            "graph": [
                ["build-graph", "--prepared", str(prep), "--out", str(fused), *self.spec["graph_flags"]],
                ["prune", "--graph", str(fused), "--out", str(pruned), "--k", str(PRUNE_K),
                 "--report", str(graphs / "prune_report.csv")],
            ],
            "train": [[
                "train", "--prepared", str(prep), "--graph", str(pruned), "--out", str(run),
                "--seed", self.seed, *self.spec["train_flags"],
            ]],
            "evaluate": [[
                "evaluate", "--run", str(run), "--split", "test", "--out", str(run / "metrics_test"),
            ]],
        }
        times, ops = {}, {}
        for name, argvs in stages.items():
            times[name], ops[name] = self.stage(argvs, repeats)
        return {
            "times": times, "ops": ops,
            "prep": prep, "fused": fused, "pruned": pruned, "run": run,
        }

    def check(self, it):
        """Check one iteration's outputs and record their SHA-256 digests.

        Later iterations must reproduce the first one's digests.
        """
        from toporec.itemgraph import load_graph
        from toporec.optim import load_checkpoint

        first = self.digests is None
        digests = {}
        run = it["run"]

        def verdict(op, test, outputs=()):
            if not op["ok"]:
                return
            try:
                test()
                for key, path in outputs:
                    digests[key] = sha256(path)
                    if not first and digests[key] != self.digests.get(key, digests[key]):
                        raise AssertionError(f"{key} differs from the first iteration")
            except Exception:
                traceback.print_exc()
                op["ok"] = False

        def prepared():
            with open(it["prep"] / "stats.json", encoding="utf-8") as fh:
                stats = json.load(fh)
            users, items, lines = set(), set(), 0
            with open(self.raw / "interactions.txt", encoding="utf-8") as fh:
                for line in fh:
                    u, i = line.split()
                    users.add(u)
                    items.add(i)
                    lines += 1
            got = (stats["users"], stats["items"], stats["interactions"])
            if got != (len(users), len(items), lines):
                raise AssertionError(f"prepared stats {got} disagree with the input")

        def pruned():
            graph = load_graph(str(it["pruned"]))
            if first:
                check_prune(load_graph(str(it["fused"])), graph)

        def trained():
            load_checkpoint(str(run / "checkpoint.tmc"))
            with open(run / "epochs.csv", encoding="utf-8") as fh:
                rows = [line.strip().split(",") for line in fh][1:]
            if len(rows) != self.spec["epochs"]:
                raise AssertionError(f"{len(rows)} epochs in epochs.csv, expected {self.spec['epochs']}")
            if not all(math.isfinite(float(x)) for row in rows for x in row[1:3]):
                raise AssertionError("non-finite loss in epochs.csv")

        def evaluated():
            with open(run / "metrics_test.json", encoding="utf-8") as fh:
                metrics = json.load(fh)
            with open(run / "manifest.json", encoding="utf-8") as fh:
                manifest = json.load(fh)
            if metrics != manifest["test_metrics"]:
                raise AssertionError("evaluate disagrees with the test metrics training wrote")
            # A random ranking scores Recall@20 of about 20/items; demand
            # five binomial standard errors above that.
            p = 20.0 / manifest["num_items"]
            floor = p + 5.0 * math.sqrt(p * (1.0 - p) / metrics["num_users"])
            if not metrics["recall@20"] > floor:
                raise AssertionError(f"test recall@20 {metrics['recall@20']} <= random bound {floor}")
            it["metrics"] = metrics

        build, prune = it["ops"]["graph"]
        verdict(it["ops"]["setup"][0], prepared)
        verdict(build, lambda: load_graph(str(it["fused"])), [("fused.tmg", it["fused"])])
        verdict(prune, pruned, [("pruned.tmg", it["pruned"])])
        verdict(it["ops"]["train"][0], trained, [
            (name, run / name) for name in ("checkpoint.tmc", "epochs.csv")
        ])
        verdict(it["ops"]["evaluate"][0], evaluated, [("metrics_test.json", run / "metrics_test.json")])
        if first:
            self.digests = digests

    @property
    def failed(self):
        return sum(not op["ok"] for op in self.ops)


def _mi(total, a, b, both):
    """Mutual information of two membership indicators, cell by cell."""
    ts = 0.0
    for joint, ma, mb in (
        (both, a, b), (a - both, a, total - b), (b - both, total - a, b),
        (total - a - b + both, total - a, total - b),
    ):
        if joint:
            ts += (joint / total) * math.log(joint * total / (ma * mb))
    return max(ts, 0.0)


def check_prune(fused, pruned):
    """The pruned graph against an independent top-K by mutual information.

    Small graphs are compared whole with `prune_oracle` from
    tests/oracles.py; on larger ones a fixed sample of rows is rescored
    from Python sets. Kept edges must keep their weights.
    """
    import numpy as np

    n = fused.num_nodes
    if n <= ORACLE_MAX_NODES:
        sys.path.append(str(TESTS))
        from oracles import graph_edge_set, prune_oracle

        dense = fused.to_dense()
        if graph_edge_set(pruned) != prune_oracle(dense, PRUNE_K):
            raise AssertionError("pruned graph differs from prune_oracle")
        src, dst, w = pruned.to_edges()
        if not np.array_equal(dense[src, dst], w):
            raise AssertionError("pruned edges changed weight")
        return
    hoods = {}

    def hood(m):
        if m not in hoods:
            hoods[m] = {m} | set(fused.row(m)[0].tolist())
        return hoods[m]

    rows = np.random.default_rng(0).choice(n, size=PRUNE_SAMPLE_ROWS, replace=False)
    for m in rows.tolist():
        cols, w = fused.row(m)
        scored = sorted(
            (-_mi(n, len(hood(m)), len(hood(j)), len(hood(m) & hood(j))), -wt, j)
            for j, wt in zip(cols.tolist(), w.tolist())
        )
        want = sorted((j, -neg_wt) for _, neg_wt, j in scored[:PRUNE_K])
        got_cols, got_w = pruned.row(m)
        if list(zip(got_cols.tolist(), got_w.tolist())) != want:
            raise AssertionError(f"pruned row {m} differs from set enumeration")


def end_to_end(iterations, import_s):
    """Medians over iterations of each stage's mean time in an iteration.

    The host's speed swings between states that last seconds, so a stage
    time averages over its runs in an iteration before the median across
    iterations is taken.
    """
    per_iteration = [
        {metric: statistics.fmean(it["times"][name]) for name, metric in STAGES.items()}
        for it in iterations
    ]
    values = {
        metric: statistics.median(stage[metric] for stage in per_iteration)
        for metric in STAGES.values()
    }
    metrics = iterations[0].get("metrics", {})
    values.update({
        "pipeline_s": statistics.median(sum(stage.values()) for stage in per_iteration),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_recall_20": metrics.get("recall@20", 0.0),
        "test_ndcg_20": metrics.get("ndcg@20", 0.0),
    })
    values["setup_s"] += import_s
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def blas_probes(prep_dir):
    """sgemm at the encoder's first layer and a float64 kNN Gram block,
    at this workload's shapes, as FLOP/s (median of a few calls)."""
    import numpy as np

    from toporec.config import TrainConfig
    from toporec.data import load_features

    feats = load_features(str(prep_dir / "features_visual.tmf"), "visual")
    n, d = feats.values.shape
    hidden = TrainConfig().hidden_dim
    rng = np.random.default_rng(0)

    def rate(a, b, flops):
        times = []
        deadline = time.perf_counter() + 1.0
        while len(times) < 3 or (time.perf_counter() < deadline and len(times) < 100):
            start = time.perf_counter()
            a @ b
            times.append(time.perf_counter() - start)
        return flops / statistics.median(times)

    x = feats.values
    w = rng.standard_normal((d, hidden)).astype(np.float32)
    sgemm = rate(x, w, 2.0 * n * d * hidden)
    block = min(2048, n)
    g = x.astype(np.float64)
    dgemm = rate(g[:block], g.T, 2.0 * block * n * d)
    return {"sgemm_flops_per_s": sgemm, "dgemm_flops_per_s": dgemm}


def untraced(pipeline, work, seconds):
    """Checked iterations while another one fits in `seconds` (at least
    one); later iterations must reproduce the first one's output digests."""
    iterations = []
    start = time.perf_counter()
    while True:
        it = pipeline.iteration(work / f"it{len(iterations)}")
        pipeline.check(it)
        iterations.append(it)
        shutil.rmtree(work / f"it{len(iterations) - 2}", ignore_errors=True)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(iterations) > seconds:
            return iterations


def traced(pipeline, work):
    """One untraced iteration, then one traced run of each stage; returns
    the per-layer metrics, the recorder and the baseline-table rows."""
    import layers
    import spans

    base = untraced(pipeline, work, 0)[0]
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    pipeline.recorder = recorder
    try:
        it = pipeline.iteration(work / "traced", repeats=1)
    finally:
        uninstall()
        pipeline.recorder = None
    pipeline.check(it)
    metrics = layers.per_layer(recorder, blas_probes(it["prep"]))
    # The untraced iteration is the process's first, so its medians keep
    # first-call costs out of the base.
    base_s = {name: statistics.median(base["times"][name]) for name in STAGES}
    for name, metric in STAGES.items():
        metrics[f"trace.overhead_ratio.{metric}"] = (it["times"][name][0] / base_s[name], "ratio")
    metrics["trace.overhead_ratio"] = (
        sum(it["times"][n][0] for n in STAGES) / sum(base_s.values()), "ratio"
    )
    return metrics, recorder, layers.baseline_rows(metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for need in (SRC / "toporec" / "cli.py", TESTS / "oracles.py"):
        if not need.is_file():
            print(f"error: {need} is missing; run from a toporec checkout", file=sys.stderr)
            return 2

    out_dir = ROOT / ".bench_work"
    work = out_dir / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        generate(args.workload, args.seed, work / "raw")
        sys.path.insert(0, str(SRC))
        from toporec import cli

        pipeline = Pipeline(cli, args.workload, args.seed, work / "raw")
        report = []
        if args.trace:
            per_layer, recorder, table = traced(pipeline, work)
            recorder.dump(out_dir / f"spans-{args.workload}-s{args.seed}.json")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
            report.append("| Stage | Time |")
            report.append("|---|---|")
            report += [f"| {row} | {value} |" for row, value in table]
        else:
            import_s = import_seconds()
            iterations = untraced(pipeline, work, args.seconds)
            metrics = end_to_end(iterations, import_s)
            report.append(f"iterations {len(iterations)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report += [f"digest {k} {v}" for k, v in sorted((pipeline.digests or {}).items())]
    report += [f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    report.append(
        f"fail_ratio {pipeline.failed / len(pipeline.ops):.6g} "
        f"({pipeline.failed} of {len(pipeline.ops)} operations)"
    )
    print("\n".join(report))
    print(json.dumps({
        "correct": pipeline.failed == 0,
        "attempted": len(pipeline.ops),
        "failed": pipeline.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
