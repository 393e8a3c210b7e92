"""Generate one workload's raw inputs from its seed.

Usage: python3 bench/inputs.py WORKLOAD SEED OUT_DIR

Writes the files the README walkthrough starts from: `interactions.txt`
(one `user item` line per interaction) and the two TMF1 feature files.
It runs in its own process so that the generator's arrays never count
towards the benchmark process's peak memory.
"""

from __future__ import annotations

import os
import sys

# Keyword arguments of `toporec.synth.make_clustered_dataset` per workload.
ACCEPT = dict(
    # SYNTH_KW of acceptance gates 07-09.
    num_users=2000,
    num_items=500,
    num_clusters=10,
    visual_noise=2.0,
    textual_noise=1.5,
    interactions_low=3,
    interactions_high=6,
)
BABY = dict(
    # Amazon Baby's catalogue and feature widths (7,050 items, 4096-d
    # visual, 384-d textual) and its mean of about 8.5 interactions per
    # user. The user count is cut from 19,445 so that one run of the
    # whole pipeline fits the benchmark's time budget; see run.py.
    num_users=3000,
    num_items=7050,
    num_clusters=50,
    visual_dim=4096,
    textual_dim=384,
    interactions_low=5,
    interactions_high=12,
)
SYNTH = {"accept": ACCEPT, "baby": BABY}


def write_inputs(workload, seed, out_dir):
    import numpy as np

    from toporec.data import FeatureMatrix, save_features
    from toporec.synth import make_clustered_dataset

    data = make_clustered_dataset(seed=seed, **SYNTH[workload])
    os.makedirs(out_dir, exist_ok=True)
    table = data.table
    with open(os.path.join(out_dir, "interactions.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{table.user_tokens[u]} {table.item_tokens[i]}\n" for u, i in table.edges
        )
    # `prepare` numbers items by first appearance in the interaction file
    # and takes feature row k to describe item k, so the rows are written
    # in that order; items no user touched have no id and are left out.
    items = table.edges[:, 1]
    seen, first = np.unique(items, return_index=True)
    order = seen[np.argsort(first)]
    for features in (data.features_visual, data.features_textual):
        path = os.path.join(out_dir, f"features_{features.modality}.tmf")
        save_features(path, FeatureMatrix(features.modality, features.values[order]))


if __name__ == "__main__":
    write_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
