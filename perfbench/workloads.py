"""The benchmark's workloads and the inputs each one generates from a seed.

A workload fixes a synthetic dataset shape (keyword arguments of
`fraudring.synth.SynthConfig`), the flags its training stages get, and
whether the login log is inflated with seeded noise. `make_inputs` writes
the files the program receives: the claim and login logs, and the features
and ground truth of the accounts the graph keeps.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass, field

import noise

# Split and prune flags, passed alike to every train and evaluate command.
SPLIT_FLAGS = ("--test-fraction", "0.3", "--split-seed", "0")


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict = field(default_factory=dict)
    gnn: tuple[str, ...] = ()
    gbdt: tuple[str, ...] = ()
    node2vec: tuple[str, ...] = ()
    noisy_logins: bool = False
    # Order and number of stage runs in an untraced round. Short stages run
    # several times, spread over the round so that their median does not hang
    # on one moment of this machine's wandering speed.
    schedule: tuple[tuple[str, int], ...] = (
        ("build_graph", 1), ("train_gnn", 1), ("train_gbdt", 1), ("train_node2vec_gbdt", 1), ("evaluate", 1),
    )


# Both cut workloads train on one biased walk of 10 steps per node, one epoch.
SHORT_BIASED_WALKS = ("--walks-per-node", "1", "--walk-length", "10", "--n2v-epochs", "1",
                      "--return-param", "0.25", "--inout-param", "4")

WORKLOADS = {
    w.name: w
    for w in (
        # Default dataset and default hyperparameters, but for one skip-gram
        # epoch instead of three: the acceptance gate's setting, where the
        # skip-gram does most of the work.
        Workload(
            "desk-1x",
            node2vec=("--n2v-epochs", "1"),
            schedule=(
                ("build_graph", 4), ("train_gbdt", 1), ("build_graph", 4), ("train_gnn", 1),
                ("train_gbdt", 1), ("build_graph", 4), ("train_node2vec_gbdt", 1), ("train_gbdt", 1),
                ("build_graph", 4), ("evaluate", 16),
            ),
        ),
        # Ten times the accounts and ~10 login events per edge, with cut
        # training budgets: parsing, pruning, reloads and evaluation dominate.
        Workload(
            "metro-10x",
            synth={"n_regular_accounts": 20000, "n_rings": 200},
            gnn=("--epochs", "20"),
            gbdt=("--trees", "50"),
            node2vec=SHORT_BIASED_WALKS + ("--trees", "50"),
            noisy_logins=True,
            schedule=(
                ("build_graph", 1), ("train_gbdt", 1), ("train_gnn", 1), ("train_gbdt", 1), ("build_graph", 1),
                ("train_node2vec_gbdt", 1), ("train_gbdt", 1), ("build_graph", 1), ("evaluate", 3),
            ),
        ),
        # A dozen wide rings: long attention segments, big alias tables. Not in
        # BENCHMARK.json (see README.md); run it by hand.
        Workload(
            "dense-rings",
            synth={
                "n_regular_accounts": 3000,
                "n_rings": 12,
                "ring_size_range": (35, 45),
                "devices_per_ring_range": (10, 14),
                "family_share_prob": 0.3,
            },
            gnn=("--epochs", "15"),
            gbdt=("--trees", "50"),
            node2vec=SHORT_BIASED_WALKS + ("--trees", "50"),
            schedule=(
                ("build_graph", 3), ("train_gbdt", 1), ("build_graph", 3), ("train_gnn", 1), ("train_gbdt", 1),
                ("build_graph", 3), ("train_node2vec_gbdt", 1), ("train_gbdt", 1), ("evaluate", 5),
            ),
        ),
    )
}


def import_package(root: str):
    """Import `fraudring` from the checkout's `src`, and from nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        package = importlib.import_module("fraudring")
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import fraudring from {src}: {e}") from None
    if not os.path.abspath(package.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"perfbench: fraudring was imported from {package.__file__}, not {src}")
    for name in ("cli", "synth", "graph", "features", "train", "evaluation", "geniepath",
                 "baselines.gbdt", "baselines.node2vec"):
        importlib.import_module(f"fraudring.{name}")
    return package


def _keep_rows(path: str, keep: set[str]) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    kept = [lines[0]] + [ln for ln in lines[1:] if ln.split("\t", 1)[0] in keep]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(kept) + "\n")


def make_inputs(fraudring, workload: Workload, seed: int, data_dir: str):
    """Generate the workload's input files in data_dir; returns the SyntheticDataset.

    synth's own graph is removed, so the graph the later stages use is the one
    build-graph writes. Features and ground truth keep only the accounts in
    components with two or more accounts, the accounts that graph holds.
    """
    synth = fraudring.synth
    sds = synth.generate(synth.SynthConfig(seed=seed, **workload.synth))
    synth.emit(sds, data_dir)
    os.remove(os.path.join(data_dir, fraudring.features.GRAPH_FILE))
    if workload.noisy_logins:
        noise.write_noisy_logs(sds, os.path.join(data_dir, fraudring.features.CLAIMS_FILE),
                               os.path.join(data_dir, fraudring.features.LOGINS_FILE), seed)
    prunable = set(sds.prunable_account_ids)
    keep = {ev.account_external_id for ev in sds.claims} - prunable
    _keep_rows(os.path.join(data_dir, fraudring.features.FEATURES_FILE), keep)
    _keep_rows(os.path.join(data_dir, fraudring.features.GROUND_TRUTH_FILE), keep)
    return sds
