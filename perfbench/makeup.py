"""Print the make-up of a workload's inputs for one seed.

    python3 perfbench/makeup.py --workload metro-10x --seed 0

Reports the pruned graph's size, its component sizes and maximum degree, the
login lines per kept edge, and how often each distinct skip-gram
(center, context) pair recurs in one epoch of the workload's walks.
"""

from __future__ import annotations

import argparse
import os
import shutil

import numpy as np

from run import ROOT, WORK_DIR, flag
from workloads import WORKLOADS, import_package, make_inputs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    fraudring = import_package(ROOT)
    workload = WORKLOADS[args.workload]
    data = os.path.join(WORK_DIR, f"makeup-{os.getpid()}")
    os.makedirs(data)
    try:
        sds = make_inputs(fraudring, workload, args.seed, data)
        with open(os.path.join(data, "logins.tsv"), encoding="utf-8") as fh:
            login_lines = sum(1 for _ in fh)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    g = fraudring.graph.prune_singletons(sds.dataset.graph)
    sizes = sorted((len(c) for c in fraudring.graph.connected_components(g)), reverse=True)
    degrees = np.diff(g.csr()[0])
    n_accounts = len(g.account_indices())
    print(f"accounts {n_accounts}, devices {g.num_nodes - n_accounts}, edges {g.edge_count}")
    print(f"components {len(sizes)}, largest {sizes[0]} nodes, median {sizes[len(sizes) // 2]} nodes")
    print(f"maximum degree {degrees.max()}, mean degree {degrees.mean():.2f}")
    print(f"login lines {login_lines}, {login_lines / g.edge_count:.1f} per kept edge")

    defaults = fraudring.cli.N2V_DEFAULTS
    n2v = workload.node2vec
    config = fraudring.baselines.node2vec.Node2vecConfig(
        walk_length=flag(n2v, "--walk-length", defaults["walk_length"]),
        walks_per_node=flag(n2v, "--walks-per-node", defaults["walks_per_node"]),
        window=flag(n2v, "--window", defaults["window"]),
        return_param=flag(n2v, "--return-param", defaults["return_param"]),
        inout_param=flag(n2v, "--inout-param", defaults["inout_param"]),
    )
    walks = fraudring.baselines.node2vec.biased_walks(g, config)
    centers, contexts = fraudring.baselines.node2vec._walk_pairs(walks, config.window)
    distinct = len(np.unique(centers * g.num_nodes + contexts))
    print(f"skip-gram pairs per epoch {len(centers)}, distinct {distinct}, "
          f"redundancy {len(centers) / distinct:.0f}x")


if __name__ == "__main__":
    main()
