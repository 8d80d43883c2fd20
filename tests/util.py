"""Shared fixture builders for the test suite."""
import numpy as np

from fraudring.features import LabeledDataset
from fraudring.graph import DeviceSharingGraph


def make_graph(kinds: str, edges):
    """Graph from a kind string like "AADD" and an edge list.

    Accounts get ids a0, a1, ... and devices d0, d1, ... by position.
    """
    ids = [f"{'a' if ch == 'A' else 'd'}{i}" for i, ch in enumerate(kinds)]
    return DeviceSharingGraph(ids, [ch == "A" for ch in kinds], edges)


def random_bipartite(rng: np.random.Generator, n_accounts: int, n_devices: int, edge_prob: float):
    kinds = "A" * n_accounts + "D" * n_devices
    edges = [
        (a, n_accounts + d)
        for a in range(n_accounts)
        for d in range(n_devices)
        if rng.random() < edge_prob
    ]
    return make_graph(kinds, edges)


def random_bipartite_with_small_parts(rng: np.random.Generator, n_accounts: int, n_devices: int, edge_prob: float):
    """random_bipartite plus a two-account component and an isolated account, numbered last."""
    g = random_bipartite(rng, n_accounts, n_devices, edge_prob)
    n = g.num_nodes
    kinds = "".join("A" if account else "D" for account in g.is_account.tolist()) + "AADA"
    return make_graph(kinds, list(g.edges()) + [(n, n + 2), (n + 1, n + 2)])


def adjacency_lists(g: DeviceSharingGraph):
    return [[int(v) for v in g.neighbors(u)] for u in range(g.num_nodes)]


def make_dataset(
    g: DeviceSharingGraph,
    features,
    high_risk=None,
    is_test=None,
    truth=None,
) -> LabeledDataset:
    """LabeledDataset over g's accounts with row i of features on account i.

    high_risk and is_test default to all False, truth to absent.
    """
    n = len(g.account_indices())

    def column(values):
        return np.zeros(n, dtype=bool) if values is None else np.array(values, dtype=bool)

    truth = None if truth is None else column(truth)
    return LabeledDataset(g, np.array(features, dtype=np.float64), column(high_risk), column(is_test), truth)
