"""Second-order biased random walks and skip-gram embeddings over the graph.

Walks traverse accounts and devices alike; only account embeddings feed the
downstream classifier, concatenated in front of the account features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..features import LabeledDataset
from ..geniepath import sigmoid
from ..graph import DeviceSharingGraph
from ..train import training_rows
from .gbdt import GBDTConfig, GBDTModel, gbdt_fit

# Full-batch Adam steps per skip-gram epoch, and the Adam moment constants.
STEPS_PER_EPOCH = 50
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Node2vecConfig:
    dimensions: int = 16
    walk_length: int = 20
    walks_per_node: int = 10
    window: int = 5
    return_param: float = 1.0
    inout_param: float = 1.0
    negative_samples: int = 5
    epochs: int = 3
    step_size: float = 0.025
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("dimensions", "walk_length", "walks_per_node", "window", "negative_samples", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("return_param", "inout_param", "step_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


def _alias_build(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias table: sample i with prob weights[i]/sum in O(1) per draw."""
    n = len(weights)
    prob = np.ones(n)
    alias = np.arange(n)
    scaled = weights * (n / weights.sum())
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] = scaled[l] + scaled[s] - 1.0
        (small if scaled[l] < 1.0 else large).append(l)
    return prob, alias


def _edge_transition_weights(
    prev: int, prev_neighbors: np.ndarray, cur_neighbors: np.ndarray, p: float, q: float
) -> np.ndarray:
    """Unnormalized weights over cur's neighbors for a walk arriving from prev.

    Returning to prev weighs 1/p, moving to a node adjacent to prev weighs 1,
    anything else 1/q. prev_neighbors must be sorted.
    """
    w = np.full(len(cur_neighbors), 1.0 / q)
    if len(prev_neighbors):
        pos = np.minimum(
            np.searchsorted(prev_neighbors, cur_neighbors), len(prev_neighbors) - 1
        )
        w[prev_neighbors[pos] == cur_neighbors] = 1.0
    w[cur_neighbors == prev] = 1.0 / p
    return w


class _BiasedSampler:
    """Per-directed-edge alias tables for the (p, q) second-order transition."""

    def __init__(self, g: DeviceSharingGraph, p: float, q: float):
        offsets, targets = g.csr()
        n = g.num_nodes
        deg = np.diff(offsets)
        n_directed = len(targets)
        src_of = np.repeat(np.arange(n), deg)
        # keys sorted ascending because CSR iterates src blocks in order with sorted targets
        self._keys = src_of * n + targets
        self._n = n
        self._offsets = offsets
        self._targets = targets
        self._deg = deg

        table_sizes = deg[targets]
        self._table_ptr = np.zeros(n_directed + 1, dtype=np.int64)
        np.cumsum(table_sizes, out=self._table_ptr[1:])
        self._prob = np.empty(int(table_sizes.sum()))
        self._alias = np.empty(int(table_sizes.sum()), dtype=np.int64)
        for eid in range(n_directed):
            prev = int(src_of[eid])
            cur = int(targets[eid])
            cur_nbrs = targets[offsets[cur] : offsets[cur + 1]]
            prev_nbrs = targets[offsets[prev] : offsets[prev + 1]]
            w = _edge_transition_weights(prev, prev_nbrs, cur_nbrs, p, q)
            prob, alias = _alias_build(w)
            lo, hi = self._table_ptr[eid], self._table_ptr[eid + 1]
            self._prob[lo:hi] = prob
            self._alias[lo:hi] = alias

    def step(self, prev: np.ndarray, cur: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        eid = np.searchsorted(self._keys, prev * self._n + cur)
        d = self._deg[cur]
        k = np.minimum((rng.random(len(cur)) * d).astype(np.int64), d - 1)
        flat = self._table_ptr[eid] + k
        take = rng.random(len(cur)) < self._prob[flat]
        choice = np.where(take, k, self._alias[flat])
        return self._targets[self._offsets[cur] + choice]


def biased_walks(g: DeviceSharingGraph, config: Node2vecConfig) -> list[list[int]]:
    """walks_per_node truncated walks from every node; deterministic per seed.

    Walks from isolated nodes stop immediately. With return_param and
    inout_param both 1 every step is a uniform neighbor choice.
    """
    if g.num_nodes == 0:
        raise ValueError("graph has no nodes")
    rng = np.random.default_rng(config.seed)
    offsets, targets = g.csr()
    deg = np.diff(offsets)
    n = g.num_nodes

    starts = np.tile(np.arange(n), config.walks_per_node)
    paths = np.full((len(starts), config.walk_length), -1, dtype=np.int64)
    paths[:, 0] = starts

    uniform = config.return_param == 1.0 and config.inout_param == 1.0
    sampler = None if uniform else _BiasedSampler(g, config.return_param, config.inout_param)

    active = np.flatnonzero(deg[starts] > 0)
    if config.walk_length > 1 and len(active):
        cur = starts[active]
        k = np.minimum((rng.random(len(cur)) * deg[cur]).astype(np.int64), deg[cur] - 1)
        nxt = targets[offsets[cur] + k]
        paths[active, 1] = nxt
        prev, cur = cur, nxt
        for step in range(2, config.walk_length):
            if uniform:
                k = np.minimum((rng.random(len(cur)) * deg[cur]).astype(np.int64), deg[cur] - 1)
                nxt = targets[offsets[cur] + k]
            else:
                nxt = sampler.step(prev, cur, rng)
            paths[active, step] = nxt
            prev, cur = cur, nxt

    return [[int(v) for v in row[row >= 0]] for row in paths]


@dataclass
class Embeddings:
    """Per-node vectors plus the mean per-pair skip-gram loss over each epoch's steps."""

    vectors: np.ndarray
    epoch_losses: list[float]

    def __getitem__(self, node: int) -> np.ndarray:
        return self.vectors[node]

    @property
    def dimensions(self) -> int:
        return int(self.vectors.shape[1])


def _walk_pairs(walks: Sequence[Sequence[int]], window: int) -> tuple[np.ndarray, np.ndarray]:
    longest = max(len(walk) for walk in walks)
    padded = np.full((len(walks), longest), -1, dtype=np.int64)
    for i, walk in enumerate(walks):
        padded[i, : len(walk)] = walk
    centers: list[np.ndarray] = []
    contexts: list[np.ndarray] = []
    for off in range(1, window + 1):
        if off >= longest:
            break
        a = padded[:, :-off].ravel()
        b = padded[:, off:].ravel()
        ok = (a >= 0) & (b >= 0)
        centers.append(a[ok])
        contexts.append(b[ok])
        centers.append(b[ok])
        contexts.append(a[ok])
    if not centers:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(centers), np.concatenate(contexts)


class _PairTable(NamedTuple):
    """Distinct window pairs weighted by count / total pairs, and each center's summed weight.

    center_keys and context_keys are the pairs' flat node*d+dim scatter keys.
    """

    center: np.ndarray
    context: np.ndarray
    weight: np.ndarray
    centers: np.ndarray
    center_weight: np.ndarray
    center_keys: np.ndarray
    context_keys: np.ndarray


def _flat_keys(index: np.ndarray, d: int) -> np.ndarray:
    return (index[:, None] * d + np.arange(d)).ravel()


def _scatter_rows(keys: np.ndarray, rows: np.ndarray, n_nodes: int) -> np.ndarray:
    """(n_nodes, d) sums of rows grouped by node, as one flat bincount over node*d+dim keys."""
    d = rows.shape[1]
    return np.bincount(keys, weights=rows.ravel(), minlength=n_nodes * d).reshape(n_nodes, d)


def _pair_table(
    walks: Sequence[Sequence[int]], window: int, n_nodes: int, d: int
) -> _PairTable | None:
    """Count the window pairs once; None when the walks hold no pair."""
    raw_centers, raw_contexts = _walk_pairs(walks, window)
    if len(raw_centers) == 0:
        return None
    keys, counts = np.unique(raw_centers * n_nodes + raw_contexts, return_counts=True)
    weight = counts / len(raw_centers)
    center = keys // n_nodes
    context = keys % n_nodes
    mass = np.bincount(center, weights=weight, minlength=n_nodes)
    centers = np.flatnonzero(mass)
    return _PairTable(
        center, context, weight, centers, mass[centers], _flat_keys(center, d), _flat_keys(context, d)
    )


def _sgns_loss_grad(
    w_center: np.ndarray, w_context: np.ndarray, pairs: _PairTable, negatives: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted SGNS loss and its gradients with respect to both tables.

    Each distinct pair (c, o) adds weight * softplus(-u_c . v_o). Row i of
    negatives holds the draws for pairs.centers[i], each adding
    center_weight[i] * softplus(u_c . v_neg). This is the per-pair loss
    averaged over every raw pair, with each pair's negatives shared by all
    pairs of its center.
    """
    n, d = w_center.shape
    u_pair = w_center[pairs.center]
    v_pair = w_context[pairs.context]
    s_pos = np.einsum("bd,bd->b", u_pair, v_pair)
    u = w_center[pairs.centers]
    v_neg = w_context[negatives]
    s_neg = np.einsum("cd,ckd->ck", u, v_neg)
    loss = float(
        pairs.weight @ np.logaddexp(0.0, -s_pos)
        + pairs.center_weight @ np.logaddexp(0.0, s_neg).sum(axis=1)
    )
    g_pos = (pairs.weight * (sigmoid(s_pos) - 1.0))[:, None]
    g_neg = pairs.center_weight[:, None] * sigmoid(s_neg)
    # the gathered rows are not needed after this, so scale them in place
    d_center = _scatter_rows(pairs.center_keys, np.multiply(v_pair, g_pos, out=v_pair), n)
    d_center[pairs.centers] += np.einsum("ck,ckd->cd", g_neg, v_neg)
    d_context = _scatter_rows(pairs.context_keys, np.multiply(u_pair, g_pos, out=u_pair), n)
    d_context += _scatter_rows(
        _flat_keys(negatives.ravel(), d), (g_neg[..., None] * u[:, None, :]).reshape(-1, d), n
    )
    return loss, d_center, d_context


def train_embeddings(
    walks: Sequence[Sequence[int]], config: Node2vecConfig, n_nodes: int | None = None
) -> Embeddings:
    """Skip-gram with negative sampling over walk co-occurrence windows.

    The window pairs are counted once; each epoch then takes STEPS_PER_EPOCH
    full-batch Adam steps of size step_size on the per-pair loss averaged over
    all raw pairs. Every step draws negative_samples negatives per distinct
    center from the unigram^0.75 distribution of walk tokens, each weighted by
    the center's share of the pairs. epoch_losses holds the mean loss over
    each epoch's steps.
    """
    if not walks:
        raise ValueError("walks must be nonempty")
    if n_nodes is None:
        n_nodes = 1 + max(max(w) for w in walks if w)
    rng = np.random.default_rng(config.seed)
    d = config.dimensions
    w_center = rng.uniform(-0.5 / d, 0.5 / d, size=(n_nodes, d))
    w_context = np.zeros((n_nodes, d))

    pairs = _pair_table(walks, config.window, n_nodes, d)
    if pairs is None:
        return Embeddings(w_center, [])

    tokens = np.bincount(
        np.concatenate([np.asarray(w, dtype=np.int64) for w in walks]), minlength=n_nodes
    )
    noise_prob, noise_alias = _alias_build(tokens**0.75)
    draws = (len(pairs.centers), config.negative_samples)

    params = (w_center, w_context)
    moments = [np.zeros_like(w) for w in params]
    squares = [np.zeros_like(w) for w in params]
    step = 0
    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        total = 0.0
        for _ in range(STEPS_PER_EPOCH):
            k = np.minimum((rng.random(draws) * n_nodes).astype(np.int64), n_nodes - 1)
            negatives = np.where(rng.random(draws) < noise_prob[k], k, noise_alias[k])
            loss, *grads = _sgns_loss_grad(w_center, w_context, pairs, negatives)
            total += loss
            step += 1
            for w, grad, m, v in zip(params, grads, moments, squares):
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * grad
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * grad**2
                m_hat = m / (1.0 - ADAM_BETA1**step)
                v_hat = v / (1.0 - ADAM_BETA2**step)
                w -= config.step_size * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        epoch_losses.append(total / STEPS_PER_EPOCH)
    return Embeddings(w_center, epoch_losses)


def save_embeddings(emb: Embeddings, g: DeviceSharingGraph, path: str) -> None:
    """TSV of node external id and vector, accounts and devices alike."""
    row = "%s" + "\t%.17g" * emb.vectors.shape[1] + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(row % (node.external_id, *values) for node, values in zip(g.nodes, emb.vectors.tolist()))


def load_embeddings(path: str, g: DeviceSharingGraph) -> Embeddings:
    by_id = {nd.external_id: nd.index for nd in g.nodes}
    vectors: np.ndarray | None = None
    seen = np.zeros(g.num_nodes, dtype=bool)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh.read().splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if parts[0] not in by_id:
                raise ValueError(f"{path}:{lineno}: unknown node id {parts[0]!r}")
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric embedding value") from None
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}:{lineno}: non-finite embedding value")
            if vectors is None:
                vectors = np.zeros((g.num_nodes, len(vec)))
            if len(vec) != vectors.shape[1]:
                raise ValueError(f"{path}:{lineno}: inconsistent embedding width")
            idx = by_id[parts[0]]
            vectors[idx] = vec
            seen[idx] = True
    if vectors is None or not seen.all():
        raise ValueError(f"{path}: embeddings missing for some graph nodes")
    return Embeddings(vectors, [])


def embed_concat_fit(
    ds: LabeledDataset,
    n2v_config: Node2vecConfig,
    gbdt_config: GBDTConfig,
    negative_sample_rate: float = 0.25,
) -> tuple[GBDTModel, Embeddings]:
    """Fit a GBDT on [embedding, features] rows with the shared label sampling.

    The rows are train.training_rows at negative_sample_rate, drawn from the
    GBDT seed: positives, then negatives. Returns the fitted model along with
    the embeddings it consumed.
    """
    positives, negatives = training_rows(
        ds, negative_sample_rate, np.random.default_rng(gbdt_config.seed)
    )
    walks = biased_walks(ds.graph, n2v_config)
    emb = train_embeddings(walks, n2v_config, n_nodes=ds.graph.num_nodes)

    rows = np.concatenate([positives, negatives])
    x = np.hstack([emb.vectors[ds.graph.account_indices()[rows]], ds.features[rows]])
    y = np.repeat([1.0, 0.0], [len(positives), len(negatives)])
    model = gbdt_fit(x, y, gbdt_config)
    return model, emb
