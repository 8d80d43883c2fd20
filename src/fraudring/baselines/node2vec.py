"""Second-order biased random walks and skip-gram embeddings over the graph.

Walks traverse accounts and devices alike; only account embeddings feed the
downstream classifier, concatenated in front of the account features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, count, repeat
from typing import NamedTuple

import numpy as np

from ..features import LabeledDataset
from ..geniepath import sigmoid
from ..graph import DeviceSharingGraph
from ..textio import open_new, raise_first, read_lines, real_values
from ..train import NumericalError, adam_step, gbdt_training_rows
from .gbdt import GBDTConfig, GBDTModel, gbdt_fit

# Full-batch Adam steps per skip-gram epoch.
STEPS_PER_EPOCH = 50
# Raw window pairs counted together: a block of whole walks holds at most this many, or one walk.
PAIR_BUDGET = 2**18


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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        for name in ("return_param", "inout_param"):
            if 1 / getattr(self, name) == math.inf:
                raise ValueError(f"{name} must have a finite reciprocal")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


def biased_walks(g: DeviceSharingGraph, config: Node2vecConfig) -> np.ndarray:
    """walks_per_node truncated walks from every node; deterministic per seed.

    Returns an int64 (walks x walk_length) array whose row k is a walk from
    node k mod num_nodes. A walk from an isolated node stops immediately: its
    row is -1 after the start. The first step, and every step when
    return_param equals inout_param, is a uniform neighbor choice.
    Otherwise a step from prev to cur weighs 1/p back to prev and 1/q to
    each other neighbor of cur: the graph is bipartite, so none of them is
    adjacent to prev. The walker returns with probability
    1 / (1 + (d - 1) p / q) on one uniform draw, else takes a uniform one of
    the other d - 1 neighbors in CSR order on a second.
    """
    if g.num_nodes == 0:
        raise ValueError("graph has no nodes")
    rng = np.random.default_rng(config.seed)
    offsets, targets = g.csr()
    deg = np.diff(offsets)
    n = g.num_nodes
    p, q = config.return_param, config.inout_param
    if p != q:
        # the two weights times p * q / max(p, q): at most 1, so no sum of them overflows
        back, other = q / max(p, q), p / max(p, q)
        # keys sorted ascending because CSR iterates src blocks in order with sorted targets
        keys = g._sources() * n + targets

    def uniform(d: np.ndarray) -> np.ndarray:
        """One draw per walker: a slot in [0, d)."""
        return np.minimum((rng.random(len(d)) * d).astype(np.int64), d - 1)

    starts = np.tile(np.arange(n), config.walks_per_node)
    paths = np.full((len(starts), config.walk_length), -1, dtype=np.int64)
    paths[:, 0] = starts

    active = np.flatnonzero(deg[starts] > 0)
    prev = cur = starts[active]
    for step in range(1, config.walk_length):
        if step == 1 or p == q:
            k = uniform(deg[cur])
        else:
            d = deg[cur]
            slot = np.searchsorted(keys, cur * n + prev) - offsets[cur]
            returns = rng.random(len(cur)) * (back + (d - 1) * other) <= back
            # a slot among the d - 1 others, skipping prev's; unused when the walker
            # returns, as it always does at d == 1
            k = uniform(d - 1)
            k = np.where(returns, slot, k + (k >= slot))
        prev, cur = cur, targets[offsets[cur] + k]
        paths[active, step] = cur
    return paths


@dataclass
class Embeddings:
    """Per-node vectors plus the mean per-pair skip-gram loss over each epoch's steps."""

    vectors: np.ndarray
    epoch_losses: list[float]

    @property
    def dimensions(self) -> int:
        return int(self.vectors.shape[1])


def _walk_pairs(padded: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) of every forward window pair, step i and step i + off, of int64 walks padded with -1.

    The pairs come offset by offset, each in walk-major order; both arrays are
    filled in place. Every pair also counts reversed, which the caller adds.
    """
    valid = padded >= 0
    # per offset, the steps i and i + off of every pair of live steps, as masks over the flat walks
    masks = []
    for off in range(1, min(window + 1, padded.shape[1])):
        head = np.zeros_like(valid)
        tail = np.zeros_like(valid)
        np.logical_and(valid[:, :-off], valid[:, off:], out=head[:, :-off])
        tail[:, off:] = head[:, :-off]
        masks.append((head.ravel(), tail.ravel(), np.count_nonzero(head)))
    total = sum(k for _, _, k in masks)
    centers = np.empty(total, dtype=np.int64)
    contexts = np.empty(total, dtype=np.int64)
    flat = padded.ravel()
    at = 0
    for head, tail, k in masks:
        np.compress(head, flat, out=centers[at : at + k])
        np.compress(tail, flat, out=contexts[at : at + k])
        at += k
    return centers, contexts


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


def _merge_counts(
    keys: np.ndarray, counts: np.ndarray, new_keys: np.ndarray, new_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted table (keys, counts) with the distinct sorted new_keys' counts added, inserting keys it lacks."""
    at = np.searchsorted(keys, new_keys)
    seen = at < len(keys)
    seen[seen] = keys[at[seen]] == new_keys[seen]
    counts[at[seen]] += new_counts[seen]
    unseen = ~seen
    return np.insert(keys, at[unseen], new_keys[unseen]), np.insert(counts, at[unseen], new_counts[unseen])


def _pair_table(padded: np.ndarray, window: int, n_nodes: int, d: int) -> _PairTable | None:
    """Count the window pairs of the padded walks once, both ways round; None when they hold no pair.

    The walks are taken in blocks of at most PAIR_BUDGET raw pairs (or one
    walk, if it alone holds more). Each block's forward pairs are sorted and
    counted, and merged into the running table twice: as they are, and
    reversed with the same counts. So only one block's forward pairs are ever held.
    """
    # bounds[j]: the raw pairs of the walks before walk j
    bounds = np.zeros(len(padded) + 1, np.int64)
    valid = padded >= 0
    for off in range(1, min(window + 1, padded.shape[1])):
        bounds[1:] += 2 * np.count_nonzero(valid[:, :-off] & valid[:, off:], axis=1)
    del valid
    np.cumsum(bounds, out=bounds)
    total = int(bounds[-1])
    if total == 0:
        return None
    keys, counts = np.empty(0, np.int64), np.empty(0, np.int64)
    start = 0
    while start < len(padded):
        stop = max(start + 1, int(np.searchsorted(bounds, bounds[start] + PAIR_BUDGET, side="right")) - 1)
        block_keys, raw_contexts = _walk_pairs(padded[start:stop], window)
        start = stop
        # the centers become the pair keys in place, sorted and run-length counted
        block_keys *= n_nodes
        block_keys += raw_contexts
        del raw_contexts
        block_keys.sort()
        first = np.ones(len(block_keys), bool)
        np.not_equal(block_keys[1:], block_keys[:-1], out=first[1:])
        firsts = np.flatnonzero(first)
        block_counts = np.diff(np.append(firsts, len(block_keys)))
        block_keys = block_keys[firsts]
        keys, counts = _merge_counts(keys, counts, block_keys, block_counts)
        reversed_keys = block_keys % n_nodes * n_nodes + block_keys // n_nodes
        order = np.argsort(reversed_keys)
        keys, counts = _merge_counts(keys, counts, reversed_keys[order], block_counts[order])
    weight = counts / total
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
    u_pair = np.take(w_center, pairs.center, axis=0)
    v_pair = np.take(w_context, pairs.context, axis=0)
    s_pos = np.einsum("bd,bd->b", u_pair, v_pair)
    u = np.take(w_center, pairs.centers, axis=0)
    v_neg = np.take(w_context, negatives, axis=0)
    s_neg = np.einsum("cd,ckd->ck", u, v_neg)
    # one exp(-|s|) per score array serves softplus(x) = max(x, 0) + log1p(exp(-|x|)) and the sigmoid
    e_pos = np.exp(-np.abs(s_pos))
    e_neg = np.exp(-np.abs(s_neg))
    loss = float(
        pairs.weight @ (np.maximum(-s_pos, 0.0) + np.log1p(e_pos))
        + pairs.center_weight @ (np.maximum(s_neg, 0.0) + np.log1p(e_neg)).sum(axis=1)
    )
    g_pos = (pairs.weight * (sigmoid(s_pos, e_pos) - 1.0))[:, None]
    g_neg = pairs.center_weight[:, None] * sigmoid(s_neg, e_neg)
    # the gathered rows are not needed after this, so scale them in place
    d_center = _scatter_rows(pairs.center_keys, np.multiply(v_pair, g_pos, out=v_pair), n)
    d_center[pairs.centers] += np.einsum("ck,ckd->cd", g_neg, v_neg)
    d_context = _scatter_rows(pairs.context_keys, np.multiply(u_pair, g_pos, out=u_pair), n)
    # the negatives one dimension at a time, each bin summed in (center, draw) order
    for j in range(d):
        d_context[:, j] += np.bincount(negatives.ravel(), (g_neg * u[:, j, None]).ravel(), minlength=n)
    return loss, d_center, d_context


def train_embeddings(walks: np.ndarray, config: Node2vecConfig, n_nodes: int) -> Embeddings:
    """Skip-gram with negative sampling over the window pairs of walks as biased_walks returns them.

    The window pairs are counted once; each epoch then takes STEPS_PER_EPOCH
    full-batch Adam steps of size step_size on the per-pair loss averaged over
    all raw pairs. Every step draws negative_samples negatives per distinct
    center from the unigram^0.75 distribution of walk tokens, each weighted by
    the center's share of the pairs. epoch_losses holds the mean loss over
    each epoch's steps. A non-finite loss, gradient or table raises
    NumericalError.
    """
    if len(walks) == 0:
        raise ValueError("walks must be nonempty")
    rng = np.random.default_rng(config.seed)
    d = config.dimensions
    w_center = rng.uniform(-0.5 / d, 0.5 / d, size=(n_nodes, d))
    w_context = np.zeros((n_nodes, d))

    pairs = _pair_table(walks, config.window, n_nodes, d)
    if pairs is None:
        return Embeddings(w_center, [])

    tokens = np.bincount(walks[walks >= 0], minlength=n_nodes)
    noise_prob, noise_alias = _alias_build(tokens**0.75)
    draws = (len(pairs.centers), config.negative_samples)

    params = (w_center, w_context)
    moments = [np.zeros_like(w) for w in params]
    squares = [np.zeros_like(w) for w in params]
    step = 0
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        total = 0.0
        for _ in range(STEPS_PER_EPOCH):
            k = np.minimum((rng.random(draws) * n_nodes).astype(np.int64), n_nodes - 1)
            negatives = np.where(rng.random(draws) < noise_prob[k], k, noise_alias[k])
            loss, *grads = _sgns_loss_grad(w_center, w_context, pairs, negatives)
            if not math.isfinite(loss) or not all(np.isfinite(grad).all() for grad in grads):
                raise NumericalError(f"non-finite skip-gram loss or gradient at epoch {epoch}")
            total += loss
            step += 1
            for w, grad, m, v in zip(params, grads, moments, squares):
                adam_step(w, grad, m, v, step, config.step_size)
        epoch_losses.append(total / STEPS_PER_EPOCH)
    if not np.isfinite(w_center).all():
        raise NumericalError("non-finite skip-gram embedding after training")
    return Embeddings(w_center, epoch_losses)


def save_embeddings(emb: Embeddings, g: DeviceSharingGraph, path: str) -> None:
    """TSV of node external id and vector, one row per node in node order, accounts and devices alike."""
    row = "%s" + "\t%.17g" * emb.vectors.shape[1] + "\n"
    with open_new(path) as fh:
        fh.writelines(row % (ext, *values) for ext, values in zip(g.ids, emb.vectors.tolist()))


def load_embeddings(path: str, g: DeviceSharingGraph) -> Embeddings:
    """Read the rows save_embeddings writes: the k-th nonblank row is node k's and carries its id.

    The first bad line raises ValueError naming path:line. Within a line the checks go:
    the id, numbers, finiteness, a width other than the first row's.
    """
    rows = list(filter(str.strip, read_lines(path)))
    widths = np.fromiter(map(str.count, rows, repeat("\t")), np.int64, len(rows))
    fields = np.array("\t".join(rows).split("\t") if rows else [], dtype=object)
    starts = np.cumsum(widths + 1) - (widths + 1)
    ids = fields[starts].tolist()
    errors: list[tuple[int, int, str]] = []
    value_rows = np.repeat(np.arange(len(ids)), widths)
    values = real_values(np.delete(fields, starts).tolist(), value_rows, "embedding", errors)
    k = next(compress(count(), map(str.__ne__, ids, g.ids)), min(len(ids), g.num_nodes))
    if k < len(ids) and ids[k] not in g.ids:
        errors.append((k, 0, f"unknown node id {ids[k]!r}"))
    elif k < len(ids):
        expected = f"node {k} is {g.ids[k]!r}" if k < g.num_nodes else f"the graph has {k} nodes"
        errors.append((k, 0, f"row for node id {ids[k]!r} out of place; {expected}"))
    if (wrong := widths != widths[:1]).any():
        errors.append((int(np.argmax(wrong)), 5, "inconsistent embedding width"))
    raise_first(path, errors, ValueError)
    if not ids or len(ids) < g.num_nodes:
        raise ValueError(f"{path}: embeddings missing for some graph nodes")
    return Embeddings(values.reshape(len(ids), int(widths[0])), [])


def concat_rows(emb: Embeddings, ds: LabeledDataset, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
    """The node2vec-gbdt input of the dataset rows, every row by default: [account embedding, features]."""
    return np.hstack([emb.vectors[ds.graph.account_indices()[rows]], ds.features[rows]])


def embed_concat_fit(
    ds: LabeledDataset,
    n2v_config: Node2vecConfig,
    gbdt_config: GBDTConfig,
    negative_sample_rate: float,
) -> tuple[GBDTModel, Embeddings]:
    """Fit a GBDT on [embedding, features] rows with the shared label sampling.

    The rows are train.gbdt_training_rows at negative_sample_rate, drawn from
    the GBDT seed: positives, then negatives. Returns the fitted model along
    with the embeddings it consumed.
    """
    rows, y = gbdt_training_rows(ds, negative_sample_rate, gbdt_config.seed)
    walks = biased_walks(ds.graph, n2v_config)
    emb = train_embeddings(walks, n2v_config, ds.graph.num_nodes)

    model = gbdt_fit(concat_rows(emb, ds, rows), y, gbdt_config)
    return model, emb
