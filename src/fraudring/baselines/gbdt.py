"""Gradient-boosted trees with logistic loss, written directly on numpy.

Split structure is searched greedily over exact sorted feature values on a
row/feature subsample each round, read through each column's order: sorted
once per fit, then partitioned down the tree. Leaf values are then a single
Newton step computed on every training row, which keeps the full-data
training loss nonincreasing at small learning rates. An ensemble is one flat
preorder node table, so prediction routes every row through every tree at
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..geniepath import sigmoid
from ..textio import open_new, read_lines

L2_LAMBDA = 1.0
# (tree, row) cells gbdt_predict_batch routes together, at least one row: each work array
# takes at most 256 KB, so a level's arrays stay in cache and are reused by malloc.
BLOCK_CELLS = 2**15


class ModelFormatError(ValueError):
    """Malformed model file."""


@dataclass
class GBDTConfig:
    n_trees: int = 500
    max_depth: int = 5
    row_sample_rate: float = 0.6
    feature_sample_rate: float = 0.7
    learning_rate: float = 0.009
    min_samples_leaf: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        for name, rate in (("row_sample_rate", self.row_sample_rate), ("feature_sample_rate", self.feature_sample_rate)):
            if not (0.0 < rate <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1]")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class GBDTModel:
    """The trees as one preorder node table; tree t's nodes run from roots[t] to the next root.

    Node k sends rows with x[feature[k]] < threshold[k] to k + 1 and the others
    to right[k]. A leaf scores value[k]; its feature is -1, its threshold -inf
    and right[k] == k, so a row that reached it stays there.
    """

    base_score: float
    learning_rate: float
    n_features: int
    roots: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    feature: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    threshold: np.ndarray = field(default_factory=lambda: np.zeros(0))
    value: np.ndarray = field(default_factory=lambda: np.zeros(0))
    right: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    # Fit-time traces, not serialized: full-data loss after each round and the
    # feature subset each round was allowed to split on.
    train_loss_history: list[float] = field(default_factory=list)
    feature_subsets: list[np.ndarray] = field(default_factory=list)


def _sorted_rows(order: np.ndarray, rows: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """(F, R) row ids: row i holds rows in feats[i]'s order, from the (p, n) per-column order of the fit.

    order sorts each column stably, so tied values stay in row id order.
    """
    sampled = np.zeros(order.shape[1], dtype=bool)
    sampled[rows] = True
    block = order[feats]
    return block[sampled[block]].reshape(len(feats), len(rows))


def _best_split(
    xt: np.ndarray,
    gh: np.ndarray,
    rows: np.ndarray,
    srt: np.ndarray,
    feats: np.ndarray,
    min_leaf: int,
) -> tuple[float, int, float] | None:
    """Highest-gain (gain, feature, threshold) over all features at once, or None.

    xt is x transposed (p, n) and gh stacks g and h as (2, n). rows are the
    node's rows, ascending; srt[i] holds them ordered by x[:, feats[i]], ties
    by row id, as a stable sort of the node's block would order them. Ties go
    to the lowest cut position within a feature, then to the earliest feature
    in feats. The threshold is the midpoint of the two values either side of
    the cut, or the upper one where the midpoint rounds onto the lower value
    or overflows.
    """
    # a cut after position i keeps sorted rows 0..i on the left; both sides need min_leaf rows
    lo, hi = min_leaf - 1, len(rows) - min_leaf
    if hi <= lo:
        return None
    # two 1-D pairwise sums: a sum along the rows of gh[:, rows] adds in another order
    g_total = gh[0, rows].sum()
    h_total = gh[1, rows].sum()
    parent = g_total**2 / (h_total + L2_LAMBDA)
    xs = np.take(xt, srt + feats[:, None] * xt.shape[1])
    gl, hl = np.cumsum(np.take(gh, srt, axis=1), axis=-1)
    gl, hl = gl[:, lo:hi], hl[:, lo:hi]
    gains = 0.5 * (
        gl**2 / (hl + L2_LAMBDA) + (g_total - gl) ** 2 / (h_total - hl + L2_LAMBDA) - parent
    )
    gains[~(xs[:, lo:hi] < xs[:, lo + 1 : hi + 1])] = -np.inf
    cut = np.argmax(gains, axis=1)
    col_gains = gains[np.arange(len(feats)), cut]
    j = int(np.argmax(col_gains))
    if not col_gains[j] > 0.0:
        return None
    below, above = float(xs[j, lo + cut[j]]), float(xs[j, lo + cut[j] + 1])
    thr = 0.5 * (below + above)
    return float(col_gains[j]), int(feats[j]), thr if below < thr < math.inf else above


def gbdt_fit(x: np.ndarray, y: np.ndarray, config: GBDTConfig) -> GBDTModel:
    """Fit the boosted ensemble; deterministic for a fixed config seed.

    Each column is sorted once; every node splits its parent's sorted lists.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError(f"need x (n, p) and y (n,); got {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    n, p = x.shape
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == n:
        raise ValueError("training labels contain a single class; nothing to boost")

    base = math.log(n_pos / (n - n_pos))
    margins = np.full(n, base)
    rng = np.random.default_rng(config.seed)
    model = GBDTModel(base, config.learning_rate, p)
    nodes: list[list] = []  # [feature, threshold, value, right] in preorder
    roots = []

    n_rows = max(1, int(round(config.row_sample_rate * n)))
    n_feats = max(1, math.ceil(config.feature_sample_rate * p))
    xt = np.ascontiguousarray(x.T)
    order = np.ascontiguousarray(np.argsort(x, axis=0, kind="stable").T)
    gh = np.empty((2, n))
    g, h = gh
    goes_left = np.zeros(n, dtype=bool)  # the current split's side of each of its rows
    contribution = np.zeros(n)
    for _ in range(config.n_trees):
        prob = sigmoid(margins)
        np.subtract(prob, y, out=g)
        np.multiply(prob, 1.0 - prob, out=h)
        rows = np.sort(rng.choice(n, size=n_rows, replace=False))
        feats = np.sort(rng.choice(p, size=n_feats, replace=False))
        roots.append(len(nodes))
        # Preorder growth: sampled rows choose each split, all rows routed to a leaf set its Newton
        # step. Entries: (sampled, their sorted lists, routed, depth, split whose right child it is or -1).
        stack = [(rows, _sorted_rows(order, rows, feats), np.arange(n), 0, -1)]
        while stack:
            rows, srt, routed, depth, parent = stack.pop()
            if parent >= 0:
                nodes[parent][3] = len(nodes)
            best = depth < config.max_depth and _best_split(xt, gh, rows, srt, feats, config.min_samples_leaf)
            if not best:
                value = float(-g[routed].sum() / (h[routed].sum() + L2_LAMBDA))
                contribution[routed] = value
                nodes.append([-1, -math.inf, value, len(nodes)])
                continue
            _, f, thr = best
            mask, routed_mask = xt[f, rows] < thr, xt[f, routed] < thr
            goes_left[rows] = mask
            left = goes_left[srt]  # a stable partition: each child's lists stay sorted
            stack.append((rows[~mask], srt[~left].reshape(n_feats, -1), routed[~routed_mask], depth + 1, len(nodes)))
            stack.append((rows[mask], srt[left].reshape(n_feats, -1), routed[routed_mask], depth + 1, -1))
            nodes.append([f, thr, 0.0, -1])
        margins += config.learning_rate * contribution
        model.feature_subsets.append(feats)
        model.train_loss_history.append(float(np.logaddexp(0.0, (1.0 - 2.0 * y) * margins).mean()))
    model.roots = np.array(roots, dtype=np.int64)
    model.feature, model.threshold, model.value, model.right = map(np.array, zip(*nodes))
    return model


def gbdt_predict_batch(model: GBDTModel, x: np.ndarray) -> np.ndarray:
    """The rows' scores. Each block of rows steps through all trees together, one level per step."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ValueError(f"feature matrix shape {x.shape} does not match model's {model.n_features} features")
    skip = model.right - np.arange(len(model.right)) - 1  # from the left child to the right one; -1 at a leaf
    margins = np.empty(len(x))
    rows = max(1, BLOCK_CELLS // max(1, len(model.roots)))
    for start in range(0, len(x), rows):
        block = x[start : start + rows]
        nodes = np.repeat(model.roots[:, None], len(block), axis=1)  # (trees, rows); a leaf keeps its rows
        cells = np.arange(len(block)) * x.shape[1]
        while ((at := np.take(model.feature, nodes)) >= 0).any():
            at += cells
            go_right = ~(np.take(block.ravel(), at) < np.take(model.threshold, nodes))
            step = np.take(skip, nodes)
            step *= go_right
            step += 1
            nodes += step
        # the base score, then tree by tree as the fit added them: accumulate adds in order
        terms = np.empty((len(nodes) + 1, len(block)))
        terms[0] = model.base_score
        np.multiply(np.take(model.value, nodes), model.learning_rate, out=terms[1:])
        margins[start : start + rows] = np.add.accumulate(terms, axis=0)[-1]
    return sigmoid(margins)


MODEL_HEADER = "gbdt-model v1"


def save_gbdt(model: GBDTModel, path: str) -> None:
    columns = zip(model.feature.tolist(), model.threshold.tolist(), model.value.tolist())
    nodes = [f"split {f} {t:.17g}" if f >= 0 else f"leaf {v:.17g}" for f, t, v in columns]
    lines = [MODEL_HEADER, f"base_score {model.base_score:.17g}", f"learning_rate {model.learning_rate:.17g}",
             f"n_features {model.n_features}", f"n_trees {len(model.roots)}"]
    starts = model.roots.tolist()
    for i, (start, end) in enumerate(zip(starts, starts[1:] + [len(nodes)])):
        lines.append(f"tree {i} {end - start}")
        lines += nodes[start:end]
    lines.append("end")
    with open_new(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_gbdt(path: str) -> GBDTModel:
    """Read what save_gbdt writes; the first bad line in the file raises ModelFormatError naming path:line.

    Each tree's nodes are read in preorder and checked as each is read. A
    stack holds the splits whose right child is still to come; the tree ends
    when it is empty. Nothing after the 'end' line is read.
    """
    raw = read_lines(path, ModelFormatError)

    def fail(lineno: int, message: str) -> ModelFormatError:
        return ModelFormatError(f"{path}:{lineno}: {message}")

    def scalar(lineno: int, key: str, parse, valid, rule: str):
        if lineno > len(raw):
            raise fail(lineno, f"missing {key}")
        parts = raw[lineno - 1].split()
        if len(parts) != 2 or parts[0] != key:
            raise fail(lineno, f"expected '{key} <value>', got {raw[lineno - 1]!r}")
        try:
            value = parse(parts[1])
        except ValueError:
            raise fail(lineno, f"bad {key} value {parts[1]!r}") from None
        if not valid(value):
            raise fail(lineno, f"{key} {rule}, got {parts[1]!r}")
        return value

    if not raw or raw[0] != MODEL_HEADER:
        raise fail(1, f"expected header {MODEL_HEADER!r}")
    base = scalar(2, "base_score", float, math.isfinite, "must be finite")
    lr = scalar(3, "learning_rate", float, math.isfinite, "must be finite")
    n_features = scalar(4, "n_features", int, (1).__le__, "must be >= 1")
    n_trees = scalar(5, "n_trees", int, (0).__le__, "must be >= 0")

    roots, feature, threshold, value, right = [], [], [], [], []
    lineno = 5
    for i in range(n_trees):
        lineno += 1
        if lineno > len(raw):
            raise fail(lineno, f"missing tree {i}")
        parts = raw[lineno - 1].split()
        if len(parts) != 3 or parts[:2] != ["tree", str(i)]:
            raise fail(lineno, f"expected 'tree {i} <n_nodes>', got {raw[lineno - 1]!r}")
        try:
            n_nodes = int(parts[2])
        except ValueError:
            raise fail(lineno, f"bad node count {parts[2]!r} for tree {i}") from None
        roots.append(len(feature))
        stack = [-1]  # for each node still to come: the split whose right child it is, or -1
        while stack:
            parent = stack.pop()
            lineno += 1
            if lineno > len(raw):
                raise fail(lineno, f"tree {i} is truncated")
            k = len(feature)
            if parent >= 0:
                right[parent] = k
            fields = raw[lineno - 1].split()
            if len(fields) == 2 and fields[0] == "leaf":
                try:
                    leaf = float(fields[1])
                except ValueError:
                    raise fail(lineno, f"bad leaf value {fields[1]!r}") from None
                if not math.isfinite(leaf):
                    raise fail(lineno, f"non-finite leaf value {fields[1]!r}")
                feature.append(-1)
                threshold.append(-math.inf)
                value.append(leaf)
                right.append(k)
            elif len(fields) == 3 and fields[0] == "split":
                try:
                    f, thr = int(fields[1]), float(fields[2])
                except ValueError:
                    raise fail(lineno, f"bad split line {raw[lineno - 1]!r}") from None
                if not 0 <= f < n_features:
                    raise fail(lineno, f"split feature {f} out of range")
                if not math.isfinite(thr):
                    raise fail(lineno, f"non-finite split threshold {fields[2]!r}")
                feature.append(f)
                threshold.append(thr)
                value.append(0.0)
                right.append(-1)
                stack += (k, -1)
            else:
                raise fail(lineno, f"bad node line {raw[lineno - 1]!r}")
        if len(feature) - roots[-1] != n_nodes:
            raise fail(lineno, f"tree {i} has {len(feature) - roots[-1]} nodes, header says {n_nodes}")
    lineno += 1
    if lineno > len(raw) or raw[lineno - 1] != "end":
        raise fail(lineno, "missing 'end' terminator")
    return GBDTModel(base, lr, n_features, np.array(roots, dtype=np.int64), np.array(feature, dtype=np.int64),
                     np.array(threshold), np.array(value), np.array(right, dtype=np.int64))
