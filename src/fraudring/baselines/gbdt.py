"""Gradient-boosted trees with logistic loss, written directly on numpy.

Split structure is searched greedily over exact sorted feature values on a
row/feature subsample each round; leaf values are then a single Newton step
computed on every training row, which keeps the full-data training loss
nonincreasing at small learning rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..geniepath import sigmoid
from ..graph import _open_new, _read_lines

L2_LAMBDA = 1.0


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


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class GBDTModel:
    base_score: float
    learning_rate: float
    n_features: int
    trees: list[_Node]
    # Fit-time traces, not serialized: full-data loss after each round and the
    # feature subset each round was allowed to split on.
    train_loss_history: list[float] = field(default_factory=list)
    feature_subsets: list[np.ndarray] = field(default_factory=list)


def _best_split(
    x: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    feats: np.ndarray,
    min_leaf: int,
) -> tuple[float, int, float] | None:
    """Highest-gain (gain, feature, threshold) over all features at once, or None.

    Ties go to the lowest cut position within a feature, then to the earliest
    feature in feats.
    """
    g_rows = g[rows]
    h_rows = h[rows]
    g_total = g_rows.sum()
    h_total = h_rows.sum()
    parent = g_total**2 / (h_total + L2_LAMBDA)
    block = x[rows[:, None], feats]
    order = np.argsort(block, axis=0, kind="stable")
    xs = np.take_along_axis(block, order, axis=0)
    gl = np.cumsum(g_rows[order], axis=0)[:-1]
    hl = np.cumsum(h_rows[order], axis=0)[:-1]
    # a cut after position i keeps sorted rows 0..i on the left
    n_left = np.arange(1, len(rows))[:, None]
    valid = (xs[:-1] < xs[1:]) & (n_left >= min_leaf) & (len(rows) - n_left >= min_leaf)
    gains = 0.5 * (
        gl**2 / (hl + L2_LAMBDA) + (g_total - gl) ** 2 / (h_total - hl + L2_LAMBDA) - parent
    )
    gains[~valid] = -np.inf
    cut = np.argmax(gains, axis=0)
    col_gains = gains[cut, np.arange(len(feats))]
    j = int(np.argmax(col_gains))
    if not col_gains[j] > 0.0:
        return None
    thr = 0.5 * (xs[cut[j], j] + xs[cut[j] + 1, j])
    return float(col_gains[j]), int(feats[j]), float(thr)


def _build_tree(
    x: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    feats: np.ndarray,
    depth: int,
    config: GBDTConfig,
) -> _Node:
    if depth >= config.max_depth or len(rows) < 2 * config.min_samples_leaf:
        return _Node()
    best = _best_split(x, g, h, rows, feats, config.min_samples_leaf)
    if best is None:
        return _Node()
    _, f, thr = best
    mask = x[rows, f] < thr
    node = _Node(feature=f, threshold=thr)
    node.left = _build_tree(x, g, h, rows[mask], feats, depth + 1, config)
    node.right = _build_tree(x, g, h, rows[~mask], feats, depth + 1, config)
    return node


def _newton_leaf_values(
    node: _Node, x: np.ndarray, rows: np.ndarray, g: np.ndarray, h: np.ndarray, out: np.ndarray
) -> None:
    """Set each leaf to -G/(H+lambda) over the full-data rows routed to it."""
    if node.is_leaf:
        node.value = float(-g[rows].sum() / (h[rows].sum() + L2_LAMBDA))
        out[rows] = node.value
        return
    mask = x[rows, node.feature] < node.threshold
    _newton_leaf_values(node.left, x, rows[mask], g, h, out)
    _newton_leaf_values(node.right, x, rows[~mask], g, h, out)


def gbdt_fit(x: np.ndarray, y: np.ndarray, config: GBDTConfig) -> GBDTModel:
    """Fit the boosted ensemble; deterministic for a fixed config seed."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError(f"need x (n, p) and y (n,); got {x.shape} and {y.shape}")
    n, p = x.shape
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == n:
        raise ValueError("training labels contain a single class; nothing to boost")

    base = math.log(n_pos / (n - n_pos))
    margins = np.full(n, base)
    rng = np.random.default_rng(config.seed)
    model = GBDTModel(base, config.learning_rate, p, [])

    n_rows = max(1, int(round(config.row_sample_rate * n)))
    n_feats = max(1, math.ceil(config.feature_sample_rate * p))
    for _ in range(config.n_trees):
        prob = sigmoid(margins)
        g = prob - y
        h = prob * (1.0 - prob)
        rows = np.sort(rng.choice(n, size=n_rows, replace=False))
        feats = np.sort(rng.choice(p, size=n_feats, replace=False))
        root = _build_tree(x, g, h, rows, feats, 0, config)
        contribution = np.zeros(n)
        _newton_leaf_values(root, x, np.arange(n), g, h, contribution)
        margins += config.learning_rate * contribution
        model.trees.append(root)
        model.feature_subsets.append(feats)
        model.train_loss_history.append(float(np.logaddexp(0.0, (1.0 - 2.0 * y) * margins).mean()))
    return model


def _tree_predict_batch(node: _Node, x: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    if node.is_leaf:
        out[rows] = node.value
        return
    mask = x[rows, node.feature] < node.threshold
    _tree_predict_batch(node.left, x, rows[mask], out)
    _tree_predict_batch(node.right, x, rows[~mask], out)


def gbdt_predict_batch(model: GBDTModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ValueError(f"feature matrix shape {x.shape} does not match model's {model.n_features} features")
    margins = np.full(x.shape[0], model.base_score)
    rows = np.arange(x.shape[0])
    scratch = np.zeros(x.shape[0])
    for tree in model.trees:
        _tree_predict_batch(tree, x, rows, scratch)
        margins += model.learning_rate * scratch
    return sigmoid(margins)


def gbdt_predict(model: GBDTModel, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n_features,):
        raise ValueError(f"feature vector shape {x.shape} does not match model's {model.n_features} features")
    return float(gbdt_predict_batch(model, x[None, :])[0])


MODEL_HEADER = "gbdt-model v1"


def _write_preorder(node: _Node, lines: list[str]) -> None:
    if node.is_leaf:
        lines.append(f"leaf {node.value:.17g}")
        return
    lines.append(f"split {node.feature} {node.threshold:.17g}")
    _write_preorder(node.left, lines)
    _write_preorder(node.right, lines)


def _count_nodes(node: _Node) -> int:
    if node.is_leaf:
        return 1
    return 1 + _count_nodes(node.left) + _count_nodes(node.right)


def save_gbdt(model: GBDTModel, path: str) -> None:
    lines = [
        MODEL_HEADER,
        f"base_score {model.base_score:.17g}",
        f"learning_rate {model.learning_rate:.17g}",
        f"n_features {model.n_features}",
        f"n_trees {len(model.trees)}",
    ]
    for i, tree in enumerate(model.trees):
        lines.append(f"tree {i} {_count_nodes(tree)}")
        _write_preorder(tree, lines)
    lines.append("end")
    with _open_new(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_gbdt(path: str) -> GBDTModel:
    raw = _read_lines(path)

    def fail(lineno: int, message: str) -> ModelFormatError:
        return ModelFormatError(f"{path}:{lineno}: {message}")

    def scalar(lineno: int, key: str, parse) -> float:
        if lineno > len(raw):
            raise fail(lineno, f"missing {key}")
        parts = raw[lineno - 1].split()
        if len(parts) != 2 or parts[0] != key:
            raise fail(lineno, f"expected '{key} <value>', got {raw[lineno - 1]!r}")
        try:
            return parse(parts[1])
        except ValueError:
            raise fail(lineno, f"bad {key} value {parts[1]!r}") from None

    if not raw or raw[0] != MODEL_HEADER:
        raise fail(1, f"expected header {MODEL_HEADER!r}")
    base = scalar(2, "base_score", float)
    lr = scalar(3, "learning_rate", float)
    n_features = int(scalar(4, "n_features", int))
    n_trees = int(scalar(5, "n_trees", int))

    lineno = 5
    trees: list[_Node] = []
    for i in range(n_trees):
        lineno += 1
        if lineno > len(raw):
            raise fail(lineno, f"missing tree {i}")
        parts = raw[lineno - 1].split()
        if len(parts) != 3 or parts[0] != "tree" or parts[1] != str(i):
            raise fail(lineno, f"expected 'tree {i} <n_nodes>', got {raw[lineno - 1]!r}")
        try:
            n_nodes = int(parts[2])
        except ValueError:
            raise fail(lineno, f"bad node count {parts[2]!r} for tree {i}") from None

        def read_node() -> _Node:
            nonlocal lineno
            lineno += 1
            if lineno > len(raw):
                raise fail(lineno, f"tree {i} is truncated")
            fields = raw[lineno - 1].split()
            if len(fields) == 2 and fields[0] == "leaf":
                try:
                    value = float(fields[1])
                except ValueError:
                    raise fail(lineno, f"bad leaf value {fields[1]!r}") from None
                return _Node(value=value)
            if len(fields) == 3 and fields[0] == "split":
                try:
                    feature = int(fields[1])
                    threshold = float(fields[2])
                except ValueError:
                    raise fail(lineno, f"bad split line {raw[lineno - 1]!r}") from None
                if not (0 <= feature < n_features):
                    raise fail(lineno, f"split feature {feature} out of range")
                node = _Node(feature=feature, threshold=threshold)
                node.left = read_node()
                node.right = read_node()
                return node
            raise fail(lineno, f"bad node line {raw[lineno - 1]!r}")

        root = read_node()
        if _count_nodes(root) != n_nodes:
            raise fail(lineno, f"tree {i} has {_count_nodes(root)} nodes, header says {n_nodes}")
        trees.append(root)

    lineno += 1
    if lineno > len(raw) or raw[lineno - 1] != "end":
        raise fail(lineno, "missing 'end' terminator")
    return GBDTModel(base, lr, n_features, trees)
