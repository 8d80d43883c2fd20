"""Per-account feature vectors and rule-generated risk tags, with normalization and splits."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .graph import DeviceSharingGraph, _kept_nodes, component_labels, load_graph

GRAPH_FILE = "graph.tsv"
FEATURES_FILE = "features.tsv"
GROUND_TRUTH_FILE = "ground_truth.tsv"
CLAIMS_FILE = "claims.tsv"
LOGINS_FILE = "logins.tsv"


class FeatureFormatError(ValueError):
    """Malformed features or ground-truth file."""


class Tag(Enum):
    HIGH_RISK = "HIGH_RISK"
    NO_OBSERVABLE_RISK = "NO_OBSERVABLE_RISK"


@dataclass
class LabeledDataset:
    """Graph plus per-account columns; row r describes account graph.account_indices()[r].

    features is (n_accounts, P); high_risk holds the rule tags, the training
    signal; is_test marks the Test split. truth exists only for synthetic
    data and is consumed exclusively by evaluation.
    """

    graph: DeviceSharingGraph
    features: np.ndarray
    high_risk: np.ndarray
    is_test: np.ndarray
    truth: np.ndarray | None = None

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])


def _account_rows(graph: DeviceSharingGraph) -> dict[str, int]:
    """Account external id -> dataset row."""
    return {graph.nodes[int(a)].external_id: r for r, a in enumerate(graph.account_indices())}


def check_dataset(ds: LabeledDataset) -> None:
    """Validate dataset invariants; raises ValueError on violation."""
    n = len(ds.graph.account_indices())
    if ds.features.ndim != 2 or len(ds.features) != n:
        raise ValueError(f"features must be an ({n}, P) matrix, got shape {ds.features.shape}")
    columns = {"high_risk": ds.high_risk, "is_test": ds.is_test, "truth": ds.truth}
    for name, col in columns.items():
        if col is not None and (col.shape != (n,) or col.dtype != bool):
            raise ValueError(f"{name} must be a boolean column of {n} rows, got {col.dtype} {col.shape}")


def train_feature_stats(ds: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension (mean, population std) computed on the Train split only."""
    x = ds.features[~ds.is_test]
    if not len(x):
        raise ValueError("cannot compute feature statistics: Train split is empty")
    return x.mean(axis=0), x.std(axis=0)


def normalize_features(ds: LabeledDataset) -> LabeledDataset:
    """Standardize every feature dimension using Train-split statistics.

    Train-split columns come out with mean 0 and std 1; zero-variance
    columns map to all zeros. Test rows are transformed with the Train
    statistics. Returns a new dataset; the input is untouched.
    """
    mean, std = train_feature_stats(ds)
    zero_var = std == 0.0
    x = (ds.features - mean) / np.where(zero_var, 1.0, std)
    x[:, zero_var] = 0.0
    return replace(ds, features=x)


def split_train_test(ds: LabeledDataset, test_fraction: float, seed: int) -> LabeledDataset:
    """Stratified random split: each tag class contributes floor(size * fraction) Test accounts."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must lie in (0, 1)")
    is_test = np.zeros(len(ds.high_risk), dtype=bool)
    rng = np.random.default_rng(seed)
    for tag, tagged in ((Tag.HIGH_RISK, True), (Tag.NO_OBSERVABLE_RISK, False)):
        members = np.flatnonzero(ds.high_risk == tagged)
        if len(members) < 2:
            raise ValueError(f"cannot stratify: tag {tag.value} has {len(members)} account(s)")
        n_test = math.floor(len(members) * test_fraction)
        is_test[rng.permutation(members)[:n_test]] = True
    return replace(ds, is_test=is_test)


def prune_dataset(ds: LabeledDataset) -> LabeledDataset:
    """Drop the components with fewer than two accounts from the graph, and those accounts' rows.

    Pruning keeps the relative node order, so the kept rows stay aligned.
    """
    keep = _kept_nodes(ds.graph, component_labels(ds.graph))
    rows = keep[ds.graph.account_indices()]
    out = LabeledDataset(
        ds.graph.subgraph(keep),
        ds.features[rows],
        ds.high_risk[rows],
        ds.is_test[rows],
        None if ds.truth is None else ds.truth[rows],
    )
    check_dataset(out)
    return out


def save_features(ds: LabeledDataset, path: str) -> None:
    """Write the features TSV keyed by account external id, values at 9 significant digits."""
    header = "account_id\ttag\t" + "\t".join(f"f{j}" for j in range(ds.feature_dim))
    lines = [header]
    for ext, tagged, row in zip(_account_rows(ds.graph), ds.high_risk, ds.features):
        tag = Tag.HIGH_RISK if tagged else Tag.NO_OBSERVABLE_RISK
        values = "\t".join(f"{v:.9g}" for v in row)
        lines.append(f"{ext}\t{tag.value}\t{values}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _missing_rows(path: str, graph: DeviceSharingGraph, seen: np.ndarray) -> FeatureFormatError:
    missing = [ext for ext, ok in zip(_account_rows(graph), seen) if not ok]
    return FeatureFormatError(f"{path}: no row for {len(missing)} graph account(s), e.g. {missing[:5]}")


def load_features(path: str, graph: DeviceSharingGraph) -> LabeledDataset:
    """Load a features TSV against an existing graph; every account must get one finite row.

    The split starts as all-Train.
    """
    row_of = _account_rows(graph)
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise FeatureFormatError(f"{path}:1: empty features file")
    header = raw[0].split("\t")
    if len(header) < 3 or header[0] != "account_id" or header[1] != "tag":
        raise FeatureFormatError(f"{path}:1: bad header {raw[0]!r}")
    p = len(header) - 2

    features = np.zeros((len(row_of), p))
    high_risk = np.zeros(len(row_of), dtype=bool)
    seen = np.zeros(len(row_of), dtype=bool)
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != p + 2:
            raise FeatureFormatError(f"{path}:{lineno}: expected {p + 2} fields, got {len(parts)}")
        ext_id = parts[0]
        if ext_id not in row_of:
            raise FeatureFormatError(f"{path}:{lineno}: unknown account id {ext_id!r}")
        try:
            tag = Tag(parts[1])
        except ValueError:
            raise FeatureFormatError(f"{path}:{lineno}: unknown tag {parts[1]!r}") from None
        try:
            values = [float(v) for v in parts[2:]]
        except ValueError:
            raise FeatureFormatError(f"{path}:{lineno}: non-numeric feature value") from None
        if not all(map(math.isfinite, values)):
            raise FeatureFormatError(f"{path}:{lineno}: non-finite feature value")
        r = row_of[ext_id]
        if seen[r]:
            raise FeatureFormatError(f"{path}:{lineno}: duplicate row for account {ext_id!r}")
        seen[r] = True
        features[r] = values
        high_risk[r] = tag is Tag.HIGH_RISK
    if not seen.all():
        raise _missing_rows(path, graph, seen)
    return LabeledDataset(graph, features, high_risk, np.zeros(len(row_of), dtype=bool))


def save_ground_truth(ds: LabeledDataset, path: str) -> None:
    if ds.truth is None:
        raise ValueError("dataset has no ground truth to save")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("account_id\tis_fraud\n")
        for ext, flag in zip(_account_rows(ds.graph), ds.truth):
            fh.write(f"{ext}\t{1 if flag else 0}\n")


def load_ground_truth(path: str, graph: DeviceSharingGraph) -> np.ndarray:
    """Boolean fraud column over the graph's accounts; every account must get one row."""
    row_of = _account_rows(graph)
    truth = np.zeros(len(row_of), dtype=bool)
    seen = np.zeros(len(row_of), dtype=bool)
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0] != "account_id\tis_fraud":
        raise FeatureFormatError(f"{path}:1: bad ground-truth header")
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FeatureFormatError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        if parts[0] not in row_of:
            raise FeatureFormatError(f"{path}:{lineno}: unknown account id {parts[0]!r}")
        if parts[1] not in ("0", "1"):
            raise FeatureFormatError(f"{path}:{lineno}: is_fraud must be 0 or 1, got {parts[1]!r}")
        r = row_of[parts[0]]
        if seen[r]:
            raise FeatureFormatError(f"{path}:{lineno}: duplicate row for account {parts[0]!r}")
        seen[r] = True
        truth[r] = parts[1] == "1"
    if not seen.all():
        raise _missing_rows(path, graph, seen)
    return truth


def load_dataset(directory: str) -> LabeledDataset:
    """Load graph + features (+ ground truth when present) from a dataset directory.

    The split starts as all-Train; apply split_train_test afterwards.
    """
    graph = load_graph(os.path.join(directory, GRAPH_FILE))
    ds = load_features(os.path.join(directory, FEATURES_FILE), graph)
    gt_path = os.path.join(directory, GROUND_TRUTH_FILE)
    if os.path.exists(gt_path):
        ds.truth = load_ground_truth(gt_path, graph)
    return ds
