"""Per-account feature vectors and rule-generated risk tags, with normalization and splits."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from enum import Enum
from itertools import compress, repeat

import numpy as np

from .graph import DeviceSharingGraph, component_labels, kept_nodes, load_graph
from .textio import first_outside, open_new, raise_first, read_lines, real_values, split_rows

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
    return {ext: r for r, ext in enumerate(compress(graph.ids, graph.is_account.tolist()))}


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
    if seed < 0:
        raise ValueError("seed must be >= 0")
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
    When every node is kept, the checked input itself comes back.
    """
    keep = kept_nodes(ds.graph, component_labels(ds.graph))
    if keep.all():
        check_dataset(ds)
        return ds
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
    row_format = "\t".join(["%s", "%s"] + ["%.9g"] * ds.feature_dim)
    tags = (Tag.NO_OBSERVABLE_RISK.value, Tag.HIGH_RISK.value)
    lines = [header]
    for ext, tagged, row in zip(_account_rows(ds.graph), ds.high_risk.tolist(), ds.features):
        lines.append(row_format % (ext, tags[tagged], *row.tolist()))
    with open_new(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _account_order(path: str, graph: DeviceSharingGraph, ids: list[str], errors: list) -> np.ndarray:
    """The file row of every graph account, once the first error of the data lines (file line 2 on) is raised.

    Adds an unknown account id at precedence 1 and an account an earlier row has at 5.
    """
    row_of = _account_rows(graph)
    rows = np.fromiter(map(row_of.get, ids, repeat(-1)), np.int64, len(ids))
    if (rows < 0).any():
        bad = int(np.argmax(rows < 0))
        errors.append((bad, 1, f"unknown account id {ids[bad]!r}"))
    order = np.argsort(rows, kind="stable")
    repeated = np.zeros(len(rows), dtype=bool)
    repeated[order[1:]] = rows[order[1:]] == rows[order[:-1]]
    if repeated.any():
        bad = int(np.argmax(repeated))
        errors.append((bad, 5, f"duplicate row for account {ids[bad]!r}"))
    raise_first(path, errors, FeatureFormatError, 1)
    if len(rows) < len(row_of):
        missing = sorted(row_of.keys() - set(ids), key=row_of.get)
        raise FeatureFormatError(f"{path}: no row for {len(missing)} graph account(s), e.g. {missing[:5]}")
    return order


def load_features(path: str, graph: DeviceSharingGraph) -> LabeledDataset:
    """Load a features TSV against an existing graph; every account must get one finite row.

    The split starts as all-Train. Within a line the checks go: field count, account id,
    tag, numbers, finiteness, an account an earlier line has.
    """
    raw = read_lines(path, FeatureFormatError)
    if not raw:
        raise FeatureFormatError(f"{path}:1: empty features file")
    header = raw[0].split("\t")
    if len(header) < 3 or header[0] != "account_id" or header[1] != "tag":
        raise FeatureFormatError(f"{path}:1: bad header {raw[0]!r}")
    (ids, tags, *columns), errors = split_rows(list(filter(str.strip, raw[1:])), len(header), "fields")
    if (bad := first_outside(tags, (Tag.HIGH_RISK.value, Tag.NO_OBSERVABLE_RISK.value))) is not None:
        errors.append((bad, 2, f"unknown tag {tags[bad]!r}"))
    values = [real_values(texts, np.arange(len(ids)), "feature", errors) for texts in columns]
    order = _account_order(path, graph, ids, errors)
    high_risk = np.fromiter(map(Tag.HIGH_RISK.value.__eq__, tags), bool, len(tags))[order]
    return LabeledDataset(graph, np.column_stack(values)[order], high_risk, np.zeros(len(order), dtype=bool))


def save_ground_truth(ds: LabeledDataset, path: str) -> None:
    if ds.truth is None:
        raise ValueError("dataset has no ground truth to save")
    rows = map("{}\t{:d}\n".format, _account_rows(ds.graph), ds.truth.tolist())
    with open_new(path) as fh:
        fh.write("account_id\tis_fraud\n" + "".join(rows))


def load_ground_truth(path: str, graph: DeviceSharingGraph) -> np.ndarray:
    """Boolean fraud column over the graph's accounts; every account must get one row.

    Within a line the checks go: field count, account id, is_fraud, an account an earlier line has.
    """
    raw = read_lines(path, FeatureFormatError)
    if not raw or raw[0] != "account_id\tis_fraud":
        raise FeatureFormatError(f"{path}:1: bad ground-truth header")
    (ids, flags), errors = split_rows(list(filter(str.strip, raw[1:])), 2, "fields")
    if (bad := first_outside(flags, ("0", "1"))) is not None:
        errors.append((bad, 2, f"is_fraud must be 0 or 1, got {flags[bad]!r}"))
    order = _account_order(path, graph, ids, errors)
    return np.fromiter(map("1".__eq__, flags), bool, len(flags))[order]


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
