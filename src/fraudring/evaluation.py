"""Scoring reports: confusion counts, F1, detection expansion, PR curves,
hop-neighborhood statistics, and a side-by-side model comparison table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .features import LabeledDataset
from .graph import DeviceSharingGraph, sorted_unique
from .textio import open_new


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _check_same_accounts(scores: Mapping[int, float], labels: Mapping[int, bool]) -> None:
    if set(scores) != set(labels):
        only_s = sorted(set(scores) - set(labels))[:5]
        only_l = sorted(set(labels) - set(scores))[:5]
        raise ValueError(f"scores and labels cover different accounts (extra scores {only_s}, extra labels {only_l})")


def confusion(
    scores: Mapping[int, float], labels: Mapping[int, bool], threshold: float
) -> ConfusionCounts:
    """Counts with 'predicted positive' meaning score >= threshold."""
    _check_same_accounts(scores, labels)
    tp = fp = tn = fn = 0
    for key, score in scores.items():
        predicted = score >= threshold
        if predicted and labels[key]:
            tp += 1
        elif predicted:
            fp += 1
        elif labels[key]:
            fn += 1
        else:
            tn += 1
    return ConfusionCounts(tp, fp, tn, fn)


def precision(counts: ConfusionCounts) -> float:
    if counts.tp + counts.fp == 0:
        return 0.0
    return counts.tp / (counts.tp + counts.fp)


def recall(counts: ConfusionCounts) -> float:
    if counts.tp + counts.fn == 0:
        return 0.0
    return counts.tp / (counts.tp + counts.fn)


def f1(counts: ConfusionCounts) -> float:
    """Harmonic mean of precision and recall; 0 when either is undefined."""
    p = precision(counts)
    r = recall(counts)
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def detection_expansion(counts: ConfusionCounts) -> float:
    """(fp + tp + fn) / (tp + fn): how far flagged accounts expand the labeled set.

    Always >= 1, with equality exactly when nothing beyond the labeled
    positives is flagged.
    """
    denom = counts.tp + counts.fn
    if denom == 0:
        raise ValueError("detection expansion undefined: no positive labels")
    return (counts.fp + counts.tp + counts.fn) / denom


def _ranked_counts(
    scores: Mapping[int, float], labels: Mapping[int, bool]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Distinct scores descending, with true and predicted positives at each as threshold.

    Also returns the number of positive labels. scores must be nonempty.
    """
    keys = sorted(scores)
    s = np.array([scores[k] for k in keys])
    y = np.array([labels[k] for k in keys], dtype=bool)
    order = np.argsort(-s, kind="stable")
    s = s[order]
    y = y[order]
    tp_cum = np.cumsum(y)
    # index of the last element in each block of equal scores
    block_ends = np.flatnonzero(np.concatenate([s[1:] < s[:-1], [True]]))
    return s[block_ends], tp_cum[block_ends], block_ends + 1, int(y.sum())


def pr_curve(
    scores: Mapping[int, float], labels: Mapping[int, bool]
) -> list[tuple[float, float, float]]:
    """(threshold, precision, recall) at every distinct score, descending."""
    if not any(labels.values()):
        raise ValueError("PR curve needs at least one positive label")
    thresholds, tp, n_pred, n_pos = _ranked_counts(scores, labels)
    return [
        (float(t), int(a) / int(b), int(a) / n_pos) for t, a, b in zip(thresholds, tp, n_pred)
    ]


def best_f1_threshold(
    scores: Mapping[int, float], labels: Mapping[int, bool]
) -> tuple[float, float]:
    """Distinct score value maximizing F1; ties go to the highest threshold.

    F1 is computed as the single division 2*tp / (predicted + actual
    positives), so equal ratios give equal floats and ties are exact.
    """
    if not scores:
        raise ValueError("no scores to threshold")
    _check_same_accounts(scores, labels)
    thresholds, tp, n_pred, n_pos = _ranked_counts(scores, labels)
    f1s = 2.0 * tp / (n_pred + n_pos)
    best = int(np.argmax(f1s))
    return float(thresholds[best]), float(f1s[best])


@dataclass
class ModelRow:
    model: str
    threshold: float
    precision: float
    recall: float
    f1: float
    detection_expansion: float


@dataclass
class EvalReport:
    rows: list[ModelRow]
    pr_curves: dict[str, list[tuple[float, float, float]]]
    label_source: str = "tags"


def label_column(ds: LabeledDataset, source: str = "tags") -> np.ndarray:
    """Boolean positive label per account row from 'tags' (rule tags) or 'ground-truth'."""
    if source == "tags":
        return ds.high_risk
    if source == "ground-truth":
        if ds.truth is None:
            raise ValueError("dataset has no ground truth")
        return ds.truth
    raise ValueError(f"unknown label source {source!r}")


def compare_models(
    ds: LabeledDataset,
    model_scores: Mapping[str, np.ndarray],
    label_source: str = "tags",
) -> EvalReport:
    """Table of per-model metrics on the Test split at each model's F1-best threshold.

    Each model's scores are aligned to the Test rows, in dataset order;
    scores of any other length raise ValueError naming the model.
    """
    test_accounts = ds.graph.account_indices()[ds.is_test].tolist()
    for name, test_scores in model_scores.items():
        if len(test_scores) != len(test_accounts):
            raise ValueError(f"{name}: {len(test_scores)} scores for {len(test_accounts)} Test accounts")
    labels = dict(zip(test_accounts, label_column(ds, label_source)[ds.is_test].tolist()))
    rows: list[ModelRow] = []
    curves: dict[str, list[tuple[float, float, float]]] = {}
    for name, test_scores in model_scores.items():
        scores = dict(zip(test_accounts, np.asarray(test_scores).tolist()))
        threshold, best = best_f1_threshold(scores, labels)
        counts = confusion(scores, labels, threshold)
        rows.append(
            ModelRow(
                name,
                threshold,
                precision(counts),
                recall(counts),
                best,
                detection_expansion(counts),
            )
        )
        curves[name] = pr_curve(scores, labels)
    return EvalReport(rows, curves, label_source=label_source)


def _hop_counts(g: DeviceSharingGraph, seeds: np.ndarray, max_hop: int, counted: np.ndarray) -> np.ndarray:
    """(len(seeds), max_hop) int64: [i, h - 1] counts the counted nodes at distance exactly h from seeds[i].

    Every seed's frontier expands at once, one hop a step, as sorted keys
    position * n + node. The graph is bipartite, so the neighbours of the
    nodes at distance h lie at h - 1 or h + 1: the next frontier is the
    neighbour keys minus the previous frontier's.
    """
    n = g.num_nodes
    offsets, targets = g.csr()
    counts = np.zeros((len(seeds), max_hop), dtype=np.int64)
    previous, frontier = np.zeros(0, dtype=np.int64), np.arange(len(seeds)) * n + seeds
    for hop in range(max_hop):
        nodes = frontier % n
        degree = np.diff(offsets)[nodes]
        at = np.arange(degree.sum()) + np.repeat(offsets[nodes] - np.cumsum(degree) + degree, degree)
        reached = sorted_unique(np.repeat(frontier - nodes, degree) + targets[at])
        # reached[i] is in previous exactly where its insertion point holds it
        known = np.append(previous, -1)[np.searchsorted(previous, reached)] == reached
        previous, frontier = frontier, reached[~known]
        counts[:, hop] = np.bincount(frontier[counted[frontier % n]] // n, minlength=len(seeds))
    return counts


def fraud_neighbor_stats(
    g: DeviceSharingGraph, is_fraud: np.ndarray, max_hop: int = 2
) -> tuple[float, float]:
    """Average count of fraud accounts within max_hop hops, around fraud vs regular accounts.

    is_fraud is aligned to g.account_indices(); another shape raises
    ValueError. The center account itself is excluded from its own count.
    """
    is_fraud = np.asarray(is_fraud, dtype=bool)
    accounts = g.account_indices()
    if is_fraud.shape != accounts.shape:
        raise ValueError(f"is_fraud mask of shape {is_fraud.shape} for {len(accounts)} accounts")
    if is_fraud.all() or not is_fraud.any():
        raise ValueError("need both fraud and regular accounts")

    fraud_mask = np.zeros(g.num_nodes, dtype=bool)
    fraud_mask[accounts[is_fraud]] = True
    totals = _hop_counts(g, accounts, max_hop, fraud_mask).sum(axis=1)
    fraud_avg, regular_avg = (float(totals[side].sum() / side.sum()) for side in (is_fraud, ~is_fraud))
    return fraud_avg, regular_avg


def tag_truth_mismatches(ds: LabeledDataset) -> list[int]:
    """Accounts whose rule tag disagrees with ground truth (flipped fraud tags)."""
    if ds.truth is None:
        raise ValueError("dataset has no ground truth")
    return ds.graph.account_indices()[ds.high_risk != ds.truth].tolist()


def save_report(report: EvalReport, path: str) -> None:
    with open_new(path) as fh:
        fh.write("model\tthreshold\tprecision\trecall\tf1\tde\n")
        for row in report.rows:
            fh.write(
                f"{row.model}\t{row.threshold:.9g}\t{row.precision:.9g}"
                f"\t{row.recall:.9g}\t{row.f1:.9g}\t{row.detection_expansion:.9g}\n"
            )


def save_pr_curves(report: EvalReport, path: str) -> None:
    with open_new(path) as fh:
        fh.write("model\tthreshold\tprecision\trecall\n")
        for name, curve in report.pr_curves.items():
            for threshold, prec, rec in curve:
                fh.write(f"{name}\t{threshold:.9g}\t{prec:.9g}\t{rec:.9g}\n")
