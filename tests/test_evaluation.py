import numpy as np
import pytest

from fraudring.evaluation import (
    ConfusionCounts,
    EvalReport,
    ModelRow,
    best_f1_threshold,
    compare_models,
    confusion,
    detection_expansion,
    f1,
    fraud_neighbor_stats,
    pr_curve,
    precision,
    recall,
    save_pr_curves,
    save_report,
    tag_truth_mismatches,
)
from reference import bfs_hop_counts, brute_force_confusion, brute_force_pr_points, fraction_best_f1
from util import adjacency_lists, make_dataset, make_graph, random_bipartite_with_small_parts


def random_scored_labels(rng, n, base_rate=0.3, ties=False):
    scores = rng.random(n)
    if ties:
        scores = np.round(scores, 1)
    labels = rng.random(n) < base_rate
    if not labels.any():
        labels[0] = True
    return (
        {i: float(s) for i, s in enumerate(scores)},
        {i: bool(y) for i, y in enumerate(labels)},
    )


class TestConfusion:
    def test_threshold_zero_flags_everything(self):
        scores = {0: 0.1, 1: 0.9, 2: 0.4}
        labels = {0: True, 1: False, 2: True}
        counts = confusion(scores, labels, 0.0)
        assert (counts.tn, counts.fn) == (0, 0)
        assert (counts.tp, counts.fp) == (2, 1)

    def test_threshold_above_max_flags_nothing(self):
        scores = {0: 0.1, 1: 0.9}
        labels = {0: True, 1: False}
        counts = confusion(scores, labels, 0.91)
        assert (counts.tp, counts.fp) == (0, 0)
        assert (counts.fn, counts.tn) == (1, 1)

    def test_matches_brute_force_on_random_fixtures(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            scores, labels = random_scored_labels(rng, 50, ties=trial % 2 == 0)
            thr = float(rng.random())
            counts = confusion(scores, labels, thr)
            ordered = sorted(scores)
            want = brute_force_confusion(
                [scores[k] for k in ordered], [labels[k] for k in ordered], thr
            )
            assert (counts.tp, counts.fp, counts.tn, counts.fn) == want
            assert counts.total == 50

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different accounts"):
            confusion({0: 0.5}, {1: True}, 0.5)


class TestF1:
    def test_half_precision_half_recall(self):
        # tp=1, fp=1, fn=1 gives precision = recall = 0.5
        counts = ConfusionCounts(tp=1, fp=1, tn=5, fn=1)
        assert precision(counts) == 0.5
        assert recall(counts) == 0.5
        assert f1(counts) == pytest.approx(0.5)

    def test_zero_tp_is_zero_by_convention(self):
        assert f1(ConfusionCounts(0, 3, 5, 2)) == 0.0
        assert f1(ConfusionCounts(0, 0, 5, 0)) == 0.0

    def test_reported_style_counts(self):
        counts = ConfusionCounts(tp=60, fp=34, tn=0, fn=59)
        assert f1(counts) == pytest.approx(2 * 60 / (2 * 60 + 34 + 59), abs=1e-12)

    def test_perfect_iff_no_errors(self):
        assert f1(ConfusionCounts(10, 0, 5, 0)) == 1.0
        assert f1(ConfusionCounts(10, 1, 5, 0)) < 1.0
        assert f1(ConfusionCounts(10, 0, 5, 1)) < 1.0


class TestDetectionExpansion:
    def test_no_false_positives_means_one(self):
        assert detection_expansion(ConfusionCounts(8, 0, 3, 2)) == 1.0

    def test_reported_anchor_value(self):
        assert detection_expansion(ConfusionCounts(100, 47, 0, 0)) == pytest.approx(1.47)

    def test_matches_formula_and_floor_property(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            tp, fp, tn, fn = (int(x) for x in rng.integers(0, 40, size=4))
            counts = ConfusionCounts(tp, fp, tn, fn)
            if tp + fn == 0:
                with pytest.raises(ValueError, match="no positive labels"):
                    detection_expansion(counts)
                continue
            de = detection_expansion(counts)
            assert de == pytest.approx((fp + tp + fn) / (tp + fn), abs=1e-12)
            assert de >= 1.0
            assert (de == 1.0) == (fp == 0)

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError, match="no positive labels"):
            detection_expansion(ConfusionCounts(0, 5, 10, 0))


class TestPRCurve:
    def test_perfect_scorer_has_unit_precision(self):
        scores = {i: 1.0 - 0.1 * i for i in range(6)}
        labels = {i: i < 3 for i in range(6)}
        curve = pr_curve(scores, labels)
        for threshold, prec, rec in curve:
            if rec <= 0.5:
                assert prec == 1.0
        assert curve[-1][2] == 1.0

    def test_constant_scores_single_point(self):
        scores = {i: 0.7 for i in range(10)}
        labels = {i: i < 3 for i in range(10)}
        curve = pr_curve(scores, labels)
        assert curve == [(0.7, 0.3, 1.0)]

    def test_matches_brute_force_on_100_samples(self):
        rng = np.random.default_rng(2)
        scores, labels = random_scored_labels(rng, 100, ties=True)
        keys = sorted(scores)
        want = brute_force_pr_points([scores[k] for k in keys], [labels[k] for k in keys])
        got = pr_curve(scores, labels)
        assert len(got) == len(want)
        for (gt, gp, gr), (wt, wp, wr) in zip(got, want):
            assert gt == wt
            assert gp == pytest.approx(wp, abs=1e-12)
            assert gr == pytest.approx(wr, abs=1e-12)

    def test_recall_nondecreasing_thresholds_decreasing(self):
        rng = np.random.default_rng(3)
        scores, labels = random_scored_labels(rng, 60)
        curve = pr_curve(scores, labels)
        thresholds = [t for t, _, _ in curve]
        recalls = [r for _, _, r in curve]
        assert thresholds == sorted(thresholds, reverse=True)
        assert all(a <= b for a, b in zip(recalls, recalls[1:]))
        assert recalls[-1] == 1.0

    def test_no_positive_labels_rejected(self):
        with pytest.raises(ValueError, match="positive label"):
            pr_curve({0: 0.5}, {0: False})


class TestBestF1Threshold:
    def test_finds_global_max_over_distinct_scores(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            scores, labels = random_scored_labels(rng, 40, ties=True)
            thr, best = best_f1_threshold(scores, labels)
            candidates = {
                t: f1(confusion(scores, labels, t)) for t in set(scores.values())
            }
            assert best == pytest.approx(max(candidates.values()))
            assert candidates[thr] == pytest.approx(best)

    def test_ties_go_to_highest_threshold(self):
        # Both 0.9 and 0.4 reach F1 = 1.0 is impossible; craft equal-F1 pair:
        # at t=0.9: tp=1, fp=0, fn=1 -> F1 = 2/3; at t=0.4: tp=2, fp=1 -> F1 = 0.8
        # use symmetric case instead where two thresholds tie exactly.
        scores = {0: 0.9, 1: 0.4}
        labels = {0: True, 1: True}
        thr, best = best_f1_threshold(scores, labels)
        # t=0.9 -> tp=1, fn=1 -> 2/3; t=0.4 -> tp=2 -> 1.0
        assert (thr, best) == (0.4, 1.0)
        scores = {0: 0.9, 1: 0.4, 2: 0.2}
        labels = {0: True, 1: False, 2: True}
        # t=0.9: F1=2/3; t=0.4: tp=1, fp=1, fn=1 -> 0.5; t=0.2: tp=2, fp=1 -> 0.8
        thr, best = best_f1_threshold(scores, labels)
        assert (thr, best) == (0.2, pytest.approx(0.8))

    def test_three_exact_ties_go_to_highest_threshold(self):
        # 33 positives; thresholds 0.9, 0.8 and 0.7 give tp/predicted of
        # 26/45, 27/48 and 28/51, each exactly F1 = 2/3, and 0.1 gives 66/109.
        groups = [(0.9, 26, 19), (0.8, 1, 2), (0.7, 1, 2), (0.1, 5, 20)]
        scores, labels = {}, {}
        for score, n_pos, n_neg in groups:
            for flag in [True] * n_pos + [False] * n_neg:
                scores[len(scores)] = score
                labels[len(labels)] = flag
        assert [f1(confusion(scores, labels, t)) for t in (0.9, 0.8, 0.7)] == pytest.approx(
            [2 / 3] * 3, abs=1e-15
        )
        assert best_f1_threshold(scores, labels) == (0.9, 2 / 3)

    def test_matches_exact_fraction_oracle(self):
        rng = np.random.default_rng(14)
        for trial in range(200):
            n = int(rng.integers(1, 60))
            scores, labels = random_scored_labels(rng, n, base_rate=rng.uniform(0.05, 0.9), ties=trial % 3 > 0)
            keys = sorted(scores)
            want_thr, want_f1 = fraction_best_f1([scores[k] for k in keys], [labels[k] for k in keys])
            assert best_f1_threshold(scores, labels) == (want_thr, float(want_f1))

    def test_no_positive_labels_pick_highest_threshold(self):
        assert best_f1_threshold({0: 0.2, 1: 0.7}, {0: False, 1: False}) == (0.7, 0.0)

    def test_mismatched_accounts_rejected(self):
        with pytest.raises(ValueError, match="different accounts"):
            best_f1_threshold({0: 0.5, 1: 0.2}, {0: True, 2: False})

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError, match="no scores"):
            best_f1_threshold({}, {})


def scored_dataset():
    """Nine accounts on a shared-device ring plus privates, half in Test."""
    kinds = "A" * 8 + "D" * 6
    edges = [(0, 8), (1, 8), (2, 8)] + [(3 + i, 9 + i) for i in range(5)]
    g = make_graph(kinds, edges)
    rng = np.random.default_rng(5)
    features = rng.normal(size=(8, 3))
    high_risk = [True] * 3 + [False] * 5
    is_test = [False, True, True, False] + [True] * 4
    truth = [True, True, True, False, False, False, False, True]
    return make_dataset(g, features, high_risk=high_risk, is_test=is_test, truth=truth)


class TestCompareModels:
    def test_identical_scores_identical_rows(self):
        ds = scored_dataset()
        scores = 0.1 * np.arange(8)
        report = compare_models(ds, {"one": scores, "two": scores.copy()})
        a, b = report.rows
        assert (a.threshold, a.precision, a.recall, a.f1, a.detection_expansion) == (
            b.threshold,
            b.precision,
            b.recall,
            b.f1,
            b.detection_expansion,
        )
        assert [r.model for r in report.rows] == ["one", "two"]
        assert report.pr_curves["one"] == report.pr_curves["two"]

    def test_rows_use_test_split_only(self):
        ds = scored_dataset()
        # Scores chosen so Test accounts {1, 2, 4, 5, 6, 7} split cleanly:
        # tags say 1, 2 positive; give them and 7 high scores.
        scores = np.array([(0.9 if a in (1, 2, 7) else 0.1) for a in range(8)])
        report = compare_models(ds, {"m": scores}, label_source="tags")
        row = report.rows[0]
        # at t=0.9: tp=2 (1, 2), fp=1 (7), fn=0 -> precision 2/3, recall 1
        assert row.threshold == 0.9
        assert row.precision == pytest.approx(2 / 3)
        assert row.recall == 1.0
        assert row.f1 == pytest.approx(0.8)
        assert row.detection_expansion == pytest.approx(1.5)

    def test_ground_truth_source_changes_labels(self):
        ds = scored_dataset()
        scores = np.array([(0.9 if a in (1, 2, 7) else 0.1) for a in range(8)])
        report = compare_models(ds, {"m": scores}, label_source="ground-truth")
        row = report.rows[0]
        # truth marks 1, 2, 7 fraud: perfect at t=0.9
        assert row.f1 == 1.0
        assert report.label_source == "ground-truth"

    def test_pr_curves_cover_each_model(self):
        ds = scored_dataset()
        report = compare_models(
            ds, {"a": 0.1 * np.arange(8), "b": np.full(8, 0.5)}
        )
        assert set(report.pr_curves) == {"a", "b"}


class TestFraudNeighborStats:
    def test_manual_two_hop_counts(self):
        # Ring accounts 0-2 share device 5; account 3 shares device 6 with
        # ring member 0; account 4 is isolated on device 7.
        g = make_graph(
            "AAAAA" + "DDD",
            [(0, 5), (1, 5), (2, 5), (0, 6), (3, 6), (4, 7)],
        )
        is_fraud = [True, True, True, False, False]
        fraud_avg, regular_avg = fraud_neighbor_stats(g, is_fraud, max_hop=2)
        # fraud counts at hop 2: node 0 sees {1, 2}; nodes 1, 2 see {0, other}
        assert fraud_avg == pytest.approx(2.0)
        # account 3 sees fraud node 0 at hop 2; account 4 sees none
        assert regular_avg == pytest.approx(0.5)

    def test_center_excluded_from_own_count(self):
        g = make_graph("AAD", [(0, 2), (1, 2)])
        fraud_avg, _ = fraud_neighbor_stats(g, [True, False], max_hop=2)
        assert fraud_avg == 0.0

    def test_hop_limit_respected(self):
        # Chain: fraud 0 - d4 - 1 - d5 - 2 - d6 - fraud 3; hops between
        # account 0 and account 3 = 6.
        g = make_graph("AAAA" + "DDD", [(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6)])
        truth = [True, False, False, True]
        fraud_avg, _ = fraud_neighbor_stats(g, truth, max_hop=2)
        assert fraud_avg == 0.0
        fraud_avg6, _ = fraud_neighbor_stats(g, truth, max_hop=6)
        assert fraud_avg6 == 1.0

    def test_single_class_rejected(self):
        g = make_graph("AAD", [(0, 2), (1, 2)])
        with pytest.raises(ValueError, match="both fraud and regular"):
            fraud_neighbor_stats(g, [True, True])

    def test_matches_per_seed_bfs_on_random_graphs(self):
        rng = np.random.default_rng(22)
        for trial in range(30):
            g = random_bipartite_with_small_parts(rng, int(rng.integers(1, 25)), int(rng.integers(1, 25)), 0.12)
            adj = adjacency_lists(g)
            accounts = g.account_indices().tolist()
            is_fraud = rng.random(len(accounts)) < 0.4
            is_fraud[-3:] = [True, False, False]  # the two-account part mixes both; the isolated account is regular
            fraud_mask = np.zeros(g.num_nodes, dtype=bool)
            fraud_mask[np.array(accounts)[is_fraud]] = True
            for max_hop in range(1, 7):
                totals = [sum(bfs_hop_counts(adj, a, max_hop, fraud_mask)) for a in accounts]
                want = tuple(
                    sum(t for t, f in zip(totals, is_fraud.tolist()) if f == side) / int((is_fraud == side).sum())
                    for side in (True, False)
                )
                got = fraud_neighbor_stats(g, is_fraud, max_hop=max_hop)
                assert got == want and all(type(v) is float for v in got)


class TestTagTruthMismatches:
    def test_flipped_tags_listed(self):
        ds = scored_dataset()
        # truth fraud = {0, 1, 2, 7}; tags mark {0, 1, 2} -> mismatch on 7
        assert tag_truth_mismatches(ds) == [7]

    def test_requires_ground_truth(self):
        g = make_graph("AAD", [(0, 2), (1, 2)])
        ds = make_dataset(g, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="no ground truth"):
            tag_truth_mismatches(ds)


class TestReportFiles:
    def report(self):
        rows = [
            ModelRow("gnn", 0.5, 0.75, 0.6, 2 / 3, 1.25),
            ModelRow("gbdt", 0.25, 0.5, 0.5, 0.5, 1.5),
        ]
        curves = {"gnn": [(0.5, 1.0, 0.5), (0.25, 0.75, 1.0)]}
        return EvalReport(rows, curves)

    def test_report_tsv_layout(self, tmp_path):
        path = tmp_path / "report.tsv"
        save_report(self.report(), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model\tthreshold\tprecision\trecall\tf1\tde"
        assert lines[1].split("\t") == ["gnn", "0.5", "0.75", "0.6", "0.666666667", "1.25"]
        assert len(lines) == 3

    def test_pr_curve_tsv_layout(self, tmp_path):
        path = tmp_path / "pr.tsv"
        save_pr_curves(self.report(), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model\tthreshold\tprecision\trecall"
        assert lines[1] == "gnn\t0.5\t1\t0.5"
        assert lines[2] == "gnn\t0.25\t0.75\t1"
