import numpy as np
import pytest

from fraudring.evaluation import label_column
from fraudring.features import (
    FeatureFormatError,
    check_dataset,
    load_dataset,
    load_features,
    load_ground_truth,
    normalize_features,
    prune_dataset,
    save_features,
    save_ground_truth,
    split_train_test,
    train_feature_stats,
)
from fraudring.graph import prune_singletons, save_graph
from util import make_graph, random_bipartite, make_dataset


def star_graph(n_accounts):
    """n accounts all joined to one device (indices 0..n-1 accounts, n device)."""
    kinds = "A" * n_accounts + "D"
    return make_graph(kinds, [(a, n_accounts) for a in range(n_accounts)])


class TestNormalize:
    def test_two_point_column_maps_to_unit_values(self):
        ds = make_dataset(star_graph(2), [[1.0], [3.0]])
        out = normalize_features(ds)
        assert out.features == pytest.approx(np.array([[-1.0], [1.0]]))

    def test_constant_column_becomes_zeros(self):
        ds = make_dataset(star_graph(3), [[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        out = normalize_features(ds)
        assert np.all(out.features[:, 0] == 0.0)

    def test_train_columns_standardized(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.5, size=(10, 5))
        ds = make_dataset(star_graph(10), x)
        out = normalize_features(ds).features
        assert np.abs(out.mean(axis=0)).max() < 1e-12
        assert out.std(axis=0) == pytest.approx(np.ones(5))

    def test_test_rows_use_train_statistics(self):
        ds = make_dataset(star_graph(3), [[0.0], [2.0], [10.0]], is_test=[False, False, True])
        out = normalize_features(ds)
        # Train mean 1, population std 1; the Test row is shifted by the same stats.
        assert out.features == pytest.approx(np.array([[-1.0], [1.0], [9.0]]))

    def test_input_dataset_untouched(self):
        x = [[1.0], [3.0]]
        ds = make_dataset(star_graph(2), x)
        normalize_features(ds)
        assert ds.features == pytest.approx(np.array(x))

    def test_invertible_on_non_constant_columns(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 3)) * [1.0, 4.0, 0.25] + [2.0, -1.0, 0.5]
        ds = make_dataset(star_graph(8), x)
        mean, std = train_feature_stats(ds)
        out = normalize_features(ds).features
        assert out * std + mean == pytest.approx(x)

    def test_empty_train_split_rejected(self):
        ds = make_dataset(star_graph(2), [[1.0], [2.0]], is_test=[True, True])
        with pytest.raises(ValueError, match="Train split is empty"):
            normalize_features(ds)


class TestSplit:
    def make(self, n, n_high, seed=0):
        high_risk = [True] * n_high + [False] * (n - n_high)
        rng = np.random.default_rng(seed)
        return make_dataset(star_graph(n), rng.normal(size=(n, 2)), high_risk=high_risk)

    def test_stratified_counts(self):
        ds = split_train_test(self.make(100, 10), test_fraction=0.3, seed=0)
        assert np.sum(ds.high_risk & ds.is_test) == 3
        assert np.sum(~ds.high_risk & ds.is_test) == 27

    def test_rounding_goes_to_train(self):
        # 7 high-risk at 0.3 -> floor(2.1) = 2 test, 5 train.
        ds = split_train_test(self.make(17, 7), test_fraction=0.3, seed=1)
        assert np.sum(ds.high_risk & ds.is_test) == 2
        assert np.sum(ds.high_risk & ~ds.is_test) == 5

    def test_same_seed_identical(self):
        a = split_train_test(self.make(60, 12), 0.25, seed=9)
        b = split_train_test(self.make(60, 12), 0.25, seed=9)
        assert np.array_equal(a.is_test, b.is_test)

    def test_different_seed_differs(self):
        a = split_train_test(self.make(60, 12), 0.25, seed=1)
        b = split_train_test(self.make(60, 12), 0.25, seed=2)
        assert not np.array_equal(a.is_test, b.is_test)

    def test_split_partitions_accounts(self):
        src = self.make(50, 5)
        ds = split_train_test(src, 0.4, seed=3)
        assert ds.is_test.shape == (len(ds.graph.account_indices()),)
        assert ds.is_test.dtype == bool
        assert not src.is_test.any()  # the input keeps its all-Train split

    def test_proportions_near_global(self):
        ds = split_train_test(self.make(1000, 100), 0.3, seed=4)
        n_test = np.sum(ds.is_test)
        high_test = np.sum(ds.high_risk & ds.is_test)
        # 10% positives globally; within 1 account of 10% of the test side.
        assert abs(high_test - 0.1 * n_test) <= 1.0

    def test_tiny_class_rejected(self):
        with pytest.raises(ValueError, match="cannot stratify"):
            split_train_test(self.make(10, 1), 0.3, seed=0)

    def test_invalid_fraction_rejected(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="test_fraction"):
                split_train_test(self.make(10, 3), bad, seed=0)


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        g = star_graph(3)
        high_risk = [True, False, True]
        x = np.random.default_rng(2).normal(size=(3, 4))
        ds = make_dataset(g, x, high_risk=high_risk)
        path = tmp_path / "features.tsv"
        save_features(ds, path)
        assert path.read_text(encoding="utf-8").splitlines()[1].split("\t")[:2] == ["a0", "HIGH_RISK"]
        loaded = load_features(path, g)
        assert loaded.features == pytest.approx(x, rel=1e-8)
        assert loaded.high_risk.tolist() == high_risk
        assert not loaded.is_test.any()

    def test_second_save_byte_identical(self, tmp_path):
        g = star_graph(1000)
        x = np.random.default_rng(3).normal(size=(1000, 6))
        ds = make_dataset(g, x)
        p1, p2 = tmp_path / "f1.tsv", tmp_path / "f2.tsv"
        save_features(ds, p1)
        save_features(load_features(p1, g), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text(
            "account_id\ttag\tf0\tf1\na0\tHIGH_RISK\t1.0\n", encoding="utf-8"
        )
        with pytest.raises(FeatureFormatError, match=r"f\.tsv:2: expected 4 fields"):
            load_features(path, star_graph(1))

    def test_unknown_account_named(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text(
            "account_id\ttag\tf0\nghost\tHIGH_RISK\t1.0\n", encoding="utf-8"
        )
        with pytest.raises(FeatureFormatError, match="unknown account id 'ghost'"):
            load_features(path, star_graph(1))

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("account_id\ttag\tf0\na0\tMEDIUM\t1.0\n", encoding="utf-8")
        with pytest.raises(FeatureFormatError, match="unknown tag 'MEDIUM'"):
            load_features(path, star_graph(1))

    def test_duplicate_account_rejected(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text(
            "account_id\ttag\tf0\n"
            "a0\tHIGH_RISK\t1.0\n"
            "a0\tHIGH_RISK\t2.0\n"
            "a1\tHIGH_RISK\t3.0\n",
            encoding="utf-8",
        )
        with pytest.raises(FeatureFormatError, match=r":3: duplicate row"):
            load_features(path, star_graph(2))

    def test_missing_account_row_rejected(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("account_id\ttag\tf0\na0\tHIGH_RISK\t1.0\n", encoding="utf-8")
        with pytest.raises(FeatureFormatError, match=r"no row for 1 graph account\(s\), e\.g\. \['a1'\]"):
            load_features(path, star_graph(2))

    def test_non_numeric_value_named(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("account_id\ttag\tf0\na0\tHIGH_RISK\tabc\n", encoding="utf-8")
        with pytest.raises(FeatureFormatError, match=r":2: non-numeric"):
            load_features(path, star_graph(1))

    def test_non_finite_value_named(self, tmp_path):
        path = tmp_path / "f.tsv"
        for bad in ("nan", "inf", "-inf", "NaN", "Infinity"):
            path.write_text(
                f"account_id\ttag\tf0\tf1\na0\tHIGH_RISK\t1.0\t2.0\na1\tHIGH_RISK\t0.5\t{bad}\n",
                encoding="utf-8",
            )
            with pytest.raises(FeatureFormatError, match=r"f\.tsv:3: non-finite feature value"):
                load_features(path, star_graph(2))


class TestGroundTruthFiles:
    def test_round_trip(self, tmp_path):
        g = star_graph(3)
        ds = make_dataset(g, np.zeros((3, 1)), truth=[True, False, True])
        path = tmp_path / "gt.tsv"
        save_ground_truth(ds, path)
        assert load_ground_truth(path, g).tolist() == [True, False, True]

    def test_bad_flag_rejected(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("account_id\tis_fraud\na0\tyes\n", encoding="utf-8")
        with pytest.raises(FeatureFormatError, match="is_fraud must be 0 or 1"):
            load_ground_truth(path, star_graph(1))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("account\tfraud\na0\t1\n", encoding="utf-8")
        with pytest.raises(FeatureFormatError, match="header"):
            load_ground_truth(path, star_graph(1))

    def test_duplicate_account_rejected(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("account_id\tis_fraud\na0\t1\na1\t0\na0\t0\n", encoding="utf-8")
        with pytest.raises(FeatureFormatError, match=r"gt\.tsv:4: duplicate row for account 'a0'"):
            load_ground_truth(path, star_graph(2))

    def test_missing_account_row_rejected(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("account_id\tis_fraud\na1\t1\n", encoding="utf-8")
        with pytest.raises(FeatureFormatError, match=r"gt\.tsv: no row for 1 graph account\(s\), e\.g\. \['a0'\]"):
            load_ground_truth(path, star_graph(2))


class TestDatasetAssembly:
    def test_load_dataset_directory(self, tmp_path):
        g = star_graph(3)
        x = np.random.default_rng(5).normal(size=(3, 2))
        ds = make_dataset(g, x, high_risk=[True, False, False], truth=[True, False, False])
        save_graph(g, tmp_path / "graph.tsv")
        save_features(ds, tmp_path / "features.tsv")
        save_ground_truth(ds, tmp_path / "ground_truth.tsv")
        loaded = load_dataset(tmp_path)
        assert loaded.features == pytest.approx(x, rel=1e-8)
        assert loaded.truth.tolist() == [True, False, False]
        assert not loaded.is_test.any()

    def test_load_dataset_without_ground_truth(self, tmp_path):
        g = star_graph(2)
        ds = make_dataset(g, np.ones((2, 1)))
        save_graph(g, tmp_path / "graph.tsv")
        save_features(ds, tmp_path / "features.tsv")
        loaded = load_dataset(tmp_path)
        assert loaded.truth is None

    def test_prune_dataset_remaps_by_external_id(self):
        # a0-d3-a1 survives, a2-d4 dropped.
        g = make_graph("AAADD", [(0, 3), (1, 3), (2, 4)])
        x = np.array([[1.0], [2.0], [3.0]])
        ds = make_dataset(
            g,
            x,
            high_risk=[True, False, True],
            is_test=[False, True, False],
            truth=[True, False, True],
        )
        out = prune_dataset(ds)
        assert out.graph.num_nodes == 3
        ids = [out.graph.nodes[int(i)].external_id for i in out.graph.account_indices()]
        assert ids == ["a0", "a1"]
        assert out.features == pytest.approx(np.array([[1.0], [2.0]]))
        assert out.high_risk.tolist() == [True, False]
        assert out.is_test.tolist() == [False, True]
        assert out.truth.tolist() == [True, False]

    def test_prune_dataset_keeps_the_rows_external_id_matching_keeps(self):
        rng = np.random.default_rng(13)
        for trial in range(30):
            # Accounts and devices interleaved, so account rows are not node indices.
            kinds = rng.permutation(list("A" * 12 + "D" * 12))
            accounts, devices = np.flatnonzero(kinds == "A").tolist(), np.flatnonzero(kinds == "D").tolist()
            edge_prob = rng.uniform(0.02, 0.2)
            g = make_graph("".join(kinds), [(a, d) for a in accounts for d in devices if rng.random() < edge_prob])
            n = len(g.account_indices())
            ds = make_dataset(
                g, rng.standard_normal((n, 2)), rng.random(n) < 0.5, rng.random(n) < 0.3, rng.random(n) < 0.2
            )
            kept_ids = {nd.external_id for nd in prune_singletons(g).nodes}
            rows = [g.nodes[int(a)].external_id in kept_ids for a in g.account_indices()]
            out = prune_dataset(ds)
            assert out.graph == prune_singletons(g)
            assert np.array_equal(out.features, ds.features[rows])
            for col in ("high_risk", "is_test", "truth"):
                assert np.array_equal(getattr(out, col), getattr(ds, col)[rows])

    def test_check_dataset_rejects_missing_split(self):
        g = star_graph(2)
        ds = make_dataset(g, np.zeros((2, 1)))
        ds.is_test = ds.is_test[1:]
        with pytest.raises(ValueError, match="is_test must be a boolean column of 2 rows"):
            check_dataset(ds)

    def test_check_dataset_rejects_inconsistent_dims(self):
        g = star_graph(2)
        ds = make_dataset(g, np.zeros((2, 2)))
        ds.features = np.zeros(2)
        with pytest.raises(ValueError, match=r"features must be an \(2, P\) matrix"):
            check_dataset(ds)
        ds.features = np.zeros((3, 2))
        with pytest.raises(ValueError, match=r"features must be an \(2, P\) matrix"):
            check_dataset(ds)

    def test_labels_sources(self):
        ds = make_dataset(
            star_graph(2),
            np.zeros((2, 1)),
            high_risk=[True, False],
            truth=[False, True],
        )
        assert label_column(ds).tolist() == [True, False]
        assert label_column(ds, "ground-truth").tolist() == [False, True]
        with pytest.raises(ValueError, match="unknown label source"):
            label_column(ds, "oracle")

    def test_labels_without_ground_truth_rejected(self):
        ds = make_dataset(star_graph(1), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="no ground truth"):
            label_column(ds, "ground-truth")
