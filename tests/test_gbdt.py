import math

import numpy as np
import pytest

from fraudring.baselines import gbdt
from fraudring.baselines.gbdt import (
    L2_LAMBDA,
    GBDTConfig,
    GBDTModel,
    ModelFormatError,
    gbdt_fit,
    gbdt_predict,
    gbdt_predict_batch,
    load_gbdt,
    save_gbdt,
)
from reference import loop_best_split


def xor_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(np.float64)
    return x, y


def xor_model():
    x, y = xor_dataset()
    cfg = GBDTConfig(
        n_trees=200, max_depth=3, row_sample_rate=1.0, feature_sample_rate=1.0,
        learning_rate=0.1, min_samples_leaf=5, seed=0,
    )
    return gbdt_fit(x, y, cfg), x, y


def tree_depth(node):
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def split_features(node, out):
    if not node.is_leaf:
        out.add(node.feature)
        split_features(node.left, out)
        split_features(node.right, out)
    return out


class TestConfig:
    def test_defaults(self):
        cfg = GBDTConfig()
        assert (cfg.n_trees, cfg.max_depth) == (500, 5)
        assert (cfg.row_sample_rate, cfg.feature_sample_rate) == (0.6, 0.7)
        assert cfg.learning_rate == 0.009
        assert cfg.min_samples_leaf == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="n_trees"):
            GBDTConfig(n_trees=0)
        with pytest.raises(ValueError, match="max_depth"):
            GBDTConfig(max_depth=0)
        with pytest.raises(ValueError, match="row_sample_rate"):
            GBDTConfig(row_sample_rate=0.0)
        with pytest.raises(ValueError, match="feature_sample_rate"):
            GBDTConfig(feature_sample_rate=1.2)
        with pytest.raises(ValueError, match="learning_rate"):
            GBDTConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="min_samples_leaf"):
            GBDTConfig(min_samples_leaf=0)


class TestFit:
    def test_xor_is_learned(self):
        model, x, y = xor_model()
        preds = gbdt_predict_batch(model, x) >= 0.5
        accuracy = float((preds == y.astype(bool)).mean())
        assert accuracy >= 0.95

    def test_training_loss_monotone_nonincreasing(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(120, 4))
        y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.float64)
        cfg = GBDTConfig(n_trees=100, max_depth=3, seed=2)
        model = gbdt_fit(x, y, cfg)
        losses = np.array(model.train_loss_history)
        assert len(losses) == 100
        assert np.all(np.diff(losses) <= 1e-12)

    def test_trees_respect_depth_bound(self):
        model, _, _ = xor_model()
        assert all(tree_depth(t) <= 3 for t in model.trees)

    def test_splits_stay_inside_sampled_feature_subset(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(150, 6))
        y = (x[:, 2] > 0).astype(np.float64)
        cfg = GBDTConfig(n_trees=40, max_depth=3, feature_sample_rate=0.5, seed=4)
        model = gbdt_fit(x, y, cfg)
        assert len(model.feature_subsets) == 40
        for tree, feats in zip(model.trees, model.feature_subsets):
            used = split_features(tree, set())
            assert used <= {int(f) for f in feats}

    def test_deterministic_for_fixed_seed(self):
        x, y = xor_dataset(seed=5)
        cfg = GBDTConfig(n_trees=30, max_depth=3, seed=7)
        a = gbdt_fit(x, y, cfg)
        b = gbdt_fit(x, y, cfg)
        assert np.array_equal(gbdt_predict_batch(a, x), gbdt_predict_batch(b, x))

    def test_single_class_labels_rejected(self):
        x = np.zeros((20, 1))
        with pytest.raises(ValueError, match="single class"):
            gbdt_fit(x, np.zeros(20), GBDTConfig(n_trees=1))
        with pytest.raises(ValueError, match="single class"):
            gbdt_fit(x, np.ones(20), GBDTConfig(n_trees=1))

    def test_shape_mismatch_rejected(self):
        x = np.zeros((10, 2))
        with pytest.raises(ValueError, match="got"):
            gbdt_fit(x, np.zeros(9), GBDTConfig(n_trees=1))

    def test_leaf_values_finite(self):
        model, _, _ = xor_model()

        def check(node):
            if node.is_leaf:
                assert math.isfinite(node.value)
            else:
                check(node.left)
                check(node.right)

        for tree in model.trees:
            check(tree)


def random_split_block(rng, n, p):
    """Feature matrix with heavy duplicates, a constant column and a repeated column."""
    x = np.round(rng.normal(size=(n, p)), int(rng.integers(0, 3)))
    x[:, 0] = 1.5
    x[:, -1] = x[:, 1]
    prob = rng.uniform(0.05, 0.95, size=n)
    y = (rng.random(n) < 0.4).astype(np.float64)
    return x, prob - y, prob * (1.0 - prob)


class TestSplitSearch:
    def test_matches_per_feature_loop_on_random_blocks(self):
        rng = np.random.default_rng(11)
        found = 0
        for trial in range(300):
            n, p = int(rng.integers(2, 40)), int(rng.integers(2, 7))
            x, g, h = random_split_block(rng, n, p)
            rows = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
            feats = np.sort(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False))
            # boundaries: every cut allowed, only the middle cut(s), none at all
            for min_leaf in (1, len(rows) // 2, (len(rows) + 1) // 2, len(rows) // 2 + 1, 3):
                min_leaf = max(1, min_leaf)
                want = loop_best_split(x, g, h, rows, feats, min_leaf, L2_LAMBDA)
                got = gbdt._best_split(x, g, h, rows, feats, min_leaf)
                assert got == want, (trial, min_leaf)
                found += want is not None
        assert found >= 300

    def test_equal_columns_tie_to_first_feature(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.full(4, 0.25)
        gain, feature, threshold = gbdt._best_split(x, g, h, np.arange(4), np.array([0, 1]), 1)
        assert (feature, threshold) == (0, 1.5)
        assert gain > 0.0

    def test_equal_cuts_tie_to_lowest_threshold(self):
        # cuts after rows 0 and 2 mirror each other and gain exactly the same
        x = np.array([[3.0, 0.0], [2.0, 1.0], [1.0, 2.0], [0.0, 3.0]])
        g = np.array([1.0, -1.0, -1.0, 1.0])
        h = np.full(4, 0.25)
        rows, feats = np.arange(4), np.array([0, 1])
        want = loop_best_split(x, g, h, rows, feats, 1, L2_LAMBDA)
        assert gbdt._best_split(x, g, h, rows, feats, 1) == want
        assert want[1:] == (0, 0.5)

    def test_zero_gain_is_no_split(self):
        x = np.arange(12.0).reshape(6, 2)
        zero = np.zeros(6)
        assert gbdt._best_split(x, zero, np.full(6, 0.25), np.arange(6), np.array([0, 1]), 1) is None

    def test_fit_writes_identical_model_with_loop_oracle(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(12)
        x = np.round(rng.normal(size=(150, 6)), 1)
        x[:, 3] = 0.0
        y = (x[:, 0] + x[:, 1] ** 2 > 0.5).astype(np.float64)
        cfg = GBDTConfig(n_trees=40, max_depth=4, min_samples_leaf=3, seed=13)
        save_gbdt(gbdt_fit(x, y, cfg), str(tmp_path / "vectorised.model"))
        monkeypatch.setattr(
            gbdt,
            "_best_split",
            lambda x, g, h, rows, feats, min_leaf: loop_best_split(
                x, g, h, rows, feats, min_leaf, L2_LAMBDA
            ),
        )
        save_gbdt(gbdt_fit(x, y, cfg), str(tmp_path / "loop.model"))
        vectorised = (tmp_path / "vectorised.model").read_bytes()
        assert vectorised == (tmp_path / "loop.model").read_bytes()
        assert vectorised.count(b"split ") >= 40


class TestPredict:
    def test_zero_trees_give_base_rate(self):
        # 3 positives out of 12 -> log-odds of 0.25
        base = math.log(3 / 9)
        model = GBDTModel(base, 0.1, 4, [])
        assert gbdt_predict(model, np.zeros(4)) == pytest.approx(0.25, abs=1e-12)

    def test_xor_corner_scores_high(self):
        model, _, _ = xor_model()
        assert gbdt_predict(model, np.array([0.5, -0.5])) > 0.5
        assert gbdt_predict(model, np.array([-0.5, 0.5])) > 0.5
        assert gbdt_predict(model, np.array([0.5, 0.5])) < 0.5

    def test_batch_matches_pointwise(self):
        model, x, _ = xor_model()
        batch = gbdt_predict_batch(model, x[:25])
        single = np.array([gbdt_predict(model, row) for row in x[:25]])
        assert np.array_equal(batch, single)

    def test_prediction_shape_errors(self):
        model = GBDTModel(0.0, 0.1, 3, [])
        with pytest.raises(ValueError, match="does not match"):
            gbdt_predict(model, np.zeros(4))
        with pytest.raises(ValueError, match="does not match"):
            gbdt_predict_batch(model, np.zeros((5, 2)))

    def test_probabilities_in_unit_interval(self):
        model, x, _ = xor_model()
        probs = gbdt_predict_batch(model, x)
        assert np.all((probs > 0.0) & (probs < 1.0))


class TestSerialization:
    def fit_small(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 3))
        y = (x[:, 0] > 0.2).astype(np.float64)
        return gbdt_fit(x, y, GBDTConfig(n_trees=12, max_depth=3, seed=9)), x

    def test_round_trip_preserves_predictions_exactly(self, tmp_path):
        model, x = self.fit_small()
        path = tmp_path / "gbdt.model"
        save_gbdt(model, str(path))
        loaded = load_gbdt(str(path))
        assert loaded.n_features == model.n_features
        assert np.array_equal(gbdt_predict_batch(loaded, x), gbdt_predict_batch(model, x))

    def test_second_save_is_byte_identical(self, tmp_path):
        model, _ = self.fit_small()
        p1 = tmp_path / "one.model"
        p2 = tmp_path / "two.model"
        save_gbdt(model, str(p1))
        save_gbdt(load_gbdt(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("not a model\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match=":1"):
            load_gbdt(str(path))

    def test_bad_scalar_line(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("gbdt-model v1\nbase_score x\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match=":2.*base_score"):
            load_gbdt(str(path))

    def test_truncated_tree(self, tmp_path):
        model, _ = self.fit_small()
        path = tmp_path / "cut.model"
        save_gbdt(model, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:8]) + "\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="truncated"):
            load_gbdt(str(path))

    def test_split_feature_out_of_range(self, tmp_path):
        path = tmp_path / "range.model"
        path.write_text(
            "gbdt-model v1\nbase_score 0\nlearning_rate 0.1\nn_features 2\nn_trees 1\n"
            "tree 0 3\nsplit 5 0.0\nleaf 1\nleaf -1\nend\n",
            encoding="utf-8",
        )
        with pytest.raises(ModelFormatError, match="out of range"):
            load_gbdt(str(path))

    def test_non_integer_node_count_names_line(self, tmp_path):
        path = tmp_path / "count.model"
        path.write_text(
            "gbdt-model v1\nbase_score 0\nlearning_rate 0.1\nn_features 2\nn_trees 1\n"
            "tree 0 x\nleaf 0.5\nend\n",
            encoding="utf-8",
        )
        with pytest.raises(ModelFormatError, match=r"count\.model:6: bad node count 'x' for tree 0$"):
            load_gbdt(str(path))

    def test_node_count_mismatch(self, tmp_path):
        path = tmp_path / "count.model"
        path.write_text(
            "gbdt-model v1\nbase_score 0\nlearning_rate 0.1\nn_features 2\nn_trees 1\n"
            "tree 0 5\nsplit 0 0.0\nleaf 1\nleaf -1\nend\n",
            encoding="utf-8",
        )
        with pytest.raises(ModelFormatError, match="header says 5"):
            load_gbdt(str(path))

    def test_missing_end(self, tmp_path):
        path = tmp_path / "end.model"
        path.write_text(
            "gbdt-model v1\nbase_score 0\nlearning_rate 0.1\nn_features 2\nn_trees 1\n"
            "tree 0 1\nleaf 0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ModelFormatError, match="end"):
            load_gbdt(str(path))
