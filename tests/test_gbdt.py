import math
import re
import tracemalloc

import numpy as np
import pytest

from fraudring.baselines import gbdt
from fraudring.baselines.gbdt import (
    L2_LAMBDA,
    GBDTConfig,
    GBDTModel,
    ModelFormatError,
    gbdt_fit,
    gbdt_predict_batch,
    load_gbdt,
    save_gbdt,
)
from fraudring.geniepath import sigmoid
from reference import (
    Node,
    block_sort_best_split,
    flatten_trees,
    gbdt_predict,
    loop_best_split,
    node_gbdt_fit,
    node_load_gbdt,
    node_predict_batch,
)


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


def node_depths(model):
    """Each node's depth below its tree's root, from the flat layout."""
    depth = np.zeros(len(model.feature), dtype=np.int64)
    for k in np.flatnonzero(model.feature >= 0):  # preorder: a parent before its children
        depth[k + 1] = depth[model.right[k]] = depth[k] + 1
    return depth


def tree_slices(model):
    ends = [*model.roots[1:].tolist(), len(model.feature)]
    return [slice(start, end) for start, end in zip(model.roots.tolist(), ends)]


def split_features(model, tree):
    features = model.feature[tree]
    return {int(f) for f in features[features >= 0]}


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
        depths = node_depths(model)
        assert all(depths[tree].max() <= 3 for tree in tree_slices(model))

    def test_splits_stay_inside_sampled_feature_subset(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(150, 6))
        y = (x[:, 2] > 0).astype(np.float64)
        cfg = GBDTConfig(n_trees=40, max_depth=3, feature_sample_rate=0.5, seed=4)
        model = gbdt_fit(x, y, cfg)
        assert len(model.feature_subsets) == 40
        for tree, feats in zip(tree_slices(model), model.feature_subsets):
            used = split_features(model, tree)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        x, y = np.arange(10.0).reshape(5, 2), np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        x[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            gbdt_fit(x, y, GBDTConfig(n_trees=1))
        x[3, 1] = 0.0
        y[2] = bad
        with pytest.raises(ValueError, match="finite"):
            gbdt_fit(x, y, GBDTConfig(n_trees=1))

    @pytest.mark.parametrize("below, above", [
        (1.0, np.nextafter(1.0, 2.0)),  # the midpoint rounds onto the lower value
        (1e308, 1.5e308),  # the midpoint overflows to inf
        (-1.5e308, -1e308),  # ... and to -inf
    ])
    def test_separable_column_splits_at_the_upper_value(self, tmp_path, below, above):
        x = np.array([[below]] * 6 + [[above]] * 6)
        y = np.array([0.0] * 6 + [1.0] * 6)
        cfg = GBDTConfig(n_trees=5, max_depth=1, row_sample_rate=1.0, feature_sample_rate=1.0,
                         learning_rate=0.5, min_samples_leaf=1)
        model = gbdt_fit(x, y, cfg)
        assert model.threshold[model.feature >= 0].tolist() == [above] * 5
        scores = gbdt_predict_batch(model, x)
        assert scores[6:].min() > 0.5 > scores[:6].max()
        save_gbdt(model, str(tmp_path / "gbdt.model"))
        assert np.array_equal(gbdt_predict_batch(load_gbdt(str(tmp_path / "gbdt.model")), x), scores)

    def test_leaf_values_finite(self):
        model, _, _ = xor_model()
        for tree in tree_slices(model):
            leaves = model.value[tree][model.feature[tree] < 0]
            assert len(leaves) and all(math.isfinite(v) for v in leaves)


def random_split_block(rng, n, p):
    """Feature matrix with heavy duplicates, a constant column and a repeated column."""
    x = np.round(rng.normal(size=(n, p)), int(rng.integers(0, 3)))
    x[:, 0] = 1.5
    x[:, -1] = x[:, 1]
    prob = rng.uniform(0.05, 0.95, size=n)
    y = (rng.random(n) < 0.4).astype(np.float64)
    return x, prob - y, prob * (1.0 - prob)


def presorted_split(x, g, h, rows, feats, min_leaf):
    """gbdt._best_split on the sorted lists gbdt_fit hands the root of a tree over rows and feats."""
    srt = gbdt._sorted_rows(np.argsort(x, axis=0, kind="stable").T, rows, feats)
    return gbdt._best_split(np.ascontiguousarray(x.T), np.stack([g, h]), rows, srt, feats, min_leaf)


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
                got = presorted_split(x, g, h, rows, feats, min_leaf)
                assert got == want, (trial, min_leaf)
                found += want is not None
        assert found >= 300

    def test_matches_block_sort_on_random_blocks(self):
        """Bit for bit against the search that sorts every node's block, on the lists of a node deep in a tree."""
        rng = np.random.default_rng(14)
        found = 0
        for trial in range(300):
            n, p = int(rng.integers(2, 50)), int(rng.integers(1, 6))
            x = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], size=(n, p))  # -0.0 ties with 0.0
            x[:, rng.integers(p)] = 0.5  # a constant column
            if trial % 3:
                x[:, 0] += np.round(rng.normal(size=n), 1)
            prob = rng.uniform(0.05, 0.95, size=n)
            g, h = prob - (rng.random(n) < 0.4), prob * (1.0 - prob)
            feats = np.sort(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False))
            # the node's lists, cut down from the whole block's as a split would partition them
            node = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
            srt = gbdt._sorted_rows(np.argsort(x, axis=0, kind="stable").T, np.arange(n), feats)
            keep = np.isin(srt, node)
            srt = srt[keep].reshape(len(feats), len(node))
            r = len(node)
            for min_leaf in {1, max(1, r // 2), r // 2 + 1}:
                want = block_sort_best_split(x, g, h, node, feats, min_leaf)
                got = gbdt._best_split(np.ascontiguousarray(x.T), np.stack([g, h]), node, srt, feats, min_leaf)
                assert got == want, (trial, min_leaf)
                found += want is not None
        assert found >= 300

    @pytest.mark.parametrize("below, above", [(1.0, np.nextafter(1.0, 2.0)), (1e308, 1.5e308), (-1.5e308, -1e308)])
    def test_threshold_is_the_upper_value_when_the_midpoint_is_not_between(self, below, above):
        x = np.array([[below], [below], [above], [above]])
        g, h = np.array([1.0, 1.0, -1.0, -1.0]), np.full(4, 0.25)
        rows, feats = np.arange(4), np.array([0])
        want = loop_best_split(x, g, h, rows, feats, 1, L2_LAMBDA)
        assert want[1:] == (0, above)
        assert presorted_split(x, g, h, rows, feats, 1) == want == block_sort_best_split(x, g, h, rows, feats, 1)

    def test_equal_columns_tie_to_first_feature(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.full(4, 0.25)
        gain, feature, threshold = presorted_split(x, g, h, np.arange(4), np.array([0, 1]), 1)
        assert (feature, threshold) == (0, 1.5)
        assert gain > 0.0

    def test_equal_cuts_tie_to_lowest_threshold(self):
        # cuts after rows 0 and 2 mirror each other and gain exactly the same
        x = np.array([[3.0, 0.0], [2.0, 1.0], [1.0, 2.0], [0.0, 3.0]])
        g = np.array([1.0, -1.0, -1.0, 1.0])
        h = np.full(4, 0.25)
        rows, feats = np.arange(4), np.array([0, 1])
        want = loop_best_split(x, g, h, rows, feats, 1, L2_LAMBDA)
        assert presorted_split(x, g, h, rows, feats, 1) == want
        assert want[1:] == (0, 0.5)

    def test_zero_gain_is_no_split(self):
        x = np.arange(12.0).reshape(6, 2)
        zero = np.zeros(6)
        assert presorted_split(x, zero, np.full(6, 0.25), np.arange(6), np.array([0, 1]), 1) is None

    def test_fit_hands_every_node_its_rows_sorted_by_value_then_row_id(self, monkeypatch):
        rng = np.random.default_rng(15)
        x = rng.choice([-1.0, -0.0, 0.0, 2.0], size=(300, 5))
        y = (x[:, 0] + rng.normal(size=300) > 0).astype(np.float64)
        seen = []

        def checked(xt, gh, rows, srt, feats, min_leaf):
            values = xt[feats[:, None], srt]
            assert np.array_equal(np.sort(srt, axis=1), np.broadcast_to(rows, srt.shape))
            ties = values[:, 1:] == values[:, :-1]
            assert (values[:, 1:] >= values[:, :-1]).all() and (srt[:, 1:] > srt[:, :-1])[ties].all()
            seen.append(len(rows))
            return gbdt_split(xt, gh, rows, srt, feats, min_leaf)

        gbdt_split = gbdt._best_split
        monkeypatch.setattr(gbdt, "_best_split", checked)
        gbdt_fit(x, y, GBDTConfig(n_trees=8, max_depth=4, min_samples_leaf=3, seed=16))
        assert len(seen) > 8 * 3 and min(seen) < 100

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
            lambda xt, gh, rows, srt, feats, min_leaf: loop_best_split(
                xt.T, gh[0], gh[1], rows, feats, min_leaf, L2_LAMBDA
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
        model = GBDTModel(base, 0.1, 4)
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
        model = GBDTModel(0.0, 0.1, 3)
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

    def test_crlf_loads_the_same_arrays_and_lines_after_end_are_not_read(self, tmp_path):
        model, _ = self.fit_small()
        path = tmp_path / "gbdt.model"
        save_gbdt(model, str(path))
        want = load_gbdt(str(path))
        text = path.read_text(encoding="utf-8")
        for name, edited in (("crlf", text.replace("\n", "\r\n")), ("tail", text + "leaf nan\ntree 0 x\n\nnot a model\n")):
            (tmp_path / name).write_text(edited, encoding="utf-8", newline="")
            got = load_gbdt(str(tmp_path / name))
            scalars = (got.base_score, got.learning_rate, got.n_features)
            assert scalars == (want.base_score, want.learning_rate, want.n_features), name
            assert same_layout(got, (want.roots, want.feature, want.threshold, want.value, want.right)), name

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

    def test_tree_deeper_than_the_recursion_limit_loads(self, tmp_path):
        # a left chain of 1500 splits: its leftmost leaf, then each split's right leaf, deepest first
        depth = 1500
        lines = ["gbdt-model v1", "base_score 0", "learning_rate 0.5", "n_features 1", "n_trees 1",
                 f"tree 0 {2 * depth + 1}", *["split 0 0.5"] * depth, "leaf 2", *["leaf 1"] * (depth - 1), "leaf -3",
                 "end"]
        path = tmp_path / "deep.model"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model = load_gbdt(str(path))
        assert np.array_equal(gbdt_predict_batch(model, np.array([[0.0], [1.0]])), sigmoid(np.array([1.0, -1.5])))
        save_gbdt(model, str(tmp_path / "again.model"))
        assert (tmp_path / "again.model").read_bytes() == path.read_bytes()

    def test_missing_end(self, tmp_path):
        path = tmp_path / "end.model"
        path.write_text(
            "gbdt-model v1\nbase_score 0\nlearning_rate 0.1\nn_features 2\nn_trees 1\n"
            "tree 0 1\nleaf 0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ModelFormatError, match="end"):
            load_gbdt(str(path))


MODEL_TEXT = (
    "gbdt-model v1\nbase_score 0\nlearning_rate 0.1\nn_features 2\nn_trees 2\n"
    "tree 0 3\nsplit 1 0.5\nleaf 1\nleaf -1\ntree 1 1\nleaf 0.25\nend\n"
)


def write_edited(path, edits):
    lines = MODEL_TEXT.splitlines()
    for lineno, text in edits.items():
        lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestNonFiniteModels:
    @pytest.mark.parametrize(
        "lineno, text, message",
        [
            (2, "base_score nan", "base_score must be finite, got 'nan'"),
            (3, "learning_rate inf", "learning_rate must be finite, got 'inf'"),
            (4, "n_features 0", "n_features must be >= 1, got '0'"),
            (5, "n_trees -1", "n_trees must be >= 0, got '-1'"),
            (7, "split 0 nan", "non-finite split threshold 'nan'"),
            (7, "split 2 nan", "split feature 2 out of range"),
            (8, "leaf inf", "non-finite leaf value 'inf'"),
            (11, "leaf -inf", "non-finite leaf value '-inf'"),
        ],
    )
    def test_rejected_at_their_line(self, tmp_path, lineno, text, message):
        path = write_edited(tmp_path / "bad.model", {lineno: text})
        with pytest.raises(ModelFormatError) as err:
            load_gbdt(path)
        assert str(err.value) == f"{path}:{lineno}: {message}"

    def test_first_bad_line_wins(self, tmp_path):
        path = write_edited(tmp_path / "bad.model", {8: "leaf nan", 10: "tree 1 x"})
        with pytest.raises(ModelFormatError, match=r"bad\.model:8: non-finite leaf value 'nan'$"):
            load_gbdt(path)

    def test_finite_edit_loads(self, tmp_path):
        model = load_gbdt(write_edited(tmp_path / "ok.model", {2: "base_score -1e300", 5: "n_trees 2"}))
        assert model.base_score == -1e300
        assert np.all(np.isfinite(gbdt_predict_batch(model, np.array([[0.0, 0.0], [0.0, 1.0]]))))


def random_node_tree(rng, depth, p, values, root=True):
    """A random Node tree of at most depth levels that splits at its root if it may.

    Thresholds are drawn from values, so rows whose feature equals a threshold occur.
    """
    if depth == 0 or (not root and rng.random() < 0.3):
        return Node(value=float(rng.normal()))
    node = Node(feature=int(rng.integers(p)), threshold=float(rng.choice(values)))
    node.left = random_node_tree(rng, depth - 1, p, values, False)
    node.right = random_node_tree(rng, depth - 1, p, values, False)
    return node


def flat_model(base, lr, p, trees):
    return GBDTModel(base, lr, p, *flatten_trees(trees))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_layout(model, want):
    got = (model.roots, model.feature, model.threshold, model.value, model.right)
    return all(same_bits(a, b) for a, b in zip(got, want))


class TestFlatLayoutOracles:
    # one cell and seven route one row per block past that many trees
    @pytest.mark.parametrize("cells", [1, 7, 64, gbdt.BLOCK_CELLS])
    def test_predict_matches_recursive_walk_bit_for_bit(self, tmp_path, monkeypatch, cells):
        monkeypatch.setattr(gbdt, "BLOCK_CELLS", cells)
        rng = np.random.default_rng(21)
        for trial in range(80):
            p, n = int(rng.integers(1, 6)), int(rng.integers(0, 40))
            x = np.round(rng.normal(size=(n, p)), 1)
            values = np.concatenate([x.ravel(), rng.normal(size=2)])
            # zero trees, single leaves, stumps, and trees up to depth 9
            n_trees, depth = [(0, 0), (int(rng.integers(1, 4)), 0), (int(rng.integers(1, 30)), 1),
                              (int(rng.integers(1, 30)), int(rng.integers(2, 10)))][trial % 4]
            trees = [random_node_tree(rng, depth, p, values) for _ in range(n_trees)]
            base, lr = float(rng.normal()), float(rng.uniform(0.01, 1.0))
            want = sigmoid(node_predict_batch(base, lr, trees, x))
            model = flat_model(base, lr, p, trees)
            assert same_bits(gbdt_predict_batch(model, x), want), trial
            path = str(tmp_path / f"{trial}.model")
            save_gbdt(model, path)
            loaded = load_gbdt(path)
            assert same_layout(loaded, flatten_trees(node_load_gbdt(path)[3])), trial
            assert same_bits(gbdt_predict_batch(loaded, x), want), trial

    @pytest.mark.parametrize("scale", [1, 4, 16])
    def test_predict_peak_memory_does_not_grow_with_rows(self, scale):
        rng = np.random.default_rng(24)
        values = rng.normal(size=50)
        model = flat_model(0.1, 0.3, 4, [random_node_tree(rng, 3, 4, values) for _ in range(500)])
        x = rng.normal(size=(1000 * scale, 4))
        tracemalloc.start()
        try:
            gbdt_predict_batch(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the margins and the sigmoid's temporaries take a few floats a row; the routing arrays a fixed budget
        assert peak - 64 * len(x) <= 8 * gbdt.BLOCK_CELLS * 8

    def test_predict_sends_nan_right_as_the_recursive_walk(self):
        trees = [random_node_tree(np.random.default_rng(s), 3, 2, np.array([0.0, 1.0])) for s in range(5)]
        x = np.array([[np.nan, 0.0], [0.0, np.nan], [np.inf, -np.inf], [1.0, 0.0]])
        want = sigmoid(node_predict_batch(0.5, 0.3, trees, x))
        assert same_bits(gbdt_predict_batch(flat_model(0.5, 0.3, 2, trees), x), want)

    def test_fit_matches_node_tree_fit_bit_for_bit(self):
        rng = np.random.default_rng(22)
        for trial in range(16):
            n, p = int(rng.integers(10, 70)), int(rng.integers(1, 6))
            x = np.round(rng.normal(size=(n, p)), int(rng.integers(0, 2)))
            if trial % 2:
                x[:, 0] = 0.5  # a constant column
            y = (rng.random(n) < 0.4).astype(np.float64)
            y[:2] = [0.0, 1.0]
            min_leaf = int(rng.choice([1, 2, max(1, n // 4), n // 2, n]))
            cfg = GBDTConfig(
                n_trees=int(rng.integers(1, 12)), max_depth=int(rng.choice([1, 2, 5, 8])),
                row_sample_rate=float(rng.choice([0.5, 1.0])), feature_sample_rate=float(rng.choice([0.5, 1.0])),
                learning_rate=0.3, min_samples_leaf=min_leaf, seed=trial,
            )
            model = gbdt_fit(x, y, cfg)
            base, trees, losses = node_gbdt_fit(x, y, cfg)
            assert model.base_score == base and model.train_loss_history == losses
            assert same_layout(model, flatten_trees(trees)), trial
            assert same_bits(gbdt_predict_batch(model, x), sigmoid(node_predict_batch(base, 0.3, trees, x)))

    def test_mutated_files_fail_or_load_as_the_recursive_loader(self, tmp_path):
        rng = np.random.default_rng(23)
        edits = [
            "", "end", "leaf 0.5", "leaf", "leaf x", "leaf nan", "leaf -inf", "leaf 1 2", " leaf  0.25 ", "leaf 1_0",
            "split 0 0.5", "split 1 1e400", "split -1 0", "split 3 0", "split 99999999999999999999 0", "split x 0",
            "split 0", "split\t1\t0.5", "tree 0 3", "tree 1 1", "tree 0 x", "tree 1 x", "tree 1 -1",
            "tree 0 99999999999999999999", "n_trees 5", "n_trees 0", "n_trees -1", "n_features 0", "n_features 1",
            "base_score nan", "gbdt-model v1",
        ]
        texts = []
        for seed in range(4):
            trees = [random_node_tree(rng, int(rng.integers(0, 4)), 3, np.arange(3.0)) for _ in range(seed + 1)]
            path = str(tmp_path / "base.model")
            save_gbdt(flat_model(0.1, 0.2, 3, trees), path)
            texts.append(open(path, encoding="utf-8").read().splitlines())
        outcomes = set()
        for trial in range(600):
            lines = list(texts[trial % len(texts)])
            for _ in range(int(rng.integers(1, 3))):
                i = int(rng.integers(len(lines)))
                op = int(rng.integers(5))
                if op == 4:
                    del lines[max(i, 1):]
                elif op == 0:
                    lines[i] = str(rng.choice(edits))
                elif op == 1:
                    del lines[i]
                elif op == 2:
                    lines.insert(i, lines[i])
                elif lines[i].startswith("tree "):
                    head, _, count = lines[i].rpartition(" ")
                    lines[i] = f"{head} {int(count) + int(rng.choice([-1, 1]))}"
            path = tmp_path / f"m{trial}.model"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                want = node_load_gbdt(str(path))
            except ModelFormatError as e:
                with pytest.raises(ModelFormatError) as err:
                    load_gbdt(str(path))
                assert str(err.value) == str(e), trial
                outcomes.add(re.sub(r"'.*'|-?\d+", "#", str(e).split(": ", 1)[1]))
                continue
            model = load_gbdt(str(path))
            assert (model.base_score, model.learning_rate, model.n_features) == want[:3]
            assert same_layout(model, flatten_trees(want[3])), trial
            outcomes.add("loaded")
        assert len(outcomes) >= 18, sorted(outcomes)
