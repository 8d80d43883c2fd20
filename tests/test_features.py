from collections import Counter

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
from fraudring.baselines.gbdt import GBDTConfig, ModelFormatError, gbdt_fit, load_gbdt, save_gbdt
from fraudring.baselines.node2vec import Embeddings, load_embeddings, save_embeddings
from fraudring.geniepath import CheckpointFormatError, init_params, load_params, save_params
from fraudring.graph import (
    ClaimEvent,
    ClaimLog,
    DeviceSharingGraph,
    GraphFormatError,
    LoginEvent,
    LoginLog,
    WindowConfig,
    build_graph,
    load_claim_events,
    load_graph,
    load_login_events,
    prune_singletons,
    save_claim_events,
    save_graph,
    save_login_events,
)
from reference import (
    line_by_line_embeddings,
    line_by_line_features,
    line_by_line_ground_truth,
    per_value_save_features,
    per_value_save_ground_truth,
)
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


# -0.0, subnormals, the largest magnitudes, non-finite values and exact decimals
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 1e300, -1e300, 1.7976931348623157e308,
    np.nan, np.inf, -np.inf, 0.1, 123456789.0, 1e16, -1.5,
]


def random_feature_dataset(rng):
    """A dataset over a random bipartite graph whose features mix edge values, values with a 5 in their 10th
    significant digit (they round at the 9th), and normal draws."""
    g = random_bipartite(rng, int(rng.integers(1, 40)), int(rng.integers(1, 6)), 0.3)
    n, dim = len(g.account_indices()), int(rng.integers(1, 9))
    x = rng.normal(scale=10.0 ** rng.integers(-5, 6), size=(n, dim))
    digits = rng.integers(10**8, 10**9, size=(n, dim)) * 10 + 5
    tenth_digit = digits * 10.0 ** rng.integers(-20, 10, size=(n, dim))
    x = np.where(rng.random((n, dim)) < 0.3, tenth_digit * rng.choice([-1.0, 1.0], size=(n, dim)), x)
    x = np.where(rng.random((n, dim)) < 0.3, rng.choice(EDGE_VALUES, size=(n, dim)), x)
    return make_dataset(g, x, high_risk=rng.random(n) < 0.4, truth=rng.random(n) < 0.2)


class TestSaversMatchPerValueOracles:
    """The savers write the bytes that formatting one value at a time wrote."""

    @pytest.mark.parametrize("seed", range(8))
    def test_features_and_ground_truth_are_byte_identical(self, tmp_path, seed):
        ds = random_feature_dataset(np.random.default_rng(seed))
        for save, oracle, name in (
            (save_features, per_value_save_features, "features.tsv"),
            (save_ground_truth, per_value_save_ground_truth, "ground_truth.tsv"),
        ):
            save(ds, tmp_path / name)
            oracle(ds, tmp_path / f"oracle_{name}")
            assert (tmp_path / name).read_bytes() == (tmp_path / f"oracle_{name}").read_bytes(), name

    def test_every_edge_value_is_written_as_the_oracle_writes_it(self, tmp_path):
        n = len(EDGE_VALUES)
        ds = make_dataset(star_graph(n), np.array([EDGE_VALUES, EDGE_VALUES[::-1]]).T)
        save_features(ds, tmp_path / "f.tsv")
        per_value_save_features(ds, tmp_path / "oracle.tsv")
        assert (tmp_path / "f.tsv").read_bytes() == (tmp_path / "oracle.tsv").read_bytes()
        assert "-0\t" in (tmp_path / "f.tsv").read_text(encoding="utf-8")

    def test_integer_and_float32_features_match_the_oracle(self, tmp_path):
        g = star_graph(3)
        ds = make_dataset(g, np.zeros((3, 2)), high_risk=[True, False, True], truth=[False, True, False])
        ds.features = np.array([[1, -2], [3, 2**40], [0, 7]], dtype=np.int64)
        for features in (ds.features, ds.features.astype(np.float32) / 3):
            ds.features = features
            save_features(ds, tmp_path / "f.tsv")
            per_value_save_features(ds, tmp_path / "oracle.tsv")
            assert (tmp_path / "f.tsv").read_bytes() == (tmp_path / "oracle.tsv").read_bytes(), features.dtype


class TestLoadersMatchLineByLine:
    """Random files, every defect kind among them, read by the columnar loaders and the line-by-line references."""

    VALUES = ["0", "1.5", "-2e-3", "1_0", " 7", "-0", "+3", "1e300"]
    BAD_VALUES = ["nan", "inf", "-inf", "NaN", "1e999", "x", "", "0x1", "1__0", "1,5"]
    BLANKS = ["", " ", "\t", " \t "]

    @staticmethod
    def pick(rng, options):
        return options[rng.integers(len(options))]

    def random_graph(self, rng):
        """Up to 4 accounts and 3 devices in random node order; a device may share an account's id."""
        accounts = list(rng.permutation(["a0", "a1", "a2", "x", "\u00e9"])[: rng.integers(0, 5)])
        devices = list(rng.permutation(["d0", "d1", "x", "a0"])[: rng.integers(0, 4)])
        kinds = rng.permutation([True] * len(accounts) + [False] * len(devices))
        pools = {True: iter(accounts), False: iter(devices)}
        return DeviceSharingGraph([next(pools[bool(k)]) for k in kinds], kinds, [])

    def mutate_fields(self, rng, rows, replacements):
        """Up to 3 field defects, often two on one row: a field dropped or added, or a field replaced."""
        for _ in range(rng.integers(0, 4)):
            if not rows:
                return
            row = rows[rng.integers(len(rows))]
            if rng.random() < 0.2:
                if row and rng.random() < 0.5:
                    row.pop(rng.integers(len(row)))
                else:
                    row.insert(rng.integers(len(row) + 1), self.pick(rng, self.VALUES))
            elif row:
                col = rng.integers(len(row))
                row[col] = self.pick(rng, replacements[min(col, len(replacements) - 1)])

    def write(self, rng, path, header, rows, extra_ids):
        """Rows joined as lines, then rows repeated, dropped, added with extra_ids, and blank lines put in."""
        lines = ["\t".join(row) for row in rows]
        for _ in range(rng.integers(0, 3)):
            kind = rng.integers(4)
            if kind == 0 and lines:
                lines.insert(rng.integers(len(lines) + 1), self.pick(rng, lines))
            elif kind == 1 and lines:
                lines.pop(rng.integers(len(lines)))
            elif kind == 2:
                extra = [self.pick(rng, extra_ids)] + (lines[0].split("\t")[1:] if lines else [])
                lines.insert(rng.integers(len(lines) + 1), "\t".join(extra))
            elif kind == 3 and len(lines) > 1:
                i, j = rng.choice(len(lines), size=2, replace=False)
                lines[i], lines[j] = lines[j], lines[i]
        for _ in range(rng.integers(0, 3)):
            lines.insert(rng.integers(len(lines) + 1), self.pick(rng, self.BLANKS))
        if header is not None:
            lines.insert(0, header)
        end = self.pick(rng, ["\n", "\r\n"])
        text = end.join(lines) + (end if lines and rng.random() < 0.8 else "")
        path.write_text(text, encoding="utf-8", newline="")

    @staticmethod
    def outcome(load, *args):
        """(None, what load returns), or the type and message of the ValueError it raises and None."""
        try:
            return None, load(*args)
        except ValueError as e:
            return (type(e), str(e)), None

    @staticmethod
    def same_arrays(got, want):
        return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def check(self, make_file, load, reference, kinds, seed):
        rng = np.random.default_rng(seed)
        seen = Counter()
        for trial in range(600):
            g = self.random_graph(rng)
            path = make_file(rng, g, trial)
            want_error, want = self.outcome(reference, path, g)
            got_error, got = self.outcome(load, path, g)
            assert got_error == want_error, trial
            if want_error:
                seen.update(kind for kind in kinds if kind in want_error[1])
            else:
                seen["loaded"] += 1
                yield got, want, g
        assert all(seen[kind] >= 5 for kind in kinds + ["loaded"]), seen

    def features_file(self, tmp_path):
        def make(rng, g, trial):
            p = int(rng.integers(1, 4))
            header = "\t".join(["account_id", "tag"] + [f"f{j}" for j in range(p)])
            if rng.random() < 0.05:
                header = self.pick(rng, ["account_id\ttag", "id\ttag\tf0", "", " "])
            tags = ["HIGH_RISK", "NO_OBSERVABLE_RISK"]
            accounts = [ext for ext, account in zip(g.ids, g.is_account) if account]
            rows = [[ext, self.pick(rng, tags)] + [self.pick(rng, self.VALUES) for _ in range(p)]
                    for ext in rng.permutation(accounts).tolist()]
            ids = ["ghost", " a0", "", "d0", "a0"]
            self.mutate_fields(rng, rows, [ids, ["MEDIUM", "", "high_risk", " HIGH_RISK"] + tags,
                                           self.BAD_VALUES + self.VALUES])
            path = tmp_path / f"features{trial}.tsv"
            self.write(rng, path, header, rows, ids)
            if rng.random() < 0.03:
                path.write_text(self.pick(rng, ["", "\n"]), encoding="utf-8")
            return path
        return make

    def test_features(self, tmp_path):
        kinds = ["expected", "unknown account id", "unknown tag", "non-numeric", "non-finite",
                 "duplicate row for account", "no row for", "bad header", "empty features file"]
        checks = self.check(self.features_file(tmp_path), load_features, line_by_line_features, kinds, 27)
        for got, (features, high_risk), g in checks:
            assert got.graph is g
            assert self.same_arrays(got.features, features)
            assert self.same_arrays(got.high_risk, high_risk)
            assert not got.is_test.any() and got.is_test.shape == high_risk.shape

    def test_ground_truth(self, tmp_path):
        def make(rng, g, trial):
            header = "account_id\tis_fraud" if rng.random() < 0.95 else self.pick(rng, ["account_id", " "])
            accounts = [ext for ext, account in zip(g.ids, g.is_account) if account]
            rows = [[ext, self.pick(rng, ["0", "1"])] for ext in rng.permutation(accounts).tolist()]
            ids = ["ghost", " a0", "", "d0", "a0"]
            self.mutate_fields(rng, rows, [ids, ["2", "", " 1", "true", "01", "0", "1"]])
            path = tmp_path / f"truth{trial}.tsv"
            self.write(rng, path, header, rows, ids)
            return path

        kinds = ["expected 2 fields", "unknown account id", "is_fraud must be 0 or 1",
                 "duplicate row for account", "no row for", "bad ground-truth header"]
        for got, want, _ in self.check(make, load_ground_truth, line_by_line_ground_truth, kinds, 28):
            assert self.same_arrays(got, want)

    def test_embeddings(self, tmp_path):
        def make(rng, g, trial):
            d = int(rng.integers(0, 4))
            rows = [[ext] + [self.pick(rng, self.VALUES) for _ in range(d)] for ext in g.ids]
            ids = ["ghost", " a0", ""] + g.ids
            self.mutate_fields(rng, rows, [ids, self.BAD_VALUES + self.VALUES])
            path = tmp_path / f"embeddings{trial}.tsv"
            self.write(rng, path, None, rows, ids)
            return path

        kinds = ["unknown node id", "out of place; node", "out of place; the graph has", "non-numeric",
                 "non-finite", "inconsistent embedding width", "embeddings missing"]
        for got, want, _ in self.check(make, load_embeddings, line_by_line_embeddings, kinds, 29):
            assert self.same_arrays(got.vectors, want)
            assert got.epoch_losses == []


class TestLineBreaksInIds:
    # Characters str.splitlines breaks at but the savers do not escape.
    BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    def test_ids_round_trip_through_every_saver_and_loader(self, tmp_path):
        accounts = [f"a{ch}{i}" for i, ch in enumerate(self.BREAKS)]
        claims = [ClaimEvent(a, 950 + i) for i, a in enumerate(accounts)]
        logins = [LoginEvent(a, f"d{ch}", 900) for a, ch in zip(accounts, self.BREAKS[1:] + self.BREAKS[:1])]
        logins += [LoginEvent(a, "shared", 900) for a in accounts]
        g = build_graph(ClaimLog.from_events(claims), LoginLog.from_events(logins), WindowConfig(1000))
        n = len(accounts)
        ds = make_dataset(g, np.arange(n)[:, None], high_risk=np.arange(n) % 2 == 0, truth=np.arange(n) % 3 == 0)
        save_graph(g, tmp_path / "graph.tsv")
        save_features(ds, tmp_path / "features.tsv")
        save_ground_truth(ds, tmp_path / "ground_truth.tsv")
        loaded = load_dataset(tmp_path)
        assert loaded.graph == g
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.high_risk, ds.high_risk)
        assert np.array_equal(loaded.truth, ds.truth)
        vectors = np.random.default_rng(14).normal(size=(g.num_nodes, 2))
        save_embeddings(Embeddings(vectors, []), g, str(tmp_path / "embeddings.tsv"))
        assert np.array_equal(load_embeddings(str(tmp_path / "embeddings.tsv"), g).vectors, vectors)

    @pytest.mark.parametrize("bad", ["a\rb", "a\tb", "a\nb", ""])
    def test_savers_reject_ids_a_loader_would_split(self, tmp_path, bad):
        g = build_graph(ClaimLog.from_events([ClaimEvent(bad, 950)]), LoginLog.from_events([]), WindowConfig(1000))
        with pytest.raises(ValueError, match="must be nonempty and free of"):
            save_graph(g, tmp_path / "graph.tsv")
        with pytest.raises(ValueError, match="must be nonempty and free of"):
            save_claim_events([ClaimEvent(bad, 1)], tmp_path / "claims.tsv")


class TestBytesThatAreNotUtf8:
    """Every loader names the line of a byte that is not UTF-8, counting "\r\n" and "\r" as one line break each."""

    @staticmethod
    def write(tmp_path, name, g):
        """Write file name through its saver; return (path, loader, the loader's error type)."""
        path = str(tmp_path / name)
        if name == "claims.tsv":
            save_claim_events([ClaimEvent(f"a{i}", i) for i in range(4)], path)
            return path, load_claim_events, GraphFormatError
        if name == "logins.tsv":
            save_login_events([LoginEvent(f"a{i}", f"d{i}", i) for i in range(4)], path)
            return path, load_login_events, GraphFormatError
        if name == "graph.tsv":
            save_graph(g, path)
            return path, load_graph, GraphFormatError
        ds = make_dataset(g, np.arange(6.0).reshape(3, 2), high_risk=[True, False, True], truth=[True, False, False])
        if name == "features.tsv":
            save_features(ds, path)
            return path, lambda p: load_features(p, g), FeatureFormatError
        if name == "ground_truth.tsv":
            save_ground_truth(ds, path)
            return path, lambda p: load_ground_truth(p, g), FeatureFormatError
        if name == "embeddings.tsv":
            save_embeddings(Embeddings(np.ones((g.num_nodes, 2)), []), g, path)
            return path, lambda p: load_embeddings(p, g), ValueError
        if name == "gbdt.model":
            save_gbdt(gbdt_fit(ds.features, ds.high_risk.astype(float), GBDTConfig(n_trees=2, min_samples_leaf=1)), path)
            return path, load_gbdt, ModelFormatError
        save_params(init_params(2, hidden_dim=2, n_layers=1), path)
        return path, load_params, CheckpointFormatError

    @pytest.mark.parametrize(
        "name",
        ["claims.tsv", "logins.tsv", "graph.tsv", "features.tsv", "ground_truth.tsv", "embeddings.tsv", "gbdt.model",
         "gnn.ckpt"],
    )
    def test_loader_names_the_line(self, tmp_path, name):
        path, loader, error = self.write(tmp_path, name, star_graph(3))
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        # Line 1 ends "\r\n" and line 2 "\r"; line 3 starts with a byte no UTF-8 text starts with.
        data = lines[0] + b"\r\n" + lines[1] + b"\r\xff" + b"\n".join(lines[2:])
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(error) as excinfo:
            loader(path)
        assert str(excinfo.value) == f"{path}:3: byte 0xff is not UTF-8 (invalid start byte)"

    def test_a_cut_character_names_its_line(self, tmp_path):
        path = tmp_path / "claims.tsv"
        path.write_bytes("a\u00e9\t1\nb\t2\n".encode("utf-8") + "\u00e9".encode("utf-8")[:1] + b"\t3\n")
        with pytest.raises(GraphFormatError, match=r":3: byte 0xc3 is not UTF-8 \(invalid continuation byte\)$"):
            load_claim_events(path)


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
        ids = [out.graph.ids[i] for i in out.graph.account_indices()]
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
            kept_ids = set(prune_singletons(g).ids)
            rows = [g.ids[a] in kept_ids for a in g.account_indices()]
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
