import math

import numpy as np
import pytest

from fraudring.evaluation import best_f1_threshold, confusion, f1
from fraudring.geniepath import PROB_CLAMP, _bce_dprobs, _clamped_bce, init_params
from fraudring.train import (
    NumericalError,
    Optimizer,
    TrainConfig,
    TrainReport,
    adam_step,
    sample_negatives,
    save_train_report,
    score_accounts,
    train,
    training_rows,
)
from reference import allocating_adam_step, dict_bce
from util import make_dataset, make_graph


def tiny_dataset(seed=42, n_regular=5):
    """One 3-account ring sharing a device plus regular accounts on private devices."""
    n_acc = 3 + n_regular
    kinds = "A" * n_acc + "D" * (1 + n_regular)
    edges = [(0, n_acc), (1, n_acc), (2, n_acc)]
    edges += [(3 + i, n_acc + 1 + i) for i in range(n_regular)]
    g = make_graph(kinds, edges)
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_acc, 4))
    features[:3, :2] += 1.5
    high_risk = [True] * 3 + [False] * n_regular
    truth = [True] * 3 + [False] * n_regular
    return make_dataset(g, features, high_risk=high_risk, truth=truth)


class TestAdamStep:
    @pytest.mark.parametrize("seed, shape", [(0, (13, 5)), (1, (40,)), (2, (7, 1))])
    def test_equals_allocating_update_bit_for_bit(self, seed, shape):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=shape)
        m, v = np.zeros(shape), np.zeros(shape)
        want_w, want_m, want_v = w.copy(), m.copy(), v.copy()
        for step in range(1, 40):
            grad = rng.normal(scale=10.0 ** rng.integers(-8, 4), size=shape)
            grad[rng.random(shape) < 0.2] = 0.0
            adam_step(w, grad, m, v, step, 0.025)
            allocating_adam_step(want_w, grad, want_m, want_v, step, 0.025)
            assert (w.tobytes(), m.tobytes(), v.tobytes()) == (want_w.tobytes(), want_m.tobytes(), want_v.tobytes())


class TestSampleNegatives:
    def test_rate_one_takes_whole_pool(self):
        pool = np.array([0, 1, 2, 4, 5, 6, 7, 8])
        got = sample_negatives(pool, 1.0, np.random.default_rng(0))
        assert got.tolist() == pool.tolist()

    def test_quarter_of_hundred_is_exactly_25(self):
        got = sample_negatives(np.arange(100), 0.25, np.random.default_rng(1))
        assert len(got) == 25
        assert set(got.tolist()) <= set(range(100))
        assert np.all(np.diff(got) > 0)

    def test_same_rng_state_same_sample(self):
        pool = np.arange(50)
        a = sample_negatives(pool, 0.3, np.random.default_rng(7))
        b = sample_negatives(pool, 0.3, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_different_rng_states_differ(self):
        pool = np.arange(200)
        a = sample_negatives(pool, 0.2, np.random.default_rng(1))
        b = sample_negatives(pool, 0.2, np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_high_risk_accounts_never_sampled(self):
        g = make_graph("A" * 40 + "D", [(a, 40) for a in range(40)])
        ds = make_dataset(g, np.zeros((40, 1)), high_risk=[i % 2 == 1 for i in range(40)])
        _, got = training_rows(ds, 1.0, np.random.default_rng(3))
        assert got.tolist() == list(range(0, 40, 2))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="no untagged"):
            sample_negatives(np.array([], dtype=np.int64), 0.5, np.random.default_rng(0))

    def test_bad_rate_rejected(self):
        for rate in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="rate"):
                sample_negatives(np.array([0]), rate, np.random.default_rng(0))


class TestTrainingRows:
    def split_dataset(self):
        n = 20
        g = make_graph("A" * n + "D", [(a, n) for a in range(n)])
        high_risk = [i % 4 == 0 for i in range(n)]
        is_test = [i % 5 == 3 or i == 8 for i in range(n)]
        return make_dataset(g, np.zeros((n, 1)), high_risk=high_risk, is_test=is_test)

    def test_positives_are_every_tagged_train_row(self):
        ds = self.split_dataset()
        pos, neg = training_rows(ds, 0.5, np.random.default_rng(0))
        assert pos.tolist() == [0, 4, 12, 16]
        assert not set(neg.tolist()) & set(np.flatnonzero(ds.is_test | ds.high_risk).tolist())

    def test_one_choice_over_the_ascending_untagged_train_pool(self):
        ds = self.split_dataset()
        pool = [r for r in range(20) if r % 4 != 0 and r % 5 != 3]
        rng = np.random.default_rng(11)
        _, neg = training_rows(ds, 0.5, rng)
        oracle = np.random.default_rng(11)
        chosen = oracle.choice(len(pool), size=round(0.5 * len(pool)), replace=False)
        assert neg.tolist() == sorted(pool[j] for j in chosen)
        # the generators were consumed alike
        assert rng.random() == oracle.random()

    def test_no_tagged_train_account_rejected(self):
        ds = self.split_dataset()
        ds.is_test = ds.is_test | ds.high_risk
        with pytest.raises(ValueError, match="no tagged high-risk"):
            training_rows(ds, 0.5, np.random.default_rng(0))


def bce_both(probs, pos, neg):
    """_clamped_bce over ascending row arrays, and the dict oracle, for the same keyed sets."""
    keys = sorted(probs)
    row = {k: r for r, k in enumerate(keys)}
    p = np.array([probs[k] for k in keys])
    got = _clamped_bce(p, np.array(sorted(row[k] for k in pos)), np.array(sorted(row[k] for k in neg)))
    return got, dict_bce(probs, pos, neg, clamp=PROB_CLAMP)


class TestLoss:
    def test_half_probabilities_give_four_log_two(self):
        probs = {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5}
        got, want = bce_both(probs, {0, 1}, {2, 3})
        assert got == pytest.approx(4 * math.log(2), abs=1e-12)
        assert got == pytest.approx(want, abs=1e-12)

    def test_perfect_predictions_near_zero(self):
        got, want = bce_both({0: 1.0, 1: 0.0}, {0}, {1})
        assert got <= 1e-10
        assert want <= 1e-10

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(4)
        probs = {i: float(p) for i, p in enumerate(rng.uniform(0.01, 0.99, size=12))}
        pos = {0, 3, 7}
        neg = {1, 2, 8, 11}
        want = sum(-math.log(probs[v]) for v in pos)
        want += sum(-math.log(1.0 - probs[v]) for v in neg)
        got, oracle = bce_both(probs, pos, neg)
        assert got == pytest.approx(want, abs=1e-12)
        assert oracle == pytest.approx(want, abs=1e-12)

    def test_wrong_confident_predictions_stay_finite(self):
        got, oracle = bce_both({0: 0.0, 1: 1.0}, {0}, {1})
        assert math.isfinite(got)
        want = -math.log(1e-12) - math.log(1.0 - (1.0 - 1e-12))
        assert got == pytest.approx(want, rel=1e-12)
        assert oracle == pytest.approx(want, rel=1e-12)

    def test_overlapping_sets_rejected(self):
        # The oracle rejects overlap; the rows training feeds _clamped_bce never overlap.
        with pytest.raises(ValueError, match="overlap"):
            dict_bce({0: 0.5, 1: 0.5}, {0, 1}, {1})
        for seed in range(5):
            pos, neg = training_rows(tiny_dataset(n_regular=12), 1.0, np.random.default_rng(seed))
            assert not set(pos.tolist()) & set(neg.tolist())

    def test_relabeling_indices_preserves_value(self):
        p = np.array([0.7, 0.2, 0.9])
        relabeled = np.full(33, 0.5)
        relabeled[[10, 21, 32]] = p
        got = _clamped_bce(p, np.array([0, 2]), np.array([1]))
        assert got == _clamped_bce(relabeled, np.array([10, 32]), np.array([21]))
        assert got == pytest.approx(dict_bce({10: 0.7, 21: 0.2, 32: 0.9}, {10, 32}, {21}), abs=1e-12)

    def test_masks_and_ascending_rows_agree(self):
        probs = np.random.default_rng(5).uniform(0.0, 1.0, size=15)
        probs[[0, 9]] = [0.0, 1.0]
        pos = np.array([0, 4, 9])
        neg = np.array([2, 3, 7, 14])
        pos_mask = np.isin(np.arange(15), pos)
        neg_mask = np.isin(np.arange(15), neg)
        assert _clamped_bce(probs, pos, neg) == _clamped_bce(probs, pos_mask, neg_mask)
        assert np.array_equal(_bce_dprobs(probs, pos, neg), _bce_dprobs(probs, pos_mask, neg_mask))


class TestTrain:
    def test_zero_learning_rate_keeps_params(self):
        ds = tiny_dataset()
        params = init_params(4, hidden_dim=4, n_layers=1, seed=0)
        cfg = TrainConfig(epochs=5, learning_rate=0.0, negative_sample_rate=1.0)
        fitted, report = train(ds, params, cfg)
        assert np.array_equal(fitted.vector, params.vector)
        assert report.loss_history == pytest.approx([report.loss_history[0]] * 5)

    @pytest.mark.parametrize("optimizer", [Optimizer.ADAM, Optimizer.SGD])
    def test_callers_params_left_unchanged(self, optimizer):
        ds = tiny_dataset()
        params = init_params(4, hidden_dim=4, n_layers=2, seed=0)
        before = params.vector.copy()
        fitted, _ = train(ds, params, TrainConfig(epochs=3, optimizer=optimizer))
        assert params.vector.tobytes() == before.tobytes()
        assert not np.array_equal(fitted.vector, before)

    def test_tiny_dataset_loss_descends(self):
        ds = tiny_dataset()
        params = init_params(4, hidden_dim=4, n_layers=2, seed=0)
        cfg = TrainConfig(epochs=200, negative_sample_rate=1.0, seed=0)
        _, report = train(ds, params, cfg)
        assert report.loss_history[-1] < report.loss_history[0]

    def test_sgd_on_fixed_batch_is_non_increasing_early(self):
        ds = tiny_dataset()
        params = init_params(4, hidden_dim=4, n_layers=1, seed=1)
        cfg = TrainConfig(
            epochs=10,
            learning_rate=1e-3,
            negative_sample_rate=1.0,
            optimizer=Optimizer.SGD,
            resample_each_epoch=False,
            seed=0,
        )
        _, report = train(ds, params, cfg)
        diffs = np.diff(report.loss_history)
        assert np.all(diffs <= 0.0)

    def test_deterministic_for_fixed_seed(self):
        ds = tiny_dataset()
        params = init_params(4, hidden_dim=4, n_layers=1, seed=2)
        cfg = TrainConfig(epochs=20, seed=5)
        a, rep_a = train(ds, params, cfg)
        b, rep_b = train(ds, params, cfg)
        assert np.array_equal(a.vector, b.vector)
        assert rep_a.loss_history == rep_b.loss_history

    def test_report_shapes_and_counts(self):
        ds = tiny_dataset(n_regular=8)
        params = init_params(4, hidden_dim=4, n_layers=1, seed=3)
        cfg = TrainConfig(epochs=12, negative_sample_rate=0.5, seed=1)
        _, report = train(ds, params, cfg)
        assert isinstance(report, TrainReport)
        assert len(report.loss_history) == 12
        assert report.sampled_negative_counts == [round(0.5 * 8)] * 12

    def test_resampling_varies_the_negative_set(self):
        # With resampling on and rate < 1 the loss trace depends on the draw,
        # so two seeds diverge.
        ds = tiny_dataset(n_regular=12)
        params = init_params(4, hidden_dim=4, n_layers=1, seed=4)
        a = train(ds, params, TrainConfig(epochs=8, negative_sample_rate=0.25, seed=1))[1]
        b = train(ds, params, TrainConfig(epochs=8, negative_sample_rate=0.25, seed=9))[1]
        assert a.loss_history != b.loss_history

    def test_non_finite_params_abort_with_epoch(self):
        ds = tiny_dataset()
        params = init_params(4, hidden_dim=4, n_layers=1, seed=5)
        params.w_in[0, 0] = np.nan
        with pytest.raises(NumericalError, match="epoch 0"):
            train(ds, params, TrainConfig(epochs=3))

    def test_no_positive_train_accounts_rejected(self):
        ds = tiny_dataset()
        ds2 = make_dataset(ds.graph, ds.features)
        params = init_params(4, hidden_dim=4, n_layers=1, seed=6)
        with pytest.raises(ValueError, match="high-risk"):
            train(ds2, params, TrainConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError, match="negative_sample_rate"):
            TrainConfig(negative_sample_rate=0.0)

    def test_training_beats_untrained_on_test_split(self):
        ds = tiny_dataset(n_regular=9)
        n_acc = 12
        is_test = [i % 3 == 2 for i in range(n_acc)]
        high_risk = [True] * 3 + [False] * 9
        truth = [True] * 3 + [False] * 9
        ds = make_dataset(ds.graph, ds.features, high_risk=high_risk, is_test=is_test, truth=truth)
        params = init_params(4, hidden_dim=4, n_layers=2, seed=7)
        fitted, _ = train(ds, params, TrainConfig(epochs=150, negative_sample_rate=1.0, seed=0))

        test_accounts = ds.graph.account_indices()[ds.is_test].tolist()
        labels = dict(zip(test_accounts, ds.truth[ds.is_test].tolist()))

        def f1_of(p):
            scores = dict(zip(test_accounts, score_accounts(ds, p)[ds.is_test].tolist()))
            thr, _ = best_f1_threshold(scores, labels)
            return f1(confusion(scores, labels, thr))

        assert f1_of(fitted) >= f1_of(params)
        assert f1_of(fitted) == 1.0


class TestScoreAccounts:
    def test_scores_cover_accounts_and_stay_in_unit_interval(self):
        ds = tiny_dataset()
        params = init_params(4, hidden_dim=4, n_layers=1, seed=8)
        scores = score_accounts(ds, params)
        assert scores.shape == (len(ds.graph.account_indices()),)
        assert np.all((0.0 < scores) & (scores < 1.0))

    def test_split_filter(self):
        # Scores do not depend on the split; selecting Test rows picks accounts 6 and 7.
        full_train = tiny_dataset()
        ds = make_dataset(
            full_train.graph,
            full_train.features,
            high_risk=[True] * 3 + [False] * 5,
            is_test=[False] * 6 + [True] * 2,
        )
        params = init_params(4, hidden_dim=4, n_layers=1, seed=9)
        scores = score_accounts(ds, params)
        assert ds.graph.account_indices()[ds.is_test].tolist() == [6, 7]
        assert np.array_equal(scores, score_accounts(full_train, params))
        assert np.array_equal(scores[ds.is_test], scores[6:8])


class TestReportFile:
    def test_tsv_layout_round_trips(self, tmp_path):
        report = TrainReport([1.5, 0.75, 0.5], [4, 4, 3])
        path = tmp_path / "train_report.tsv"
        save_train_report(report, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch\tloss\tn_sampled_neg"
        assert len(lines) == 4
        for epoch, line in enumerate(lines[1:]):
            e, ls, n = line.split("\t")
            assert int(e) == epoch
            assert float(ls) == report.loss_history[epoch]
            assert int(n) == report.sampled_negative_counts[epoch]
