import math

import numpy as np
import pytest

from fraudring.features import load_dataset
from fraudring.graph import ClaimLog, LoginLog, build_graph, khop_neighbor_counts, prune_singletons
from fraudring.synth import MANIFEST_FILE, SynthConfig, SyntheticDataset, emit, generate


def small_config(**overrides):
    base = dict(
        n_regular_accounts=30,
        n_rings=2,
        ring_size_range=(4, 4),
        devices_per_ring_range=(3, 3),
        regular_devices_per_account_range=(1, 2),
        family_share_prob=0.2,
        tag_miss_rate=0.25,
        feature_dim=6,
        fraud_feature_shift=1.5,
        seed=7,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestTopology:
    def test_single_ring_counts(self):
        sds = generate(
            SynthConfig(
                n_regular_accounts=0,
                n_rings=1,
                ring_size_range=(3, 3),
                devices_per_ring_range=(2, 2),
                tag_miss_rate=0.0,
                seed=0,
            )
        )
        g = sds.dataset.graph
        assert g.num_nodes == 5
        assert g.edge_count == 6
        assert sds.dataset.high_risk.tolist() == [True] * 3

    def test_ring_members_mutually_at_distance_two(self):
        sds = generate(small_config())
        g = sds.dataset.graph
        fraud = g.account_indices()[sds.dataset.truth].tolist()
        # Ring 0 holds the first four accounts created.
        ring0 = fraud[:4]
        for s in ring0:
            counts = khop_neighbor_counts(g, {s}, 2, g.is_account)
            assert counts[0] == 0.0
            assert counts[1] >= 3.0

    def test_events_rebuild_designed_graph(self):
        sds = generate(small_config())
        rebuilt = build_graph(ClaimLog.from_events(sds.claims), LoginLog.from_events(sds.logins), sds.window)
        assert rebuilt == sds.dataset.graph

    def test_node_index_matches_creation_order(self):
        sds = generate(small_config(seed=3))
        g = sds.dataset.graph
        ids = g.ids
        accounts = [i for i in ids if i.startswith("A")]
        devices = [i for i in ids if i.startswith("D")]
        assert accounts == sorted(accounts)
        assert devices == sorted(devices)
        assert ids == accounts + devices

    def test_ring_components_survive_pruning(self):
        sds = generate(small_config())
        pruned = prune_singletons(sds.dataset.graph)
        kept = set(pruned.ids)
        g = sds.dataset.graph
        fraud_ids = {g.ids[a] for a in g.account_indices()[sds.dataset.truth]}
        assert fraud_ids <= kept

    def test_prunable_report_matches_prune_outcome(self):
        sds = generate(small_config(seed=11))
        g = sds.dataset.graph
        pruned = prune_singletons(g)
        kept = set(pruned.ids)
        dropped_accounts = sorted(g.ids[a] for a in g.account_indices() if g.ids[a] not in kept)
        assert sds.prunable_account_ids == dropped_accounts

    def test_family_share_connects_two_regular_accounts(self):
        sds = generate(small_config(family_share_prob=1.0, n_regular_accounts=4))
        g = sds.dataset.graph
        regular = g.account_indices()[~sds.dataset.truth].tolist()
        for a in regular:
            counts = khop_neighbor_counts(g, {a}, 2, g.is_account)
            assert counts[1] >= 1.0


class TestLabels:
    def test_zero_miss_rate_tags_equal_truth(self):
        sds = generate(small_config(tag_miss_rate=0.0))
        ds = sds.dataset
        assert np.array_equal(ds.high_risk, ds.truth)

    def test_regular_accounts_never_tagged_high_risk(self):
        sds = generate(small_config(tag_miss_rate=0.5, seed=13))
        ds = sds.dataset
        assert not np.any(ds.high_risk & ~ds.truth)

    def test_tagged_count_within_binomial_interval(self):
        # 10 rings of 10 -> 100 fraud accounts at miss rate 0.3.
        sds = generate(
            SynthConfig(
                n_regular_accounts=20,
                n_rings=10,
                ring_size_range=(10, 10),
                tag_miss_rate=0.3,
                seed=5,
            )
        )
        tagged = int(sds.dataset.high_risk.sum())
        mean, std = 70.0, math.sqrt(100 * 0.7 * 0.3)
        lo, hi = mean - 2.576 * std, mean + 2.576 * std
        assert lo <= tagged <= hi


class TestFeatures:
    def test_fraud_shift_applies_to_leading_third(self):
        cfg = small_config(
            n_regular_accounts=300,
            n_rings=10,
            ring_size_range=(10, 10),
            fraud_feature_shift=2.0,
            feature_dim=9,
            seed=1,
        )
        sds = generate(cfg)
        ds = sds.dataset
        xf = ds.features[ds.truth].mean(axis=0)
        xr = ds.features[~ds.truth].mean(axis=0)
        n_shift = math.ceil(cfg.feature_dim / 3)
        diff = xf - xr
        # Shifted dims move by about the configured amount; the rest stay put.
        assert np.all(diff[:n_shift] > 1.0)
        assert np.all(np.abs(diff[n_shift:]) < 0.5)

    def test_ring_offsets_separate_ring_means(self):
        cfg = small_config(
            n_regular_accounts=0,
            n_rings=4,
            ring_size_range=(50, 50),
            fraud_feature_shift=0.0,
            seed=2,
        )
        sds = generate(cfg)
        ds = sds.dataset
        n_shift = math.ceil(cfg.feature_dim / 3)
        means = [
            ds.features[r * 50 : (r + 1) * 50, :n_shift].mean(axis=0)
            for r in range(4)
        ]
        dists = [
            np.abs(means[i] - means[j]).max()
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        # With shift 0, only the per-ring offsets separate ring means.
        assert max(dists) > 0.5

    def test_two_hop_fraud_neighbor_signal(self):
        sds = generate(SynthConfig(n_regular_accounts=200, n_rings=5, seed=0))
        ds = sds.dataset
        fraud = ds.graph.account_indices()[ds.truth].tolist()
        regular = ds.graph.account_indices()[~ds.truth].tolist()
        f = khop_neighbor_counts(ds.graph, fraud, 2, ds.graph.is_account)
        r = khop_neighbor_counts(ds.graph, regular, 2, ds.graph.is_account)
        assert f[1] > r[1]


class TestConfigValidation:
    def test_zero_accounts_rejected(self):
        with pytest.raises(ValueError, match="zero accounts"):
            SynthConfig(n_regular_accounts=0, n_rings=0)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="ring_size_range"):
            SynthConfig(ring_size_range=(5, 3))

    def test_ring_of_one_rejected(self):
        with pytest.raises(ValueError, match="ring needs two"):
            SynthConfig(ring_size_range=(1, 3))

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(tag_miss_rate=1.0)
        with pytest.raises(ValueError):
            SynthConfig(family_share_prob=-0.1)


class TestEmit:
    def test_generate_emit_load_round_trip(self, tmp_path):
        sds = generate(small_config())
        emit(sds, tmp_path)
        loaded = load_dataset(tmp_path)
        ds = sds.dataset
        assert loaded.graph == ds.graph
        assert loaded.features == pytest.approx(ds.features, rel=1e-8)
        assert np.array_equal(loaded.truth, ds.truth)
        assert np.array_equal(loaded.high_risk, ds.high_risk)

    def test_emits_are_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        emit(generate(small_config()), d1)
        emit(generate(small_config()), d2)
        for name in sorted(p.name for p in d1.iterdir()):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_manifest_contents(self, tmp_path):
        import json

        sds = generate(small_config(seed=21))
        emit(sds, tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_FILE).read_text())
        assert manifest["seed"] == 21
        assert manifest["claim_window_days"] == 30
        assert manifest["device_window_days"] == 40
        assert manifest["n_prunable_accounts"] == sds.n_prunable_accounts

    def test_generate_is_deterministic(self):
        a = generate(small_config())
        b = generate(small_config())
        assert a.dataset.graph == b.dataset.graph
        assert np.array_equal(a.dataset.features, b.dataset.features)
        assert a.claims == b.claims
        assert a.logins == b.logins
