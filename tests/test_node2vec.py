import tracemalloc
import weakref
from collections import Counter, defaultdict

import numpy as np
import pytest

from fraudring.baselines import node2vec
from fraudring.baselines.gbdt import GBDTConfig, gbdt_fit, gbdt_predict_batch
from fraudring.baselines.node2vec import (
    Embeddings,
    Node2vecConfig,
    _alias_build,
    _pair_table,
    _sgns_loss_grad,
    _walk_pairs,
    biased_walks,
    concat_rows,
    embed_concat_fit,
    load_embeddings,
    save_embeddings,
    train_embeddings,
)
from fraudring.graph import DeviceSharingGraph
from fraudring.train import sample_negatives
from reference import (
    edge_transition_weights,
    flat_key_sgns_loss_grad,
    naive_sgns_loss,
    one_shot_pair_table,
    padded_walks,
    per_offset_forward_pairs,
    per_offset_walk_pairs,
    scalar_biased_walks,
    slab_centers,
    window_pairs,
)
from util import make_dataset, make_graph, random_bipartite


def four_cycle():
    # Two accounts sharing two devices; every node has exactly two neighbors.
    return make_graph("AADD", [(0, 2), (0, 3), (1, 2), (1, 3)])


def five_node_fixture():
    # Device 3 serves three accounts, device 4 two of them.
    return make_graph("AAADD", [(0, 3), (1, 3), (2, 3), (0, 4), (2, 4)])


def two_rings():
    edges = [(0, 6), (1, 6), (2, 6), (3, 7), (4, 7), (5, 7)]
    return make_graph("AAAAAADD", edges)


def transition_counts(walks):
    """Empirical next-node counts keyed by the directed edge walked in on."""
    counts = defaultdict(Counter)
    for walk in walks:
        for i in range(2, len(walk)):
            counts[(walk[i - 2], walk[i - 1])][walk[i]] += 1
    return counts


def closed_form_transition(g, prev, cur, p, q):
    prev_nbrs = set(int(x) for x in g.neighbors(prev))
    weights = {}
    for x in g.neighbors(cur):
        x = int(x)
        if x == prev:
            weights[x] = 1.0 / p
        elif x in prev_nbrs:
            weights[x] = 1.0
        else:
            weights[x] = 1.0 / q
    total = sum(weights.values())
    return {x: w / total for x, w in weights.items()}


class TestWalkShapes:
    def test_every_node_starts_walks_per_node_times(self):
        g = five_node_fixture()
        cfg = Node2vecConfig(walk_length=5, walks_per_node=7, seed=0)
        walks = biased_walks(g, cfg)
        assert len(walks) == 7 * g.num_nodes
        starts = Counter(w[0] for w in walks)
        assert starts == {v: 7 for v in range(g.num_nodes)}

    def test_walks_follow_edges_and_reach_full_length(self):
        g = five_node_fixture()
        cfg = Node2vecConfig(walk_length=12, walks_per_node=5, seed=1)
        edge_set = {(u, v) for u, v in g.edges()} | {(v, u) for u, v in g.edges()}
        for walk in biased_walks(g, cfg):
            assert len(walk) == 12
            for a, b in zip(walk, walk[1:]):
                assert (a, b) in edge_set

    def test_isolated_node_walk_stops_immediately(self):
        g = make_graph("AAD", [(1, 2)])
        walks = biased_walks(g, Node2vecConfig(walk_length=8, walks_per_node=3, seed=2))
        assert walks[walks[:, 0] == 0].tolist() == [[0] + [-1] * 7] * 3

    def test_deterministic_per_seed(self):
        g = five_node_fixture()
        cfg = Node2vecConfig(walk_length=10, walks_per_node=4, seed=3)
        assert np.array_equal(biased_walks(g, cfg), biased_walks(g, cfg))
        other = Node2vecConfig(walk_length=10, walks_per_node=4, seed=4)
        assert not np.array_equal(biased_walks(g, cfg), biased_walks(g, other))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="no nodes"):
            biased_walks(DeviceSharingGraph([], [], []), Node2vecConfig())

    def test_walks_are_one_int64_array_of_node_ids(self):
        g = random_bipartite(np.random.default_rng(5), 300, 120, 0.02)
        walks = biased_walks(g, Node2vecConfig(walk_length=6, walks_per_node=3, seed=5))
        assert type(walks) is np.ndarray and walks.dtype == np.int64 and walks.flags.c_contiguous
        assert walks.shape == (3 * g.num_nodes, 6)
        assert np.array_equal(walks[:, 0], np.tile(np.arange(g.num_nodes), 3))
        # -1 fills exactly the rows after a start with no neighbor
        isolated = np.diff(g.csr()[0])[walks[:, 0]] == 0
        assert isolated.any() and np.array_equal(walks[:, 1:] < 0, np.repeat(isolated[:, None], 5, axis=1))
        assert len(np.unique(walks[walks >= 0])) > 256

    def test_peak_memory_is_within_three_times_the_walks(self):
        g = random_bipartite(np.random.default_rng(6), 600, 240, 0.01)
        for p, q in ((1.0, 1.0), (0.25, 4.0)):
            cfg = Node2vecConfig(return_param=p, inout_param=q, seed=6)
            tracemalloc.start()
            try:
                walks = biased_walks(g, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * walks.nbytes, (p, q, peak / walks.nbytes)


class TestWalkBias:
    def test_uniform_choice_when_p_and_q_are_one(self):
        g = four_cycle()
        cfg = Node2vecConfig(walk_length=27, walks_per_node=1000, seed=5)
        walks = biased_walks(g, cfg)
        total_steps = sum(len(w) - 1 for w in walks)
        assert total_steps >= 100_000
        # Condition on the current node only; each neighbor should get 1/2.
        counts = defaultdict(Counter)
        for walk in walks:
            for a, b in zip(walk, walk[1:]):
                counts[a][b] += 1
        for cur, nxt_counts in counts.items():
            n = sum(nxt_counts.values())
            for nxt in (int(x) for x in g.neighbors(cur)):
                assert abs(nxt_counts[nxt] / n - 0.5) <= 0.02

    def test_biased_choice_matches_closed_form(self):
        g = five_node_fixture()
        p, q = 0.25, 4.0
        cfg = Node2vecConfig(
            walk_length=40, walks_per_node=600, return_param=p, inout_param=q, seed=6
        )
        counts = transition_counts(biased_walks(g, cfg))
        checked = 0
        for (prev, cur), nxt_counts in counts.items():
            n = sum(nxt_counts.values())
            if n < 3000:
                continue
            want = closed_form_transition(g, prev, cur, p, q)
            for nxt, expected in want.items():
                assert abs(nxt_counts[nxt] / n - expected) <= 0.02
            checked += 1
        assert checked >= 4

    def test_huge_inout_param_makes_walks_oscillate(self):
        g = make_graph("ADA", [(0, 1), (1, 2)])
        cfg = Node2vecConfig(
            walk_length=12, walks_per_node=50, return_param=1.0, inout_param=1e12, seed=7
        )
        for walk in biased_walks(g, cfg):
            for i in range(2, len(walk)):
                assert walk[i] == walk[i - 2]


class TestTransitionWeights:
    # The per-edge reference takes any graph; only it can meet the "weighs 1"
    # class, which needs a neighbor of cur adjacent to prev (a triangle).
    def test_all_three_weight_classes(self):
        w = edge_transition_weights(
            prev=0,
            prev_neighbors=np.array([2, 7]),
            cur_neighbors=np.array([0, 2, 5]),
            p=0.5,
            q=4.0,
        )
        assert w == pytest.approx([2.0, 1.0, 0.25])

    def test_no_prev_neighbors(self):
        w = edge_transition_weights(
            prev=3,
            prev_neighbors=np.array([], dtype=np.int64),
            cur_neighbors=np.array([1, 3]),
            p=0.25,
            q=2.0,
        )
        assert w == pytest.approx([0.5, 4.0])


def random_device_graph(rng):
    """Random account-device graph: accounts first or interleaved, maybe isolated nodes, maybe a hub device."""
    n_accounts, n_devices = int(rng.integers(1, 16)), int(rng.integers(1, 8))
    kinds = np.array(["A"] * n_accounts + ["D"] * n_devices)
    if rng.random() < 0.5:
        kinds = rng.permutation(kinds)
    accounts, devices = np.flatnonzero(kinds == "A"), np.flatnonzero(kinds == "D")
    density = rng.uniform(0.0, 0.6)
    edges = {(int(a), int(d)) for a in accounts for d in devices if rng.random() < density}
    if rng.random() < 0.3:
        hub = int(rng.choice(devices))
        extra = rng.integers(12, 18)
        kinds = np.append(kinds, ["A"] * extra)
        edges |= {(int(a), hub) for a in range(len(kinds) - extra, len(kinds))}
    return make_graph("".join(kinds), sorted(edges))


# dyadic and not, p < q, p > q, and p = q != 1
PQ = [(0.25, 4.0), (4.0, 0.5), (0.3, 1.7), (1.7, 0.3), (2.0, 2.0), (0.7, 0.7), (1.0, 3.1), (0.6, 1.0)]


class TestSecondOrderStep:
    def test_walks_equal_the_scalar_oracle_and_uniform_walks_when_p_equals_q(self):
        rng = np.random.default_rng(11)
        seen = Counter()
        for trial in range(240):
            g = random_device_graph(rng)
            deg = np.diff(g.csr()[0])
            seen["isolated"] += bool((deg == 0).any())
            seen["hub"] += bool((deg[~g.is_account] >= 12).any())
            interleaved = bool((np.diff(g.is_account.astype(int)) > 0).any())
            seen["interleaved"] += interleaved
            seen["accounts first"] += not interleaved

            walk_length = int(rng.integers(1, 9))
            uniform = biased_walks(g, Node2vecConfig(walk_length=walk_length, walks_per_node=3, seed=trial))
            for p, q in PQ:
                cfg = Node2vecConfig(
                    walk_length=walk_length, walks_per_node=3, return_param=p, inout_param=q, seed=trial
                )
                walks = biased_walks(g, cfg)
                assert np.array_equal(walks, padded_walks(scalar_biased_walks(g, cfg), walk_length))
                assert walks.dtype == np.int64
                if p == q:
                    assert np.array_equal(walks, uniform)
        assert min(seen.values()) >= 20, seen

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p, q", [(0.25, 4.0), (4.0, 0.5), (1e-308, 2e-308), (1e308, 1e-300)])
    def test_one_step_frequencies_match_the_transition_weights(self, p, q):
        # device 4 serves four accounts: a step from it may return or take one of three others
        g = make_graph("AAAADDD", [(0, 4), (1, 4), (2, 4), (3, 4), (0, 5), (1, 5), (2, 5), (3, 6)])
        cfg = Node2vecConfig(walk_length=3, walks_per_node=20_000, return_param=p, inout_param=q, seed=13)
        counts = transition_counts(biased_walks(g, cfg))
        checked = 0
        for (prev, cur), nxt_counts in counts.items():
            n = sum(nxt_counts.values())
            if n < 4000:
                continue
            cur_neighbors = g.neighbors(cur)
            w = edge_transition_weights(prev, g.neighbors(prev), cur_neighbors, p, q)
            w /= w.max()
            for nxt, expected in zip(cur_neighbors.tolist(), (w / w.sum()).tolist()):
                assert abs(nxt_counts[nxt] / n - expected) <= 0.02
            checked += 1
        assert checked == 16

    def test_steps_at_a_device_shared_by_20000_accounts_follow_edges(self):
        n = 20_000
        g = make_graph("A" * n + "DD", [(a, n) for a in range(n)] + [(0, n + 1), (1, n + 1)])
        cfg = Node2vecConfig(walk_length=9, walks_per_node=1, return_param=0.25, inout_param=4.0, seed=14)
        walks = biased_walks(g, cfg)
        steps = np.stack((walks[:, :-1].ravel(), walks[:, 1:].ravel()), axis=1)
        edges = np.array(list(g.edges()))
        assert np.isin(np.sort(steps, axis=1) @ [g.num_nodes, 1], edges @ [g.num_nodes, 1]).all()
        # each step out of the hub returns with probability 4 / (4 + 19999 / 4): these mostly move on
        hub_steps = walks[walks[:, 1] == n]
        assert (hub_steps[:, 2] != hub_steps[:, 0]).mean() > 0.99


class TestPadded:
    def test_rows_hold_the_walks_then_minus_one(self):
        walks = [[3, 1, 4], [5], [], [9, 2]]
        assert padded_walks(walks).tolist() == [[3, 1, 4], [5, -1, -1], [-1, -1, -1], [9, 2, -1]]
        assert padded_walks(walks, 4).tolist() == [[3, 1, 4, -1], [5, -1, -1, -1], [-1] * 4, [9, 2, -1, -1]]


class TestAliasTable:
    def test_sampling_frequencies_match_weights(self):
        weights = np.array([1.0, 2.0, 3.0, 2.0])
        prob, alias = _alias_build(weights.copy())
        rng = np.random.default_rng(8)
        n = len(weights)
        draws = 100_000
        k = np.minimum((rng.random(draws) * n).astype(np.int64), n - 1)
        take = rng.random(draws) < prob[k]
        chosen = np.where(take, k, alias[k])
        freq = np.bincount(chosen, minlength=n) / draws
        assert freq == pytest.approx(weights / weights.sum(), abs=0.02)


class TestEmbeddings:
    def cfg(self, **kw):
        base = dict(
            dimensions=8, walk_length=10, walks_per_node=20, window=3, epochs=3, seed=0
        )
        base.update(kw)
        return Node2vecConfig(**base)

    def test_vector_shape_and_finiteness(self):
        g = two_rings()
        cfg = self.cfg(dimensions=16)
        emb = train_embeddings(biased_walks(g, cfg), cfg, n_nodes=g.num_nodes)
        assert emb.vectors.shape == (8, 16)
        assert emb.dimensions == 16
        assert np.all(np.isfinite(emb.vectors))

    def test_same_seed_same_embeddings(self):
        g = two_rings()
        cfg = self.cfg()
        walks = biased_walks(g, cfg)
        a = train_embeddings(walks, cfg, n_nodes=g.num_nodes)
        b = train_embeddings(walks, cfg, n_nodes=g.num_nodes)
        assert np.array_equal(a.vectors, b.vectors)

    def test_separated_components_separate_in_cosine(self):
        g = two_rings()
        cfg = self.cfg(walks_per_node=40, epochs=5)
        emb = train_embeddings(biased_walks(g, cfg), cfg, n_nodes=g.num_nodes)
        unit = emb.vectors / np.linalg.norm(emb.vectors, axis=1, keepdims=True)
        sim = unit @ unit.T
        intra = [sim[a, b] for grp in ({0, 1, 2}, {3, 4, 5}) for a in grp for b in grp if a < b]
        inter = [sim[a, b] for a in (0, 1, 2) for b in (3, 4, 5)]
        assert np.mean(intra) > np.mean(inter)

    def test_epoch_loss_decreases(self):
        g = two_rings()
        cfg = self.cfg(epochs=4)
        emb = train_embeddings(biased_walks(g, cfg), cfg, n_nodes=g.num_nodes)
        assert len(emb.epoch_losses) == 4
        assert emb.epoch_losses[-1] < emb.epoch_losses[0]

    def test_empty_walks_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            train_embeddings(np.empty((0, 10), np.int64), self.cfg(), n_nodes=3)

    def test_walk_array_trains_as_the_padded_walk_lists(self):
        # account 0 has no device, so its walks are -1 after the start
        g = make_graph("AAAAADD", [(1, 5), (2, 5), (3, 6), (4, 6), (2, 6)])
        cfg = self.cfg()
        walks = biased_walks(g, cfg)
        lists = [row[:1] if row[-1] < 0 else row for row in walks.tolist()]
        assert [len(w) for w in lists if w[0] == 0] == [1] * cfg.walks_per_node
        assert np.array_equal(walks, padded_walks(lists))
        got = train_embeddings(walks, cfg, n_nodes=g.num_nodes)
        want = train_embeddings(padded_walks(lists), cfg, n_nodes=g.num_nodes)
        assert got.vectors.tobytes() == want.vectors.tobytes() and got.epoch_losses == want.epoch_losses

    def test_walks_are_freed_before_the_first_step(self, monkeypatch):
        g = two_rings()
        cfg = self.cfg(epochs=1)
        refs, alive = [], []
        step = node2vec._sgns_loss_grad

        def walks():
            out = biased_walks(g, cfg)
            refs.append(weakref.ref(out))
            return out

        def probed(*args):
            alive.append(refs[0]() is not None)
            return step(*args)

        monkeypatch.setattr(node2vec, "_sgns_loss_grad", probed)
        train_embeddings(walks(), cfg, n_nodes=g.num_nodes)
        assert alive and not alive[0]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="dimensions"):
            Node2vecConfig(dimensions=0)
        with pytest.raises(ValueError, match="return_param"):
            Node2vecConfig(return_param=0.0)


class TestWeightedObjective:
    walks = [[0, 1, 2, 1, 0, 1], [2, 3, 2, 3], [4], [3, 2]]
    window = 2

    def tables(self, seed, n_negatives):
        rng = np.random.default_rng(seed)
        pairs = _pair_table(padded_walks(self.walks), self.window, 5)
        w_center = rng.normal(scale=0.7, size=(5, 3))
        w_context = rng.normal(scale=0.7, size=(5, 3))
        negatives = rng.integers(0, 5, size=(len(pairs.centers), n_negatives))
        return pairs, w_center, w_context, negatives

    def test_counted_pairs_cover_every_raw_pair(self):
        pairs = _pair_table(padded_walks(self.walks), self.window, 5)
        raw = Counter(zip(*window_pairs(self.walks, self.window)))
        total = sum(raw.values())
        center = slab_centers(pairs)
        got = {(int(c), int(o)): w for c, o, w in zip(center, pairs.context, pairs.weight)}
        assert got == pytest.approx({key: count / total for key, count in raw.items()}, rel=1e-15)
        assert len(got) < total
        # slab m holds each center's m-th pair by ascending context, so a center's contexts ascend from slab to slab
        for c in pairs.centers:
            assert np.all(np.diff(pairs.context[center == c]) > 0), c
        assert pairs.centers.tolist() == [0, 1, 2, 3]
        assert pairs.center_weight.sum() == pytest.approx(1.0, rel=1e-15)

    def test_positive_term_equals_naive_per_pair_average(self):
        pairs, w_center, w_context, negatives = self.tables(15, 0)
        loss, _, _ = _sgns_loss_grad(w_center, w_context, pairs, negatives)
        centers, contexts = window_pairs(self.walks, self.window)
        want = naive_sgns_loss(w_center.tolist(), w_context.tolist(), centers, contexts, {})
        assert loss == pytest.approx(want, rel=1e-12)

    def test_fixed_negatives_equal_naive_per_pair_average(self):
        pairs, w_center, w_context, negatives = self.tables(16, 3)
        loss, _, _ = _sgns_loss_grad(w_center, w_context, pairs, negatives)
        centers, contexts = window_pairs(self.walks, self.window)
        by_center = {int(c): row.tolist() for c, row in zip(pairs.centers, negatives)}
        want = naive_sgns_loss(w_center.tolist(), w_context.tolist(), centers, contexts, by_center)
        assert loss == pytest.approx(want, rel=1e-12)

    def test_gradient_matches_central_differences(self):
        pairs, w_center, w_context, negatives = self.tables(17, 4)
        _, d_center, d_context = _sgns_loss_grad(w_center, w_context, pairs, negatives)
        eps = 1e-6
        for table, analytic in ((w_center, d_center), (w_context, d_context)):
            fd = np.zeros_like(table)
            for idx in np.ndindex(table.shape):
                old = table[idx]
                table[idx] = old + eps
                hi, _, _ = _sgns_loss_grad(w_center, w_context, pairs, negatives)
                table[idx] = old - eps
                lo, _, _ = _sgns_loss_grad(w_center, w_context, pairs, negatives)
                table[idx] = old
                fd[idx] = (hi - lo) / (2.0 * eps)
            rel = np.abs(analytic - fd) / np.maximum(1e-8, np.abs(analytic) + np.abs(fd))
            assert rel.max() <= 1e-4
            assert np.abs(analytic).max() > 1e-3


def random_padded(rng, n_nodes, n_walks, longest=8):
    """Walks of lengths 1 to longest over n_nodes nodes, padded; a length-1 walk is one from an isolated node."""
    walks = [rng.integers(0, n_nodes, size=rng.integers(1, longest + 1)).tolist() for _ in range(n_walks)]
    walks[int(rng.integers(n_walks))] = [0]
    return padded_walks(walks)


class TestWalkPairs:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_per_offset_concatenation(self, seed):
        rng = np.random.default_rng(seed)
        padded = random_padded(rng, int(rng.integers(3, 30)), int(rng.integers(1, 40)))
        # windows below, at and above the longest walk
        for window in (1, 2, 7, 8, 12):
            got, want = _walk_pairs(padded, window), per_offset_forward_pairs(padded, window)
            assert all(a.dtype == b.dtype == np.int64 and a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_gaps_inside_walks_and_walks_without_gaps(self):
        rng = np.random.default_rng(6)
        walks = rng.integers(0, 9, size=(11, 7))
        holed = np.where(rng.random(walks.shape) < 0.3, -1, walks)
        for padded in (walks, holed):
            got, want = _walk_pairs(padded, 3), per_offset_forward_pairs(padded, 3)
            assert all(a.dtype == b.dtype == np.int64 and a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_walks_without_pairs_give_empty_arrays(self):
        for padded in (padded_walks([[0], [3]]), np.full((2, 4), -1)):
            centers, contexts = _walk_pairs(padded, 2)
            assert centers.dtype == contexts.dtype == np.int64 and len(centers) == len(contexts) == 0


class TestChunkedPairTable:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_one_shot_table_at_any_budget(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        n_nodes, window = int(rng.integers(3, 30)), int(rng.integers(1, 5))
        padded = random_padded(rng, n_nodes, int(rng.integers(5, 40)))
        want = one_shot_pair_table(padded, window, n_nodes)
        total = len(per_offset_walk_pairs(padded, window)[0])
        blocks = []

        def recorded(block, w):
            pairs = _walk_pairs(block, w)
            blocks.append((len(block), len(pairs[0])))
            return pairs

        monkeypatch.setattr(node2vec, "_walk_pairs", recorded)
        # one and two pairs, a budget that does not divide the pair count, and one above it
        for budget in (1, 2, next(k for k in range(3, total) if total % k), total + 5):
            monkeypatch.setattr(node2vec, "PAIR_BUDGET", budget)
            blocks.clear()
            got = _pair_table(padded, window, n_nodes)
            assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want)), budget
            assert sum(walks for walks, _ in blocks) == len(padded)
            # a block holds at most the budget of raw pairs, twice its forward pairs, unless it is one walk holding more
            assert all(2 * pairs <= budget or walks == 1 for walks, pairs in blocks), budget
        assert len(blocks) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_rev_points_at_each_pairs_reverse_at_any_budget(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        n_nodes, window = int(rng.integers(3, 30)), int(rng.integers(1, 5))
        padded = random_padded(rng, n_nodes, int(rng.integers(5, 40)))
        total = len(per_offset_walk_pairs(padded, window)[0])
        for budget in (1, 2, next(k for k in range(3, total) if total % k), total + 5):
            monkeypatch.setattr(node2vec, "PAIR_BUDGET", budget)
            pairs = _pair_table(padded, window, n_nodes)
            center = slab_centers(pairs)
            assert pairs.rev.dtype == np.int64, budget
            assert np.array_equal(center[pairs.rev], pairs.context), budget
            assert np.array_equal(pairs.context[pairs.rev], center), budget
            assert pairs.weight[pairs.rev].tobytes() == pairs.weight.tobytes(), budget
            assert np.array_equal(pairs.rev[pairs.rev], np.arange(len(pairs.rev))), budget

    def test_a_node_two_steps_from_itself_is_its_own_reverse(self):
        # A-D-A: (A, D) and (D, A) at offset 1 and (A, A) at offset 2, each counted both ways round.
        # A has two pairs and D one: slab 0 holds (A, A) and (D, A), slab 1 holds (A, D).
        pairs = _pair_table(padded_walks([[0, 1, 0]]), 2, 2)
        assert pairs.by_count.tolist() == [0, 1] and pairs.slabs.tolist() == [2, 1]
        assert list(zip(slab_centers(pairs).tolist(), pairs.context.tolist())) == [(0, 0), (1, 0), (0, 1)]
        assert pairs.weight.tolist() == [2 / 6, 2 / 6, 2 / 6]
        assert pairs.rev.tolist() == [0, 2, 1]

    def test_per_pair_fields_hold_the_same_bytes_at_any_width(self, monkeypatch):
        walks = np.random.default_rng(3).integers(0, 50, size=(200, 20))
        tables = []

        def recorded(*args):
            tables.append(_pair_table(*args))
            return tables[-1]

        monkeypatch.setattr(node2vec, "_pair_table", recorded)
        monkeypatch.setattr(node2vec, "STEPS_PER_EPOCH", 1)
        for d in (1, 16):
            train_embeddings(walks, Node2vecConfig(dimensions=d, epochs=1), 50)
        narrow, wide = tables
        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(narrow, wide))
        per_center = ("centers", "center_weight", "by_count", "slabs")
        per_pair = [getattr(wide, name).nbytes for name in wide._fields if name not in per_center]
        # context, weight and rev: 3 words a pair, and no field grows with d
        assert sum(per_pair) <= len(wide.context) * 3 * 8

    def test_walks_without_pairs_give_none_at_any_budget(self, monkeypatch):
        padded = padded_walks([[0], [3], [1], [2], [4]])
        for budget in (1, 2, 3, 9):
            monkeypatch.setattr(node2vec, "PAIR_BUDGET", budget)
            assert _pair_table(padded, 2, 5) is None
        assert one_shot_pair_table(padded, 2, 5) is None

    @pytest.mark.parametrize("scale", [1, 4, 16])
    def test_peak_memory_stays_within_the_pair_budget(self, scale):
        rng = np.random.default_rng(scale)
        # every 7th walk is isolated; the other 3,428 of 20 steps hold 2.2 budgets of raw pairs
        padded = rng.integers(0, 50, size=(4000 * scale, 20))
        padded[::7, 1:] = -1
        tracemalloc.start()
        try:
            _pair_table(padded, 5, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * node2vec.PAIR_BUDGET * 8


# (seed, nodes, dimensions, draws per center) of the step comparisons
STEP_CASES = [(0, 12, 16, 5), (1, 9, 1, 3), (2, 7, 4, 0), (3, 7, 4, 1), (4, 50, 8, 6), (5, 20, 3, 2)]
HUB_STEP_CASES = [(6, 60, 16, 5), (7, 45, 3, 2), (8, 80, 1, 0)]


class TestStepMatchesFlatKeyReference:
    """_sgns_loss_grad against the one-bincount scatter it replaced, over random pair tables."""

    @pytest.mark.parametrize(
        "seed, n_nodes, d, k, walks_over",
        [pytest.param(*case, "some", id="-".join(map(str, case))) for case in STEP_CASES]
        + [pytest.param(*case, "all", id="all_centers-" + "-".join(map(str, case))) for case in STEP_CASES]
        + [pytest.param(*case, "hub", id="hub-" + "-".join(map(str, case))) for case in HUB_STEP_CASES],
    )
    def test_gradients_equal_bit_for_bit(self, seed, n_nodes, d, k, walks_over):
        rng = np.random.default_rng(seed)
        if walks_over == "hub":
            # every walk passes through node 0, so its run of pairs is several times the next center's
            walks = [[a, 0, b] for a, b in rng.integers(1, n_nodes, size=(2 * n_nodes, 2)).tolist()]
        else:
            # walks of lengths 1 to 8 over part of the nodes, or over all with a two-step walk from each
            some = rng.choice(n_nodes, size=max(2, 2 * n_nodes // 3), replace=False)
            visited = np.arange(n_nodes) if walks_over == "all" else some
            walks = [rng.choice(visited, size=rng.integers(1, 9)).tolist() for _ in range(3 * n_nodes)]
            if walks_over == "all":
                walks += [[node, rng.choice(visited)] for node in range(n_nodes)]
        pairs = _pair_table(padded_walks(walks), 3, n_nodes)
        if walks_over == "hub":
            runs = np.sort(np.bincount(slab_centers(pairs)))
            assert pairs.by_count[0] == 0 and runs[-1] >= 3 * runs[-2], runs[-2:]
        else:
            assert (len(pairs.centers) == n_nodes) == (walks_over == "all")
        w_center = rng.normal(scale=2.0, size=(n_nodes, d))
        w_context = rng.normal(scale=2.0, size=(n_nodes, d))
        # repeated draws, and every other center drawn as its own negative
        negatives = rng.integers(0, n_nodes, size=(len(pairs.centers), k))
        negatives[::2, :1] = pairs.centers[::2, None]
        loss, d_center, d_context = _sgns_loss_grad(w_center, w_context, pairs, negatives)
        want_loss, want_center, want_context = flat_key_sgns_loss_grad(w_center, w_context, pairs, negatives)
        assert d_center.tobytes() == want_center.tobytes()
        assert d_context.tobytes() == want_context.tobytes()
        assert loss == pytest.approx(want_loss, rel=1e-12)

    def test_negatives_are_gathered_after_the_pairs_are_done(self):
        rng = np.random.default_rng(0)
        n_nodes, d = 40, 16
        pairs = _pair_table(rng.integers(0, n_nodes, size=(800, 20)), 5, n_nodes)
        n_pairs, n_centers = len(pairs.context), len(pairs.centers)
        # as many draws as pairs: the negatives' gathered rows weigh as much as one block of pair rows
        negatives = rng.integers(0, n_nodes, size=(n_centers, n_pairs // n_centers))
        assert negatives.size == n_pairs
        w_center = rng.normal(size=(n_nodes, d))
        w_context = rng.normal(size=(n_nodes, d))
        tracemalloc.start()
        try:
            _sgns_loss_grad(w_center, w_context, pairs, negatives)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Words held at once: at most the two gathered blocks of pair rows (2 P d), a few per-pair
        # or per-draw vectors (8 P, with P draws) and four (n x d) tables: the two gradients, the
        # negatives' transposed context gradient and the transposed center rows. Holding the
        # negatives' P d words of rows beside both pair blocks takes 3 P d, more than the bound.
        assert peak <= ((2 * d + 8) * n_pairs + 4 * n_nodes * d) * 8


    def test_step_holds_no_pairs_by_d_array(self):
        rng = np.random.default_rng(1)
        n_nodes, d, k = 40, 16, 2
        pairs = _pair_table(rng.integers(0, n_nodes, size=(800, 20)), 5, n_nodes)
        n_pairs = len(pairs.context)
        assert n_pairs >= 20 * n_nodes
        negatives = rng.integers(0, n_nodes, size=(len(pairs.centers), k))
        w_center = rng.normal(size=(n_nodes, d))
        w_context = rng.normal(size=(n_nodes, d))
        tracemalloc.start()
        try:
            _sgns_loss_grad(w_center, w_context, pairs, negatives)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Words held at once. Pair vectors: at most 4. The table is read in place, so they are the
        # scores and exp(-|s|) beside the loss's softplus and its log1p term, or beside the sigmoid's
        # output and its 1 + exp(-|s|); later only g and g of the reverses. (n x d) tables: at most
        # 6 + k (the center rows by count, the two sums, one slab's two gathered row blocks, the two
        # gradients; the negatives' k gathered rows per center). With P >= 20 n and d = 16 the bound
        # is at most 4 P + 6.4 P words, while gathering the pairs' rows as one (pairs x d) block each
        # side takes 2 P d = 32 P words alone. Reading the table through a slab permutation, with a
        # table-order buffer and a gathered copy of the contexts, takes more than 4 pair vectors.
        assert peak <= (4 * n_pairs + (6 + k) * n_nodes * d) * 8


class TestEmbeddingFiles:
    def make_embeddings(self, g):
        rng = np.random.default_rng(9)
        return Embeddings(rng.normal(size=(g.num_nodes, 4)), [])

    def test_round_trip_exact(self, tmp_path):
        g = five_node_fixture()
        emb = self.make_embeddings(g)
        path = tmp_path / "embeddings.tsv"
        save_embeddings(emb, g, str(path))
        loaded = load_embeddings(str(path), g)
        assert np.array_equal(loaded.vectors, emb.vectors)

    def test_rows_match_per_value_formatting(self, tmp_path):
        g = five_node_fixture()
        rng = np.random.default_rng(10)
        vectors = rng.normal(size=(g.num_nodes, 3)) * 10.0 ** rng.integers(-300, 300, size=(g.num_nodes, 3))
        vectors[0] = [0.0, -0.0, 5e-324]
        path = tmp_path / "embeddings.tsv"
        save_embeddings(Embeddings(vectors, []), g, str(path))
        want = "".join(
            ext + "".join(f"\t{v:.17g}" for v in vectors[index]) + "\n" for index, ext in enumerate(g.ids)
        )
        assert path.read_text(encoding="utf-8") == want

    def test_unknown_node_id(self, tmp_path):
        g = five_node_fixture()
        path = tmp_path / "embeddings.tsv"
        path.write_text("ghost\t0\t0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1: unknown node id"):
            load_embeddings(str(path), g)

    def test_row_out_of_node_order_names_the_expected_id(self, tmp_path):
        g = five_node_fixture()
        path = tmp_path / "embeddings.tsv"
        save_embeddings(self.make_embeddings(g), g, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[1], lines[0]] + lines[2:]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"embeddings\.tsv:1: row for node id 'a1' out of place; node 0 is 'a0'"):
            load_embeddings(str(path), g)
        path.write_text("\n".join(lines + lines[:1]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":6: row for node id 'a0' out of place; the graph has 5 nodes"):
            load_embeddings(str(path), g)

    def test_account_and_device_sharing_an_id_keep_their_rows(self, tmp_path):
        g = DeviceSharingGraph(["x", "y", "x"], [True, True, False], [(0, 2), (1, 2)])
        emb = self.make_embeddings(g)
        path = tmp_path / "embeddings.tsv"
        save_embeddings(emb, g, str(path))
        assert np.array_equal(load_embeddings(str(path), g).vectors, emb.vectors)

    def test_missing_node_rejected(self, tmp_path):
        g = five_node_fixture()
        emb = self.make_embeddings(g)
        path = tmp_path / "embeddings.tsv"
        save_embeddings(emb, g, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing"):
            load_embeddings(str(path), g)

    def test_inconsistent_width_rejected(self, tmp_path):
        g = five_node_fixture()
        path = tmp_path / "embeddings.tsv"
        rows = ["a0\t1\t2", "a1\t3", "a2\t4\t5", "d3\t6\t7", "d4\t8\t9"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2: inconsistent"):
            load_embeddings(str(path), g)

    def test_non_numeric_value_rejected(self, tmp_path):
        g = five_node_fixture()
        path = tmp_path / "embeddings.tsv"
        path.write_text("a0\tx\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1: non-numeric"):
            load_embeddings(str(path), g)

    def test_non_finite_value_rejected(self, tmp_path):
        g = five_node_fixture()
        path = tmp_path / "embeddings.tsv"
        for bad in ("nan", "inf", "-inf"):
            rows = ["a0\t1\t2", "a1\t3\t4", f"a2\t5\t{bad}", "d3\t6\t7", "d4\t8\t9"]
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            with pytest.raises(ValueError, match=r"embeddings\.tsv:3: non-finite embedding value"):
                load_embeddings(str(path), g)


class TestEmbedConcatFit:
    def dataset(self):
        # Ring of 3 on one device plus six regulars on private devices.
        kinds = "A" * 9 + "D" * 7
        edges = [(0, 9), (1, 9), (2, 9)] + [(3 + i, 10 + i) for i in range(6)]
        g = make_graph(kinds, edges)
        rng = np.random.default_rng(10)
        features = rng.normal(size=(9, 3))
        features[:3] += 1.0
        return make_dataset(g, features, high_risk=[True] * 3 + [False] * 6)

    def test_model_consumes_embedding_then_features(self):
        ds = self.dataset()
        n2v = Node2vecConfig(dimensions=4, walk_length=8, walks_per_node=10, window=2, seed=0)
        gb = GBDTConfig(n_trees=10, max_depth=2, min_samples_leaf=1, seed=1)
        model, emb = embed_concat_fit(ds, n2v, gb, negative_sample_rate=1.0)
        assert model.n_features == 4 + 3
        assert emb.vectors.shape == (ds.graph.num_nodes, 4)

        # Rebuild the documented training matrix and refit: identical model.
        accounts = [int(i) for i in ds.graph.account_indices()]
        positives = [r for r in range(9) if ds.high_risk[r]]
        negatives = sample_negatives(np.arange(3, 9), 1.0, np.random.default_rng(gb.seed)).tolist()
        chosen = positives + negatives
        x = np.hstack(
            [emb.vectors[[accounts[r] for r in chosen]], ds.features[chosen]]
        )
        y = np.array([1.0] * len(positives) + [0.0] * len(negatives))
        again = gbdt_fit(x, y, gb)
        assert np.array_equal(gbdt_predict_batch(model, x), gbdt_predict_batch(again, x))

    def test_no_tagged_train_account_rejected(self):
        ds = self.dataset()
        ds.is_test[:3] = True
        n2v = Node2vecConfig(dimensions=4, walk_length=8, walks_per_node=10, window=2, seed=0)
        with pytest.raises(ValueError, match="no tagged high-risk"):
            embed_concat_fit(ds, n2v, GBDTConfig(n_trees=10, seed=1), 0.25)

    def test_rows_of_the_whole_layout_are_the_training_layout(self):
        ds = self.dataset()
        emb = Embeddings(np.random.default_rng(3).normal(size=(ds.graph.num_nodes, 4)), [])
        rows = np.array([4, 0, 8, 0, 2])
        whole = concat_rows(emb, ds)
        assert np.array_equal(whole[:, :4], emb.vectors[ds.graph.account_indices()])
        assert np.array_equal(whole[:, 4:], ds.features)
        assert np.array_equal(concat_rows(emb, ds, rows), whole[rows])

