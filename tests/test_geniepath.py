import re

import numpy as np
import pytest

from fraudring.geniepath import (
    BreadthLayerParams,
    CheckpointFormatError,
    GeniePathParams,
    LSTMParams,
    attention_weights,
    backward,
    forward,
    gradient_check,
    init_params,
    load_params,
    save_params,
    sigmoid,
    _breadth_forward,
    _tensor_spec,
)
from fraudring.graph import DeviceSharingGraph
from reference import (
    add_at_backward,
    as_lists,
    breadth_layer,
    cached_add_at_backward,
    depth_layer,
    full_forward,
    masked_sigmoid,
    scalar_attention,
    scalar_breadth_layer,
    scalar_geniepath_forward,
    scalar_lstm,
)
from util import adjacency_lists, make_graph, random_bipartite


def named_lists(params: GeniePathParams) -> dict:
    return {name: as_lists(arr) for name, arr in params.named_arrays()}


def rand_layer(k: int, rng: np.random.Generator) -> BreadthLayerParams:
    return BreadthLayerParams(
        w_agg=rng.normal(size=(k, k)),
        w_src=rng.normal(size=(k, k)),
        w_dst=rng.normal(size=(k, k)),
        attn=rng.normal(size=k),
    )


def fixture_12(seed=0, p=3, k=4, t=2):
    """12-node bipartite graph with features and params for oracle tests."""
    rng = np.random.default_rng(seed)
    g = random_bipartite(rng, 6, 6, 0.5)
    features = rng.normal(size=(6, p))
    params = init_params(p, hidden_dim=k, n_layers=t, seed=seed)
    return g, features, params


ORDERS = ["accounts first", "devices first", "interleaved"]


def reorder(g: DeviceSharingGraph, order: str, rng: np.random.Generator) -> DeviceSharingGraph:
    """g with its nodes renumbered: accounts first (as given), devices first, or shuffled."""
    if order == "accounts first":
        perm = np.arange(g.num_nodes)
    elif order == "devices first":
        perm = np.concatenate([np.flatnonzero(~g.is_account), g.account_indices()])
    else:
        perm = rng.permutation(g.num_nodes)
    new_index = np.argsort(perm)
    return DeviceSharingGraph([g.ids[i] for i in perm], g.is_account[perm],
                              [(new_index[u], new_index[v]) for u, v in g.edges()])


def assert_gradients_match(got: GeniePathParams, want: GeniePathParams, g: DeviceSharingGraph) -> None:
    """Every block bit for bit, except the four sums of each layer with fewer centres than the oracle.

    A layer's w_agg, attn, w_src and w_dst gradients are products summed
    over its centre or candidate rows. The full-graph oracle's centres are
    every node. The last layer's are the accounts, and the layers below it
    leave out isolated devices, which no account reads; the oracle sums
    their rows as exact zeros. OpenBLAS groups a sum by position, so dropping
    those rows regroups it and may change the last bits. These blocks agree
    within rtol 1e-10, or within 1e-14 of the largest gradient entry where
    their terms cancel to near zero.
    """
    isolated_device = np.any((np.diff(g.csr()[0]) == 0) & ~g.is_account)
    fewer = range(got.n_layers) if isolated_device else [got.n_layers - 1]
    regrouped = {f"layer{t}.{name}" for t in fewer for name in ("w_agg", "attn", "w_src", "w_dst")}
    atol = 1e-14 * np.abs(want.vector).max()
    for (name, a), (_, b) in zip(got.named_arrays(), want.named_arrays()):
        if name in regrouped:
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=atol, err_msg=name)
        else:
            assert a.tobytes() == b.tobytes(), name


def oracle_cases(seed: int, order: str, trials: int, hidden_dim: int | None = None):
    """(trial, g, params, features, dprobs) on random graphs of 2-15 accounts and 0-15 devices.

    Layers cycle through 1-3; the hidden size is drawn from 1-5 unless given.
    """
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        n_acc, n_dev = int(rng.integers(2, 16)), int(rng.integers(0, 16))
        g = reorder(random_bipartite(rng, n_acc, n_dev, rng.uniform(0.0, 0.5)), order, rng)
        k = hidden_dim or int(rng.integers(1, 6))
        params = init_params(3, hidden_dim=k, n_layers=trial % 3 + 1, seed=trial)
        yield trial, g, params, rng.normal(size=(n_acc, 3)), rng.normal(size=n_acc)


def receptive_field_cases(seed: int, order: str, trials: int, hidden_dim: int | None = None):
    """(trial, g, params, features, rows, dprobs): oracle_cases with loss rows, dprobs given at the rows.

    Over each nine trials every count of 1-3 layers meets every kind of
    rows: one account, every account, or a random half of the accounts.
    """
    rng = np.random.default_rng([seed, 1])
    for trial, g, params, features, dprobs in oracle_cases(seed, order, trials, hidden_dim):
        n_acc = len(features)
        kind = trial // 3 % 3
        if kind == 0:
            rows = rng.integers(n_acc, size=1)
        elif kind == 1:
            rows = np.arange(n_acc)
        else:
            rows = np.sort(rng.choice(n_acc, size=n_acc // 2, replace=False))
        yield trial, g, params, features, rows, dprobs[rows]


def case_traits(g: DeviceSharingGraph, rows: np.ndarray) -> set[str]:
    """Which of the graph shapes the receptive-field tests must meet this case has."""
    degree = np.diff(g.csr()[0])
    traits = set()
    if np.any((degree == 0) & g.is_account):
        traits.add("isolated account")
    if np.any((degree == 0) & ~g.is_account):
        traits.add("isolated device")
    loss = np.zeros(g.num_nodes, dtype=bool)
    loss[g.account_indices()[rows]] = True
    for node in np.flatnonzero(loss):
        for device in g.neighbors(node):
            if not loss[g.neighbors(device)].all():
                traits.add("device shared with a non-loss account")
    return traits


class TestReceptiveField:
    @pytest.mark.parametrize("order", ORDERS)
    def test_loss_rows_equal_the_full_graph_oracle(self, order):
        # The oracle computes every layer at every node and gets dprobs as
        # zero outside the rows. Its sums run over more rows, exact zeros
        # among them, so the gradients may differ in the last bits; the
        # probabilities at the rows may not. numpy hands a one-row product to
        # BLAS's matrix-vector kernel, which sums in another order, so one
        # row's probability agrees within rtol 1e-12 instead.
        met = set()
        for trial, g, params, features, rows, dprobs in receptive_field_cases(20 + ORDERS.index(order), order, 36):
            probs, cache = forward(params, g, features, rows)
            want, _ = full_forward(params, g, features)
            if len(rows) > 1:
                assert probs.tobytes() == want[rows].tobytes(), trial
            else:
                np.testing.assert_allclose(probs, want[rows], rtol=1e-12, atol=0)
            full_dprobs = np.zeros(len(want))
            full_dprobs[rows] = dprobs
            got, ref = backward(params, cache, dprobs), add_at_backward(params, g, features, full_dprobs)
            atol = 1e-14 * np.abs(ref.vector).max()
            for (name, a), (_, b) in zip(got.named_arrays(), ref.named_arrays()):
                np.testing.assert_allclose(a, b, rtol=1e-10, atol=atol, err_msg=f"trial {trial} {name}")
            # The scatters into the receptive field add as np.add.at into every node does.
            assert got.vector.tobytes() == cached_add_at_backward(params, cache, dprobs).vector.tobytes()
            met |= case_traits(g, rows)
        assert met == {"isolated account", "isolated device", "device shared with a non-loss account"}

    @pytest.mark.parametrize("order", ORDERS)
    def test_default_width_agrees_with_the_full_graph_oracle(self, order):
        # As TestBackward's test of the same name: OpenBLAS's gemv may sum
        # rows past the last multiple of four in another order.
        for trial, g, params, features, rows, dprobs in receptive_field_cases(
            30 + ORDERS.index(order), order, 9, hidden_dim=16
        ):
            probs, cache = forward(params, g, features, rows)
            want, _ = full_forward(params, g, features)
            np.testing.assert_allclose(probs, want[rows], rtol=1e-12, atol=0)
            full_dprobs = np.zeros(len(want))
            full_dprobs[rows] = dprobs
            got, ref = backward(params, cache, dprobs), add_at_backward(params, g, features, full_dprobs)
            np.testing.assert_allclose(
                got.vector, ref.vector, rtol=1e-10, atol=1e-12 * np.abs(ref.vector).max()
            )

    def test_each_layer_pools_exactly_its_centre_segments(self):
        # a0 - d2 - a1 - d4 - a3, and a5 alone; the loss reads a0 only.
        g = make_graph("AADADA", [(0, 2), (1, 2), (1, 4), (3, 4)])
        _, cache = forward(init_params(3, hidden_dim=2, n_layers=3, seed=0), g, np.ones((4, 3)), np.array([0]))
        assert [nodes.tolist() for nodes in cache.nodes] == [[0, 1, 2, 4], [0, 1, 2], [0, 2], [0]]
        assert [pos.tolist() for pos in cache.row_pos] == [[0], [0], [0], [0]]
        assert cache.input_accounts.tolist() == [0, 1]

        for trial, g, params, features, rows, _ in receptive_field_cases(40, "interleaved", 36):
            _, cache = forward(params, g, features, rows)
            assert cache.nodes[-1].tolist() == g.account_indices()[rows].tolist(), trial
            for t, lc in enumerate(cache.layer_caches):
                lists = [[int(c)] + g.neighbors(c).tolist() for c in cache.nodes[t + 1]]
                got = np.split(cache.nodes[t][lc.dst], lc.seg_starts[1:])
                assert [segment.tolist() for segment in got] == lists, (trial, t)
                assert lc.src.tolist() == [i for i, segment in enumerate(lists) for _ in segment]
                assert cache.nodes[t][lc.centre_rows].tolist() == cache.nodes[t + 1].tolist()
                assert cache.nodes[t].tolist() == sorted({v for segment in lists for v in segment})

    def test_rows_must_be_ascending_account_rows(self):
        g, features, params = fixture_12()
        for rows in ([1, 0], [2, 2], [-1], [6]):
            with pytest.raises(ValueError, match="ascending account rows"):
                forward(params, g, features, np.array(rows))


class TestInputLayer:
    @pytest.mark.parametrize("order", ORDERS)
    def test_equals_the_per_candidate_layer_bit_for_bit(self, order):
        # Layer 0 scores its candidates from per-node tables. _breadth_forward,
        # which runs the layers above it, builds every candidate's tanh term.
        # On the same input rows and lists the two give the same weights, sums
        # and outputs, and every (rows x hidden) array layer 0 keeps has a row
        # per node, none a row per candidate.
        seed = 60 + ORDERS.index(order)
        cases = [(g, params, features, None) for _, g, params, features, _ in oracle_cases(seed, order, 9)]
        for trials, hidden_dim in ((36, None), (9, 16)):
            cases += [case[1:5] for case in receptive_field_cases(seed, order, trials, hidden_dim)]
        met = set()
        for g, params, features, rows in cases:
            for loss_rows in [None] if rows is None else [rows, rows[:0]]:
                _, cache = forward(params, g, features, loss_rows)
                lc = cache.layer_caches[0]
                h1, want = _breadth_forward(
                    params.layers[0], cache.h_stack[0], lc.src, lc.dst, lc.seg_starts, lc.centre_rows
                )
                assert lc.alpha.tobytes() == want.alpha.tobytes()
                assert lc.agg.tobytes() == want.agg.tobytes()
                assert cache.h_stack[1].tobytes() == h1.tobytes()
                per_node = {len(cache.nodes[0]), len(cache.nodes[1])}
                for name, value in vars(lc).items():
                    assert value.ndim == 1 or value.shape[0] in per_node, name
                if len(lc.src) not in per_node:
                    met.add("more candidates than nodes")
                n_rows = len(cache.nodes[-1])
                met |= {f"{params.n_layers} layers", f"hidden {params.hidden_dim}", f"{min(n_rows, 2)} rows"}
                met |= case_traits(g, np.arange(n_rows) if loss_rows is None else loss_rows)
        assert met >= {
            "more candidates than nodes", "isolated account", "isolated device", "1 layers", "2 layers",
            "3 layers", "hidden 1", "hidden 2", "hidden 3", "hidden 4", "hidden 5", "hidden 16", "0 rows",
            "1 rows", "2 rows",
        }


class TestAttention:
    def test_no_neighbors_gives_weight_one(self):
        rng = np.random.default_rng(0)
        layer = rand_layer(4, rng)
        w = attention_weights(layer, rng.normal(size=4), np.zeros((0, 4)))
        assert w.shape == (1,)
        assert w[0] == 1.0

    def test_zero_attention_vector_gives_uniform(self):
        rng = np.random.default_rng(1)
        layer = rand_layer(4, rng)
        layer.attn = np.zeros(4)
        w = attention_weights(layer, rng.normal(size=4), rng.normal(size=(3, 4)))
        assert w == pytest.approx(np.full(4, 0.25))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        layer = rand_layer(5, rng)
        h_u = rng.normal(size=5)
        h_nbrs = rng.normal(size=(4, 5))
        got = attention_weights(layer, h_u, h_nbrs)
        want = scalar_attention(
            as_lists(layer.w_src),
            as_lists(layer.w_dst),
            as_lists(layer.attn),
            as_lists(h_u),
            as_lists(h_nbrs),
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_weights_sum_to_one_over_random_draws(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            k = int(rng.integers(2, 8))
            n_nbrs = int(rng.integers(0, 6))
            layer = rand_layer(k, rng)
            w = attention_weights(
                layer, rng.normal(size=k) * 3, rng.normal(size=(n_nbrs, k)) * 3
            )
            assert np.all(w > 0)
            assert abs(w.sum() - 1.0) < 1e-9


class TestBreadthLayer:
    def test_isolated_zero_node_stays_zero(self):
        g = make_graph("AAD", [(1, 2)])
        rng = np.random.default_rng(4)
        layer = rand_layer(3, rng)
        layer.w_agg = np.eye(3)
        h = rng.normal(size=(3, 3))
        h[0] = 0.0
        out = breadth_layer(layer, g, h)
        assert out[0] == pytest.approx(np.zeros(3), abs=0)

    def test_output_strictly_inside_unit_box(self):
        rng = np.random.default_rng(5)
        g = random_bipartite(rng, 8, 8, 0.4)
        layer = rand_layer(6, rng)
        out = breadth_layer(layer, g, rng.normal(size=(16, 6)))
        assert np.all(np.abs(out) < 1.0)

    def test_edge_order_does_not_matter(self):
        rng = np.random.default_rng(6)
        kinds = "AAAADDDD"
        edges = [(0, 4), (0, 5), (1, 4), (2, 6), (3, 7), (1, 7)]
        g1 = make_graph(kinds, edges)
        g2 = make_graph(kinds, list(reversed(edges)))
        layer = rand_layer(4, rng)
        h = rng.normal(size=(8, 4))
        out1 = breadth_layer(layer, g1, h)
        out2 = breadth_layer(layer, g2, h)
        assert np.array_equal(out1, out2)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        g = random_bipartite(rng, 6, 6, 0.5)
        layer = rand_layer(4, rng)
        h = rng.normal(size=(12, 4))
        got = breadth_layer(layer, g, h)
        want = scalar_breadth_layer(
            {
                "w_agg": as_lists(layer.w_agg),
                "w_src": as_lists(layer.w_src),
                "w_dst": as_lists(layer.w_dst),
                "attn": as_lists(layer.attn),
            },
            as_lists(h),
            adjacency_lists(g),
        )
        assert got == pytest.approx(np.array(want), abs=1e-12)


class TestDepthLayer:
    def test_zero_params_zero_inputs_give_zero(self):
        k = 4
        lstm = LSTMParams(np.zeros((4 * k, k)), np.zeros((4 * k, k)), np.zeros(4 * k))
        out = depth_layer(lstm, [np.zeros((5, k)), np.zeros((5, k))])
        assert out == pytest.approx(np.zeros((5, k)), abs=0)

    def test_single_step_sequence(self):
        rng = np.random.default_rng(8)
        k = 3
        lstm = LSTMParams(
            rng.normal(size=(4 * k, k)), rng.normal(size=(4 * k, k)), rng.normal(size=4 * k)
        )
        x = rng.normal(size=(2, k))
        got = depth_layer(lstm, [x])
        for row in range(2):
            want = scalar_lstm(
                as_lists(lstm.w_x), as_lists(lstm.w_h), as_lists(lstm.bias), [as_lists(x[row])]
            )
            assert got[row] == pytest.approx(want, abs=1e-12)

    def test_matches_gate_by_gate_oracle(self):
        rng = np.random.default_rng(9)
        k = 4
        lstm = LSTMParams(
            rng.normal(size=(4 * k, k)), rng.normal(size=(4 * k, k)), rng.normal(size=4 * k)
        )
        xs = [rng.normal(size=(3, k)) for _ in range(3)]
        got = depth_layer(lstm, xs)
        for row in range(3):
            want = scalar_lstm(
                as_lists(lstm.w_x),
                as_lists(lstm.w_h),
                as_lists(lstm.bias),
                [as_lists(x[row]) for x in xs],
            )
            assert got[row] == pytest.approx(want, abs=1e-12)

    def test_empty_sequence_rejected(self):
        lstm = LSTMParams(np.zeros((8, 2)), np.zeros((8, 2)), np.zeros(8))
        with pytest.raises(ValueError, match="at least one"):
            depth_layer(lstm, [])


class TestForward:
    def test_zero_head_gives_half_everywhere(self):
        g, features, params = fixture_12()
        params.w_out[:] = 0.0
        params.b_out[0] = 0.0
        probs, _ = forward(params, g, features)
        assert probs == pytest.approx(np.full(6, 0.5), abs=0)

    def test_isomorphic_components_get_identical_probabilities(self):
        # Two copies of the same two-account hub; mirrored features.
        g = make_graph("AAAADD", [(0, 4), (1, 4), (2, 5), (3, 5)])
        rng = np.random.default_rng(10)
        block = rng.normal(size=(2, 3))
        features = np.vstack([block, block])
        params = init_params(3, hidden_dim=4, n_layers=2, seed=1)
        probs, _ = forward(params, g, features)
        assert probs[0] == pytest.approx(probs[2], abs=1e-15)
        assert probs[1] == pytest.approx(probs[3], abs=1e-15)

    def test_matches_scalar_oracle(self):
        g, features, params = fixture_12(seed=11)
        probs, _ = forward(params, g, features)
        want = scalar_geniepath_forward(
            named_lists(params),
            adjacency_lists(g),
            [int(i) for i in g.account_indices()],
            as_lists(features),
            params.n_layers,
        )
        assert probs == pytest.approx(np.array(want), abs=1e-10)

    def test_forward_is_deterministic(self):
        g, features, params = fixture_12(seed=12)
        p1, _ = forward(params, g, features)
        p2, _ = forward(params, g, features)
        assert np.array_equal(p1, p2)

    def test_dimension_mismatch_rejected(self):
        g, features, params = fixture_12()
        with pytest.raises(ValueError, match="does not match"):
            forward(params, g, features[:, :2])
        with pytest.raises(ValueError, match="does not match"):
            forward(params, g, features[:4])


class TestBackward:
    def test_zero_gradient_in_zero_gradients_out(self):
        g, features, params = fixture_12(seed=13)
        _, cache = forward(params, g, features)
        grads = backward(params, cache, np.zeros(6))
        assert np.all(grads.vector == 0.0)

    def test_single_account_loss_reaches_input_projection(self):
        g, features, params = fixture_12(seed=14)
        _, cache = forward(params, g, features)
        dprobs = np.zeros(6)
        dprobs[2] = 1.0
        grads = backward(params, cache, dprobs)
        assert np.abs(grads.w_in).max() > 0.0

    def test_bincount_scatter_equals_add_at_bit_for_bit(self):
        # The oracle scatters with np.add.at over the same forward cache, so
        # every block, one-account graphs included, must match bit for bit.
        rng = np.random.default_rng(16)
        for trial in range(20):
            g = random_bipartite(rng, int(rng.integers(1, 15)), int(rng.integers(1, 15)), rng.uniform(0.05, 0.6))
            n_acc = len(g.account_indices())
            params = init_params(3, hidden_dim=int(rng.integers(1, 6)), n_layers=int(rng.integers(1, 4)),
                                 seed=trial)
            _, cache = forward(params, g, rng.normal(size=(n_acc, 3)))
            dprobs = rng.normal(size=n_acc)
            got, want = backward(params, cache, dprobs), cached_add_at_backward(params, cache, dprobs)
            assert got.vector.tobytes() == want.vector.tobytes(), trial

    @pytest.mark.parametrize("order", ORDERS)
    def test_account_rows_only_equal_the_full_graph_oracle(self, order):
        for trial, g, params, features, dprobs in oracle_cases(ORDERS.index(order), order, 30):
            probs, cache = forward(params, g, features)
            want, _ = full_forward(params, g, features)
            assert probs.tobytes() == want.tobytes(), trial
            assert_gradients_match(backward(params, cache, dprobs), add_at_backward(params, g, features, dprobs), g)

    @pytest.mark.parametrize("order", ORDERS)
    def test_default_width_agrees_with_the_full_graph_oracle(self, order):
        # From hidden size 8 up, OpenBLAS's gemv sums the rows past the last
        # multiple of four in another order, so a product over other rows
        # than the oracle's may differ in the last bits, and all that follows
        # from it. The attention scores are no such product (_scores).
        for _, g, params, features, dprobs in oracle_cases(10 + ORDERS.index(order), order, 12, hidden_dim=16):
            probs, cache = forward(params, g, features)
            want, _ = full_forward(params, g, features)
            np.testing.assert_allclose(probs, want, rtol=1e-12, atol=0)
            got, want = backward(params, cache, dprobs), add_at_backward(params, g, features, dprobs)
            np.testing.assert_allclose(
                got.vector, want.vector, rtol=1e-10, atol=1e-12 * np.abs(want.vector).max()
            )

    def test_last_layer_pools_the_account_segments_only(self):
        # Devices first, so centres must be renumbered to account rows.
        g = make_graph("DADAAD", [(0, 1), (1, 2), (2, 3), (0, 3)])
        params = init_params(3, hidden_dim=2, n_layers=2, seed=0)
        _, cache = forward(params, g, np.ones((3, 3)))
        first, last = cache.layer_caches
        # The isolated device 5 feeds no account, so it is no centre.
        assert cache.nodes[1].tolist() == [0, 1, 2, 3, 4]
        assert len(first.dst) == 5 + 2 * g.edge_count
        # Account rows 0, 1, 2 are nodes 1, 3, 4; each list is [self, neighbors...].
        assert cache.nodes[1][last.dst].tolist() == [1, 0, 2, 3, 0, 2, 4]
        assert last.src.tolist() == [0, 0, 0, 1, 1, 1, 2]
        assert last.seg_starts.tolist() == [0, 3, 6]
        assert cache.h_stack[-1].shape == (3, 2)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_no_rows_give_zero_gradients(self, n_layers):
        g, features, params = fixture_12(seed=19, t=n_layers)
        probs, cache = forward(params, g, features, np.zeros(0, dtype=np.int64))
        assert probs.shape == (0,)
        assert backward(params, cache, np.zeros(0)).vector.tobytes() == params.zeros_like().vector.tobytes()

    def test_finite_difference_agreement(self):
        g, features, params = fixture_12(seed=15, p=3, k=4, t=2)
        err = gradient_check(params, g, features, positives=[0, 2], negatives=[1, 3, 4], eps=1e-5)
        assert err <= 1e-4

    def test_corrupted_gradient_detected(self):
        g, features, params = fixture_12(seed=15)
        err = gradient_check(
            params, g, features, positives=[0, 2], negatives=[1, 3, 4], eps=1e-5, corrupt="ws"
        )
        assert err > 1e-2

    def test_smaller_epsilon_does_not_hurt(self):
        # Shrinking eps removes truncation error; past that the result sits on
        # the round-off noise floor, so accept either an improvement or a
        # value already below the acceptance limit.
        g, features, params = fixture_12(seed=16)
        coarse = gradient_check(params, g, features, [0, 1], [2, 3], eps=1e-3)
        fine = gradient_check(params, g, features, [0, 1], [2, 3], eps=1e-5)
        assert fine <= coarse or fine <= 1e-4

    def test_callers_params_left_unchanged(self):
        g, features, params = fixture_12(seed=15, p=3, k=4, t=2)
        before = params.vector.copy()
        gradient_check(params, g, features, positives=[0, 2], negatives=[1, 3, 4], eps=1e-5, corrupt="ws")
        assert params.vector.tobytes() == before.tobytes()

    def test_overlapping_labels_rejected(self):
        g, features, params = fixture_12(seed=17)
        with pytest.raises(ValueError, match="overlap"):
            gradient_check(params, g, features, [0, 1], [1, 2], eps=1e-5)

    def test_empty_label_sets_rejected(self):
        g, features, params = fixture_12(seed=19)
        with pytest.raises(ValueError, match="positives and negatives are both empty"):
            gradient_check(params, g, features, [], [], eps=1e-5)

    def test_unknown_corruption_target_rejected(self):
        g, features, params = fixture_12(seed=18)
        with pytest.raises(ValueError, match="unknown corruption"):
            gradient_check(params, g, features, [0], [1], eps=1e-5, corrupt="attn")


def test_sigmoid_equals_masked_form_bit_for_bit():
    rng = np.random.default_rng(17)
    x = np.concatenate([
        rng.normal(scale=30.0, size=2000), [0.0, -0.0, 1e-320, -1e-320, 745.0, -745.0, 1e308, -1e308,
                                             np.inf, -np.inf],
    ])
    assert sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()
    assert sigmoid(x.reshape(-1, 1)).shape == (len(x), 1)
    assert np.isnan(sigmoid(np.array([np.nan]))).all()


class TestParams:
    def test_init_deterministic_and_forget_bias_set(self):
        a = init_params(5, hidden_dim=6, n_layers=2, seed=3)
        b = init_params(5, hidden_dim=6, n_layers=2, seed=3)
        assert np.array_equal(a.vector, b.vector)
        assert np.all(a.lstm.bias[6:12] == 1.0)
        assert np.all(a.lstm.bias[:6] == 0.0)
        assert np.all(a.b_out == 0.0)

    @pytest.mark.parametrize("args, name", [((0, 4, 1), "feature_dim"), ((3, 0, 1), "hidden_dim"),
                                            ((3, 4, -1), "n_layers")])
    def test_init_names_the_size_below_one(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            init_params(*args)

    def test_glorot_bounds(self):
        params = init_params(8, hidden_dim=4, n_layers=1, seed=4)
        bound = np.sqrt(6.0 / (8 + 4))
        assert np.abs(params.w_in).max() <= bound

    def test_vector_round_trip(self):
        params = init_params(3, hidden_dim=4, n_layers=2, seed=5)
        vec = params.vector
        again = params.from_vector(vec)
        assert np.array_equal(again.vector, vec)

    def test_from_vector_size_mismatch_rejected(self):
        params = init_params(3, hidden_dim=4, n_layers=2, seed=6)
        with pytest.raises(ValueError, match="entries"):
            params.from_vector(np.zeros(params.vector.size + 1))

    def test_wrong_size_vector_rejected_at_construction(self):
        size = init_params(3, hidden_dim=4, n_layers=1, seed=7).vector.size
        for vector in (np.zeros(size - 1), np.zeros(size + 1), np.zeros((1, size))):
            with pytest.raises(ValueError, match="entries"):
                GeniePathParams(3, 4, 1, vector)

    def test_validate_rejects_non_finite_entries(self):
        params = init_params(3, hidden_dim=4, n_layers=2, seed=7)
        params.layers[1].w_dst[2, 3] = np.nan
        with pytest.raises(ValueError, match="layer1.w_dst"):
            params.validate()

    @pytest.mark.parametrize("n_layers", [1, 3])
    def test_each_named_view_writes_into_the_vector_at_its_spec_offset(self, n_layers):
        params = init_params(3, hidden_dim=4, n_layers=n_layers, seed=9)
        offset = 0
        for name, shape in _tensor_spec(3, 4, n_layers):
            view = params
            for part in name.split("."):
                view = params.layers[int(part[5:])] if part.startswith("layer") else getattr(view, part)
            assert view.shape == shape, name
            size = view.size
            before = params.vector.copy()
            view[:] = -np.arange(1.0, size + 1).reshape(shape)
            assert np.array_equal(params.vector[offset : offset + size], -np.arange(1.0, size + 1)), name
            outside = np.r_[0:offset, offset + size : before.size]
            assert np.array_equal(params.vector[outside], before[outside]), name
            view += 1.0
            assert params.vector[offset] == 0.0, name
            offset += size
        assert offset == params.vector.size

    def test_copies_share_no_memory_with_their_source(self):
        params = init_params(3, hidden_dim=4, n_layers=2, seed=10)
        vec = params.vector.copy()
        for other in (params.copy(), params.from_vector(params.vector), params.from_vector(vec), params.zeros_like()):
            assert not np.shares_memory(other.vector, params.vector)
            assert not np.shares_memory(other.vector, vec)
            for (name, a), (_, b) in zip(other.named_arrays(), params.named_arrays()):
                assert not np.shares_memory(a, b), name
                assert np.shares_memory(a, other.vector), name


class TestCheckpoint:
    def test_round_trip_is_lossless(self, tmp_path):
        params = init_params(7, hidden_dim=5, n_layers=3, seed=8)
        path = tmp_path / "model.ckpt"
        save_params(params, path)
        loaded = load_params(path)
        assert np.array_equal(loaded.vector, params.vector)
        assert loaded.n_layers == 3

    def test_crlf_loads_the_same_arrays_and_lines_after_end_are_not_read(self, tmp_path):
        params = init_params(4, hidden_dim=3, n_layers=2, seed=14)
        path = tmp_path / "model.ckpt"
        save_params(params, path)
        text = path.read_text(encoding="utf-8")
        for name, edited in (("crlf", text.replace("\n", "\r\n")), ("tail", text + "nan x\ntensor w_in 9\n\nend\n")):
            (tmp_path / name).write_text(edited, encoding="utf-8", newline="")
            loaded = load_params(tmp_path / name)
            assert (loaded.feature_dim, loaded.hidden_dim, loaded.n_layers) == (4, 3, 2), name
            assert loaded.vector.tobytes() == params.vector.tobytes(), name

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_text("something else\n", encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match=":1"):
            load_params(path)

    def test_bad_dims_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_text("geniepath-checkpoint v1\ndims 3 x 2\n", encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match=":2"):
            load_params(path)

    def test_truncated_tensor_names_line(self, tmp_path):
        params = init_params(3, hidden_dim=2, n_layers=1, seed=9)
        path = tmp_path / "model.ckpt"
        save_params(params, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:5]) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match="truncated|missing"):
            load_params(path)

    def test_non_numeric_value_names_tensor(self, tmp_path):
        params = init_params(3, hidden_dim=2, n_layers=1, seed=10)
        path = tmp_path / "model.ckpt"
        save_params(params, path)
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        lines[3] = lines[3].replace(lines[3].split()[0], "oops", 1)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match="non-numeric value in tensor w_in"):
            load_params(path)

    def test_non_integer_shape_names_line(self, tmp_path):
        params = init_params(3, hidden_dim=2, n_layers=1, seed=12)
        path = tmp_path / "model.ckpt"
        save_params(params, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[2] == "tensor w_in 2 3"
        lines[2] = "tensor w_in 2 x"
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match=r"model\.ckpt:3: bad shape \['2', 'x'\] for tensor w_in$"):
            load_params(path)

    def test_missing_end_rejected(self, tmp_path):
        params = init_params(2, hidden_dim=2, n_layers=1, seed=11)
        path = tmp_path / "model.ckpt"
        save_params(params, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[-1] == "end"
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match="end"):
            load_params(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name, row", [("w_in", 0), ("w_in", 7), ("lstm.w_x", 30), ("lstm.bias", 0)])
    def test_non_finite_value_names_its_own_line(self, tmp_path, value, name, row):
        # the default training shape: w_in is 16 rows of 12, on file lines 4-19
        params = init_params(12, hidden_dim=16, n_layers=2, seed=0)
        path = tmp_path / "gnn.ckpt"
        save_params(params, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        header = next(i for i, line in enumerate(lines) if line.startswith(f"tensor {name} "))
        fields = lines[header + 1 + row].split()
        fields[len(fields) // 2] = value
        lines[header + 1 + row] = " ".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
        line = header + 2 + row
        with pytest.raises(CheckpointFormatError, match=rf"gnn\.ckpt:{line}: tensor {name} contains non-finite values$"):
            load_params(path)

    def test_row_checks_go_numbers_then_width_then_finiteness(self, tmp_path):
        params = init_params(3, hidden_dim=2, n_layers=1, seed=13)
        path = tmp_path / "model.ckpt"
        save_params(params, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[2] == "tensor w_in 2 3"
        for text, message in (
            ("nan 1 x", "non-numeric value in tensor w_in"),
            ("nan 1", "tensor w_in row has 2 values, expected 3"),
            ("nan 1 2", "tensor w_in contains non-finite values"),
        ):
            lines[3] = text
            path.write_text("\n".join(lines), encoding="utf-8")
            with pytest.raises(CheckpointFormatError, match=rf"model\.ckpt:4: {re.escape(message)}$"):
                load_params(path)

