import os

import numpy as np
import pytest

from fraudring.graph import (
    ClaimEvent,
    ClaimLog,
    DeviceSharingGraph,
    GraphFormatError,
    LoginEvent,
    LoginLog,
    WindowConfig,
    build_graph,
    component_labels,
    connected_components,
    export_dot,
    khop_neighbor_counts,
    load_claim_events,
    load_graph,
    load_login_events,
    prune_singletons,
    save_claim_events,
    save_graph,
    save_login_events,
)
from reference import (
    bfs_distance_map,
    bfs_hop_counts,
    line_by_line_events,
    line_by_line_graph,
    loop_edge_error,
    naive_build_graph,
    union_find_components,
)
from util import adjacency_lists, make_graph, random_bipartite, random_bipartite_with_small_parts

DAY = 86400
REF = 10_000_000
WINDOW = WindowConfig(reference_time=REF)


def build(claims, logins, window=WINDOW):
    """build_graph over event lists, converted to columnar logs."""
    return build_graph(ClaimLog.from_events(claims), LoginLog.from_events(logins), window)


class TestBuildGraph:
    def test_duplicate_logins_collapse_to_one_edge(self):
        t = REF - DAY
        g = build(
            [ClaimEvent("a1", t)],
            [LoginEvent("a1", "d1", t), LoginEvent("a1", "d1", t + 5)],
            WINDOW,
        )
        assert g.num_nodes == 2
        assert g.edge_count == 1

    def test_login_outside_device_window_ignored(self):
        t = REF - DAY
        g = build(
            [ClaimEvent("a1", t)],
            [LoginEvent("a1", "d1", REF - 41 * DAY)],
            WINDOW,
        )
        assert g.is_account.tolist() == [True]
        assert g.edge_count == 0

    def test_three_accounts_two_shared_devices(self):
        t = REF - DAY
        claims = [ClaimEvent(a, t) for a in ("a1", "a2", "a3")]
        logins = [
            LoginEvent(a, d, t) for a in ("a1", "a2", "a3") for d in ("d1", "d2")
        ]
        g = build(claims, logins)
        assert g.num_nodes == 5
        assert g.edge_count == 6

    def test_account_without_claim_contributes_no_devices(self):
        t = REF - DAY
        g = build(
            [ClaimEvent("a1", t)],
            [LoginEvent("a1", "d1", t), LoginEvent("stranger", "d2", t)],
            WINDOW,
        )
        assert sorted(g.ids) == ["a1", "d1"]

    def test_claim_window_is_half_open(self):
        lo = REF - 30 * DAY
        for ts, expect in ((lo, 1), (lo - 1, 0), (REF - 1, 1), (REF, 0)):
            g = build([ClaimEvent("a1", ts)], [])
            assert len(g.account_indices()) == expect, f"claim at {ts}"

    def test_node_ordering_first_event_then_id(self):
        t = REF - 2 * DAY
        claims = [
            ClaimEvent("late", t + DAY),
            ClaimEvent("b", t),
            ClaimEvent("a", t),
            ClaimEvent("b", t - 100),
        ]
        logins = [
            LoginEvent("a", "d9", t),
            LoginEvent("late", "d1", t + DAY),
            LoginEvent("b", "d9", t - 100),
        ]
        g = build(claims, logins)
        # b's earliest claim beats a's; d9 is first seen before d1.
        assert g.ids == ["b", "a", "late", "d9", "d1"]

    def test_empty_input_yields_empty_graph(self):
        g = build([], [])
        assert g.num_nodes == 0
        assert g.edge_count == 0
        assert connected_components(g) == []
        assert component_labels(g).tolist() == []

    def test_unsorted_events_give_same_graph(self):
        rng = np.random.default_rng(7)
        t = REF - 3 * DAY
        claims = [ClaimEvent(f"a{i}", t + i) for i in range(10)]
        logins = [
            LoginEvent(f"a{i}", f"d{j}", t + i + j)
            for i in range(10)
            for j in range(3)
        ]
        shuffled_claims = [claims[i] for i in rng.permutation(len(claims))]
        shuffled_logins = [logins[i] for i in rng.permutation(len(logins))]
        assert build(shuffled_claims, shuffled_logins) == build(claims, logins)


class TestArrayBuildOracle:
    # Ids whose Python str order differs from a byte or fixed-width string order,
    # and one that differs from another only by a trailing NUL.
    ACCOUNTS = ["a", "a\x00", "b", "B", "a10", "a2", "\u00e9", "z"]
    DEVICES = ["d", "d\x00", "D", "d10", "d2", "\u00e8", "x"]

    def random_logs(self, rng, window):
        boundaries = [
            window.claim_start - 1, window.claim_start, window.device_start - 1, window.device_start,
            window.reference_time - 1, window.reference_time,
        ]
        # A few distinct times, so first times tie often and ties go by id.
        times = boundaries + rng.integers(window.device_start - DAY, window.reference_time + DAY, 4).tolist()
        claims = [
            ClaimEvent(self.ACCOUNTS[rng.integers(len(self.ACCOUNTS))], times[rng.integers(len(times))])
            for _ in range(rng.integers(0, 12))
        ]
        logins = [
            LoginEvent(
                self.ACCOUNTS[rng.integers(len(self.ACCOUNTS))],
                self.DEVICES[rng.integers(len(self.DEVICES))],
                times[rng.integers(len(times))],
            )
            for _ in range(rng.integers(0, 40))
        ]
        return claims, logins

    def test_array_build_matches_naive_build(self):
        rng = np.random.default_rng(21)
        window = WindowConfig(reference_time=REF, claim_window_days=2, device_window_days=3)
        for trial in range(400):
            claims, logins = self.random_logs(rng, window)
            g = build(claims, logins, window)
            ids, is_account, edges = naive_build_graph(claims, logins, window)
            assert g.ids == ids, trial
            assert g.is_account.tolist() == is_account, trial
            assert list(g.edges()) == edges, trial
            assert g.edge_count == len(edges)
            shuffled = [logins[i] for i in rng.permutation(len(logins))]
            assert build(claims[::-1], shuffled, window) == g

    def test_saved_logs_load_to_the_same_columns(self, tmp_path):
        rng = np.random.default_rng(22)
        claims, logins = self.random_logs(rng, WINDOW)
        save_claim_events(claims, tmp_path / "claims.tsv")
        save_login_events(logins, tmp_path / "logins.tsv")
        assert load_claim_events(tmp_path / "claims.tsv") == ClaimLog.from_events(claims)
        assert load_login_events(tmp_path / "logins.tsv") == LoginLog.from_events(logins)


class TestConstructorErrors:
    def test_vectorised_error_equals_loop_error(self):
        rng = np.random.default_rng(23)
        raised = 0
        for trial in range(500):
            kinds = "".join(rng.choice(["A", "D"], size=rng.integers(0, 7)))
            n = len(kinds)
            ends = rng.integers(-2, n + 2, size=(rng.integers(0, 6), 2)).tolist()
            if ends and rng.random() < 0.1:
                ends[rng.integers(len(ends))][rng.integers(2)] = 2**70
            edges = [tuple(e) for e in ends]
            ids, is_account = make_graph(kinds, []).ids, [kind == "A" for kind in kinds]
            want = loop_edge_error(is_account, edges)
            if want is None:
                g = DeviceSharingGraph(ids, is_account, edges)
                assert g.edge_count == len({(min(e), max(e)) for e in edges})
                continue
            raised += 1
            with pytest.raises(ValueError) as excinfo:
                DeviceSharingGraph(ids, is_account, edges)
            assert str(excinfo.value) == want, trial
            if max(max(e) for e in edges) < 2**63:
                with pytest.raises(ValueError) as excinfo:
                    DeviceSharingGraph(ids, is_account, np.array(ends, dtype=np.int64))
                assert str(excinfo.value) == want, trial
        assert raised > 200

    def test_array_and_pair_list_edges_build_equal_graphs(self):
        rng = np.random.default_rng(24)
        g = random_bipartite(rng, 20, 20, 0.2)
        pairs = list(g.edges())
        doubled = [(v, u) for u, v in pairs] + pairs
        assert DeviceSharingGraph(g.ids, g.is_account, np.array(doubled)) == g
        assert DeviceSharingGraph(g.ids, g.is_account, iter(doubled)) == g

    def test_edges_must_be_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            DeviceSharingGraph(["a", "d"], [True, False], np.array([[0, 1, 1]]))


class TestEventLoaderContract:
    LOGIN_DEFECTS = {
        "fields": "a9\td9\t1\textra",
        "empty account": "\td9\t1",
        "empty umid": "a9\t\t1",
        "timestamp": "a9\td9\tnope",
    }

    def load_error(self, path, loader):
        with pytest.raises(GraphFormatError) as excinfo:
            loader(path)
        return str(excinfo.value)

    @pytest.mark.parametrize("first", sorted(LOGIN_DEFECTS))
    @pytest.mark.parametrize("second", sorted(LOGIN_DEFECTS))
    def test_earlier_of_two_defects_is_reported(self, tmp_path, first, second):
        path = tmp_path / "logins.tsv"
        lines = ["a1\td1\t1", self.LOGIN_DEFECTS[first], "a2\td2\t2", self.LOGIN_DEFECTS[second]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = self.load_error(path, load_login_events)
        assert message.startswith(f"{path}:2: ")
        assert message == line_by_line_events(path, ["account id", "device umid"])

    @pytest.mark.parametrize(
        "row, message",
        [
            ("\t\tnope\t", "expected 3 fields, got 4"),
            ("\t\tnope", "empty account id"),
            ("a1\t\tnope", "empty device umid"),
            ("a1\td1\t", "timestamp '' is not an integer"),
        ],
    )
    def test_precedence_within_a_line(self, tmp_path, row, message):
        path = tmp_path / "logins.tsv"
        path.write_text(f"a0\td0\t5\n{row}\n", encoding="utf-8")
        assert self.load_error(path, load_login_events) == f"{path}:2: {message}"

    def test_blank_lines_keep_their_numbers(self, tmp_path):
        path = tmp_path / "claims.tsv"
        path.write_text("\na1\t1\n\n\na2\t2\n\n\tx\n", encoding="utf-8")
        assert self.load_error(path, load_claim_events) == f"{path}:7: empty account id"
        path.write_text("\na1\t1\n\n\na2\t2\n\n", encoding="utf-8")
        assert load_claim_events(path) == ClaimLog(["a1", "a2"], np.array([1, 2]))

    def test_crlf_lines_keep_their_numbers_and_values(self, tmp_path):
        path = tmp_path / "logins.tsv"
        path.write_bytes(b"a1\td1\t1\r\n\r\na2\td2\t2\r\n")
        assert load_login_events(path) == LoginLog(["a1", "a2"], ["d1", "d2"], np.array([1, 2]))
        path.write_bytes(b"a1\td1\t1\r\n\r\na2\td2\t2\r\na3\td3\tx\r\n")
        assert self.load_error(path, load_login_events) == f"{path}:4: timestamp 'x' is not an integer"

    def test_every_int_spelling_still_parses(self, tmp_path):
        path = tmp_path / "claims.tsv"
        path.write_text("a1\t+5\na2\t 7\na3\t1_000\na4\t-3 \n", encoding="utf-8")
        assert load_claim_events(path) == ClaimLog(["a1", "a2", "a3", "a4"], np.array([5, 7, 1000, -3]))

    @pytest.mark.parametrize("text", [str(2**63), str(-(2**63) - 1), "1" + "0" * 30])
    def test_timestamp_outside_int64_names_line(self, tmp_path, text):
        path = tmp_path / "claims.tsv"
        path.write_text(f"a1\t1\na2\t{text}\n", encoding="utf-8")
        message = f"{path}:2: timestamp {text!r} is outside the int64 range"
        assert self.load_error(path, load_claim_events) == message

    def test_int64_limits_load(self, tmp_path):
        path = tmp_path / "claims.tsv"
        path.write_text(f"a1\t{2**63 - 1}\na2\t{-(2**63)}\n", encoding="utf-8")
        assert load_claim_events(path).timestamps.tolist() == [2**63 - 1, -(2**63)]

    def test_random_files_match_the_line_by_line_reader(self, tmp_path):
        rng = np.random.default_rng(25)
        pieces = ["a1", "d1", "", "7", "+7", " 8", "x", "\r", str(2**63), "1_0", "\u00e9"]
        for trial in range(300):
            path = tmp_path / f"logins{trial}.tsv"
            lines = []
            for _ in range(rng.integers(0, 8)):
                width = 3 if rng.random() < 0.8 else rng.integers(1, 5)
                lines.append("\t".join(pieces[rng.integers(len(pieces))] for _ in range(width)))
            path.write_text("\n".join(lines) + ("\n" if rng.random() < 0.5 else ""), encoding="utf-8")
            want = line_by_line_events(path, ["account id", "device umid"])
            if isinstance(want, str):
                assert self.load_error(path, load_login_events) == want, trial
            else:
                (accounts, devices), timestamps = want
                assert load_login_events(path) == LoginLog(accounts, devices, np.array(timestamps, dtype=np.int64))


class TestGraphStructure:
    def test_rejects_same_kind_edge(self):
        with pytest.raises(ValueError, match="bipartite"):
            make_graph("AAD", [(0, 1)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            make_graph("AD", [(0, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="missing node"):
            make_graph("AD", [(0, 5)])

    def test_rejects_ids_and_mask_of_unequal_length(self):
        with pytest.raises(ValueError, match="2 ids but an account mask of shape"):
            DeviceSharingGraph(["a", "d"], [True], [])

    def test_rejects_duplicate_external_id_within_kind(self):
        with pytest.raises(ValueError, match="duplicate external id 'x' for kind A"):
            DeviceSharingGraph(["x", "y", "x"], [True, False, True], [])
        with pytest.raises(ValueError, match="duplicate external id 'y' for kind D"):
            DeviceSharingGraph(["x", "y", "x", "y", "x"], [True, False, False, False, True], [])

    def test_same_external_id_across_kinds_allowed(self):
        g = DeviceSharingGraph(["x", "x"], [True, False], [(0, 1)])
        assert g.edge_count == 1

    def test_neighbors_sorted_and_symmetric(self):
        g = random_bipartite(np.random.default_rng(0), 12, 9, 0.3)
        for u in range(g.num_nodes):
            nbrs = g.neighbors(u)
            assert list(nbrs) == sorted(nbrs)
            for v in nbrs:
                assert u in g.neighbors(int(v))

    def test_edges_iterator_matches_edge_count(self):
        g = random_bipartite(np.random.default_rng(1), 8, 8, 0.4)
        edges = list(g.edges())
        assert len(edges) == g.edge_count
        assert all(u < v for u, v in edges)


class TestComponentsAndPrune:
    def test_path_is_one_component(self):
        g = make_graph("ADA", [(0, 1), (1, 2)])
        assert connected_components(g) == [{0, 1, 2}]

    def test_components_match_union_find_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            g = random_bipartite(rng, 50, 50, 0.02)
            got = {frozenset(c) for c in connected_components(g)}
            want = union_find_components(g.num_nodes, list(g.edges()))
            assert got == want
            want_labels = [0] * g.num_nodes
            for comp in want:
                for i in comp:
                    want_labels[i] = min(comp)
            assert component_labels(g).tolist() == want_labels

    def test_long_alternating_path_is_one_component_labelled_zero(self):
        n = 4001
        g = make_graph("AD" * (n // 2) + "A", [(i, i + 1) for i in range(n - 1)])
        assert component_labels(g).tolist() == [0] * n
        assert connected_components(g) == [set(range(n))]
        # Numbered at random, the path is the slow case for plain min-label propagation.
        order = np.random.default_rng(10).permutation(n)
        kinds = [""] * n
        for pos, node in enumerate(order):
            kinds[node] = "AD"[pos % 2]
        g = make_graph("".join(kinds), [(int(order[i]), int(order[i + 1])) for i in range(n - 1)])
        assert component_labels(g).tolist() == [0] * n

    def test_isolated_nodes_label_themselves(self):
        g = make_graph("ADAD", [(2, 3)])
        assert component_labels(g).tolist() == [0, 1, 2, 2]
        assert connected_components(g) == [{0}, {1}, {2, 3}]

    def test_components_partition_all_nodes(self):
        g = random_bipartite(np.random.default_rng(4), 30, 30, 0.05)
        comps = connected_components(g)
        seen = sorted(i for comp in comps for i in comp)
        assert seen == list(range(g.num_nodes))

    def test_single_account_component_removed(self):
        g = make_graph("AD", [(0, 1)])
        assert prune_singletons(g).num_nodes == 0

    def test_two_account_component_retained(self):
        g = make_graph("ADA", [(0, 1), (1, 2)])
        pruned = prune_singletons(g)
        assert pruned == g

    def test_mixed_graph_keeps_only_multi_account_component(self):
        # a0-d2-a1 survives; a3-d4 goes; isolated d5 goes.
        g = make_graph("AADADD", [(0, 2), (1, 2), (3, 4)])
        pruned = prune_singletons(g)
        assert pruned.ids == ["a0", "a1", "d2"]
        assert pruned.edge_count == 2

    def test_prune_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            g = random_bipartite(rng, 10, 12, rng.uniform(0.02, 0.2))
            keep = set()
            for comp in union_find_components(g.num_nodes, list(g.edges())):
                if sum(1 for i in comp if g.is_account[i]) >= 2:
                    keep |= comp
            pruned = prune_singletons(g)
            assert pruned.ids == [g.ids[i] for i in sorted(keep)]
            assert pruned.is_account.tolist() == [g.is_account[i] for i in sorted(keep)]
            want_edges = {(g.ids[u], g.ids[v]) for u, v in g.edges() if u in keep and v in keep}
            got_edges = {(pruned.ids[u], pruned.ids[v]) for u, v in pruned.edges()}
            assert got_edges == want_edges

    def test_subgraph_keeps_only_edges_between_kept_nodes(self):
        g = make_graph("ADADA", [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub = g.subgraph(np.array([True, True, False, True, True]))
        assert sub.ids == ["a0", "d1", "d3", "a4"]
        assert sub.is_account.tolist() == [True, False, False, True]
        assert list(sub.edges()) == [(0, 1), (2, 3)]

    def test_prune_is_idempotent(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            g = random_bipartite(rng, 15, 15, 0.08)
            once = prune_singletons(g)
            assert prune_singletons(once) == once


class TestKhopCounts:
    def test_star_all_kinds(self):
        g = make_graph("ADDD", [(0, 1), (0, 2), (0, 3)])
        assert khop_neighbor_counts(g, {0}, 1) == [3.0]

    def test_path_account_only_excludes_devices(self):
        g = make_graph("ADA", [(0, 1), (1, 2)])
        assert khop_neighbor_counts(g, {0}, 2, g.is_account) == [0.0, 1.0]

    def test_device_seed_rejected(self):
        g = make_graph("AD", [(0, 1)])
        with pytest.raises(ValueError, match="not an Account node"):
            khop_neighbor_counts(g, {1}, 1)

    def test_empty_seeds_rejected(self):
        g = make_graph("AD", [(0, 1)])
        with pytest.raises(ValueError, match="nonempty"):
            khop_neighbor_counts(g, set(), 1)
        with pytest.raises(ValueError, match="nonempty"):
            khop_neighbor_counts(g, np.array([], dtype=np.int64), 1)

    def test_counted_mask_of_another_length_rejected(self):
        g = make_graph("ADA", [(0, 1), (1, 2)])
        for counted in (np.ones(8, dtype=bool), [True, False]):
            with pytest.raises(ValueError, match="counted mask"):
                khop_neighbor_counts(g, {0}, 2, counted)

    def test_array_seeds_count_like_list_and_set_seeds(self):
        g = make_graph("ADA", [(0, 1), (1, 2)])
        assert khop_neighbor_counts(g, np.array([0]), 2) == [1.0, 1.0]
        for seeds in ([0, 2], {0, 2}, np.array([0, 2]), np.array([2, 0, 2]), g.account_indices()):
            assert khop_neighbor_counts(g, seeds, 2) == [1.0, 1.0]

    def test_matches_bfs_oracle_on_ring_dataset(self):
        from fraudring.synth import SynthConfig, generate

        sds = generate(SynthConfig(n_regular_accounts=40, n_rings=3, seed=2))
        g = sds.dataset.graph
        fraud_seeds = g.account_indices()[sds.dataset.truth].tolist()
        adj = adjacency_lists(g)
        max_hop = 4
        got = khop_neighbor_counts(g, fraud_seeds, max_hop, g.is_account)
        totals = [0] * max_hop
        for s in fraud_seeds:
            dist = bfs_distance_map(adj, s, max_hop)
            for node, d in dist.items():
                if 1 <= d <= max_hop and g.is_account[node]:
                    totals[d - 1] += 1
        want = [t / len(fraud_seeds) for t in totals]
        assert got == pytest.approx(want, abs=0)

    def test_hop_totals_bounded_by_graph_size(self):
        g = random_bipartite(np.random.default_rng(8), 20, 20, 0.1)
        seeds = [int(i) for i in g.account_indices()]
        counts = khop_neighbor_counts(g, seeds, 6)
        assert sum(counts) <= g.num_nodes - 1

    def test_matches_per_seed_bfs_on_random_graphs(self):
        rng = np.random.default_rng(21)
        for trial in range(30):
            g = random_bipartite_with_small_parts(rng, int(rng.integers(1, 25)), int(rng.integers(1, 25)), 0.12)
            adj = adjacency_lists(g)
            accounts = g.account_indices()
            picked = rng.choice(accounts, size=int(rng.integers(1, 2 * len(accounts))))  # repeats included
            for seeds in (picked, picked.tolist(), set(picked.tolist()), accounts):
                distinct = sorted(set(np.asarray(list(seeds)).tolist()))
                for max_hop in range(1, 7):
                    for counted in (None, g.is_account):
                        mask = np.ones(g.num_nodes, dtype=bool) if counted is None else counted
                        per_seed = [bfs_hop_counts(adj, s, max_hop, mask) for s in distinct]
                        want = [sum(hop) / len(distinct) for hop in zip(*per_seed)]
                        assert khop_neighbor_counts(g, seeds, max_hop, counted) == want


class TestSerialization:
    def test_round_trip_preserves_structure(self, tmp_path):
        g = make_graph("AADAD", [(0, 2), (1, 2), (3, 4)])
        path = tmp_path / "g.tsv"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_save_over_an_old_graph_writes_a_new_file(self, tmp_path):
        old, new = make_graph("AD", [(0, 1)]), make_graph("AADAD", [(0, 2), (1, 2), (3, 4)])
        path, kept = tmp_path / "g.tsv", tmp_path / "kept.tsv"
        save_graph(old, path)
        os.link(path, kept)
        save_graph(new, path)
        assert load_graph(path) == new
        assert load_graph(kept) == old

    def test_save_load_save_byte_identical(self, tmp_path):
        g = random_bipartite(np.random.default_rng(9), 500, 500, 0.004)
        p1, p2 = tmp_path / "g1.tsv", tmp_path / "g2.tsv"
        save_graph(g, p1)
        save_graph(load_graph(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_same_kind_edge_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "#nodes\n0\tA\ta0\n1\tA\ta1\n\n#edges\n0\t1\n", encoding="utf-8"
        )
        with pytest.raises(GraphFormatError, match=r"bad\.tsv:6.*bipartite"):
            load_graph(path)

    def test_malformed_node_row_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#nodes\n0\tA\n\n#edges\n", encoding="utf-8")
        with pytest.raises(GraphFormatError, match=r"bad\.tsv:2"):
            load_graph(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\tA\ta0\n", encoding="utf-8")
        with pytest.raises(GraphFormatError, match="#nodes"):
            load_graph(path)

    def test_duplicate_edge_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "#nodes\n0\tA\ta0\n1\tD\td1\n\n#edges\n0\t1\n0\t1\n", encoding="utf-8"
        )
        with pytest.raises(GraphFormatError, match=r":7.*duplicate"):
            load_graph(path)

    def test_claim_event_round_trip(self, tmp_path):
        events = [ClaimEvent("a1", 100), ClaimEvent("a2", 200)]
        path = tmp_path / "claims.tsv"
        save_claim_events(events, path)
        assert load_claim_events(path) == ClaimLog.from_events(events)

    def test_login_event_round_trip(self, tmp_path):
        events = [LoginEvent("a1", "d1", 100), LoginEvent("a2", "d2", 200)]
        path = tmp_path / "logins.tsv"
        save_login_events(events, path)
        assert load_login_events(path) == LoginLog.from_events(events)

    def test_claim_empty_account_id_names_line(self, tmp_path):
        path = tmp_path / "claims.tsv"
        path.write_text("a1\t100\n\t1699990001\n", encoding="utf-8")
        with pytest.raises(GraphFormatError, match=r"claims\.tsv:2: empty account id"):
            load_claim_events(path)

    @pytest.mark.parametrize(
        "row, what", [("\td2\t200", "account id"), ("a2\t\t200", "device umid")], ids=["account", "umid"]
    )
    def test_login_empty_id_names_line(self, tmp_path, row, what):
        path = tmp_path / "logins.tsv"
        path.write_text(f"a1\td1\t100\n{row}\n", encoding="utf-8")
        with pytest.raises(GraphFormatError, match=rf"logins\.tsv:2: empty {what}"):
            load_login_events(path)

    def test_login_bad_timestamp_names_line(self, tmp_path):
        path = tmp_path / "logins.tsv"
        path.write_text("a1\td1\t100\na2\td2\tnope\n", encoding="utf-8")
        with pytest.raises(GraphFormatError, match=r":2.*not an integer"):
            load_login_events(path)


class TestExportDot:
    def test_single_edge_statement(self, tmp_path):
        g = make_graph("AD", [(0, 1)])
        path = tmp_path / "g.dot"
        export_dot(g, path)
        text = path.read_text(encoding="utf-8")
        assert text.count(" -- ") == 1
        assert "shape=box" in text and "shape=ellipse" in text

    def test_flagged_account_colored(self, tmp_path):
        g = make_graph("ADA", [(0, 1), (1, 2)])
        path = tmp_path / "g.dot"
        export_dot(g, path, high_risk={2})
        lines = path.read_text(encoding="utf-8").splitlines()
        flagged = [ln for ln in lines if "fillcolor" in ln]
        assert len(flagged) == 1
        assert '"a2"' in flagged[0]

    def test_array_of_flagged_indices_colors_like_a_set(self, tmp_path):
        g = make_graph("ADA", [(0, 1), (1, 2)])
        for as_set, *others in (({0}, [0], np.array([0])), ({0, 2}, [2, 0], np.array([0, 2]))):
            export_dot(g, tmp_path / "set.dot", as_set)
            want = (tmp_path / "set.dot").read_text(encoding="utf-8")
            assert want.count("fillcolor") == len(as_set)
            for flagged in others:
                export_dot(g, tmp_path / "other.dot", flagged)
                assert (tmp_path / "other.dot").read_text(encoding="utf-8") == want


class TestGraphLoaderContract:
    NODES = "#nodes\n0\tA\ta0\n1\tD\td1\n2\tA\ta2\n"

    def load_error(self, path):
        with pytest.raises(GraphFormatError) as excinfo:
            load_graph(path)
        return str(excinfo.value)

    def write(self, tmp_path, text):
        path = tmp_path / "g.tsv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_headers_match_after_strip_and_nodes_end_at_whitespace_line(self, tmp_path):
        path = self.write(tmp_path, " #nodes\t\n0\tA\ta0\n1\tD\td1\n \t \n  #edges \n0\t1\n")
        assert load_graph(path) == make_graph("AD", [(0, 1)])

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x\tZ", "expected 3 tab-separated node fields, got 2"),
            ("x\tZ\t", "node index 'x' is not an integer"),
            ("5\tZ\t", "node index 5 out of order; expected 3"),
            ("3\tZ\t", "unknown node kind 'Z'; expected A or D"),
            ("3\tA\t", "empty external id"),
            ("3\tA\ta0", "duplicate external id 'a0' for kind A"),
        ],
    )
    def test_node_line_precedence(self, tmp_path, row, message):
        path = self.write(tmp_path, self.NODES + row + "\n4\tA\t\n\n#edges\n")
        assert self.load_error(path) == f"{path}:5: {message}"

    def test_same_id_in_both_kinds_loads(self, tmp_path):
        path = self.write(tmp_path, "#nodes\n0\tA\tx\n1\tD\tx\n\n#edges\n0\t1\n")
        assert load_graph(path).edge_count == 1

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("", 1, "expected '#nodes' header"),
            ("#nodes\n0\tA\ta0\n", 2, "missing '#edges' section"),
            ("#nodes\n0\tA\ta0\n\n", 4, "expected '#edges' header after blank line"),
            ("#nodes\n0\tA\ta0\n\n\n#edges\n", 4, "expected '#edges' header after blank line"),
            ("#nodes\n0\tA\ta0\n\n#edge\n", 4, "expected '#edges' header after blank line"),
        ],
    )
    def test_section_errors(self, tmp_path, text, line, message):
        path = self.write(tmp_path, text)
        assert self.load_error(path) == f"{path}:{line}: {message}"

    def test_blank_edge_lines_are_skipped_but_counted(self, tmp_path):
        path = self.write(tmp_path, self.NODES + "\n#edges\n\n0\t1\n \t\n\t\n\n1\t2\n\n")
        assert load_graph(path) == make_graph("ADA", [(0, 1), (1, 2)])
        path = self.write(tmp_path, self.NODES + "\n#edges\n\n0\t1\n \t\n\t\n\n0\t2\n")
        assert self.load_error(path) == f"{path}:12: edge (0, 2) joins two A nodes; graph must be bipartite"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0\t2\t", "expected 2 tab-separated edge fields, got 3"),
            ("x\t9", "edge endpoints 'x\\t9' are not integers"),
            (f"2\t{2**64}", f"edge (2, {2**64}) references a missing node"),
            ("-1\t0", "edge (-1, 0) references a missing node"),
            ("2\t0", "edge (2, 0) must be written with src < dst"),
            ("1\t1", "edge (1, 1) must be written with src < dst"),
            ("0\t2", "edge (0, 2) joins two A nodes; graph must be bipartite"),
            ("0\t1", "duplicate edge (0, 1)"),
        ],
    )
    def test_edge_line_precedence(self, tmp_path, row, message):
        path = self.write(tmp_path, self.NODES + "\n#edges\n0\t1\n" + row + "\nx\t0\t1\n")
        assert self.load_error(path) == f"{path}:8: {message}"

    def test_every_int_spelling_still_parses(self, tmp_path):
        path = self.write(tmp_path, "#nodes\n+0\tA\ta0\n 1\tD\td1\n2\tA\ta2\n\n#edges\n+0\t 1\n1_0\t1_1\n")
        with pytest.raises(GraphFormatError, match=r":8: edge \(10, 11\) references a missing node"):
            load_graph(path)
        path = self.write(tmp_path, "#nodes\n+0\tA\ta0\n 1\tD\td1\n2\tA\ta2\n\n#edges\n+0\t 1\n1\t+2\n")
        assert load_graph(path) == make_graph("ADA", [(0, 1), (1, 2)])

    # Node and edge lines with one defect each, by kind; "{n}" is the next node index.
    NODE_DEFECTS = {
        "fields": "{n}\tA",
        "index": "x{n}\tA\tnew",
        "order": "{n}9\tA\tnew",
        "kind": "{n}\tB\tnew",
        "empty id": "{n}\tD\t",
        "duplicate id": "{n}\tA\ta0",
    }
    EDGE_DEFECTS = {
        "fields": "0\t1\t2",
        "ends": "0\tone",
        "missing": "0\t99",
        "beyond int64": f"0\t{2**64}",
        "order": "1\t0",
        "self-loop": "1\t1",
        "same kind": "0\t2",
        "duplicate": "0\t1",
    }
    # Other spellings int() accepts for some edge ends.
    SPELLINGS = {0: ["0", "+0", " 0", "0 "], 1: ["1", "+1", "0_1", "01"], 3: ["3", "3 ", "+3", "0_3"]}

    def random_file(self, rng):
        """A graph file: some node lines, some edge lines, up to two defects, blank lines anywhere."""
        n = int(rng.integers(3, 7))
        kinds = ["A", "D", "A"] + [str(rng.choice(["A", "D"])) for _ in range(n - 3)]
        nodes = [f"{i}\t{kind}\t{kind.lower()}{i}" for i, kind in enumerate(kinds)]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if kinds[u] != kinds[v]]
        chosen = [pairs[k] for k in rng.permutation(len(pairs))[: rng.integers(0, len(pairs) + 1)]]

        def spelled(end):
            return str(rng.choice(self.SPELLINGS.get(end, [str(end)])))

        edges = [f"{spelled(u)}\t{spelled(v)}" for u, v in chosen]
        for _ in range(rng.integers(0, 3)):
            if rng.random() < 0.4:
                defect = self.NODE_DEFECTS[rng.choice(sorted(self.NODE_DEFECTS))]
                nodes.insert(int(rng.integers(0, len(nodes) + 1)), defect.format(n=len(nodes)))
            else:
                edges.insert(int(rng.integers(0, len(edges) + 1)), self.EDGE_DEFECTS[rng.choice(sorted(self.EDGE_DEFECTS))])
        for _ in range(rng.integers(0, 3)):
            edges.insert(int(rng.integers(0, len(edges) + 1)), str(rng.choice(["", " ", "\t", " \t "])))
        lines = ["#nodes", *nodes, str(rng.choice(["", " ", "\t"])), "#edges", *edges]
        if rng.random() < 0.1:
            lines = lines[: rng.integers(1, len(lines))]
        return "\n".join(lines) + ("\n" if rng.random() < 0.7 else "")

    def test_random_files_match_the_line_by_line_reader(self, tmp_path):
        rng = np.random.default_rng(26)
        raised = 0
        for trial in range(600):
            path = tmp_path / f"g{trial}.tsv"
            path.write_text(self.random_file(rng), encoding="utf-8")
            want = line_by_line_graph(path)
            if isinstance(want, str):
                raised += 1
                assert self.load_error(path) == want, trial
            else:
                assert load_graph(path) == DeviceSharingGraph(*want), trial
        assert 200 < raised < 550

    @pytest.mark.parametrize("first", sorted(EDGE_DEFECTS))
    @pytest.mark.parametrize("second", sorted(NODE_DEFECTS))
    def test_node_defect_comes_before_any_edge_defect(self, tmp_path, first, second):
        row = self.NODE_DEFECTS[second].format(n=3)
        path = self.write(tmp_path, self.NODES + row + "\n\n#edges\n" + self.EDGE_DEFECTS[first] + "\n")
        assert self.load_error(path).startswith(f"{path}:5: ")
        assert self.load_error(path) == line_by_line_graph(path)

    @pytest.mark.parametrize("first", sorted(EDGE_DEFECTS))
    @pytest.mark.parametrize("second", sorted(EDGE_DEFECTS))
    def test_earlier_of_two_edge_defects_is_reported(self, tmp_path, first, second):
        edges = ["0\t1", self.EDGE_DEFECTS[first], "", "1\t2", self.EDGE_DEFECTS[second]]
        path = self.write(tmp_path, self.NODES + "\n#edges\n" + "\n".join(edges) + "\n")
        assert self.load_error(path) == line_by_line_graph(path)
        assert self.load_error(path).startswith(f"{path}:8: ")
