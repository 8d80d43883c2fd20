import numpy as np
import pytest

from fraudring.graph import (
    ClaimEvent,
    ClaimLog,
    CountKind,
    DeviceSharingGraph,
    GraphFormatError,
    LoginEvent,
    LoginLog,
    NodeKind,
    NodeRef,
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
    line_by_line_events,
    loop_edge_error,
    naive_build_graph,
    union_find_components,
)
from util import adjacency_lists, make_graph, random_bipartite

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
        assert [n.kind for n in g.nodes] == [NodeKind.ACCOUNT]
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
        assert sorted(n.external_id for n in g.nodes) == ["a1", "d1"]

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
        assert [n.external_id for n in g.nodes] == ["b", "a", "late", "d9", "d1"]

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
            nodes, edges = naive_build_graph(claims, logins, window)
            assert g.nodes == nodes, trial
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
            nodes = make_graph(kinds, []).nodes
            want = loop_edge_error(nodes, edges)
            if want is None:
                g = DeviceSharingGraph(nodes, edges)
                assert g.edge_count == len({(min(e), max(e)) for e in edges})
                continue
            raised += 1
            with pytest.raises(ValueError) as excinfo:
                DeviceSharingGraph(nodes, edges)
            assert str(excinfo.value) == want, trial
            if max(max(e) for e in edges) < 2**63:
                with pytest.raises(ValueError) as excinfo:
                    DeviceSharingGraph(nodes, np.array(ends, dtype=np.int64))
                assert str(excinfo.value) == want, trial
        assert raised > 200

    def test_array_and_pair_list_edges_build_equal_graphs(self):
        rng = np.random.default_rng(24)
        g = random_bipartite(rng, 20, 20, 0.2)
        pairs = list(g.edges())
        doubled = [(v, u) for u, v in pairs] + pairs
        assert DeviceSharingGraph(g.nodes, np.array(doubled)) == g
        assert DeviceSharingGraph(g.nodes, iter(doubled)) == g

    def test_edges_must_be_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            DeviceSharingGraph(make_graph("AD", []).nodes, np.array([[0, 1, 1]]))


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

    def test_rejects_non_dense_indices(self):
        nodes = [NodeRef(0, NodeKind.ACCOUNT, "a"), NodeRef(2, NodeKind.DEVICE, "d")]
        with pytest.raises(ValueError, match="dense"):
            DeviceSharingGraph(nodes, [])

    def test_rejects_duplicate_external_id_within_kind(self):
        nodes = [
            NodeRef(0, NodeKind.ACCOUNT, "x"),
            NodeRef(1, NodeKind.ACCOUNT, "x"),
        ]
        with pytest.raises(ValueError, match="duplicate external id"):
            DeviceSharingGraph(nodes, [])

    def test_same_external_id_across_kinds_allowed(self):
        nodes = [NodeRef(0, NodeKind.ACCOUNT, "x"), NodeRef(1, NodeKind.DEVICE, "x")]
        g = DeviceSharingGraph(nodes, [(0, 1)])
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
        assert [n.external_id for n in pruned.nodes] == ["a0", "a1", "d2"]
        assert pruned.edge_count == 2

    def test_prune_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            g = random_bipartite(rng, 10, 12, rng.uniform(0.02, 0.2))
            keep = set()
            for comp in union_find_components(g.num_nodes, list(g.edges())):
                if sum(1 for i in comp if g.is_account(i)) >= 2:
                    keep |= comp
            pruned = prune_singletons(g)
            kept_ids = [n.external_id for n in pruned.nodes]
            want_ids = [g.nodes[i].external_id for i in sorted(keep)]
            assert kept_ids == want_ids
            want_edges = {
                (g.nodes[u].external_id, g.nodes[v].external_id)
                for u, v in g.edges()
                if u in keep and v in keep
            }
            got_edges = {
                (pruned.nodes[u].external_id, pruned.nodes[v].external_id)
                for u, v in pruned.edges()
            }
            assert got_edges == want_edges

    def test_subgraph_keeps_only_edges_between_kept_nodes(self):
        g = make_graph("ADADA", [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub = g.subgraph(np.array([True, True, False, True, True]))
        assert [n.external_id for n in sub.nodes] == ["a0", "d1", "d3", "a4"]
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
        assert khop_neighbor_counts(g, {0}, 1, CountKind.ALL) == [3.0]

    def test_path_account_only_excludes_devices(self):
        g = make_graph("ADA", [(0, 1), (1, 2)])
        assert khop_neighbor_counts(g, {0}, 2, CountKind.ACCOUNT_ONLY) == [0.0, 1.0]

    def test_device_seed_rejected(self):
        g = make_graph("AD", [(0, 1)])
        with pytest.raises(ValueError, match="not an Account node"):
            khop_neighbor_counts(g, {1}, 1)

    def test_empty_seeds_rejected(self):
        g = make_graph("AD", [(0, 1)])
        with pytest.raises(ValueError, match="nonempty"):
            khop_neighbor_counts(g, set(), 1)

    def test_matches_bfs_oracle_on_ring_dataset(self):
        from fraudring.synth import SynthConfig, generate

        sds = generate(SynthConfig(n_regular_accounts=40, n_rings=3, seed=2))
        g = sds.dataset.graph
        fraud_seeds = g.account_indices()[sds.dataset.truth].tolist()
        adj = adjacency_lists(g)
        max_hop = 4
        got = khop_neighbor_counts(g, fraud_seeds, max_hop, CountKind.ACCOUNT_ONLY)
        totals = [0] * max_hop
        for s in fraud_seeds:
            dist = bfs_distance_map(adj, s, max_hop)
            for node, d in dist.items():
                if 1 <= d <= max_hop and g.is_account(node):
                    totals[d - 1] += 1
        want = [t / len(fraud_seeds) for t in totals]
        assert got == pytest.approx(want, abs=0)

    def test_hop_totals_bounded_by_graph_size(self):
        g = random_bipartite(np.random.default_rng(8), 20, 20, 0.1)
        seeds = [int(i) for i in g.account_indices()]
        counts = khop_neighbor_counts(g, seeds, 6, CountKind.ALL)
        assert sum(counts) <= g.num_nodes - 1


class TestSerialization:
    def test_round_trip_preserves_structure(self, tmp_path):
        g = make_graph("AADAD", [(0, 2), (1, 2), (3, 4)])
        path = tmp_path / "g.tsv"
        save_graph(g, path)
        assert load_graph(path) == g

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
