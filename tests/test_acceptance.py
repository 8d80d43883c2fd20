"""End-to-end acceptance gate for the toolkit.

Each test prints a single PASS/FAIL verdict line naming the property it
checks, so the suite output doubles as a checklist.
"""

import filecmp
import os
import re
import statistics
import time
from collections import Counter, defaultdict

import numpy as np
import pytest

from fraudring.baselines.gbdt import GBDTConfig, gbdt_fit, gbdt_predict_batch
from fraudring.baselines.node2vec import Node2vecConfig, biased_walks
from fraudring.cli import main
from fraudring.evaluation import ConfusionCounts, detection_expansion, fraud_neighbor_stats
from fraudring.features import (
    load_features,
    normalize_features,
    prune_dataset,
    save_features,
    split_train_test,
)
from fraudring.geniepath import (
    attention_weights,
    forward,
    init_params,
    load_params,
    save_params,
)
from fraudring.graph import load_graph, prune_singletons, save_graph
from fraudring.synth import SynthConfig, generate
from fraudring.train import training_rows
from reference import scalar_geniepath_forward, union_find_components
from util import adjacency_lists, make_graph, random_bipartite


def verdict(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def default_synth():
    return generate(SynthConfig(seed=0))


def test_gradient_check_within_tolerance(capsys):
    t0 = time.perf_counter()
    code = main(["grad-check"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        match = re.search(r"max relative gradient error: (\S+) \((\d+) nodes", out)
        assert match, out
        err = float(match.group(1))
        nodes = int(match.group(2))
        ok = code == 0 and err <= 1e-4 and nodes == 12 and elapsed < 10.0
        verdict(
            ok,
            "gradient check",
            f"max rel err {err:.3e} <= 1e-4 on {nodes} nodes (K=4, T=2), {elapsed:.1f}s < 10s",
        )


def test_forward_matches_scalar_reference(capsys):
    rng = np.random.default_rng(2026)
    g = random_bipartite(rng, 6, 6, 0.5)
    assert g.num_nodes == 12
    features = rng.normal(size=(6, 4))
    params = init_params(4, hidden_dim=4, n_layers=2, seed=2026)
    probs, _ = forward(params, g, features)
    want = scalar_geniepath_forward(
        {name: arr.tolist() for name, arr in params.named_arrays()},
        adjacency_lists(g),
        [int(i) for i in g.account_indices()],
        features.tolist(),
        params.n_layers,
    )
    gap = float(np.max(np.abs(probs - np.array(want))))
    with capsys.disabled():
        verdict(gap <= 1e-10, "forward oracle", f"12-node fixture, max |diff| {gap:.2e} <= 1e-10")


def test_detection_expansion_anchor_and_floor(capsys):
    anchor = detection_expansion(ConfusionCounts(tp=100, fp=47, tn=0, fn=0))
    assert anchor == pytest.approx(1.47, abs=1e-12)
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(1000):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 50, size=4))
        counts = ConfusionCounts(tp, fp, tn, fn)
        if tp + fn == 0:
            with pytest.raises(ValueError):
                detection_expansion(counts)
            continue
        de = detection_expansion(counts)
        assert de >= 1.0
        assert (de == 1.0) == (fp == 0)
        checked += 1
    with capsys.disabled():
        verdict(
            True,
            "detection expansion",
            f"(tp=100, fn=0, fp=47) -> {anchor}; floor property held on {checked} random tuples",
        )


def test_attention_weights_normalized_across_random_draws(capsys):
    rng = np.random.default_rng(1)
    worst = 0.0
    vectors = 0
    for _ in range(100):
        g = random_bipartite(
            rng, int(rng.integers(3, 9)), int(rng.integers(3, 9)), float(rng.uniform(0.2, 0.6))
        )
        k = int(rng.integers(2, 9))
        from fraudring.geniepath import BreadthLayerParams

        layer = BreadthLayerParams(
            w_agg=rng.normal(size=(k, k)) * 2,
            w_src=rng.normal(size=(k, k)) * 2,
            w_dst=rng.normal(size=(k, k)) * 2,
            attn=rng.normal(size=k) * 2,
        )
        h = rng.normal(size=(g.num_nodes, k)) * 2
        for u in range(g.num_nodes):
            nbrs = [int(v) for v in g.neighbors(u)]
            w = attention_weights(layer, h[u], h[nbrs])
            worst = max(worst, abs(float(w.sum()) - 1.0))
            vectors += 1
    with capsys.disabled():
        verdict(
            worst <= 1e-9,
            "attention normalization",
            f"{vectors} weight vectors over 100 graphs, worst |sum - 1| {worst:.2e} <= 1e-9",
        )


def test_synthetic_model_ordering_matches_reported_direction(tmp_path, capsys):
    t0 = time.perf_counter()
    f1s: dict[str, list[float]] = defaultdict(list)
    for seed in range(5):
        base = tmp_path / f"seed{seed}"
        data = base / "data"
        models = base / "models"
        report_dir = base / "eval"
        assert main(["synth", "--out", str(data), "--seed", str(seed)]) == 0
        for model in ("gnn", "gbdt", "node2vec-gbdt"):
            code = main(
                ["train", "--model", model, "--data", str(data), "--out", str(models)]
            )
            assert code == 0, f"training {model} failed on seed {seed}"
        assert main(
            ["evaluate", "--data", str(data), "--models", str(models), "--out", str(report_dir)]
        ) == 0
        rows = (report_dir / "report.tsv").read_text(encoding="utf-8").splitlines()[1:]
        for row in rows:
            fields = row.split("\t")
            f1s[fields[0]].append(float(fields[4]))
    elapsed = time.perf_counter() - t0

    med = {name: statistics.median(vals) for name, vals in f1s.items()}
    margin = med["gnn"] - med["gbdt"]
    n2v_gap = abs(med["node2vec-gbdt"] - med["gbdt"])
    ok = margin >= 0.03 and n2v_gap <= 0.1 and elapsed < 600.0
    with capsys.disabled():
        verdict(
            ok,
            "synthetic model ordering",
            f"median F1 over 5 seeds: gnn {med['gnn']:.4f} > gbdt {med['gbdt']:.4f} "
            f"(margin {margin:+.4f} >= 0.03), |node2vec-gbdt {med['node2vec-gbdt']:.4f} - gbdt| "
            f"= {n2v_gap:.4f} <= 0.1, {elapsed:.0f}s < 600s",
        )


def test_fraud_accounts_cluster_within_two_hops(default_synth, capsys):
    ds = default_synth.dataset
    fraud_avg, regular_avg = fraud_neighbor_stats(ds.graph, ds.truth, max_hop=2)
    ok = fraud_avg >= 2.0 * regular_avg and fraud_avg > 0.0
    with capsys.disabled():
        verdict(
            ok,
            "2-hop fraud clustering",
            f"avg fraud neighbors within 2 hops: {fraud_avg:.2f} around fraud vs "
            f"{regular_avg:.2f} around regular (factor >= 2)",
        )


def test_pruning_matches_component_filter_oracle(capsys):
    rng = np.random.default_rng(7)
    for trial in range(100):
        n_acc = int(rng.integers(1, 10))
        n_dev = int(rng.integers(1, 10))
        g = random_bipartite(rng, n_acc, n_dev, float(rng.uniform(0.0, 0.4)))
        pruned = prune_singletons(g)

        edges = [(u, v) for u, v in g.edges()]
        keep: set[int] = set()
        for comp in union_find_components(g.num_nodes, edges):
            if sum(1 for i in comp if g.is_account[i]) >= 2:
                keep |= comp
        want_ids = sorted(g.ids[i] for i in keep)
        got_ids = sorted(pruned.ids)
        assert got_ids == want_ids, f"trial {trial}"

        want_edges = sorted(
            tuple(sorted((g.ids[u], g.ids[v])))
            for u, v in edges
            if u in keep and v in keep
        )
        got_edges = sorted(
            tuple(sorted((pruned.ids[u], pruned.ids[v])))
            for u, v in pruned.edges()
        )
        assert got_edges == want_edges, f"trial {trial}"
        assert prune_singletons(pruned) == pruned, f"trial {trial} not idempotent"
    with capsys.disabled():
        verdict(True, "pruning oracle", "100 random graphs match the component filter; idempotent")


def test_biased_walk_frequencies_match_closed_form(capsys):
    g = make_graph("AAADD", [(0, 3), (1, 3), (2, 3), (0, 4), (2, 4)])
    p, q = 0.25, 4.0
    cfg = Node2vecConfig(
        walk_length=40, walks_per_node=900, return_param=p, inout_param=q, seed=0
    )
    walks = biased_walks(g, cfg)
    second_order_steps = sum(max(0, len(w) - 2) for w in walks)
    counts: dict[tuple[int, int], Counter] = defaultdict(Counter)
    for walk in walks:
        for i in range(2, len(walk)):
            counts[(walk[i - 2], walk[i - 1])][walk[i]] += 1

    worst = 0.0
    checked = 0
    for (prev, cur), nxt_counts in counts.items():
        n = sum(nxt_counts.values())
        if n < 2000:
            continue
        prev_nbrs = {int(x) for x in g.neighbors(prev)}
        weights = {}
        for x in (int(v) for v in g.neighbors(cur)):
            weights[x] = (1.0 / p) if x == prev else (1.0 if x in prev_nbrs else 1.0 / q)
        total = sum(weights.values())
        for x, w in weights.items():
            worst = max(worst, abs(nxt_counts[x] / n - w / total))
        checked += 1
    ok = second_order_steps >= 100_000 and checked >= 6 and worst <= 0.02
    with capsys.disabled():
        verdict(
            ok,
            "walk bias",
            f"{second_order_steps} biased steps (p=0.25, q=4), {checked} conditioned "
            f"transitions, worst |empirical - closed form| {worst:.4f} <= 0.02",
        )


def test_gbdt_loss_monotone_and_xor_learnable(default_synth, capsys):
    ds = normalize_features(split_train_test(prune_dataset(default_synth.dataset), 0.3, 0))
    positives, negatives = training_rows(ds, 0.25, np.random.default_rng(0))
    labels = np.repeat([1.0, 0.0], [len(positives), len(negatives)])
    model = gbdt_fit(ds.features[np.concatenate([positives, negatives])], labels, GBDTConfig(seed=0))
    diffs = np.diff(model.train_loss_history)
    monotone = bool(np.all(diffs <= 1e-12)) and len(model.train_loss_history) == 500

    rng = np.random.default_rng(0)
    xs = rng.uniform(-1.0, 1.0, size=(200, 2))
    ys = ((xs[:, 0] > 0) ^ (xs[:, 1] > 0)).astype(np.float64)
    xor_cfg = GBDTConfig(
        n_trees=200, max_depth=3, row_sample_rate=1.0, feature_sample_rate=1.0,
        learning_rate=0.1, seed=0,
    )
    xor_model = gbdt_fit(xs, ys, xor_cfg)
    accuracy = float(((gbdt_predict_batch(xor_model, xs) >= 0.5) == ys.astype(bool)).mean())
    ok = monotone and accuracy >= 0.95
    with capsys.disabled():
        verdict(
            ok,
            "gbdt sanity",
            f"500-round training loss nonincreasing (max delta {diffs.max():.2e}); "
            f"XOR training accuracy {accuracy:.3f} >= 0.95",
        )


def test_cli_determinism_and_lossless_round_trips(tmp_path, capsys):
    synth_flags = [
        "--n-regular", "40", "--n-rings", "2", "--ring-size-min", "4",
        "--ring-size-max", "4", "--feature-dim", "5", "--seed", "11",
    ]
    fast = {
        "gnn": ["--epochs", "5", "--hidden-dim", "4", "--layers", "1"],
        "gbdt": ["--trees", "10", "--max-depth", "3"],
        "node2vec-gbdt": [
            "--trees", "10", "--max-depth", "3", "--dimensions", "4",
            "--walk-length", "6", "--walks-per-node", "4", "--window", "2",
            "--n2v-epochs", "1",
        ],
    }

    def snapshot(d):
        return {name: (d / name).read_bytes() for name in sorted(os.listdir(d))}

    checks = []

    data = {}
    for run in ("a", "b"):
        data[run] = tmp_path / f"data-{run}"
        assert main(["synth", "--out", str(data[run])] + synth_flags) == 0
    checks.append(("synth", snapshot(data["a"]) == snapshot(data["b"])))

    graphs = {}
    for run in ("a", "b"):
        graphs[run] = tmp_path / f"graph-{run}.tsv"
        code = main([
            "build-graph", "--claims", str(data["a"] / "claims.tsv"),
            "--logins", str(data["a"] / "logins.tsv"),
            "--reference-time", "1700000000", "--device-window-days", "40",
            "--out", str(graphs[run]),
        ])
        assert code == 0
    checks.append(("build-graph", graphs["a"].read_bytes() == graphs["b"].read_bytes()))

    models = {}
    for run in ("a", "b"):
        models[run] = tmp_path / f"models-{run}"
        for model, flags in fast.items():
            assert main(
                ["train", "--model", model, "--data", str(data["a"]), "--out", str(models[run])]
                + flags
            ) == 0
    checks.append(("train", snapshot(models["a"]) == snapshot(models["b"])))

    evals = {}
    for run in ("a", "b"):
        evals[run] = tmp_path / f"eval-{run}"
        assert main([
            "evaluate", "--data", str(data["a"]), "--models", str(models["a"]),
            "--out", str(evals[run]),
        ]) == 0
    checks.append(("evaluate", snapshot(evals["a"]) == snapshot(evals["b"])))

    capsys.readouterr()
    assert main(["grad-check"]) == 0
    first = capsys.readouterr().out
    assert main(["grad-check"]) == 0
    second = capsys.readouterr().out
    checks.append(("grad-check", first == second))

    dots = {}
    for run in ("a", "b"):
        dots[run] = tmp_path / f"graph-{run}.dot"
        assert main([
            "export-dot", "--graph", str(data["a"] / "graph.tsv"),
            "--features", str(data["a"] / "features.tsv"), "--out", str(dots[run]),
        ]) == 0
    checks.append(("export-dot", dots["a"].read_bytes() == dots["b"].read_bytes()))

    g = load_graph(str(data["a"] / "graph.tsv"))
    resaved = tmp_path / "resaved-graph.tsv"
    save_graph(g, str(resaved))
    checks.append(
        ("graph round trip", filecmp.cmp(data["a"] / "graph.tsv", resaved, shallow=False))
    )

    ds = load_features(str(data["a"] / "features.tsv"), g)
    resaved_features = tmp_path / "resaved-features.tsv"
    save_features(ds, str(resaved_features))
    checks.append(
        (
            "features round trip",
            filecmp.cmp(data["a"] / "features.tsv", resaved_features, shallow=False),
        )
    )

    ckpt = models["a"] / "gnn.ckpt"
    resaved_ckpt = tmp_path / "resaved.ckpt"
    save_params(load_params(str(ckpt)), str(resaved_ckpt))
    checks.append(("checkpoint round trip", filecmp.cmp(ckpt, resaved_ckpt, shallow=False)))

    failed = [name for name, ok in checks if not ok]
    with capsys.disabled():
        verdict(
            not failed,
            "determinism and round trips",
            f"{len(checks)} byte-identical checks"
            + (f"; failed: {failed}" if failed else " all held"),
        )
