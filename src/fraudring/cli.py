"""Command-line workflow: synth -> build-graph -> train -> evaluate -> export-dot.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure. Every command is deterministic under a fixed --seed. Numeric options
may also come from a JSON --config file; explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from types import SimpleNamespace
from typing import Any, Mapping, Sequence

import numpy as np

from . import evaluation
from .baselines.gbdt import (
    GBDTConfig,
    gbdt_fit,
    gbdt_predict_batch,
    load_gbdt,
    save_gbdt,
)
from .baselines.node2vec import (
    Node2vecConfig,
    embed_concat_fit,
    load_embeddings,
    save_embeddings,
)
from .features import (
    LabeledDataset,
    load_dataset,
    load_features,
    normalize_features,
    prune_dataset,
    split_train_test,
)
from .geniepath import (
    gradient_check,
    init_params,
    load_params,
    save_params,
)
from .graph import (
    WindowConfig,
    _kept_nodes,
    build_graph,
    component_labels,
    export_dot,
    load_claim_events,
    load_graph,
    load_login_events,
    save_graph,
)
from .synth import SynthConfig, emit, generate
from .train import (
    NumericalError,
    Optimizer,
    TrainConfig,
    save_train_report,
    score_accounts,
    train,
    training_rows,
)

GNN_CHECKPOINT_FILE = "gnn.ckpt"
GBDT_MODEL_FILE = "gbdt.model"
N2V_MODEL_FILE = "node2vec_gbdt.model"
EMBEDDINGS_FILE = "embeddings.tsv"
TRAIN_REPORT_FILE = "train_report.tsv"
REPORT_FILE = "report.tsv"
PR_CURVES_FILE = "pr_curves.tsv"

GRAD_CHECK_LIMIT = 1e-4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


SYNTH_DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "n_regular": 2000,
    "n_rings": 20,
    "ring_size_min": 8,
    "ring_size_max": 8,
    "devices_per_ring_min": 4,
    "devices_per_ring_max": 6,
    "regular_devices_min": 1,
    "regular_devices_max": 3,
    "family_share_prob": 0.1,
    "tag_miss_rate": 0.3,
    "feature_dim": 12,
    "fraud_shift": 1.3,
}

BUILD_DEFAULTS: dict[str, Any] = {
    "claim_window_days": 30,
    "device_window_days": 40,
    "no_prune": False,
}

SPLIT_DEFAULTS: dict[str, Any] = {
    "test_fraction": 0.3,
    "split_seed": 0,
    "no_prune": False,
}

GNN_DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "epochs": 300,
    "learning_rate": 0.01,
    "hidden_dim": 16,
    "layers": 2,
    "negative_rate": 0.25,
    "optimizer": "adam",
    "no_resample": False,
}

GBDT_DEFAULTS: dict[str, Any] = {
    "trees": 500,
    "max_depth": 5,
    "row_sample": 0.6,
    "feature_sample": 0.7,
    "gbdt_learning_rate": 0.009,
    "min_samples_leaf": 5,
}

N2V_DEFAULTS: dict[str, Any] = {
    "dimensions": 16,
    "walk_length": 20,
    "walks_per_node": 10,
    "window": 5,
    "return_param": 1.0,
    "inout_param": 1.0,
    "negative_samples": 5,
    "n2v_epochs": 3,
    "step_size": 0.025,
}

GRAD_CHECK_DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "nodes": 12,
    "hidden_dim": 4,
    "layers": 2,
    "eps": 1e-5,
}

# train and evaluate may share one --config file; keys from any branch are legal
TRAIN_ALLOWED: dict[str, Any] = {
    **SPLIT_DEFAULTS,
    **GNN_DEFAULTS,
    **GBDT_DEFAULTS,
    **N2V_DEFAULTS,
    "negative_rate": 0.25,
    "seed": 0,
}


def _resolve(
    args: argparse.Namespace,
    defaults: Mapping[str, Any],
    allowed: Mapping[str, Any] | None = None,
) -> SimpleNamespace:
    """Layer values: explicit flag > --config JSON entry > built-in default.

    Config keys are validated against `allowed` (a superset of `defaults` for
    commands that resolve different option groups per branch). A config
    value must have its default's type, except that an int may stand for a
    float; a bool stands for nothing but a bool.
    """
    from_file: dict[str, Any] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            try:
                from_file = json.load(fh)
            except json.JSONDecodeError as e:
                raise UsageError(f"--config {config_path}: invalid JSON ({e})") from None
        spec = allowed if allowed is not None else defaults
        unknown = sorted(set(from_file) - set(spec))
        if unknown:
            raise UsageError(f"--config {config_path}: unknown keys {unknown}")
        for key, value in from_file.items():
            expected, got = type(spec[key]), type(value)
            if got is not expected and (expected, got) != (float, int):
                raise UsageError(f"--config {config_path}: {key}: expected {expected.__name__}, got {got.__name__}")

    resolved = {}
    for dest, fallback in defaults.items():
        value = getattr(args, dest, None)
        if value is None:
            value = from_file.get(dest, fallback)
        resolved[dest] = value
    return SimpleNamespace(**resolved)


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of option defaults (flags override it)")


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--test-fraction", type=float, dest="test_fraction")
    p.add_argument("--split-seed", type=int, dest="split_seed")
    p.add_argument("--no-prune", action="store_const", const=True, dest="no_prune")


def build_parser() -> _Parser:
    parser = _Parser(prog="fraudring", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic colluder-ring dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-regular", type=int, dest="n_regular")
    p.add_argument("--n-rings", type=int, dest="n_rings")
    p.add_argument("--ring-size-min", type=int, dest="ring_size_min")
    p.add_argument("--ring-size-max", type=int, dest="ring_size_max")
    p.add_argument("--devices-per-ring-min", type=int, dest="devices_per_ring_min")
    p.add_argument("--devices-per-ring-max", type=int, dest="devices_per_ring_max")
    p.add_argument("--regular-devices-min", type=int, dest="regular_devices_min")
    p.add_argument("--regular-devices-max", type=int, dest="regular_devices_max")
    p.add_argument("--family-share-prob", type=float, dest="family_share_prob")
    p.add_argument("--tag-miss-rate", type=float, dest="tag_miss_rate")
    p.add_argument("--feature-dim", type=int, dest="feature_dim")
    p.add_argument("--fraud-shift", type=float, dest="fraud_shift")
    _add_config_flag(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-graph", help="build the device-sharing graph from event logs")
    p.add_argument("--claims", required=True, help="claims TSV: account_id<TAB>timestamp")
    p.add_argument("--logins", required=True, help="logins TSV: account_id<TAB>device_umid<TAB>timestamp")
    p.add_argument("--reference-time", type=int, required=True, dest="reference_time",
                   help="epoch seconds; windows end here (exclusive)")
    p.add_argument("--claim-window-days", type=int, dest="claim_window_days")
    p.add_argument("--device-window-days", type=int, dest="device_window_days")
    p.add_argument("--no-prune", action="store_const", const=True, dest="no_prune")
    p.add_argument("--out", required=True, help="output graph TSV path")
    _add_config_flag(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="train one of the models on a dataset directory")
    p.add_argument("--model", required=True, choices=["gnn", "gbdt", "node2vec-gbdt"])
    p.add_argument("--data", required=True, help="dataset directory (graph.tsv + features.tsv)")
    p.add_argument("--out", required=True, help="model output directory")
    p.add_argument("--seed", type=int)
    _add_split_flags(p)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--hidden-dim", type=int, dest="hidden_dim")
    p.add_argument("--layers", type=int)
    p.add_argument("--negative-rate", type=float, dest="negative_rate")
    p.add_argument("--optimizer", choices=["adam", "sgd"])
    p.add_argument("--no-resample", action="store_const", const=True, dest="no_resample")
    p.add_argument("--trees", type=int)
    p.add_argument("--max-depth", type=int, dest="max_depth")
    p.add_argument("--row-sample", type=float, dest="row_sample")
    p.add_argument("--feature-sample", type=float, dest="feature_sample")
    p.add_argument("--gbdt-learning-rate", type=float, dest="gbdt_learning_rate")
    p.add_argument("--min-samples-leaf", type=int, dest="min_samples_leaf")
    p.add_argument("--dimensions", type=int)
    p.add_argument("--walk-length", type=int, dest="walk_length")
    p.add_argument("--walks-per-node", type=int, dest="walks_per_node")
    p.add_argument("--window", type=int)
    p.add_argument("--return-param", type=float, dest="return_param")
    p.add_argument("--inout-param", type=float, dest="inout_param")
    p.add_argument("--negative-samples", type=int, dest="negative_samples")
    p.add_argument("--n2v-epochs", type=int, dest="n2v_epochs")
    p.add_argument("--step-size", type=float, dest="step_size")
    _add_config_flag(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score trained models on the Test split")
    p.add_argument("--data", required=True)
    p.add_argument("--models", required=True, help="directory holding trained model files")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--labels", choices=["tags", "ground-truth"], default="tags")
    _add_split_flags(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grad-check", help="compare analytic gradients against finite differences")
    p.add_argument("--nodes", type=int)
    p.add_argument("--hidden-dim", type=int, dest="hidden_dim")
    p.add_argument("--layers", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--corrupt", choices=["ws"], help="deliberately break one gradient block (test hook)")
    _add_config_flag(p)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("export-dot", help="render a graph (and optional tags) to DOT")
    p.add_argument("--graph", required=True)
    p.add_argument("--features", help="features TSV; high-risk accounts are highlighted")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_dot)

    return parser


def cmd_synth(args: argparse.Namespace) -> int:
    opt = _resolve(args, SYNTH_DEFAULTS)
    config = SynthConfig(
        n_regular_accounts=opt.n_regular,
        n_rings=opt.n_rings,
        ring_size_range=(opt.ring_size_min, opt.ring_size_max),
        devices_per_ring_range=(opt.devices_per_ring_min, opt.devices_per_ring_max),
        regular_devices_per_account_range=(opt.regular_devices_min, opt.regular_devices_max),
        family_share_prob=opt.family_share_prob,
        tag_miss_rate=opt.tag_miss_rate,
        feature_dim=opt.feature_dim,
        fraud_feature_shift=opt.fraud_shift,
        seed=opt.seed,
    )
    sds = generate(config)
    emit(sds, args.out)
    ds = sds.dataset
    n_accounts = len(ds.high_risk)
    print(f"wrote dataset to {args.out}")
    print(
        f"accounts: {n_accounts} ({ds.truth.sum()} fraud, {ds.high_risk.sum()} tagged high-risk), "
        f"devices: {ds.graph.num_nodes - n_accounts}, edges: {ds.graph.edge_count}"
    )
    print(f"reference time: {sds.window.reference_time}")
    print(f"{sds.n_prunable_accounts} accounts sit in singleton components and will be pruned")
    return 0


def cmd_build_graph(args: argparse.Namespace) -> int:
    opt = _resolve(args, BUILD_DEFAULTS)
    claims = load_claim_events(args.claims)
    logins = load_login_events(args.logins)
    window = WindowConfig(
        reference_time=args.reference_time,
        claim_window_days=opt.claim_window_days,
        device_window_days=opt.device_window_days,
    )
    g = build_graph(claims, logins, window)
    if g.num_nodes == 0:
        print("warning: no in-window events; writing an empty graph", file=sys.stderr)
    if opt.no_prune:
        print(f"nodes: {g.num_nodes}, edges: {g.edge_count} (pruning skipped)")
    else:
        labels = component_labels(g)
        keep = _kept_nodes(g, labels)
        dropped = np.count_nonzero(~keep & (labels == np.arange(g.num_nodes)))
        pruned = g.subgraph(keep)
        print(
            f"nodes: {pruned.num_nodes}, edges: {pruned.edge_count} "
            f"(pruned {dropped} singleton components, {g.num_nodes - pruned.num_nodes} nodes)"
        )
        g = pruned
    save_graph(g, args.out)
    return 0


def _prepare_dataset(data_dir: str, opt: SimpleNamespace) -> LabeledDataset:
    ds = load_dataset(data_dir)
    if not opt.no_prune:
        ds = prune_dataset(ds)
    ds = split_train_test(ds, opt.test_fraction, opt.split_seed)
    return normalize_features(ds)


def cmd_train(args: argparse.Namespace) -> int:
    split_opt = _resolve(args, SPLIT_DEFAULTS, allowed=TRAIN_ALLOWED)
    ds = _prepare_dataset(args.data, split_opt)
    os.makedirs(args.out, exist_ok=True)

    if args.model == "gnn":
        opt = _resolve(args, GNN_DEFAULTS, allowed=TRAIN_ALLOWED)
        params = init_params(
            ds.feature_dim, hidden_dim=opt.hidden_dim, n_layers=opt.layers, seed=opt.seed
        )
        config = TrainConfig(
            epochs=opt.epochs,
            learning_rate=opt.learning_rate,
            negative_sample_rate=opt.negative_rate,
            optimizer=Optimizer(opt.optimizer),
            resample_each_epoch=not opt.no_resample,
            seed=opt.seed,
        )
        print(
            f"training gnn: {config.epochs} epochs, learning rate {config.learning_rate}, "
            f"hidden dim {opt.hidden_dim}, {opt.layers} layers, "
            f"negative sample rate {config.negative_sample_rate}"
        )
        params, report = train(ds, params, config)
        save_params(params, os.path.join(args.out, GNN_CHECKPOINT_FILE))
        save_train_report(report, os.path.join(args.out, TRAIN_REPORT_FILE))
        print(f"loss: {report.loss_history[0]:.6g} -> {report.loss_history[-1]:.6g}")
        return 0

    opt = _resolve(args, {**GBDT_DEFAULTS, "seed": 0, "negative_rate": 0.25}, allowed=TRAIN_ALLOWED)
    gbdt_config = GBDTConfig(
        n_trees=opt.trees,
        max_depth=opt.max_depth,
        row_sample_rate=opt.row_sample,
        feature_sample_rate=opt.feature_sample,
        learning_rate=opt.gbdt_learning_rate,
        min_samples_leaf=opt.min_samples_leaf,
        seed=opt.seed,
    )
    print(
        f"gbdt configuration: {gbdt_config.n_trees} trees, max depth {gbdt_config.max_depth}, "
        f"row sampling rate {gbdt_config.row_sample_rate}, feature sampling rate "
        f"{gbdt_config.feature_sample_rate}, learning rate {gbdt_config.learning_rate}"
    )

    if args.model == "gbdt":
        positives, negatives = training_rows(ds, opt.negative_rate, np.random.default_rng(opt.seed))
        labels = np.repeat([1.0, 0.0], [len(positives), len(negatives)])
        model = gbdt_fit(ds.features[np.concatenate([positives, negatives])], labels, gbdt_config)
        save_gbdt(model, os.path.join(args.out, GBDT_MODEL_FILE))
        print(f"training loss: {model.train_loss_history[0]:.6g} -> {model.train_loss_history[-1]:.6g}")
        return 0

    n2v_opt = _resolve(args, {**N2V_DEFAULTS, "seed": 0}, allowed=TRAIN_ALLOWED)
    n2v_config = Node2vecConfig(
        dimensions=n2v_opt.dimensions,
        walk_length=n2v_opt.walk_length,
        walks_per_node=n2v_opt.walks_per_node,
        window=n2v_opt.window,
        return_param=n2v_opt.return_param,
        inout_param=n2v_opt.inout_param,
        negative_samples=n2v_opt.negative_samples,
        epochs=n2v_opt.n2v_epochs,
        step_size=n2v_opt.step_size,
        seed=n2v_opt.seed,
    )
    model, emb = embed_concat_fit(ds, n2v_config, gbdt_config, opt.negative_rate)
    save_embeddings(emb, ds.graph, os.path.join(args.out, EMBEDDINGS_FILE))
    save_gbdt(model, os.path.join(args.out, N2V_MODEL_FILE))
    print(f"training loss: {model.train_loss_history[0]:.6g} -> {model.train_loss_history[-1]:.6g}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    split_opt = _resolve(args, SPLIT_DEFAULTS, allowed=TRAIN_ALLOWED)
    ds = _prepare_dataset(args.data, split_opt)
    scores: dict[str, np.ndarray] = {}

    ckpt = os.path.join(args.models, GNN_CHECKPOINT_FILE)
    if os.path.exists(ckpt):
        scores["gnn"] = score_accounts(ds, load_params(ckpt))
    else:
        print(f"warning: {ckpt} not found; omitting gnn", file=sys.stderr)

    gbdt_path = os.path.join(args.models, GBDT_MODEL_FILE)
    if os.path.exists(gbdt_path):
        model = load_gbdt(gbdt_path)
        if model.n_features != ds.feature_dim:
            raise ValueError(
                f"gbdt model expects {model.n_features} features, dataset has {ds.feature_dim}"
            )
        scores["gbdt"] = gbdt_predict_batch(model, ds.features)
    else:
        print(f"warning: {gbdt_path} not found; omitting gbdt", file=sys.stderr)

    n2v_path = os.path.join(args.models, N2V_MODEL_FILE)
    emb_path = os.path.join(args.models, EMBEDDINGS_FILE)
    if os.path.exists(n2v_path) and os.path.exists(emb_path):
        model = load_gbdt(n2v_path)
        emb = load_embeddings(emb_path, ds.graph)
        x = np.hstack([emb.vectors[ds.graph.account_indices()], ds.features])
        if model.n_features != x.shape[1]:
            raise ValueError(
                f"node2vec-gbdt model expects {model.n_features} columns, "
                f"embeddings+features provide {x.shape[1]}"
            )
        scores["node2vec-gbdt"] = gbdt_predict_batch(model, x)
    else:
        print(f"warning: {n2v_path} or {emb_path} not found; omitting node2vec-gbdt", file=sys.stderr)
    if not scores:
        raise ValueError(f"no trained model in {args.models}")

    os.makedirs(args.out, exist_ok=True)
    report = evaluation.compare_models(ds, scores, label_source=args.labels)
    evaluation.save_report(report, os.path.join(args.out, REPORT_FILE))
    evaluation.save_pr_curves(report, os.path.join(args.out, PR_CURVES_FILE))

    print("model\tthreshold\tprecision\trecall\tf1\tde")
    for row in report.rows:
        print(
            f"{row.model}\t{row.threshold:.4g}\t{row.precision:.4g}"
            f"\t{row.recall:.4g}\t{row.f1:.4g}\t{row.detection_expansion:.4g}"
        )
    if args.labels == "ground-truth":
        mismatches = evaluation.tag_truth_mismatches(ds)
        print(f"audit: rule tags disagree with ground truth on {len(mismatches)} of {len(ds.high_risk)} accounts")
    return 0


def _grad_check_fixture(nodes: int, seed: int):
    n_regular = max(1, (nodes - 6) // 2)
    config = SynthConfig(
        n_regular_accounts=n_regular,
        n_rings=1,
        ring_size_range=(3, 3),
        devices_per_ring_range=(3, 3),
        regular_devices_per_account_range=(1, 1),
        family_share_prob=1.0,
        tag_miss_rate=0.0,
        feature_dim=4,
        fraud_feature_shift=1.0,
        seed=seed,
    )
    ds = generate(config).dataset
    return ds, np.flatnonzero(ds.high_risk), np.flatnonzero(~ds.high_risk)


def cmd_grad_check(args: argparse.Namespace) -> int:
    opt = _resolve(args, GRAD_CHECK_DEFAULTS)
    ds, positives, negatives = _grad_check_fixture(opt.nodes, opt.seed)
    params = init_params(
        ds.feature_dim, hidden_dim=opt.hidden_dim, n_layers=opt.layers, seed=opt.seed
    )
    err = gradient_check(
        params,
        ds.graph,
        ds.features,
        positives,
        negatives,
        eps=opt.eps,
        corrupt=args.corrupt,
    )
    print(
        f"max relative gradient error: {err:.3e} "
        f"({ds.graph.num_nodes} nodes, hidden dim {opt.hidden_dim}, {opt.layers} layers, eps {opt.eps:g})"
    )
    if err > GRAD_CHECK_LIMIT:
        print(f"FAILED: exceeds {GRAD_CHECK_LIMIT:g}", file=sys.stderr)
        return 3
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    high_risk: set[int] | None = None
    if args.features:
        ds = load_features(args.features, g)
        high_risk = set(g.account_indices()[ds.high_risk].tolist())
    export_dot(g, args.out, high_risk)
    print(f"wrote {args.out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        # The format errors of every loader are ValueErrors.
        print(f"error: {e}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
