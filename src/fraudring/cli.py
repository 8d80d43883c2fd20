"""Command-line workflow: synth -> build-graph -> train -> evaluate -> export-dot.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure. Every command is deterministic under a fixed --seed. Options may
also come from a JSON --config file; explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any, Mapping, NamedTuple, Sequence

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
    gbdt_training_rows,
    save_train_report,
    score_accounts,
    train,
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


class _Option(NamedTuple):
    """One option: its flag, the type of its value and the commands that take it.
    Its default is the dataclass default of the config field it feeds, or its own
    where no config field owns the value."""

    flag: str
    type: type
    commands: tuple[str, ...]
    owner: type | None = None
    field: str = ""
    default: Any = None
    choices: tuple[str, ...] | None = None

    @property
    def key(self) -> str:
        """The flag's dest, which is also its --config key."""
        return self.flag[2:].replace("-", "_")


# Rows are in each command's --help order. grad-check shares `layers` with the
# GNN, so its rows sit around that row.
OPTIONS = (
    _Option("--seed", int, ("synth",), SynthConfig, "seed"),
    _Option("--n-regular", int, ("synth",), SynthConfig, "n_regular_accounts"),
    _Option("--n-rings", int, ("synth",), SynthConfig, "n_rings"),
    _Option("--ring-size-min", int, ("synth",), SynthConfig, "ring_size_range"),
    _Option("--ring-size-max", int, ("synth",), SynthConfig, "ring_size_range"),
    _Option("--devices-per-ring-min", int, ("synth",), SynthConfig, "devices_per_ring_range"),
    _Option("--devices-per-ring-max", int, ("synth",), SynthConfig, "devices_per_ring_range"),
    _Option("--regular-devices-min", int, ("synth",), SynthConfig, "regular_devices_per_account_range"),
    _Option("--regular-devices-max", int, ("synth",), SynthConfig, "regular_devices_per_account_range"),
    _Option("--family-share-prob", float, ("synth",), SynthConfig, "family_share_prob"),
    _Option("--tag-miss-rate", float, ("synth",), SynthConfig, "tag_miss_rate"),
    _Option("--feature-dim", int, ("synth",), SynthConfig, "feature_dim"),
    _Option("--fraud-shift", float, ("synth",), SynthConfig, "fraud_feature_shift"),
    _Option("--claim-window-days", int, ("build-graph",), WindowConfig, "claim_window_days"),
    _Option("--device-window-days", int, ("build-graph",), WindowConfig, "device_window_days"),
    _Option("--seed", int, ("train",), TrainConfig, "seed"),
    _Option("--test-fraction", float, ("train", "evaluate"), default=0.3),
    _Option("--split-seed", int, ("train", "evaluate"), default=0),
    _Option("--no-prune", bool, ("build-graph", "train", "evaluate"), default=False),
    _Option("--epochs", int, ("train",), TrainConfig, "epochs"),
    _Option("--learning-rate", float, ("train",), TrainConfig, "learning_rate"),
    _Option("--hidden-dim", int, ("train",), default=16),
    _Option("--nodes", int, ("grad-check",), default=12),
    _Option("--hidden-dim", int, ("grad-check",), default=4),
    _Option("--layers", int, ("train", "grad-check"), default=2),
    _Option("--seed", int, ("grad-check",), SynthConfig, "seed"),
    _Option("--eps", float, ("grad-check",), default=1e-5),
    _Option("--negative-rate", float, ("train",), TrainConfig, "negative_sample_rate"),
    _Option("--optimizer", str, ("train",), TrainConfig, "optimizer", choices=("adam", "sgd")),
    _Option("--no-resample", bool, ("train",), TrainConfig, "resample_each_epoch"),
    _Option("--trees", int, ("train",), GBDTConfig, "n_trees"),
    _Option("--max-depth", int, ("train",), GBDTConfig, "max_depth"),
    _Option("--row-sample", float, ("train",), GBDTConfig, "row_sample_rate"),
    _Option("--feature-sample", float, ("train",), GBDTConfig, "feature_sample_rate"),
    _Option("--gbdt-learning-rate", float, ("train",), GBDTConfig, "learning_rate"),
    _Option("--min-samples-leaf", int, ("train",), GBDTConfig, "min_samples_leaf"),
    _Option("--dimensions", int, ("train",), Node2vecConfig, "dimensions"),
    _Option("--walk-length", int, ("train",), Node2vecConfig, "walk_length"),
    _Option("--walks-per-node", int, ("train",), Node2vecConfig, "walks_per_node"),
    _Option("--window", int, ("train",), Node2vecConfig, "window"),
    _Option("--return-param", float, ("train",), Node2vecConfig, "return_param"),
    _Option("--inout-param", float, ("train",), Node2vecConfig, "inout_param"),
    _Option("--negative-samples", int, ("train",), Node2vecConfig, "negative_samples"),
    _Option("--n2v-epochs", int, ("train",), Node2vecConfig, "epochs"),
    _Option("--step-size", float, ("train",), Node2vecConfig, "step_size"),
)


@functools.cache
def _rows(command: str) -> tuple[_Option, ...]:
    return tuple(row for row in OPTIONS if command in row.commands)


def _default(row: _Option) -> Any:
    """The option's default, as its flag or a --config file would give it."""
    if row.owner is None:
        return row.default
    value = getattr(row.owner, row.field)
    if row.key == "no_resample":
        return not value
    if row.key == "optimizer":
        return value.value
    if row.field.endswith("_range"):
        return value[1 if row.key.endswith("_max") else 0]
    return value


def _make(owner: type, command: str, opt: Mapping[str, Any], **fields: Any) -> Any:
    """The owner config from the command's resolved options that feed it, plus `fields`."""
    for row in _rows(command):
        if row.owner is owner:
            value = opt[row.key]
            if row.key == "no_resample":
                value = not value
            elif row.key == "optimizer":
                value = Optimizer(value)
            elif row.field.endswith("_range"):  # the --*-min row comes right before its --*-max row
                value = fields.get(row.field, ()) + (value,)
            fields[row.field] = value
    return owner(**fields)


# the defaults of each train branch, which perfbench reads
GNN_DEFAULTS = {
    row.key: _default(row) for row in _rows("train") if row.owner is TrainConfig or row.key in ("hidden_dim", "layers")
}
GBDT_DEFAULTS = {row.key: _default(row) for row in OPTIONS if row.owner is GBDTConfig}
N2V_DEFAULTS = {row.key: _default(row) for row in OPTIONS if row.owner is Node2vecConfig}


def _read_config(path: str, command: str) -> dict[str, Any]:
    """The checked entries of a --config file.

    Its keys are the options of the command; train and evaluate may share one
    file, so evaluate takes the keys of every train branch. A value must have
    its option's type, except that an int may stand for a float; a bool stands
    for nothing but a bool.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            from_file = json.load(fh)
    except json.JSONDecodeError as e:
        raise UsageError(f"--config {path}: invalid JSON ({e})") from None
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"--config {path}: {e}") from None
    if not isinstance(from_file, dict):
        raise UsageError(f"--config {path}: expected a JSON object")
    rows = {row.key: row for row in _rows("train" if command == "evaluate" else command)}
    unknown = sorted(set(from_file) - set(rows))
    if unknown:
        raise UsageError(f"--config {path}: unknown keys {unknown}")
    for key, value in from_file.items():
        expected, got = rows[key].type, type(value)
        if got is not expected and (expected, got) != (float, int):
            raise UsageError(f"--config {path}: {key}: expected {expected.__name__}, got {got.__name__}")
        choices = rows[key].choices
        if choices and value not in choices:
            raise UsageError(
                f"--config {path}: {key}: invalid choice {value!r} (choose from {', '.join(map(repr, choices))})"
            )
    return from_file


def _resolve(args: argparse.Namespace, command: str) -> dict[str, Any]:
    """The command's options: explicit flag > --config JSON entry > default."""
    from_file = _read_config(args.config, command) if args.config else {}
    opt = {}
    for row in _rows(command):
        value = getattr(args, row.key)
        opt[row.key] = from_file.get(row.key, _default(row)) if value is None else value
    return opt


def _add_options(p: argparse.ArgumentParser, command: str) -> None:
    for row in _rows(command):
        if row.type is bool:
            p.add_argument(row.flag, action="store_const", const=True)
        else:
            p.add_argument(row.flag, type=row.type, choices=row.choices)


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of option defaults (flags override it)")


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process; parse_args keeps no state between calls."""
    parser = _Parser(prog="fraudring", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic colluder-ring dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    _add_options(p, "synth")
    _add_config_flag(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-graph", help="build the device-sharing graph from event logs")
    p.add_argument("--claims", required=True, help="claims TSV: account_id<TAB>timestamp")
    p.add_argument("--logins", required=True, help="logins TSV: account_id<TAB>device_umid<TAB>timestamp")
    p.add_argument("--reference-time", type=int, required=True, dest="reference_time",
                   help="epoch seconds; windows end here (exclusive)")
    _add_options(p, "build-graph")
    p.add_argument("--out", required=True, help="output graph TSV path")
    _add_config_flag(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="train one of the models on a dataset directory")
    p.add_argument("--model", required=True, choices=["gnn", "gbdt", "node2vec-gbdt"])
    p.add_argument("--data", required=True, help="dataset directory (graph.tsv + features.tsv)")
    p.add_argument("--out", required=True, help="model output directory")
    _add_options(p, "train")
    _add_config_flag(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score trained models on the Test split")
    p.add_argument("--data", required=True)
    p.add_argument("--models", required=True, help="directory holding trained model files")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--labels", choices=["tags", "ground-truth"], default="tags")
    _add_options(p, "evaluate")
    _add_config_flag(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grad-check", help="compare analytic gradients against finite differences")
    _add_options(p, "grad-check")
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
    sds = generate(_make(SynthConfig, "synth", _resolve(args, "synth")))
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
    opt = _resolve(args, "build-graph")
    claims = load_claim_events(args.claims)
    logins = load_login_events(args.logins)
    window = _make(WindowConfig, "build-graph", opt, reference_time=args.reference_time)
    g = build_graph(claims, logins, window)
    if g.num_nodes == 0:
        print("warning: no in-window events; writing an empty graph", file=sys.stderr)
    if opt["no_prune"]:
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


def _prepare_dataset(data_dir: str, opt: Mapping[str, Any]) -> LabeledDataset:
    ds = load_dataset(data_dir)
    if not opt["no_prune"]:
        ds = prune_dataset(ds)
    ds = split_train_test(ds, opt["test_fraction"], opt["split_seed"])
    return normalize_features(ds)


def cmd_train(args: argparse.Namespace) -> int:
    opt = _resolve(args, "train")
    ds = _prepare_dataset(args.data, opt)
    os.makedirs(args.out, exist_ok=True)

    if args.model == "gnn":
        params = init_params(
            ds.feature_dim, hidden_dim=opt["hidden_dim"], n_layers=opt["layers"], seed=opt["seed"]
        )
        config = _make(TrainConfig, "train", opt)
        print(
            f"training gnn: {config.epochs} epochs, learning rate {config.learning_rate}, "
            f"hidden dim {opt['hidden_dim']}, {opt['layers']} layers, "
            f"negative sample rate {config.negative_sample_rate}"
        )
        params, report = train(ds, params, config)
        save_params(params, os.path.join(args.out, GNN_CHECKPOINT_FILE))
        save_train_report(report, os.path.join(args.out, TRAIN_REPORT_FILE))
        print(f"loss: {report.loss_history[0]:.6g} -> {report.loss_history[-1]:.6g}")
        return 0

    gbdt_config = _make(GBDTConfig, "train", opt, seed=opt["seed"])
    print(
        f"gbdt configuration: {gbdt_config.n_trees} trees, max depth {gbdt_config.max_depth}, "
        f"row sampling rate {gbdt_config.row_sample_rate}, feature sampling rate "
        f"{gbdt_config.feature_sample_rate}, learning rate {gbdt_config.learning_rate}"
    )

    if args.model == "gbdt":
        rows, labels = gbdt_training_rows(ds, opt["negative_rate"], opt["seed"])
        model = gbdt_fit(ds.features[rows], labels, gbdt_config)
        save_gbdt(model, os.path.join(args.out, GBDT_MODEL_FILE))
        print(f"training loss: {model.train_loss_history[0]:.6g} -> {model.train_loss_history[-1]:.6g}")
        return 0

    n2v_config = _make(Node2vecConfig, "train", opt, seed=opt["seed"])
    model, emb = embed_concat_fit(ds, n2v_config, gbdt_config, opt["negative_rate"])
    save_embeddings(emb, ds.graph, os.path.join(args.out, EMBEDDINGS_FILE))
    save_gbdt(model, os.path.join(args.out, N2V_MODEL_FILE))
    print(f"training loss: {model.train_loss_history[0]:.6g} -> {model.train_loss_history[-1]:.6g}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    ds = _prepare_dataset(args.data, _resolve(args, "evaluate"))
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
    opt = _resolve(args, "grad-check")
    ds, positives, negatives = _grad_check_fixture(opt["nodes"], opt["seed"])
    params = init_params(
        ds.feature_dim, hidden_dim=opt["hidden_dim"], n_layers=opt["layers"], seed=opt["seed"]
    )
    err = gradient_check(
        params,
        ds.graph,
        ds.features,
        positives,
        negatives,
        eps=opt["eps"],
        corrupt=args.corrupt,
    )
    print(
        f"max relative gradient error: {err:.3e} "
        f"({ds.graph.num_nodes} nodes, hidden dim {opt['hidden_dim']}, {opt['layers']} layers, eps {opt['eps']:g})"
    )
    if not err <= GRAD_CHECK_LIMIT:
        print(f"FAILED: exceeds {GRAD_CHECK_LIMIT:g}", file=sys.stderr)
        return 3
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    high_risk = g.account_indices()[load_features(args.features, g).high_risk] if args.features else None
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
