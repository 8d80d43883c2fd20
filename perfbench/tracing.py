"""Spans and counters recorded around calls into the package's public functions.

`Tracer.install` replaces every attribute of a `fraudring` module that refers
to a traced function with a timing wrapper, so the program's own calls go
through it whichever module they look the function up in. Each call records
a span: name, start, end, parent span and stage. Spans stay in memory until
`dump` writes them out. `layer_metrics` turns spans and counters into the
per-layer metrics: self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, metric its self time adds to)
TRACED = [
    ("fraudring.graph", "load_claim_events", "graph.load_events_s"),
    ("fraudring.graph", "load_login_events", "graph.load_events_s"),
    ("fraudring.graph", "build_graph", "graph.build_graph_s"),
    ("fraudring.graph", "connected_components", "graph.connected_components_s"),
    ("fraudring.graph", "prune_singletons", "graph.prune_singletons_s"),
    ("fraudring.graph", "load_graph", "graph.load_graph_s"),
    ("fraudring.graph", "save_graph", "graph.save_graph_s"),
    ("fraudring.features", "load_dataset", "features.load_s"),
    ("fraudring.features", "load_features", "features.load_s"),
    ("fraudring.features", "load_ground_truth", "features.load_s"),
    ("fraudring.features", "prune_dataset", "features.prune_dataset_s"),
    ("fraudring.features", "split_train_test", "features.split_normalize_s"),
    ("fraudring.features", "normalize_features", "features.split_normalize_s"),
    ("fraudring.geniepath", "forward", "geniepath.forward_s"),
    ("fraudring.geniepath", "backward", "geniepath.backward_s"),
    ("fraudring.train", "train", "train.loop_s"),
    ("fraudring.train", "sample_negatives", "train.sample_negatives_s"),
    ("fraudring.train", "score_accounts", "train.score_accounts_s"),
    ("fraudring.baselines.gbdt", "gbdt_fit", "gbdt.fit_s"),
    ("fraudring.baselines.gbdt", "gbdt_predict_batch", "gbdt.predict_s"),
    ("fraudring.baselines.gbdt", "save_gbdt", "gbdt.io_s"),
    ("fraudring.baselines.gbdt", "load_gbdt", "gbdt.io_s"),
    ("fraudring.baselines.node2vec", "biased_walks", "node2vec.walks_s"),
    ("fraudring.baselines.node2vec", "train_embeddings", "node2vec.skipgram_s"),
    ("fraudring.baselines.node2vec", "save_embeddings", "node2vec.io_s"),
    ("fraudring.baselines.node2vec", "load_embeddings", "node2vec.io_s"),
    ("fraudring.evaluation", "best_f1_threshold", "evaluation.best_f1_threshold_s"),
    ("fraudring.evaluation", "pr_curve", "evaluation.pr_curve_s"),
    ("fraudring.evaluation", "compare_models", "evaluation.compare_models_s"),
    ("fraudring.synth", "generate", "synth.generate_s"),
    ("fraudring.synth", "emit", "synth.emit_s"),
]

STAGES = ["build_graph", "train_gnn", "train_gbdt", "train_node2vec_gbdt", "evaluate"]
STAGE_METRICS = [f"cli.{s}.self_s" for s in STAGES]
COUNTERS = [
    "geniepath.forward_calls",
    "gbdt.row_rounds",
    "node2vec.walk_steps",
    "evaluation.thresholds_scanned",
]
RATES = {
    # metric: (counter, seconds metric it is divided by)
    "geniepath.candidates_per_s": ("geniepath.candidates", "geniepath.forward_s"),
    "node2vec.pairs_per_s": ("node2vec.pairs", "node2vec.skipgram_s"),
}
# Spans of the tracer's own counting, left out of every self time.
OVERHEAD = "perfbench.counting"


# The five stages' time with tracing on; minus the untraced pipeline_s it is
# the tracing overhead.
TRACED_PIPELINE = "traced.pipeline_s"


def layer_metric_names() -> list[str]:
    names = list(dict.fromkeys(metric for _, _, metric in TRACED))
    return names + STAGE_METRICS + COUNTERS + list(RATES) + [TRACED_PIPELINE]


def _skipgram_pairs(walks, window: int) -> int:
    """(center, context) pairs the skip-gram forms from the walks in one epoch."""
    lengths = np.array([len(w) for w in walks], dtype=np.int64)
    offsets = np.arange(1, window + 1)
    return int(2 * np.clip(lengths[:, None] - offsets[None, :], 0, None).sum())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.stage = "setup"
        self.walks: list[list[int]] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "stage": self.stage,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def _count(self, function: str, result, args) -> None:
        c = self.counters
        if function == "forward":
            params, graph = args[0], args[1]
            c["geniepath.forward_calls"] += 1
            candidates = graph.num_nodes + len(graph.csr()[1])
            c["geniepath.candidates"] += candidates * params.n_layers
        elif function == "gbdt_fit":
            x, config = args[0], args[2]
            c["gbdt.row_rounds"] += len(x) * config.n_trees
        elif function == "biased_walks":
            self.walks.extend(result)
            c["node2vec.walk_steps"] += sum(len(w) - 1 for w in result)
        elif function == "train_embeddings":
            walks, config = args[0], args[1]
            c["node2vec.pairs"] += _skipgram_pairs(walks, config.window) * config.epochs
        elif function == "best_f1_threshold":
            c["evaluation.thresholds_scanned"] += len(set(args[0].values()))

    def _wrap(self, name: str, function: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            self.call(OVERHEAD, self._count, function, result, args)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("fraudring") and m is not None]
        for module_name, function, _ in TRACED:
            original = getattr(sys.modules[module_name], function)
            wrapper = self._wrap(f"{module_name.rsplit('.', 1)[-1]}.{function}", function, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def self_times(spans: list[dict]) -> list[float]:
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child_time[s["id"]] for s in spans]


def layer_metrics(span_lists: list[list[dict]], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one set-up plus one round.

    Each list of spans comes from one process, whose span ids it numbers.
    """
    metric_of = {f"{m.rsplit('.', 1)[-1]}.{f}": metric for m, f, metric in TRACED}
    metric_of.update({f"cli.{s}": f"cli.{s}.self_s" for s in STAGES})
    out = {name: 0.0 for name in layer_metric_names()}
    for spans in span_lists:
        for span, own in zip(spans, self_times(spans)):
            if span["name"] in metric_of:
                out[metric_of[span["name"]]] += own
            if span["name"].startswith("cli."):
                out[TRACED_PIPELINE] += span["end"] - span["start"]
    for name in COUNTERS:
        out[name] = counters.get(name, 0.0)
    for name, (counter, seconds) in RATES.items():
        out[name] = counters.get(counter, 0.0) / out[seconds] if out[seconds] > 0 else 0.0
    return out
