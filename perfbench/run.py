"""Pipeline benchmark: per-stage CLI times, model F1 and traced per-layer times.

    python3 perfbench/run.py --workload desk-1x --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from --seed, then runs rounds of the five CLI
stages (build-graph, train gnn, train gbdt, train node2vec-gbdt, evaluate),
each round in a fresh process, until --seconds of rounds have been measured.
Every stage's outputs are checked (see checks.py). The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, medians over rounds; with
--trace 1 they are the per-layer ones from a traced set-up and traced rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import tracing
from stages import ROUND_FILE, SPANS_FILE, WALKS_FILE
from workloads import SPLIT_FLAGS, WORKLOADS, import_package, make_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".bench_work")
ROUND_TIMEOUT_S = 170
# Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3
# One BLAS thread: a second one saved no wall time in train gnn, doubled its
# CPU time, and made it nearly four times slower when another process held a core.
ROUND_ENV = {**os.environ, **{v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}

E2E_UNITS = {
    "setup_s": "s",
    "build_graph_s": "s",
    "train_gnn_s": "s",
    "train_gbdt_s": "s",
    "train_node2vec_gbdt_s": "s",
    "evaluate_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "f1_gnn": "1",
    "f1_gbdt": "1",
    "f1_node2vec_gbdt": "1",
}


def flag(flags, name: str, default):
    """Value of a --flag in a stage's argument list, or the program's default."""
    flags = list(flags)
    return type(default)(flags[flags.index(name) + 1]) if name in flags else default


class Expected:
    """What the outputs must match, computed apart from the program."""

    def __init__(self, fraudring, workload, sds, data: str):
        self.edges, self.nodes = checks.expected_graph(
            (ev.account_external_id for ev in sds.claims),
            ((ev.account_external_id, ev.device_umid) for ev in sds.logins),
        )
        defaults = fraudring.cli
        self.negatives = checks.expected_negatives(
            os.path.join(data, fraudring.features.FEATURES_FILE),
            flag(SPLIT_FLAGS, "--test-fraction", 0.3),
            defaults.GNN_DEFAULTS["negative_rate"],
        )
        self.trees = flag(workload.gbdt, "--trees", defaults.GBDT_DEFAULTS["trees"])
        self.n2v_trees = flag(workload.node2vec, "--trees", defaults.GBDT_DEFAULTS["trees"])
        self.dimensions = flag(workload.node2vec, "--dimensions", defaults.N2V_DEFAULTS["dimensions"])


def check_round(fraudring, expected: Expected, data: str, round_dir: str, traced: bool) -> tuple[dict, list[str]]:
    """Checks each stage's outputs; returns F1 by model and one message per failed stage.

    Breaches of the best-F1 tie rule are printed to stderr (see check_report).
    """
    models = os.path.join(round_dir, "models")
    cli = fraudring.cli

    def stdout(stage: str) -> str:
        with open(os.path.join(round_dir, f"{stage}.out"), encoding="utf-8") as fh:
            return fh.read()

    def walks() -> None:
        ids, _, _ = checks.read_graph(os.path.join(data, fraudring.features.GRAPH_FILE))
        checks.check_walks(np.load(os.path.join(round_dir, WALKS_FILE)), ids, expected.edges)

    f1s: dict[str, float] = {}

    def report() -> None:
        found, notes = checks.check_report(os.path.join(round_dir, "reports", cli.REPORT_FILE),
                                           os.path.join(round_dir, "reports", cli.PR_CURVES_FILE))
        f1s.update(found)
        for note in notes:
            print(f"NOTE {note}", file=sys.stderr)

    stage_checks = {
        "build_graph": lambda: checks.check_graph(
            os.path.join(data, fraudring.features.GRAPH_FILE), expected.edges, expected.nodes),
        "train_gnn": lambda: checks.check_gnn(os.path.join(models, cli.TRAIN_REPORT_FILE), expected.negatives),
        "train_gbdt": lambda: checks.check_gbdt(
            stdout("train_gbdt"), os.path.join(models, cli.GBDT_MODEL_FILE), expected.trees),
        "train_node2vec_gbdt": lambda: (
            checks.check_gbdt(stdout("train_node2vec_gbdt"), os.path.join(models, cli.N2V_MODEL_FILE),
                              expected.n2v_trees),
            checks.check_embeddings(os.path.join(models, cli.EMBEDDINGS_FILE), expected.nodes,
                                    expected.dimensions),
            traced and walks(),
        ),
        "evaluate": report,
    }
    failures = []
    for stage, check in stage_checks.items():
        try:
            check()
        except (checks.CheckFailed, OSError, ValueError) as e:
            failures.append(f"{stage}: {e}")
    return f1s, failures


def run_round(workload, data: str, round_dir: str, traced: bool) -> dict:
    os.makedirs(round_dir)
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "stages.py"),
           "--workload", workload.name, "--data", data, "--round-dir", round_dir]
    proc = subprocess.run(cmd + (["--trace"] if traced else []), timeout=ROUND_TIMEOUT_S, env=ROUND_ENV,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: stage process exited {proc.returncode}:\n{proc.stdout}")
    with open(os.path.join(round_dir, ROUND_FILE), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    fraudring = import_package(ROOT)
    workload = WORKLOADS[args.workload]
    traced = args.trace == 1
    run_dir = os.path.join(WORK_DIR, f"{workload.name}-seed{args.seed}-{os.getpid()}")
    data = os.path.join(run_dir, "data")
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()

    try:
        setup_times = []
        for _ in range(1 if traced else SETUP_REPEATS):
            shutil.rmtree(run_dir, ignore_errors=True)
            os.makedirs(data)
            start = time.perf_counter()
            sds = make_inputs(fraudring, workload, args.seed, data)
            setup_times.append(time.perf_counter() - start)
        expected = Expected(fraudring, workload, sds, data)
        del sds

        rounds, f1s, failures, layers = [], [], [], []
        measured = 0.0
        while not rounds or measured < args.seconds:
            round_dir = os.path.join(run_dir, f"round{len(rounds)}")
            result = run_round(workload, data, round_dir, traced)
            stages = result["stages"]
            print(f"round {len(rounds)}: " + " ".join(f"{n} {stages[n]['seconds']:.3f}" for n in tracing.STAGES
                                                      if n in stages), file=sys.stderr)
            measured += sum(sum(s["samples"]) for s in stages.values())
            bad = [f"{name}: exit {s['rc']}" for name, s in stages.items() if s["rc"] != 0]
            bad += [f"{name}: not run" for name in tracing.STAGES if name not in stages]
            if not bad:
                round_f1, bad = check_round(fraudring, expected, data, round_dir, traced)
                f1s.append(round_f1)
            failures.extend(bad)
            rounds.append(result)
            if traced:
                with open(os.path.join(round_dir, SPANS_FILE), encoding="utf-8") as fh:
                    spans = json.load(fh)
                counters = dict(spans["counters"])
                for name, value in tracer.counters.items():
                    counters[name] = counters.get(name, 0.0) + value
                layers.append(tracing.layer_metrics([tracer.spans, spans["spans"]], counters))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    attempted = len(tracing.STAGES) * len(rounds)
    out = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": {}}
    if failures:
        print(json.dumps(out))
        return 1

    if traced:
        for name in tracing.layer_metric_names():
            out["metrics"][name] = {
                "value": statistics.median(r[name] for r in layers),
                "unit": "count" if name in tracing.COUNTERS else ("1/s" if name in tracing.RATES else "s"),
            }
    else:
        values = {"setup_s": statistics.median(setup_times)}
        for stage in tracing.STAGES:
            values[f"{stage}_s"] = statistics.median(r["stages"][stage]["seconds"] for r in rounds)
        values["pipeline_s"] = statistics.median(sum(s["seconds"] for s in r["stages"].values()) for r in rounds)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in rounds)
        for model in ("gnn", "gbdt", "node2vec-gbdt"):
            values[f"f1_{model.replace('-', '_')}"] = statistics.median(f[model] for f in f1s)
        out["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    for name, metric in out["metrics"].items():
        print(f"{name}\t{metric['value']:.6g}\t{metric['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
