"""One pipeline round in a fresh process: the five CLI stages through `fraudring.cli.main`.

    python3 perfbench/stages.py --workload NAME --data DIR --round-dir DIR [--trace]

Each stage gets the arguments a user would type, and runs as often and in the
order the workload's schedule says; its stdout and stderr go to `<stage>.out` and
`<stage>.err` in the round directory. The exit code and wall times of every
stage, and the process's peak resident memory, are written to `round.json`. With --trace the package's public functions are timed and
the spans, counters and node2vec walks are written out after the last stage.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

from workloads import SPLIT_FLAGS, WORKLOADS, import_package

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ROUND_FILE = "round.json"
SPANS_FILE = "spans.json"
WALKS_FILE = "walks.npy"


def stage_argv(workload, data: str, models: str, reports: str) -> list[tuple[str, list[str]]]:
    with open(os.path.join(data, "synth_manifest.json"), encoding="utf-8") as fh:
        reference_time = str(json.load(fh)["reference_time"])

    def train(model: str, flags) -> list[str]:
        return ["train", "--model", model, "--data", data, "--out", models, *SPLIT_FLAGS, *flags]

    return [
        ("build_graph", [
            "build-graph", "--claims", os.path.join(data, "claims.tsv"),
            "--logins", os.path.join(data, "logins.tsv"),
            "--reference-time", reference_time, "--out", os.path.join(data, "graph.tsv"),
        ]),
        ("train_gnn", train("gnn", workload.gnn)),
        ("train_gbdt", train("gbdt", workload.gbdt)),
        ("train_node2vec_gbdt", train("node2vec-gbdt", workload.node2vec)),
        ("evaluate", ["evaluate", "--data", data, "--models", models, "--out", reports, *SPLIT_FLAGS]),
    ]


def run_round(fraudring, workload, data: str, round_dir: str, tracer=None) -> dict:
    """Run the five stages, in the workload's schedule when untraced and once each when traced.

    A stage's "seconds" is the median of its runs, all of which are in
    "samples"; a stage run again rewrites the same outputs.
    """
    models = os.path.join(round_dir, "models")
    reports = os.path.join(round_dir, "reports")
    argv_of = dict(stage_argv(workload, data, models, reports))
    steps = [(stage, 1) for stage in argv_of] if tracer else workload.schedule
    samples: dict[str, list[float]] = {}
    rc = 0
    for stage, count in steps:
        for _ in range(count):
            with open(os.path.join(round_dir, f"{stage}.out"), "w", encoding="utf-8") as out, \
                    open(os.path.join(round_dir, f"{stage}.err"), "w", encoding="utf-8") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                if tracer is None:
                    rc = fraudring.cli.main(argv_of[stage])
                else:
                    tracer.stage = stage
                    rc = tracer.call(f"cli.{stage}", fraudring.cli.main, argv_of[stage])
                samples.setdefault(stage, []).append(time.perf_counter() - start)
            if rc != 0:
                break
        if rc != 0:
            break
    result = {"stages": {
        name: {"rc": 0, "seconds": statistics.median(times), "samples": times} for name, times in samples.items()
    }}
    result["stages"][stage]["rc"] = rc
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def save_trace(tracer, round_dir: str) -> None:
    """Write the spans and counters, and the walks padded with -1 to one array."""
    tracer.dump(os.path.join(round_dir, SPANS_FILE))
    longest = max((len(w) for w in tracer.walks), default=0)
    walks = np.full((len(tracer.walks), longest), -1, dtype=np.int64)
    for i, w in enumerate(tracer.walks):
        walks[i, : len(w)] = w
    np.save(os.path.join(round_dir, WALKS_FILE), walks)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", required=True)
    parser.add_argument("--round-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    fraudring = import_package(ROOT)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result = run_round(fraudring, WORKLOADS[args.workload], args.data, args.round_dir, tracer)
    if tracer is not None:
        save_trace(tracer, args.round_dir)
    with open(os.path.join(args.round_dir, ROUND_FILE), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
