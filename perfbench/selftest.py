"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

On a small noisy workload it runs one untraced and one traced round in this
process and shows that:

- every check passes on the real outputs;
- the traced round's outputs are byte-identical to the untraced round's;
- each check rejects a deliberately corrupted output: a dropped graph edge,
  an altered F1 in report.tsv, a walk step between non-adjacent nodes and a
  NaN in embeddings.tsv.

Prints one PASS or FAIL line per claim and exits 1 if any fails.
"""

from __future__ import annotations

import filecmp
import os
import shutil
import sys

import numpy as np

import checks
import run
import tracing
from stages import WALKS_FILE, run_round, save_trace
from workloads import SHORT_BIASED_WALKS, Workload, import_package, make_inputs

SMALL = Workload(
    "selftest",
    synth={"n_regular_accounts": 300, "n_rings": 6},
    gnn=("--epochs", "20"),
    gbdt=("--trees", "20"),
    node2vec=SHORT_BIASED_WALKS + ("--trees", "20"),
    noisy_logins=True,
)
SEED = 3

results: list[bool] = []


def verdict(ok: bool, claim: str, detail: str = "") -> None:
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {claim}{': ' + detail if detail else ''}")


def rejects(claim: str, check) -> None:
    try:
        check()
    except checks.CheckFailed as e:
        verdict(True, claim, f"rejected ({e})")
    else:
        verdict(False, claim, "accepted the corrupted output")


def edit_line(path: str, lineno: int, edit) -> str:
    """Copy of path with line lineno (1-based) replaced by edit(line), or dropped when edit returns None."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    new = edit(lines[lineno - 1])
    lines[lineno - 1 : lineno] = [] if new is None else [new]
    out = path + ".corrupt"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return out


def main() -> int:
    fraudring = import_package(run.ROOT)
    cli = fraudring.cli
    work = os.path.join(run.WORK_DIR, f"selftest-{os.getpid()}")
    data = os.path.join(work, "data")
    try:
        os.makedirs(data)
        sds = make_inputs(fraudring, SMALL, SEED, data)
        expected = run.Expected(fraudring, SMALL, sds, data)
        graph = os.path.join(data, fraudring.features.GRAPH_FILE)

        plain, traced = os.path.join(work, "plain"), os.path.join(work, "traced")
        for round_dir, tracer in ((plain, None), (traced, tracing.Tracer())):
            os.makedirs(round_dir)
            if tracer is not None:
                tracer.install()
            result = run_round(fraudring, SMALL, data, round_dir, tracer)
            shutil.copy(graph, os.path.join(round_dir, "graph.tsv"))
            if tracer is not None:
                save_trace(tracer, round_dir)
            codes = [s["rc"] for s in result["stages"].values()]
            _, failures = run.check_round(fraudring, expected, data, round_dir, tracer is not None)
            kind = "traced" if tracer else "untraced"
            verdict(codes == [0] * 5 and not failures, f"{kind} round passes every check",
                    f"exit codes {codes}, failures {failures}")

        outputs = ["graph.tsv"] + [os.path.join("models", f) for f in sorted(os.listdir(os.path.join(plain, "models")))]
        outputs += [os.path.join("reports", f) for f in (cli.REPORT_FILE, cli.PR_CURVES_FILE)]
        differ = [f for f in outputs
                  if not filecmp.cmp(os.path.join(plain, f), os.path.join(traced, f), shallow=False)]
        verdict(not differ, "traced outputs are byte-identical to untraced ones", f"{len(outputs)} files, differ: {differ}")

        ids, kinds, edges = checks.read_graph(graph)
        last_edge = len(ids) + len(edges) + 3  # the #nodes, blank and #edges lines come first
        rejects("dropped graph edge", lambda: checks.check_graph(
            edit_line(graph, last_edge, lambda line: None), expected.edges, expected.nodes))

        report = os.path.join(traced, "reports", cli.REPORT_FILE)

        def bump_f1(line: str) -> str:
            fields = line.split("\t")
            fields[4] = f"{float(fields[4]) + 0.01:.9g}"
            return "\t".join(fields)

        rejects("altered F1 in report.tsv", lambda: checks.check_report(
            edit_line(report, 2, bump_f1), os.path.join(traced, "reports", cli.PR_CURVES_FILE)))

        walks = np.load(os.path.join(traced, WALKS_FILE))
        # Two nodes of one kind are never adjacent, so step to another of the same kind.
        start = int(walks[0, 0])
        walks[0, 1] = next(i for i, k in enumerate(kinds) if k == kinds[start] and i != start)
        rejects("walk step between non-adjacent nodes", lambda: checks.check_walks(walks, ids, expected.edges))

        def nan_first(line: str) -> str:
            fields = line.split("\t")
            fields[1] = "nan"
            return "\t".join(fields)

        rejects("NaN in embeddings.tsv", lambda: checks.check_embeddings(
            edit_line(os.path.join(traced, "models", cli.EMBEDDINGS_FILE), 1, nan_first),
            expected.nodes, expected.dimensions))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
