"""Digest of every CLI output for fixed seeds, to show a change leaves them byte-identical.

    python3 tools/cli_digest.py OUTDIR [SEEDS]

SEEDS is a comma-separated list of seeds and ranges, such as 0-4 or 0,2,5
(default 0). For each seed N the script runs, in process and with the
package from this checkout's src/, at default settings:

    synth --seed N
    build-graph on synth's logs, pruned and with --no-prune
    build-graph, pruned, on a copy of synth's logs with CRLF line endings, a blank line
        after every 100th line and every 7th timestamp written as +N or " N "; its graph
        must equal the one built from the clean logs
    train --model gnn | gbdt | node2vec-gbdt --seed N
    train --model gnn --seed N with --layers 1, and with --layers 3, each into its own
        models directory
    train --model node2vec-gbdt --seed N with --return-param 0.25 --inout-param 4,
        with --return-param 0.3 --inout-param 1.7, and with --return-param 2 --inout-param 2,
        each into its own models directory
    train --model node2vec-gbdt --seed N --dimensions 3 --negative-samples 1, into its own
        models directory
    train --model gbdt --seed N with --max-depth 1, with --max-depth 8 --min-samples-leaf 1, and
        with --row-sample 1 --feature-sample 1, each into its own models directory and followed
        by evaluate on it
    evaluate --labels tags, and --labels ground-truth
    export-dot --features
    grad-check --seed N, with --layers 1, and with --layers 3 --hidden-dim 3
    synth --seed N with --config SYNTH_CONFIG, whose n_rings the flag --n-rings overrides
    train --model gnn | gbdt | node2vec-gbdt --seed N with --config TRAIN_CONFIG, one
        file holding keys of all three models, into its own models directory
    evaluate --config TRAIN_CONFIG on those models

The two config files are written into each seed's directory as
synth_config.json and train_config.json, the rewritten logs into its
messy_logs directory.

Commands run inside OUTDIR with relative paths, so the outputs do not depend
on where OUTDIR is. Each command's stdout, stderr and exit code are saved next
to the files it writes. The sha256 of every file under OUTDIR, one
"<sha256>  <path>" line per file sorted by path, is printed and written to
OUTDIR/digest.sha256. Run it on two checkouts and diff the two digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGEST_FILE = "digest.sha256"

# An int stands for a float (fraud_shift, row_sample); n_rings is overridden by a flag.
SYNTH_CONFIG = {"n_regular": 600, "n_rings": 4, "fraud_shift": 2}
TRAIN_CONFIG = {
    "test_fraction": 0.25, "split_seed": 1, "seed": 99,
    "epochs": 40, "hidden_dim": 8, "negative_rate": 0.5, "optimizer": "sgd", "no_resample": True,
    "trees": 60, "max_depth": 4, "row_sample": 1,
    "dimensions": 8, "walk_length": 10, "n2v_epochs": 1,
}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def write_messy_logs(data: str, out: str) -> None:
    """Synth's claims.tsv and logins.tsv in data, rewritten into out in spellings the reader takes alike.

    Lines end in CRLF, a blank line follows every 100th line, and the
    timestamp of every 7th line is written as +N, and of every 14th as " N ".
    """
    os.makedirs(out)
    for name in ("claims.tsv", "logins.tsv"):
        with open(os.path.join(data, name), encoding="utf-8") as fh:
            lines = fh.read().split("\n")[:-1]
        rows = []
        for number, line in enumerate(lines, start=1):
            if number % 7 == 0:
                head, _, stamp = line.rpartition("\t")
                line = f"{head}\t{f' {stamp} ' if number % 14 == 0 else f'+{stamp}'}"
            rows.append(line)
            if number % 100 == 0:
                rows.append("")
        with open(os.path.join(out, name), "w", encoding="utf-8", newline="\r\n") as fh:
            fh.write("\n".join(rows) + "\n")


def chain(seed: int, reference_time: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of the commands after synth for one seed, relative to the output directory."""
    base = f"seed{seed}"
    data, models = f"{base}/data", f"{base}/models"
    logs = ["--claims", f"{data}/claims.tsv", "--logins", f"{data}/logins.tsv", "--reference-time", reference_time]
    commands = [
        ("build_graph", ["build-graph", *logs, "--out", f"{base}/built.tsv"]),
        ("build_graph_no_prune", ["build-graph", *logs, "--no-prune", "--out", f"{base}/built_no_prune.tsv"]),
        ("build_graph_messy_logs", ["build-graph", "--claims", f"{base}/messy_logs/claims.tsv",
                                    "--logins", f"{base}/messy_logs/logins.tsv", "--reference-time", reference_time,
                                    "--out", f"{base}/built_messy_logs.tsv"]),
    ]
    for model in ("gnn", "gbdt", "node2vec-gbdt"):
        commands.append((f"train_{model}", ["train", "--model", model, "--data", data, "--out", models,
                                            "--seed", str(seed)]))
    # the GNN at one and three layers: receptive fields of one hop and of two extra hops
    for layers in ("1", "3"):
        commands.append((f"train_gnn_layers{layers}", [
            "train", "--model", "gnn", "--data", data, "--out", f"{base}/models_layers{layers}",
            "--seed", str(seed), "--layers", layers]))
    # biased walks: p != q takes the second-order step, p == q other than the default 1 the uniform one
    for p, q in (("0.25", "4"), ("0.3", "1.7"), ("2", "2")):
        commands.append((f"train_node2vec-gbdt_p{p}_q{q}", [
            "train", "--model", "node2vec-gbdt", "--data", data, "--out", f"{base}/models_p{p}_q{q}",
            "--seed", str(seed), "--return-param", p, "--inout-param", q]))
    # a skip-gram of another width and draw count than the defaults d = 16, K = 5
    commands.append(("train_node2vec-gbdt_d3_k1", [
        "train", "--model", "node2vec-gbdt", "--data", data, "--out", f"{base}/models_d3_k1",
        "--seed", str(seed), "--dimensions", "3", "--negative-samples", "1"]))
    # the GBDT as stumps, as trees deeper than the default 5, and on every row and feature, each scored by evaluate
    for name, flags in (("depth1", ["--max-depth", "1"]), ("depth8_leaf1", ["--max-depth", "8", "--min-samples-leaf", "1"]),
                        ("full_sample", ["--row-sample", "1", "--feature-sample", "1"])):
        folder = f"{base}/models_gbdt_{name}"
        commands += [
            (f"train_gbdt_{name}", ["train", "--model", "gbdt", "--data", data, "--out", folder, "--seed", str(seed),
                                    *flags]),
            (f"evaluate_gbdt_{name}", ["evaluate", "--data", data, "--models", folder,
                                       "--out", f"{base}/reports_gbdt_{name}"]),
        ]
    for labels in ("tags", "ground-truth"):
        commands.append((f"evaluate_{labels}", ["evaluate", "--data", data, "--models", models,
                                                "--out", f"{base}/reports_{labels}", "--labels", labels]))
    commands += [
        ("export_dot", ["export-dot", "--graph", f"{data}/graph.tsv", "--features", f"{data}/features.tsv",
                        "--out", f"{base}/graph.dot"]),
        ("grad_check", ["grad-check", "--seed", str(seed)]),
        ("grad_check_layers1", ["grad-check", "--seed", str(seed), "--layers", "1"]),
        ("grad_check_layers3_k3", ["grad-check", "--seed", str(seed), "--layers", "3", "--hidden-dim", "3"]),
        ("synth_config", ["synth", "--out", f"{base}/data_config", "--seed", str(seed),
                          "--config", f"{base}/synth_config.json", "--n-rings", "6"]),
    ]
    # one file for every train branch and evaluate; the --seed flag beats its seed
    config = ["--config", f"{base}/train_config.json"]
    for model in ("gnn", "gbdt", "node2vec-gbdt"):
        commands.append((f"train_{model}_config", ["train", "--model", model, "--data", data,
                                                   "--out", f"{base}/models_config", "--seed", str(seed), *config]))
    commands.append(("evaluate_config", ["evaluate", "--data", data, "--models", f"{base}/models_config",
                                         "--out", f"{base}/reports_config", *config]))
    return commands


def run(main, name: str, argv: list[str], log_dir: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    for suffix, text in (("out", out.getvalue()), ("err", err.getvalue()), ("rc", f"{code}\n")):
        with open(os.path.join(log_dir, f"{name}.{suffix}"), "w", encoding="utf-8") as fh:
            fh.write(text)


def digest(out_dir: str, seeds: list[int]) -> list[str]:
    """Run the chain for each seed in out_dir; the sorted "<sha256>  <path>" lines of every file."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from fraudring.cli import main

    os.makedirs(out_dir, exist_ok=True)
    if os.listdir(out_dir):
        raise SystemExit(f"cli_digest: {out_dir} is not empty")
    previous = os.getcwd()
    os.chdir(out_dir)
    try:
        for seed in seeds:
            log_dir = f"seed{seed}/logs"
            os.makedirs(log_dir)
            for name, config in (("synth_config", SYNTH_CONFIG), ("train_config", TRAIN_CONFIG)):
                with open(f"seed{seed}/{name}.json", "w", encoding="utf-8") as fh:
                    json.dump(config, fh)
            run(main, "synth", ["synth", "--out", f"seed{seed}/data", "--seed", str(seed)], log_dir)
            with open(f"seed{seed}/data/synth_manifest.json", encoding="utf-8") as fh:
                reference_time = str(json.load(fh)["reference_time"])
            write_messy_logs(f"seed{seed}/data", f"seed{seed}/messy_logs")
            for name, argv in chain(seed, reference_time):
                run(main, name, argv, log_dir)
        lines = []
        for folder, _, files in os.walk("."):
            for file in files:
                path = os.path.relpath(os.path.join(folder, file))
                if path != DIGEST_FILE:
                    with open(path, "rb") as fh:
                        lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
        return sorted(lines, key=lambda line: line.split("  ", 1)[1])
    finally:
        os.chdir(previous)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    lines = digest(argv[0], parse_seeds(argv[1] if len(argv) == 2 else "0"))
    with open(os.path.join(argv[0], DIGEST_FILE), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
