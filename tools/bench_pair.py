"""Paired benchmark runs: a base revision against the working tree, in alternating order.

    python3 tools/bench_pair.py --base REV --workload W --seed S [S ...] --pairs N
        [--trace 0|1] [--out FILE]

REV is extracted with `git archive` into .bench_build/<sha>/. For each seed,
perfbench/run.py then runs N times from that tree (the base) and N times from
the working tree (the head), each run 10 s long (BENCHMARK.json's
run_seconds) in a fresh process with one BLAS thread, in ABBA order: base
first in even pairs, head first in odd ones. A run's CPU seconds (its
process tree's user and system time) are recorded beside its metrics.

For each seed and metric the tool prints both sides' medians and quartiles
(numpy's linear interpolation), and the pairs the head won: lower is better
where BENCHMARK.json says so, or where it lists no direction and the unit is
not "1" or "1/s". The verdict is "gain" when the head won at least 9 in 10
of the pairs and its median beats the base's by more than the base's
interquartile range. Each metric that BENCHMARK.json gives a bound also
gets a no-regression verdict: "worse" when the head's median is worse than
the base's by more than bound x the base's median; else "unresolved" when
either side's interquartile range exceeds bound x its own median, unless
every head run beats every base run; else "within". --out writes the runs,
the statistics and a host note as JSON. A run that exits non-zero or reports
itself incorrect stops the tool with exit 1, before any file is written.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tarfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
RUN_SCRIPT = os.path.join("perfbench", "run.py")
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# a gain needs the head to win this share of the pairs
WIN_SHARE = 0.9
# each run's length, the run_seconds of BENCHMARK.json, the same on both sides
SECONDS = 10


class RunFailed(Exception):
    pass


def git(root: str, *args: str) -> bytes:
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True).stdout


def base_tree(root: str, rev: str) -> tuple[str, str]:
    """(sha, directory) of rev's files, extracted once into the build directory."""
    sha = git(root, "rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    tree = os.path.join(root, BUILD_DIR, sha)
    if not os.path.isdir(tree):
        partial = f"{tree}.partial"
        with tarfile.open(fileobj=io.BytesIO(git(root, "archive", "--format=tar", sha))) as tar:
            tar.extractall(partial, filter="data")
        os.rename(partial, tree)
    return sha, tree


def metric_specs(root: str) -> dict[str, dict]:
    """Each metric's entry in BENCHMARK.json: its better direction, and its bound if it has one."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def run_once(tree: str, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run from tree: its metrics {name: {"value", "unit"}}, wall and CPU seconds."""
    cmd = [sys.executable, RUN_SCRIPT, "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = os.times().elapsed
    proc = subprocess.run(cmd, cwd=tree, env={**os.environ, **ONE_THREAD}, capture_output=True, text=True)
    wall = os.times().elapsed - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0 or result.get("correct") is not True:
        raise RunFailed(f"{tree}: seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"metrics": result["metrics"], "wall_s": wall, "cpu_s": cpu}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def compare(base: list[float], head: list[float], lower_is_better: bool, bound: float | None = None) -> dict:
    """Both sides' quartiles, the pairs the head won, whether that makes a gain, and the verdict under bound."""
    sign = 1.0 if lower_is_better else -1.0
    b, h = quartiles(base), quartiles(head)
    wins = sum(sign * (x - y) > 0 for x, y in zip(base, head))
    gap = sign * (b["median"] - h["median"])
    verdict = None
    if bound is not None:
        spread = any(q["q3"] - q["q1"] > bound * abs(q["median"]) for q in (b, h))
        if -gap > bound * abs(b["median"]):
            verdict = "worse"
        elif spread and not min(sign * x for x in base) > max(sign * y for y in head):
            verdict = "unresolved"
        else:
            verdict = "within"
    return {
        "base": b,
        "head": h,
        "wins": wins,
        "gain": wins >= math.ceil(WIN_SHARE * len(base)) and gap > b["q3"] - b["q1"],
        "verdict": verdict,
    }


def lower_is_better(name: str, unit: str, specs: dict[str, dict]) -> bool:
    if name in specs:
        return specs[name]["better"] == "lower"
    return unit not in ("1", "1/s")


def summarize(runs: list[dict], specs: dict[str, dict]) -> dict:
    """Per-metric comparison of one seed's runs, in pair order, each {"side", "pair", "metrics", "wall_s", "cpu_s"}."""
    sides = {side: [r for r in runs if r["side"] == side] for side in ("base", "head")}
    units = {name: m["unit"] for name, m in sides["base"][0]["metrics"].items()}
    units.update(wall_s="s", cpu_s="s")
    out = {}
    for name, unit in units.items():
        values = {side: [r[name] if name in ("wall_s", "cpu_s") else r["metrics"][name]["value"] for r in rs]
                  for side, rs in sides.items()}
        bound = specs.get(name, {}).get("bound")
        out[name] = {"unit": unit, **compare(values["base"], values["head"], lower_is_better(name, unit, specs), bound)}
    return out


def print_table(seed: int, stats: dict, pairs: int) -> None:
    print(f"seed {seed}, {pairs} pairs: metric, base median [quartiles], head median [quartiles], change, head wins, "
          "verdict under the metric's bound")
    for name, s in stats.items():
        b, h = s["base"], s["head"]
        change = f"{h['median'] / b['median'] - 1:+.1%}" if b["median"] else "n/a"
        gain = "\tgain" if s["gain"] else ""
        print(f"  {name}\t{b['median']:.6g} [{b['q1']:.6g}-{b['q3']:.6g}]\t{h['median']:.6g} "
              f"[{h['q1']:.6g}-{h['q3']:.6g}]\t{change}\t{s['wins']}/{pairs}\t{s['verdict'] or '-'}{gain}")


def main(argv: list[str] | None = None, root: str = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision to compare the working tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="JSON file for the runs and statistics")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    sha, base = base_tree(root, args.base)
    head_sha = git(root, "rev-parse", "HEAD").decode().strip()
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no").strip())
    specs = metric_specs(root)
    record = {
        "base": {"rev": args.base, "sha": sha},
        "head": {"sha": head_sha, "uncommitted_changes": dirty},
        "workload": args.workload,
        "pairs": args.pairs,
        "trace": args.trace,
        "seconds": SECONDS,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
                 "loadavg_start": os.getloadavg()},
        "seeds": {},
    }
    for seed in args.seed:
        runs = []
        try:
            for pair in range(args.pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    run = run_once(base if side == "base" else root, args.workload, seed, args.trace)
                    runs.append({"side": side, "pair": pair, **run})
                    print(f"seed {seed} pair {pair} {side}: wall {run['wall_s']:.1f} s", file=sys.stderr)
        except RunFailed as e:
            print(f"bench_pair: run failed, nothing written: {e}", file=sys.stderr)
            return 1
        stats = summarize(runs, specs)
        print_table(seed, stats, args.pairs)
        record["seeds"][str(seed)] = {"metrics": stats, "runs": runs}
    record["host"]["loadavg_end"] = os.getloadavg()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
