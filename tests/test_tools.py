import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

from fraudring.graph import load_graph

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_digest_is_reproducible(tmp_path):
    tool = load_tool()
    first = tool.digest(str(tmp_path / "a"), [0])
    second = tool.digest(str(tmp_path / "b"), [0])
    assert first == second
    paths = [line.split("  ", 1)[1] for line in first]
    assert paths == sorted(paths)
    names = ["synth"] + [name for name, _ in tool.chain(0, "0")]
    for name in names:
        for suffix in ("out", "err", "rc"):
            assert f"seed0/logs/{name}.{suffix}" in paths
        assert (tmp_path / "a" / "seed0" / "logs" / f"{name}.rc").read_text() == "0\n", name
    for written in ("seed0/built.tsv", "seed0/models/gnn.ckpt", "seed0/reports_tags/report.tsv", "seed0/graph.dot"):
        assert written in paths
    messy = (tmp_path / "a" / "seed0" / "messy_logs" / "logins.tsv").read_bytes()
    assert b"\r\n\r\n" in messy and b"\t+" in messy and b"\t " in messy
    built = tmp_path / "a" / "seed0" / "built.tsv"
    assert (tmp_path / "a" / "seed0" / "built_messy_logs.tsv").read_bytes() == built.read_bytes()
    # the account whose logins were dropped is an isolated node that keeps an embedding row
    loginless = tmp_path / "a" / "seed0" / "loginless"
    dropped = (loginless / "claims.tsv").read_text(encoding="utf-8").split("\t", 1)[0]
    assert f"\n{dropped}\t".encode() not in b"\n" + (loginless / "logins.tsv").read_bytes()
    graph = load_graph(str(loginless / "graph.tsv"))
    assert np.diff(graph.csr()[0])[graph.ids.index(dropped)] == 0
    embeddings = (tmp_path / "a" / "seed0" / "models_loginless" / "embeddings.tsv").read_text(encoding="utf-8")
    assert sum(line.startswith(f"{dropped}\t") for line in embeddings.splitlines()) == 1
    assert "seed0/reports_loginless/report.tsv" in paths
    # the hub run: HUB0 is one more device, logged into by HUB_ACCOUNTS claimants, in a graph of the same accounts
    hub = tmp_path / "a" / "seed0" / "hub"
    added = (hub / "logins.tsv").read_bytes()[len((tmp_path / "a" / "seed0" / "data" / "logins.tsv").read_bytes()):]
    assert added.count(b"\tHUB0\t") == added.count(b"\n") == tool.HUB_ACCOUNTS
    graph, plain = load_graph(str(hub / "graph.tsv")), load_graph(str(tmp_path / "a" / "seed0" / "built_no_prune.tsv"))
    assert np.diff(graph.csr()[0])[graph.ids.index("HUB0")] == tool.HUB_ACCOUNTS
    assert graph.num_nodes == plain.num_nodes + 1 and graph.edge_count == plain.edge_count + tool.HUB_ACCOUNTS
    assert "seed0/models_hub/embeddings.tsv" in paths and "seed0/reports_hub/report.tsv" in paths
    # one-step walks hold no window pair: the embeddings are the skip-gram's seeded start, d = 16
    rows = (tmp_path / "a" / "seed0" / "models_walk1" / "embeddings.tsv").read_text(encoding="utf-8").splitlines()
    vectors = np.array([[float(v) for v in row.split("\t")[1:]] for row in rows])
    assert vectors.tobytes() == np.random.default_rng(0).uniform(-0.5 / 16, 0.5 / 16, size=(len(rows), 16)).tobytes()
    assert "seed0/reports_walk1/report.tsv" in paths


def run_perfbench(*argv):
    """Run a perfbench script on one BLAS thread; its exit code and stdout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    script = TOOL.parent.parent / "perfbench" / argv[0]
    done = subprocess.run([sys.executable, str(script), *argv[1:]], env=env, capture_output=True, text=True)
    return done.returncode, done.stdout


def test_perfbench_selftest_and_makeup_run_on_the_package():
    """The traced round counts from the package's real results, and makeup pairs the walks biased_walks returns."""
    code, out = run_perfbench("selftest.py")
    assert code == 0, out
    assert "PASS" in out and "FAIL" not in out, out
    code, out = run_perfbench("makeup.py", "--workload", "desk-1x", "--seed", "0")
    assert code == 0, out
    heads = ["accounts ", "components ", "maximum degree ", "login lines ", "skip-gram pairs per epoch "]
    lines = out.splitlines()
    assert len(lines) == len(heads) and all(map(str.startswith, lines, heads)), out


def test_seed_lists_and_ranges():
    tool = load_tool()
    assert tool.parse_seeds("0-4") == [0, 1, 2, 3, 4]
    assert tool.parse_seeds("0,2,5-6") == [0, 2, 5, 6]


BENCH_PAIR = TOOL.parent / "bench_pair.py"
STUB_RUN = """import json, os, sys
seed, seconds = (sys.argv[sys.argv.index(flag) + 1] for flag in ("--seed", "--seconds"))
with open(os.environ["BENCH_PAIR_STUB_LOG"], "a") as fh:
    fh.write(f"{SIDE} {seed} {seconds}\\n")
if FAIL:
    sys.exit(1)
metrics = {"evaluate_s": {"value": EVALUATE_S, "unit": "s"}, "f1_gbdt": {"value": 0.6, "unit": "1"}}
print(f"evaluate_s\\t{EVALUATE_S}\\ts")
print(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}))
"""


def load_bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", BENCH_PAIR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_stub(root, side, evaluate_s, fail=False):
    (root / "perfbench").mkdir(exist_ok=True)
    head = f"SIDE = {side!r}\nEVALUATE_S = {evaluate_s!r}\nFAIL = {fail!r}\n"
    (root / "perfbench" / "run.py").write_text(head + STUB_RUN, encoding="utf-8")


def stub_repo(root, head_fails=False):
    """A git repository whose committed stub run.py is the base, and whose working tree's is the head."""
    root.mkdir()
    write_stub(root, "base", 0.07)
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "evaluate_s", "better": "lower", "bound": 0.25},
        {"name": "f1_gbdt", "better": "higher", "bound": 0.25}]}), encoding="utf-8")
    for args in (["init", "-q"], ["add", "-A"], ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "base"]):
        subprocess.run(["git", "-C", str(root), *args], check=True)
    write_stub(root, "head", 0.05, fail=head_fails)


class TestBenchPair:
    def test_statistics_and_verdict(self):
        tool = load_bench_pair()
        base = [1.0, 2.0, 3.0, 4.0, 5.0]
        got = tool.compare(base, [0.5, 1.5, 2.5, 3.5, 6.0], lower_is_better=True)
        assert got["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
        assert got["head"] == {"median": 2.5, "q1": 1.5, "q3": 3.5}
        # 4 of 5 wins, and a median gap of 0.5 inside the base's interquartile range of 2
        assert got["wins"] == 4 and not got["gain"]
        assert tool.compare(base, [b - 2.5 for b in base], lower_is_better=True)["gain"]
        # 9 of 10 wins is enough, 8 of 10 is not
        base = [10.0 + 0.1 * i for i in range(10)]
        nine = [b - 5.0 for b in base[:9]] + [99.0]
        assert tool.compare(base, nine, lower_is_better=True)["wins"] == 9
        assert tool.compare(base, nine, lower_is_better=True)["gain"]
        assert not tool.compare(base, nine[:8] + [99.0, 99.0], lower_is_better=True)["gain"]
        # higher is better for F1: the same numbers lose
        assert tool.compare(base, nine, lower_is_better=False)["wins"] == 1
        # no bound, no verdict
        assert tool.compare(base, nine, lower_is_better=True)["verdict"] is None

    def test_no_regression_verdict(self):
        tool = load_bench_pair()

        def verdict(base, head, lower_is_better=True):
            return tool.compare(base, head, lower_is_better, bound=0.25)["verdict"]

        tight = [1.0, 1.0, 1.0, 1.01, 1.01]
        # the head's median worse by more than bound x the base's median, either direction
        assert verdict(tight, [1.3] * 5) == "worse"
        assert verdict([0.8] * 5, [0.55] * 5, lower_is_better=False) == "worse"
        # worse comes first, however wide either side's spread
        assert verdict(tight, [1.0, 1.0, 1.3, 3.0, 3.0]) == "worse"
        # a median worse by less than the bound, both spreads inside it
        assert verdict(tight, [1.2] * 5) == "within"
        assert verdict([0.8] * 5, [0.65] * 5, lower_is_better=False) == "within"
        # the base's, or the head's, interquartile range above bound x its own median
        wide = [1.0, 1.0, 1.0, 1.5, 1.5]
        assert verdict(wide, tight) == "unresolved"
        assert verdict(tight, wide) == "unresolved"
        # unless every head run beats every base run
        assert verdict([2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 1.1, 1.2, 1.3, 1.9]) == "within"
        assert verdict([2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 1.1, 1.2, 1.3, 2.0]) == "unresolved"
        assert verdict([0.5, 0.6, 0.7, 0.8, 0.9], [0.95, 1.0, 1.1, 1.2, 1.3], lower_is_better=False) == "within"

    def test_pairs_alternate_and_the_record_is_written(self, tmp_path, monkeypatch, capsys):
        tool = load_bench_pair()
        root = tmp_path / "repo"
        stub_repo(root)
        log = tmp_path / "runs.log"
        monkeypatch.setenv("BENCH_PAIR_STUB_LOG", str(log))
        out = tmp_path / "bench.json"
        argv = ["--base", "HEAD", "--workload", "w", "--seed", "3", "8", "--pairs", "3", "--out", str(out)]
        assert tool.main(argv, root=str(root)) == 0
        assert log.read_text().split("\n") == [
            f"{side} {seed} 10" for seed in (3, 8) for side in ("base", "head", "head", "base", "base", "head")
        ] + [""]
        assert (root / ".bench_build").is_dir()
        record = json.loads(out.read_text())
        assert record["base"]["rev"] == "HEAD" and record["head"]["uncommitted_changes"]
        assert record["base"]["sha"] == record["head"]["sha"] and record["seconds"] == 10
        assert sorted(record["seeds"]) == ["3", "8"]
        stats = record["seeds"]["8"]["metrics"]
        assert stats["evaluate_s"]["base"] == {"median": 0.07, "q1": 0.07, "q3": 0.07}
        assert stats["evaluate_s"]["head"]["median"] == 0.05
        assert stats["evaluate_s"]["wins"] == 3 and stats["evaluate_s"]["gain"]
        assert stats["f1_gbdt"]["wins"] == 0 and not stats["f1_gbdt"]["gain"]
        assert stats["evaluate_s"]["verdict"] == stats["f1_gbdt"]["verdict"] == "within"
        assert {"wall_s", "cpu_s"} <= set(stats) and stats["wall_s"]["verdict"] is None
        assert len(record["seeds"]["3"]["runs"]) == 6
        assert "evaluate_s\t0.07 [0.07-0.07]\t0.05 [0.05-0.05]\t-28.6%\t3/3\twithin\tgain" in capsys.readouterr().out

    def test_a_failed_run_writes_nothing(self, tmp_path, monkeypatch, capsys):
        tool = load_bench_pair()
        root = tmp_path / "repo"
        stub_repo(root, head_fails=True)
        monkeypatch.setenv("BENCH_PAIR_STUB_LOG", str(tmp_path / "runs.log"))
        out = tmp_path / "bench.json"
        argv = ["--base", "HEAD", "--workload", "w", "--seed", "3", "--pairs", "2", "--out", str(out)]
        assert tool.main(argv, root=str(root)) == 1
        assert "run failed, nothing written" in capsys.readouterr().err
        assert not out.exists()
