import importlib.util
import json
import pathlib
import subprocess

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
        {"name": "evaluate_s", "better": "lower"}, {"name": "f1_gbdt", "better": "higher"}]}), encoding="utf-8")
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
        assert {"wall_s", "cpu_s"} <= set(stats)
        assert len(record["seeds"]["3"]["runs"]) == 6
        assert "evaluate_s\t0.07 [0.07-0.07]\t0.05 [0.05-0.05]\t-28.6%\t3/3\tgain" in capsys.readouterr().out

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
