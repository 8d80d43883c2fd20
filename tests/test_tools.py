import importlib.util
import pathlib

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
