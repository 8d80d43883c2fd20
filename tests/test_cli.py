import filecmp
import importlib
import inspect
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from fraudring import cli
from fraudring import train as train_module
from fraudring.baselines import node2vec
from fraudring.baselines.gbdt import GBDTConfig
from fraudring.baselines.node2vec import Node2vecConfig
from fraudring.cli import main
from fraudring.features import load_dataset, split_train_test
from fraudring.geniepath import check_shape
from fraudring.graph import (
    ClaimEvent,
    ClaimLog,
    LoginEvent,
    LoginLog,
    WindowConfig,
    build_graph,
    load_graph,
    save_claim_events,
    save_login_events,
)
from fraudring.baselines import gbdt
from fraudring.evaluation import save_pr_curves, save_report
from fraudring.train import TrainConfig
from reference import all_row_compare_models, all_row_scores, union_find_components
from util import make_dataset, make_graph

DAY = 86_400

SMALL_SYNTH = [
    "--n-regular", "40", "--n-rings", "2",
    "--ring-size-min", "4", "--ring-size-max", "4",
    "--devices-per-ring-min", "2", "--devices-per-ring-max", "3",
    "--regular-devices-min", "1", "--regular-devices-max", "2",
    "--family-share-prob", "0.3", "--tag-miss-rate", "0.25",
    "--feature-dim", "5", "--fraud-shift", "1.5", "--seed", "3",
]

FAST_TRAIN = {
    "gnn": ["--epochs", "5", "--hidden-dim", "4", "--layers", "1"],
    # a learning rate and leaf size at which the 27 kept accounts of SMALL_SYNTH give trees that split
    "gbdt": ["--trees", "10", "--max-depth", "3", "--gbdt-learning-rate", "0.3", "--min-samples-leaf", "2"],
    "node2vec-gbdt": [
        "--trees", "10", "--max-depth", "3", "--gbdt-learning-rate", "0.3", "--min-samples-leaf", "2",
        "--dimensions", "4",
        "--walk-length", "6", "--walks-per-node", "4", "--window", "2",
        "--n2v-epochs", "1",
    ],
}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    assert main(["synth", "--out", str(out)] + SMALL_SYNTH) == 0
    return out


@pytest.fixture(scope="module")
def models_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("cli-models")
    for model, flags in FAST_TRAIN.items():
        code = main(
            ["train", "--model", model, "--data", str(data_dir), "--out", str(out)] + flags
        )
        assert code == 0
    return out


@pytest.fixture(scope="module")
def scored_dir(tmp_path_factory):
    """A dataset, and models whose scores of its Test accounts are all distinct, in data/ and models/."""
    out = tmp_path_factory.mktemp("cli-scored")
    assert main(["synth", "--out", str(out / "data"), "--n-regular", "300", "--n-rings", "6", "--seed", "3"]) == 0
    boost = ["--trees", "20", "--max-depth", "3", "--gbdt-learning-rate", "0.3", "--min-samples-leaf", "2"]
    for model, flags in (
        ("gnn", ["--epochs", "5", "--hidden-dim", "4"]),
        ("gbdt", boost),
        ("node2vec-gbdt", boost + FAST_TRAIN["node2vec-gbdt"][8:]),
    ):
        assert main(["train", "--model", model, "--data", str(out / "data"), "--out", str(out / "models"), *flags]) == 0
    return out


def dir_snapshot(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


class TestSynth:
    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["synth", "--out", str(a)] + SMALL_SYNTH) == 0
        assert main(["synth", "--out", str(b)] + SMALL_SYNTH) == 0
        assert dir_snapshot(a) == dir_snapshot(b)

    def test_output_is_loadable_and_reported(self, data_dir, capsys):
        ds = load_dataset(str(data_dir))
        assert ds.graph.num_nodes > 0
        assert ds.truth is not None

    def test_missing_out_flag_is_usage_error(self, capsys):
        assert main(["synth", "--seed", "1"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_stdout_summary(self, tmp_path, capsys):
        out = tmp_path / "d"
        main(["synth", "--out", str(out)] + SMALL_SYNTH)
        text = capsys.readouterr().out
        assert f"wrote dataset to {out}" in text
        assert "accounts: 48" in text
        assert "8 fraud" in text
        assert "will be pruned" in text

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_fraud_shift_is_data_error_before_any_file(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["synth", "--out", str(out), f"--fraud-shift={value}"]) == 2
        assert "fraud_feature_shift must be finite" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_negative_seed_is_data_error_naming_the_seed(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["synth", "--out", str(out), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert os.listdir(out) == []
        assert main(["grad-check", "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err


class TestBuildGraph:
    def write_events(self, tmp_path):
        claims = [ClaimEvent("acct1", 950), ClaimEvent("acct2", 980), ClaimEvent("acct3", 999)]
        logins = [
            LoginEvent("acct1", "dev1", 900),
            LoginEvent("acct2", "dev1", 910),
            LoginEvent("acct3", "dev2", 920),
        ]
        cpath = tmp_path / "claims.tsv"
        lpath = tmp_path / "logins.tsv"
        save_claim_events(claims, str(cpath))
        save_login_events(logins, str(lpath))
        return cpath, lpath

    def test_counts_match_hand_fixture(self, tmp_path, capsys):
        cpath, lpath = self.write_events(tmp_path)
        out = tmp_path / "graph.tsv"
        code = main([
            "build-graph", "--claims", str(cpath), "--logins", str(lpath),
            "--reference-time", "1000", "--claim-window-days", "1",
            "--device-window-days", "2", "--out", str(out),
        ])
        assert code == 0
        # acct3+dev2 form a singleton component and are pruned
        assert "nodes: 3, edges: 2" in capsys.readouterr().out
        g = load_graph(str(out))
        assert g.num_nodes == 3
        assert sum(1 for _ in g.edges()) == 2

    def test_no_prune_keeps_singletons(self, tmp_path, capsys):
        cpath, lpath = self.write_events(tmp_path)
        out = tmp_path / "graph.tsv"
        code = main([
            "build-graph", "--claims", str(cpath), "--logins", str(lpath),
            "--reference-time", "1000", "--claim-window-days", "1",
            "--device-window-days", "2", "--no-prune", "--out", str(out),
        ])
        assert code == 0
        assert "nodes: 5, edges: 3 (pruning skipped)" in capsys.readouterr().out
        assert load_graph(str(out)).num_nodes == 5

    def test_empty_logs_warn_but_succeed(self, tmp_path, capsys):
        cpath = tmp_path / "claims.tsv"
        lpath = tmp_path / "logins.tsv"
        cpath.write_text("", encoding="utf-8")
        lpath.write_text("", encoding="utf-8")
        out = tmp_path / "graph.tsv"
        code = main([
            "build-graph", "--claims", str(cpath), "--logins", str(lpath),
            "--reference-time", "1000", "--out", str(out),
        ])
        assert code == 0
        assert "warning: no in-window events" in capsys.readouterr().err
        assert load_graph(str(out)).num_nodes == 0

    def test_empty_claim_id_is_data_error_before_writing(self, tmp_path, capsys):
        cpath, lpath = self.write_events(tmp_path)
        with open(cpath, "a", encoding="utf-8") as fh:
            fh.write("\t999\n")
        out = tmp_path / "graph.tsv"
        code = main([
            "build-graph", "--claims", str(cpath), "--logins", str(lpath),
            "--reference-time", "1000", "--out", str(out),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{cpath}:4: empty account id" in captured.err
        assert not out.exists()

    def test_dropped_component_count_matches_oracle(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        claims = [ClaimEvent(f"a{i}", 900 + i) for i in range(40)]
        logins = [
            LoginEvent(f"a{i}", f"d{j}", 900 + j)
            for i in range(40)
            for j in range(40)
            if rng.random() < 0.03
        ]
        cpath, lpath = tmp_path / "claims.tsv", tmp_path / "logins.tsv"
        save_claim_events(claims, str(cpath))
        save_login_events(logins, str(lpath))
        g = build_graph(
            ClaimLog.from_events(claims), LoginLog.from_events(logins), WindowConfig(reference_time=1000)
        )
        comps = union_find_components(g.num_nodes, list(g.edges()))
        dropped = [c for c in comps if sum(g.is_account[i] for i in c) < 2]
        assert len(dropped) > 5
        code = main([
            "build-graph", "--claims", str(cpath), "--logins", str(lpath),
            "--reference-time", "1000", "--out", str(tmp_path / "graph.tsv"),
        ])
        assert code == 0
        n_nodes = sum(len(c) for c in dropped)
        assert f"(pruned {len(dropped)} singleton components, {n_nodes} nodes)" in capsys.readouterr().out

    def test_timestamp_outside_int64_is_data_error_before_writing(self, tmp_path, capsys):
        cpath, lpath = self.write_events(tmp_path)
        with open(lpath, "a", encoding="utf-8") as fh:
            fh.write(f"acct1\tdev3\t{2**63}\n")
        out = tmp_path / "graph.tsv"
        code = main([
            "build-graph", "--claims", str(cpath), "--logins", str(lpath),
            "--reference-time", "1000", "--out", str(out),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{lpath}:4: timestamp '{2**63}' is outside the int64 range" in captured.err
        assert not out.exists()

    def test_noisy_logs_build_the_clean_graph(self, data_dir, tmp_path, capsys):
        # Noise in the style of the benchmark's metro workload: repeats of clean
        # pairs after every clean login, logins and claims just outside their
        # half-open windows, and ghost accounts and devices, all shuffled in.
        with open(data_dir / "synth_manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        window = WindowConfig(manifest["reference_time"], manifest["claim_window_days"], manifest["device_window_days"])
        ref = window.reference_time
        claims = (data_dir / "claims.tsv").read_text(encoding="utf-8").splitlines()
        logins = (data_dir / "logins.tsv").read_text(encoding="utf-8").splitlines()
        pairs = [line.rsplit("\t", 1)[0] for line in logins]
        accounts = [line.split("\t")[0] for line in claims]
        devices = sorted({pair.split("\t")[1] for pair in pairs})
        last_clean = max(int(line.rsplit("\t", 1)[1]) for line in logins)
        rng = np.random.default_rng(31)

        def outside(start, n):
            return [start - 1, ref] + [
                int(t) for t in np.where(rng.random(n) < 0.5, start - 1 - rng.integers(0, 9 * DAY, n),
                                         ref + rng.integers(0, 9 * DAY, n))
            ]

        def pick(values, n):
            return [values[i] for i in rng.integers(0, len(values), n)]

        noisy_logins = logins + [
            f"{p}\t{t}" for p, t in zip(pick(pairs, 4 * len(pairs)), rng.integers(last_clean + 1, ref, 4 * len(pairs)))
        ]
        n = len(pairs) // 2
        noisy_logins += [
            f"{a}\t{d}\t{t}" for a, d, t in zip(pick(accounts, n + 2), pick(devices, n + 2), outside(window.device_start, n))
        ]
        noisy_claims = claims + [f"{a}\t{t}" for a, t in zip(pick(accounts, n + 2), outside(window.claim_start, n))]
        ghosts = [f"AG{i}" for i in range(10)]
        ghost_devices = [f"DG{i}" for i in range(5)]
        noisy_claims += [f"{g}\t{t}" for g, t in zip(ghosts[:5], outside(window.claim_start, 3))]
        noisy_logins += [
            f"{g}\t{d}\t{t}"
            for g, d, t in zip(pick(ghosts, n), pick(devices + ghost_devices, n),
                               rng.integers(window.device_start, ref, n))
        ]
        noisy_logins += [
            f"{a}\t{d}\t{t}" for a, d, t in zip(pick(accounts, n + 2), pick(ghost_devices, n + 2),
                                                 outside(window.device_start, n))
        ]
        for name, lines in (("claims", noisy_claims), ("logins", noisy_logins)):
            shuffled = [lines[i] for i in rng.permutation(len(lines))]
            (tmp_path / f"{name}.tsv").write_text("\n".join(shuffled) + "\n", encoding="utf-8")

        outputs = []
        for source in (data_dir, tmp_path):
            out = tmp_path / f"graph{len(outputs)}.tsv"
            code = main([
                "build-graph", "--claims", str(source / "claims.tsv"), "--logins", str(source / "logins.tsv"),
                "--reference-time", str(ref), "--out", str(out),
            ])
            assert code == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert len(noisy_logins) > 5 * len(logins)
        assert outputs[0] == outputs[1]

    def test_train_on_built_graph_needs_no_prune_for_synth_features(self, data_dir, tmp_path, capsys):
        # The default output holds only kept accounts, so synth's features.tsv
        # (every account) no longer matches it; --no-prune keeps every account.
        for flags, want in (([], 2), (["--no-prune"], 0)):
            built = tmp_path / f"built{len(flags)}"
            built.mkdir()
            shutil.copy(data_dir / "features.tsv", built / "features.tsv")
            code = main([
                "build-graph", "--claims", str(data_dir / "claims.tsv"),
                "--logins", str(data_dir / "logins.tsv"),
                "--reference-time", "1700000000", "--out", str(built / "graph.tsv"),
            ] + flags)
            assert code == 0
            capsys.readouterr()
            code = main(
                ["train", "--model", "gbdt", "--data", str(built), "--out", str(tmp_path / "m")]
                + FAST_TRAIN["gbdt"]
            )
            assert code == want
            err = capsys.readouterr().err
            assert ("unknown account id" in err) == bool(want)

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code = main([
            "build-graph", "--claims", str(tmp_path / "nope.tsv"),
            "--logins", str(tmp_path / "nope2.tsv"),
            "--reference-time", "1000", "--out", str(tmp_path / "g.tsv"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_gnn_writes_checkpoint_and_report(self, data_dir, tmp_path, capsys):
        out = tmp_path / "gnn"
        code = main(
            ["train", "--model", "gnn", "--data", str(data_dir), "--out", str(out)]
            + FAST_TRAIN["gnn"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "training gnn: 5 epochs" in text
        assert "loss: " in text and " -> " in text
        assert (out / "gnn.ckpt").exists()
        assert (out / "train_report.tsv").exists()
        report_lines = (out / "train_report.tsv").read_text(encoding="utf-8").splitlines()
        assert report_lines[0] == "epoch\tloss\tn_sampled_neg"
        assert len(report_lines) == 6

    def test_gnn_training_is_deterministic(self, data_dir, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        argv = ["train", "--model", "gnn", "--data", str(data_dir)] + FAST_TRAIN["gnn"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert filecmp.cmp(a / "gnn.ckpt", b / "gnn.ckpt", shallow=False)

    def test_gnn_checkpoint_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # Synth's default size at the default width: the GNN's products over
        # candidates and nodes have thousands of rows, past the size at which
        # OpenBLAS splits a product between threads.
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data)]) == 0
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        run = "import sys; from fraudring.cli import main; sys.exit(main(sys.argv[1:]))"
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
            argv = ["train", "--model", "gnn", "--data", str(data), "--out", str(tmp_path / threads), "--epochs", "20"]
            done = subprocess.run([sys.executable, "-c", run, *argv], env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
        assert (tmp_path / "1" / "gnn.ckpt").read_bytes() == (tmp_path / "2" / "gnn.ckpt").read_bytes()

    def test_gbdt_echoes_configuration(self, data_dir, tmp_path, capsys):
        out = tmp_path / "gbdt"
        code = main(
            ["train", "--model", "gbdt", "--data", str(data_dir), "--out", str(out), "--trees", "10", "--max-depth", "3"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert (
            "gbdt configuration: 10 trees, max depth 3, row sampling rate 0.6, "
            "feature sampling rate 0.7, learning rate 0.009" in text
        )
        assert (out / "gbdt.model").exists()

    def test_node2vec_writes_embeddings_and_model(self, data_dir, tmp_path):
        out = tmp_path / "n2v"
        code = main(
            ["train", "--model", "node2vec-gbdt", "--data", str(data_dir), "--out", str(out)]
            + FAST_TRAIN["node2vec-gbdt"]
        )
        assert code == 0
        assert (out / "node2vec_gbdt.model").exists()
        assert (out / "embeddings.tsv").exists()

    @pytest.mark.parametrize(
        "model, flag, value, message",
        [
            ("node2vec-gbdt", "--step-size", "nan", "step_size must be finite and > 0"),
            ("node2vec-gbdt", "--return-param", "nan", "return_param must be finite and > 0"),
            ("node2vec-gbdt", "--return-param", "1e-320", "return_param must have a finite reciprocal"),
            ("gbdt", "--gbdt-learning-rate", "nan", "learning_rate must be finite and > 0"),
        ],
    )
    def test_non_finite_hyperparameter_is_data_error(self, data_dir, tmp_path, capsys, model, flag, value, message):
        out = tmp_path / "models"
        code = main(
            ["train", "--model", model, "--data", str(data_dir), "--out", str(out)]
            + FAST_TRAIN[model] + [flag, value]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)

    def test_walk_weights_whose_sum_overflows_train(self, data_dir, tmp_path):
        # 1/p and 1/q are finite, though a degree-3 node's weights [1e308, 5e307, 5e307] sum to inf
        out = tmp_path / "models"
        code = main(
            ["train", "--model", "node2vec-gbdt", "--data", str(data_dir), "--out", str(out),
             "--return-param", "1e-308", "--inout-param", "2e-308"] + FAST_TRAIN["node2vec-gbdt"]
        )
        assert code == 0
        assert (out / "embeddings.tsv").exists() and (out / "node2vec_gbdt.model").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_diverging_skip_gram_is_numerical_error(self, data_dir, tmp_path, capsys):
        # Adam steps of 1e300 overflow the embedding tables within two steps.
        out = tmp_path / "models"
        code = main(
            ["train", "--model", "node2vec-gbdt", "--data", str(data_dir), "--out", str(out),
             "--step-size", "1e300"] + FAST_TRAIN["node2vec-gbdt"]
        )
        assert code == 3
        assert "numerical failure: non-finite skip-gram" in capsys.readouterr().err
        assert not (out / "embeddings.tsv").exists()
        assert not (out / "node2vec_gbdt.model").exists()

    def test_non_finite_feature_is_data_error(self, data_dir, models_dir, tmp_path, capsys):
        bad = tmp_path / "bad-data"
        shutil.copytree(data_dir, bad)
        path = bad / "features.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[6].split("\t")
        fields[3] = "nan"
        lines[6] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        runs = [
            ["train", "--model", model, "--data", str(bad), "--out", str(tmp_path / model)]
            for model in ("gnn", "gbdt")
        ]
        runs.append(["evaluate", "--data", str(bad), "--models", str(models_dir), "--out", str(tmp_path / "eval")])
        for argv in runs:
            assert main(argv) == 2, argv
            assert f"{path}:7: non-finite feature value" in capsys.readouterr().err
        assert not (tmp_path / "gbdt" / "gbdt.model").exists()

    @pytest.mark.parametrize("model", sorted(FAST_TRAIN))
    def test_negative_rate_that_draws_no_negatives_fails_before_training(
        self, data_dir, tmp_path, capsys, monkeypatch, model
    ):
        for module, name in ((train_module, "forward"), (node2vec, "biased_walks"), (cli, "gbdt_fit")):
            monkeypatch.setattr(module, name, lambda *args, **kwargs: pytest.fail("training started"))
        ds = cli._prepare_dataset(str(data_dir), {"no_prune": False, "test_fraction": 0.3, "split_seed": 0})
        pool = np.count_nonzero(~ds.is_test & ~ds.high_risk)
        out = tmp_path / "models"
        code = main(
            ["train", "--model", model, "--data", str(data_dir), "--out", str(out), "--negative-rate", "0.001"]
            + FAST_TRAIN[model]
        )
        assert code == 2
        assert f"error: negative rate 0.001 draws no negatives from {pool} untagged Train accounts" in capsys.readouterr().err
        assert not os.listdir(out)

    def test_unknown_model_is_usage_error(self, data_dir, tmp_path, capsys):
        code = main(
            ["train", "--model", "svm", "--data", str(data_dir), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err


EXTREMES = {int: (0, -1, 2**63), float: (0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324)}
NUMERIC_TRAIN_ROWS = [row for row in cli._rows("train") if row.type in EXTREMES]
# two tagged and two untagged accounts, which any valid test fraction splits
SPLITTABLE = make_dataset(make_graph("AAAA", []), np.zeros((4, 1)), high_risk=[True, True, False, False])


# the train options no config class owns: the check each meets, and the name its message gives it
UNOWNED = {
    "hidden_dim": (lambda v: check_shape(v, 1), "hidden_dim"),
    "layers": (lambda v: check_shape(1, v), "n_layers"),
    "test_fraction": (lambda v: split_train_test(SPLITTABLE, v, 0), "test_fraction"),
    "split_seed": (lambda v: split_train_test(SPLITTABLE, 0.3, v), "seed"),
}


def owner_rejects(row, value):
    """Whether the config class, or for an unowned option the function, that the option feeds rejects value."""
    check = UNOWNED[row.key][0] if row.owner is None else (lambda v: row.owner(**{row.field: v}))
    try:
        check(value)
    except ValueError:
        return True
    return False


class TestTrainOptionChecks:
    @pytest.mark.parametrize("row", NUMERIC_TRAIN_ROWS, ids=[row.key for row in NUMERIC_TRAIN_ROWS])
    def test_a_value_its_owner_rejects_exits_2_under_every_model(self, data_dir, tmp_path, capsys, monkeypatch, row):
        for module, name in ((train_module, "forward"), (node2vec, "biased_walks"), (cli, "gbdt_fit")):
            monkeypatch.setattr(module, name, lambda *args, **kwargs: pytest.fail("training started"))
        if row.key not in ("test_fraction", "split_seed"):  # split_train_test checks these, after the load
            monkeypatch.setattr(cli, "load_dataset", lambda *args: pytest.fail("data loaded before the checks"))
        name = row.field if row.owner is not None else UNOWNED[row.key][1]
        rejected = [value for value in EXTREMES[row.type] if owner_rejects(row, value)]
        assert rejected
        out = tmp_path / "models"
        for value in rejected:
            for model in sorted(FAST_TRAIN):
                # --flag=value, so that argparse reads -inf as a value
                argv = ["train", "--model", model, "--data", str(data_dir), "--out", str(out), f"{row.flag}={value}"]
                assert main(argv) == 2, (model, value)
                err = capsys.readouterr().err
                assert err.startswith("error: ") and name in err, (model, value, err)
                assert not out.exists()


class TestEvaluate:
    def test_full_report_with_all_models(self, data_dir, models_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--data", str(data_dir), "--models", str(models_dir),
            "--out", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        lines = [ln for ln in text.splitlines() if ln]
        assert lines[0] == "model\tthreshold\tprecision\trecall\tf1\tde"
        assert [ln.split("\t")[0] for ln in lines[1:4]] == ["gnn", "gbdt", "node2vec-gbdt"]
        assert (out / "report.tsv").exists()
        assert (out / "pr_curves.tsv").exists()
        saved = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert len(saved) == 4
        for name in ("gbdt.model", "node2vec_gbdt.model"):
            assert any(line.startswith("split ") for line in (models_dir / name).read_text(encoding="utf-8").split("\n"))
        curves = (out / "pr_curves.tsv").read_text(encoding="utf-8").splitlines()[1:]
        for model in ("gnn", "gbdt", "node2vec-gbdt"):
            assert sum(line.split("\t")[0] == model for line in curves) >= 2, model

    @pytest.mark.parametrize("labels", ["tags", "ground-truth"])
    def test_reports_equal_the_all_row_oracle(self, scored_dir, tmp_path, monkeypatch, capsys, labels):
        data, models = scored_dir / "data", scored_dir / "models"
        # blocks of 7 rows, so the Test rows and the whole dataset are cut into different blocks
        monkeypatch.setattr(gbdt, "BLOCK_CELLS", 7 * len(gbdt.load_gbdt(str(models / cli.GBDT_MODEL_FILE)).roots))
        out = tmp_path / "eval"
        argv = ["evaluate", "--data", str(data), "--models", str(models), "--out", str(out), "--labels", labels]
        assert main(argv) == 0
        ds = cli._prepare_dataset(str(data), {"no_prune": False, "test_fraction": 0.3, "split_seed": 0})
        files = (cli.GNN_CHECKPOINT_FILE, cli.GBDT_MODEL_FILE, cli.N2V_MODEL_FILE, cli.EMBEDDINGS_FILE)
        all_scores = all_row_scores(ds, *(str(models / name) for name in files))
        for scores in all_scores.values():
            assert len(np.unique(scores[ds.is_test])) == np.count_nonzero(ds.is_test) < len(scores)
        report = all_row_compare_models(ds, all_scores, labels)
        save_report(report, str(tmp_path / cli.REPORT_FILE))
        save_pr_curves(report, str(tmp_path / cli.PR_CURVES_FILE))
        for name in (cli.REPORT_FILE, cli.PR_CURVES_FILE):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_missing_model_warns_and_omits(self, data_dir, models_dir, tmp_path, capsys):
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "gbdt.model").write_bytes((models_dir / "gbdt.model").read_bytes())
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--data", str(data_dir), "--models", str(partial),
            "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "omitting gnn" in captured.err
        assert "omitting node2vec-gbdt" in captured.err
        rows = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 2 and rows[1].startswith("gbdt\t")

    def test_no_model_is_data_error(self, data_dir, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--data", str(data_dir), "--models", str(empty), "--out", str(out),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.count("warning:") == 3
        assert f"error: no trained model in {empty}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("key, text", [("base_score", "base_score nan"), ("leaf", "leaf inf"), ("n_trees", "n_trees -1")])
    def test_non_finite_or_negative_model_value_is_data_error(self, data_dir, models_dir, tmp_path, capsys, key, text):
        partial = tmp_path / "bad-model"
        partial.mkdir()
        lines = (models_dir / "gbdt.model").read_text(encoding="utf-8").splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(f"{key} "))
        lines[i] = text
        (partial / "gbdt.model").write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "eval"
        code = main(["evaluate", "--data", str(data_dir), "--models", str(partial), "--out", str(out)])
        assert code == 2
        assert f"error: {partial / 'gbdt.model'}:{i + 1}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("labels", ["tags", "ground-truth"])
    def test_test_split_without_a_positive_fails_before_any_model_loads(
        self, data_dir, models_dir, tmp_path, capsys, monkeypatch, labels
    ):
        for name in ("load_params", "load_gbdt", "load_embeddings"):
            monkeypatch.setattr(cli, name, lambda *args: pytest.fail("a model was loaded"))
        ds = cli._prepare_dataset(str(data_dir), {"no_prune": False, "test_fraction": 0.3, "split_seed": 0})
        positives = np.count_nonzero(ds.high_risk)
        # floor(size * fraction) Test accounts per tag: none at all, then only untagged ones
        for fraction, n_test in ((0.5 / len(ds.high_risk), 0), (1.0 / (len(ds.high_risk) - positives), 1)):
            assert positives * fraction < 1
            out = tmp_path / "reports"
            code = main(["evaluate", "--data", str(data_dir), "--models", str(models_dir), "--out", str(out),
                         "--labels", labels, "--test-fraction", str(fraction)])
            assert code == 2
            err = capsys.readouterr().err
            assert f"error: test_fraction {fraction} gives a Test split of {n_test} accounts, 0 positive" in err
            assert f"under --labels {labels}" in err
            assert not out.exists()

    def test_ground_truth_labels_add_audit_line(self, data_dir, models_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--data", str(data_dir), "--models", str(models_dir),
            "--out", str(out), "--labels", "ground-truth",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "audit: rule tags disagree with ground truth on" in text

    def test_feature_width_mismatch_is_data_error(self, models_dir, tmp_path, capsys):
        other = tmp_path / "other-data"
        code = main(["synth", "--out", str(other)] + SMALL_SYNTH[:-4] + ["--feature-dim", "6", "--seed", "3"])
        assert code == 0
        capsys.readouterr()
        # All three models present: the gnn checkpoint trips first.
        code = main([
            "evaluate", "--data", str(other), "--models", str(models_dir),
            "--out", str(tmp_path / "eval"),
        ])
        assert code == 2
        assert "does not match" in capsys.readouterr().err
        # With only the gbdt model the width check names its expectation.
        partial = tmp_path / "gbdt-only"
        partial.mkdir()
        (partial / "gbdt.model").write_bytes((models_dir / "gbdt.model").read_bytes())
        code = main([
            "evaluate", "--data", str(other), "--models", str(partial),
            "--out", str(tmp_path / "eval2"),
        ])
        assert code == 2
        assert "expects 5 features, dataset has 6" in capsys.readouterr().err


    def test_account_without_a_login_is_an_isolated_node_end_to_end(self, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("claims.tsv", "logins.tsv", "features.tsv", "ground_truth.tsv"):
            shutil.copy(data_dir / name, data / name)
        with open(data_dir / "synth_manifest.json", encoding="utf-8") as fh:
            ref = json.load(fh)["reference_time"]
        features = (data / "features.tsv").read_text(encoding="utf-8").splitlines()
        values = features[1].split("\t", 2)[2]
        for name, row in (("claims.tsv", f"LONER\t{ref - DAY}"), ("features.tsv", f"LONER\tNO_OBSERVABLE_RISK\t{values}"),
                          ("ground_truth.tsv", "LONER\t0")):
            with open(data / name, "a", encoding="utf-8") as fh:
                fh.write(row + "\n")
        codes = [main(["build-graph", "--claims", str(data / "claims.tsv"), "--logins", str(data / "logins.tsv"),
                       "--reference-time", str(ref), "--out", str(data / "graph.tsv"), "--no-prune"])]
        models = tmp_path / "models"
        for model, flags in FAST_TRAIN.items():
            codes.append(main(["train", "--model", model, "--data", str(data), "--out", str(models), "--no-prune"]
                              + flags))
        out = tmp_path / "eval"
        codes.append(main(["evaluate", "--data", str(data), "--models", str(models), "--out", str(out), "--no-prune"]))
        assert codes == [0] * 5, capsys.readouterr().err
        g = load_graph(str(data / "graph.tsv"))
        assert np.diff(g.csr()[0])[g.ids.index("LONER")] == 0
        embeddings = (models / "embeddings.tsv").read_text(encoding="utf-8").splitlines()
        assert sum(line.startswith("LONER\t") for line in embeddings) == 1
        assert len((out / "report.tsv").read_text(encoding="utf-8").splitlines()[1:]) == 3

    def test_account_id_equal_to_a_device_umid_keeps_its_embedding(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        accounts = ["x", "y", "z", "w", "v", "u"]
        save_claim_events([ClaimEvent(a, 950) for a in accounts], str(data / "claims.tsv"))
        save_login_events(
            [LoginEvent(a, "x" if a in "xyzw" else "q", 900) for a in accounts], str(data / "logins.tsv")
        )
        assert main([
            "build-graph", "--claims", str(data / "claims.tsv"), "--logins", str(data / "logins.tsv"),
            "--reference-time", "1000", "--out", str(data / "graph.tsv"),
        ]) == 0
        rows = [f"{a}\t{'HIGH_RISK' if a in 'xyz' else 'NO_OBSERVABLE_RISK'}\t{i}" for i, a in enumerate(accounts)]
        (data / "features.tsv").write_text("account_id\ttag\tf0\n" + "\n".join(rows) + "\n", encoding="utf-8")
        models = tmp_path / "models"
        assert main([
            "train", "--model", "node2vec-gbdt", "--data", str(data), "--out", str(models), "--trees", "5",
            "--test-fraction", "0.4", "--negative-rate", "1", "--min-samples-leaf", "1",
        ]) == 0
        code = main([
            "evaluate", "--data", str(data), "--models", str(models), "--out", str(tmp_path / "eval"),
            "--test-fraction", "0.4",
        ])
        assert code == 0, capsys.readouterr().err


class TestGradCheck:
    def test_passes_at_default_settings(self, capsys):
        assert main(["grad-check"]) == 0
        text = capsys.readouterr().out
        assert "max relative gradient error:" in text
        assert "(12 nodes, hidden dim 4, 2 layers, eps 1e-05)" in text

    def test_corrupted_gradient_fails_with_exit_3(self, capsys):
        assert main(["grad-check", "--corrupt", "ws"]) == 3
        captured = capsys.readouterr()
        assert "FAILED: exceeds 0.0001" in captured.err

    def test_coarser_epsilon_still_passes(self, capsys):
        assert main(["grad-check", "--eps", "1e-3"]) == 0
        assert "eps 0.001" in capsys.readouterr().out

    def test_seed_4_passes_and_its_corruption_fails(self, capsys):
        # Subtracting two rounded loss totals read 1.544e-04 here.
        assert main(["grad-check", "--seed", "4"]) == 0
        assert main(["grad-check", "--seed", "4", "--corrupt", "ws"]) == 3

    @pytest.mark.parametrize("eps", ["nan", "0", "-1e-05", "inf"])
    def test_eps_that_is_not_finite_and_positive_exits_2(self, capsys, eps):
        assert main(["grad-check", f"--eps={eps}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: eps must be finite and > 0, got {float(eps)!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("nodes", ["0", "-1", "7"])
    def test_fewer_than_8_nodes_exits_2(self, monkeypatch, capsys, nodes):
        monkeypatch.setattr(cli, "generate", lambda config: pytest.fail("the fixture was built"))
        assert main(["grad-check", f"--nodes={nodes}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: nodes must be >= 8, got {int(nodes)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("nodes, built", [("8", 8), ("9", 8), ("13", 12)])
    def test_nodes_round_down_to_even_from_8(self, capsys, nodes, built):
        assert main(["grad-check", "--nodes", nodes]) == 0
        assert f"({built} nodes, hidden dim 4, 2 layers, eps 1e-05)" in capsys.readouterr().out

    def test_nan_error_fails_with_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "gradient_check", lambda *args, **kwargs: float("nan"))
        assert main(["grad-check"]) == 3
        captured = capsys.readouterr()
        assert "max relative gradient error: nan" in captured.out
        assert captured.err == "FAILED: exceeds 0.0001\n"


class TestExportDot:
    def test_writes_dot_with_highlights(self, data_dir, tmp_path, capsys):
        out = tmp_path / "graph.dot"
        code = main([
            "export-dot", "--graph", str(data_dir / "graph.tsv"),
            "--features", str(data_dir / "features.tsv"), "--out", str(out),
        ])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("graph ")
        assert "shape=box" in text and "shape=ellipse" in text
        assert 'fillcolor="red"' in text

    def test_plain_export_has_no_highlight(self, data_dir, tmp_path):
        out = tmp_path / "plain.dot"
        code = main(["export-dot", "--graph", str(data_dir / "graph.tsv"), "--out", str(out)])
        assert code == 0
        assert "fillcolor" not in out.read_text(encoding="utf-8")

    def test_id_with_a_unicode_line_separator_survives_build_and_export(self, tmp_path, capsys):
        cpath, lpath = tmp_path / "claims.tsv", tmp_path / "logins.tsv"
        save_claim_events([ClaimEvent("a\u2028b", 950), ClaimEvent("c", 960)], str(cpath))
        save_login_events([LoginEvent("a\u2028b", "d", 900), LoginEvent("c", "d", 910)], str(lpath))
        graph = tmp_path / "graph.tsv"
        assert main([
            "build-graph", "--claims", str(cpath), "--logins", str(lpath),
            "--reference-time", "1000", "--out", str(graph),
        ]) == 0
        assert main(["export-dot", "--graph", str(graph), "--out", str(tmp_path / "g.dot")]) == 0
        text = (tmp_path / "g.dot").read_text(encoding="utf-8")
        assert 'n0 [label="a\u2028b", shape=box];' in text
        assert "n0 -- n2;" in text

    def test_account_and_device_with_one_id_stay_two_nodes(self, tmp_path, capsys):
        cpath, lpath = tmp_path / "claims.tsv", tmp_path / "logins.tsv"
        save_claim_events([ClaimEvent("x", 950), ClaimEvent("y", 960)], str(cpath))
        save_login_events([LoginEvent("x", "x", 900), LoginEvent("y", "x", 910)], str(lpath))
        graph = tmp_path / "graph.tsv"
        assert main([
            "build-graph", "--claims", str(cpath), "--logins", str(lpath),
            "--reference-time", "1000", "--out", str(graph),
        ]) == 0
        assert main(["export-dot", "--graph", str(graph), "--out", str(tmp_path / "g.dot")]) == 0
        lines = (tmp_path / "g.dot").read_text(encoding="utf-8").splitlines()
        assert lines[1:-1] == [
            '  n0 [label="x", shape=box];',
            '  n1 [label="y", shape=box];',
            '  n2 [label="x", shape=ellipse];',
            "  n0 -- n2;",
            "  n1 -- n2;",
        ]


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_regular": 30, "n_rings": 1, "feature_dim": 5}), encoding="utf-8")
        out = tmp_path / "data"
        code = main([
            "synth", "--out", str(out), "--config", str(cfg),
            "--n-rings", "2", "--ring-size-min", "4", "--ring-size-max", "4",
        ])
        assert code == 0
        # 30 regular from config + 2 rings of 4 from the flag override
        assert "accounts: 38" in capsys.readouterr().out

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_regula": 30}), encoding="utf-8")
        code = main(["synth", "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 1
        assert "unknown keys ['n_regula']" in capsys.readouterr().err

    def test_invalid_json_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken", encoding="utf-8")
        code = main(["synth", "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "absent.json"
        code = main(["synth", "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: --config {cfg}: [Errno 2] No such file or directory: '{cfg}'\n"
        assert not (tmp_path / "x").exists()

    def test_config_file_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff{}")
        code = main(["synth", "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --config {cfg}: 'utf-8' codec can't decode byte 0xff"), err
        assert not (tmp_path / "x").exists()

    def test_train_accepts_shared_config(self, data_dir, tmp_path, capsys):
        # One config file may carry keys for several train branches.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"epochs": 4, "trees": 10, "dimensions": 4, "hidden_dim": 4, "layers": 1}),
            encoding="utf-8",
        )
        out = tmp_path / "gnn"
        code = main([
            "train", "--model", "gnn", "--data", str(data_dir),
            "--out", str(out), "--config", str(cfg),
        ])
        assert code == 0
        assert "training gnn: 4 epochs" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"epochs": True}, "epochs: expected int, got bool"),
            ({"epochs": 2.5}, "epochs: expected int, got float"),
            ({"hidden_dim": True}, "hidden_dim: expected int, got bool"),
            ({"test_fraction": "0.3"}, "test_fraction: expected float, got str"),
        ],
    )
    def test_config_value_of_the_wrong_type_is_usage_error(self, data_dir, tmp_path, capsys, entry, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry), encoding="utf-8")
        out = tmp_path / "gnn"
        code = main([
            "train", "--model", "gnn", "--data", str(data_dir), "--out", str(out), "--config", str(cfg),
        ] + FAST_TRAIN["gnn"])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: --config {cfg}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["5", "null", '["epochs"]'])
    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "gnn"
        code = main([
            "train", "--model", "gnn", "--data", str(tmp_path / "data"), "--out", str(out), "--config", str(cfg),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: --config {cfg}: expected a JSON object\n"
        assert not out.exists()

    def test_config_choice_is_checked_as_the_flag_is(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": "foo"}), encoding="utf-8")
        out = tmp_path / "gnn"
        train = ["train", "--model", "gnn", "--data", str(data_dir), "--out", str(out)] + FAST_TRAIN["gnn"]
        assert main(train + ["--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"usage error: --config {cfg}: optimizer: invalid choice 'foo' (choose from 'adam', 'sgd')\n"
        )
        assert main(train + ["--optimizer", "foo"]) == 1
        assert "invalid choice: 'foo'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_int_stands_for_a_float(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_regular": 30, "fraud_shift": 2}), encoding="utf-8")
        code = main(["synth", "--out", str(tmp_path / "data"), "--config", str(cfg)])
        assert code == 0
        assert "accounts: 190" in capsys.readouterr().out


def required(command, base):
    """The arguments a command needs besides its options; none of the paths is read."""
    return {
        "synth": ["--out", f"{base}/data"],
        "build-graph": ["--claims", f"{base}/c.tsv", "--logins", f"{base}/l.tsv", "--reference-time", "0",
                        "--out", f"{base}/g.tsv"],
        "train": ["--model", "gnn", "--data", f"{base}/data", "--out", f"{base}/models"],
        "evaluate": ["--data", f"{base}/data", "--models", f"{base}/models", "--out", f"{base}/reports"],
        "grad-check": [],
    }[command]


COMMANDS = ["synth", "build-graph", "train", "evaluate", "grad-check"]
COMMAND_ROWS = [(command, row) for command in COMMANDS for row in cli._rows(command)]
COMMAND_ROW_IDS = [f"{command}-{row.key}" for command, row in COMMAND_ROWS]
FIELDS_GIVEN = {WindowConfig: {"reference_time": 0}}


def option_value(config, row):
    """The option's value as the config field it feeds holds it."""
    value = getattr(config, row.field)
    if row.key == "no_resample":
        return not value
    if row.key == "optimizer":
        return value.value
    if row.field.endswith("_range"):
        return value[1 if row.key.endswith("_max") else 0]
    return value


def given_values(command):
    """A value of its own for each option of the command, other than its default, that its config accepts."""
    values = {}
    for i, row in enumerate(cli._rows(command)):
        default = cli._default(row)
        if row.type is bool:
            values[row.key] = True
        elif row.choices:
            values[row.key] = next(c for c in row.choices if c != default)
        elif row.type is int:
            values[row.key] = default + 1 + i  # each --*-max row follows its --*-min row, so max stays >= min
        else:
            values[row.key] = default / (2 + i)
    return values


def beaten_values(command, values):
    """For each option, a value unlike the given one, for a --config file that the flags must override."""
    beaten = {}
    for row in cli._rows(command):
        value = values[row.key]
        if row.type is bool:
            beaten[row.key] = not value
        elif row.choices:
            beaten[row.key] = next(c for c in row.choices if c != value)
        else:
            beaten[row.key] = value * 3
    return beaten


def flag_argv(command, values):
    argv = []
    for row in cli._rows(command):
        argv += [row.flag] if row.type is bool else [row.flag, str(values[row.key])]
    return argv


def resolve(command, argv, base):
    """The resolved options of a command line, and each config class built from them."""
    args = cli.build_parser().parse_args([command, *required(command, base), *argv])
    opt = cli._resolve(args, command)
    owners = {row.owner for row in cli._rows(command) if row.owner is not None}
    return opt, {owner: cli._make(owner, command, opt, **FIELDS_GIVEN.get(owner, {})) for owner in owners}


def assert_reached(command, opt, configs, values):
    for row in cli._rows(command):
        assert opt[row.key] == values[row.key], row.key
        if row.owner is not None:
            assert option_value(configs[row.owner], row) == values[row.key], row.key


class TestOptionTable:
    @pytest.mark.parametrize("command, row", COMMAND_ROWS, ids=COMMAND_ROW_IDS)
    def test_default_reaches_field(self, tmp_path, command, row):
        opt, configs = resolve(command, [], tmp_path)
        if row.owner is None:
            assert opt[row.key] == row.default
        else:
            default = row.owner(**FIELDS_GIVEN.get(row.owner, {}))
            assert getattr(configs[row.owner], row.field) == getattr(default, row.field)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_flags_reach_fields(self, tmp_path, command):
        values = given_values(command)
        assert_reached(command, *resolve(command, flag_argv(command, values), tmp_path), values)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_file_values_reach_fields(self, tmp_path, command):
        values = given_values(command)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values), encoding="utf-8")
        assert_reached(command, *resolve(command, ["--config", str(cfg)], tmp_path), values)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_flag_beats_file(self, tmp_path, command):
        values = given_values(command)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(beaten_values(command, values)), encoding="utf-8")
        argv = ["--config", str(cfg), *flag_argv(command, values)]
        assert_reached(command, *resolve(command, argv, tmp_path), values)

    @pytest.mark.parametrize("command, row", COMMAND_ROWS, ids=COMMAND_ROW_IDS)
    def test_file_value_of_the_wrong_type_is_usage_error(self, tmp_path, capsys, command, row):
        wrong = 1 if row.type in (bool, str) else "1"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({row.key: wrong}), encoding="utf-8")
        assert main([command, *required(command, tmp_path), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"usage error: --config {cfg}: {row.key}: expected {row.type.__name__}, got {type(wrong).__name__}\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_perfbench_mappings_follow_the_dataclasses(self):
        gnn, gbdt, n2v = TrainConfig(), GBDTConfig(), Node2vecConfig()
        assert cli.GNN_DEFAULTS == {
            "seed": gnn.seed, "epochs": gnn.epochs, "learning_rate": gnn.learning_rate,
            "hidden_dim": 16, "layers": 2, "negative_rate": gnn.negative_sample_rate,
            "optimizer": gnn.optimizer.value, "no_resample": not gnn.resample_each_epoch,
        }
        assert cli.GBDT_DEFAULTS == {
            "trees": gbdt.n_trees, "max_depth": gbdt.max_depth, "row_sample": gbdt.row_sample_rate,
            "feature_sample": gbdt.feature_sample_rate, "gbdt_learning_rate": gbdt.learning_rate,
            "min_samples_leaf": gbdt.min_samples_leaf,
        }
        assert cli.N2V_DEFAULTS == {
            "dimensions": n2v.dimensions, "walk_length": n2v.walk_length, "walks_per_node": n2v.walks_per_node,
            "window": n2v.window, "return_param": n2v.return_param, "inout_param": n2v.inout_param,
            "negative_samples": n2v.negative_samples, "n2v_epochs": n2v.epochs, "step_size": n2v.step_size,
        }

    def test_perfbench_names_of_the_package_resolve(self):
        """Every function perfbench wraps (tracing.TRACED) or calls (makeup.py) is a function of its module."""
        path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
        tracing = types.ModuleType("perfbench_tracing")
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing.__dict__)
        called = [
            ("fraudring.graph", "prune_singletons"),
            ("fraudring.graph", "connected_components"),
            ("fraudring.baselines.node2vec", "biased_walks"),
            ("fraudring.baselines.node2vec", "_walk_pairs"),
        ]
        assert tracing.TRACED
        for module, name in [(module, name) for module, name, _ in tracing.TRACED] + called:
            assert inspect.isfunction(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"

    def test_readme_defaults_table_matches_the_options(self):
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("Built-in defaults:\n\n", 1)[1].split("\n\n", 1)[0]
        documented = []
        for scope, key, default in re.findall(r"^\| ([^|]+) \| `(\w+)`[^|]* \| ([^|]+) \|$", table, re.M):
            try:
                default = json.loads(default)
            except ValueError:
                pass
            documented.append((re.sub(r" \([^)]*\)", "", scope), key, default))
        assert len(documented) == len(table.split("\n")) - 2
        assert sorted(documented, key=repr) == sorted(
            (("/".join(row.commands), row.key, cli._default(row)) for row in cli.OPTIONS), key=repr
        )


class TestParserReuse:
    def test_main_twice_with_different_commands_carries_nothing_over(self, data_dir, tmp_path, capsys):
        models = tmp_path / "models"
        train = ["train", "--model", "gbdt", "--data", str(data_dir), "--out", str(models), "--trees", "2"]
        assert main([*train, "--max-depth", "2", "--seed", "4"]) == 0
        assert main(["export-dot", "--graph", str(data_dir / "graph.tsv"), "--out", str(tmp_path / "g.dot")]) == 0
        first = capsys.readouterr().out
        assert main(train) == 0
        second = capsys.readouterr().out
        assert "2 trees, max depth 2," in first and "2 trees, max depth 5," in second
        assert main(["synth", "--seed", "1"]) == 1
        assert "required: --out" in capsys.readouterr().err
        assert cli.build_parser() is cli.build_parser()

    def test_help_is_the_same_on_every_call(self, capsys):
        texts = []
        for _ in range(2):
            for command in ([], ["train"], ["evaluate"]):
                with pytest.raises(SystemExit) as done:
                    main([*command, "--help"])
                assert done.value.code == 0
                texts.append(capsys.readouterr().out)
        assert texts[:3] == texts[3:] and "--max-depth" in texts[1]
