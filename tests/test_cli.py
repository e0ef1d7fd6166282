"""Command-line behavior: the synth/train/eval/score chain, exit codes,
CSV helpers, and the reporting subcommands."""

import json
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from scatternet import engine, trainer
from scatternet.cli import main, read_prediction_csv, write_prediction_csv
from scatternet.engine import DataError
from scatternet.model import ModelConfig, build_model, parameter_count, tiny_config
from scatternet.pipeline import make_synthetic_dataset, synthetic_weight_matrix, write_dataset
from scatternet.trainer import Checkpoint


@pytest.fixture(autouse=True)
def _reset():
    engine.seed(0)
    yield


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds")
    recs = make_synthetic_dataset(16, 2, np.random.default_rng(42))
    write_dataset(path, recs, synthetic_weight_matrix(2))
    return path


@pytest.fixture(scope="module")
def train_cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text("preset=tiny\n"
                    "window=512\n"
                    "batch_size=8\n"
                    "power_prob=0\n"
                    "gauss_prob=0\n"
                    "drift_prob=0\n", encoding="utf-8")
    return path


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "scatternet.cli", *args],
                          capture_output=True, text=True, timeout=300)


class TestEndToEndChain:
    def test_synth_train_eval_score_agree(self, tmp_path, train_cfg_file):
        data = tmp_path / "data"
        ckpt = tmp_path / "model.ckpt"
        pred = tmp_path / "pred.csv"
        truth = tmp_path / "truth.csv"

        r = run_cli("synth", "--records", "24", "--classes", "3",
                    "--out", str(data), "--seed", "1")
        assert r.returncode == 0, r.stderr
        assert "wrote 24 records" in r.stdout
        assert (data / "classes.csv").is_file()

        r = run_cli("train", "--data", str(data), "--config", str(train_cfg_file),
                    "--epochs", "1", "--seed", "5", "--out", str(ckpt))
        assert r.returncode == 0, r.stderr
        assert "trained variant=baseline epochs=1" in r.stdout
        assert ckpt.is_file()

        r = run_cli("eval", "--ckpt", str(ckpt), "--data", str(data),
                    "--split", "val", "--pred-out", str(pred),
                    "--truth-out", str(truth))
        assert r.returncode == 0, r.stderr
        m = re.search(r"score=([0-9.]+)", r.stdout)
        assert m, r.stdout
        eval_score = m.group(1)

        r = run_cli("score", "--truth", str(truth), "--pred", str(pred),
                    "--weights", str(data / "classes.csv"))
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == eval_score


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["params", "--variant", "baseline", "--bogus"]) == 1

    def test_missing_dataset_is_data_error(self, capsys, tmp_path):
        assert main(["train", "--data", str(tmp_path / "absent")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_missing_checkpoint_is_data_error(self, capsys, tmp_path, dataset_dir):
        assert main(["eval", "--ckpt", str(tmp_path / "no.ckpt"),
                     "--data", str(dataset_dir)]) == 2

    def _assert_one_line_data_error(self, capsys, ckpt, dataset_dir):
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(dataset_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_short_checkpoint_header_is_data_error(self, capsys, tmp_path, dataset_dir):
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(trainer._MAGIC + b"\x00")  # 6 bytes, no manifest length
        self._assert_one_line_data_error(capsys, ckpt, dataset_dir)

    def test_checkpoint_without_index_is_data_error(self, capsys, tmp_path, dataset_dir):
        blob = json.dumps({"version": 1, "variant": "baseline"}).encode("utf-8")
        ckpt = tmp_path / "noindex.ckpt"
        ckpt.write_bytes(trainer._MAGIC + struct.pack("<Q", len(blob)) + blob)
        self._assert_one_line_data_error(capsys, ckpt, dataset_dir)

    @pytest.mark.parametrize("edit,problem", [
        (lambda m: m.pop("train_config"), "seed"),
        (lambda m: m["model"].update(bogus=1), "bogus"),
        (lambda m: m["train_config"].update(seed="x"), "seed"),
        (lambda m: m["train_config"].update(seed=True), "seed"),
        (lambda m: m.update(variant="hybrid"), "hybrid"),
        (lambda m: m.update(classes=["c00", 1]), "classes"),
    ], ids=["no-train-config", "unknown-model-key", "str-seed", "bool-seed",
            "unknown-variant", "non-str-class"])
    def test_invalid_manifest_is_data_error(self, capsys, tmp_path, dataset_dir,
                                            edit, problem):
        manifest = {"version": 1, "variant": "baseline",
                    "model": {"n_classes": 2, "window": 512},
                    "train_config": {"seed": 0}, "classes": ["c00", "c01"],
                    "epoch": 0, "best_score": 0.0, "adam_step": 0, "index": []}
        edit(manifest)
        blob = json.dumps(manifest).encode("utf-8")
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(trainer._MAGIC + struct.pack("<Q", len(blob)) + blob)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(dataset_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "corrupt manifest" in err and problem in err

    @pytest.mark.parametrize("field,value", [
        ("window", "x"), ("n_classes", 0), ("heads", True), ("fc_hidden", 2.5),
        ("dropout", 1.0), ("width_scale", 0), ("width_scale", float("inf")),
        ("pos_encoding", 1),
    ], ids=["str-window", "zero-classes", "bool-heads", "float-fc-hidden",
            "dropout-one", "zero-width-scale", "inf-width-scale", "int-pos-encoding"])
    def test_invalid_model_value_is_data_error(self, capsys, tmp_path, dataset_dir,
                                               field, value):
        manifest = {"version": 1, "variant": "baseline",
                    "model": {"n_classes": 2, "window": 512, field: value},
                    "train_config": {"seed": 0}, "classes": ["c00", "c01"],
                    "epoch": 0, "best_score": 0.0, "adam_step": 0, "index": []}
        blob = json.dumps(manifest).encode("utf-8")
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(trainer._MAGIC + struct.pack("<Q", len(blob)) + blob)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(dataset_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"model.{field}" in err

    def test_bad_config_value_is_usage_error(self, capsys, tmp_path, dataset_dir):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("lr=-1\n", encoding="utf-8")
        assert main(["train", "--data", str(dataset_dir),
                     "--config", str(cfg)]) == 1

    def test_bad_fft_len_is_usage_error(self, capsys):
        assert main(["doctor", "--fft-len", "96"]) == 1


class TestTrainCommand:
    def test_seed_env_overrides_flag(self, dataset_dir, train_cfg_file,
                                     tmp_path, capsys, monkeypatch):
        out = tmp_path / "m.ckpt"
        monkeypatch.setenv("SCATTERNET_SEED", "3")
        assert main(["train", "--data", str(dataset_dir),
                     "--config", str(train_cfg_file), "--epochs", "1",
                     "--seed", "7", "--out", str(out)]) == 0
        assert Checkpoint.load(out).manifest["train_config"]["seed"] == 3

    def test_seed_flag_without_env(self, dataset_dir, train_cfg_file,
                                   tmp_path, capsys, monkeypatch):
        out = tmp_path / "m.ckpt"
        monkeypatch.delenv("SCATTERNET_SEED", raising=False)
        assert main(["train", "--data", str(dataset_dir),
                     "--config", str(train_cfg_file), "--epochs", "1",
                     "--seed", "7", "--out", str(out)]) == 0
        assert Checkpoint.load(out).manifest["train_config"]["seed"] == 7

    def test_invalid_seed_env(self, dataset_dir, capsys, monkeypatch):
        monkeypatch.setenv("SCATTERNET_SEED", "lucky")
        assert main(["train", "--data", str(dataset_dir)]) == 1
        assert "SCATTERNET_SEED" in capsys.readouterr().err


class TestScoreCommand:
    def _write(self, path, ids, classes, values):
        write_prediction_csv(path, ids, classes, values)

    def test_perfect_predictions_score_one(self, tmp_path, capsys):
        wm_path = tmp_path / "classes.csv"
        from scatternet.loss import identity_weight_matrix, save_weight_matrix
        save_weight_matrix(wm_path, identity_weight_matrix(["a", "b"]))
        truth = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        self._write(tmp_path / "t.csv", ["r0", "r1", "r2"], ["a", "b"], truth)
        self._write(tmp_path / "p.csv", ["r0", "r1", "r2"], ["a", "b"], truth)
        assert main(["score", "--truth", str(tmp_path / "t.csv"),
                     "--pred", str(tmp_path / "p.csv"),
                     "--weights", str(wm_path)]) == 0
        assert capsys.readouterr().out.strip() == "1.000000000"

    def test_id_mismatch_is_data_error(self, tmp_path, capsys):
        wm_path = tmp_path / "classes.csv"
        from scatternet.loss import identity_weight_matrix, save_weight_matrix
        save_weight_matrix(wm_path, identity_weight_matrix(["a", "b"]))
        truth = np.array([[1.0, 0.0]])
        self._write(tmp_path / "t.csv", ["r0"], ["a", "b"], truth)
        self._write(tmp_path / "p.csv", ["r9"], ["a", "b"], truth)
        assert main(["score", "--truth", str(tmp_path / "t.csv"),
                     "--pred", str(tmp_path / "p.csv"),
                     "--weights", str(wm_path)]) == 2

    def test_class_mismatch_is_data_error(self, tmp_path, capsys):
        wm_path = tmp_path / "classes.csv"
        from scatternet.loss import identity_weight_matrix, save_weight_matrix
        save_weight_matrix(wm_path, identity_weight_matrix(["a", "b"]))
        truth = np.array([[1.0, 0.0]])
        self._write(tmp_path / "t.csv", ["r0"], ["a", "b"], truth)
        self._write(tmp_path / "p.csv", ["r0"], ["b", "a"], truth)
        assert main(["score", "--truth", str(tmp_path / "t.csv"),
                     "--pred", str(tmp_path / "p.csv"),
                     "--weights", str(wm_path)]) == 2


class TestParamsCommand:
    def test_baseline_total_and_reference(self, capsys):
        assert main(["params", "--variant", "baseline"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "533283"
        assert "214957" in out

    def test_scatter_total_and_reference(self, capsys):
        assert main(["params", "--variant", "scatter"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "431223"
        assert "166504" in out

    def test_table_lists_layers(self, capsys):
        assert main(["params", "--variant", "baseline", "--table"]) == 0
        out = capsys.readouterr().out
        assert "stem" in out
        assert out.strip().splitlines()[-2].startswith("total") or \
               "total" in out

    def test_tiny_preset_matches_build(self, capsys):
        assert main(["params", "--variant", "scatter", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        engine.seed(0)
        want = parameter_count(build_model(tiny_config(), "scatter"))
        assert out.splitlines()[0] == str(want)
        assert "published reference" not in out


class TestReportingCommands:
    def test_doctor_prints_report(self, capsys):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "neg_freq_energy_ratio: 0.065480382" in out
        assert "lipschitz_bound: 1.000000000" in out
        assert "fft_len: 256" in out

    def test_gradcheck_ops(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        m = re.search(r"ops max rel error: ([0-9.e+-]+)", out)
        assert m and float(m.group(1)) < 1e-4

    def test_synth_rejects_zero_records(self, capsys, tmp_path):
        assert main(["synth", "--records", "0", "--classes", "2",
                     "--out", str(tmp_path / "d")]) == 2


class TestPredictionCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.csv"
        values = np.array([[0.125, 1.0], [1e-9, 0.4999999999999999]])
        write_prediction_csv(path, ["r0", "r1"], ["a", "b"], values)
        ids, classes, loaded = read_prediction_csv(path)
        assert ids == ["r0", "r1"]
        assert classes == ["a", "b"]
        np.testing.assert_array_equal(loaded, values)  # repr survives exactly

    def test_headerless_rows_get_synthetic_ids(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("a,b\n0.5,0.25\n", encoding="utf-8")
        ids, classes, loaded = read_prediction_csv(path)
        assert classes == ["a", "b"]
        assert ids == ["0"]
        np.testing.assert_array_equal(loaded, [[0.5, 0.25]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_prediction_csv(tmp_path / "absent.csv")

    def test_header_only(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,a,b\n", encoding="utf-8")
        with pytest.raises(DataError, match="no data rows"):
            read_prediction_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,a,b\nr0,0.5\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected 2 values"):
            read_prediction_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,a,b\nr0,0.5,maybe\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 1"):
            read_prediction_csv(path)
