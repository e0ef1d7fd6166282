"""Command-line behavior: the synth/train/eval/score chain, exit codes,
CSV helpers, and the reporting subcommands."""

import json
import re
import struct
import subprocess
import sys
import weakref

import numpy as np
import pytest

from scatternet import cli, engine, trainer
from scatternet.cli import main, read_prediction_csv, write_prediction_csv
from scatternet.engine import DataError
from scatternet.loss import (discrete_challenge_score, identity_weight_matrix,
                             merged_class_table, predict, save_weight_matrix)
from scatternet.model import ModelConfig, build_model, parameter_count, tiny_config
from scatternet.pipeline import (filter_and_split, make_synthetic_dataset,
                                 synthetic_weight_matrix, write_dataset)
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

    def test_manifest_named_after_another_record_is_data_error(self, capsys, tmp_path):
        write_dataset(tmp_path, make_synthetic_dataset(2, 2, np.random.default_rng(42)),
                      synthetic_weight_matrix(2))
        (tmp_path / "zzz.json").write_bytes((tmp_path / "syn0000.json").read_bytes())
        assert main(["train", "--data", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "zzz.json" in err

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

    def test_misshapen_buffer_is_data_error(self, capsys, tmp_path, dataset_dir):
        mcfg = ModelConfig(n_leads=12, n_classes=2, window=512, heads=2,
                           width_scale=0.25, fc_hidden=8, dropout=0.0)
        model = build_model(mcfg, "baseline")
        buffers = [(n, np.zeros(5) if n == "stem_bn.running_mean" else b)
                   for n, b in model.named_buffers()]
        ckpt = tmp_path / "buffer.ckpt"
        Checkpoint.from_state(
            "baseline", mcfg, trainer.TrainConfig(), ("c00", "c01"), epoch=0,
            best_score=0.0, params=[(n, p.data) for n, p in model.named_parameters()],
            buffers=buffers, moments=[], adam_t=0).save(ckpt)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(dataset_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "buffer:stem_bn.running_mean" in err

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


class TestTrainOverrides:
    def test_file_then_flags_then_env(self, dataset_dir, train_cfg_file, capsys,
                                      monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "train", lambda cfg: seen.append(cfg) or Checkpoint(
            manifest={"best_score": 0.0}, arrays={}))
        monkeypatch.setenv("SCATTERNET_SEED", "5")
        assert main(["train", "--data", str(dataset_dir), "--config", str(train_cfg_file),
                     "--batch-size", "2", "--epochs", "3", "--seed", "4",
                     "--variant", "scatter", "--verbose"]) == 0
        (cfg,) = seen
        assert (cfg.window, cfg.preset, cfg.power_prob) == (512, "tiny", 0.0)  # file
        assert (cfg.batch_size, cfg.max_epochs, cfg.variant) == (2, 3, "scatter")
        assert cfg.verbose is True and cfg.data == str(dataset_dir)
        assert cfg.seed == 5 and cfg.weights == "" and cfg.out == ""


class TestTrainConfigErrors:
    def test_nan_lr_in_config_file_is_one_line_usage_error(self, capsys, tmp_path,
                                                           dataset_dir):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("lr = nan\n", encoding="utf-8")
        assert main(["train", "--data", str(dataset_dir), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lr must be finite") and err.count("\n") == 1


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


class TestThresholdFlag:
    """--threshold outside (0, 1) is a usage error found while parsing,
    before any file is read."""

    @pytest.mark.parametrize("value", ["1.5", "0", "nan"])
    def test_eval_rejects_before_reading_checkpoint(self, capsys, tmp_path, value):
        assert main(["eval", "--ckpt", str(tmp_path / "missing.ckpt"),
                     "--data", str(tmp_path / "absent"), "--threshold", value]) == 1
        err = capsys.readouterr().err
        assert "--threshold" in err and "cannot read checkpoint" not in err

    @pytest.mark.parametrize("value", ["1.5", "0", "nan"])
    def test_score_rejects_before_reading_csvs(self, capsys, tmp_path, value):
        missing = str(tmp_path / "missing.csv")
        assert main(["score", "--truth", missing, "--pred", missing,
                     "--weights", missing, "--threshold", value]) == 1
        err = capsys.readouterr().err
        assert "--threshold" in err and "cannot read" not in err


class TestWindowConfig:
    def _train(self, tmp_path, dataset_dir, window):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(f"preset=tiny\nwindow={window}\nbatch_size=8\n"
                       "power_prob=0\ngauss_prob=0\ndrift_prob=0\n", encoding="utf-8")
        return main(["train", "--data", str(dataset_dir), "--config", str(cfg),
                     "--epochs", "1"])

    def test_window_below_min_is_one_line_config_error(self, capsys, tmp_path,
                                                        dataset_dir):
        assert self._train(tmp_path, dataset_dir, 448) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: window must be") and err.count("\n") == 1

    def test_min_window_trains(self, capsys, tmp_path, dataset_dir):
        assert self._train(tmp_path, dataset_dir, 449) == 0
        assert "trained variant=baseline epochs=1" in capsys.readouterr().out


class TestOutputPaths:
    """An output path that cannot be written ends in exit 2 with one line."""

    @pytest.fixture(scope="class")
    def ckpt(self, tmp_path_factory):
        mcfg = ModelConfig(n_leads=12, n_classes=2, window=512, heads=2,
                           width_scale=0.25, fc_hidden=8, dropout=0.0)
        model = build_model(mcfg, "baseline")
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        Checkpoint.from_state(
            "baseline", mcfg, trainer.TrainConfig(), ("c00", "c01"), epoch=0,
            best_score=0.0, params=[(n, p.data) for n, p in model.named_parameters()],
            buffers=model.named_buffers(), moments=[], adam_t=0).save(path)
        return path

    def _assert_cannot_write(self, capsys, code, path):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}") and err.count("\n") == 1

    def _eval(self, ckpt, dataset_dir, *flags):
        return main(["eval", "--ckpt", str(ckpt), "--data", str(dataset_dir), *flags])

    def test_train_out_directory_rejected_before_reading_data(self, capsys, tmp_path):
        # the dataset does not exist: the error shows --out was checked first
        code = main(["train", "--data", str(tmp_path / "absent"), "--out", str(tmp_path)])
        self._assert_cannot_write(capsys, code, tmp_path)

    def test_eval_pred_out_in_missing_directory(self, capsys, tmp_path, dataset_dir,
                                                ckpt):
        pred = tmp_path / "missing" / "p.csv"
        self._assert_cannot_write(
            capsys, self._eval(ckpt, dataset_dir, "--pred-out", str(pred)), pred)
        assert list(tmp_path.iterdir()) == []

    def test_eval_truth_out_directory(self, capsys, tmp_path, dataset_dir, ckpt):
        target = tmp_path / "d"
        target.mkdir()
        self._assert_cannot_write(
            capsys, self._eval(ckpt, dataset_dir, "--truth-out", str(target)), target)
        # the temporary file beside the target is gone, the directory stays
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    def test_eval_writes_predictions_atomically(self, tmp_path, dataset_dir, ckpt):
        pred = tmp_path / "p.csv"
        assert self._eval(ckpt, dataset_dir, "--pred-out", str(pred)) == 0
        assert list(tmp_path.iterdir()) == [pred]
        ids, classes, values = read_prediction_csv(pred)
        assert classes == ["c00", "c01"] and values.shape == (len(ids), 2)

    def test_synth_out_existing_file(self, capsys, tmp_path):
        target = tmp_path / "f"
        target.write_text("keep", encoding="utf-8")
        code = main(["synth", "--records", "2", "--classes", "2", "--out", str(target)])
        self._assert_cannot_write(capsys, code, target)
        assert target.read_text(encoding="utf-8") == "keep"


def _write_manifest(path, manifest):
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(trainer._MAGIC + struct.pack("<Q", len(blob)) + blob)
    return path


def _assert_one_line_error(capsys, code, want_code, *parts):
    assert code == want_code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(p in err for p in parts), err


class TestCheckpointManifestShape:
    """Each model value of these manifests passes its own rule, or the
    manifest is not shaped like one at all: eval exits 2 with one line."""

    def _manifest(self, variant="baseline", **model):
        return {"version": 1, "variant": variant,
                "model": {"n_classes": 2, "window": 512, **model},
                "train_config": {"seed": 0}, "classes": ["c00", "c01"],
                "epoch": 0, "best_score": 0.0, "adam_step": 0, "index": []}

    def _eval(self, ckpt, dataset_dir):
        return main(["eval", "--ckpt", str(ckpt), "--data", str(dataset_dir)])

    @pytest.mark.parametrize("variant,model,problem", [
        ("baseline", {"heads": 5}, "divisible by heads"),
        ("scatter", {"width_scale": 0.3}, "out = 2*in"),
    ], ids=["heads-5", "scatter-width-scale-0.3"])
    def test_model_that_cannot_be_built(self, capsys, tmp_path, dataset_dir, variant,
                                        model, problem):
        ckpt = _write_manifest(tmp_path / "bad.ckpt", self._manifest(variant, **model))
        _assert_one_line_error(capsys, self._eval(ckpt, dataset_dir), 2,
                               "checkpoint", problem)

    def test_manifest_that_is_a_list(self, capsys, tmp_path, dataset_dir):
        ckpt = _write_manifest(tmp_path / "bad.ckpt", [self._manifest()])
        _assert_one_line_error(capsys, self._eval(ckpt, dataset_dir), 2,
                               "not a JSON object")

    @pytest.mark.parametrize("model", [[1, 2], "tiny", None])
    def test_model_that_is_not_an_object(self, capsys, tmp_path, dataset_dir, model):
        manifest = self._manifest()
        manifest["model"] = model
        ckpt = _write_manifest(tmp_path / "bad.ckpt", manifest)
        _assert_one_line_error(capsys, self._eval(ckpt, dataset_dir), 2,
                               "model is not an object")


class TestNonFiniteCsv:
    """A non-finite cell in the weight matrix, truth or prediction CSV is a
    data error naming the file and the row (exit 2, one line)."""

    def _files(self, tmp_path):
        wm = tmp_path / "classes.csv"
        save_weight_matrix(wm, identity_weight_matrix(["a", "b"]))
        write_prediction_csv(tmp_path / "t.csv", ["r0", "r1"], ["a", "b"],
                             np.array([[1.0, 0.0], [0.0, 1.0]]))
        write_prediction_csv(tmp_path / "p.csv", ["r0", "r1"], ["a", "b"],
                             np.array([[0.9, 0.1], [0.2, 0.8]]))
        return wm

    @pytest.mark.parametrize("name,row,cells", [
        ("classes.csv", 1, "a,inf,0.0"), ("classes.csv", 2, "b,-inf,1.0"),
        ("t.csv", 1, "r0,nan,0.0"), ("p.csv", 1, "r0,nan,0.1"),
        ("p.csv", 2, "r1,0.2,inf"),
    ], ids=["weights-inf-diagonal", "weights-minus-inf", "truth-nan", "pred-nan",
            "pred-inf"])
    def test_score_rejects(self, capsys, tmp_path, name, row, cells):
        wm = self._files(tmp_path)
        path = tmp_path / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[row] = cells
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["score", "--truth", str(tmp_path / "t.csv"),
                     "--pred", str(tmp_path / "p.csv"), "--weights", str(wm)])
        _assert_one_line_error(capsys, code, 2, name, f"row {row}", "finite")

    def test_train_rejects_before_training(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_dataset(data, make_synthetic_dataset(4, 2, np.random.default_rng(44)),
                      synthetic_weight_matrix(2))
        wm = data / "classes.csv"
        wm.write_text(wm.read_text(encoding="utf-8").replace("1.0", "inf", 1),
                      encoding="utf-8")
        code = main(["train", "--data", str(data), "--epochs", "1"])
        _assert_one_line_error(capsys, code, 2, "classes.csv", "row 1", "finite")


class TestTrainWeightsOverride:
    def test_trains_on_the_override_classes_and_logs_each_epoch(
            self, capsys, tmp_path, train_cfg_file):
        data = tmp_path / "data"
        write_dataset(data, make_synthetic_dataset(24, 4, np.random.default_rng(45)),
                      synthetic_weight_matrix(4))
        weights = tmp_path / "w.csv"
        save_weight_matrix(weights, identity_weight_matrix(["c00", "c01"]))
        out = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(data), "--weights", str(weights),
                     "--config", str(train_cfg_file), "--epochs", "2", "--verbose",
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("epoch ") for line in lines) == 2
        manifest = Checkpoint.load(out).manifest
        assert manifest["classes"] == ["c00", "c01"]
        assert manifest["model"]["n_classes"] == 2


class TestGradcheckFull:
    def test_model_check_passes(self, capsys):
        assert main(["gradcheck", "--full"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck batchnorm_eval" in out
        m = re.search(r"tiny scatter model max rel error: ([0-9.e+-]+)", out)
        assert m and float(m.group(1)) < 1e-3


class TestRecordLengthCap:
    def test_train_on_a_record_over_an_hour_exits_2(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_dataset(data, make_synthetic_dataset(12, 2, np.random.default_rng(46)),
                      synthetic_weight_matrix(2))
        for path in data.glob("*.json"):
            manifest = json.loads(path.read_text(encoding="utf-8"))
            manifest["fs"] = 1e-300
            path.write_text(json.dumps(manifest), encoding="utf-8")
        code = main(["train", "--data", str(data), "--epochs", "1"])
        _assert_one_line_error(capsys, code, 2, "record syn", "3600 s limit")


class TestEvalHoldsOnlyItsSplit:
    @pytest.mark.parametrize("split", ["val", "train"])
    def test_records_outside_the_split_are_dead_during_eval(self, split, tmp_path,
                                                            monkeypatch, capsys):
        data = tmp_path / "data"
        recs = make_synthetic_dataset(24, 2, np.random.default_rng(47))
        write_dataset(data, recs, synthetic_weight_matrix(2))
        ckpt = tmp_path / "m.ckpt"
        trainer.train(trainer.TrainConfig(data=str(data), out=str(ckpt), preset="tiny",
                                          window=512, batch_size=8, max_steps=1,
                                          max_epochs=1, seed=2))
        merged, _ = merged_class_table(synthetic_weight_matrix(2))
        chosen = {r.id for r in filter_and_split(recs, merged, seed=2)[split]}
        del recs
        refs = {}
        load, evaluate = cli.load_dataset, cli.evaluate_model

        def recording_load(path):
            records, wm = load(path)
            refs.update((r.id, weakref.ref(r.signal)) for r in records)
            return records, wm

        alive = {}

        def checking_evaluate(*args, **kwargs):
            alive.update((rid, ref() is not None) for rid, ref in refs.items())
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(cli, "load_dataset", recording_load)
        monkeypatch.setattr(cli, "evaluate_model", checking_evaluate)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--split", split]) == 0
        assert len(alive) == 24 and chosen
        assert {rid for rid, a in alive.items() if a} == chosen


class TestDoctorFftLenBound:
    @pytest.mark.parametrize("fft_len", [str(2 ** 17), "100000000000"])
    def test_too_long_exits_1_with_one_line(self, fft_len, capsys):
        _assert_one_line_error(capsys, main(["doctor", "--fft-len", fft_len]), 1,
                               "fft_len must be in [64, 65536]")

    def test_longest_accepted(self, capsys):
        assert main(["doctor", "--fft-len", str(2 ** 16)]) == 0
        assert "fft_len: 65536" in capsys.readouterr().out


class TestModelRuleManifests:
    """A manifest with any value ModelConfig rejects ends in exit 2 and one
    line naming the field."""

    @pytest.mark.parametrize("field,value", [
        ("n_leads", 0), ("n_classes", -1), ("window", 2.5), ("heads", 0),
        ("dropout", 1.0), ("aux_features", True), ("fc_hidden", "8"),
        ("width_scale", "nan"), ("pos_encoding", 1)])
    def test_each_field(self, capsys, tmp_path, dataset_dir, field, value):
        manifest = {"version": 1, "variant": "scatter",
                    "model": {"n_classes": 2, "window": 512, field: value},
                    "train_config": {"seed": 0}, "classes": ["c00", "c01"],
                    "epoch": 0, "best_score": 0.0, "adam_step": 0, "index": []}
        ckpt = _write_manifest(tmp_path / "bad.ckpt", manifest)
        code = main(["eval", "--ckpt", str(ckpt), "--data", str(dataset_dir)])
        _assert_one_line_error(capsys, code, 2, "corrupt manifest", f"model.{field}")


class TestNumericalAbortOneLine:
    def test_overflowing_weights_exit_3_with_one_line(self, tmp_path, dataset_dir):
        # 1e308 is finite as float64 and overflows float32, numpy's warnings
        # included
        weights = tmp_path / "classes.csv"
        weights.write_text(",c00,c01\nc00,1e308,0.0\nc01,0.0,1e308\n", encoding="utf-8")
        result = run_cli("train", "--data", str(dataset_dir), "--preset", "tiny",
                         "--epochs", "1", "--batch-size", "4", "--weights", str(weights))
        assert result.returncode == 3, result.stderr
        assert result.stderr == "error: non-finite loss at epoch 0 batch 0 lr 0.003\n"


class TestScorePaths:
    def _files(self, tmp_path, csv_classes, probs):
        wm_path = tmp_path / "classes.csv"
        save_weight_matrix(wm_path, identity_weight_matrix(["a", "b"]))
        truth = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        ids = ["r0", "r1", "r2", "r3"]
        write_prediction_csv(tmp_path / "t.csv", ids, csv_classes, truth)
        write_prediction_csv(tmp_path / "p.csv", ids, csv_classes, probs)
        return truth, ["--truth", str(tmp_path / "t.csv"), "--pred",
                       str(tmp_path / "p.csv"), "--weights", str(wm_path)]

    def test_threshold_is_applied(self, tmp_path, capsys):
        probs = np.array([[0.4, 0.2], [0.35, 0.6], [0.45, 0.31], [0.1, 0.2]])
        truth, files = self._files(tmp_path, ["a", "b"], probs)
        merged, _ = merged_class_table(identity_weight_matrix(["a", "b"]))
        at = {th: discrete_challenge_score(truth, predict(probs, th), merged)
              for th in (0.3, 0.5)}
        assert at[0.3] != at[0.5]
        assert main(["score", *files, "--threshold", "0.3"]) == 0
        assert capsys.readouterr().out == f"{at[0.3]:.9f}\n"

    @pytest.mark.parametrize("command,flags", [
        ("score", ("--truth", "--pred", "--weights")), ("eval", ("--ckpt", "--data"))])
    def test_threshold_that_is_not_a_number(self, capsys, tmp_path, command, flags):
        missing = [a for flag in flags for a in (flag, str(tmp_path / "missing"))]
        assert main([command, *missing, "--threshold", "abc"]) == 1
        err = capsys.readouterr().err
        assert "--threshold" in err and "'abc'" in err and "cannot read" not in err

    def test_csv_classes_differ_from_the_merged_matrix(self, tmp_path, capsys):
        _, files = self._files(tmp_path, ["a", "c"], np.full((4, 2), 0.5))
        _assert_one_line_error(capsys, main(["score", *files]), 2,
                               "CSV classes do not match the merged weight matrix")


class TestEmptySplit:
    def test_holdout_of_24_records_exits_2(self, capsys, tmp_path):
        data = tmp_path / "data"
        recs = make_synthetic_dataset(24, 2, np.random.default_rng(48))
        write_dataset(data, recs, synthetic_weight_matrix(2))
        merged, _ = merged_class_table(synthetic_weight_matrix(2))
        assert filter_and_split(recs, merged, seed=0)["holdout"] == []
        ckpt = _write_manifest(tmp_path / "m.ckpt", {
            "version": 1, "variant": "baseline", "model": {"n_classes": 2, "window": 512},
            "train_config": {"seed": 0}, "classes": ["c00", "c01"], "epoch": 0,
            "best_score": 0.0, "adam_step": 0, "index": []})
        code = main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--split", "holdout"])
        _assert_one_line_error(capsys, code, 2, "split 'holdout' is empty")
