"""Property: a damaged weight matrix, prediction CSV, config file or dataset
directory is parsed or rejected with DataError/ConfigError, whatever the
damage, and the CLI reports it as one line with exit 1 or 2."""

import json
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scatternet import engine
from scatternet.cli import main, read_prediction_csv
from scatternet.engine import ConfigError, DataError
from scatternet.loss import identity_weight_matrix, load_weight_matrix, save_weight_matrix
from scatternet.pipeline import (load_dataset, make_synthetic_dataset, prepare_pieces,
                                 synthetic_weight_matrix, write_dataset)
from scatternet.trainer import TrainConfig, config_from_mapping, load_config_file

# Fixed examples and no example database keep tier-1 time and results the
# same from run to run.
FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# JSON values of every type, and the edge values of the manifest's fields
ODD_VALUES = ["abc", "", "5120", "../x", "a/b", "a\nb", "a\x00b", 5, 0, -3, 1.5,
              2 ** 70, 1e308, float("nan"), float("inf"), None, True, False, [],
              ["a", 1], {}, {"a": 1}]

# cut at an offset, or set the byte at an offset to a value
_EDIT = st.one_of(st.tuples(st.just("cut"), st.floats(0, 1), st.just(0)),
                  st.tuples(st.just("set"), st.floats(0, 1), st.integers(0, 255)))
EDITS = st.lists(_EDIT, min_size=1, max_size=3)


def _damage(data: bytes, edits) -> bytes:
    for kind, where, value in edits:
        if not data:
            break
        at = min(int(where * len(data)), len(data) - 1)
        data = data[:at] if kind == "cut" else data[:at] + bytes([value]) + data[at + 1:]
    return data


def _valid_weight_matrix(tmp_path) -> bytes:
    path = tmp_path / "valid.csv"
    save_weight_matrix(path, identity_weight_matrix(["a", "b", "c"]))
    return path.read_bytes()


VALID_PREDICTIONS = b"id,a,b\nr1,0.25,0.75\nr2,1.0,0.0\n"
VALID_CONFIG = b"# tiny run\npreset=tiny\nlr=0.003\nbatch_size=4\npooled=yes\nvariant=scatter\n"


def _parses_or_rejects(parse, path):
    try:
        parse(path)
    except (DataError, ConfigError) as exc:
        assert "\n" not in str(exc)


class TestParserFuzz:
    @FUZZ
    @given(edits=EDITS)
    def test_weight_matrix(self, tmp_path, edits):
        path = tmp_path / "classes.csv"
        path.write_bytes(_damage(_valid_weight_matrix(tmp_path), edits))
        _parses_or_rejects(load_weight_matrix, path)

    @FUZZ
    @given(edits=EDITS)
    def test_prediction_csv(self, tmp_path, edits):
        path = tmp_path / "pred.csv"
        path.write_bytes(_damage(VALID_PREDICTIONS, edits))
        _parses_or_rejects(read_prediction_csv, path)

    @FUZZ
    @given(edits=EDITS)
    def test_config_file(self, tmp_path, edits):
        path = tmp_path / "run.cfg"
        path.write_bytes(_damage(VALID_CONFIG, edits))
        _parses_or_rejects(lambda p: config_from_mapping(load_config_file(p)), path)


@pytest.fixture(scope="module")
def valid_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("valid_ds")
    recs = make_synthetic_dataset(2, 2, np.random.default_rng(3))
    write_dataset(path, recs, synthetic_weight_matrix(2))
    return path


def _copy_dataset(src, dst):
    if dst.exists():
        shutil.rmtree(dst)
    shutil.copytree(src, dst)
    return dst


class TestDatasetFuzz:
    @FUZZ
    @given(target=st.sampled_from(["classes.csv", ".json", ".f32"]), edits=EDITS)
    def test_damaged_file(self, tmp_path, valid_dataset, target, edits):
        ds = _copy_dataset(valid_dataset, tmp_path / "ds")
        path = ds / target if target == "classes.csv" else sorted(ds.glob("*" + target))[0]
        path.write_bytes(_damage(path.read_bytes(), edits))
        _parses_or_rejects(load_dataset, ds)

    @FUZZ
    @given(key=st.sampled_from(["id", "fs", "n_samples", "leads", "labels", "age", "sex"]),
           value=st.sampled_from(ODD_VALUES))
    def test_retyped_manifest_field(self, tmp_path, valid_dataset, key, value):
        ds = _copy_dataset(valid_dataset, tmp_path / "ds")
        path = sorted(ds.glob("*.json"))[0]
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest[key] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
        _parses_or_rejects(load_dataset, ds)

    @pytest.mark.parametrize("body", [[1, 2], "text", 5, None])
    def test_manifest_not_an_object(self, tmp_path, valid_dataset, body):
        ds = _copy_dataset(valid_dataset, tmp_path / "ds")
        sorted(ds.glob("*.json"))[0].write_text(json.dumps(body), encoding="utf-8")
        with pytest.raises(DataError, match="not a JSON object"):
            load_dataset(ds)


class TestOneLineExit:
    """Each input below raised a traceback from ``scatternet train`` before."""

    @pytest.fixture(autouse=True)
    def _reset(self):
        engine.seed(0)
        yield

    def _run_train(self, capsys, ds, *extra):
        code = main(["train", "--data", str(ds), "--epochs", "1", *extra])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return code, err

    def test_non_utf8_classes_csv(self, capsys, tmp_path, valid_dataset):
        ds = _copy_dataset(valid_dataset, tmp_path / "ds")
        (ds / "classes.csv").write_bytes(b"\xff" + (ds / "classes.csv").read_bytes())
        code, err = self._run_train(capsys, ds)
        assert code == 2 and "classes.csv" in err

    def test_non_utf8_manifest(self, capsys, tmp_path, valid_dataset):
        ds = _copy_dataset(valid_dataset, tmp_path / "ds")
        path = sorted(ds.glob("*.json"))[0]
        path.write_bytes(b"\xff" + path.read_bytes())
        code, err = self._run_train(capsys, ds)
        assert code == 2 and path.name in err

    def test_non_utf8_config(self, capsys, tmp_path, valid_dataset):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"lr=0.003\n# caf\xe9\n")
        code, err = self._run_train(capsys, valid_dataset, "--config", str(cfg))
        assert code == 1 and "bad.cfg" in err

    @pytest.mark.parametrize("key,value", [("n_samples", "abc"), ("fs", "fast"),
                                           ("age", "old"), ("labels", 5)])
    def test_retyped_manifest_field(self, capsys, tmp_path, valid_dataset, key, value):
        ds = _copy_dataset(valid_dataset, tmp_path / "ds")
        path = sorted(ds.glob("*.json"))[0]
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest[key] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
        code, err = self._run_train(capsys, ds)
        assert code == 2 and path.name in err and repr(key) in err


class TestSampleRateFuzz:
    @FUZZ
    @given(fs=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           n_samples=st.integers(1, 2000))
    def test_any_positive_rate_gives_pieces_or_a_data_error(self, tmp_path, valid_dataset,
                                                            fs, n_samples):
        ds = _copy_dataset(valid_dataset, tmp_path / "ds")
        path = sorted(ds.glob("*.json"))[0]
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest.update(fs=fs, n_samples=n_samples)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        signal = np.random.default_rng(n_samples).standard_normal((12, n_samples))
        signal.astype("<f4").tofile(ds / f"{manifest['id']}.f32")
        records, _ = load_dataset(ds)
        try:
            pieces = prepare_pieces(records)
        except DataError as exc:
            assert str(exc).startswith(f"record {manifest['id']}: ")
            assert "\n" not in str(exc)
            return
        assert all(p.fs == 500.0 and np.isfinite(p.signal).all() for p in pieces)


# Re-ranged values for every TrainConfig key: signs, zeros, overflow, NaN,
# infinities, a subnormal and integers past 64 bits
RANGED = ["-1", "0", "-0", "1", "0.5", "449", "1e400", "-1e400", "nan", "inf", "-inf",
          "1e-320", str(10 ** 29), str(-10 ** 29), "yes", "tiny", "scatter"]
TRAIN_KEYS = sorted(TrainConfig().to_dict())


def _usable_or_config_error(pairs):
    try:
        cfg = config_from_mapping(pairs)
    except ConfigError:
        return
    engine.seed(cfg.seed)
    cfg.model_config(4)


class TestConfigRangeFuzz:
    """config_from_mapping returns a config that seeds the engine and gives a
    model config, or raises ConfigError; nothing else escapes it."""

    @FUZZ
    @given(pairs=st.dictionaries(st.sampled_from(TRAIN_KEYS), st.sampled_from(RANGED),
                                 min_size=1, max_size=4))
    def test_mixed_values(self, pairs):
        _usable_or_config_error(pairs)

    def test_every_key_and_value(self):
        for key in TRAIN_KEYS:
            for value in RANGED:
                _usable_or_config_error({key: value})


class TestNegativeSeed:
    """A negative seed used to end in numpy's 'expected non-negative integer'
    traceback from engine.seed."""

    def _run_train(self, capsys, ds, *extra):
        code = main(["train", "--data", str(ds), "--epochs", "1", *extra])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert code == 1 and "seed must be >= 0" in err, err

    def test_flag(self, capsys, valid_dataset):
        self._run_train(capsys, valid_dataset, "--seed", "-1")

    def test_environment(self, capsys, valid_dataset, monkeypatch):
        monkeypatch.setenv("SCATTERNET_SEED", "-2")
        self._run_train(capsys, valid_dataset)

    def test_config_file(self, capsys, tmp_path, valid_dataset):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -3\n", encoding="utf-8")
        self._run_train(capsys, valid_dataset, "--config", str(cfg))
