"""Optimizer, plateau schedule, checkpoint format, evaluation, and the
training loop."""

import dataclasses
import json
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from scatternet import engine, trainer
from scatternet import tensor as T
from scatternet.engine import ConfigError, DataError, NumericalAbort, ShapeError
from scatternet.loss import (discrete_challenge_score, identity_weight_matrix,
                             merged_class_table, predict)
from scatternet.model import ModelConfig, build_model, tiny_config
from scatternet.pipeline import (PIECE_LEN, filter_and_split, load_dataset,
                                 make_synthetic_dataset, make_window, prepare_pieces,
                                 resample_to_500, synthetic_weight_matrix,
                                 write_dataset)
from scatternet.tensor import Tensor
from scatternet.trainer import (Adam, Checkpoint, TrainConfig, adam_step,
                                config_from_mapping, evaluate_model,
                                load_config_file, lr_schedule_step,
                                new_schedule_state, train)


@pytest.fixture(autouse=True)
def _reset():
    engine.seed(0)
    yield


@pytest.fixture(scope="module")
def tiny_dataset():
    recs = make_synthetic_dataset(16, 2, np.random.default_rng(123))
    return recs, synthetic_weight_matrix(2)


def quick_cfg(**kw):
    base = dict(preset="tiny", window=512, batch_size=4, max_epochs=2, seed=3,
                power_prob=0.0, gauss_prob=0.0, drift_prob=0.0)
    base.update(kw)
    return TrainConfig(**base)


class TestAdamStep:
    def test_first_step_closed_form(self):
        # bias correction makes the first update lr * g/|g| up to eps
        p = [np.array([0.0])]
        adam_step(p, [np.array([1.0])], {}, lr=0.003)
        assert abs(p[0][0] + 0.003) < 1e-9

    def test_zero_grad_leaves_params_alone(self):
        p = [np.array([1.5, -2.0])]
        state = {}
        for _ in range(5):
            adam_step(p, [np.zeros(2)], state, lr=0.1)
        np.testing.assert_array_equal(p[0], [1.5, -2.0])
        assert state["t"] == 5

    def test_quadratic_convergence(self):
        x = [np.array([0.0])]
        state = {}
        for _ in range(2000):
            adam_step(x, [2.0 * (x[0] - 3.0)], state, lr=0.05)
        assert abs(x[0][0] - 3.0) < 1e-2

    def test_single_step_decreases_quadratic(self):
        x = [np.array([5.0])]
        before = (x[0][0] - 3.0) ** 2
        adam_step(x, [2.0 * (x[0] - 3.0)], {}, lr=1e-3)
        assert (x[0][0] - 3.0) ** 2 < before

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            adam_step([np.zeros(2)], [], {}, lr=0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adam_step([np.zeros(2)], [np.zeros(3)], {}, lr=0.1)

    def test_state_size_mismatch(self):
        state = {}
        adam_step([np.zeros(2)], [np.ones(2)], state, lr=0.1)
        with pytest.raises(ShapeError):
            adam_step([np.zeros(2), np.zeros(3)],
                      [np.ones(2), np.ones(3)], state, lr=0.1)

    def test_none_grad_skipped(self):
        p = [np.array([1.0]), np.array([2.0])]
        state = {}
        adam_step(p, [None, np.array([1.0])], state, lr=0.003)
        assert p[0][0] == 1.0
        assert p[1][0] != 2.0


class TestAdamWrapper:
    def _params(self):
        return [("a", Tensor(np.array([1.0, 2.0]), requires_grad=True)),
                ("b", Tensor(np.array([[3.0]]), requires_grad=True))]

    def test_step_and_count(self):
        named = self._params()
        opt = Adam(named)
        named[0][1].grad = np.array([1.0, -1.0])
        named[1][1].grad = np.array([[0.5]])
        opt.step(0.003)
        assert opt.step_count == 1
        assert abs(named[0][1].data[0] - (1.0 - 0.003)) < 1e-9
        assert abs(named[0][1].data[1] - (2.0 + 0.003)) < 1e-9

    def test_missing_grads_treated_as_zero(self):
        named = self._params()
        opt = Adam(named)
        opt.step(0.1)
        np.testing.assert_array_equal(named[0][1].data, [1.0, 2.0])
        assert opt.step_count == 1

    def test_missing_grad_leaves_param_and_moments(self):
        named = self._params()
        opt = Adam(named)
        for _, p in named:
            p.grad = np.ones_like(p.data)
        opt.step(0.1)
        before = [(p.data.copy(), m.copy(), v.copy())
                  for (_, p), (_, m, v) in zip(named, opt.moments())]
        opt.zero_grad()
        opt.step(0.1)
        assert opt.step_count == 2
        for (p0, m0, v0), (_, p), (_, m, v) in zip(before, named, opt.moments()):
            np.testing.assert_array_equal(p.data, p0)
            np.testing.assert_array_equal(m, m0)
            np.testing.assert_array_equal(v, v0)

    def test_zero_grad(self):
        named = self._params()
        named[0][1].grad = np.ones(2)
        opt = Adam(named)
        opt.zero_grad()
        assert named[0][1].grad is None

    def test_moments_before_any_step_are_zero(self):
        opt = Adam(self._params())
        for name, m, v in opt.moments():
            assert not m.any() and not v.any()
            assert name in ("a", "b")


class TestAdamArena:
    """Adam over a model's parameter arena moves every bit as ``adam_step``
    run on per-parameter copies does."""

    @staticmethod
    def _setup():
        model = build_model(tiny_config(4), "scatter")
        named = model.named_parameters()
        return model, named, Adam(named)

    @staticmethod
    def _grads(named, rng):
        return [rng.standard_normal(p.shape).astype(p.data.dtype) for _, p in named]

    @staticmethod
    def _assert_same(named, opt, ref_params, ref_state):
        for (_, p), (_, m, v), rp, rm, rv in zip(named, opt.moments(), ref_params,
                                                 ref_state["m"], ref_state["v"]):
            assert p.data.tobytes() == rp.tobytes()
            assert m.tobytes() == rm.tobytes()
            assert v.tobytes() == rv.tobytes()
        assert opt.step_count == ref_state["t"]

    @staticmethod
    def _assert_one_arena(named):
        arena = named[0][1].data.base
        assert arena is not None and arena.size == sum(p.size for _, p in named)
        assert all(p.data.base is arena for _, p in named)

    def test_model_parameters_share_one_array(self):
        _, named, _ = self._setup()
        self._assert_one_arena(named)

    def test_steps_match_per_parameter_adam(self):
        _, named, opt = self._setup()
        ref_params = [p.data.copy() for _, p in named]
        ref_state: dict = {}
        rng = np.random.default_rng(21)
        for lr in (3e-3, 3e-3, 1e-3, 3e-4):
            grads = self._grads(named, rng)
            for (_, p), g in zip(named, grads):
                p.grad = g
            opt.step(lr)
            adam_step(ref_params, grads, ref_state, lr)
        self._assert_same(named, opt, ref_params, ref_state)

    def test_missing_grad_in_the_middle(self):
        _, named, opt = self._setup()
        ref_params = [p.data.copy() for _, p in named]
        ref_state: dict = {}
        rng = np.random.default_rng(22)
        mid = len(named) // 2
        for step in range(3):
            grads = self._grads(named, rng)
            if step:
                grads[mid] = None
            for (_, p), g in zip(named, grads):
                p.grad = g
            before = (named[mid][1].data.copy(), opt.moments()[mid][1].copy(),
                      opt.moments()[mid][2].copy())
            opt.step(3e-3)
            adam_step(ref_params, grads, ref_state, 3e-3)
        _, m, v = opt.moments()[mid]
        assert named[mid][1].data.tobytes() == before[0].tobytes()
        assert m.tobytes() == before[1].tobytes() and v.tobytes() == before[2].tobytes()
        self._assert_same(named, opt, ref_params, ref_state)

    def test_step_after_restore_reaches_the_model(self):
        model, named, opt = self._setup()
        rng = np.random.default_rng(23)
        for _, p in named:
            p.grad = rng.standard_normal(p.shape).astype(p.data.dtype)
        opt.step(3e-3)
        ckpt = Checkpoint.from_state(
            "scatter", model.config, TrainConfig(), ("a", "b", "c", "d"), epoch=0,
            best_score=0.0, params=[(n, p.data.copy()) for n, p in named],
            buffers=model.named_buffers(),
            moments=[(n, m.copy(), v.copy()) for n, m, v in opt.moments()],
            adam_t=opt.step_count)
        fresh = build_model(model.config, "scatter")
        fresh_named = fresh.named_parameters()
        fresh_opt = Adam(fresh_named)
        ckpt.restore_into(fresh, fresh_opt)
        # restore writes into the arena: still one array behind the tensors
        self._assert_one_arena(fresh_named)
        ref_params = [p.data.copy() for _, p in fresh_named]
        ref_state = {"m": [m.copy() for _, m, _ in fresh_opt.moments()],
                     "v": [v.copy() for _, _, v in fresh_opt.moments()],
                     "t": fresh_opt.step_count}
        grads = self._grads(fresh_named, rng)
        for (_, p), g in zip(fresh_named, grads):
            p.grad = g
        fresh_opt.step(3e-3)
        adam_step(ref_params, grads, ref_state, 3e-3)
        assert all(not np.array_equal(p.data, ckpt.arrays["param:" + n])
                   for n, p in fresh_named)
        self._assert_same(fresh_named, fresh_opt, ref_params, ref_state)


def drive(state, losses):
    return [lr_schedule_step(state, loss) for loss in losses]


class TestSchedule:
    def test_decreasing_losses_keep_lr(self):
        state = new_schedule_state(TrainConfig())
        lrs = drive(state, [1.0 - 0.01 * i for i in range(20)])
        assert lrs == [0.003] * 20

    def test_one_plateau(self):
        state = new_schedule_state(TrainConfig())
        lrs = drive(state, [0.5] * 13)
        assert lrs[:12] == [0.003] * 12
        assert lrs[12] == pytest.approx(3e-4, rel=1e-12)

    def test_two_plateaus_hand_trace(self):
        # 1 improvement + 12 flat, then again: each flat stretch ends in a cut
        state = new_schedule_state(TrainConfig())
        losses = [1.0] * 13 + [0.5] * 13
        lrs = drive(state, losses)
        want = [0.003] * 12 + [3e-4] * 13 + [3e-5]
        assert lrs == pytest.approx(want, rel=1e-12)

    def test_improvement_must_beat_tol(self):
        state = new_schedule_state(TrainConfig(plateau_patience=1))
        assert drive(state, [1.0])[-1] == 0.003
        # a 1e-6 drop equals the tolerance, so it does not count
        assert drive(state, [1.0 - 1e-6])[-1] == pytest.approx(3e-4)
        state = new_schedule_state(TrainConfig(plateau_patience=1))
        drive(state, [1.0])
        assert drive(state, [1.0 - 2e-6])[-1] == 0.003

    def test_floor(self):
        state = new_schedule_state(TrainConfig(lr=2e-6, plateau_patience=1))
        lrs = drive(state, [1.0, 1.0, 1.0, 1.0])
        assert lrs[1] == 1e-6
        assert lrs[3] == 1e-6


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(plateau_factor=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(max_epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(variant="resnet")
        with pytest.raises(ConfigError):
            TrainConfig(preset="huge")
        with pytest.raises(ConfigError):
            TrainConfig(threshold=1.0)

    def test_model_config_presets(self):
        full = TrainConfig().model_config(24)
        assert full.window == 5120 and full.width_scale == 1.0
        tiny = TrainConfig(preset="tiny").model_config(4)
        assert tiny.window == 1024 and tiny.width_scale == 0.25
        assert tiny.n_classes == 4
        forced = TrainConfig(preset="tiny", window=512).model_config(4)
        assert forced.window == 512

    def test_augment_config(self):
        aug = TrainConfig(power_prob=0.0, gauss_prob=0.25, drift_prob=1.0,
                          gauss_std=0.5).augment_config()
        assert aug.power_prob == 0.0
        assert aug.gauss_prob == 0.25
        assert aug.drift_prob == 1.0
        assert aug.gauss_std == 0.5


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a full run\n"
                        "lr = 0.01\n"
                        "batch_size=8  # inline comment\n"
                        "\n"
                        "verbose = yes\n", encoding="utf-8")
        pairs = load_config_file(path)
        assert pairs == {"lr": "0.01", "batch_size": "8", "verbose": "yes"}

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr=0.01\n\nnot a pair\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":3: expected key=value"):
            load_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read config"):
            load_config_file(tmp_path / "absent.cfg")

    def test_typed_merge(self):
        cfg = config_from_mapping({"max_epochs": "7", "lr": "0.5",
                                   "pooled": "true", "variant": "scatter"})
        assert cfg.max_epochs == 7
        assert cfg.lr == 0.5
        assert cfg.pooled is True
        assert cfg.variant == "scatter"

    def test_base_overrides(self):
        base = TrainConfig(lr=0.5, seed=9)
        cfg = config_from_mapping({"lr": "0.25"}, base=base)
        assert cfg.lr == 0.25
        assert cfg.seed == 9
        assert config_from_mapping({}, base=base).lr == 0.5

    def test_bool_spellings(self):
        for word, want in (("1", True), ("on", True), ("Yes", True),
                           ("0", False), ("off", False), ("No", False)):
            assert config_from_mapping({"verbose": word}).verbose is want
        with pytest.raises(ConfigError):
            config_from_mapping({"verbose": "maybe"})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_mapping({"momentum": "0.9"})

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="config key max_epochs"):
            config_from_mapping({"max_epochs": "many"})


def small_model_state():
    """A trained-a-little model plus optimizer, for checkpoint tests."""
    mcfg = ModelConfig(n_leads=2, n_classes=2, window=512, heads=2,
                       width_scale=0.25, fc_hidden=8, dropout=0.0)
    model = build_model(mcfg, "baseline")
    opt = Adam(model.named_parameters())
    rng = np.random.default_rng(7)
    for _ in range(2):
        x = Tensor(rng.standard_normal((2, 2, 512)).astype(engine.dtype()))
        aux = Tensor(rng.standard_normal((2, 2)).astype(engine.dtype()))
        loss = model.forward(x, aux, "train").sum()
        opt.zero_grad()
        loss.backward()
        opt.step(1e-3)
    return mcfg, model, opt


def checkpoint_of(mcfg, model, opt):
    return Checkpoint.from_state(
        "baseline", mcfg, TrainConfig(), ("a", "b"), epoch=1, best_score=0.5,
        params=[(n, p.data) for n, p in model.named_parameters()],
        buffers=model.named_buffers(),
        moments=opt.moments(), adam_t=opt.step_count)


class TestCheckpoint:
    def test_round_trip_arrays_and_manifest(self, tmp_path):
        mcfg, model, opt = small_model_state()
        ckpt = checkpoint_of(mcfg, model, opt)
        path = tmp_path / "m.ckpt"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.manifest == ckpt.manifest
        assert set(loaded.arrays) == set(ckpt.arrays)
        for key, arr in ckpt.arrays.items():
            np.testing.assert_array_equal(loaded.arrays[key], arr)
        assert loaded.model_config() == mcfg

    def test_save_load_save_byte_identical(self, tmp_path):
        mcfg, model, opt = small_model_state()
        ckpt = checkpoint_of(mcfg, model, opt)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ckpt.save(a)
        Checkpoint.load(a).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_restore_into(self, tmp_path):
        mcfg, model, opt = small_model_state()
        ckpt = checkpoint_of(mcfg, model, opt)
        fresh = build_model(mcfg, "baseline")
        fresh_opt = Adam(fresh.named_parameters())
        ckpt.restore_into(fresh, fresh_opt)
        for (_, p), (_, q) in zip(model.named_parameters(),
                                  fresh.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data)
        for (_, b1), (_, b2) in zip(model.named_buffers(),
                                    fresh.named_buffers()):
            np.testing.assert_array_equal(b1, b2)
        assert fresh_opt.step_count == opt.step_count
        for (n1, m1, v1), (n2, m2, v2) in zip(opt.moments(),
                                              fresh_opt.moments()):
            assert n1 == n2
            np.testing.assert_array_equal(m1, m2)
            np.testing.assert_array_equal(v1, v2)

    def test_restore_shape_mismatch(self):
        mcfg, model, opt = small_model_state()
        ckpt = checkpoint_of(mcfg, model, opt)
        import dataclasses
        other = build_model(dataclasses.replace(mcfg, n_classes=3), "baseline")
        with pytest.raises(DataError):
            ckpt.restore_into(other)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataError, match="bad magic"):
            Checkpoint.load(path)

    def test_truncated_payload(self, tmp_path):
        mcfg, model, opt = small_model_state()
        ckpt = checkpoint_of(mcfg, model, opt)
        path = tmp_path / "m.ckpt"
        ckpt.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(DataError, match="truncated"):
            Checkpoint.load(path)

    def test_corrupt_manifest(self, tmp_path):
        mcfg, model, opt = small_model_state()
        ckpt = checkpoint_of(mcfg, model, opt)
        path = tmp_path / "m.ckpt"
        ckpt.save(path)
        raw = bytearray(path.read_bytes())
        raw[16:24] = b"\xff" * 8  # inside the manifest blob
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="corrupt manifest"):
            Checkpoint.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read checkpoint"):
            Checkpoint.load(tmp_path / "absent.ckpt")

    @staticmethod
    def _saved_parts(tmp_path):
        mcfg, model, opt = small_model_state()
        ckpt = checkpoint_of(mcfg, model, opt)
        path = tmp_path / "m.ckpt"
        ckpt.save(path)
        raw = path.read_bytes()
        start = len(trainer._MAGIC) + 8
        (blob_len,) = struct.unpack_from("<Q", raw, len(trainer._MAGIC))
        manifest = json.loads(raw[start:start + blob_len])
        return path, manifest, raw[start + blob_len:]

    @staticmethod
    def _write(path, manifest, payload):
        blob = json.dumps(manifest).encode("utf-8")
        path.write_bytes(trainer._MAGIC + struct.pack("<Q", len(blob)) + blob + payload)

    def test_overlapping_offset_rejected(self, tmp_path):
        path, manifest, payload = self._saved_parts(tmp_path)
        manifest["index"][1]["offset"] = manifest["index"][0]["offset"]
        self._write(path, manifest, payload)
        with pytest.raises(DataError, match="offset"):
            Checkpoint.load(path)

    def test_gap_between_arrays_rejected(self, tmp_path):
        path, manifest, payload = self._saved_parts(tmp_path)
        cut = manifest["index"][1]["offset"]
        for entry in manifest["index"][1:]:
            entry["offset"] += 4
        self._write(path, manifest, payload[:cut] + bytes(4) + payload[cut:])
        with pytest.raises(DataError, match="offset"):
            Checkpoint.load(path)

    def test_trailing_byte_rejected(self, tmp_path):
        path, manifest, payload = self._saved_parts(tmp_path)
        self._write(path, manifest, payload + b"\x00")
        with pytest.raises(DataError, match="1 bytes after the last array"):
            Checkpoint.load(path)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        mcfg, model, opt = small_model_state()
        ckpt = checkpoint_of(mcfg, model, opt)
        path = tmp_path / "m.ckpt"
        ckpt.save(path)
        before = path.read_bytes()
        arrays = dict(ckpt.arrays)
        del arrays[next(reversed(arrays))]  # the last array: fails after most bytes
        with pytest.raises(KeyError):
            Checkpoint(manifest=ckpt.manifest, arrays=arrays).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_duplicate_index_entry_rejected(self, tmp_path):
        # a second param:w would replace the first on load, and save would
        # then write it twice
        manifest = {"version": 1, "variant": "baseline", "model": {},
                    "train_config": {"seed": 0}, "classes": [], "epoch": 0,
                    "best_score": 0.0, "adam_step": 0,
                    "index": [{"kind": "param", "name": "w", "shape": [1], "offset": 0},
                              {"kind": "param", "name": "w", "shape": [1], "offset": 4}]}
        path = tmp_path / "dup.ckpt"
        self._write(path, manifest, np.array([1.0, 2.0], dtype="<f4").tobytes())
        with pytest.raises(DataError, match="param:w"):
            Checkpoint.load(path)

    def test_model_value_rules_cover_model_config(self):
        import dataclasses
        assert set(trainer._MODEL_VALUES) == {f.name for f in dataclasses.fields(ModelConfig)}


class TestEvaluate:
    def test_class_mismatch(self):
        mcfg = ModelConfig(n_leads=12, n_classes=2, window=512, heads=2,
                           width_scale=0.25, fc_hidden=8, dropout=0.0)
        model = build_model(mcfg, "baseline")
        recs = make_synthetic_dataset(2, 2, np.random.default_rng(0))
        wm = identity_weight_matrix(["c00", "c01", "c02"])
        with pytest.raises(DataError, match="merges"):
            evaluate_model(model, recs, wm)

    def test_deterministic(self):
        mcfg = ModelConfig(n_leads=12, n_classes=2, window=512, heads=2,
                           width_scale=0.25, fc_hidden=8, dropout=0.0)
        model = build_model(mcfg, "baseline")
        recs = make_synthetic_dataset(3, 2, np.random.default_rng(1))
        wm = synthetic_weight_matrix(2)
        a = evaluate_model(model, recs, wm)
        b = evaluate_model(model, recs, wm)
        np.testing.assert_array_equal(a["probs"], b["probs"])
        assert a["score"] == b["score"]
        assert a["ids"] == b["ids"]

    def test_all_zero_predictor_scores_zero(self):
        mcfg = ModelConfig(n_leads=12, n_classes=2, window=512, heads=2,
                           width_scale=0.25, fc_hidden=8, dropout=0.0)
        model = build_model(mcfg, "baseline")
        # force logits to -20 regardless of the input
        model.fc2.w.data[:] = 0.0
        model.fc2.b.data[:] = -20.0
        recs = make_synthetic_dataset(4, 2, np.random.default_rng(2))
        res = evaluate_model(model, recs, synthetic_weight_matrix(2))
        assert (res["probs"] < 1e-6).all()
        assert res["score"] == 0.0
        assert res["precision"].shape == (2,)
        assert (res["precision"] == 0.0).all() and (res["recall"] == 0.0).all()


class TestRestoreAllOrNothing:
    """A checkpoint that does not fit raises DataError before any write."""

    @staticmethod
    def _state(model, opt):
        return (b"".join(p.data.tobytes() for _, p in model.named_parameters()),
                b"".join(b.tobytes() for _, b in model.named_buffers()),
                b"".join(m.tobytes() + v.tobytes() for _, m, v in opt.moments()),
                opt.step_count)

    @staticmethod
    def _target():
        mcfg, model, opt = small_model_state()
        return mcfg, model, opt, TestRestoreAllOrNothing._state(model, opt)

    def _assert_refused(self, ckpt, match):
        _, model, opt, before = self._target()
        with pytest.raises(DataError, match=match):
            ckpt.restore_into(model, opt)
        assert self._state(model, opt) == before

    def _checkpoint(self):
        engine.seed(1)  # other values than the target's
        mcfg, model, opt = small_model_state()
        opt.step(1e-3)
        return checkpoint_of(mcfg, model, opt)

    def test_buffer_shape_checked_before_writing(self):
        ckpt = self._checkpoint()
        ckpt.arrays["buffer:stem_bn.running_mean"] = np.zeros(5, dtype="<f4")
        self._assert_refused(ckpt, "buffer:stem_bn.running_mean")

    def test_last_parameter_checked_before_writing(self):
        ckpt = self._checkpoint()
        ckpt.arrays["param:fc2.b"] = np.zeros(3, dtype="<f4")
        self._assert_refused(ckpt, "param:fc2.b")

    @pytest.mark.parametrize("key", ["adam_m:fc2.b", "adam_v:stem.w"])
    def test_moment_shape_checked_before_writing(self, key):
        ckpt = self._checkpoint()
        ckpt.arrays[key] = np.zeros(1, dtype="<f4")
        self._assert_refused(ckpt, key)

    def test_missing_moment_checked_before_writing(self):
        ckpt = self._checkpoint()
        del ckpt.arrays["adam_v:fc2.w"]
        self._assert_refused(ckpt, "lacks adam_v:fc2.w")

    @pytest.mark.parametrize("step", [None, -1, 2.5, "3"])
    def test_adam_step_checked_before_writing(self, step):
        ckpt = self._checkpoint()
        ckpt.manifest["adam_step"] = step
        self._assert_refused(ckpt, "adam_step")

    def test_without_adam_moments_are_not_needed(self):
        ckpt = self._checkpoint()
        for key in [k for k in ckpt.arrays if k.startswith("adam_")]:
            del ckpt.arrays[key]
        _, model, _, _ = self._target()
        ckpt.restore_into(model)
        for name, p in model.named_parameters():
            assert p.data.tobytes() == ckpt.arrays[f"param:{name}"].tobytes()


class TestSnapshot:
    def test_one_copy_per_kind_with_the_state_bytes(self):
        _, model, opt = small_model_state()
        snap = trainer._snapshot(model, opt)
        for key, named in (("params", [(n, p.data) for n, p in model.named_parameters()]),
                           ("buffers", model.named_buffers())):
            assert [n for n, _ in snap[key]] == [n for n, _ in named]
            copies, live = [a for _, a in snap[key]], [a for _, a in named]
            assert copies[0].base is not None
            assert all(a.base is copies[0].base for a in copies)
            assert all(not np.shares_memory(a, b) for a, b in zip(copies, live))
            assert [a.tobytes() for a in copies] == [b.tobytes() for b in live]
        for (n1, m1, v1), (n2, m2, v2) in zip(snap["moments"], opt.moments()):
            assert n1 == n2 and m1.tobytes() == m2.tobytes() and v1.tobytes() == v2.tobytes()
        assert snap["adam_t"] == opt.step_count
        # a later step leaves the snapshot as it was
        kept = [a.tobytes() for _, a in snap["params"]]
        for _, p in model.named_parameters():
            p.grad = np.ones_like(p.data)
        opt.step(1e-2)
        assert [a.tobytes() for _, a in snap["params"]] == kept


def _eval_model(window=512):
    mcfg = ModelConfig(n_leads=12, n_classes=2, window=window, heads=2,
                       width_scale=0.25, fc_hidden=8, dropout=0.0)
    return build_model(mcfg, "baseline")


def _mixed_records(n, seed):
    """Records shorter than a piece, of one piece, of three pieces (the last
    overlapping), and at 250 Hz, in turn."""
    out = []
    for i, rec in enumerate(make_synthetic_dataset(n, 2, np.random.default_rng(seed))):
        sig = rec.signal
        kind = i % 4
        if kind == 0:
            sig = sig[:, :3000]
        elif kind == 2:
            sig = np.tile(sig, 3)[:, :25000]
        out.append(dataclasses.replace(rec, signal=sig[:, ::2] if kind == 3 else sig,
                                       fs=250.0 if kind == 3 else rec.fs))
    return out


def evaluate_all_windows_first(model, records, wm, batch_size):
    """Reference pass that builds every window before the first batch."""
    merged, table = merged_class_table(wm)
    windows = [make_window(p, table, merged.k, out_len=model.config.window)
               for p in prepare_pieces(records)]
    probs, truth = [], []
    with engine.no_grad():
        for i in range(0, len(windows), batch_size):
            chunk = windows[i:i + batch_size]
            x, aux, t = (np.stack([getattr(w, f) for w in chunk]).astype(engine.dtype())
                         for f in ("data", "aux", "target"))
            probs.append(T.sigmoid(model.forward(Tensor(x), Tensor(aux), "eval")).data)
            truth.append(t)
    probs, truth = np.concatenate(probs), np.concatenate(truth)
    score = discrete_challenge_score(truth, predict(probs, 0.5), merged)
    return probs, truth, [w.record_id for w in windows], score


class TestStreamingEval:
    @pytest.mark.parametrize("batch", [lambda n: 1, lambda n: 3, lambda n: 4,
                                       lambda n: n, lambda n: n + 5],
                             ids=["1", "3", "4", "n", "n+5"])
    def test_bytes_equal_building_every_window_first(self, batch):
        model = _eval_model()
        recs = _mixed_records(8, 11)
        wm = synthetic_weight_matrix(2)
        n = len(prepare_pieces(recs))
        assert n > 8  # some records give several windows
        batch_size = batch(n)
        probs, truth, ids, score = evaluate_all_windows_first(model, recs, wm, batch_size)
        got = evaluate_model(model, recs, wm, batch_size=batch_size)
        assert got["probs"].dtype == probs.dtype and got["probs"].tobytes() == probs.tobytes()
        assert got["truth"].dtype == truth.dtype and got["truth"].tobytes() == truth.tobytes()
        assert got["ids"] == ids
        assert got["score"] == score

    def test_traced_peak_does_not_grow_with_the_record_count(self):
        # full-length windows, so that holding every window (or every
        # piece) shows next to one batch's forward pass
        model = _eval_model(window=5120)
        wm = synthetic_weight_matrix(2)
        evaluate_model(model, make_synthetic_dataset(1, 2, np.random.default_rng(0)), wm)

        def peak(n):
            recs = make_synthetic_dataset(n, 2, np.random.default_rng(n))
            tracemalloc.start()
            try:
                evaluate_model(model, recs, wm, batch_size=4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(32) < 1.5 * peak(8)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_a_config_error(self, batch_size, monkeypatch):
        def no_window(*args, **kwargs):
            raise AssertionError("a window was made")

        monkeypatch.setattr(trainer, "make_window", no_window)
        with pytest.raises(ConfigError, match=f"^evaluate_model: batch_size must be "
                                              f">= 1, got {batch_size}$"):
            evaluate_model(_eval_model(), _mixed_records(2, 11),
                           synthetic_weight_matrix(2), batch_size=batch_size)


class TestTrainLoop:
    def test_same_seed_same_trajectory(self, tiny_dataset, tmp_path):
        cfg = quick_cfg(max_steps=10, max_epochs=8)
        ck1 = train(cfg, dataset=tiny_dataset)
        ck2 = train(cfg, dataset=tiny_dataset)
        assert [h["train_loss"] for h in ck1.history] == \
               [h["train_loss"] for h in ck2.history]
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ck1.save(a)
        ck2.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_trajectory(self, tiny_dataset):
        ck1 = train(quick_cfg(max_epochs=1), dataset=tiny_dataset)
        ck2 = train(quick_cfg(max_epochs=1, seed=4), dataset=tiny_dataset)
        assert ck1.history[0]["train_loss"] != ck2.history[0]["train_loss"]

    def test_max_steps_caps_run(self, tiny_dataset):
        # one batch per epoch at this batch size, so 2 steps = 2 epochs
        cfg = quick_cfg(batch_size=64, max_steps=2, max_epochs=6)
        ck = train(cfg, dataset=tiny_dataset)
        assert len(ck.history) == 2

    def test_best_checkpoint_selection(self, tiny_dataset):
        ck = train(quick_cfg(max_epochs=3), dataset=tiny_dataset)
        scores = [h["val_score"] for h in ck.history]
        bests = [h["best_score"] for h in ck.history]
        assert ck.manifest["best_score"] == max(scores)
        # ties resolve to the latest epoch with the maximum score
        last_argmax = max(i for i, s in enumerate(scores) if s == max(scores))
        assert ck.manifest["epoch"] == last_argmax
        assert bests == sorted(bests)  # running best never decreases

    def test_writes_checkpoint_to_out(self, tiny_dataset, tmp_path):
        out = tmp_path / "runs" / "m.ckpt"
        ck = train(quick_cfg(max_epochs=1, out=str(out)), dataset=tiny_dataset)
        loaded = Checkpoint.load(out)
        assert loaded.manifest == ck.manifest

    def test_identical_trainings_write_identical_files(self, tiny_dataset, tmp_path):
        first, second = tmp_path / "a.ckpt", tmp_path / "runs" / "b.ckpt"
        train(quick_cfg(max_epochs=1, out=str(first)), dataset=tiny_dataset)
        train(quick_cfg(max_epochs=1, out=str(second)), dataset=tiny_dataset)
        assert first.read_bytes() == second.read_bytes()

    def test_nan_loss_aborts(self, tiny_dataset, monkeypatch):
        class _Bad:
            data = np.float64("nan")
        monkeypatch.setattr(trainer, "combined_loss", lambda *a, **k: _Bad())
        with pytest.raises(NumericalAbort,
                           match=r"non-finite loss at epoch 0 batch 0 lr 0\.003"):
            train(quick_cfg(max_epochs=1), dataset=tiny_dataset)

    def test_empty_split_rejected(self):
        recs = make_synthetic_dataset(1, 2, np.random.default_rng(5))
        with pytest.raises(DataError, match="nonempty"):
            train(quick_cfg(max_epochs=1), dataset=(recs, synthetic_weight_matrix(2)))

    def test_checkpoint_evaluates_like_trained_model(self, tiny_dataset, tmp_path):
        """Reloading the best checkpoint reproduces its recorded val score."""
        recs, wm = tiny_dataset
        cfg = quick_cfg(max_epochs=2)
        ck = train(cfg, dataset=tiny_dataset)
        model = ck.build_model()
        from scatternet.pipeline import filter_and_split
        from scatternet.loss import merged_class_table
        merged, _ = merged_class_table(wm)
        splits = filter_and_split(recs, merged, seed=cfg.seed)
        res = evaluate_model(model, splits["val"], wm)
        assert res["score"] == pytest.approx(ck.manifest["best_score"], abs=1e-9)


class TestTrainConfigRanges:
    @pytest.mark.parametrize("key,value", [
        ("lr", "nan"), ("lr", "inf"), ("lr", "-0.1"), ("beta1", "nan"), ("beta1", "1"),
        ("beta1", "-0.1"), ("beta2", "1"), ("beta2", "inf"), ("eps", "0"), ("eps", "-1e-8"),
        ("gauss_std", "-1"), ("gauss_std", "inf"), ("power_prob", "2"),
        ("gauss_prob", "-0.5"), ("drift_prob", "nan"), ("max_steps", "-1"),
        ("plateau_patience", "-1"), ("lr_floor", "nan"), ("lr_floor", "-1e-6"),
        ("plateau_tol", "inf"), ("plateau_tol", "-1"), ("window", "-5"),
        ("plateau_factor", "nan"), ("threshold", "-inf"),
    ])
    def test_rejected_value_names_its_field(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            config_from_mapping({key: value})

    @pytest.mark.parametrize("key,value", [
        ("beta1", "0"), ("beta2", "0.999999"), ("power_prob", "0"), ("power_prob", "1"),
        ("gauss_std", "0"), ("lr_floor", "0"), ("plateau_tol", "0"),
        ("max_steps", "0"), ("plateau_patience", "0"), ("window", "0"),
    ])
    def test_edge_values_accepted(self, key, value):
        assert getattr(config_from_mapping({key: value}), key) == float(value)


class TestWindowRule:
    """A window is 0 (the preset's default, accepted in
    TestTrainConfigRanges) or at least model.MIN_WINDOW."""

    def test_shorter_than_min_window_rejected(self):
        with pytest.raises(ConfigError, match="^window must be"):
            config_from_mapping({"window": "448"})

    def test_min_window_accepted(self):
        assert config_from_mapping({"window": "449"}).window == 449


class TestTrainMemory:
    def test_later_steps_do_not_hold_the_previous_graph(self, tiny_dataset):
        # backward frees each step's graph, so the next forward runs without
        # it: three steps peak no higher than one, up to the slack. Holding
        # the previous graph read 1.25x on this config.
        def traced_peak(steps):
            engine.seed(0)
            tracemalloc.start()
            try:
                train(quick_cfg(window=1024, batch_size=8, max_epochs=3,
                                max_steps=steps), tiny_dataset)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, three = traced_peak(1), traced_peak(3)
        assert three <= 1.1 * one, (one, three)


def _write_records(path, records, n_classes=2):
    write_dataset(path, records, synthetic_weight_matrix(n_classes))
    return str(path)


class TestTrainHoldsEachRecordOnce:
    """train() keeps the train pieces and the val records; each raw train
    record goes as its pieces are made, the rest once the split is made."""

    def test_traced_peak_below_raw_plus_pieces(self, tmp_path):
        # full-length 500 Hz records, so a piece is as large as its record
        # and the data outweighs a tiny model's graph; holding every raw
        # record beside the pieces read 57.0 MiB against 28.1 MiB raw
        recs = make_synthetic_dataset(60, 2, np.random.default_rng(7))
        data = _write_records(tmp_path / "data", recs)
        raw = sum(r.signal.nbytes for r in recs)
        merged, _ = merged_class_table(synthetic_weight_matrix(2))
        pieces = sum(p.signal.nbytes for p in
                     prepare_pieces(filter_and_split(recs, merged, seed=0)["train"]))
        del recs
        cfg = quick_cfg(data=data, window=0, batch_size=2, max_steps=2,
                        max_epochs=1, seed=0)
        tracemalloc.start()
        try:
            train(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < raw + pieces, (peak, raw, pieces)

    def test_raw_train_records_dead_at_first_step(self, tmp_path, monkeypatch):
        recs = [dataclasses.replace(r, signal=r.signal[:, :1500].copy())
                for r in make_synthetic_dataset(50, 2, np.random.default_rng(8))]
        # unscored records are dropped by the split and must go too
        recs += [dataclasses.replace(r, id=f"u{i}", labels=("zz",))
                 for i, r in enumerate(recs[:3])]
        data = _write_records(tmp_path / "data", recs)
        merged, _ = merged_class_table(synthetic_weight_matrix(2))
        splits = filter_and_split(recs, merged, seed=3)
        assert splits["holdout"]
        del recs
        refs = {}
        load = trainer.load_dataset

        def recording_load(path):
            records, wm = load(path)
            refs.update((r.id, weakref.ref(r.signal)) for r in records)
            return records, wm

        seen = []
        step = Adam.step

        def checking_step(self, lr):
            if not seen:
                seen.append({rid: ref() is not None for rid, ref in refs.items()})
            step(self, lr)

        monkeypatch.setattr(trainer, "load_dataset", recording_load)
        monkeypatch.setattr(Adam, "step", checking_step)
        train(quick_cfg(data=data, max_steps=1, max_epochs=1))
        alive = seen[0]
        val = {r.id for r in splits["val"]}
        assert len(alive) == 53 and val
        assert {rid for rid, a in alive.items() if a} == val

    def test_caller_dataset_untouched_and_same_checkpoint(self, tmp_path):
        # passes before records were let go too: it pins that only train()'s
        # own lists are cleared
        data = _write_records(tmp_path / "data",
                              make_synthetic_dataset(16, 2, np.random.default_rng(9)))
        records, wm = load_dataset(data)
        before = list(records)
        signals = [r.signal.tobytes() for r in records]
        cfg = quick_cfg(data=data, max_epochs=1)
        from_memory = train(cfg, dataset=(records, wm))
        assert len(records) == len(before)
        assert all(a is b for a, b in zip(records, before))
        assert [r.signal.tobytes() for r in records] == signals
        from_disk = train(cfg)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        from_memory.save(a)
        from_disk.save(b)
        assert a.read_bytes() == b.read_bytes()


def load_arrays_reference(path):
    """Checkpoint.load's arrays as one bytes copy per array, for comparison."""
    raw = path.read_bytes()
    start = len(trainer._MAGIC) + 8
    (blob_len,) = struct.unpack_from("<Q", raw, len(trainer._MAGIC))
    manifest = json.loads(raw[start:start + blob_len].decode("utf-8"))
    payload = raw[start + blob_len:]
    arrays = {}
    for entry in manifest["index"]:
        begin = entry["offset"]
        end = begin + 4 * int(np.prod(entry["shape"]))
        arrays[f"{entry['kind']}:{entry['name']}"] = np.frombuffer(
            payload[begin:end], dtype="<f4").reshape(entry["shape"])
    return arrays


class TestCheckpointLoadHoldsFileOnce:
    """Checkpoint.load views the file's bytes instead of copying them."""

    @pytest.fixture(scope="class")
    def full_ckpt(self, tmp_path_factory):
        mcfg = ModelConfig()
        model = build_model(mcfg, "scatter")
        opt = Adam(model.named_parameters())
        rng = np.random.default_rng(60)
        for _, m, v in opt.moments():
            m[...] = rng.standard_normal(m.shape)
            v[...] = rng.random(v.shape)
        path = tmp_path_factory.mktemp("full") / "full.ckpt"
        Checkpoint.from_state(
            "scatter", mcfg, TrainConfig(), tuple(f"c{i:02d}" for i in range(24)),
            epoch=3, best_score=0.25,
            params=[(n, p.data) for n, p in model.named_parameters()],
            buffers=model.named_buffers(), moments=opt.moments(), adam_t=7).save(path)
        return path

    def test_load_peak_below_one_and_a_half_files(self, full_ckpt):
        size = full_ckpt.stat().st_size
        assert size > 4 * 2 ** 20
        Checkpoint.load(full_ckpt)  # warm the imports and caches
        tracemalloc.start()
        try:
            ckpt = Checkpoint.load(full_ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ckpt.arrays
        assert peak < 1.5 * size, (peak, size)

    def test_arrays_equal_copies_and_resave_byte_identical(self, full_ckpt, tmp_path):
        loaded = Checkpoint.load(full_ckpt)
        want = load_arrays_reference(full_ckpt)
        assert list(loaded.arrays) == list(want)
        for key, arr in want.items():
            got = loaded.arrays[key]
            assert got.dtype == arr.dtype and got.shape == arr.shape, key
            assert got.tobytes() == arr.tobytes(), key
            assert not got.flags.writeable, key
        again = tmp_path / "again.ckpt"
        loaded.save(again)
        assert again.read_bytes() == full_ckpt.read_bytes()
        Checkpoint.load(again).save(again)
        assert again.read_bytes() == full_ckpt.read_bytes()


# one value per ModelConfig field that its rule rejects
BAD_MODEL_VALUES = [("n_leads", 0), ("n_classes", -1), ("window", 2.5), ("heads", 0),
                    ("dropout", 1.0), ("aux_features", True), ("fc_hidden", "8"),
                    ("width_scale", float("nan")), ("pos_encoding", 1)]


class TestModelConfigRules:
    """ModelConfig enforces the rule table that checkpoint manifests use."""

    def test_one_bad_value_per_field_covers_the_table(self):
        assert {f for f, _ in BAD_MODEL_VALUES} == set(trainer._MODEL_VALUES)

    @pytest.mark.parametrize("field,value", BAD_MODEL_VALUES)
    def test_bad_value_is_config_error_naming_field_and_value(self, field, value):
        with pytest.raises(ConfigError) as info:
            ModelConfig(**{field: value})
        message = str(info.value)
        assert message.startswith(f"{field} must be ") and message.endswith(repr(value))

    def test_any_window_length_builds(self):
        # only TrainConfig bounds the window by model.MIN_WINDOW
        assert ModelConfig(window=256).window == 256
        assert ModelConfig(window=1).window == 1

    def test_presets_pass_and_replace_is_checked(self):
        assert dataclasses.replace(tiny_config(4), n_classes=2).n_classes == 2
        with pytest.raises(ConfigError, match="heads must be"):
            dataclasses.replace(ModelConfig(), heads=-2)


class TestCheckpointCopiesWhatItHolds:
    """A checkpoint built from a live model keeps the state of that moment."""

    def test_later_forward_and_step_leave_it_alone(self):
        mcfg, model, opt = small_model_state()
        ck = checkpoint_of(mcfg, model, opt)
        kept = {k: a.tobytes() for k, a in ck.arrays.items()}
        live = ([p.data for _, p in model.named_parameters()]
                + [b for _, b in model.named_buffers()]
                + [a for _, m, v in opt.moments() for a in (m, v)])
        assert not any(np.shares_memory(a, b) for a in ck.arrays.values() for b in live)
        # a train-mode forward moves the running statistics, a step the
        # parameters and the moments
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 2, 512)).astype(engine.dtype()))
        aux = Tensor(rng.standard_normal((2, 2)).astype(engine.dtype()))
        before = [a.copy() for a in live]
        loss = model.forward(x, aux, "train").sum()
        opt.zero_grad()
        loss.backward()
        opt.step(1e-2)
        assert sum(not np.array_equal(a, b) for a, b in zip(live, before)) > len(live) // 2
        assert {k: a.tobytes() for k, a in ck.arrays.items()} == kept


class TestPayloadOrder:
    def test_params_buffers_then_moments_per_parameter(self):
        mcfg, model, opt = small_model_state()
        ck = checkpoint_of(mcfg, model, opt)
        params = [n for n, _ in model.named_parameters()]
        buffers = [n for n, _ in model.named_buffers()]
        want = ([("param", n) for n in params] + [("buffer", n) for n in buffers]
                + [(kind, n) for n in params for kind in ("adam_m", "adam_v")])
        assert [(e["kind"], e["name"]) for e in ck.manifest["index"]] == want


class TestFirstSnapshot:
    """train() takes its first snapshot after epoch 0's validation."""

    def test_first_snapshot_follows_the_first_validation(self, tiny_dataset, monkeypatch):
        events = []
        snapshot, evaluate = trainer._snapshot, trainer.evaluate_model

        def logged(name, fn):
            def call(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(trainer, "_snapshot", logged("snapshot", snapshot))
        monkeypatch.setattr(trainer, "evaluate_model", logged("evaluate", evaluate))
        ck = train(quick_cfg(max_epochs=1), dataset=tiny_dataset)
        assert events == ["evaluate", "snapshot"]
        assert ck.manifest["epoch"] == 0

    def test_nan_score_still_keeps_epoch_0(self, tiny_dataset, monkeypatch):
        # a finite weight matrix with entries near 1e308 can score inf and
        # -inf records, whose mean is NaN
        evaluate = trainer.evaluate_model

        def nan_score(*args, **kwargs):
            return {**evaluate(*args, **kwargs), "score": float("nan")}

        monkeypatch.setattr(trainer, "evaluate_model", nan_score)
        ck = train(quick_cfg(max_epochs=2), dataset=tiny_dataset)
        assert ck.manifest["epoch"] == 0 and len(ck.history) == 2


class TestSeedRule:
    @pytest.mark.parametrize("value", ["-1", "-3", str(-2 ** 70)])
    def test_negative_seed_is_a_config_error(self, value):
        with pytest.raises(ConfigError, match="^seed must be >= 0"):
            config_from_mapping({"seed": value})

    @pytest.mark.parametrize("value", ["0", "7", str(2 ** 100)])
    def test_non_negative_seed_seeds_the_engine(self, value):
        cfg = config_from_mapping({"seed": value})
        engine.seed(cfg.seed)
        assert cfg.seed == int(value)


def bce_float64_round_trip(t, p):
    """evaluate_model's bce as it was: both arrays converted to float64, then
    by Tensor() back to the engine precision."""
    from scatternet.loss import EPS_P
    t, p = Tensor(t.astype(np.float64)), Tensor(p.astype(np.float64))
    pc = T.clip(p, EPS_P, 1.0 - EPS_P)
    per_class = T.add(T.mul(t, T.log(pc)), T.mul(T.sub(1.0, t), T.log(T.sub(1.0, pc))))
    return float(T.mean(T.mul(T.tensor_sum(per_class, axis=-1), -1.0)).data)


class TestEvaluateBce:
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_bytes_of_the_float64_round_trip(self, precision):
        engine.set_precision(precision)
        try:
            mcfg = ModelConfig(n_leads=12, n_classes=2, window=512, heads=2,
                               width_scale=0.25, fc_hidden=8, dropout=0.0)
            model = build_model(mcfg, "baseline")
            recs = make_synthetic_dataset(5, 2, np.random.default_rng(9))
            res = evaluate_model(model, recs, synthetic_weight_matrix(2))
            want = bce_float64_round_trip(res["truth"], res["probs"])
            assert struct.pack("<d", res["bce"]) == struct.pack("<d", want)
        finally:
            engine.set_precision("float32")


def _windows(n, seed=12, window=512):
    merged, table = merged_class_table(synthetic_weight_matrix(2))
    pieces = prepare_pieces(make_synthetic_dataset(n, 2, np.random.default_rng(seed)))
    return [make_window(p, table, merged.k, out_len=window) for p in pieces[:n]]


class TestStackWindows:
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_bytes_equal_np_stack_with_a_short_last_batch(self, precision):
        engine.set_precision(precision)
        try:
            windows = _windows(7)
            source = iter(windows)
            batches = []
            while batch := trainer._stack_windows(source, 3):
                batches.append(batch)
            assert [len(ids) for *_, ids in batches] == [3, 3, 1]
            for i, (x, aux, t, ids) in enumerate(batches):
                chunk = windows[3 * i:3 * i + 3]
                for got, field in ((x, "data"), (aux, "aux"), (t, "target")):
                    want = np.stack([getattr(w, field) for w in chunk], dtype=engine.dtype())
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert ids == [w.record_id for w in chunk]
        finally:
            engine.set_precision("float32")

    def test_each_window_goes_once_copied(self):
        # when window j is drawn, the copier holds window j - 1 at most
        windows = _windows(6)
        refs, held = [], []

        def drawn():
            while windows:
                held.append([r() is not None for r in refs[:-1]])
                w = windows.pop(0)
                refs.append(weakref.ref(w))
                yield w

        x, _, _, ids = trainer._stack_windows(drawn(), 6)
        assert len(ids) == 6 and x.shape[0] == 6
        assert not any(any(alive) for alive in held)


class TestTrainCheckpointTakesTheSnapshot:
    """train() builds its checkpoint from the snapshot's own copies, not from
    copies of them, and writes the bytes from_state's copies would."""

    def test_arrays_are_the_snapshot_and_bytes_match_from_state(self, tiny_dataset,
                                                                 monkeypatch, tmp_path):
        snaps = []
        snapshot = trainer._snapshot

        def kept(*args):
            snaps.append(snapshot(*args))
            return snaps[-1]

        monkeypatch.setattr(trainer, "_snapshot", kept)
        cfg = quick_cfg(max_epochs=1)
        ck = train(cfg, dataset=tiny_dataset)
        snap = snaps[-1]
        for kind, entries in (("param", snap["params"]), ("buffer", snap["buffers"])):
            for name, arr in entries:
                assert np.shares_memory(ck.arrays[f"{kind}:{name}"], arr), name
        for name, m, v in snap["moments"]:
            assert np.shares_memory(ck.arrays[f"adam_m:{name}"], m)
            assert np.shares_memory(ck.arrays[f"adam_v:{name}"], v)
        copied = Checkpoint.from_state(cfg.variant, cfg.model_config(2), cfg,
                                       tuple(ck.manifest["classes"]), ck.manifest["epoch"],
                                       ck.manifest["best_score"], **snap)
        assert not any(np.shares_memory(a, b) for a in copied.arrays.values()
                       for b in ck.arrays.values())
        ck.save(tmp_path / "train.ckpt")
        copied.save(tmp_path / "copied.ckpt")
        assert (tmp_path / "train.ckpt").read_bytes() == (tmp_path / "copied.ckpt").read_bytes()


class TestEvaluateEdges:
    def test_no_records_is_a_data_error(self):
        with pytest.raises(DataError, match="no records") as info:
            evaluate_model(_eval_model(), [], synthetic_weight_matrix(2))
        assert "\n" not in str(info.value)

    def test_records_shorter_than_one_window(self):
        model = _eval_model(window=512)
        wm = synthetic_weight_matrix(2)
        recs = make_synthetic_dataset(3, 2, np.random.default_rng(5))
        recs = [dataclasses.replace(recs[0], signal=recs[0].signal[:, :200]),
                dataclasses.replace(recs[1], signal=recs[1].signal[:, :150:2], fs=250.0),
                dataclasses.replace(recs[2], signal=recs[2].signal[:, :511])]
        got = evaluate_model(model, recs, wm, batch_size=2)
        probs, truth, ids, score = evaluate_all_windows_first(model, recs, wm, 2)
        assert got["ids"] == ids == [r.id for r in recs]
        assert got["probs"].tobytes() == probs.tobytes()
        assert got["truth"].tobytes() == truth.tobytes()
        assert got["score"] == score
        assert np.isfinite(got["probs"]).all()


def _samples_for_500hz_length(fs, m):
    """The fewest samples at fs whose 500 Hz resampling has at least m."""
    n = max(1, int((m - 1) * fs / 500))
    while round((n - 1) / fs * 500) + 1 < m:
        n += 1
    return n


class TestEvaluateSamplingRates:
    """Records at rates other than 500 Hz whose resampled lengths sit at the
    edges: 2 samples, one short of a window, a window, a piece and one more
    than a piece (two pieces)."""

    @pytest.mark.parametrize("fs", [1000.0, 257.0])
    def test_bytes_equal_building_every_window_first(self, fs):
        model = _eval_model(window=512)
        wm = synthetic_weight_matrix(2)
        targets = [2, 511, 512, PIECE_LEN, PIECE_LEN + 1]
        base = make_synthetic_dataset(len(targets), 2, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        recs = [dataclasses.replace(
                    rec, fs=fs, signal=rng.standard_normal(
                        (12, _samples_for_500hz_length(fs, m))).astype(np.float32))
                for rec, m in zip(base, targets)]
        lengths = [resample_to_500(r).signal.shape[1] for r in recs]
        if fs > 500:
            assert lengths == targets
        else:
            # each input step spans about two output steps, so some lengths
            # are skipped; each record lands on the first one at or above
            assert all(m <= n <= m + 1 for m, n in zip(targets, lengths))
        got = evaluate_model(model, recs, wm, batch_size=2)
        probs, truth, ids, score = evaluate_all_windows_first(model, recs, wm, 2)
        assert got["ids"] == ids
        assert len(ids) == len(recs) + 1  # the last record gives two pieces
        assert got["probs"].tobytes() == probs.tobytes()
        assert got["truth"].tobytes() == truth.tobytes()
        assert got["score"] == score
        assert np.isfinite(got["probs"]).all()

    def test_rate_leaving_one_sample_is_a_data_error(self):
        rec = make_synthetic_dataset(1, 2, np.random.default_rng(8))[0]
        rec = dataclasses.replace(rec, fs=2000.0, signal=rec.signal[:, :2])
        assert resample_to_500(rec).signal.shape[1] == 1
        with pytest.raises(DataError, match="1 sample at 500 Hz") as info:
            evaluate_model(_eval_model(), [rec], synthetic_weight_matrix(2))
        assert "\n" not in str(info.value)
