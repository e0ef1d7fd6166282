"""Optimizer, plateau schedule, checkpoint format, evaluation, and the
training loop."""

import json
import struct

import numpy as np
import pytest

from scatternet import engine, trainer
from scatternet.engine import ConfigError, DataError, NumericalAbort, ShapeError
from scatternet.loss import identity_weight_matrix
from scatternet.model import ModelConfig, build_model, tiny_config
from scatternet.pipeline import make_synthetic_dataset, synthetic_weight_matrix
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
