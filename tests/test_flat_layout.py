"""The flat-array layout and Adam's two paths over it.

``flat_views`` lays arrays end to end in list order. Adam updates a model's
parameter arena as one array when the parameters are exactly those views
and every gradient fits; otherwise it passes each parameter as it is. Either
way the bytes equal ``adam_step`` run on per-parameter copies.
"""

import numpy as np
import pytest

from scatternet import engine, trainer
from scatternet.model import build_model, flat_views, tiny_config
from scatternet.tensor import Tensor
from scatternet.trainer import Adam, adam_step


@pytest.fixture(autouse=True)
def _reset():
    engine.seed(0)
    yield


def _same_view(a, b):
    return (a.base is b.base and a.dtype == b.dtype and a.shape == b.shape
            and a.strides == b.strides and a.ctypes.data == b.ctypes.data)


@pytest.fixture
def adam_calls(monkeypatch):
    """The params list of every ``trainer.adam_step`` call, in call order."""
    calls = []
    real = trainer.adam_step

    def recording(params, grads, state, *args, **kwargs):
        calls.append(list(params))
        return real(params, grads, state, *args, **kwargs)

    monkeypatch.setattr(trainer, "adam_step", recording)
    return calls


def _step_against_reference(named, grads, lr=3e-3):
    """One Adam step over ``named`` with ``grads``, checked byte for byte
    against ``adam_step`` on per-parameter copies."""
    _check_step(Adam(named), named, grads, lr)


def _check_step(opt, named, grads, lr=3e-3):
    ref_params = [p.data.copy() for _, p in named]
    ref_state = {"m": [m.copy() for _, m, _ in opt.moments()],
                 "v": [v.copy() for _, _, v in opt.moments()],
                 "t": opt.step_count}
    for (_, p), g in zip(named, grads):
        p.grad = g
    opt.step(lr)
    adam_step(ref_params, grads, ref_state, lr)
    for (_, p), (_, m, v), rp, rm, rv in zip(named, opt.moments(), ref_params,
                                             ref_state["m"], ref_state["v"]):
        assert p.data.tobytes() == rp.tobytes()
        assert m.tobytes() == rm.tobytes()
        assert v.tobytes() == rv.tobytes()
    assert opt.step_count == ref_state["t"]


def _grads(named, rng):
    return [rng.standard_normal(p.shape).astype(p.data.dtype) for _, p in named]


class TestFlatViews:
    def test_views_tile_the_flat_array_in_order(self):
        shapes = [(2, 3), (4,), (), (1, 2, 2), (0,), (5,)]
        flat = np.arange(sum(int(np.prod(s)) for s in shapes), dtype=np.float32)
        views = flat_views(flat, shapes)
        assert [v.shape for v in views] == shapes
        offset = 0
        for v in views:
            assert v.base is flat and v.flags.c_contiguous
            if v.size:  # numpy may point an empty view anywhere in its base
                assert v.ctypes.data == flat.ctypes.data + offset * flat.itemsize
            offset += v.size
        assert offset == flat.size
        assert np.concatenate(views, axis=None).tobytes() == flat.tobytes()

    def test_model_parameters_are_the_views_of_its_arena(self):
        named = build_model(tiny_config(4), "scatter").named_parameters()
        arena = named[0][1].data.base
        assert arena.ndim == 1 and arena.size == sum(p.size for _, p in named)
        views = flat_views(arena, [p.shape for _, p in named])
        assert all(_same_view(p.data, v) for (_, p), v in zip(named, views))


class TestAdamPaths:
    def test_model_step_updates_the_arena_in_one_call(self, adam_calls):
        named = build_model(tiny_config(4), "scatter").named_parameters()
        arena = named[0][1].data.base
        _step_against_reference(named, _grads(named, np.random.default_rng(31)))
        assert len(adam_calls) == 1
        assert len(adam_calls[0]) == 1 and adam_calls[0][0] is arena

    def test_out_of_order_views_go_one_by_one(self, adam_calls):
        shapes = [(3, 2), (5,), (2, 2, 2), (7,)]
        flat = engine.rng().standard_normal(sum(int(np.prod(s)) for s in shapes))
        flat = flat.astype(engine.dtype())
        tensors = [Tensor(v, requires_grad=True) for v in flat_views(flat, shapes)]
        assert all(t.data.base is flat for t in tensors)
        named = [(f"p{i}", t) for i, t in enumerate(tensors)][::-1]
        _step_against_reference(named, _grads(named, np.random.default_rng(32)))
        assert len(adam_calls) == 1 and len(adam_calls[0]) == len(named)

    def test_rebound_parameter_goes_one_by_one(self, adam_calls):
        named = build_model(tiny_config(4), "scatter").named_parameters()
        rng = np.random.default_rng(33)
        opt = Adam(named)
        _check_step(opt, named, _grads(named, rng))
        p = named[len(named) // 2][1]
        p.data = p.data.copy()
        _check_step(opt, named, _grads(named, rng))
        assert [len(c) for c in adam_calls] == [1, len(named)]

    def test_float64_gradient_on_float32_arena_goes_one_by_one(self, adam_calls):
        named = build_model(tiny_config(4), "scatter").named_parameters()
        assert named[0][1].data.dtype == np.float32
        grads = _grads(named, np.random.default_rng(34))
        grads[3] = grads[3].astype(np.float64)
        _step_against_reference(named, grads)
        assert len(adam_calls) == 1 and len(adam_calls[0]) == len(named)
