"""The benchmark's patch points.

``bench/tracing.py`` and ``bench/run.py`` wrap library functions and methods
by the names the library binds them under. These tests load both files in
process and check that each wrapper reaches the name the library calls and
that uninstalling puts every original object back.
"""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

import scatternet  # noqa: F401  (loads every module the tracer walks)
from scatternet import cli, engine, gradsuite  # noqa: F401
from scatternet.model import ScatterBlock, build_model, tiny_config
from scatternet.tensor import Tensor

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    tracing = _load("tracing")
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # run.py imports it
    return tracing, _load("run")


def _bindings() -> dict:
    """Every attribute of the scatternet modules and of the classes they define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "scatternet":
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, obj in vars(value).items():
                    out[(name, attr, member)] = obj
    return out


def _changed(before: dict, after: dict) -> set:
    return {key for key in before.keys() | after.keys()
            if before.get(key) is not after.get(key)}


TRACED = {
    ("scatternet.model", "scatter_forward"),
    ("scatternet.trainer", "evaluate_model"),
    ("scatternet.trainer", "_stack_windows"),
    ("scatternet.trainer", "_snapshot"),
    ("scatternet.trainer", "Adam", "step"),
    ("scatternet.trainer", "Adam", "zero_grad"),
    ("scatternet.trainer", "Checkpoint", "save"),
    ("scatternet.trainer", "Checkpoint", "load"),
    ("scatternet.tensor", "Tensor", "backward"),
    ("scatternet.model", "Model", "forward"),
    ("scatternet.pipeline", "make_window"),
}


def test_tracer_restores_every_binding(bench):
    tracing, _ = bench
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = _changed(before, _bindings())
    finally:
        tracer.uninstall()
    assert TRACED <= patched
    assert {("scatternet.tensor", op) for op in tracing._OP_OF} <= patched
    assert _changed(before, _bindings()) == set()


@pytest.mark.parametrize("kind,names", [
    ("adam", {("scatternet.trainer", "Adam", "step"),
              ("scatternet.trainer", "evaluate_model")}),
    ("forward", {("scatternet.trainer", "_forward_probs")}),
])
def test_step_clock_restores_every_binding(bench, kind, names):
    _, run = bench
    before = _bindings()
    clock = run.StepClock(kind)
    clock.install()
    try:
        patched = _changed(before, _bindings())
    finally:
        clock.uninstall()
    assert patched == names
    assert _changed(before, _bindings()) == set()


def test_tracer_counts_scatter_calls(bench):
    tracing, _ = bench
    engine.seed(0)
    model = build_model(tiny_config(2), "scatter")
    blocks = sum(isinstance(b, ScatterBlock) for stage in model.stages for b in stage)
    x = Tensor(np.zeros((1, 12, model.config.window)))
    aux = Tensor(np.zeros((1, 2)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with engine.no_grad():
            model.forward(x, aux, "eval")
    finally:
        tracer.uninstall()
    assert blocks > 0
    assert tracer.metrics()["scatter.calls"] == 2 * blocks
