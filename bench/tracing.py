"""Per-layer tracing from outside the program.

A ``Tracer`` replaces public functions and methods of the scatternet modules
with timing wrappers, wherever a module binds them, and puts the originals
back on ``uninstall``. Spans and counts live in memory until ``metrics`` is
read. Nothing in the library knows it is being traced.

Accounting rules:

* tensor ops: ``fwd_ms`` is the wall time of the op call; the backward
  closure each op leaves on its output is wrapped, so ``bwd_ms`` is the time
  spent in that closure while ``Tensor.backward`` walks the graph.
* model modules: a region switches when a top-level child of the model
  starts its forward; the time until the next switch is the region's
  ``fwd_ms`` (glue ops such as the stem's swish and max-pool land in the
  region that precedes them; pooling and flattening after attention count
  as classifier). Backward closures keep the region they were
  created in, which gives the module's ``bwd_ms``.
* scatter and combined loss: inclusive forward time; backward is the sum of
  the closures created while they ran.
* conv1d ``gflop``/``mbytes`` are computed from shapes, not measured: forward
  reads x and w and writes y; backward reads g, x, w and writes gx, gw, at
  twice the forward flops.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

CONV_KERNELS = (1, 3, 7, 9)
OPS = tuple(f"conv1d_k{k}" for k in CONV_KERNELS) + (
    "batchnorm1d_train", "batchnorm1d_eval", "swish", "maxpool1d", "matmul",
    "softmax", "adaptive_avgpool1d", "elementwise", "shape")
MODULES = ("stem", "stage1", "stage2", "stage3", "stage4", "head",
           "attention", "classifier")

# tensor function name -> op label (conv1d and batchnorm1d are split below)
_OP_OF = {
    "swish": "swish", "maxpool1d": "maxpool1d", "matmul": "matmul",
    "softmax": "softmax", "adaptive_avgpool1d": "adaptive_avgpool1d",
    "add": "elementwise", "sub": "elementwise", "mul": "elementwise",
    "div": "elementwise", "log": "elementwise", "exp": "elementwise",
    "sqrt": "elementwise", "clip": "elementwise", "sigmoid": "elementwise",
    "dropout": "elementwise", "tensor_sum": "elementwise",
    "reshape": "shape", "transpose": "shape", "concat": "shape",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for op in OPS:
        units[f"tensor.{op}.fwd_ms"] = "ms"
        units[f"tensor.{op}.bwd_ms"] = "ms"
        units[f"tensor.{op}.calls"] = "count"
    units.update({"tensor.backward.ms": "ms", "tensor.graph_nodes": "count",
                  "tensor.graph_nodes_per_step": "count",
                  "tensor.op_calls_per_step": "count"})
    for k in CONV_KERNELS:
        units[f"tensor.conv1d_k{k}.gflop"] = "GFLOP"
        units[f"tensor.conv1d_k{k}.mbytes"] = "MB"
    units.update({"scatter.fwd_ms": "ms", "scatter.bwd_ms": "ms",
                  "scatter.calls": "count"})
    for m in MODULES:
        units[f"model.{m}.fwd_ms"] = "ms"
        units[f"model.{m}.bwd_ms"] = "ms"
    units.update({
        "trainer.adam_step.ms": "ms", "trainer.zero_grad.ms": "ms",
        "trainer.stack_windows.ms": "ms", "trainer.snapshot.ms": "ms",
        "trainer.evaluate_model.s": "s", "trainer.checkpoint_save.ms": "ms",
        "trainer.checkpoint_load.ms": "ms", "trainer.checkpoint.mbytes": "MB",
        "pipeline.load_dataset.s": "s", "pipeline.prepare_pieces.s": "s",
        "pipeline.resample.calls": "count", "pipeline.pieces": "count",
        "pipeline.make_window.ms": "ms", "pipeline.augment.ms": "ms",
        "pipeline.windows": "count",
        "loss.combined_loss.fwd_ms": "ms", "loss.combined_loss.bwd_ms": "ms",
        "loss.discrete_score.ms": "ms",
        "engine.derived_rng.calls": "count", "engine.derived_rng.ms": "ms",
        "trace.overhead_pct": "%", "trace.pass_s": "s",
    })
    return units


def _data(x):
    return getattr(x, "data", x)


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def replace_function(self, func, wrapper) -> None:
        """Rebind ``func`` to ``wrapper`` in every scatternet module that binds it."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "scatternet":
                continue
            for name, value in list(vars(mod).items()):
                if value is func:
                    self.set(mod, name, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Wraps the scatternet layers for one traced pass."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self._patches = Patches()
        self._region: str | None = None
        self._region_t0 = 0.0
        self._regions: dict[int, str] = {}
        self._layers: list[str] = []
        self._steps = 0
        self._forwards = 0
        self._backwards = 0
        self._op_calls = 0

    def uninstall(self) -> None:
        self._switch(None)
        self._patches.undo()

    # -- accounting helpers -----------------------------------------------------

    def _switch(self, region: str | None) -> None:
        now = _clock()
        if self._region is not None:
            self.values[f"model.{self._region}.fwd_ms"] += (now - self._region_t0) * 1e3
        self._region = region
        self._region_t0 = now

    def _timed(self, func, key: str, scale: float = 1e3, count: str | None = None):
        values = self.values

        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return func(*args, **kwargs)
            finally:
                values[key] += (_clock() - t0) * scale
                if count:
                    values[count] += 1

        return wrapper

    def _layer(self, func, layer: str, calls: str | None = None):
        """Inclusive forward time; closures created inside are tagged ``layer``."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._layers.append(layer)
            t0 = _clock()
            try:
                return func(*args, **kwargs)
            finally:
                tracer.values[f"{layer}.fwd_ms"] += (_clock() - t0) * 1e3
                tracer._layers.pop()
                if calls:
                    tracer.values[calls] += 1

        return wrapper

    def _backward_closure(self, closure, op: str, extra: dict[str, float]):
        tags = [f"tensor.{op}.bwd_ms"]
        if self._region is not None:
            tags.append(f"model.{self._region}.bwd_ms")
        tags.extend(f"{layer}.bwd_ms" for layer in self._layers)
        values = self.values

        def backward(g):
            t0 = _clock()
            closure(g)
            dt = (_clock() - t0) * 1e3
            for tag in tags:
                values[tag] += dt
            for key, amount in extra.items():
                values[key] += amount
            values["tensor.graph_nodes"] += 1

        return backward

    def _op(self, func, label):
        tracer = self

        def wrapper(*args, **kwargs):
            op = label(args, kwargs)
            t0 = _clock()
            out = func(*args, **kwargs)
            dt = (_clock() - t0) * 1e3
            values = tracer.values
            values[f"tensor.{op}.fwd_ms"] += dt
            values[f"tensor.{op}.calls"] += 1
            tracer._op_calls += 1
            extra = tracer._conv_work(op, args, out) if op.startswith("conv1d") else {}
            if out._backward is not None:
                out._backward = tracer._backward_closure(out._backward, op, extra)
            return out

        return wrapper

    def _conv_work(self, op: str, args, out) -> dict[str, float]:
        """Computed forward work now; returns the backward work for its closure."""
        x, w, y = _data(args[0]), _data(args[1]), out.data
        bsz, co, l_out = y.shape
        _, ci, k = w.shape
        flops = 2.0 * bsz * co * ci * k * l_out
        item = y.itemsize
        self.values[f"tensor.{op}.gflop"] += flops / 1e9
        self.values[f"tensor.{op}.mbytes"] += item * (x.size + w.size + y.size) / 1e6
        return {f"tensor.{op}.gflop": 2.0 * flops / 1e9,
                f"tensor.{op}.mbytes": item * (y.size + 2 * x.size + 2 * w.size) / 1e6}

    # -- install -------------------------------------------------------------------

    def install(self) -> None:
        from scatternet import engine, loss, model, pipeline, scatter, trainer
        from scatternet import tensor as T

        for name, op in _OP_OF.items():
            self._patches.replace_function(getattr(T, name), self._op(getattr(T, name),
                                                               lambda a, kw, op=op: op))
        self._patches.replace_function(T.conv1d, self._op(
            T.conv1d, lambda a, kw: f"conv1d_k{_data(a[1]).shape[2]}"))
        self._patches.replace_function(T.batchnorm1d, self._op(
            T.batchnorm1d, lambda a, kw: "batchnorm1d_train"
            if (kw["training"] if "training" in kw else a[5]) else "batchnorm1d_eval"))
        self._install_backward(T.Tensor)

        self._patches.replace_function(scatter.scatter_forward, self._layer(
            scatter.scatter_forward, "scatter", calls="scatter.calls"))
        self._patches.replace_function(loss.combined_loss, self._layer(
            loss.combined_loss, "loss.combined_loss"))
        self._patches.replace_function(loss.discrete_challenge_score, self._timed(
            loss.discrete_challenge_score, "loss.discrete_score.ms"))
        self._patches.replace_function(engine.derived_rng, self._timed(
            engine.derived_rng, "engine.derived_rng.ms", count="engine.derived_rng.calls"))

        self._install_model(model)
        self._install_trainer(trainer)
        self._install_pipeline(pipeline)

    def _install_backward(self, tensor_cls) -> None:
        timed = self._timed(tensor_cls.backward, "tensor.backward.ms")
        tracer = self

        def backward(self_, *args, **kwargs):
            tracer._backwards += 1
            return timed(self_, *args, **kwargs)

        self._patches.set(tensor_cls, "backward", backward)

    def _install_model(self, model) -> None:
        tracer = self

        def regions_of(m) -> dict[int, str]:
            regions = {id(m.stem): "stem", id(m.stem_bn): "stem",
                       id(m.head): "head", id(m.head_bn): "head",
                       id(m.attention): "attention",
                       id(m.fc1): "classifier", id(m.fc2): "classifier"}
            for i, blocks in enumerate(m.stages, start=1):
                for block in blocks:
                    regions[id(block)] = f"stage{i}"
            return regions

        model_forward = model.Model.forward

        def forward(self_, *args, **kwargs):
            tracer._regions = regions_of(self_)
            tracer._forwards += 1
            try:
                return model_forward(self_, *args, **kwargs)
            finally:
                tracer._switch(None)
                tracer._regions = {}

        self._patches.set(model.Model, "forward", forward)

        for cls in (model.Conv1d, model.BatchNorm1d, model.Linear,
                    model.BottleneckBlock, model.ScatterBlock, model.AttentionBlock):
            self._patches.set(cls, "forward", self._region_forward(cls.forward))

    def _region_forward(self, inner):
        tracer = self

        def forward(self_, *args, **kwargs):
            region = tracer._regions.get(id(self_))
            if region is not None and region != tracer._region:
                tracer._switch(region)
            out = inner(self_, *args, **kwargs)
            if region == "attention":
                # pooling, flatten and concat after attention feed the classifier
                tracer._switch("classifier")
            return out

        return forward

    def _install_trainer(self, trainer) -> None:
        tracer = self
        self._patches.set(trainer.Adam, "zero_grad", self._timed(trainer.Adam.zero_grad,
                                                         "trainer.zero_grad.ms"))
        adam_step = self._timed(trainer.Adam.step, "trainer.adam_step.ms")

        def step(self_, lr):
            tracer._steps += 1
            return adam_step(self_, lr)

        self._patches.set(trainer.Adam, "step", step)
        self._patches.replace_function(trainer._stack_windows, self._timed(
            trainer._stack_windows, "trainer.stack_windows.ms"))
        self._patches.replace_function(trainer._snapshot, self._timed(
            trainer._snapshot, "trainer.snapshot.ms"))
        self._patches.replace_function(trainer.evaluate_model, self._timed(
            trainer.evaluate_model, "trainer.evaluate_model.s", scale=1.0))

        save = trainer.Checkpoint.save

        def save_wrapper(self_, path):
            t0 = _clock()
            save(self_, path)
            tracer.values["trainer.checkpoint_save.ms"] += (_clock() - t0) * 1e3
            tracer.values["trainer.checkpoint.mbytes"] = os.path.getsize(path) / 1e6

        self._patches.set(trainer.Checkpoint, "save", save_wrapper)
        load = trainer.Checkpoint.__dict__["load"].__func__
        self._patches.set(trainer.Checkpoint, "load", classmethod(
            self._timed(load, "trainer.checkpoint_load.ms")))

    def _install_pipeline(self, pipeline) -> None:
        tracer = self
        self._patches.replace_function(pipeline.load_dataset, self._timed(
            pipeline.load_dataset, "pipeline.load_dataset.s", scale=1.0))

        prepare = pipeline.prepare_pieces

        def prepare_pieces(*args, **kwargs):
            t0 = _clock()
            pieces = prepare(*args, **kwargs)
            tracer.values["pipeline.prepare_pieces.s"] += _clock() - t0
            tracer.values["pipeline.pieces"] += len(pieces)
            return pieces

        self._patches.replace_function(prepare, prepare_pieces)

        resample = pipeline.resample_to_500

        def resample_to_500(rec, *args, **kwargs):
            if rec.fs != pipeline.TARGET_FS:
                tracer.values["pipeline.resample.calls"] += 1
            return resample(rec, *args, **kwargs)

        self._patches.replace_function(resample, resample_to_500)
        self._patches.replace_function(pipeline.make_window, self._timed(
            pipeline.make_window, "pipeline.make_window.ms", count="pipeline.windows"))
        self._patches.replace_function(pipeline.augment, self._timed(
            pipeline.augment, "pipeline.augment.ms"))

    # -- results ---------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Totals over the traced pass, for every name in ``metric_units``."""
        out = {name: float(self.values.get(name, 0.0)) for name in metric_units()}
        steps = self._steps or self._forwards
        if steps:
            out["tensor.op_calls_per_step"] = self._op_calls / steps
        if self._backwards:
            out["tensor.graph_nodes_per_step"] = out["tensor.graph_nodes"] / self._backwards
        return out
