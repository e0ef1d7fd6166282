"""Bottleneck residual encoder over 12-lead windows, in two variants.

The baseline stacks a strided stem, four bottleneck stages, a strided 1x1
head conv, a residual multi-head attention block, adaptive average pooling
to 8 positions, and a two-layer classifier fed the pooled features plus two
auxiliary scalars (normalized age, sex code). The scatter variant replaces
the three downsampling residual blocks (first block of stages 2 to 4) with
parameter-free scatter blocks; everything else is shared.

Layer geometry is declared as LayerSpec rows first and instantiated from
them, so tests can pin the architecture table without building weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import engine
from .engine import ConfigError, ShapeError, WindowTooShort, is_finite_number
from .scatter import scatter_forward
from . import tensor as T
from .tensor import Tensor

_STAGE_BLOCKS = (3, 4, 6, 3)
_STAGE_OUT = (48, 96, 192, 384)
_STEM_OUT = 24
_HEAD_OUT = 96
_POOL_BINS = 8
# The shortest window: the stem, the maxpool, the three stride-2 stages and
# the head each halve the length, rounding up, and must leave _POOL_BINS
# positions for the pool.
MIN_WINDOW = 2 ** 6 * (_POOL_BINS - 1) + 1

# What each ModelConfig field must hold, and how to say so. ModelConfig and
# checkpoint manifests check this one table. Any window length passes here;
# TrainConfig bounds it by MIN_WINDOW.
_MODEL_VALUES = {
    **dict.fromkeys(("n_leads", "n_classes", "window", "heads", "aux_features",
                     "fc_hidden"),
                    (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1,
                     "an integer >= 1")),
    "dropout": (lambda v: is_finite_number(v) and 0 <= v < 1, "a number in [0, 1)"),
    "width_scale": (lambda v: is_finite_number(v) and v > 0, "a finite number > 0"),
    "pos_encoding": (lambda v: isinstance(v, bool), "a boolean"),
}


@dataclass(frozen=True)
class ModelConfig:
    n_leads: int = 12
    n_classes: int = 24
    window: int = 5120
    heads: int = 12
    dropout: float = 0.25
    aux_features: int = 2
    fc_hidden: int = 256
    width_scale: float = 1.0
    pos_encoding: bool = True

    def __post_init__(self) -> None:
        for name, (valid, what) in _MODEL_VALUES.items():
            value = getattr(self, name)
            if not valid(value):
                raise ConfigError(f"{name} must be {what}, got {value!r}")


def tiny_config(n_classes: int = 24) -> ModelConfig:
    """Desk-scale preset: quarter widths, 1024-sample window, small classifier."""
    return ModelConfig(n_classes=n_classes, window=1024, width_scale=0.25,
                       fc_hidden=64)


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    repeat: int = 1
    w1: int = 0
    w2: int = 0


def _scaled(value: int, scale: float) -> int:
    return max(1, round(value * scale))


def layer_specs(config: ModelConfig, variant: str) -> list[LayerSpec]:
    """Declarative architecture table for a config/variant pair."""
    if variant not in ("baseline", "scatter"):
        raise ConfigError(f"variant must be baseline or scatter, got {variant!r}")
    stem = _scaled(_STEM_OUT, config.width_scale)
    outs = [_scaled(o, config.width_scale) for o in _STAGE_OUT]
    head = _scaled(_HEAD_OUT, config.width_scale)
    specs = [
        LayerSpec("conv1d.1", "conv", config.n_leads, stem, kernel=7, stride=2),
        LayerSpec("maxpool.1", "maxpool", stem, stem, kernel=3, stride=2),
    ]
    c_in = stem
    for i, (out, blocks) in enumerate(zip(outs, _STAGE_BLOCKS), start=1):
        w1 = max(1, out // 16)
        stride = 1 if i == 1 else 2
        kind = "stage"
        if variant == "scatter" and stride == 2:
            kind = "scatter_stage"
        specs.append(LayerSpec(f"residual.{i}", kind, c_in, out, kernel=3,
                               stride=stride, repeat=blocks, w1=w1, w2=2 * w1))
        c_in = out
    specs.extend([
        LayerSpec("conv1d.2", "conv", c_in, head, kernel=1, stride=2),
        LayerSpec("attention.1", "attention", head, head),
        LayerSpec("avgpool", "avgpool", head, head, kernel=_POOL_BINS),
        LayerSpec("fc.1", "linear", head * _POOL_BINS + config.aux_features,
                  config.fc_hidden),
        LayerSpec("fc.2", "linear", config.fc_hidden, config.n_classes),
    ])
    return specs


# -- module plumbing --------------------------------------------------------------


def flat_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of ``flat`` laid end to end in list order, each in its shape."""
    sizes = [math.prod(shape) for shape in shapes]
    return [flat[end - size:end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, accumulate(sizes))]


class Module:
    """Explicit-registration parameter container; order is construction order."""

    def __init__(self) -> None:
        self._params: list[tuple[str, Tensor]] = []
        self._buffers: list[tuple[str, np.ndarray]] = []
        self._children: list[tuple[str, "Module"]] = []

    def _register(self, name: str, t: Tensor) -> Tensor:
        self._params.append((name, t))
        return t

    def _register_buffer(self, name: str, a: np.ndarray) -> np.ndarray:
        self._buffers.append((name, a))
        return a

    def _add_child(self, name: str, child: "Module") -> "Module":
        self._children.append((name, child))
        return child

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = [(prefix + n, t) for n, t in self._params]
        for name, child in self._children:
            out.extend(child.named_parameters(prefix + name + "."))
        return out

    def named_buffers(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        out = [(prefix + n, a) for n, a in self._buffers]
        for name, child in self._children:
            out.extend(child.named_buffers(prefix + name + "."))
        return out


def _by_rows(f, inputs: tuple[Tensor, ...], mode: str, row_bytes: int) -> Tensor:
    """f(*inputs), where f maps batch rows to batch rows.

    In training, or when a graph is recorded, f runs once on the whole
    batch. Otherwise it runs on chunks of as many rows as T._CHUNK_BYTES
    holds at ``row_bytes`` a row (graph-free views, no copies), and each
    chunk's output goes into its rows of one array, so f's intermediates are
    held for one chunk at a time."""
    bsz = inputs[0].shape[0]
    rows = bsz
    if mode == "eval" and not engine.grad_enabled():
        rows = max(1, T._CHUNK_BYTES // row_bytes)
    if rows >= bsz:
        return f(*inputs)
    out = None
    for r0 in range(0, bsz, rows):
        part = f(*(Tensor._result(t.data[r0:r0 + rows], (), None) for t in inputs)).data
        if out is None:
            out = np.empty((bsz,) + part.shape[1:], dtype=part.dtype)
        out[r0:r0 + rows] = part
    return Tensor._result(out, (), None)


def _kaiming_uniform(shape: tuple[int, ...], fan_in: int) -> Tensor:
    limit = math.sqrt(6.0 / fan_in)
    data = engine.rng().uniform(-limit, limit, size=shape)
    return Tensor(data, requires_grad=True)


class Conv1d(Module):
    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int = 1,
                 padding: int = 0) -> None:
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.w = self._register("w", _kaiming_uniform((c_out, c_in, kernel),
                                                      c_in * kernel))
        self.b = self._register("b", Tensor(np.zeros(c_out), requires_grad=True))

    def forward(self, x: Tensor, mode: str, bn: BatchNorm1d, skip: Tensor | None = None,
                act: bool = True) -> Tensor:
        """This conv, then ``bn``, then ``skip +``, then swish when ``act``, as
        one T.conv_bn_act node."""
        return T.conv_bn_act(x, self.w, self.b, bn.gamma, bn.beta, bn.running_mean,
                             bn.running_var, training=(mode == "train"),
                             stride=self.stride, padding=self.padding, skip=skip,
                             act=act)


def _spec_conv(spec: LayerSpec) -> Conv1d:
    """The conv of a "conv" spec row, padded by kernel // 2 on each side."""
    return Conv1d(spec.in_channels, spec.out_channels, spec.kernel,
                  stride=spec.stride, padding=spec.kernel // 2)


class BatchNorm1d(Module):
    def __init__(self, channels: int) -> None:
        super().__init__()
        self.gamma = self._register("gamma", Tensor(np.ones(channels), requires_grad=True))
        self.beta = self._register("beta", Tensor(np.zeros(channels), requires_grad=True))
        self.running_mean = self._register_buffer(
            "running_mean", np.zeros(channels, dtype=engine.dtype()))
        self.running_var = self._register_buffer(
            "running_var", np.ones(channels, dtype=engine.dtype()))

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return T.batchnorm1d(x, self.gamma, self.beta, self.running_mean,
                             self.running_var, training=(mode == "train"))


class Linear(Module):
    def __init__(self, f_in: int, f_out: int) -> None:
        super().__init__()
        self.w = self._register("w", _kaiming_uniform((f_in, f_out), f_in))
        self.b = self._register("b", Tensor(np.zeros(f_out), requires_grad=True))

    def forward(self, x: Tensor, mode: str) -> Tensor:
        del mode
        return T.linear(x, self.w, self.b)


class BottleneckBlock(Module):
    """conv1-bn-swish, conv3(stride)-bn-swish, conv1-bn; swish after the sum."""

    def __init__(self, c_in: int, c_out: int, w1: int, w2: int, stride: int) -> None:
        super().__init__()
        self.conv1 = self._add_child("conv1", Conv1d(c_in, w1, 1))
        self.bn1 = self._add_child("bn1", BatchNorm1d(w1))
        self.conv2 = self._add_child("conv2", Conv1d(w1, w2, 3, stride=stride, padding=1))
        self.bn2 = self._add_child("bn2", BatchNorm1d(w2))
        self.conv3 = self._add_child("conv3", Conv1d(w2, c_out, 1))
        self.bn3 = self._add_child("bn3", BatchNorm1d(c_out))
        self.proj = None
        self.proj_bn = None
        if stride != 1 or c_in != c_out:
            self.proj = self._add_child("proj", Conv1d(c_in, c_out, 1, stride=stride))
            self.proj_bn = self._add_child("proj_bn", BatchNorm1d(c_out))

    def residual_sum(self, x: Tensor, mode: str, act: bool = False) -> Tensor:
        """skip + bn3(conv3(...)); with ``act``, the block's output."""
        h = self.conv1.forward(x, mode, self.bn1)
        h = self.conv2.forward(h, mode, self.bn2)
        skip = x
        if self.proj is not None:
            skip = self.proj.forward(x, mode, self.proj_bn, act=False)
        return self.conv3.forward(h, mode, self.bn3, skip=skip, act=act)

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return self.residual_sum(x, mode, act=True)


class ScatterBlock(Module):
    """Downsampling block with the strided convs replaced by scatter layers.

    Main path: conv1-bn, scatter-bn, conv1-bn, swish. Skip path: scatter-bn.
    The swish sits before the sum, on the main path only, and there is no
    activation after the sum. Each scatter-bn is one scatter_forward node; the
    skip path's node also adds the main path.
    """

    def __init__(self, c_in: int, c_out: int, w1: int, w2: int) -> None:
        super().__init__()
        if c_out != 2 * c_in:
            raise ConfigError(
                f"scatter block needs out = 2*in, got {c_in} -> {c_out}")
        if w2 != 2 * w1:
            raise ConfigError(f"scatter block needs w2 = 2*w1, got {w1}, {w2}")
        self.conv1 = self._add_child("conv1", Conv1d(c_in, w1, 1))
        self.bn1 = self._add_child("bn1", BatchNorm1d(w1))
        self.bn_mid = self._add_child("bn_mid", BatchNorm1d(w2))
        self.conv2 = self._add_child("conv2", Conv1d(w2, c_out, 1))
        self.bn2 = self._add_child("bn2", BatchNorm1d(c_out))
        self.skip_bn = self._add_child("skip_bn", BatchNorm1d(c_out))

    def forward(self, x: Tensor, mode: str) -> Tensor:
        train = mode == "train"
        h = self.conv1.forward(x, mode, self.bn1, act=False)
        bn = self.bn_mid
        h = scatter_forward(h, bn.gamma, bn.beta, bn.running_mean, bn.running_var,
                            training=train)
        h = self.conv2.forward(h, mode, self.bn2)
        bn = self.skip_bn
        return scatter_forward(x, bn.gamma, bn.beta, bn.running_mean, bn.running_var,
                               training=train, skip=h)


class AttentionBlock(Module):
    """Residual multi-head scaled dot-product self-attention over time.

    Input (B, C, T) is transposed to time-major, gets a fixed sinusoidal
    positional encoding added (when enabled), runs through learned q/k/v and
    output projections with C/heads dims per head, and the result is added
    back to the original input (the skip bypasses the encoding).
    """

    def __init__(self, channels: int, heads: int, pos_encoding: bool = True) -> None:
        super().__init__()
        if channels % heads != 0:
            raise ConfigError(
                f"attention needs channels divisible by heads, got {channels}/{heads}")
        self.channels = channels
        self.heads = heads
        self.pos_encoding = pos_encoding
        self.q = self._add_child("q", Linear(channels, channels))
        self.k = self._add_child("k", Linear(channels, channels))
        self.v = self._add_child("v", Linear(channels, channels))
        self.out = self._add_child("out", Linear(channels, channels))

    def _encoding(self, t_len: int) -> np.ndarray:
        # pe[t, 2i] = sin(t / 10000^(2i/C)), pe[t, 2i+1] = cos of the same angle
        pos = np.arange(t_len, dtype=np.float64)[:, None]
        i2 = np.arange(0, self.channels, 2, dtype=np.float64)[None, :]
        angle = pos / np.power(10000.0, i2 / self.channels)
        pe = np.zeros((t_len, self.channels), dtype=np.float64)
        pe[:, 0::2] = np.sin(angle)
        pe[:, 1::2] = np.cos(angle)[:, : self.channels // 2]
        return pe.astype(engine.dtype())

    def forward(self, x: Tensor, mode: str) -> Tensor:
        b, c, t_len = x.shape
        if c != self.channels:
            raise ShapeError(f"attention expects {self.channels} channels, got {c}")
        dh = c // self.heads
        xt = T.transpose(x, (0, 2, 1))               # (B, T, C)
        attended_in = xt
        if self.pos_encoding:
            attended_in = T.add(xt, Tensor(self._encoding(t_len)))
        flat = T.reshape(attended_in, (b * t_len, c))

        def split(proj: Linear) -> Tensor:
            h = proj.forward(flat, "eval")
            h = T.reshape(h, (b, t_len, self.heads, dh))
            return T.transpose(h, (0, 2, 1, 3))      # (B, H, T, dh)

        def attend(q: Tensor, kt: Tensor, v: Tensor) -> Tensor:
            # the scores are not named, so without a graph they are freed as
            # soon as softmax has made the weights
            weights = T.softmax(T.mul(T.matmul(q, kt), 1.0 / math.sqrt(dh)), axis=-1)
            return T.matmul(weights, v)

        # the projections run at full batch; each (b, h) matrix product and
        # softmax row is the same whichever rows share its chunk
        q, k, v = split(self.q), split(self.k), split(self.v)
        ctx = _by_rows(attend, (q, T.transpose(k, (0, 1, 3, 2)), v), mode,
                       self.heads * t_len * t_len * x.data.itemsize)
        ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b * t_len, c))
        proj = T.reshape(self.out.forward(ctx, "eval"), (b, t_len, c))
        return T.transpose(T.add(xt, proj), (0, 2, 1))


class Model(Module):
    """Full encoder + classifier; ``variant`` picks the downsampling blocks."""

    def __init__(self, config: ModelConfig, variant: str) -> None:
        super().__init__()
        self.config = config
        self.variant = variant
        self.specs = layer_specs(config, variant)
        by_name = {s.name: s for s in self.specs}

        stem = by_name["conv1d.1"]
        self.stem = self._add_child("stem", _spec_conv(stem))
        self.stem_bn = self._add_child("stem_bn", BatchNorm1d(stem.out_channels))
        self.pool = by_name["maxpool.1"]

        self.stages: list[list[Module]] = []
        for i in range(1, 5):
            spec = by_name[f"residual.{i}"]
            blocks: list[Module] = []
            for j in range(spec.repeat):
                c_in = spec.in_channels if j == 0 else spec.out_channels
                stride = spec.stride if j == 0 else 1
                if j == 0 and spec.kind == "scatter_stage":
                    block: Module = ScatterBlock(c_in, spec.out_channels,
                                                 spec.w1, spec.w2)
                else:
                    block = BottleneckBlock(c_in, spec.out_channels, spec.w1,
                                            spec.w2, stride)
                self._add_child(f"stage{i}.block{j}", block)
                blocks.append(block)
            self.stages.append(blocks)

        head = by_name["conv1d.2"]
        self.head = self._add_child("head", _spec_conv(head))
        self.head_bn = self._add_child("head_bn", BatchNorm1d(head.out_channels))
        self.attention = self._add_child(
            "attention", AttentionBlock(head.out_channels, config.heads,
                                        config.pos_encoding))
        fc1 = by_name["fc.1"]
        fc2 = by_name["fc.2"]
        self.fc1 = self._add_child("fc1", Linear(fc1.in_channels, fc1.out_channels))
        self.fc2 = self._add_child("fc2", Linear(fc2.in_channels, fc2.out_channels))

        # One contiguous array holds every parameter, in named_parameters
        # order, and each Tensor's data is its flat_views view of it, so an
        # optimizer can update them all as one array.
        named = self.named_parameters()
        arena = np.concatenate([p.data.ravel() for _, p in named])
        for (_, p), view in zip(named, flat_views(arena, [p.shape for _, p in named])):
            p.data = view

    def _trunk(self, x: Tensor, mode: str) -> Tensor:
        """The stem, the max pool, the stages and the head conv."""
        h = self.stem.forward(x, mode, self.stem_bn)
        h = T.maxpool1d(h, self.pool.kernel, self.pool.stride, self.pool.kernel // 2)
        for blocks in self.stages:
            for block in blocks:
                h = block.forward(h, mode)
        return self.head.forward(h, mode, self.head_bn)

    def forward(self, x: Tensor, aux: Tensor, mode: str = "eval") -> Tensor:
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be train or eval, got {mode!r}")
        x, aux = T._coerce(x), T._coerce(aux)
        if x.ndim != 3 or x.shape[1] != self.config.n_leads:
            raise ShapeError(f"expected (B, {self.config.n_leads}, L), got {x.shape}")
        if x.shape[2] != self.config.window:
            raise ShapeError(
                f"window length {x.shape[2]} != configured {self.config.window}")
        # checked before the stem, so a train forward moves no running buffer
        if x.shape[2] < MIN_WINDOW:
            raise WindowTooShort(f"window too short, length {x.shape[2]} < {MIN_WINDOW}")
        if aux.ndim != 2 or aux.shape != (x.shape[0], self.config.aux_features):
            raise ShapeError(f"aux must be (B, {self.config.aux_features})")

        # every trunk op works window by window, so a chunk of windows gives
        # its rows of the head output bit for bit
        h = _by_rows(lambda xs: self._trunk(xs, mode), (x,), mode,
                     x.data.itemsize * x.shape[1] * x.shape[2])
        h = self.attention.forward(h, mode)
        h = T.adaptive_avgpool1d(h, _POOL_BINS)
        h = T.reshape(h, (h.shape[0], h.shape[1] * h.shape[2]))
        h = T.concat([h, aux], axis=1)
        h = T.swish(self.fc1.forward(h, mode))
        h = T.dropout(h, self.config.dropout, training=(mode == "train"))
        return self.fc2.forward(h, mode)


def build_model(config: ModelConfig, variant: str) -> Model:
    """Instantiate a variant; weight init draws from the engine stream."""
    return Model(config, variant)


def parameter_count(model: Model) -> int:
    """Total trainable scalars (buffers such as bn running stats excluded)."""
    return sum(t.size for _, t in model.named_parameters())


def layer_table(model: Model) -> list[tuple[str, str, int]]:
    """(name, shape, count) rows for every trainable tensor, model order."""
    return [(name, "x".join(str(d) for d in t.shape), t.size)
            for name, t in model.named_parameters()]


def count_by_top_layer(model: Model) -> dict[str, int]:
    """Parameter totals grouped by the first name component (stage4, fc1, ...)."""
    totals: dict[str, int] = {}
    for name, t in model.named_parameters():
        top = name.split(".")[0]
        totals[top] = totals.get(top, 0) + t.size
    return totals
