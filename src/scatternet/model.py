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

import numpy as np

from . import engine
from .engine import ConfigError, ShapeError
from .scatter import scatter_forward
from . import tensor as T
from .tensor import Tensor

_STAGE_BLOCKS = (3, 4, 6, 3)
_STAGE_OUT = (48, 96, 192, 384)
_STEM_OUT = 24
_HEAD_OUT = 96
_POOL_BINS = 8


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

    def forward(self, x: Tensor, mode: str) -> Tensor:
        del mode
        return T.conv1d(x, self.w, self.b, stride=self.stride, padding=self.padding)


class BatchNorm1d(Module):
    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.gamma = self._register("gamma", Tensor(np.ones(channels), requires_grad=True))
        self.beta = self._register("beta", Tensor(np.zeros(channels), requires_grad=True))
        self.running_mean = self._register_buffer(
            "running_mean", np.zeros(channels, dtype=engine.dtype()))
        self.running_var = self._register_buffer(
            "running_var", np.ones(channels, dtype=engine.dtype()))

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return T.batchnorm1d(x, self.gamma, self.beta, self.running_mean,
                             self.running_var, training=(mode == "train"),
                             momentum=self.momentum, eps=self.eps)


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

    def residual_sum(self, x: Tensor, mode: str) -> Tensor:
        h = T.swish(self.bn1.forward(self.conv1.forward(x, mode), mode))
        h = T.swish(self.bn2.forward(self.conv2.forward(h, mode), mode))
        h = self.bn3.forward(self.conv3.forward(h, mode), mode)
        skip = x
        if self.proj is not None:
            skip = self.proj_bn.forward(self.proj.forward(x, mode), mode)
        return T.add(skip, h)

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return T.swish(self.residual_sum(x, mode))


class ScatterBlock(Module):
    """Downsampling block with the strided convs replaced by scatter layers.

    Main path: conv1-bn, scatter-bn, conv1-bn, swish. Skip path: scatter-bn.
    The swish sits before the sum, on the main path only, and there is no
    activation after the sum.
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
        h = self.bn1.forward(self.conv1.forward(x, mode), mode)
        h = self.bn_mid.forward(scatter_forward(h), mode)
        h = T.swish(self.bn2.forward(self.conv2.forward(h, mode), mode))
        skip = self.skip_bn.forward(scatter_forward(x), mode)
        return T.add(h, skip)


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
        del mode
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

        q, k, v = split(self.q), split(self.k), split(self.v)
        scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
        weights = T.softmax(scores, axis=-1)
        ctx = T.matmul(weights, v)                   # (B, H, T, dh)
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
        self.stem = self._add_child("stem", Conv1d(stem.in_channels, stem.out_channels,
                                                   stem.kernel, stride=2, padding=3))
        self.stem_bn = self._add_child("stem_bn", BatchNorm1d(stem.out_channels))

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
        self.head = self._add_child("head", Conv1d(head.in_channels, head.out_channels,
                                                   1, stride=2))
        self.head_bn = self._add_child("head_bn", BatchNorm1d(head.out_channels))
        self.attention = self._add_child(
            "attention", AttentionBlock(head.out_channels, config.heads,
                                        config.pos_encoding))
        fc1 = by_name["fc.1"]
        fc2 = by_name["fc.2"]
        self.fc1 = self._add_child("fc1", Linear(fc1.in_channels, fc1.out_channels))
        self.fc2 = self._add_child("fc2", Linear(fc2.in_channels, fc2.out_channels))

        # One contiguous array holds every parameter, in named_parameters
        # order, and each Tensor's data is its view of it, so an optimizer
        # can update back-to-back parameters as one array.
        named = self.named_parameters()
        arena = np.concatenate([p.data.ravel() for _, p in named])
        offset = 0
        for _, p in named:
            p.data = arena[offset:offset + p.size].reshape(p.shape)
            offset += p.size

    def forward(self, x: Tensor, aux: Tensor, mode: str = "eval") -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if not isinstance(aux, Tensor):
            aux = Tensor(aux)
        if x.ndim != 3 or x.shape[1] != self.config.n_leads:
            raise ShapeError(f"expected (B, {self.config.n_leads}, L), got {x.shape}")
        if x.shape[2] != self.config.window:
            raise ShapeError(
                f"window length {x.shape[2]} != configured {self.config.window}")
        if aux.ndim != 2 or aux.shape != (x.shape[0], self.config.aux_features):
            raise ShapeError(f"aux must be (B, {self.config.aux_features})")

        h = T.swish(self.stem_bn.forward(self.stem.forward(x, mode), mode))
        h = T.maxpool1d(h, kernel=3, stride=2, padding=1)
        for blocks in self.stages:
            for block in blocks:
                h = block.forward(h, mode)
        h = T.swish(self.head_bn.forward(self.head.forward(h, mode), mode))
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
