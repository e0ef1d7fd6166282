"""Reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps an ndarray plus an optional backward closure. Ops build a
graph; ``backward`` walks it once in reverse topological order and
accumulates into ``.grad`` (so tensors consumed twice get the sum of both
contributions). A graph is walked once: each node lets go of its closure
and its parents as the walk reaches it, so the arrays the closures saved
are freed during the walk, and a second walk raises. Everything runs in the
engine's active precision.

Most ops are written as their forward value plus a gradient expression for
each input, and two helpers build the node: ``_unary`` for one input and
``_binary`` for two, which also sums each gradient back over numpy
broadcasting. The rest write their own backward closure: concat has n
inputs, swish hands x a new gradient array without a copy, and the pools,
batchnorm and the fused conv nodes route gradients of their own.

Only the ops the model family needs are implemented, but each one handles
the general shapes it advertises, and each differentiable op is covered by
a finite-difference check in the test suite.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import engine
from .engine import ShapeError, WindowTooShort


class Tensor:
    """Array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=engine.dtype())
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: Sequence["Tensor"],
                backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._parents = ()
        out._backward = None
        out.requires_grad = _records(parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- bookkeeping -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def _accumulate_fresh(self, g: np.ndarray) -> None:
        """_accumulate for a new array that only the caller holds: a first
        gradient takes it over instead of copying it."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Populate ``.grad`` on every reachable tensor with requires_grad.

        The walk frees the graph: before a node's closure runs, the node
        drops it and its parents, so what the closure saved goes once the
        node's gradient has been passed on, and nodes that nothing else
        holds go with it. Every ``.grad`` stays. A graph is walked once;
        walking it again raises ShapeError and changes no gradient.
        """
        if not self.requires_grad:
            raise ShapeError("backward on a tensor that requires no grad")
        if grad is None:
            if self.size != 1:
                raise ShapeError("backward without a seed needs a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ShapeError(f"seed gradient shape {grad.shape} != {self.data.shape}")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _walked:
                _walked(None)  # raises before any gradient moves
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        self._accumulate(grad)
        while order:
            node = order.pop()
            closure = node._backward
            if closure is None:
                continue
            node._backward, node._parents = _walked, ()
            if node.grad is not None:
                closure(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def sum(self):
        return tensor_sum(self)


def _walked(g) -> None:
    """The backward of a node that a walk has already passed."""
    raise ShapeError("backward through a graph that was already walked")


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _records(parents: Iterable[Tensor]) -> bool:
    """Whether an op over ``parents`` records a graph node, so its backward
    runs and what backward reads must be kept."""
    return engine.grad_enabled() and any(p.requires_grad for p in parents)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g back down to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _binary(a: Tensor, b: Tensor, data: np.ndarray,
            grad_a: Callable[[np.ndarray], np.ndarray],
            grad_b: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """The node of an op over a and b with output ``data``. Its backward
    gives each input that requires grad its gradient, grad_a(g) or
    grad_b(g) summed back to the input's shape, a before b."""
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad_a(g), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad_b(g), b.data.shape))

    return Tensor._result(data, (a, b), backward)


def _unary(x: Tensor, data: np.ndarray,
           grad: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """The node of an op over x with output ``data``; its backward
    accumulates grad(g) into x. The closure is kept only when the node is
    recorded, so it runs only when x requires grad."""
    return Tensor._result(data, (x,), lambda g: x._accumulate(grad(g)))


# -- elementwise arithmetic -----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    return _binary(a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    return _binary(a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data)


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    return _binary(a, b, a.data / b.data, lambda g: g / b.data,
                   lambda g: -g * a.data / (b.data * b.data))


def log(x) -> Tensor:
    x = _coerce(x)
    return _unary(x, np.log(x.data), lambda g: g / x.data)


def exp(x) -> Tensor:
    x = _coerce(x)
    data = np.exp(x.data)
    return _unary(x, data, lambda g: g * data)


def sqrt(x) -> Tensor:
    x = _coerce(x)
    data = np.sqrt(x.data)
    return _unary(x, data, lambda g: g * (0.5 / data))


def clip(x, lo: float, hi: float | None) -> Tensor:
    """Clamp values; gradient passes only where x stayed inside [lo, hi]."""
    x = _coerce(x)
    inside = x.data >= lo
    if hi is not None:
        inside &= x.data <= hi
    return _unary(x, np.clip(x.data, lo, hi), lambda g: g * inside)


# Byte budget of one block in the blocked forward loops: conv1d's output
# blocks, the scatter node's eval rows and sigmoid's and swish's rows. A block,
# its scratch and one input run together stay within a 4 MB L2 cache.
_BLOCK_BYTES = 512 * 1024
# Byte budget of one chunk of batch rows in an eval forward that records no
# graph: Model.forward runs its conv trunk over as many windows as fit in it,
# and the attention block its scores over as many rows, so the activations
# held at once follow the chunk, not the batch (README, "Eval memory").
_CHUNK_BYTES = 4 * 1024 * 1024
# numpy's ufunc buffer size, in elements, while conv1d's tap loop runs. With
# the default 8192, numpy copies the operands of the per-tap broadcast
# multiply into its buffer when the rows are shorter than that; with 256 it
# multiplies each row in place. On this repo's conv shapes 256 was as fast as
# any size swept (README, "The tap loop and numpy's ufunc buffer").
# Elementwise results do not depend on it.
_TAP_BUFSIZE = 256


def _sigmoid_block(xa: np.ndarray, e: np.ndarray, p: np.ndarray, s: np.ndarray,
                   prod: np.ndarray | None) -> None:
    """Write sigmoid(xa) into ``s`` and, when given, xa * sigmoid(xa) into
    ``prod``, which may be xa itself; ``e`` and the bool ``p`` are scratch of
    xa's shape."""
    # Branch on sign so large |x| never exponentiates to overflow: with
    # ez = exp(-|x|), sigmoid is 1 / (1 + ez) for x >= 0 and ez / (1 + ez)
    # otherwise, which one division over a selected numerator gives. The
    # numerator is max([x >= 0], ez): as 0 <= ez <= 1, that is 1 where
    # x >= 0 and ez elsewhere (NaN where x is NaN), exactly what a select
    # picks, but without a select whose cost follows the sign pattern.
    np.abs(xa, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(xa, 0, out=p)
    np.maximum(p, e, out=s)
    e += 1
    np.divide(s, e, out=s)
    if prod is not None:
        np.multiply(xa, s, out=prod)


def _sigmoid_scratch(shape: tuple[int, ...], dtype) -> tuple[np.ndarray, ...]:
    """Scratch ``e``, ``p`` and ``s`` for _sigmoid_block over blocks of at
    most ``shape``."""
    return np.empty(shape, dtype=dtype), np.empty(shape, dtype=bool), \
        np.empty(shape, dtype=dtype)


def _sigmoid(a: np.ndarray, sig: np.ndarray | None, prod: np.ndarray | None) -> None:
    """Write sigmoid(a) into ``sig`` and a * sigmoid(a) into ``prod``.

    Either output may be None; when ``sig`` is None the sigmoid lives only
    in a block-sized scratch. The work runs over blocks of whole rows along
    axis 0 of at most _BLOCK_BYTES, with one scratch set per call, so each
    block takes every pass while it is in cache.
    """
    a = np.atleast_1d(a)
    step = max(1, _BLOCK_BYTES // max(1, a.itemsize * math.prod(a.shape[1:])))
    ez, pos, num = _sigmoid_scratch((min(step, len(a)),) + a.shape[1:], a.dtype)
    if sig is not None:
        sig = np.atleast_1d(sig)
    if prod is not None:
        prod = np.atleast_1d(prod)
    for r0 in range(0, len(a), step):
        rows = slice(r0, r0 + step)
        xa = a[rows]
        n = len(xa)
        _sigmoid_block(xa, ez[:n], pos[:n], num[:n] if sig is None else sig[rows],
                       None if prod is None else prod[rows])


def _swish_backward(g: np.ndarray, out: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """g * (sig + x * sig * (1 - sig)) in a new array and no temporary, from
    the swish output ``out``: the forward wrote out = x * sig with the same
    multiply, so out * (1 - sig) has the bits of x * sig * (1 - sig)."""
    # out= keeps a 0-d result an array that the steps below can write into
    gx = np.subtract(1.0, sig, out=np.empty_like(sig))
    np.multiply(out, gx, out=gx)
    np.add(sig, gx, out=gx)
    np.multiply(g, gx, out=gx)
    return gx


def sigmoid(x) -> Tensor:
    x = _coerce(x)
    data = np.empty_like(x.data)
    _sigmoid(x.data, data, None)
    return _unary(x, data, lambda g: g * data * (1.0 - data))


def swish(x) -> Tensor:
    """x * sigmoid(x)."""
    x = _coerce(x)
    data = np.empty_like(x.data)
    # Only backward reads the full sigmoid, so it is kept only when a graph
    # is recorded.
    sig = np.empty_like(x.data) if _records((x,)) else None
    _sigmoid(x.data, sig, data)

    def backward(g):
        x._accumulate_fresh(_swish_backward(g, data, sig))

    return Tensor._result(data, (x,), backward)


def softmax(x, axis: int = -1) -> Tensor:
    x = _coerce(x)
    # x - max, exp and the division in one array
    data = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)
    return _unary(x, data,
                  lambda g: data * (g - (g * data).sum(axis=axis, keepdims=True)))


# -- shape ops --------------------------------------------------------------------


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    x = _coerce(x)
    old = x.data.shape
    return _unary(x, x.data.reshape(shape), lambda g: g.reshape(old))


def transpose(x, axes: tuple[int, ...]) -> Tensor:
    x = _coerce(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _unary(x, x.data.transpose(axes), lambda g: g.transpose(inverse))


def concat(tensors: Iterable, axis: int = 0) -> Tensor:
    parts = [_coerce(t) for t in tensors]
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        for p, piece in zip(parts, pieces):
            if p.requires_grad:
                p._accumulate(piece)

    return Tensor._result(data, tuple(parts), backward)


def tensor_sum(x, axis=None) -> Tensor:
    x = _coerce(x)
    # backward hands on a read-only broadcast view; _accumulate copies it
    return _unary(x, np.asarray(x.data.sum(axis=axis)), lambda g: np.broadcast_to(
        g if axis is None else np.expand_dims(g, axis), x.data.shape))


def mean(x) -> Tensor:
    """The mean of every element of x."""
    x = _coerce(x)
    return mul(tensor_sum(x), 1.0 / x.data.size)


# -- linear algebra -----------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Batched matrix product with numpy broadcasting on leading dims."""
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul expects rank >= 2 on both sides")
    return _binary(a, b, a.data @ b.data, lambda g: g @ b.data.swapaxes(-1, -2),
                   lambda g: a.data.swapaxes(-1, -2) @ g)


def linear(x, w, b) -> Tensor:
    """x @ w + b with x (B, F), w (F, G) and b (G,)."""
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError("linear expects x (B, F) and w (F, G)")
    if x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear: F mismatch {x.data.shape} vs {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError("linear bias must have shape (G,)")
    return add(matmul(x, w), b)


# -- windowed ops over time ------------------------------------------------------------


def _window_view(xp: np.ndarray, kernel: int, stride: int, l_out: int) -> np.ndarray:
    # Read-only strided view (B, C, K, L_out); never written through.
    s0, s1, s2 = xp.strides
    return as_strided(xp, shape=(xp.shape[0], xp.shape[1], kernel, l_out),
                      strides=(s0, s1, s2, s2 * stride))


def _check_time_op(x: Tensor, kernel: int, stride: int, padding: int, name: str) -> int:
    if x.data.ndim != 3:
        raise ShapeError(f"{name} expects x (B, C, L), got rank {x.data.ndim}")
    if stride not in (1, 2):
        raise ShapeError(f"{name}: stride must be 1 or 2, got {stride}")
    if padding < 0:
        raise ShapeError(f"{name}: padding must be >= 0")
    l_out = (x.data.shape[2] + 2 * padding - kernel) // stride + 1
    if l_out < 1:
        raise WindowTooShort(
            f"{name}: window too short, length {x.data.shape[2]} with kernel "
            f"{kernel}, stride {stride}, padding {padding} leaves no output")
    return l_out


def _conv_args(x, w, b, stride: int, padding: int):
    """Checked (x, w, bias or None, L_out) of a conv1d call."""
    x, w = _coerce(x), _coerce(w)
    if w.data.ndim != 3:
        raise ShapeError("conv1d weight must be (Co, Ci, K)")
    co, ci, k = w.data.shape
    l_out = _check_time_op(x, k, stride, padding, "conv1d")
    if x.data.shape[1] != ci:
        raise ShapeError(f"conv1d: Ci mismatch, x has {x.data.shape[1]}, w has {ci}")
    bias = None
    if b is not None:
        bias = _coerce(b)
        if bias.data.shape != (co,):
            raise ShapeError("conv1d bias must have shape (Co,)")
    return x, w, bias, l_out


def _conv_phases(x: np.ndarray, k: int, stride: int, padding: int) -> list[np.ndarray]:
    """Channel-major copies (Ci, B, ...) of x zero-padded by ``padding`` on
    each side, one per phase: phase p holds samples p, p + stride, ... of the
    padded sequence, so tap kk reads phase kk % stride from offset
    kk // stride as one contiguous run per batch row. Each phase is built
    straight from x; with stride 1 the one phase is the padded copy."""
    bsz, ci, l_in = x.shape
    xt = x.transpose(1, 0, 2)
    phases = []
    for p in range(min(k, stride)):
        phase = np.zeros((ci, bsz, len(range(p, l_in + 2 * padding, stride))),
                         dtype=x.dtype)
        i0 = max(0, -((p - padding) // stride))  # first entry past the left padding
        src = xt[:, :, p + stride * i0 - padding::stride]
        phase[:, :, i0:i0 + src.shape[2]] = src
        phases.append(phase)
    return phases


def _pad_time(x: np.ndarray, padding: int, value: float = 0.0) -> np.ndarray:
    """x (B, C, L) with ``padding`` samples of ``value`` on each side of time,
    as a (B, C, L + 2p) view of a new channel-major (C, B, L + 2p) array, the
    layout of _conv_phases' padded copy. Backward rebuilds its padded input
    with it, so a recorded node keeps x and not a padded copy of it."""
    bsz, c, l_in = x.shape
    xp = np.full((c, bsz, l_in + 2 * padding), value, dtype=x.dtype).transpose(1, 0, 2)
    xp[:, :, padding:padding + l_in] = x
    return xp


def _conv_blocks(phases: list[np.ndarray], w: np.ndarray, stride: int, l_out: int):
    """Yield (c0, c1, b0, b1, block) for each finished block of the conv
    output, laid out (Co, B, L_out): a range of output channels, or, when one
    channel's plane is larger than _BLOCK_BYTES, a range of batch rows of one
    channel. Each block takes its (ci, k) taps in order from 0, so every
    output element sums its products in the order a plain nested loop would.
    BLAS-backed contractions would reassociate the sum and drift in the last
    bit; blocking only keeps the per-tap multiply and add in cache. The taps
    run under a ufunc buffer of _TAP_BUFSIZE, and the caller's buffer size is
    back in place at every yield, so the consumer's reductions chunk as
    before. The block is a view of one buffer that the next block
    overwrites. A batch of no rows yields no blocks."""
    co, ci, k = w.shape
    _, bsz, _ = phases[0].shape
    if bsz == 0:
        return
    row_bytes = l_out * phases[0].itemsize
    if bsz * row_bytes <= _BLOCK_BYTES:
        c_step, b_step = min(co, _BLOCK_BYTES // (bsz * row_bytes)), bsz
    else:
        c_step, b_step = 1, max(1, _BLOCK_BYTES // row_bytes)
    acc = np.empty((c_step, b_step, l_out), dtype=phases[0].dtype)
    scratch = np.empty(acc.shape, dtype=np.result_type(acc.dtype, w.dtype))
    for c0 in range(0, co, c_step):
        c1 = min(c0 + c_step, co)
        for b0 in range(0, bsz, b_step):
            b1 = min(b0 + b_step, bsz)
            block = acc[:c1 - c0, :b1 - b0]
            block.fill(0)
            prod = scratch[:c1 - c0, :b1 - b0]
            old = np.setbufsize(_TAP_BUFSIZE)
            try:
                for c_in in range(ci):
                    for kk in range(k):
                        off = kk // stride
                        run = phases[kk % stride][c_in, b0:b1, off:off + l_out]
                        np.multiply(w[c0:c1, c_in, kk, None, None], run, out=prod)
                        block += prod
            finally:
                np.setbufsize(old)
            yield c0, c1, b0, b1, block


def _conv_into(out: np.ndarray, phases: list[np.ndarray], w: np.ndarray,
               bias: np.ndarray | None, stride: int) -> None:
    """Write the conv output, bias added last, into ``out`` (B, Co, L_out),
    each block transposed into its slice."""
    for c0, c1, b0, b1, block in _conv_blocks(phases, w, stride, out.shape[2]):
        dst = out[b0:b1, c0:c1]
        if bias is None:
            dst[...] = block.transpose(1, 0, 2)
        else:
            np.add(block.transpose(1, 0, 2), bias[c0:c1, None], out=dst)


def _conv_backward(g: np.ndarray, x: Tensor, w: Tensor, bias: Tensor | None,
                   stride: int, padding: int) -> None:
    """Accumulate conv1d's bias, w and x gradients for the output gradient g."""
    co, ci, k = w.data.shape
    bsz = x.data.shape[0]
    l_out = g.shape[2]
    if bias is not None and bias.requires_grad:
        bias._accumulate(g.sum(axis=(0, 2)))
    # The products below are the ones einsum(optimize=True) and
    # tensordot reach in the end, called directly to skip their
    # per-call planning; the operand order, and so every bit, is theirs.
    if w.requires_grad:
        xp = _pad_time(x.data, padding) if padding else x.data
        if k == 1:
            xs = xp[:, :, ::stride][:, :, :l_out]
            if min(bsz, ci, l_out) > 1:
                # with Co = 1 too: einsum drops the size-1 axis and ends in
                # this (Ci, N) @ (N, 1) product
                gw = (xs.transpose(1, 0, 2).reshape(ci, -1)
                      @ g.transpose(0, 2, 1).reshape(-1, co)).T[:, :, None]
            else:
                # einsum drops size-1 axes and multiplies differently
                gw = np.einsum("bol,bcl->oc", g, xs, optimize=True)[:, :, None]
        else:
            # tensordot(g, window view, ([0, 2], [0, 3]))
            win = _window_view(xp, k, stride, l_out)
            gw = np.dot(g.transpose(1, 0, 2).reshape(co, -1),
                        win.transpose(0, 3, 1, 2).reshape(-1, ci * k)
                        ).reshape(co, ci, k)
        w._accumulate_fresh(gw)
    if x.requires_grad:
        x._accumulate_fresh(_conv_grad_x(g, w.data, x.data, stride, padding))


def _conv_grad_x(g: np.ndarray, w: np.ndarray, x: np.ndarray, stride: int,
                 padding: int) -> np.ndarray:
    """conv1d's x gradient, in x's shape and dtype, as a new array.

    dwin (B, Ci, K, L_out) = tensordot(w, g, ([0], [1])), then one strided
    add per tap, in tap order, undoes the window view. Taps that land in the
    padding are left out, so each element of x sums the same terms in the
    same order as on a padded copy.
    """
    co, ci, k = w.shape
    bsz, _, l_in = x.shape
    l_out = g.shape[2]
    dwin = np.dot(w.transpose(1, 2, 0).reshape(ci * k, co),
                  g.transpose(1, 0, 2).reshape(co, -1)
                  ).reshape(ci, k, bsz, l_out).transpose(2, 0, 1, 3)
    gx = np.zeros(x.shape, dtype=x.dtype)
    for kk in range(k):
        j0 = max(0, -((kk - padding) // stride))
        j1 = min(l_out, (l_in - 1 + padding - kk) // stride + 1)
        if j1 > j0:
            s = kk - padding + stride * j0
            gx[:, :, s:s + stride * (j1 - j0):stride] += dwin[:, :, kk, j0:j1]
    return gx


def conv1d(x, w, b=None, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation over time. x (B, Ci, L), w (Co, Ci, K) -> (B, Co, L_out).

    L_out = floor((L + 2*padding - K) / stride) + 1. Bias optional, shape (Co,).
    Every output element sums its Ci*K products from 0 in (ci, k) order and
    then adds the bias, bit for bit what a plain nested loop gives; the
    forward runs in cache-sized blocks of a channel-major layout without
    changing that order.
    """
    x, w, bias, l_out = _conv_args(x, w, b, stride, padding)
    parents = (x, w) if bias is None else (x, w, bias)
    phases = _conv_phases(x.data, w.data.shape[2], stride, padding)
    data = np.empty((x.data.shape[0], w.data.shape[0], l_out),
                    dtype=x.data.dtype if bias is None
                    else np.promote_types(x.data.dtype, bias.data.dtype))
    _conv_into(data, phases, w.data, None if bias is None else bias.data, stride)

    def backward(g):
        _conv_backward(g, x, w, bias, stride, padding)

    return Tensor._result(data, parents, backward)


def maxpool1d(x, kernel: int = 3, stride: int = 2, padding: int = 1) -> Tensor:
    """Max over sliding windows; padding counts as -inf, ties pick the lowest index."""
    x = _coerce(x)
    l_out = _check_time_op(x, kernel, stride, padding, "maxpool1d")
    l_in = x.data.shape[2]
    xp = _pad_time(x.data, padding, -np.inf) if padding else x.data
    # A running maximum over the K strided slices, in tap order; the argmax
    # that routes gradients is only needed, and only computed, in backward,
    # which rebuilds the padded input rather than keep it.
    end = stride * (l_out - 1) + 1
    data = xp[:, :, :end:stride].copy()
    for kk in range(1, kernel):
        np.maximum(data, xp[:, :, kk:kk + end:stride], out=data)

    def backward(g):
        xp = _pad_time(x.data, padding, -np.inf) if padding else x.data
        arg = _window_view(xp, kernel, stride, l_out).argmax(axis=2)  # first max wins
        gxp = np.zeros(xp.shape, dtype=xp.dtype)
        for kk in range(kernel):
            sel = arg == kk
            gxp[:, :, kk:kk + stride * l_out:stride][sel] += g[sel]
        x._accumulate(gxp[:, :, padding:padding + l_in])

    return Tensor._result(data, (x,), backward)


def adaptive_avgpool1d(x, out_len: int) -> Tensor:
    """Mean over out_len bins with boundaries floor(i * L / out_len)."""
    x = _coerce(x)
    if x.data.ndim != 3:
        raise ShapeError("adaptive_avgpool1d expects x (B, C, L)")
    l_in = x.data.shape[2]
    if out_len < 1 or l_in < out_len:
        raise WindowTooShort(
            f"adaptive_avgpool1d: window too short, length {l_in} for {out_len} bins")
    bounds = [l_in * i // out_len for i in range(out_len + 1)]
    data = np.empty(x.data.shape[:2] + (out_len,), dtype=x.data.dtype)
    for i in range(out_len):
        data[:, :, i] = x.data[:, :, bounds[i]:bounds[i + 1]].mean(axis=2)

    def backward(g):
        gx = np.zeros_like(x.data)
        for i in range(out_len):
            width = bounds[i + 1] - bounds[i]
            gx[:, :, bounds[i]:bounds[i + 1]] += g[:, :, i:i + 1] / width
        x._accumulate(gx)

    return Tensor._result(data, (x,), backward)


# -- normalization and regularization ----------------------------------------------------


# Batchnorm's running-average momentum and the eps under its square root.
_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5


def _bn_args(gamma, beta, running_mean, running_var, c: int):
    """Checked gamma and beta Tensors and the running arrays of a batchnorm
    over c channels."""
    gamma, beta = _coerce(gamma), _coerce(beta)
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError("batchnorm1d: gamma/beta must have shape (C,)")
    # accept Tensor buffers or bare arrays; updates must hit the caller's
    # storage, so unwrap before the in-place ops
    rm = running_mean.data if isinstance(running_mean, Tensor) else running_mean
    rv = running_var.data if isinstance(running_var, Tensor) else running_var
    return gamma, beta, rm, rv


def _bn_train_forward(x: np.ndarray, xhat: np.ndarray, gamma: np.ndarray,
                      beta: np.ndarray, rm: np.ndarray,
                      rv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Training batchnorm of x (B, C, L) with batch statistics.

    Writes the normalized x into ``xhat``, which may be x itself, updates the
    running arrays in place (unbiased variance in the running estimate) and
    returns (output, inv) with inv = 1 / sqrt(var + eps). An x with no
    samples has no batch statistics: ShapeError, before the running arrays
    move.
    """
    axes = (0, 2)
    n = x.shape[0] * x.shape[2]
    if n == 0:
        raise ShapeError(f"batchnorm1d: training needs samples, got x {x.shape}")
    # One shared mean, byte-equal to x.mean and x.var (which computes the
    # mean again): xhat starts as x - mean, and the variance is the mean of
    # its squares.
    mu = np.add.reduce(x, axis=axes, keepdims=True) / n
    np.subtract(x, mu, out=xhat)
    var = np.add.reduce(xhat * xhat, axis=axes) / n
    rm *= 1.0 - _BN_MOMENTUM
    rm += _BN_MOMENTUM * mu.reshape(x.shape[1])
    if n > 1:
        rv *= 1.0 - _BN_MOMENTUM
        rv += _BN_MOMENTUM * var * (n / (n - 1.0))
    inv = 1.0 / np.sqrt(var + _BN_EPS)
    xhat *= inv[None, :, None]
    out = gamma[None, :, None] * xhat
    out += beta[None, :, None]
    return out, inv


def _bn_train_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                       gamma: Tensor, beta: Tensor) -> np.ndarray:
    """Accumulate training batchnorm's gamma and beta gradients; return the
    x gradient as a new array. The elementwise steps of
    dxhat - (s1 + xhat * s2) / n run in place, in that operand order."""
    axes = (0, 2)
    n = g.shape[0] * g.shape[2]
    if beta.requires_grad:
        beta._accumulate(g.sum(axis=axes))
    t = None
    if gamma.requires_grad:
        t = g * xhat
        gamma._accumulate(t.sum(axis=axes))
    dxhat = g * gamma.data[None, :, None]
    t = np.multiply(dxhat, xhat, out=t)
    s1 = dxhat.sum(axis=axes)
    s2 = t.sum(axis=axes)
    np.multiply(xhat, s2[None, :, None], out=t)
    np.add(s1[None, :, None], t, out=t)
    t /= n
    dxhat -= t
    dxhat *= inv[None, :, None]
    return dxhat


def _bn_eval_stats(rm: np.ndarray, rv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, inv) for eval-mode batchnorm: copies taken now, because later
    training steps update the running arrays in place."""
    return rm.copy(), 1.0 / np.sqrt(rv + _BN_EPS)


def _bn_eval_block(x: np.ndarray, mean, inv, gamma, beta, xhat: np.ndarray,
                   out: np.ndarray) -> None:
    """out = gamma * ((x - mean) * inv) + beta over a block or a whole array,
    the per-channel arrays already shaped to broadcast against it. ``xhat``
    is scratch; x, xhat and out may all be the same array."""
    np.subtract(x, mean, out=xhat)
    np.multiply(xhat, inv, out=xhat)
    np.multiply(gamma, xhat, out=out)
    np.add(out, beta, out=out)


def _bn_eval_backward(g: np.ndarray, x: np.ndarray, mean: np.ndarray, inv: np.ndarray,
                      gamma: Tensor, beta: Tensor) -> np.ndarray:
    """Accumulate eval batchnorm's gamma and beta gradients, recomputing
    xhat from its input x; return the x gradient as a new array."""
    if beta.requires_grad:
        beta._accumulate(g.sum(axis=(0, 2)))
    if gamma.requires_grad:
        t = x - mean[None, :, None]
        t *= inv[None, :, None]
        t *= g
        gamma._accumulate(t.sum(axis=(0, 2)))
    return g * (gamma.data * inv)[None, :, None]


def _bn_step(x: np.ndarray, gamma: Tensor, beta: Tensor, rm: np.ndarray,
             rv: np.ndarray, training: bool, own_x: bool):
    """Batchnorm of x (B, C, L): (output, backward), where backward(g)
    accumulates the gamma and beta gradients and returns the x gradient as
    a new array.

    Training mode normalizes with batch statistics and updates the running
    arrays in place; the normalized x overwrites x itself when the caller
    owns x and reads it no more. Eval mode uses the running arrays, never
    writes x and keeps no normalized x (backward recomputes it): its four
    passes run over the whole array, the normalized x written into the
    output when the two share a dtype.
    """
    if training:
        xhat = x if own_x else np.empty_like(x)
        data, inv = _bn_train_forward(x, xhat, gamma.data, beta.data, rm, rv)
        return data, lambda g: _bn_train_backward(g, xhat, inv, gamma, beta)
    mean, inv = _bn_eval_stats(rm, rv)
    xhat_dtype = np.result_type(x, mean, inv)
    data = np.empty(x.shape, dtype=np.result_type(gamma.data, xhat_dtype, beta.data))
    xhat = data if data.dtype == xhat_dtype else np.empty(x.shape, dtype=xhat_dtype)
    _bn_eval_block(x, mean[None, :, None], inv[None, :, None],
                   gamma.data[None, :, None], beta.data[None, :, None], xhat, data)
    return data, lambda g: _bn_eval_backward(g, x, mean, inv, gamma, beta)


def batchnorm1d(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
                training: bool) -> Tensor:
    """Per-channel normalization over (batch, time) for x (B, C, L).

    Training mode normalizes with batch statistics and updates the running
    arrays in place (unbiased variance in the running estimate). Eval mode
    uses the running arrays and is a pure affine map.
    """
    x = _coerce(x)
    if x.data.ndim != 3:
        raise ShapeError("batchnorm1d expects x (B, C, L)")
    gamma, beta, rm, rv = _bn_args(gamma, beta, running_mean, running_var,
                                   x.data.shape[1])
    data, bn_backward = _bn_step(x.data, gamma, beta, rm, rv, training, own_x=False)

    def backward(g):
        gx = bn_backward(g)
        if x.requires_grad:
            x._accumulate_fresh(gx)

    return Tensor._result(data, (x, gamma, beta), backward)


def conv_bn_act(x, w, b, gamma, beta, running_mean: np.ndarray,
                running_var: np.ndarray, training: bool, stride: int = 1,
                padding: int = 0, skip=None, act: bool = True) -> Tensor:
    """conv1d, then batchnorm1d, then ``skip +`` when a skip is given, then
    swish when ``act``, as one node.

    It runs the elementwise steps of that chain in the same order and with
    the same operand order, so its output, gradients and running arrays
    equal the chain's bit for bit. In training mode, or whenever a graph is
    recorded, the conv output fills one array and the standalone ops' own
    steps follow: batchnorm (in training it normalizes the conv output in
    place), the skip add and swish. In eval mode without a graph
    batchnorm, the skip add and swish run on each conv output block while
    it is in cache, and no full-size intermediate is allocated.
    """
    x, w, bias, l_out = _conv_args(x, w, b, stride, padding)
    co = w.data.shape[0]
    gamma, beta, rm, rv = _bn_args(gamma, beta, running_mean, running_var, co)
    shape = (x.data.shape[0], co, l_out)
    if skip is not None:
        skip = _coerce(skip)
        if skip.data.shape != shape:
            raise ShapeError(f"conv_bn_act: skip shape {skip.data.shape} != {shape}")
    # skip comes first, as in add(skip, ...), so backward walks the graph in
    # the chain's order
    parents = (() if skip is None else (skip,)) + (x, w) + (
        () if bias is None else (bias,)) + (gamma, beta)
    record = _records(parents)
    phases = _conv_phases(x.data, w.data.shape[2], stride, padding)
    bias_data = None if bias is None else bias.data
    if not (training or record):
        mean, inv = _bn_eval_stats(rm, rv)
        data = np.empty(shape, dtype=x.data.dtype)
        for c0, c1, b0, b1, block in _conv_blocks(phases, w.data, stride, l_out):
            if c0 == b0 == 0:  # the first block is the largest
                e, p, s = _sigmoid_scratch(block.shape, block.dtype)
            cs = slice(c0, c1)
            if bias is not None:
                np.add(block, bias_data[cs, None, None], out=block)
            _bn_eval_block(block, mean[cs, None, None], inv[cs, None, None],
                           gamma.data[cs, None, None], beta.data[cs, None, None],
                           block, block)
            if skip is not None:
                np.add(skip.data[b0:b1, cs].transpose(1, 0, 2), block, out=block)
            dst = data[b0:b1, cs].transpose(1, 0, 2)
            if act:
                n_c, n_b = block.shape[:2]
                _sigmoid_block(block, e[:n_c, :n_b], p[:n_c, :n_b], s[:n_c, :n_b], dst)
            else:
                dst[...] = block
        return Tensor._result(data, parents, None)

    y = np.empty(shape, dtype=x.data.dtype)
    _conv_into(y, phases, w.data, bias_data, stride)
    del phases
    data, bn_backward = _bn_step(y, gamma, beta, rm, rv, training, own_x=True)
    if skip is not None:
        np.add(skip.data, data, out=data)
    sig = None
    if act:
        # the swish writes over its input, which backward no longer reads
        sig = np.empty_like(data) if record else None
        _sigmoid(data, sig, data)

    def backward(g):
        if act:
            g = _swish_backward(g, data, sig)
        if skip is not None and skip.requires_grad:
            # a swish gradient is a new array this node no longer writes;
            # the node's own gradient must be copied
            (skip._accumulate_fresh if act else skip._accumulate)(g)
        _conv_backward(bn_backward(g), x, w, bias, stride, padding)

    return Tensor._result(data, parents, backward)


def dropout(x, p: float, training: bool) -> Tensor:
    """Inverted dropout: scale kept units by 1/(1-p) so eval is the identity."""
    x = _coerce(x)
    if not 0.0 <= p < 1.0:
        raise engine.ConfigError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return _unary(x, x.data, lambda g: g)
    keep = engine.rng().random(x.data.shape) >= p
    scale = np.asarray(1.0 / (1.0 - p), dtype=x.data.dtype)
    mask = keep.astype(x.data.dtype) * scale
    return _unary(x, x.data * mask, lambda g: g * mask)


# -- gradient checking ------------------------------------------------------------------


def grad_check(f, inputs: Sequence[Tensor], max_samples: int = 64,
               seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f(*inputs)`` must return a scalar Tensor and be deterministic. The step
    per coordinate is 1e-5 * max(1, |x_i|). Tensors larger than ``max_samples``
    are probed on a seeded random subset of coordinates. The relative error
    denominator is floored at 1e-4 so near-zero gradient pairs compare
    absolutely instead of blowing up.
    """
    if engine.dtype() is not np.float64:
        raise engine.ConfigError("grad_check must run in float64 precision")
    inputs = list(inputs)
    for t in inputs:
        t.grad = None
    out = f(*inputs)
    if not isinstance(out, Tensor) or out.size != 1:
        raise ShapeError("grad_check target must return a scalar Tensor")
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in inputs]

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    worst = 0.0
    for t, ga in zip(inputs, analytic):
        idx = np.arange(t.data.size)
        if t.data.size > max_samples:
            idx = rng.choice(t.data.size, size=max_samples, replace=False)
        for i in idx:
            orig = float(t.data.flat[i])
            step = 1e-5 * max(1.0, abs(orig))
            with engine.no_grad():
                t.data.flat[i] = orig + step
                hi = float(f(*inputs).data)
                t.data.flat[i] = orig - step
                lo = float(f(*inputs).data)
            t.data.flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            a = float(ga.flat[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
            worst = max(worst, err)
    return worst
