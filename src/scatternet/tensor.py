"""Reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps an ndarray plus an optional backward closure. Ops build a
graph; ``backward`` walks it once in reverse topological order and
accumulates into ``.grad`` (so tensors consumed twice get the sum of both
contributions). Everything runs in the engine's active precision.

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
        out.requires_grad = engine.grad_enabled() and any(p.requires_grad for p in parents)
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
        """Populate ``.grad`` on every reachable tensor with requires_grad."""
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
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g back down to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise arithmetic -----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor._result(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return Tensor._result(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor._result(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor._result(data, (a, b), backward)


def log(x) -> Tensor:
    x = _coerce(x)
    data = np.log(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g / x.data)

    return Tensor._result(data, (x,), backward)


def exp(x) -> Tensor:
    x = _coerce(x)
    data = np.exp(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * data)

    return Tensor._result(data, (x,), backward)


def sqrt(x) -> Tensor:
    x = _coerce(x)
    data = np.sqrt(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (0.5 / data))

    return Tensor._result(data, (x,), backward)


def clip(x, lo: float | None, hi: float | None) -> Tensor:
    """Clamp values; gradient passes only where x stayed inside [lo, hi]."""
    x = _coerce(x)
    data = np.clip(x.data, lo, hi)
    inside = np.ones_like(x.data, dtype=bool)
    if lo is not None:
        inside &= x.data >= lo
    if hi is not None:
        inside &= x.data <= hi

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * inside)

    return Tensor._result(data, (x,), backward)


# Byte budget of one block in the blocked forward loops: conv1d's output
# blocks, and the row blocks of sigmoid, swish and eval-mode batchnorm. A
# block, its scratch and one input run together stay within a 4 MB L2 cache.
_BLOCK_BYTES = 512 * 1024


def _rows_per_block(a: np.ndarray) -> int:
    """Rows along axis 0 that fit in _BLOCK_BYTES; at least one."""
    return max(1, _BLOCK_BYTES // max(1, a.itemsize * math.prod(a.shape[1:])))


def _sigmoid(a: np.ndarray, sig: np.ndarray | None, prod: np.ndarray | None) -> None:
    """Write sigmoid(a) into ``sig`` and a * sigmoid(a) into ``prod``.

    Either output may be None; when ``sig`` is None the sigmoid lives only
    in a block-sized scratch. The work runs over blocks of whole rows along
    axis 0 of at most _BLOCK_BYTES, with one scratch set per call, so each
    block takes every pass while it is in cache.
    """
    # Branch on sign so large |x| never exponentiates to overflow: with
    # ez = exp(-|x|), sigmoid is 1 / (1 + ez) for x >= 0 and ez / (1 + ez)
    # otherwise, which one division over a selected numerator gives. The
    # numerator is max([x >= 0], ez): as 0 <= ez <= 1, that is 1 where
    # x >= 0 and ez elsewhere (NaN where x is NaN), exactly what a select
    # picks, but without a select whose cost follows the sign pattern.
    a = np.atleast_1d(a)
    step = _rows_per_block(a)
    ez = np.empty((min(step, len(a)),) + a.shape[1:], dtype=a.dtype)
    pos = np.empty(ez.shape, dtype=bool)
    if sig is None:
        num = np.empty_like(ez)
    else:
        sig = np.atleast_1d(sig)
    if prod is not None:
        prod = np.atleast_1d(prod)
    for r0 in range(0, len(a), step):
        rows = slice(r0, r0 + step)
        xa = a[rows]
        e, p = ez[:len(xa)], pos[:len(xa)]
        s = num[:len(xa)] if sig is None else sig[rows]
        np.abs(xa, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.greater_equal(xa, 0, out=p)
        np.maximum(p, e, out=s)
        e += 1
        np.divide(s, e, out=s)
        if prod is not None:
            np.multiply(xa, s, out=prod[rows])


def sigmoid(x) -> Tensor:
    x = _coerce(x)
    data = np.empty_like(x.data)
    _sigmoid(x.data, data, None)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * data * (1.0 - data))

    return Tensor._result(data, (x,), backward)


def swish(x) -> Tensor:
    """x * sigmoid(x)."""
    x = _coerce(x)
    data = np.empty_like(x.data)
    # Only backward reads the full sigmoid, so it is kept only when a graph
    # is recorded.
    sig = np.empty_like(x.data) if engine.grad_enabled() and x.requires_grad else None
    _sigmoid(x.data, sig, data)

    def backward(g):
        if x.requires_grad:
            x._accumulate_fresh(g * (sig + x.data * sig * (1.0 - sig)))

    return Tensor._result(data, (x,), backward)


def softmax(x, axis: int = -1) -> Tensor:
    x = _coerce(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if x.requires_grad:
            inner = (g * data).sum(axis=axis, keepdims=True)
            x._accumulate(data * (g - inner))

    return Tensor._result(data, (x,), backward)


# -- shape ops --------------------------------------------------------------------


def reshape(x, *shape) -> Tensor:
    x = _coerce(x)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old = x.data.shape
    data = x.data.reshape(shape)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.reshape(old))

    return Tensor._result(data, (x,), backward)


def transpose(x, axes: tuple[int, ...] | None = None) -> Tensor:
    x = _coerce(x)
    if axes is None:
        axes = tuple(reversed(range(x.data.ndim)))
    axes = tuple(axes)
    data = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.transpose(inverse))

    return Tensor._result(data, (x,), backward)


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


def tensor_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _coerce(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not x.requires_grad:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.data.shape).copy())

    return Tensor._result(np.asarray(data), (x,), backward)


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _coerce(x)
    if axis is None:
        n = x.data.size
    elif isinstance(axis, tuple):
        n = int(np.prod([x.data.shape[a] for a in axis]))
    else:
        n = x.data.shape[axis]
    return mul(tensor_sum(x, axis=axis, keepdims=keepdims), 1.0 / n)


# -- linear algebra -----------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Batched matrix product with numpy broadcasting on leading dims."""
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul expects rank >= 2 on both sides")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ b.data.swapaxes(-1, -2)
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = a.data.swapaxes(-1, -2) @ g
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return Tensor._result(data, (a, b), backward)


def linear(x, w, b=None) -> Tensor:
    """x @ w + b with x (B, F) and w (F, G)."""
    x, w = _coerce(x), _coerce(w)
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError("linear expects x (B, F) and w (F, G)")
    if x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear: F mismatch {x.data.shape} vs {w.data.shape}")
    out = matmul(x, w)
    if b is None:
        return out
    b = _coerce(b)
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError("linear bias must have shape (G,)")
    return add(out, b)


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


def conv1d(x, w, b=None, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation over time. x (B, Ci, L), w (Co, Ci, K) -> (B, Co, L_out).

    L_out = floor((L + 2*padding - K) / stride) + 1. Bias optional, shape (Co,).
    Every output element sums its Ci*K products from 0 in (ci, k) order and
    then adds the bias, bit for bit what a plain nested loop gives; the
    forward runs in cache-sized blocks of a channel-major layout without
    changing that order.
    """
    x, w = _coerce(x), _coerce(w)
    if w.data.ndim != 3:
        raise ShapeError("conv1d weight must be (Co, Ci, K)")
    co, ci, k = w.data.shape
    l_out = _check_time_op(x, k, stride, padding, "conv1d")
    if x.data.shape[1] != ci:
        raise ShapeError(f"conv1d: Ci mismatch, x has {x.data.shape[1]}, w has {ci}")
    bsz, _, l_in = x.data.shape

    bias = None
    if b is not None:
        bias = _coerce(b)
        if bias.data.shape != (co,):
            raise ShapeError("conv1d bias must have shape (Co,)")

    # Channel-major padded copy (Ci, B, L + 2p). With stride 2 it is split
    # into its even and odd samples, so tap kk reads phase kk % stride from
    # offset kk // stride as one contiguous run per batch row.
    xc = np.zeros((ci, bsz, l_in + 2 * padding), dtype=x.data.dtype)
    xc[:, :, padding:padding + l_in] = x.data.transpose(1, 0, 2)
    phases = [np.ascontiguousarray(xc[:, :, p::stride]) for p in range(min(k, stride))]
    # Backward holds x itself, or with padding its padded copy, as a view of xc.
    xp = xc.transpose(1, 0, 2) if padding else x.data

    # The output is built as (Co, B, L_out) in blocks of at most
    # _BLOCK_BYTES: a range of output channels, or, when one channel's
    # plane is larger, a range of batch rows of one channel. Each block takes
    # its (ci, k) taps in order, so every output element still sums its
    # products from 0 in the order a plain nested loop would, and the bias
    # comes last, in the one pass that transposes to (B, Co, L_out).
    # BLAS-backed contractions would reassociate the sum and drift in the
    # last bit; blocking only keeps the per-tap multiply and add in cache.
    out = np.zeros((co, bsz, l_out), dtype=xc.dtype)
    row_bytes = l_out * out.itemsize
    if bsz * row_bytes <= _BLOCK_BYTES:
        c_step, b_step = min(co, _BLOCK_BYTES // (bsz * row_bytes)), bsz
    else:
        c_step, b_step = 1, max(1, _BLOCK_BYTES // row_bytes)
    scratch = np.empty((c_step, b_step, l_out), dtype=np.result_type(xc.dtype, w.data.dtype))
    for c0 in range(0, co, c_step):
        c1 = min(c0 + c_step, co)
        for b0 in range(0, bsz, b_step):
            b1 = min(b0 + b_step, bsz)
            block = out[c0:c1, b0:b1]
            prod = scratch[:c1 - c0, :b1 - b0]
            for c_in in range(ci):
                for kk in range(k):
                    off = kk // stride
                    run = phases[kk % stride][c_in, b0:b1, off:off + l_out]
                    np.multiply(w.data[c0:c1, c_in, kk, None, None], run, out=prod)
                    block += prod
    if bias is None:
        data = np.ascontiguousarray(out.transpose(1, 0, 2))
    else:
        data = np.add(out.transpose(1, 0, 2), bias.data[None, :, None], order="C")

    parents = (x, w) if bias is None else (x, w, bias)

    def backward(g):
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2)))
        # The products below are the ones einsum(optimize=True) and
        # tensordot reach in the end, called directly to skip their
        # per-call planning; the operand order, and so every bit, is theirs.
        if w.requires_grad:
            if k == 1:
                xs = xp[:, :, ::stride][:, :, :l_out]
                if min(bsz, co, ci, l_out) > 1:
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
            # dwin (B, Ci, K, L_out) = tensordot(w, g, ([0], [1])), then one
            # strided add per tap, in tap order, undoes the window view. Taps
            # that land in the padding are left out, so each element of x
            # sums the same terms in the same order as on a padded copy.
            dwin = np.dot(w.data.transpose(1, 2, 0).reshape(ci * k, co),
                          g.transpose(1, 0, 2).reshape(co, -1)
                          ).reshape(ci, k, bsz, l_out).transpose(2, 0, 1, 3)
            gx = np.zeros(x.data.shape, dtype=x.data.dtype)
            for kk in range(k):
                j0 = max(0, -((kk - padding) // stride))
                j1 = min(l_out, (l_in - 1 + padding - kk) // stride + 1)
                if j1 > j0:
                    s = kk - padding + stride * j0
                    gx[:, :, s:s + stride * (j1 - j0):stride] += dwin[:, :, kk, j0:j1]
            x._accumulate_fresh(gx)

    return Tensor._result(data, parents, backward)


def maxpool1d(x, kernel: int = 3, stride: int = 2, padding: int = 1) -> Tensor:
    """Max over sliding windows; padding counts as -inf, ties pick the lowest index."""
    x = _coerce(x)
    l_out = _check_time_op(x, kernel, stride, padding, "maxpool1d")
    l_in = x.data.shape[2]
    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding)),
                    constant_values=-np.inf)
    else:
        xp = x.data
    # A running maximum over the K strided slices, in tap order; the argmax
    # that routes gradients is only needed, and only computed, in backward.
    end = stride * (l_out - 1) + 1
    data = xp[:, :, :end:stride].copy()
    for kk in range(1, kernel):
        np.maximum(data, xp[:, :, kk:kk + end:stride], out=data)

    def backward(g):
        if not x.requires_grad:
            return
        arg = _window_view(xp, kernel, stride, l_out).argmax(axis=2)  # first max wins
        gxp = np.zeros_like(xp)
        for kk in range(kernel):
            sel = arg == kk
            gxp[:, :, kk:kk + stride * l_out:stride][sel] += g[sel]
        if padding:
            gxp = gxp[:, :, padding:padding + l_in]
        x._accumulate(gxp)

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
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        for i in range(out_len):
            width = bounds[i + 1] - bounds[i]
            gx[:, :, bounds[i]:bounds[i + 1]] += g[:, :, i:i + 1] / width
        x._accumulate(gx)

    return Tensor._result(data, (x,), backward)


# -- normalization and regularization ----------------------------------------------------


def batchnorm1d(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
                training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Per-channel normalization over (batch, time) for x (B, C, L).

    Training mode normalizes with batch statistics and updates the running
    arrays in place (unbiased variance in the running estimate). Eval mode
    uses the running arrays and is a pure affine map.
    """
    x, gamma, beta = _coerce(x), _coerce(gamma), _coerce(beta)
    if x.data.ndim != 3:
        raise ShapeError("batchnorm1d expects x (B, C, L)")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError("batchnorm1d: gamma/beta must have shape (C,)")
    # accept Tensor buffers or bare arrays; updates must hit the caller's
    # storage, so unwrap before the in-place ops
    rm_arr = running_mean.data if isinstance(running_mean, Tensor) else running_mean
    rv_arr = running_var.data if isinstance(running_var, Tensor) else running_var

    if training:
        axes = (0, 2)
        n = x.data.shape[0] * x.data.shape[2]
        # One shared mean, byte-equal to x.mean and x.var (which computes the
        # mean again): xhat starts as x - mean, and the variance is the mean
        # of its squares.
        mu = np.add.reduce(x.data, axis=axes, keepdims=True) / n
        xhat = x.data - mu
        var = np.add.reduce(xhat * xhat, axis=axes) / n
        rm_arr *= 1.0 - momentum
        rm_arr += momentum * mu.reshape(c)
        if n > 1:
            rv_arr *= 1.0 - momentum
            rv_arr += momentum * var * (n / (n - 1.0))
        inv = 1.0 / np.sqrt(var + eps)
        xhat *= inv[None, :, None]
        data = gamma.data[None, :, None] * xhat
        data += beta.data[None, :, None]

        def backward(g):
            if beta.requires_grad:
                beta._accumulate(g.sum(axis=axes))
            if gamma.requires_grad:
                gamma._accumulate((g * xhat).sum(axis=axes))
            if x.requires_grad:
                dxhat = g * gamma.data[None, :, None]
                s1 = dxhat.sum(axis=axes)
                s2 = (dxhat * xhat).sum(axis=axes)
                gx = (dxhat - (s1[None, :, None] + xhat * s2[None, :, None]) / n)
                gx *= inv[None, :, None]
                x._accumulate_fresh(gx)

        return Tensor._result(data, (x, gamma, beta), backward)

    # Eval mode runs over row blocks of at most _BLOCK_BYTES, each taking its
    # four passes while in cache, and keeps no xhat: backward recomputes it
    # from x and from copies of the statistics taken now, because later
    # training steps update the running arrays in place.
    inv = 1.0 / np.sqrt(rv_arr + eps)
    mean = rm_arr.copy()
    mean_c, inv_c = mean[None, :, None], inv[None, :, None]
    gamma_c, beta_c = gamma.data[None, :, None], beta.data[None, :, None]
    xhat_dtype = np.result_type(x.data, mean, inv)
    data = np.empty(x.data.shape, dtype=np.result_type(gamma.data, xhat_dtype, beta.data))
    step = _rows_per_block(data)
    xhat = np.empty((min(step, len(data)),) + data.shape[1:], dtype=xhat_dtype)
    for r0 in range(0, len(data), step):
        rows = slice(r0, r0 + step)
        out = data[rows]
        xh = xhat[:len(out)]
        np.subtract(x.data[rows], mean_c, out=xh)
        np.multiply(xh, inv_c, out=xh)
        np.multiply(gamma_c, xh, out=out)
        np.add(out, beta_c, out=out)

    def backward(g):
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=(0, 2)))
        if gamma.requires_grad:
            gamma._accumulate((g * ((x.data - mean_c) * inv_c)).sum(axis=(0, 2)))
        if x.requires_grad:
            x._accumulate(g * (gamma.data * inv)[None, :, None])

    return Tensor._result(data, (x, gamma, beta), backward)


def dropout(x, p: float, training: bool) -> Tensor:
    """Inverted dropout: scale kept units by 1/(1-p) so eval is the identity."""
    x = _coerce(x)
    if not 0.0 <= p < 1.0:
        raise engine.ConfigError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        data = x.data

        def backward_id(g):
            if x.requires_grad:
                x._accumulate(g)

        return Tensor._result(data, (x,), backward_id)

    keep = engine.rng().random(x.data.shape) >= p
    scale = np.asarray(1.0 / (1.0 - p), dtype=x.data.dtype)
    mask = keep.astype(x.data.dtype) * scale
    data = x.data * mask

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return Tensor._result(data, (x,), backward)


# -- gradient checking ------------------------------------------------------------------


def grad_check(f, inputs: Sequence[Tensor], h: float = 1e-5,
               max_samples: int = 64, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f(*inputs)`` must return a scalar Tensor and be deterministic. The step
    per coordinate is h * max(1, |x_i|). Tensors larger than ``max_samples``
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
            step = h * max(1.0, abs(orig))
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
