"""Differentiable scatter layer: low-pass + modulus of band-pass, stride 2.

Each input channel yields two output channels: a stride-2 low-pass path and
the smoothed modulus of the stride-2 complex band-pass path. Outputs are
interleaved (input channel i -> output 2i low-pass, 2i+1 modulus) so channel
locality survives for the 1x1 convolutions that follow. Time shrinks to
ceil(L/2); with pad 4 around the 9-tap filters the output sample j is
centered on input position 2j (even subsample phase).

The taps are symmetric (low-pass) respectively conjugate-symmetric
(band-pass), so the cross-correlation computed by conv1d equals true
convolution for the low-pass path and flips only the sign of the imaginary
band-pass response, which the modulus erases. No tap reversal is needed.

The layer holds no trainable parameters; the batchnorm that follows it in a
scatter block runs inside the same node.
"""

from __future__ import annotations

import numpy as np

from . import engine
from . import tensor as T
from .engine import ShapeError, WindowTooShort
from .tensor import Tensor
from .wavelets import filter_bank

_PAD = 4
_STRIDE = 2
# Smooths the modulus sqrt(re^2 + im^2 + _EPS_MOD) so the gradient stays
# finite at zero response; the forward perturbation is below sqrt(_EPS_MOD).
_EPS_MOD = 1e-12


def _filters(dtype) -> np.ndarray:
    """The (3, 1, 9) weight of the stacked conv: phi, psi_re, psi_im."""
    fb = filter_bank()
    return np.asarray([fb.phi, fb.psi_re, fb.psi_im], dtype=dtype)[:, None, :]


def _modulus(re: np.ndarray, im: np.ndarray, out: np.ndarray, ii: np.ndarray,
             eps) -> None:
    """Write sqrt((re * re + im * im) + eps) into ``out``, with ``ii`` as
    scratch for im * im; out may be re, and ii may be im."""
    np.multiply(re, re, out=out)
    np.multiply(im, im, out=ii)
    out += ii
    out += eps
    np.sqrt(out, out=out)


def _eval_rows(flat: np.ndarray, w: np.ndarray, eps, bn, skip: np.ndarray | None,
               out: np.ndarray) -> None:
    """The eval body without a graph: for each block of rows of the (B*C, 1, L)
    fold, phase-copy only those rows, run the stacked taps, take the modulus
    in place, apply ``bn`` (per-row (mean, inv, gamma, beta), or None), add
    the skip and write the block's (2, rows, T) pairs into ``out``
    (B*C, 2, T). Nothing output-sized is held besides ``out``."""
    bc, _, t = out.shape
    step = max(1, T._BLOCK_BYTES // (3 * t * flat.itemsize))
    z = np.empty((3, min(step, bc), t), dtype=flat.dtype)
    for r0 in range(0, bc, step):
        rows = slice(r0, r0 + step)
        part = flat[rows]
        zb = z[:, :len(part)]
        phases = T._conv_phases(part, w.shape[2], _STRIDE, _PAD)
        T._conv_into(zb.transpose(1, 0, 2), phases, w, None, _STRIDE)
        _modulus(zb[1], zb[2], zb[1], zb[2], eps)
        pair = zb[:2]  # low-pass, modulus
        if bn is not None:
            T._bn_eval_block(pair, *(a[:, rows] for a in bn), pair, pair)
        dst = out[rows].transpose(1, 0, 2)
        if skip is None:
            dst[...] = pair
        else:
            np.add(skip[rows].transpose(1, 0, 2), pair, out=dst)


def scatter_forward(x, gamma=None, beta=None, running_mean=None, running_var=None,
                    training: bool = False, skip=None) -> Tensor:
    """Map (B, C, L) to (B, 2C, ceil(L/2)); with ``gamma`` given, then
    batchnorm1d over the 2C channels; then ``skip +`` when a skip is given;
    as one node, differentiable everywhere.

    Its output, gradients and running arrays equal those of the composed
    chain (three single-filter conv1d calls, mul/add/sqrt, concat,
    batchnorm1d, add) bit for bit. The three filters run as one stacked conv
    from one phase copy; each output channel still sums its own 9 taps in
    order. In training mode, or whenever a graph is recorded, the filter
    responses fill full arrays, and backward takes the x gradient filter by
    filter in the order the chain's walk used. In eval mode without a graph
    the work runs over row blocks of the (B*C) fold, each taking the
    modulus, batchnorm and the skip add while in cache.
    """
    x = T._coerce(x)
    if x.ndim != 3:
        raise ShapeError(f"scatter_forward expects (B, C, L), got rank {x.ndim}")
    b, c, l = x.shape
    if l < 2:
        raise WindowTooShort(f"scatter_forward: window too short, L={l} < 2")
    shape = (b, 2 * c, (l + 1) // 2)
    if gamma is not None:
        gamma, beta, rm, rv = T._bn_args(gamma, beta, running_mean, running_var, 2 * c)
    if skip is not None:
        skip = T._coerce(skip)
        if skip.data.shape != shape:
            raise ShapeError(f"scatter_forward: skip shape {skip.data.shape} != {shape}")
    # skip comes first, as in add(skip, ...)
    parents = (() if skip is None else (skip,)) + (x,) + (
        () if gamma is None else (gamma, beta))
    dt = engine.dtype()
    w, eps = _filters(dt), dt(_EPS_MOD)
    # Channels fold into the batch so one single-channel conv serves them
    # all; row (b, c) of the fold gives the (low-pass, modulus) pair of
    # output channels 2c and 2c + 1.
    flat = x.data.reshape(b * c, 1, l)
    pair_shape = (b * c, 2, shape[2])
    if not (training or T._records(parents)):
        bn = None
        if gamma is not None:
            # (2, B*C, 1) per-row copies of the channel arrays
            bn = [np.tile(a.reshape(c, 2).T, (1, b))[:, :, None]
                  for a in (*T._bn_eval_stats(rm, rv), gamma.data, beta.data)]
        data = np.empty(shape, dtype=x.data.dtype)
        _eval_rows(flat, w, eps, bn,
                   None if skip is None else skip.data.reshape(pair_shape),
                   data.reshape(pair_shape))
        return Tensor._result(data, parents, None)

    z = np.empty((3, b * c, shape[2]), dtype=x.data.dtype)
    phases = T._conv_phases(flat, w.shape[2], _STRIDE, _PAD)
    T._conv_into(z.transpose(1, 0, 2), phases, w, None, _STRIDE)
    del phases
    y = np.empty(shape, dtype=x.data.dtype)
    pairs = y.reshape(pair_shape)
    pairs[:, 0] = z[0]
    # the low-pass slot, once copied, holds the modulus that backward reads
    mod, re, im = z
    _modulus(re, im, mod, pairs[:, 1], eps)
    pairs[:, 1] = mod
    data, bn_backward = y, None
    if gamma is not None:
        data, bn_backward = T._bn_step(y, gamma, beta, rm, rv, training, own_x=True)
    if skip is not None:
        np.add(skip.data, data, out=data)

    def backward(g):
        if skip is not None and skip.requires_grad:
            skip._accumulate(g)
        gy = g if bn_backward is None else bn_backward(g)
        if not x.requires_grad:
            return
        gp = gy.reshape(pair_shape)
        # sqrt's gradient, then the two equal terms mul(re, re) accumulates
        ga = gp[:, 1] * (0.5 / mod)
        g_re = ga * re
        g_re += g_re
        g_im = ga * im
        g_im += g_im
        # filter by filter, summed in the chain's order: low-pass, re, im
        gx = T._conv_grad_x(gp[:, :1], w[:1], flat, _STRIDE, _PAD)
        gx += T._conv_grad_x(g_re[:, None], w[1:2], flat, _STRIDE, _PAD)
        gx += T._conv_grad_x(g_im[:, None], w[2:], flat, _STRIDE, _PAD)
        x._accumulate_fresh(gx.reshape(x.shape))

    return Tensor._result(data, parents, backward)
