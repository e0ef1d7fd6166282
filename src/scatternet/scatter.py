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

The layer holds no trainable parameters.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import ShapeError, WindowTooShort
from .tensor import Tensor, add, concat, conv1d, mul, reshape, sqrt
from .wavelets import filter_bank

_PAD = 4
_STRIDE = 2
# Smooths the modulus sqrt(re^2 + im^2 + _EPS_MOD) so the gradient stays
# finite at zero response; the forward perturbation is below sqrt(_EPS_MOD).
_EPS_MOD = 1e-12


def scatter_forward(x: Tensor) -> Tensor:
    """Map (B, C, L) to (B, 2C, ceil(L/2)); differentiable everywhere."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"scatter_forward expects (B, C, L), got rank {x.ndim}")
    b, c, l = x.shape
    if l < 2:
        raise WindowTooShort(f"scatter_forward: window too short, L={l} < 2")
    fb = filter_bank()

    dt = engine.dtype()
    w_phi = Tensor(np.asarray(fb.phi, dtype=dt)[None, None, :])
    w_re = Tensor(np.asarray(fb.psi_re, dtype=dt)[None, None, :])
    w_im = Tensor(np.asarray(fb.psi_im, dtype=dt)[None, None, :])

    # Channels fold into the batch so one single-channel conv serves them all.
    flat = reshape(x, (b * c, 1, l))
    low = conv1d(flat, w_phi, stride=_STRIDE, padding=_PAD)
    re = conv1d(flat, w_re, stride=_STRIDE, padding=_PAD)
    im = conv1d(flat, w_im, stride=_STRIDE, padding=_PAD)
    mod = sqrt(add(add(mul(re, re), mul(im, im)), _EPS_MOD))

    t = low.shape[2]
    pair = concat([low, mod], axis=1)          # (B*C, 2, T)
    return reshape(pair, (b, 2 * c, t))

