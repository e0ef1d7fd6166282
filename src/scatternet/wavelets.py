"""Fixed 9-tap filter pair used by the scatter layer, plus its spectral report.

The low-pass taps are symmetric and sum to 1; the band-pass taps are
conjugate-symmetric (real part even, imaginary part odd) and sum to 0, which
makes the filter approximately analytic: almost all of its energy sits on
positive frequencies. ``analyticity_report`` quantifies that and the joint
operator-norm bound of the pair.

The coefficients are stored verbatim to all printed digits; there is no
generator formula. The report's spectra come from ``np.fft.fft``; ``fft``
below only adds the power-of-two length check the report relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import ConfigError

# Spectrum lengths computed, checked before anything is allocated. The
# ratio moves by about 1e-5 per doubling at the longest, and a huge length
# (say 1e11) cannot be allocated at all.
MIN_FFT_LEN, MAX_FFT_LEN = 64, 2 ** 16

_PHI = np.array([
    -0.0101100286,
    -0.0345177968,
    0.0589255650,
    0.2845177968,
    0.4023689270,
    0.2845177968,
    0.0589255650,
    -0.0345177968,
    -0.0101100286,
], dtype=np.float64)

_PSI_RE = np.array([
    0.0050550143,
    -0.0345177968,
    -0.0294627825,
    -0.1422588984,
    0.4023689270,
    -0.1422588984,
    -0.0294627825,
    -0.0345177968,
    0.0050550143,
], dtype=np.float64)

_PSI_IM = np.array([
    0.0087555416,
    0.0,
    0.0510310363,
    -0.2463996399,
    0.0,
    0.2463996399,
    -0.0510310363,
    0.0,
    -0.0087555416,
], dtype=np.float64)


@dataclass(frozen=True)
class FilterBank:
    """The fixed low-pass/band-pass tap pair, centered at ``center_index``."""

    phi: np.ndarray = field(default_factory=lambda: _PHI.copy())
    psi_re: np.ndarray = field(default_factory=lambda: _PSI_RE.copy())
    psi_im: np.ndarray = field(default_factory=lambda: _PSI_IM.copy())
    center_index: int = 4

    @property
    def psi(self) -> np.ndarray:
        return self.psi_re + 1j * self.psi_im


def filter_bank() -> FilterBank:
    """The canonical bank, hard-coded to all printed digits."""
    return FilterBank()


def fft(x: np.ndarray) -> np.ndarray:
    """``np.fft.fft`` of a power-of-two length complex vector."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    if n == 0 or n & (n - 1):
        raise ConfigError(f"fft length must be a power of two, got {n}")
    return np.fft.fft(x)


def _centered_spectrum(taps: np.ndarray, center_index: int, fft_len: int) -> np.ndarray:
    if not MIN_FFT_LEN <= fft_len <= MAX_FFT_LEN:
        raise ConfigError(f"fft_len must be in [{MIN_FFT_LEN}, {MAX_FFT_LEN}], "
                          f"got {fft_len}")
    # Rolling the center tap to position 0 removes the linear phase, so the
    # band-pass spectrum comes out real (conjugate symmetry) up to rounding.
    padded = np.zeros(fft_len, dtype=np.complex128)
    padded[: taps.size] = taps
    return fft(np.roll(padded, -center_index))


def analyticity_report(fb: FilterBank | None = None, fft_len: int = 256) -> dict:
    """Spectral quality numbers for the pair.

    ``neg_freq_energy_ratio`` is the fraction of band-pass energy |psi_hat|^2
    sitting on strictly negative frequency bins. The DC and Nyquist bins
    belong to neither side and are excluded from numerator and denominator
    (a real symmetric filter then scores exactly 0.5). ``lipschitz_bound``
    is max over bins of sqrt(|phi_hat|^2 + |psi_hat|^2), an upper bound on
    the scatter layer's operator norm before subsampling.
    """
    if fb is None:
        fb = filter_bank()
    phi_hat = _centered_spectrum(fb.phi.astype(np.complex128), fb.center_index, fft_len)
    psi_hat = _centered_spectrum(fb.psi, fb.center_index, fft_len)

    energy = np.abs(psi_hat) ** 2
    half = fft_len // 2
    pos = energy[1:half].sum()
    neg = energy[half + 1:].sum()
    ratio = float(neg / (pos + neg))

    lipschitz = float(np.sqrt(np.abs(phi_hat) ** 2 + np.abs(psi_hat) ** 2).max())
    return {
        "neg_freq_energy_ratio": ratio,
        "lipschitz_bound": lipschitz,
    }


def centered_psi_spectrum(fb: FilterBank | None = None, fft_len: int = 256) -> np.ndarray:
    """Band-pass spectrum with the linear phase removed (real up to rounding)."""
    if fb is None:
        fb = filter_bank()
    return _centered_spectrum(fb.psi, fb.center_index, fft_len)
