"""Filter pair constants and the spectral report."""

import numpy as np
import pytest

from scatternet.engine import ConfigError
from scatternet.wavelets import (MAX_FFT_LEN, FilterBank, analyticity_report,
                                 centered_psi_spectrum, fft, filter_bank)


def dft_bruteforce(x: np.ndarray) -> np.ndarray:
    n = len(x)
    k = np.arange(n)
    return (x[None, :] * np.exp(-2j * np.pi * k[:, None] * k[None, :] / n)).sum(axis=1)


class TestFilterBank:
    def test_center_taps(self):
        fb = filter_bank()
        assert fb.phi[4] == pytest.approx(0.4023689270, abs=1e-12)
        assert fb.psi[4] == pytest.approx(0.4023689270 + 0j, abs=1e-12)

    def test_first_psi_tap(self):
        fb = filter_bank()
        assert fb.psi[0] == pytest.approx(0.0050550143 + 0.0087555416j, abs=1e-12)

    def test_lengths_and_center(self):
        fb = filter_bank()
        assert fb.phi.shape == fb.psi_re.shape == fb.psi_im.shape == (9,)
        assert fb.center_index == 4

    def test_phi_symmetric(self):
        fb = filter_bank()
        for k in range(5):
            assert fb.phi[4 + k] == fb.phi[4 - k]

    def test_psi_conjugate_symmetric(self):
        fb = filter_bank()
        for k in range(5):
            assert fb.psi_re[4 + k] == fb.psi_re[4 - k]
            assert fb.psi_im[4 + k] == -fb.psi_im[4 - k]
        assert fb.psi_im[4] == 0.0

    def test_tap_sums(self):
        fb = filter_bank()
        assert abs(fb.phi.sum() - 1.0) < 1e-9
        assert abs(fb.psi_re.sum()) < 1e-9
        assert abs(fb.psi_im.sum()) < 1e-9

    def test_returns_fresh_copies(self):
        a, b = filter_bank(), filter_bank()
        a.phi[0] = 99.0
        assert b.phi[0] != 99.0


class TestFFT:
    @pytest.mark.parametrize("n", [2, 4, 8, 64, 256])
    def test_matches_bruteforce_dft(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), dft_bruteforce(x), atol=1e-9 * n)

    def test_impulse_is_flat(self):
        x = np.zeros(16, dtype=complex)
        x[0] = 1.0
        np.testing.assert_allclose(fft(x), np.ones(16), atol=1e-12)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            fft(np.zeros(12, dtype=complex))


class TestAnalyticityReport:
    def test_ratio_frozen_value(self):
        rep = analyticity_report(fft_len=256)
        assert rep["neg_freq_energy_ratio"] == pytest.approx(0.065480382, abs=1e-8)

    def test_phi_as_psi_gives_half(self):
        fb = filter_bank()
        symmetric = FilterBank(phi=fb.phi, psi_re=fb.phi, psi_im=np.zeros(9))
        rep = analyticity_report(symmetric, fft_len=256)
        assert rep["neg_freq_energy_ratio"] == pytest.approx(0.5, abs=1e-9)

    def test_lipschitz_bound_value(self):
        rep = analyticity_report(fft_len=256)
        assert rep["lipschitz_bound"] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [64, 128, 256, 1024, 4096])
    def test_lipschitz_bound_independent_of_fft_len(self, n):
        rep = analyticity_report(fft_len=n)
        assert rep["lipschitz_bound"] == pytest.approx(1.0, abs=1e-6)

    def test_ratio_converges_monotonically(self):
        # successive refinements approach a limit near 0.068; the deltas shrink
        ratios = [analyticity_report(fft_len=n)["neg_freq_energy_ratio"]
                  for n in (64, 128, 256, 1024, 4096)]
        deltas = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
        assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))
        assert abs(ratios[-1] - 0.0678) < 1e-3

    def test_short_fft_len_rejected(self):
        with pytest.raises(ConfigError):
            analyticity_report(fft_len=32)
        with pytest.raises(ConfigError):
            analyticity_report(fft_len=96)  # not a power of two

    def test_centered_spectrum_is_real(self):
        spec = centered_psi_spectrum(filter_bank(), 256)
        assert np.abs(spec.imag).max() < 1e-9

    def test_frame_bounded_by_one(self):
        # sqrt(|phi_hat|^2 + |psi_hat|^2) never exceeds the reported bound
        fb = filter_bank()
        n = 256
        phi_hat = fft(np.concatenate([fb.phi, np.zeros(n - 9)]).astype(complex))
        psi_hat = fft(np.concatenate([fb.psi, np.zeros(n - 9)]).astype(complex))
        frame = np.sqrt(np.abs(phi_hat) ** 2 + np.abs(psi_hat) ** 2)
        assert frame.max() <= analyticity_report(fb, fft_len=n)["lipschitz_bound"] + 1e-12


class TestFftLenBound:
    def test_longer_than_max_rejected_before_allocating(self):
        for fn in (analyticity_report, centered_psi_spectrum):
            for n in (2 * MAX_FFT_LEN, 100_000_000_000):
                with pytest.raises(ConfigError, match=f"in \\[64, {MAX_FFT_LEN}\\]"):
                    fn(fft_len=n)

    def test_short_spectrum_rejected(self):
        # too short to hold the 9 taps, where numpy raised a ValueError
        for n in (-4, 0, 8):
            with pytest.raises(ConfigError, match="fft_len must be in"):
                centered_psi_spectrum(fft_len=n)

    def test_max_accepted(self):
        assert centered_psi_spectrum(fft_len=MAX_FFT_LEN).shape == (MAX_FFT_LEN,)
