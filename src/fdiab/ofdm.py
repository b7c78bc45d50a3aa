"""OFDM baseband: the symbol layout, modulation, demodulation, channel
application and LS estimation.

Normalization contract: a grid with unit average symbol power modulates to
unit average sample power over the useful (post-CP) part, so time-domain
power equals frequency-domain power over the active subcarriers (Parseval).
"""

from dataclasses import dataclass

import numpy as np

from .util import FieldError, bounded, check_bounds


@dataclass(frozen=True)
class OfdmConfig:
    """Numerology. Defaults: FFT 1024, 792 active subcarriers, CP 140.

    The 120 kHz subcarrier spacing puts the sample rate at 122.88 Msps and
    the occupied bandwidth at 95.04 MHz; the configured system bandwidth
    (120 MHz) is a noise-bandwidth figure, not the occupied width.
    """

    fft_size: int = bounded(1024, ">= 3")  # past the fewest active subcarriers
    active_subcarriers: int = bounded(792, ">= 2")
    cp_len: int = bounded(140, ">= 0")
    subcarrier_spacing_hz: float = bounded(120e3, "> 0, < inf")

    def __post_init__(self):
        check_bounds(self)
        n, active = self.fft_size, self.active_subcarriers
        if active >= n or active % 2 != 0:  # centered around DC, which stays unused
            raise FieldError("active_subcarriers", f"must be even and < fft_size {n}, got {active}")
        if self.cp_len >= n:
            raise FieldError("cp_len", f"must be < fft_size {n}, got {self.cp_len}")

    @property
    def sample_rate_hz(self):
        return self.fft_size * self.subcarrier_spacing_hz

    @property
    def symbol_len(self):
        return self.fft_size + self.cp_len

    @property
    def cp_duration_s(self):
        return self.cp_len / self.sample_rate_hz

    def subcarrier_offsets(self):
        """Signed subcarrier indices around DC, DC excluded."""
        half = self.active_subcarriers // 2
        return np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])

    def active_bins(self):
        """FFT bin index of each active subcarrier."""
        return self.subcarrier_offsets() % self.fft_size

    def subcarrier_freqs_hz(self):
        """Baseband frequency of each active subcarrier."""
        return self.subcarrier_offsets() * self.subcarrier_spacing_hz

    def bin_freqs_hz(self):
        """Baseband frequency of every FFT bin (fftfreq layout)."""
        return np.fft.fftfreq(self.fft_size, d=1.0 / self.sample_rate_hz)


def symbol_rows(samples, cfg, name="samples"):
    """View of samples (..., n) as (..., n_symbols, symbol_len): one row per
    OFDM symbol, its CP first and its useful part from column cp_len on.

    The package's one whole-symbol check: a partial symbol raises a
    ValueError that starts with name, the caller's argument.
    """
    n = samples.shape[-1]
    if n % cfg.symbol_len:
        raise ValueError(f"{name}: {n} samples are not whole {cfg.symbol_len}-sample symbols")
    return samples.reshape(samples.shape[:-1] + (n // cfg.symbol_len, cfg.symbol_len))


def join_with_cp(useful, cfg):
    """Useful parts (..., n_symbols, fft_size) as one stream (..., n) in which
    each symbol is preceded by its CP, a copy of its last cp_len samples."""
    rows = np.concatenate([useful[..., cfg.fft_size - cfg.cp_len :], useful], axis=-1)
    return rows.reshape(rows.shape[:-2] + (-1,))


def _as_grid(grid, cfg):
    grid = np.atleast_2d(np.asarray(grid, dtype=complex))
    if grid.shape[-1] != cfg.active_subcarriers:
        raise ValueError(
            f"grid must be (..., n_symbols, {cfg.active_subcarriers}), got {grid.shape}"
        )
    return grid


def modulate(grid, cfg):
    """Map a symbol grid to centered bins, IDFT each symbol and prepend the CP."""
    grid = _as_grid(grid, cfg)
    scale = cfg.fft_size / np.sqrt(cfg.active_subcarriers)
    spectrum = np.zeros(grid.shape[:-1] + (cfg.fft_size,), dtype=complex)
    half = cfg.active_subcarriers // 2  # active_bins: the negative half, then the positive
    spectrum[..., cfg.fft_size - half :] = grid[..., :half]
    spectrum[..., 1 : half + 1] = grid[..., half:]
    return join_with_cp(np.fft.ifft(spectrum, axis=-1) * scale, cfg)


def symbol_spectra(samples, cfg):
    """DFT of each symbol's useful part, (..., n_symbols, fft_size): what
    demodulation and every per-symbol circular channel start from."""
    useful = symbol_rows(np.asarray(samples, dtype=complex), cfg)[..., cfg.cp_len :]
    return np.fft.fft(useful, axis=-1)


def active_grid(spectra, cfg):
    """The active subcarriers of symbol_spectra output, as a modulate grid."""
    scale = cfg.fft_size / np.sqrt(cfg.active_subcarriers)
    return (spectra / scale)[..., cfg.active_bins()]


def demodulate(samples, cfg):
    """Strip CPs, DFT each symbol and extract the active bins."""
    return active_grid(symbol_spectra(samples, cfg), cfg)


def apply_frequency_response(spectra, h_bins, cfg):
    """Per-symbol circular channel: the stream whose symbols have the useful
    parts spectra * h_bins, each preceded by its CP, for spectra the
    symbol_spectra of the stream the channel h_bins filters.

    Exact for any tapped channel whose delay spread stays well inside the CP,
    which is how both the SI channel and the two-tap canceller ramps are
    realized (fractional delays as frequency-domain phase ramps).
    """
    h_bins = np.asarray(h_bins, dtype=complex)
    if h_bins.shape != (cfg.fft_size,):
        raise ValueError(f"h_bins must have shape ({cfg.fft_size},)")
    filtered = spectra * h_bins
    return join_with_cp(np.fft.ifft(filtered, axis=-1, out=filtered), cfg)


def estimate_channel_ls(rx_grid, pilot_grid):
    """Per-subcarrier LS channel estimate H_k = Y_k / X_k, averaged over symbols.

    Averaging over n pilot symbols cuts the estimation noise variance by n.
    """
    rx = np.atleast_2d(np.asarray(rx_grid, dtype=complex))
    pilots = np.atleast_2d(np.asarray(pilot_grid, dtype=complex))
    if rx.shape != pilots.shape:
        raise ValueError("rx and pilot grids must have the same shape")
    if np.any(pilots == 0.0):
        raise ValueError("pilot grid must be nonzero on every active subcarrier")
    return np.mean(rx / pilots, axis=0)


_QPSK = ((np.arange(4) // 2 * 2 - 1) + 1j * (np.arange(4) % 2 * 2 - 1)) / np.sqrt(2.0)


def qpsk_symbols(rng, shape):
    """Unit-power QPSK points drawn uniformly: _QPSK[2 * re + im] of 0/1 draws re, then im."""
    return _QPSK[rng.integers(0, 2, size=shape) * 2 + rng.integers(0, 2, size=shape)]


def build_frame(cfg, n_symbols, rng):
    """Time-domain samples of a frame of n_symbols random QPSK symbols on
    every active subcarrier; a link uses its first symbols as pilots."""
    return modulate(qpsk_symbols(rng, (n_symbols, cfg.active_subcarriers)), cfg)
