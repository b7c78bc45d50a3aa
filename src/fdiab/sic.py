"""Self-interference reduction chain: propagation, analog two-tap canceller,
ADC, and fifth-order parallel-Hammerstein digital canceller.

Stage order matches the receive path: the SI signal arrives attenuated by the
propagation domain, the analog canceller subtracts a two-tap regeneration of
the tapped PA output, the ADC quantizes, and the digital canceller removes
what is left. Per-domain reductions are reported in dB and must add up to the
total.
"""

import math
import warnings
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .ofdm import (
    OfdmConfig,
    active_grid,
    apply_frequency_response,
    build_frame,
    demodulate,
    estimate_channel_ls,
    symbol_rows,
    symbol_spectra,
)
from .rf import AdcModel, NoiseModel, PaModel, adc_quantize, fits_gray_zone, pa_apply, thermal_noise
from .util import (
    SPEED_OF_LIGHT, FieldError, bounded, check_bounds, dbm_to_watt, mean_power_dbm, substream,
)


def default_canceller_delays(separation_m):
    """Two-tap delays bracketing the direct SI path's delay tau: (0.9 tau,
    1.2 tau), which gives the paper's pairs to within 0.1%."""
    tau = separation_m / SPEED_OF_LIGHT
    return (0.9 * tau, 1.2 * tau)


@dataclass(frozen=True)
class TwoTapConfig:
    """Analog canceller taps: two fixed delays with tuned complex gains."""

    delays_s: tuple
    gains: tuple

    def __post_init__(self):
        t1, t2 = self.delays_s
        if not (0.0 <= t1 < t2):
            raise FieldError("delays_s", f"need 0 <= tau1 < tau2, got {self.delays_s!r}")

    def freq_response(self, freqs_hz):
        f = np.asarray(freqs_hz, dtype=float)
        t1, t2 = self.delays_s
        a1, a2 = self.gains
        return a1 * np.exp(-2j * np.pi * f * t1) + a2 * np.exp(-2j * np.pi * f * t2)


def _check_inside_cp(delays_s, cfg, name):
    """Raise, naming name, unless every delay of delays_s is shorter than the
    CP: a channel applied circularly per OFDM symbol would wrap a later tap
    around the symbol."""
    if max(delays_s) >= cfg.cp_duration_s:
        cp = f"the {cfg.cp_duration_s:.4g} s cyclic prefix"
        raise ValueError(f"{name}: a delay of {max(delays_s):.4g} s is at or past {cp}")


def tune_two_tap(si_freq_response, delays_s, cfg):
    """Closed-form LS gains for the two-tap canceller.

    Solves min over (a1, a2) of sum_k |H_k - a1 e^{-j2pi f_k t1}
    - a2 e^{-j2pi f_k t2}|^2 on the active subcarriers with np.linalg.lstsq.
    """
    t1, t2 = delays_s
    if t1 == t2:
        raise ValueError("equal canceller delays make the system singular")
    if t1 > t2:  # LS is symmetric under permutation; store taps sorted
        t1, t2 = t2, t1
    _check_inside_cp((t1, t2), cfg, "delays_s")
    h = np.asarray(si_freq_response, dtype=complex)
    if h.shape != (cfg.active_subcarriers,):
        raise ValueError("si_freq_response must cover all active subcarriers")
    f = cfg.subcarrier_freqs_hz()
    basis = np.exp(-2j * np.pi * np.outer(f, (t1, t2)))
    gains, *_ = np.linalg.lstsq(basis, h, rcond=None)
    return TwoTapConfig(delays_s=(t1, t2), gains=(complex(gains[0]), complex(gains[1])))


def _check_symbols(rx, n_symbols, cfg):
    """Raise, naming rx, unless the receive stream rx holds the n_symbols
    whole symbols of its frame; rx as symbol_rows if it does."""
    rows = symbol_rows(np.asarray(rx, dtype=complex), cfg, "rx")
    if rows.shape[-2] != n_symbols:
        raise ValueError(f"rx: {rows.shape[-2]} symbols for a frame of {n_symbols}")
    return rows


def apply_analog_canceller(pa_spectra, rx, two_tap, cfg):
    """Subtract the two-tap regeneration of the tapped PA output, whose
    symbol_spectra are pa_spectra, from rx, a receive stream of its frame.

    The fractional delays are realized as frequency-domain phase ramps per
    OFDM symbol, exact under cyclic-prefix circularity because both delays
    sit far inside the CP.
    """
    _check_inside_cp(two_tap.delays_s, cfg, "two_tap.delays_s")
    _check_symbols(rx, pa_spectra.shape[-2], cfg)
    regen = apply_frequency_response(pa_spectra, two_tap.freq_response(cfg.bin_freqs_hz()), cfg)
    return np.subtract(rx, regen, out=regen)


# ---------------------------------------------------------------------------
# Digital-domain nonlinear canceller (parallel Hammerstein, odd orders)
# ---------------------------------------------------------------------------
# One static branch per order, each with an FIR of memory_len taps shifted
# alignment samples toward negative delays (effective delays [-alignment,
# memory_len-1-alignment]), which keeps sub-sample SI path delays well inside
# the window; the coefficients are an (n_orders, memory_len) array.


def _check_orders(orders, name):
    # Odd orders only (baseband-relevant distortion); the model tops out at
    # the fifth order, lower-order subsets serve as baselines. A tuple: a frame
    # key hashes it.
    if (
        not isinstance(orders, tuple)
        or len(orders) == 0
        or any(p not in (1, 3, 5) for p in orders)
        or any(a >= b for a, b in zip(orders, orders[1:]))
    ):
        raise FieldError(name, f"must be a tuple of increasing odd integers <= 5, got {orders!r}")


def _check_structure(orders, memory_len, alignment):
    _check_orders(orders, "orders")
    if memory_len < 1:
        raise FieldError("memory_len", f"must be >= 1, got {memory_len}")
    if not 0 <= alignment < memory_len:
        raise FieldError("alignment", f"must lie in [0, memory_len {memory_len}), got {alignment}")


def _branch_signals(tx, orders):
    """Branch signals psi_p(n) = x(n) * |x(n)|^(p-1), one row per order."""
    env = np.abs(tx)
    psi = np.empty((len(orders), tx.size), dtype=complex)
    for row, p in zip(psi, orders):
        np.multiply(tx, env ** (p - 1), out=row)
    return psi


def hammerstein_basis(tx, orders, memory_len, alignment, idx):
    """Design matrix with columns psi_p(n - m + alignment) for each branch tap.

    psi_p(n) = x(n) * |x(n)|^(p-1). idx selects the target samples; every
    shifted index must stay inside the stream. This is the reference
    definition of the canceller's regression: fit_hammerstein and
    apply_digital_sic never form this matrix, they work from the
    HammersteinRegressors, and tests check them against it.
    """
    _check_structure(orders, memory_len, alignment)
    x = np.asarray(tx, dtype=complex)
    idx = np.asarray(idx)
    if idx.min() - (memory_len - 1 - alignment) < 0 or idx.max() + alignment >= x.size:
        raise ValueError("tap window leaves the sample stream; shrink idx or alignment")
    psi = _branch_signals(x, orders)
    cols = [branch[idx - (m - alignment)] for branch in psi for m in range(memory_len)]
    return np.stack(cols, axis=1)


def _fit_samples(x, cfg, alignment):
    """The samples of x's OFDM frame, layout cfg, that the fit takes, one row
    per symbol: its useful part less its last alignment samples. On those a
    tap shift is a circular shift within the symbol: the CP supplies the
    causal history, and an advanced tap would read the next symbol's CP."""
    return symbol_rows(x, cfg)[..., cfg.cp_len : cfg.symbol_len - alignment]


def _check_window(memory, align, cfg, path="memory_len"):
    """The reach of memory taps at alignment align that fit an OFDM symbol of
    layout cfg: at most its CP, and at most fft_size taps; a FieldError at path
    otherwise."""
    reach = memory - 1 - align
    if reach > cfg.cp_len or memory > cfg.fft_size:
        msg = f"reach {reach} samples back; a symbol allows {cfg.cp_len} (its CP) and at most"
        raise FieldError(path, f"{memory} taps at alignment {align} {msg} {cfg.fft_size} taps")
    return reach


def _check_frame(tx, cfg, memory_len, alignment):
    """Raise unless every tap of the fit's samples is a circular shift within
    its symbol: a tap may reach back into the CP, which must then repeat the
    symbol's tail bit for bit."""
    rows = symbol_rows(tx, cfg, "tx_baseband")
    first = cfg.cp_len - _check_window(memory_len, alignment, cfg)  # the first CP sample read
    if not np.array_equal(rows[..., first : cfg.cp_len], rows[..., first + cfg.fft_size :]):
        raise ValueError("tx_baseband: a CP differs from its symbol's tail within the taps' reach")


def _gram(psi, memory_len, alignment, cfg):
    """(B^H B for B = hammerstein_basis on the fit's samples, the spectra of
    psi's useful parts), without forming B; the spectra are taken in place.

    The row of B for fit sample k holds psi_p(k + alignment - m), so every
    entry is a lagged correlation of two branch signals. The first tap row,
    G[(p,0),(q,l)], is summed per symbol in the frequency domain. The other
    entries follow along each diagonal: shifting both taps by one shifts
    every symbol's run of samples back one, so G[(p,m+1),(q,l+1)] =
    G[(p,m),(q,l)] plus the product of the samples each run gains at its
    start, minus those it loses at its end.
    """
    n_br, mem, n = psi.shape[0], memory_len, cfg.fft_size
    rows = symbol_rows(psi, cfg)
    n_symbols = rows.shape[1]
    lags = np.arange(mem - 1)
    gained = rows[..., cfg.cp_len + alignment - 1 - lags].transpose(1, 0, 2)
    lost = rows[..., cfg.symbol_len - 1 - lags].transpose(1, 0, 2)
    gained, lost = gained.reshape(n_symbols, -1), lost.reshape(n_symbols, -1)
    edge = (gained.conj().T @ gained - lost.conj().T @ lost).reshape(n_br, mem - 1, n_br, mem - 1)
    # Tap l of symbol s, sample u, reads P_q(s, (u - l) mod n). Summed over
    # all u, corr[l, q, j] is one transform of sum_s P^_q conj(P^_j), less
    # the u < alignment the fit skips.
    shifts = (np.arange(alignment) - np.arange(mem)[:, None]) % n  # (u - l) mod n
    skip = rows[..., cfg.cp_len + shifts]
    skipped = np.tensordot(skip, skip[:, :, 0].conj(), axes=([1, 3], [1, 2]))
    useful = _fit_samples(psi, cfg, 0)
    spectra = np.fft.fft(useful, out=useful)
    cross = np.vecdot(spectra[None], spectra[:, None], axis=-2)
    first = np.fft.fft(cross, norm="forward", out=cross)[..., :mem].transpose(2, 0, 1)
    first -= skipped.transpose(1, 0, 2)

    gram = np.empty((n_br, mem, n_br, mem), dtype=complex)
    gram[:, 0] = first.transpose(2, 1, 0)
    gram[:, :, :, 0] = np.conj(first).transpose(1, 0, 2)
    for m in range(1, mem):
        gram[:, m, :, 1:] = gram[:, m - 1, :, :-1] + edge[:, m - 1]
    return gram.reshape(n_br * mem, n_br * mem), spectra


def _rhs(spectra, target, memory_len, alignment):
    """B^H target for B = hammerstein_basis on the fit's samples, from the
    spectra _gram leaves: one transform of sum_s conj(R^) P^_q per branch,
    with the target's u < alignment, which the fit skips, zeroed."""
    n_symbols, n = spectra.shape[1:]
    rx_hat = np.zeros((n_symbols, n), dtype=complex)
    rx_hat[:, alignment:] = target
    np.fft.fft(rx_hat, out=rx_hat)
    cross = np.vecdot(rx_hat, spectra, axis=-2)
    corr = np.fft.fft(cross, norm="forward", out=cross)[:, :memory_len]
    return np.conj(corr).reshape(-1)


class HammersteinRegressors:
    """What the canceller reads of a transmitted OFDM frame alone, layout cfg:
    the spectra of the branch signals' useful parts and, when a ridge is
    given, the ridge-regularized Gram, with the fit's checks and warnings.
    Every receive stream of the frame is fit (fit_hammerstein), or cancelled
    (apply_digital_sic), against it."""

    def __init__(self, tx, orders, memory_len, alignment, cfg, ridge=None):
        _check_structure(orders, memory_len, alignment)
        _check_frame(tx, cfg, memory_len, alignment)
        self.orders, self.memory_len, self.alignment = orders, memory_len, alignment
        self.cfg, self.gram = cfg, None
        psi = _branch_signals(tx, orders)
        if ridge is None:
            useful = _fit_samples(psi, cfg, 0)
            self.spectra = np.fft.fft(useful, out=useful)
            return
        n_samples = psi.shape[1] // cfg.symbol_len * (cfg.fft_size - alignment)
        n_unknowns = len(orders) * memory_len
        if n_samples < n_unknowns:
            raise ValueError(f"underdetermined fit: {n_samples} samples for {n_unknowns} unknowns")
        if n_samples < 10 * n_unknowns:
            warnings.warn(
                f"training block of {n_samples} samples is short for {n_unknowns} unknowns; "
                "expect overfitting",
                RuntimeWarning,
            )
        gram, self.spectra = _gram(psi, memory_len, alignment, cfg)
        self.ridge = ridge * float(np.trace(gram).real) / gram.shape[0]
        self.gram = gram + self.ridge * np.eye(gram.shape[0])
        eig = np.abs(np.linalg.eigvalsh(self.gram))  # Hermitian: cond = |lambda| max / min
        cond = eig.max() / eig.min()
        if cond > 1e12:
            warnings.warn(
                f"hammerstein basis badly conditioned (cond {cond:.2e}); "
                "coefficients may be unstable",
                RuntimeWarning,
            )


def _target(reg, rx):
    """The fit's samples of rx, a receive stream of reg's frame, one row per
    symbol."""
    rows = _check_symbols(rx, reg.spectra.shape[1], reg.cfg)
    return rows[:, reg.cfg.cp_len : reg.cfg.symbol_len - reg.alignment]


def fit_hammerstein(reg, rx):
    """The (n_orders, memory_len) coefficients of the ridge-regularized LS fit
    of the parallel-Hammerstein canceller to rx, a receive stream of the frame
    of reg, over its samples _fit_samples(rx, reg.cfg, reg.alignment); reg
    must hold a Gram.

    The ridge is scaled by the trace-normalized basis Gram; the odd-order
    branches are highly correlated and the tiny ridge stabilizes the solve
    without measurably biasing the residual.
    """
    if reg.gram is None:
        raise ValueError("reg: built without a ridge, it holds no Gram to fit with")
    rhs = _rhs(reg.spectra, _target(reg, rx), reg.memory_len, reg.alignment)
    return np.linalg.solve(reg.gram, rhs).reshape(len(reg.orders), reg.memory_len)


def apply_digital_sic(reg, rx, coeffs):
    """Residual rx - B @ coeffs, raveled, on the samples
    _fit_samples(rx, reg.cfg, reg.alignment) of rx, a receive stream of the
    frame of reg, for B = hammerstein_basis on those samples: one circular
    convolution per symbol over the branch spectra."""
    shape = (len(reg.orders), reg.memory_len)
    if np.shape(coeffs) != shape:
        raise ValueError(f"coeffs: expected shape {shape}, got {np.shape(coeffs)}")
    target = _target(reg, rx)
    fir = np.einsum("qsf,qf->sf", reg.spectra, np.fft.fft(coeffs, reg.spectra.shape[-1]))
    resid = np.fft.ifft(fir, out=fir)[:, reg.alignment :]
    np.subtract(target, resid, out=resid)
    return resid.ravel()


# ---------------------------------------------------------------------------
# Full link-level chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkChainParams:
    """Everything run_link_chain needs for one DU/MT link but its SI channel.

    antenna_separation_m labels the report and keys the analog canceller's
    delays (default_canceller_delays); a channel's direct tap arrives after
    antenna_separation_m / c.
    """

    antenna_separation_m: float = bounded(MISSING, "> 0, < inf")
    ofdm: OfdmConfig = OfdmConfig()
    pa: PaModel = PaModel()
    adc: AdcModel = AdcModel()
    noise: NoiseModel = NoiseModel()
    # PA driven with OFDM PAPR headroom below the CW compression input.
    input_backoff_db: float = bounded(12.0, ">= 0, < inf")
    # auto: engage the analog stage when the SI entering the ADC would either
    # violate the gray-zone rule or sit more than analog_engage_margin_db
    # above the floor (the digital stage's reliable depth).
    analog_mode: str = "auto"
    analog_engage_margin_db: float = bounded(50.0, "> -inf, < inf")
    hammerstein_orders: tuple = (1, 3, 5)
    hammerstein_memory: int = bounded(20, ">= 1")
    hammerstein_alignment: int = bounded(8, ">= 0")
    ridge: float = bounded(1e-8, ">= 0, < inf")
    n_pilot_symbols: int = bounded(2, ">= 0")
    n_data_symbols: int = bounded(16, ">= 0")
    n_holdout_symbols: int = bounded(8, ">= 1")

    def __post_init__(self):
        if self.analog_mode not in ("auto", "on", "off"):
            raise FieldError("analog_mode", f"must be auto, on or off, got {self.analog_mode!r}")
        check_bounds(self)
        _check_orders(self.hammerstein_orders, "hammerstein_orders")
        # The analog stage is tuned from the pilots: with none, every power is NaN.
        if self.analog_mode != "off" and self.n_pilot_symbols < 1:
            msg = f"must be >= 1 unless analog_mode is off, got {self.n_pilot_symbols}"
            raise FieldError("n_pilot_symbols", msg)
        memory, align = self.hammerstein_memory, self.hammerstein_alignment
        if align >= memory:
            msg = f"must be < hammerstein_memory {memory}, got {align}"
            raise FieldError("hammerstein_alignment", msg)
        _check_window(memory, align, self.ofdm, "hammerstein_memory")
        n_train = self.n_pilot_symbols + self.n_data_symbols
        n_samples = n_train * (self.ofdm.fft_size - align)
        n_unknowns = len(self.hammerstein_orders) * memory
        if n_samples < n_unknowns:
            msg = f"{n_train} training symbols give the fit {n_samples} samples"
            raise FieldError("n_data_symbols", f"{msg} for {n_unknowns} unknowns")
        # The PA puts out at most its drive, input_p1db_dbm - input_backoff_db,
        # through its linear gain; every stage reads at least the noise floor.
        out_dbm, noise = self.pa.p1db_dbm + 1.0 - self.input_backoff_db, self.noise
        if noise.floor_dbm >= out_dbm:
            limit, nf = out_dbm - noise.floor_dbm + noise.noise_figure_db, noise.noise_figure_db
            msg = f"must be < {limit:.4g} at bandwidth_hz {noise.bandwidth_hz:.4g}, where the noise"
            msg += f" floor reaches the PA's {out_dbm:.4g} dBm linear output, got {nf!r}"
            raise FieldError("noise.noise_figure_db", msg)


# The LinkChainParams fields the DU frames read: the QPSK frames, the PA, the
# thermal noise and the Hammerstein Gram. Chains that agree on them, at one
# seed, send the same frames; each chain's analog stage and ADC read the rest.
FRAME_FIELDS = (
    "ofdm", "pa", "noise", "input_backoff_db", "n_pilot_symbols", "n_data_symbols",
    "n_holdout_symbols", "hammerstein_orders", "hammerstein_memory", "hammerstein_alignment",
    "ridge",
)


# validate()'s tolerances on the per-domain dB sum and on a stage's rise.
SUM_TOL_DB = 0.01
MONOTONE_EPS_DB = 0.02


@dataclass(frozen=True)
class ReductionReport:
    """Per-domain SI reduction for one link realization.

    All stage powers are mean powers over the useful parts of a calibration
    frame (no desired backhaul signal present). per_domain_db holds the
    (propagation, analog, digital) contributions and sums to the total
    reduction from tx_power_dbm to after_digital_dbm.
    """

    tx_power_dbm: float
    after_propagation_dbm: float
    after_analog_dbm: float
    after_digital_dbm: float
    per_domain_db: tuple
    noise_floor_dbm: float
    analog_applied: bool
    gray_zone_ok: bool
    digital_saturated: bool
    holdout_residual_dbm: float
    antenna_separation_m: float

    def validate(self):
        # Every comparison below is false for NaN, so it would pass them all.
        for f in fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise ValueError(f"{f.name} is not finite: {getattr(self, f.name)}")
        if abs(sum(self.per_domain_db) - (self.tx_power_dbm - self.after_digital_dbm)) > SUM_TOL_DB:
            raise ValueError("per-domain contributions do not sum to the total")
        chain = (
            self.tx_power_dbm,
            self.after_propagation_dbm,
            self.after_analog_dbm,
            self.after_digital_dbm,
        )
        for a, b in zip(chain, chain[1:]):
            if b > a + MONOTONE_EPS_DB:
                # A rise to within the scatter of a frame's noise power (0.5 dB: 15
                # standard deviations over the default 18,288 fit samples) is the noise's.
                if b > self.noise_floor_dbm + 0.5:
                    raise ValueError("stage power increased along the chain")
                msg = f"puts the noise floor at {self.noise_floor_dbm:.4g} dBm, so close to"
                msg += f" the PA's {self.tx_power_dbm:.4g} dBm output that it lifts a stage"
                raise FieldError("noise_figure_db", f"{msg} above the one before it")
        return self


def _send_frame(params, n_symbols, seed, part, ridge=None):
    """The DU's frame part of seed as the chains that share it read it:
    (PA output power over the fit's samples, symbol_spectra of the PA output,
    thermal noise, HammersteinRegressors of the tx baseband), with the power
    and the Gram if ridge is given, else None and no Gram. Every draw comes from
    substream(seed, "frame-" + part) and substream(seed, "noise-" + part); the
    noise is drawn once the time-domain frame is let go, to bound the peak."""
    cfg, align = params.ofdm, params.hammerstein_alignment
    tx = build_frame(cfg, n_symbols, substream(seed, "frame-" + part))
    tx *= np.sqrt(dbm_to_watt(params.pa.input_p1db_dbm - params.input_backoff_db))
    pa_out = pa_apply(tx, params.pa)
    power_dbm = None if ridge is None else mean_power_dbm(_fit_samples(pa_out, cfg, align))
    pa_spectra = symbol_spectra(pa_out, cfg)
    del pa_out
    orders, memory = params.hammerstein_orders, params.hammerstein_memory
    reg = HammersteinRegressors(tx, orders, memory, align, cfg, ridge)
    n_samples = tx.size
    del tx
    noise = thermal_noise(n_samples, params.noise, substream(seed, "noise-" + part))
    return power_dbm, pa_spectra, noise, reg


def _si_bins(delays, gains, cfg):
    """exp(-2j pi f delays) @ gains over the FFT bins f of cfg. Past bin n/2 a ramp is its mirror's
    conjugate: the same bits, as fftfreq negates f exactly and exp(-iy) is conj(exp(iy))."""
    n, h = cfg.fft_size, cfg.fft_size // 2 + 1
    ramps = np.empty((n, delays.size), dtype=complex)
    ramps[:h] = np.exp(-2j * np.pi * np.outer(cfg.bin_freqs_hz()[:h], delays))
    ramps[h:] = ramps[n - h : 0 : -1].conj()
    return ramps @ gains


def _checked_taps(si_taps, params):
    """The SI channel si_taps, (delays_s, gains) as geometry.si_channel
    returns them, as two arrays. A ValueError names si_taps unless they are
    finite, one delay per gain, at least one, in delay order, the first at
    antenna_separation_m / c and every one inside the CP of params.ofdm."""
    delays, gains = map(np.asarray, si_taps)
    if delays.ndim != 1 or delays.shape != gains.shape or not delays.size:
        raise ValueError(f"si_taps: {delays.shape} delays for {gains.shape} gains, need one each")
    if not (np.isfinite(delays).all() and np.isfinite(gains).all()):
        raise ValueError("si_taps: delays and gains must be finite")
    if (np.diff(delays) < 0).any():
        raise ValueError("si_taps: delays must increase, the direct tap first")
    _check_inside_cp(delays, params.ofdm, "si_taps")
    direct_s = params.antenna_separation_m / SPEED_OF_LIGHT
    if not math.isclose(delays[0], direct_s, rel_tol=1e-9):
        sep = f"antenna_separation_m {params.antenna_separation_m!r} ({direct_s:.6g} s)"
        raise ValueError(f"si_taps: the direct tap at {delays[0]:.6g} s contradicts {sep}")
    return delays, gains


class _Link:
    """One chain of a shared frame: its SI channel (none under ideal FD), and
    what its calibration frame leaves for its holdout frame. It keeps the
    channel's taps and forms their FFT-bin response only to receive a frame."""

    def __init__(self, params, si_taps):
        self.params, self.two_tap = params, None
        self.si_taps = None if si_taps is None else _checked_taps(si_taps, params)

    def _received(self, pa_spectra, noise):
        """Thermal noise plus the PA output through the SI channel, less the
        analog canceller's regeneration once it is tuned. Never written in
        place: under ideal FD it is the shared noise itself."""
        cfg = self.params.ofdm
        rx = noise
        if self.si_taps is not None:
            rx = apply_frequency_response(pa_spectra, _si_bins(*self.si_taps, cfg), cfg)
            rx += noise
        if self.two_tap is not None:
            rx = apply_analog_canceller(pa_spectra, rx, self.two_tap, cfg)
        return rx

    def calibrate(self, pa_spectra, noise, reg):
        """Propagation, the analog stage if it engages, the ADC and the fit,
        on the calibration frame."""
        p, cfg, align = self.params, self.params.ofdm, self.params.hammerstein_alignment
        floor_dbm = p.noise.floor_dbm
        rx = self._received(pa_spectra, noise)
        self.after_prop_dbm = self.after_analog_dbm = mean_power_dbm(_fit_samples(rx, cfg, align))
        pre_gray_ok = fits_gray_zone(self.after_prop_dbm, floor_dbm, p.adc.effective_range_db)
        if p.analog_mode == "on" or (
            p.analog_mode == "auto"
            and (not pre_gray_ok or self.after_prop_dbm - floor_dbm > p.analog_engage_margin_db)
        ):
            h_hat = estimate_channel_ls(  # from the pilots, the frame's head
                demodulate(rx[: p.n_pilot_symbols * cfg.symbol_len], cfg),
                active_grid(pa_spectra[: p.n_pilot_symbols], cfg),
            )
            delays = default_canceller_delays(p.antenna_separation_m)
            self.two_tap = tune_two_tap(h_hat, delays, cfg)
            rx = apply_analog_canceller(pa_spectra, rx, self.two_tap, cfg)
            self.after_analog_dbm = mean_power_dbm(_fit_samples(rx, cfg, align))
        rx_adc, self.agc_scale = adc_quantize(rx, p.adc)
        del rx  # lowers the peak memory of the fit, which needs only rx_adc
        self.coeffs = fit_hammerstein(reg, rx_adc)
        self.after_digital_dbm = mean_power_dbm(apply_digital_sic(reg, rx_adc, self.coeffs))

    def report(self, pa_spectra, noise, reg, tx_power_dbm):
        """The chain's ReductionReport, its holdout residual taken on the
        holdout frame."""
        p = self.params
        rx_adc, _ = adc_quantize(self._received(pa_spectra, noise), p.adc, scale=self.agc_scale)
        resid = apply_digital_sic(reg, rx_adc, self.coeffs)
        gray_ok = fits_gray_zone(self.after_analog_dbm, p.noise.floor_dbm, p.adc.effective_range_db)
        return ReductionReport(
            tx_power_dbm=tx_power_dbm,
            after_propagation_dbm=self.after_prop_dbm,
            after_analog_dbm=self.after_analog_dbm,
            after_digital_dbm=self.after_digital_dbm,
            per_domain_db=(
                tx_power_dbm - self.after_prop_dbm,
                self.after_prop_dbm - self.after_analog_dbm,
                self.after_analog_dbm - self.after_digital_dbm,
            ),
            noise_floor_dbm=float(p.noise.floor_dbm),
            analog_applied=self.two_tap is not None,
            gray_zone_ok=bool(gray_ok),
            digital_saturated=not gray_ok,
            holdout_residual_dbm=mean_power_dbm(resid),
            antenna_separation_m=p.antenna_separation_m,
        ).validate()


def run_link_chains(chains, seed):
    """run_link_chain(params, si_taps, seed) for every (params, si_taps) pair
    of chains, in order; chains may be an iterator that draws each chain's
    taps as it is read.

    The chains that agree on FRAME_FIELDS share one train/holdout frame pair,
    sent once per distinct FRAME_FIELDS key, in the order of its first chain.
    Of a frame, the QPSK draws, the PA, the thermal noise, the spectra of the
    PA output and of the Hammerstein branches, and the Gram with its ridge,
    conditioning check and warnings are computed once. Each chain runs only
    its own SI channel, analog stage, ADC, fit solve and holdout residual.
    The reports equal those of one run_link_chain call per element, bit for
    bit.
    """
    links = [_Link(params, si_taps) for params, si_taps in chains]  # each keeps only its taps
    groups = {}  # FRAME_FIELDS key -> the links that share its frames
    for link in links:
        groups.setdefault(tuple(getattr(link.params, f) for f in FRAME_FIELDS), []).append(link)
    reports = {}
    for group in groups.values():
        p = group[0].params
        n_train = p.n_pilot_symbols + p.n_data_symbols
        tx_power_dbm, pa_spectra, noise, reg = _send_frame(p, n_train, seed, "train", p.ridge)
        for link in group:
            link.calibrate(pa_spectra, noise, reg)
        # The holdout frame is built once the fits are done, to bound the peak.
        del pa_spectra, noise, reg
        _, pa_spectra, noise, reg = _send_frame(p, p.n_holdout_symbols, seed, "holdout")
        for link in group:
            reports[link] = link.report(pa_spectra, noise, reg, tx_power_dbm)
    return [reports[link] for link in links]


def run_link_chain(params, si_taps, seed):
    """Execute propagation -> (optional) analog -> ADC -> digital for one link.

    si_taps is the link's SI channel, (delays_s, gains) as
    geometry.si_channel returns them, or None for ideal FD: no SI at all.
    Deterministic per (params, si_taps, seed). The analog stage is tuned from
    a pilot-based estimate of the SI channel between the PA output and the MT;
    the digital stage is fit on the same calibration frame that the reported
    stage powers are measured on, with a separate holdout frame recorded for
    the generalization check. The one-element case of run_link_chains.
    """
    return run_link_chains([(params, si_taps)], seed)[0]
