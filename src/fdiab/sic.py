"""Self-interference reduction chain: propagation, analog two-tap canceller,
ADC, and fifth-order parallel-Hammerstein digital canceller.

Stage order matches the receive path: the SI signal arrives attenuated by the
propagation domain, the analog canceller subtracts a two-tap regeneration of
the tapped PA output, the ADC quantizes, and the digital canceller removes
what is left. Per-domain reductions are reported in dB and must add up to the
total.
"""

import warnings
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .geometry import AntennaPattern, ReflectorConfig, SiGeometry, si_channel
from .ofdm import (
    OfdmConfig,
    apply_channel,
    apply_frequency_response,
    build_frame,
    demodulate,
    estimate_channel_ls,
)
from .rf import AdcModel, NoiseModel, PaModel, adc_quantize, fits_gray_zone, pa_apply, thermal_noise
from .system import Scenario
from .util import (
    SPEED_OF_LIGHT, bounded, check_bounds, dbm_to_watt, mean_power_dbm, same_as, substream,
    watt_to_dbm,
)

# Fixed canceller delays used in the reference configurations; for other
# separations the delays bracket the direct-path delay the same way.
PAPER_CANCELLER_DELAYS_S = {
    2.0: (6e-9, 8e-9),
    1.0: (3e-9, 4e-9),
    0.1: (0.3e-9, 0.4e-9),
}


def default_canceller_delays(separation_m):
    """Two-tap delays for a given antenna separation."""
    for d, delays in PAPER_CANCELLER_DELAYS_S.items():
        if abs(separation_m - d) < 1e-9:
            return delays
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
            raise ValueError("need 0 <= tau1 < tau2")

    def freq_response(self, freqs_hz):
        f = np.asarray(freqs_hz, dtype=float)
        t1, t2 = self.delays_s
        a1, a2 = self.gains
        return a1 * np.exp(-2j * np.pi * f * t1) + a2 * np.exp(-2j * np.pi * f * t2)


def _check_delays_inside_cp(delays_s, cfg):
    if max(delays_s) >= cfg.cp_duration_s:
        raise ValueError("canceller delays must stay well inside the CP duration")


def tune_two_tap(si_freq_response, delays_s, cfg):
    """Closed-form LS gains for the two-tap canceller.

    Solves min over (a1, a2) of sum_k |H_k - a1 e^{-j2pi f_k t1}
    - a2 e^{-j2pi f_k t2}|^2 on the active subcarriers via the normal
    equations.
    """
    t1, t2 = delays_s
    if t1 == t2:
        raise ValueError("equal canceller delays make the system singular")
    if t1 > t2:  # LS is symmetric under permutation; store taps sorted
        t1, t2 = t2, t1
    _check_delays_inside_cp((t1, t2), cfg)
    h = np.asarray(si_freq_response, dtype=complex)
    if h.shape != (cfg.active_subcarriers,):
        raise ValueError("si_freq_response must cover all active subcarriers")
    f = cfg.subcarrier_freqs_hz()
    basis = np.exp(-2j * np.pi * np.outer(f, (t1, t2)))
    gains, *_ = np.linalg.lstsq(basis, h, rcond=None)
    return TwoTapConfig(delays_s=(t1, t2), gains=(complex(gains[0]), complex(gains[1])))


def two_tap_residual_power(si_freq_response, two_tap, cfg):
    """Mean per-subcarrier power left after subtracting the tuned taps."""
    h = np.asarray(si_freq_response, dtype=complex)
    r = h - two_tap.freq_response(cfg.subcarrier_freqs_hz())
    return float(np.mean(np.abs(r) ** 2))


def apply_analog_canceller(pa_output_samples, rx_samples, two_tap, cfg):
    """Subtract the two-tap regeneration of the tapped PA output from rx.

    The fractional delays are realized as frequency-domain phase ramps per
    OFDM symbol, exact under cyclic-prefix circularity because both delays
    sit far inside the CP.
    """
    pa_out = np.asarray(pa_output_samples, dtype=complex)
    rx = np.asarray(rx_samples, dtype=complex)
    if pa_out.shape != rx.shape or pa_out.size % cfg.symbol_len != 0:
        raise ValueError("pa output and rx must be equal-length whole OFDM symbols")
    _check_delays_inside_cp(two_tap.delays_s, cfg)
    regen = apply_frequency_response(pa_out, two_tap.freq_response(cfg.bin_freqs_hz()), cfg)
    return rx - regen


# ---------------------------------------------------------------------------
# Digital-domain nonlinear canceller (parallel Hammerstein, odd orders)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HammersteinModel:
    """Parallel-Hammerstein canceller: odd-order static branches with FIRs.

    coeffs has one row per order branch and memory_len columns. alignment
    shifts the tap window by that many samples toward negative delays, so
    branch taps cover effective delays [-alignment, memory_len-1-alignment];
    that keeps sub-sample SI path delays well inside the modeled window.
    """

    orders: tuple
    memory_len: int
    coeffs: np.ndarray
    alignment: int = 0
    ridge: float = 0.0
    training_residual_power: float = 0.0
    training_power: float = 0.0

    def __post_init__(self):
        _check_structure(self.orders, self.memory_len, self.alignment)
        if self.coeffs.shape != (len(self.orders), self.memory_len):
            raise ValueError("coeffs must be (n_orders, memory_len)")


def _check_structure(orders, memory_len, alignment):
    # Odd orders only (baseband-relevant distortion); the model tops out at
    # the fifth order, lower-order subsets serve as baselines.
    if (
        len(orders) == 0
        or max(orders) > 5
        or any(p % 2 == 0 or p < 1 for p in orders)
        or any(a >= b for a, b in zip(orders, orders[1:]))
    ):
        raise ValueError("orders must be increasing odd integers capped at 5")
    if memory_len < 1:
        raise ValueError(f"memory_len must be >= 1, got {memory_len}")
    if not 0 <= alignment < memory_len:
        raise ValueError(f"alignment must lie in [0, memory_len), got {alignment}")


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
    apply_digital_sic never form this matrix, they work from the branch
    signals, and tests check them against it.
    """
    _check_structure(orders, memory_len, alignment)
    x = np.asarray(tx, dtype=complex)
    idx = np.asarray(idx)
    if idx.min() - (memory_len - 1 - alignment) < 0 or idx.max() + alignment >= x.size:
        raise ValueError("tap window leaves the sample stream; shrink idx or alignment")
    psi = _branch_signals(x, orders)
    cols = [branch[idx - (m - alignment)] for branch in psi for m in range(memory_len)]
    return np.stack(cols, axis=1)


def _frame_blocks(tx, cfg, memory_len, alignment):
    """(start, spacing, n_blocks, n): tx's OFDM symbols of layout cfg as blocks
    of n = fft_size samples. Raises unless every tap of the fit's samples,
    ofdm_valid_indices(cfg, tx.size, alignment), is a circular shift within
    its block: a tap may reach back into the CP, which must then repeat the
    block's tail bit for bit."""
    if tx.size % cfg.symbol_len:
        raise ValueError(
            f"tx_baseband: {tx.size} samples are not whole {cfg.symbol_len}-sample symbols"
        )
    reach = memory_len - 1 - alignment
    if reach > cfg.cp_len or memory_len > cfg.fft_size:
        raise ValueError(
            f"memory_len: {memory_len} taps at alignment {alignment} reach {reach} samples back; "
            f"a symbol allows {cfg.cp_len} (its CP) and at most {cfg.fft_size} taps"
        )
    start, spacing, n_blocks = cfg.cp_len, cfg.symbol_len, tx.size // cfg.symbol_len
    cp = (start + spacing * np.arange(n_blocks))[:, None] + np.arange(-reach, 0)
    if not np.array_equal(tx[cp], tx[cp + cfg.fft_size]):
        raise ValueError("tx_baseband: a CP differs from its symbol's tail within the taps' reach")
    return start, spacing, n_blocks, cfg.fft_size


def _blocks(a, start, spacing, n_blocks, n):
    """View of a's last axis as n_blocks rows of n samples, spacing apart from start."""
    s = a.strides[-1]
    return as_strided(a[..., start:], a.shape[:-1] + (n_blocks, n), a.strides[:-1] + (spacing * s, s))


def _normal_equations(psi, rx, memory_len, alignment, blocks):
    """B^H B and B^H rx[idx] for B = hammerstein_basis on the fit's samples,
    without forming B; leaves the blocks' spectra in psi.

    Row i of B holds psi_p(k_i - m) with k_i = idx_i + alignment, so every
    entry is a lagged correlation of two branch signals. The first tap row
    of the Gram, G[(p,0),(q,l)], and the right-hand side are summed per block
    in the frequency domain. The other entries follow along each diagonal:
    shifting both taps by one shifts every block's run of samples back one,
    so G[(p,m+1),(q,l+1)] = G[(p,m),(q,l)] plus the product of the samples
    each run gains at its start, minus those it loses at its end.
    """
    n_br, mem = psi.shape[0], memory_len
    start, spacing, n_blocks, n = blocks
    heads = start + spacing * np.arange(n_blocks)
    lags = np.arange(mem - 1)
    gained = psi[:, (heads + alignment - 1)[:, None] - lags].transpose(1, 0, 2)
    lost = psi[:, (heads + n - 1)[:, None] - lags].transpose(1, 0, 2)
    gained, lost = gained.reshape(n_blocks, -1), lost.reshape(n_blocks, -1)
    edge = (gained.conj().T @ gained - lost.conj().T @ lost).reshape(n_br, mem - 1, n_br, mem - 1)
    # Tap l of block s, sample u, reads P_q(s, (u - l) mod n). Summed over
    # all u, corr[l, q, j] is one transform of sum_s P^_q conj(P^_j | R^),
    # less the u < alignment the fit skips; rx enters with those zeroed.
    shifts = (np.arange(alignment) - np.arange(mem)[:, None]) % n  # (u - l) mod n
    skip = psi[:, heads[:, None, None] + shifts]
    skipped = np.tensordot(skip, skip[:, :, 0].conj(), axes=([1, 3], [1, 2]))
    rx_hat = np.zeros((n_blocks, n), dtype=complex)
    rx_hat[:, alignment:] = _blocks(rx, start, spacing, n_blocks, n - alignment)
    np.fft.fft(rx_hat, out=rx_hat)
    spectra = np.fft.fft(_blocks(psi, *blocks), out=_blocks(psi, *blocks))
    cross = np.empty((n_br, n_br + 1, n), dtype=complex)
    np.vecdot(spectra[None], spectra[:, None], axis=-2, out=cross[:, :n_br])
    np.vecdot(rx_hat, spectra, axis=-2, out=cross[:, n_br])
    corr = np.fft.fft(cross, norm="forward", out=cross)[..., :mem].transpose(2, 0, 1)
    corr[..., :n_br] -= skipped.transpose(1, 0, 2)
    rhs = np.conj(corr[:, :, n_br]).T.reshape(-1)
    first = corr[:, :, :n_br]

    gram = np.empty((n_br, mem, n_br, mem), dtype=complex)
    gram[:, 0] = first.transpose(2, 1, 0)
    gram[:, :, :, 0] = np.conj(first).transpose(1, 0, 2)
    for m in range(1, mem):
        gram[:, m, :, 1:] = gram[:, m - 1, :, :-1] + edge[:, m - 1]
    return gram.reshape(n_br * mem, n_br * mem), rhs


def _residual(psi, rx, coeffs, alignment, blocks):
    """rx[idx] - B @ coeffs for B = hammerstein_basis on the fit's samples, as
    one circular convolution per block over the blocks' spectra in psi."""
    start, spacing, n_blocks, n = blocks
    fir = np.einsum("qsf,qf->sf", _blocks(psi, *blocks), np.fft.fft(coeffs, n))
    resid = np.fft.ifft(fir, out=fir)[:, alignment:]
    np.subtract(_blocks(rx, start, spacing, n_blocks, n - alignment), resid, out=resid)
    return resid.ravel()


def ofdm_valid_indices(cfg, n_samples, alignment):
    """Per-symbol useful-part indices where linear tap shifts equal the
    circular (CP-consistent) shifts: the CP supplies the causal history and
    the last `alignment` samples are trimmed because advanced taps would
    leak into the next symbol's CP."""
    if n_samples % cfg.symbol_len != 0:
        raise ValueError(f"sample count must be a multiple of {cfg.symbol_len}")
    heads = cfg.cp_len + cfg.symbol_len * np.arange(n_samples // cfg.symbol_len)
    return (heads[:, None] + np.arange(cfg.fft_size - alignment)).ravel()


def fit_hammerstein(
    tx_baseband,
    residual_rx,
    orders=(1, 3, 5),
    memory_len=4,
    alignment=0,
    ridge=1e-8,
    *,
    cfg,
):
    """Ridge-regularized LS fit of the parallel-Hammerstein canceller on the
    OFDM frame of layout cfg, over ofdm_valid_indices(cfg, tx.size, alignment).

    The ridge is scaled by the trace-normalized basis Gram; the odd-order
    branches are highly correlated and the tiny ridge stabilizes the solve
    without measurably biasing the residual.
    """
    tx = np.asarray(tx_baseband, dtype=complex)
    rx = np.asarray(residual_rx, dtype=complex)
    if tx.shape != rx.shape:
        raise ValueError("tx and rx must have the same length")
    _check_structure(orders, memory_len, alignment)
    blocks = start, spacing, n_blocks, n = _frame_blocks(tx, cfg, memory_len, alignment)
    n_samples = n_blocks * (n - alignment)
    n_unknowns = len(orders) * memory_len
    if n_samples < n_unknowns:
        raise ValueError(f"underdetermined fit: {n_samples} samples for {n_unknowns} unknowns")
    if n_samples < 10 * n_unknowns:
        warnings.warn(
            f"training block of {n_samples} samples is short for {n_unknowns} unknowns; "
            "expect overfitting",
            RuntimeWarning,
        )
    psi = _branch_signals(tx, orders)
    gram, rhs = _normal_equations(psi, rx, memory_len, alignment, blocks)
    eps = ridge * float(np.trace(gram).real) / gram.shape[0]
    gram_r = gram + eps * np.eye(gram.shape[0])
    eig = np.abs(np.linalg.eigvalsh(gram_r))  # gram_r is Hermitian: cond = |lambda| max / min
    cond = eig.max() / eig.min()
    if cond > 1e12:
        warnings.warn(
            f"hammerstein basis badly conditioned (cond {cond:.2e}); "
            "coefficients may be unstable",
            RuntimeWarning,
        )
    coeffs = np.linalg.solve(gram_r, rhs).reshape(len(orders), memory_len)
    resid = _residual(psi, rx, coeffs, alignment, blocks)
    target = _blocks(rx, start, spacing, n_blocks, n - alignment)
    return HammersteinModel(
        orders=tuple(orders),
        memory_len=memory_len,
        coeffs=coeffs,
        alignment=alignment,
        ridge=eps,
        training_residual_power=float(np.mean(np.abs(resid) ** 2)),
        training_power=float(np.mean(np.abs(target) ** 2)),
    )


def apply_digital_sic(tx_baseband, rx_after_adc, model, cfg):
    """Residual rx - Psi(tx) @ coeffs on the OFDM frame of layout cfg, at
    ofdm_valid_indices(cfg, tx.size, model.alignment)."""
    tx = np.asarray(tx_baseband, dtype=complex)
    rx = np.asarray(rx_after_adc, dtype=complex)
    if tx.shape != rx.shape:
        raise ValueError("tx and rx must have the same length")
    blocks = _frame_blocks(tx, cfg, model.memory_len, model.alignment)
    psi = _branch_signals(tx, model.orders)
    np.fft.fft(_blocks(psi, *blocks), out=_blocks(psi, *blocks))
    return _residual(psi, rx, model.coeffs, model.alignment, blocks)


# ---------------------------------------------------------------------------
# Full link-level chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkChainParams:
    """Everything run_link_chain needs for one DU/MT link."""

    geometry: SiGeometry
    tx_pattern: AntennaPattern = AntennaPattern()
    rx_pattern: AntennaPattern = AntennaPattern()
    reflectors: ReflectorConfig | None = ReflectorConfig()
    ofdm: OfdmConfig = OfdmConfig()
    pa: PaModel = PaModel()
    adc: AdcModel = AdcModel()
    noise: NoiseModel = NoiseModel()
    carrier_freq_hz: float = same_as(Scenario, "carrier_freq_hz")
    # PA driven with OFDM PAPR headroom below the CW compression input.
    input_backoff_db: float = bounded(12.0, ">= 0")
    canceller_delays_s: tuple | None = None
    # auto: engage the analog stage when the SI entering the ADC would either
    # violate the gray-zone rule or sit more than analog_engage_margin_db
    # above the floor (the digital stage's reliable depth).
    analog_mode: str = "auto"
    analog_engage_margin_db: float = 50.0
    hammerstein_orders: tuple = (1, 3, 5)
    hammerstein_memory: int = 20
    hammerstein_alignment: int = 8
    ridge: float = 1e-8
    n_pilot_symbols: int = 2
    n_data_symbols: int = 16
    n_holdout_symbols: int = 8
    ideal_fd: bool = False

    def __post_init__(self):
        if self.analog_mode not in ("auto", "on", "off"):
            raise ValueError("analog_mode must be auto, on or off")
        for f in fields(self):
            if f.type is float and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        check_bounds(self)
        # The analog stage is tuned from the pilots: with none, every power is NaN.
        for name, low, high in (
            ("n_pilot_symbols", 0 if self.analog_mode == "off" else 1, np.inf),
            ("n_data_symbols", 0, np.inf),
            ("n_holdout_symbols", 1, np.inf),
            ("hammerstein_memory", 1, np.inf),
            ("hammerstein_alignment", 0, self.hammerstein_memory - 1),
            ("ridge", 0.0, np.inf),
        ):
            if not low <= getattr(self, name) <= high:
                raise ValueError(f"{name} must lie in [{low}, {high}], got {getattr(self, name)}")
        if self.reflectors is not None:
            # The chain applies the SI channel per OFDM symbol, circularly, so a
            # tap past the CP would wrap around the symbol instead of leaking
            # into the next one.
            latest = self.geometry.antenna_separation_m / SPEED_OF_LIGHT + max(
                self.reflectors.delay_offset_range_s
            )
            if latest >= self.ofdm.cp_duration_s:
                raise ValueError(
                    f"reflectors.delay_offset_range_s lets SI taps arrive up to {latest:.4g} s "
                    f"after transmission, past the {self.ofdm.cp_duration_s:.4g} s cyclic prefix"
                )

    def delays(self):
        if self.canceller_delays_s is not None:
            return self.canceller_delays_s
        return default_canceller_delays(self.geometry.antenna_separation_m)


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

    def total_reduction_db(self):
        return self.tx_power_dbm - self.after_digital_dbm

    def validate(self, tol_db=0.01, monotone_eps_db=0.02):
        # Every comparison below is false for NaN, so it would pass them all.
        for f in fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise ValueError(f"{f.name} is not finite: {getattr(self, f.name)}")
        if abs(sum(self.per_domain_db) - self.total_reduction_db()) > tol_db:
            raise ValueError("per-domain contributions do not sum to the total")
        chain = (
            self.tx_power_dbm,
            self.after_propagation_dbm,
            self.after_analog_dbm,
            self.after_digital_dbm,
        )
        for a, b in zip(chain, chain[1:]):
            if b > a + monotone_eps_db:
                raise ValueError("stage power increased along the chain")
        return self


def _run_frame(params, cir, amp, n_symbols, n_pilots, frame_rng, noise_rng):
    tx = build_frame(params.ofdm, n_symbols, frame_rng, n_pilots).samples
    tx *= amp
    pa_out = pa_apply(tx, params.pa)
    rx = thermal_noise(pa_out.size, params.noise, noise_rng)
    if cir is not None:
        rx += apply_channel(pa_out, cir, params.ofdm)
    return tx, pa_out, rx


def run_link_chain(params, seed):
    """Execute propagation -> (optional) analog -> ADC -> digital for one link.

    Deterministic per (params, seed). The analog stage is tuned from a
    pilot-based estimate of the SI channel between the PA output and the MT;
    the digital stage is fit on the same calibration frame that the reported
    stage powers are measured on, with a separate holdout frame recorded for
    the generalization check, built once the fit is done to bound the peak.
    """
    cfg = params.ofdm
    floor_dbm = params.noise.floor_dbm
    cir = None
    if not params.ideal_fd:
        cir = si_channel(
            params.geometry,
            params.tx_pattern,
            params.rx_pattern,
            params.reflectors,
            seed=substream(seed, "si-channel").integers(2**63),
            carrier_freq_hz=params.carrier_freq_hz,
        )

    amp = np.sqrt(dbm_to_watt(params.pa.input_p1db_dbm - params.input_backoff_db))
    n_train = params.n_pilot_symbols + params.n_data_symbols
    tx, pa_out, rx = _run_frame(
        params, cir, amp, n_train, params.n_pilot_symbols,
        substream(seed, "frame-train"), substream(seed, "noise-train"),
    )

    idx = ofdm_valid_indices(cfg, tx.size, params.hammerstein_alignment)
    tx_power_dbm = mean_power_dbm(pa_out[idx])
    after_prop_dbm = mean_power_dbm(rx[idx])

    pre_gray_ok = fits_gray_zone(after_prop_dbm, floor_dbm, params.adc.effective_range_db)
    engage = params.analog_mode == "on" or (
        params.analog_mode == "auto"
        and (not pre_gray_ok or after_prop_dbm - floor_dbm > params.analog_engage_margin_db)
    )

    after_analog_dbm = after_prop_dbm
    if engage:
        pilots = slice(0, params.n_pilot_symbols * cfg.symbol_len)  # the frame's head
        h_hat = estimate_channel_ls(demodulate(rx[pilots], cfg), demodulate(pa_out[pilots], cfg))
        two_tap = tune_two_tap(h_hat, params.delays(), cfg)
        rx = apply_analog_canceller(pa_out, rx, two_tap, cfg)
        after_analog_dbm = mean_power_dbm(rx[idx])

    gray_ok = fits_gray_zone(after_analog_dbm, floor_dbm, params.adc.effective_range_db)
    digital_saturated = not gray_ok

    rx_adc, agc_scale = adc_quantize(rx, params.adc)
    del pa_out, rx  # lowers the peak memory of the fit, which needs neither
    model = fit_hammerstein(
        tx,
        rx_adc,
        orders=params.hammerstein_orders,
        memory_len=params.hammerstein_memory,
        alignment=params.hammerstein_alignment,
        ridge=params.ridge,
        cfg=cfg,
    )
    after_digital_dbm = float(watt_to_dbm(model.training_residual_power))
    del tx, rx_adc

    tx_h, pa_out_h, rx_h = _run_frame(
        params, cir, amp, params.n_holdout_symbols, 0,
        substream(seed, "frame-holdout"), substream(seed, "noise-holdout"),
    )
    if engage:
        rx_h = apply_analog_canceller(pa_out_h, rx_h, two_tap, cfg)
    rx_adc_h, _ = adc_quantize(rx_h, params.adc, scale=agc_scale)
    resid_h = apply_digital_sic(tx_h, rx_adc_h, model, cfg)
    holdout_dbm = mean_power_dbm(resid_h)

    report = ReductionReport(
        tx_power_dbm=tx_power_dbm,
        after_propagation_dbm=after_prop_dbm,
        after_analog_dbm=after_analog_dbm,
        after_digital_dbm=after_digital_dbm,
        per_domain_db=(
            tx_power_dbm - after_prop_dbm,
            after_prop_dbm - after_analog_dbm,
            after_analog_dbm - after_digital_dbm,
        ),
        noise_floor_dbm=float(floor_dbm),
        analog_applied=bool(engage),
        gray_zone_ok=bool(gray_ok),
        digital_saturated=bool(digital_saturated),
        holdout_residual_dbm=holdout_dbm,
        antenna_separation_m=params.geometry.antenna_separation_m,
    )
    return report.validate()
