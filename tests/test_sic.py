import ast
import dataclasses
import inspect
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdiab.sic
from fdiab.cli import chain_for_node
from fdiab.geometry import (
    AntennaPattern, ReflectorConfig, SiGeometry, direct_si_taps, si_channel, total_gain_db,
)
from fdiab.ofdm import (
    OfdmConfig, apply_frequency_response, build_frame, symbol_rows, symbol_spectra,
)
from fdiab.rf import NoiseModel
from fdiab.sic import (
    HammersteinRegressors,
    LinkChainParams,
    ReductionReport,
    apply_analog_canceller,
    apply_digital_sic,
    default_canceller_delays,
    fit_hammerstein,
    hammerstein_basis,
    run_link_chain,
    run_link_chains,
    tune_two_tap,
    TwoTapConfig,
)
from fdiab.system import (
    default_scenario, node_si_taps, propagation_residual_si_dbm, schedule_drop,
)
from fdiab.util import SPEED_OF_LIGHT, FieldError, substream

CFG = OfdmConfig()
FREQS = CFG.subcarrier_freqs_hz()


def fit_indices(cfg, n_samples, alignment):
    """Stream index of each sample the fit takes, in its order: every
    symbol's useful part less its last alignment samples."""
    rows = symbol_rows(np.arange(n_samples), cfg)
    return rows[..., cfg.cp_len : cfg.symbol_len - alignment].ravel()


def two_tap_response(delays, gains):
    basis = np.exp(-2j * np.pi * np.outer(FREQS, delays))
    return basis @ np.asarray(gains)


def two_tap_residual_power(h, two_tap):
    """Mean per-subcarrier power of h left after subtracting the tuned taps."""
    return np.mean(np.abs(h - two_tap.freq_response(FREQS)) ** 2)


class TestTwoTapTuning:
    def test_paper_delay_pairs(self):
        assert default_canceller_delays(2.0) == (6e-9, 8e-9)
        assert default_canceller_delays(1.0) == (3e-9, 4e-9)
        assert default_canceller_delays(0.1) == (0.3e-9, 0.4e-9)

    def test_model_matched_recovery_is_exact(self):
        delays = (3e-9, 4e-9)
        gains = (0.8 * np.exp(0.4j), 0.5 * np.exp(-1.1j))
        h = two_tap_response(delays, gains)
        tt = tune_two_tap(h, delays, CFG)
        assert abs(tt.gains[0] - gains[0]) < 1e-9
        assert abs(tt.gains[1] - gains[1]) < 1e-9
        rel = two_tap_residual_power(h, tt) / np.mean(np.abs(h) ** 2)
        assert 10 * np.log10(rel) < -120.0

    def test_third_tap_sets_the_residual(self):
        # A third tap 20 dB below tap 1, far enough behind the canceller taps
        # to be nearly orthogonal to their span: the LS residual equals the
        # unmodeled tap's power. The projection itself is the oracle.
        delays = (3e-9, 4e-9)
        g3 = 0.8 * 10 ** (-20 / 20) * np.exp(2.2j)
        h = two_tap_response(delays, (0.8 * np.exp(0.4j), 0.5 * np.exp(-1.1j)))
        h3 = g3 * np.exp(-2j * np.pi * FREQS * 19e-9)
        tt = tune_two_tap(h + h3, delays, CFG)
        residual = two_tap_residual_power(h + h3, tt)

        basis = np.exp(-2j * np.pi * np.outer(FREQS, delays))
        proj, *_ = np.linalg.lstsq(basis, h3, rcond=None)
        oracle = np.mean(np.abs(h3 - basis @ proj) ** 2)
        assert residual == pytest.approx(oracle, rel=1e-9)
        assert 10 * np.log10(residual / np.abs(g3) ** 2) == pytest.approx(0.0, abs=1.0)

    def test_permuted_taps_same_residual(self):
        delays = (3e-9, 4e-9)
        gains = (0.8 * np.exp(0.4j), 0.5 * np.exp(-1.1j))
        h = two_tap_response(delays, gains) + 0.01 * np.exp(
            -2j * np.pi * FREQS * 12e-9
        )
        r1 = two_tap_residual_power(h, tune_two_tap(h, delays, CFG))
        r2 = two_tap_residual_power(h, tune_two_tap(h, delays[::-1], CFG))
        assert r1 == pytest.approx(r2, rel=1e-9)

    def test_equal_delays_rejected(self):
        with pytest.raises(ValueError):
            tune_two_tap(np.ones(792, dtype=complex), (3e-9, 3e-9), CFG)

    def test_delays_must_fit_cp(self):
        with pytest.raises(ValueError):
            TwoTapConfig(delays_s=(3e-9, 2e-9), gains=(1.0, 1.0))
        with pytest.raises(ValueError):
            tune_two_tap(np.ones(792, dtype=complex), (1e-6, 2e-6), CFG)


class TestAnalogCanceller:
    def test_exact_two_tap_subtraction(self):
        rng = substream(1, "ac")
        x = build_frame(CFG, 4, rng)
        tt = TwoTapConfig(delays_s=(3e-9, 4e-9), gains=(0.7 + 0.1j, -0.2 + 0.4j))
        spectra = symbol_spectra(x, CFG)
        rx = apply_analog_canceller(spectra, np.zeros_like(x), tt, CFG)
        # rx built as exactly the canceller's own regeneration
        resid = apply_analog_canceller(spectra, -rx, tt, CFG)
        rel = np.mean(np.abs(resid) ** 2) / np.mean(np.abs(rx) ** 2)
        assert rel < 1e-12  # at or below the numerical floor

    def test_zero_gains_identity(self):
        rng = substream(2, "ac0")
        x = build_frame(CFG, 2, rng)
        tt = TwoTapConfig(delays_s=(3e-9, 4e-9), gains=(0.0, 0.0))
        out = apply_analog_canceller(symbol_spectra(x, CFG), x, tt, CFG)
        assert np.allclose(out, x, atol=0)

    def test_shape_mismatch(self):
        tt = TwoTapConfig(delays_s=(3e-9, 4e-9), gains=(1.0, 1.0))
        with pytest.raises(ValueError, match="^rx: 2 symbols for a frame of 1"):
            apply_analog_canceller(
                np.zeros((1, CFG.fft_size), complex), np.zeros(2 * CFG.symbol_len, complex), tt, CFG
            )

    def test_cancellation_depth_tracks_estimation_snr(self):
        # Tuned on an estimate whose two-tap content carries 20 dB SNR, the
        # achievable cancellation of the two-tap component is ~20 dB.
        delays = (3e-9, 4e-9)
        basis = np.exp(-2j * np.pi * np.outer(FREQS, delays))
        rng = substream(3, "acmc")
        depths = []
        for _ in range(200):
            g = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2)
            eps = 10 ** (-20 / 20) / np.sqrt(2) * (
                rng.standard_normal(2) + 1j * rng.standard_normal(2)
            )
            tt = tune_two_tap(basis @ (g * (1 + eps)), delays, CFG)
            before = np.sum(np.abs(basis @ g) ** 2)
            after = np.sum(np.abs(basis @ g - tt.freq_response(FREQS)) ** 2)
            depths.append(10 * np.log10(before / after))
        assert np.mean(depths) == pytest.approx(20.0, abs=3.0)


def integer_delay(x, delay_samples, gain, cfg=CFG):
    """x through one tap of gain at a whole number of samples' delay,
    circular per symbol."""
    h_bins = gain * np.exp(-2j * np.pi * cfg.bin_freqs_hz() * delay_samples / cfg.sample_rate_hz)
    return apply_frequency_response(symbol_spectra(x, cfg), h_bins, cfg)


def fit(x, y, orders=(1, 3, 5), memory_len=4, alignment=0, ridge=1e-8, *, cfg):
    """(the HammersteinRegressors of the OFDM frame x, the coefficients
    fit_hammerstein fits against them to y, a receive stream of x)."""
    reg = HammersteinRegressors(x, orders, memory_len, alignment, cfg, ridge)
    return reg, fit_hammerstein(reg, y)


def cancel(x, y, reg, coeffs):
    """apply_digital_sic of coeffs, fit against the regressors reg, to y, a
    receive stream of the OFDM frame x in reg's layout."""
    x_reg = HammersteinRegressors(x, reg.orders, reg.memory_len, reg.alignment, reg.cfg)
    return apply_digital_sic(x_reg, y, coeffs)


def training_residual_power(reg, y, coeffs):
    """Mean power of what coeffs leave of y, the receive stream they were fit
    to against reg."""
    return np.mean(np.abs(apply_digital_sic(reg, y, coeffs)) ** 2)


# A numerology with short symbols: 14 of them are fewer samples than two
# default symbols, so one-symbol and many-symbol frames both stay small.
SHORT = OfdmConfig(fft_size=64, active_subcarriers=48, cp_len=20)


class TestHammerstein:
    def test_linear_system_kills_nonlinear_branches(self):
        rng = substream(4, "hlin")
        x = build_frame(CFG, 8, rng)
        y = integer_delay(x, 2, 0.6 - 0.2j)
        # ridge off: noiseless model identification should be exact
        _, coeffs = fit(x, y, memory_len=8, alignment=4, ridge=0.0, cfg=CFG)
        norms = np.linalg.norm(coeffs, axis=1)
        assert norms[1] <= 1e-6 * norms[0]
        assert norms[2] <= 1e-6 * norms[0]

    def test_cubic_pa_fit_and_linear_floor(self):
        # Memoryless cubic distortion: the {1,3,5} fit reaches the noise
        # floor; a linear-only fit keeps the part of x|x|^2 orthogonal to the
        # delayed-x span (about one third of the c3-term power for an
        # OFDM-Gaussian input; the brute-force projection is the oracle).
        rng = substream(5, "hcub")
        x = build_frame(CFG, 8, rng)
        c3 = 0.05
        distorted = x + c3 * x * np.abs(x) ** 2
        y_clean = integer_delay(distorted, 1, 1.0)
        noise_power = 10 ** (-60 / 10)
        noise = np.sqrt(noise_power / 2) * (
            rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
        )
        y = y_clean + noise
        idx = fit_indices(CFG, x.size, 4)

        reg, full = fit(x, y, (1, 3, 5), memory_len=8, alignment=4, cfg=CFG)
        assert training_residual_power(reg, y, full) <= 1.05 * noise_power

        reg_lin, lin = fit(x, y, (1,), memory_len=8, alignment=4, cfg=CFG)
        basis1 = hammerstein_basis(x, (1,), 8, 4, idx)
        target = (c3 * x * np.abs(x) ** 2)[idx - 1]  # the c3 term as received
        proj, *_ = np.linalg.lstsq(basis1, target, rcond=None)
        oracle = np.mean(np.abs(target - basis1 @ proj) ** 2)
        assert 10 * np.log10(training_residual_power(reg_lin, y, lin) / oracle) == pytest.approx(
            0.0, abs=0.5
        )
        c3_power = np.mean(np.abs(target) ** 2)
        assert 10 * np.log10(oracle / c3_power) == pytest.approx(-4.77, abs=0.7)

    def test_overfitting_at_minimum_training_length(self):
        # 14-sample symbols with alignment 2 leave 12 fit samples each: one
        # symbol is exactly the 12 unknowns, ten symbols ten times that.
        cfg = OfdmConfig(fft_size=14, active_subcarriers=12, cp_len=4)
        rng = substream(6, "hover")

        def distorted(x):
            return 0.9 * x + 0.02 * x * np.abs(x) ** 2 + 0.01 * (
                rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
            )

        x_tiny, x_big, x_test = (build_frame(cfg, n, rng) for n in (1, 10, 100))
        y_tiny = distorted(x_tiny)
        with pytest.warns(RuntimeWarning, match="short"):
            reg_tiny, tiny = fit(
                x_tiny, y_tiny, (1, 3, 5), memory_len=4, alignment=2, ridge=0.0, cfg=cfg
            )
        training_power = np.mean(np.abs(y_tiny[fit_indices(cfg, x_tiny.size, 2)]) ** 2)
        assert training_residual_power(reg_tiny, y_tiny, tiny) <= 1e-12 * training_power

        reg_big, big = fit(x_big, distorted(x_big), (1, 3, 5), memory_len=4, alignment=2, cfg=cfg)
        y_test = distorted(x_test)
        r_tiny = np.mean(np.abs(cancel(x_test, y_test, reg_tiny, tiny)) ** 2)
        r_big = np.mean(np.abs(cancel(x_test, y_test, reg_big, big)) ** 2)
        assert r_tiny > r_big

    def test_apply_consistent_with_fit(self):
        rng = substream(7, "happ")
        x = build_frame(CFG, 6, rng)
        y = 0.8 * x + 0.03 * x * np.abs(x) ** 4
        # The canceller's own regressors, built without a Gram, cancel as the
        # fit's do.
        reg, coeffs = fit(x, y, memory_len=6, alignment=2, cfg=CFG)
        resid = cancel(x, y, reg, coeffs)
        assert np.mean(np.abs(resid) ** 2) == pytest.approx(
            training_residual_power(reg, y, coeffs), rel=1e-9
        )

    def test_zero_coefficients_identity(self):
        rng = substream(8, "hzero")
        x = build_frame(CFG, 2, rng)
        reg, coeffs = fit(x, x, memory_len=4, cfg=CFG)
        resid = cancel(x, x, reg, np.zeros_like(coeffs))
        assert np.array_equal(resid, x[fit_indices(CFG, x.size, 0)])

    def test_generalizes_to_fresh_block(self):
        rng = substream(9, "hgen")
        train = build_frame(CFG, 8, rng)
        test = build_frame(CFG, 8, rng)

        def channelize(x):
            d = x + 0.05 * x * np.abs(x) ** 2
            return integer_delay(d, 1, 1.0) + 1e-3 * (
                substream(10, "n", x.size).standard_normal(x.size)
                + 1j * substream(11, "n", x.size).standard_normal(x.size)
            )

        y_train = channelize(train)
        reg, coeffs = fit(train, y_train, memory_len=8, alignment=4, cfg=CFG)
        resid = cancel(test, channelize(test), reg, coeffs)
        fresh = np.mean(np.abs(resid) ** 2)
        ratio_db = 10 * np.log10(fresh / training_residual_power(reg, y_train, coeffs))
        assert abs(ratio_db) < 1.0

    def test_ls_optimality_gradient(self):
        rng = substream(12, "hgrad")
        x = build_frame(CFG, 4, rng)
        y = 0.7 * x + 0.04 * x * np.abs(x) ** 2
        idx = fit_indices(CFG, x.size, 2)
        reg, coeffs = fit(x, y, memory_len=4, alignment=2, cfg=CFG)
        basis = hammerstein_basis(x, reg.orders, reg.memory_len, reg.alignment, idx)
        c = coeffs.reshape(-1)
        grad = basis.conj().T @ (y[idx] - basis @ c) - reg.ridge * c
        scale = np.linalg.norm(basis.conj().T @ y[idx])
        assert np.linalg.norm(grad) < 1e-6 * scale

    def test_perturbing_coefficients_raises_residual(self):
        rng = substream(13, "hconv")
        x = build_frame(CFG, 4, rng)
        y = 0.7 * x + 0.04 * x * np.abs(x) ** 2
        idx = fit_indices(CFG, x.size, 2)
        reg, coeffs = fit(x, y, memory_len=4, alignment=2, cfg=CFG)
        basis = hammerstein_basis(x, reg.orders, reg.memory_len, reg.alignment, idx)
        c0 = coeffs.reshape(-1)
        r0 = np.mean(np.abs(y[idx] - basis @ c0) ** 2)
        perturb_rng = substream(14, "hconv2")
        for _ in range(10):
            i = int(perturb_rng.integers(c0.size))
            for sign in (+1.0, -1.0):
                c = c0.copy()
                c[i] += sign * 1e-3 * np.linalg.norm(c0)
                assert np.mean(np.abs(y[idx] - basis @ c) ** 2) > r0

    def test_order_and_window_validation(self):
        x = np.ones(CFG.symbol_len, complex)
        with pytest.raises(ValueError, match="orders"):
            fit(x, x, orders=(1, 3, 5, 7), memory_len=2, cfg=CFG)
        with pytest.raises(ValueError, match="orders"):
            fit(x, x, orders=(2, 4), memory_len=2, cfg=CFG)
        with pytest.raises(ValueError, match="orders"):
            fit(x, x, orders=(), memory_len=2, cfg=CFG)
        with pytest.raises(ValueError, match="alignment"):
            fit(x, x, memory_len=2, alignment=2, cfg=CFG)
        with pytest.raises(ValueError, match="alignment"):
            fit(x, x, memory_len=2, alignment=-1, cfg=CFG)


def explicit_fit(x, y, orders, memory_len, alignment, ridge, idx):
    """The normal equations of the explicit design matrix, solved as written."""
    basis = hammerstein_basis(x, orders, memory_len, alignment, idx)
    gram = basis.conj().T @ basis
    eps = ridge * np.trace(gram).real / gram.shape[0]
    coeffs = np.linalg.solve(gram + eps * np.eye(gram.shape[0]), basis.conj().T @ y[idx])
    resid = y[idx] - basis @ coeffs
    return basis, coeffs.reshape(len(orders), memory_len), eps, np.mean(np.abs(resid) ** 2)


# (memory_len, alignment) pairs from 1 tap to the chain's 20, alignment
# from 0 to memory_len - 1.
TAP_WINDOWS = ((1, 0), (2, 0), (2, 1), (5, 2), (8, 7), (20, 0), (20, 8), (20, 19))


def ofdm_signals(seed, n_symbols, cfg=CFG):
    """An OFDM frame and its distorted, delayed, noisy echo."""
    rng = substream(seed, "hstruct")
    x = build_frame(cfg, n_symbols, rng)
    d = x + 0.05 * x * np.abs(x) ** 2 - 0.01 * x * np.abs(x) ** 4
    y = integer_delay(d, 1, 0.8 + 0.3j, cfg) + 1e-3 * (
        rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    )
    return x, y


def assert_matches_explicit_fit(x, y, orders, memory_len, alignment, ridge, cfg):
    idx = fit_indices(cfg, x.size, alignment)
    reg, fitted = fit(x, y, orders, memory_len, alignment, ridge, cfg=cfg)
    basis, coeffs, eps, resid_power = explicit_fit(x, y, orders, memory_len, alignment, ridge, idx)
    scale = np.abs(coeffs).max()
    np.testing.assert_allclose(fitted, coeffs, rtol=1e-8, atol=1e-8 * scale)
    assert reg.ridge == pytest.approx(eps, rel=1e-12, abs=0.0)
    assert training_residual_power(reg, y, fitted) == pytest.approx(resid_power, rel=1e-9)
    prediction = y[idx] - cancel(x, y, reg, fitted)
    explicit = basis @ fitted.reshape(-1)
    np.testing.assert_allclose(
        prediction, explicit, rtol=1e-12, atol=1e-12 * np.abs(explicit).max()
    )


class TestStructuredFitMatchesExplicitBasis:
    """fit_hammerstein and apply_digital_sic never build the design matrix;
    on any frame layout whose CP covers the taps' reach, they must agree with
    its explicit normal equations over fit_indices."""

    @pytest.fixture(scope="class")
    def frames(self):
        return {
            "three symbols": (ofdm_signals(30, 3), CFG),
            "one symbol": (ofdm_signals(31, 1), CFG),
            "short symbols": (ofdm_signals(32, 14, SHORT), SHORT),
        }

    @pytest.mark.parametrize("ridge", [0.0, 1e-8])
    @pytest.mark.parametrize("orders", [(1,), (1, 3), (1, 3, 5)])
    @pytest.mark.parametrize("layout", ["three symbols", "one symbol", "short symbols"])
    def test_matches_explicit_normal_equations(self, frames, layout, orders, ridge):
        (x, y), cfg = frames[layout]
        for memory_len, alignment in TAP_WINDOWS:
            assert_matches_explicit_fit(x, y, orders, memory_len, alignment, ridge, cfg)

    def test_cp_sample_no_tap_reads_may_differ(self, frames):
        # Taps of 20 at alignment 8 reach 11 samples into the 140-sample CP;
        # the sample just before that reach is free.
        (x, y), _ = frames["three symbols"]
        x = x.copy()
        x[CFG.symbol_len + CFG.cp_len - 12] += 0.1
        assert_matches_explicit_fit(x, y, (1, 3, 5), 20, 8, 1e-8, CFG)


class TestFrameLayoutRejections:
    """The fit and the canceller reject every input on which a tap would not
    be a circular shift within its symbol, naming the argument at fault."""

    @pytest.fixture(scope="class")
    def signals(self):
        return ofdm_signals(30, 3)

    def run_both(self, x, y, match, memory_len=20, alignment=8):
        with pytest.raises(ValueError, match=match):
            fit(x, y, memory_len=memory_len, alignment=alignment, cfg=CFG)
        with pytest.raises(ValueError, match=match):  # the canceller's regressors, no Gram
            HammersteinRegressors(x, (1, 3, 5), memory_len, alignment, CFG)

    def test_stream_of_partial_symbols(self, signals):
        x, y = signals
        self.run_both(x[:-1], y[:-1], "^tx_baseband: .* not whole")
        self.run_both(x[: CFG.fft_size], y[: CFG.fft_size], "^tx_baseband: .* not whole")

    def test_taps_past_the_cp(self, signals):
        # 150 taps at alignment 8 reach 141 samples back, one past the CP.
        x, y = signals
        self.run_both(x, y, "^memory_len: .* reach 141", memory_len=150)

    def test_cp_differs_within_the_reach(self, signals):
        # Taps of 20 at alignment 8 read the last 11 CP samples of symbol 1;
        # its first of those no longer repeats the symbol's tail.
        x, y = signals
        x = x.copy()
        x[CFG.symbol_len + CFG.cp_len - 11] += 0.1
        self.run_both(x, y, "^tx_baseband: a CP differs")

    def test_taps_must_stay_inside_their_symbol(self):
        # A stream of period 16 passes the CP comparison at any reach, so
        # only the 4-sample CP of the 16-sample symbols bounds the taps.
        cfg = OfdmConfig(fft_size=16, active_subcarriers=12, cp_len=4)
        x = np.tile(substream(41, "period").standard_normal(16) + 0j, 25)
        y = 0.5 * x + 0.1 * np.roll(x, 1)
        fit(x, y, (1,), memory_len=5, cfg=cfg)
        with pytest.raises(ValueError, match="^memory_len: .* reach 5 samples back"):
            fit(x, y, (1,), memory_len=6, cfg=cfg)

    def test_taps_must_fit_in_one_symbol(self):
        # 20 taps at alignment 15 reach only 4 samples back, but outspan the
        # 16-sample symbol: a circular shift would alias taps 16 apart.
        cfg = OfdmConfig(fft_size=16, active_subcarriers=12, cp_len=4)
        x, y = ofdm_signals(33, 40, cfg)
        with pytest.raises(ValueError, match="^memory_len: .* at most 16 taps"):
            fit(x, y, (1,), memory_len=20, alignment=15, cfg=cfg)


@pytest.mark.parametrize(
    "build, path",
    [
        (lambda: OfdmConfig(active_subcarriers=1024), "active_subcarriers"),
        (lambda: OfdmConfig(active_subcarriers=791), "active_subcarriers"),
        (lambda: OfdmConfig(cp_len=1024), "cp_len"),
        (lambda: OfdmConfig(cp_len=-1), "cp_len"),
        (lambda: TwoTapConfig((2e-9, 1e-9), (0j, 0j)), "delays_s"),
        (lambda: TwoTapConfig((-1e-9, 1e-9), (0j, 0j)), "delays_s"),
        (lambda: hammerstein_basis(np.ones(64), (1,), 0, 0, [32]), "memory_len"),
        (lambda: hammerstein_basis(np.ones(64), (1,), 4, 4, [32]), "alignment"),
        (lambda: HammersteinRegressors(np.ones(1164), (1,), 4, -1, CFG), "alignment"),
    ],
    ids=["active-fills-fft", "active-odd", "cp-fills-fft", "cp-negative", "delays-reversed",
         "delay-negative", "memory-0", "alignment-at-memory", "regressors-alignment-negative"],
)
def test_chain_config_errors_name_their_field(build, path):
    with pytest.raises(FieldError) as excinfo:
        build()
    assert excinfo.value.path == path


def test_rx_of_another_symbol_count_is_rejected_naming_it():
    # Against a 3-symbol frame, a 1-symbol rx would broadcast into every
    # symbol of the fit's target and of the residual.
    x, y = ofdm_signals(30, 3)
    short = y[: CFG.symbol_len]
    reg = HammersteinRegressors(x, (1, 3, 5), 20, 8, CFG, ridge=1e-8)
    with pytest.raises(ValueError, match="^rx: 1 symbols for a frame of 3"):
        fit_hammerstein(reg, short)
    with pytest.raises(ValueError, match="^rx: 1 symbols for a frame of 3"):
        apply_digital_sic(reg, short, np.ones((3, 20), complex))
    tt = TwoTapConfig(delays_s=(3e-9, 4e-9), gains=(1.0, 1.0))
    with pytest.raises(ValueError, match="^rx: 1 symbols for a frame of 3"):
        apply_analog_canceller(symbol_spectra(x, CFG), short, tt, CFG)


def test_fit_needs_a_gram_and_the_canceller_coeffs_of_its_shape():
    x, y = ofdm_signals(30, 3)
    holdout = HammersteinRegressors(x, (1, 3, 5), 20, 8, CFG)
    with pytest.raises(ValueError, match="^reg: built without a ridge"):
        fit_hammerstein(holdout, y)
    with pytest.raises(ValueError, match=r"^coeffs: expected shape \(3, 20\), got \(3, 19\)"):
        apply_digital_sic(holdout, y, np.ones((3, 19), complex))


@st.composite
def frame_layouts(draw):
    """An OFDM numerology and a tap window whose reach stays inside its CP.
    At least three quarters of the band is active, as in the default
    numerology, and at least twice as many subcarriers as taps: the shifts
    of a signal on a narrower band are too close to collinear for the
    explicit normal equations to serve as the oracle."""
    fft_size = draw(st.sampled_from([16, 32, 64, 128]))
    active = draw(st.integers(3 * fft_size // 8, fft_size // 2 - 1)) * 2
    cp_len = draw(st.integers(0, fft_size - 1))
    memory_len = draw(st.integers(1, min(20, active // 2)))
    alignment = draw(st.integers(max(0, memory_len - 1 - cp_len), memory_len - 1))
    return OfdmConfig(fft_size, active, cp_len), memory_len, alignment


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    orders=st.sampled_from([(1,), (3,), (1, 3), (1, 5), (1, 3, 5)]),
    layout=frame_layouts(),
    n_symbols=st.integers(1, 4),
    ridge=st.sampled_from([0.0, 1e-8]),
)
def test_circular_route_matches_explicit_fit(seed, orders, layout, n_symbols, ridge):
    cfg, memory_len, alignment = layout
    # Enough symbols for ten samples per unknown, the fit's short-block limit.
    per_symbol = cfg.fft_size - alignment
    n_symbols = max(n_symbols, -(-10 * len(orders) * memory_len // per_symbol))
    x, y = ofdm_signals(seed, n_symbols, cfg)
    assert_matches_explicit_fit(x, y, orders, memory_len, alignment, ridge, cfg)


def chain(geometry, seed, reflectors=ReflectorConfig(), ideal_fd=False, **params):
    """(LinkChainParams, SI taps) of a chain at seed whose channel has the SI
    geometry geometry, default antenna patterns and the default carrier, and
    draws reflectors from the stream a chain drew its channel from before it
    took one: substream(substream(seed, "si-channel").integers(2**63),
    "si-reflections"). No taps (ideal FD) if ideal_fd."""
    rng = substream(substream(seed, "si-channel").integers(2**63), "si-reflections")
    (direct,) = direct_si_taps(geometry, AntennaPattern(), AntennaPattern())
    taps = None if ideal_fd else si_channel(direct, reflectors, rng)
    return LinkChainParams(geometry.antenna_separation_m, **params), taps


def run_chain(geometry, seed, **kwargs):
    """run_link_chain at seed of chain(geometry, seed, **kwargs)."""
    return run_link_chain(*chain(geometry, seed, **kwargs), seed)


class TestConditionWarning:
    def test_collinear_branches_warn(self):
        # |x| = 1 makes psi_3 = x |x|^2 equal psi_1 up to rounding. The
        # symbols are constant-modulus useful parts behind their CPs.
        useful = np.exp(2j * np.pi * substream(40, "phase").random((4, CFG.fft_size)))
        x = np.concatenate([useful[:, -CFG.cp_len :], useful], axis=1).ravel()
        with pytest.warns(RuntimeWarning, match="badly conditioned"):
            fit(x, 0.5 * x, (1, 3), memory_len=4, ridge=0.0, cfg=CFG)

    def test_default_chain_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_chain(SiGeometry(1.0), 3)


class TestRunLinkChain:
    def test_deterministic(self):
        p, taps = chain(SiGeometry(1.0), 5)
        assert run_link_chain(p, taps, 5) == run_link_chain(p, taps, 5)
        assert run_link_chain(p, taps, 5) != run_link_chain(p, taps, 6)

    def test_seed_outside_u64_rejected(self):
        # A 64-bit mask used to alias -1 with 2**64 - 1 and 2**64 with 0.
        p, taps = chain(SiGeometry(1.0), 0)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                run_link_chain(p, taps, seed)
        assert run_link_chain(p, taps, 0) != run_link_chain(p, taps, 2**64 - 1)

    def test_reflections_past_cp_rejected(self):
        # Taps past the CP used to wrap around the symbol: after_digital_dbm
        # read about -64 dBm at [1e-9, 2e-6] where about -90 is right.
        direct = 1.0 / SPEED_OF_LIGHT
        for last in (direct + 2e-6, direct + 9e-6, CFG.cp_duration_s):
            taps = ([direct, last], [1e-4, 1e-5])
            with pytest.raises(ValueError, match=r"^si_taps: .* cyclic prefix"):
                run_link_chain(LinkChainParams(1.0), taps, 3)
        room = CFG.cp_duration_s - direct
        inside = ReflectorConfig(min_taps=6, delay_offset_range_s=(0.9 * room, 0.99 * room))
        run_chain(SiGeometry(1.0), 3, reflectors=inside)

    def test_default_separations_skip_analog(self):
        for d in (1.0, 2.0):
            r = run_chain(SiGeometry(d), 11)
            assert not r.analog_applied
            assert r.per_domain_db[1] == 0.0  # skipped stage contributes nothing
            assert r.gray_zone_ok and not r.digital_saturated
            assert abs(r.after_digital_dbm - r.noise_floor_dbm) < 3.0

    def test_small_separation_engages_analog(self):
        r = run_chain(SiGeometry(0.1), 11)
        assert r.analog_applied
        assert r.per_domain_db[1] > 0.0
        assert abs(r.after_digital_dbm - r.noise_floor_dbm) < 3.0

    def test_ideal_fd_lands_on_noise_floor(self):
        r = run_link_chain(LinkChainParams(1.0), None, 3)
        assert r.after_digital_dbm == pytest.approx(r.noise_floor_dbm, abs=0.3)

    def test_saturation_flag_when_analog_disabled(self):
        geom = SiGeometry(0.1, tx_orientation=(0, 0, -1), rx_orientation=(0, 0, 1))
        r = run_chain(geom, 3, analog_mode="off")
        assert not r.gray_zone_ok and r.digital_saturated
        assert r.after_digital_dbm > r.noise_floor_dbm + 40.0

    def test_report_arithmetic_and_monotonicity(self):
        for seed in range(4):
            r = run_chain(SiGeometry(0.5), seed)
            assert sum(r.per_domain_db) == pytest.approx(
                r.tx_power_dbm - r.after_digital_dbm, abs=0.01
            )
            stages = (
                r.tx_power_dbm,
                r.after_propagation_dbm,
                r.after_analog_dbm,
                r.after_digital_dbm,
            )
            assert all(b <= a + 0.02 for a, b in zip(stages, stages[1:]))

    def test_holdout_close_to_training_residual(self):
        r = run_chain(SiGeometry(1.0), 21)
        assert abs(r.holdout_residual_dbm - r.after_digital_dbm) < 1.0

    @pytest.mark.parametrize("separations", [(0.1,), (0.1, 1.0, 2.0)], ids=["chain", "group"])
    def test_peak_memory_of_one_chain(self, separations):
        # At 0.1 m the analog stage engages, the chain's largest path. Only
        # one frame's streams are alive at a time, and a group's chains keep
        # their own streams only while each runs.
        chains = [chain(SiGeometry(d), 3) for d in separations]
        run_link_chains(chains, 3)
        tracemalloc.start()
        try:
            reports = run_link_chains(chains, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reports[0].analog_applied
        assert peak <= 6.0e6

    def test_fig4_structure_single_seed(self):
        sups = {}
        for d in (2.0, 1.0, 0.1):
            r = run_chain(SiGeometry(d), 17)
            sups[d] = r.per_domain_db[0]
            assert abs(r.after_digital_dbm - r.noise_floor_dbm) < 6.0
        assert sups[2.0] > sups[1.0] > sups[0.1]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), separation=st.floats(0.1, 3.0))
def test_chain_property(seed, separation):
    params, taps = chain(SiGeometry(separation), seed)
    report = run_link_chain(params, taps, seed)
    report.validate()
    if not report.analog_applied:
        assert report.per_domain_db[1] == 0.0
    assert run_link_chain(params, taps, seed) == report


# Slack for what the chain's propagation reading adds to the channel's own
# gain: thermal noise (0.0014 dB at 2 m, where the SI sits 35 dB above the
# floor) and the fit window's sample-power fluctuation. Over 300 chains drawn
# at separations uniform in [0.1, 2] m the reading left its bins' range by at
# most 0.0031 dB, at a single-tap channel near 2 m.
PROPAGATION_SLACK_DB = 0.01


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), separation=st.floats(0.1, 2.0))
def test_chain_propagation_matches_the_si_channel_gain(seed, separation):
    """The link level's propagation loss, tx_power_dbm - after_propagation_dbm,
    against the system level's -total_gain_db of the same channel, drawn from
    the chain's stream.

    The chain's received power is the PA spectrum's weighted mean of |H_k|^2,
    so it lies between the FFT bins' extremes. The total tap power can fall
    outside that range when a reflection trails the direct tap by much less
    than a sample (one draw in 40 put it 0.097 dB out), so the tolerance is
    the bins' spread of 10 log10 |H_k|^2 about the gain itself."""
    params, taps = chain(SiGeometry(separation), seed, analog_mode="off")
    report = run_link_chain(params, taps, seed)
    bins_db, spread_db = bins_spread_db(taps, params.ofdm)
    loss_db = report.tx_power_dbm - report.after_propagation_dbm
    assert abs(loss_db - (-total_gain_db(taps[1]))) <= spread_db + PROPAGATION_SLACK_DB
    assert bins_db.min() - PROPAGATION_SLACK_DB <= -loss_db <= bins_db.max() + PROPAGATION_SLACK_DB


def bins_spread_db(taps, cfg):
    """(10 log10 |H_k|^2 on the FFT bins of cfg, their largest distance from
    the taps' total gain) for the SI taps (delays_s, gains)."""
    delays, gains = taps
    h_bins = np.exp(-2j * np.pi * np.outer(cfg.bin_freqs_hz(), delays)) @ gains
    bins_db = 10.0 * np.log10(np.abs(h_bins) ** 2)
    return bins_db, np.max(np.abs(bins_db - total_gain_db(gains)))


@settings(max_examples=150, deadline=None)
@given(fft_size=st.sampled_from([64, 1023, 1024]), data=st.data())
def test_si_bins_equal_every_bins_own_ramps_bit_for_bit(fft_size, data):
    """The SI response from bins 0..n/2 and their conjugates is the response
    of every bin's own phase ramps, for 1-13 taps anywhere inside the CP, at
    an even and an odd FFT size (which has no Nyquist bin)."""
    cfg = OfdmConfig(fft_size, 48, data.draw(st.integers(1, fft_size - 1)))
    k = data.draw(st.integers(1, 13))
    in_cp = st.floats(0.0, cfg.cp_duration_s, exclude_max=True)
    delays = np.sort(data.draw(st.lists(in_cp, min_size=k, max_size=k)))
    gain = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    gains = np.array(data.draw(st.lists(gain, min_size=k, max_size=k)), complex)
    want = np.exp(-2j * np.pi * np.outer(cfg.bin_freqs_hz(), delays)) @ gains
    got = fdiab.sic._si_bins(delays, gains, cfg)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed", range(10))
def test_chain_on_a_drop_beam_matches_its_propagation_residual(seed):
    """The two levels on one channel: beam b of node i in the drop at seed,
    its SI taps (node_si_taps on the node's drop stream) fed to node i's link chain. The chain's
    propagation_db is the drop's node.tx_power_dbm - prop_residual[i, b],
    within the bins' spread of the taps' gain, as for the chain's own draw."""
    sc = default_scenario()
    beam_dirs = schedule_drop(sc, seed)[3]
    for i, node in enumerate(sc.iab_nodes):
        taps = node_si_taps(sc, i, beam_dirs[i + 1], substream(seed, "si", i))
        prop_residual = propagation_residual_si_dbm(sc, seed, i, node, beam_dirs[i + 1])
        params, _ = chain_for_node(sc, i)
        reports = run_link_chains([(params, t) for t in taps], seed)
        assert len(reports) == len(prop_residual) == 16
        for report, beam_taps, residual in zip(reports, taps, prop_residual):
            _, spread_db = bins_spread_db(beam_taps, params.ofdm)
            loss_db = node.tx_power_dbm - residual
            assert abs(report.per_domain_db[0] - loss_db) <= spread_db + PROPAGATION_SLACK_DB


DIRECT_1M_S = 1.0 / SPEED_OF_LIGHT


@pytest.mark.parametrize(
    "delays, gains, message",
    [
        ([DIRECT_1M_S, 2 * DIRECT_1M_S], [1e-4], "delays for"),
        ([], [], "delays for"),
        ([DIRECT_1M_S, np.nan], [1e-4, 1e-5], "finite"),
        ([DIRECT_1M_S, 2 * DIRECT_1M_S], [1e-4, complex(np.inf, 0.0)], "finite"),
        ([DIRECT_1M_S, 0.5 * DIRECT_1M_S], [1e-4, 1e-5], "increase"),
        ([DIRECT_1M_S, CFG.cp_duration_s], [1e-4, 1e-5], "cyclic prefix"),
        ([2 * DIRECT_1M_S], [1e-4], "contradicts antenna_separation_m"),
    ],
    ids=["unequal-lengths", "no-taps", "nan-delay", "inf-gain", "out-of-order", "at-cp",
         "direct-delay-contradicts-separation"],
)
def test_chain_rejects_taps_naming_them(delays, gains, message):
    with pytest.raises(ValueError, match=f"^si_taps: .*{message}"):
        run_link_chain(LinkChainParams(1.0), (np.array(delays), np.array(gains)), 3)
    # Before any frame is sent, in a group too.
    good = chain(SiGeometry(1.0), 3)
    with mock.patch("fdiab.sic.build_frame") as build_frame:
        with pytest.raises(ValueError, match="^si_taps: "):
            run_link_chains([good, (good[0], (np.array(delays), np.array(gains)))], 3)
    build_frame.assert_not_called()


def test_chain_knows_no_propagation_model():
    """The chain takes its SI channel as an input: LinkChainParams holds no
    channel model, and fdiab.sic imports neither fdiab.system nor
    fdiab.geometry."""
    model = {"geometry", "tx_pattern", "rx_pattern", "reflectors", "carrier_freq_hz", "ideal_fd"}
    assert not model & {f.name for f in dataclasses.fields(LinkChainParams)}
    tree = ast.parse(inspect.getsource(fdiab.sic))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported.isdisjoint({"system", "geometry"})
    assert "si_channel" not in vars(fdiab.sic) and "Scenario" not in vars(fdiab.sic)


# The reports of LinkChainParams(geometry=SiGeometry(separation),
# ideal_fd=True, analog_mode=mode) at seed, as astuple, before the chain took
# its SI channel as an input.
IDEAL_FD_REPORTS = [
    (1.0, "auto", 3, (
        31.966914044224808, -90.25136520189761, -90.25136520189761, -90.2704804686785,
        (122.21827924612242, 0.0, 0.019115266780886486), -90.20818753952375, False, True,
        False, -90.17539475149952, 1.0,
    )),
    (0.1, "on", 8, (
        31.976380177493922, -90.2330391642925, -90.2327218855644, -90.24788065923278,
        (122.20941934178643, -0.00031727872810449753, 0.015158773668375147),
        -90.20818753952375, True, True, False, -90.15388768572898, 0.1,
    )),
]


@pytest.mark.parametrize("separation, mode, seed, report", IDEAL_FD_REPORTS)
def test_chain_without_a_channel_is_the_former_ideal_fd_chain(separation, mode, seed, report):
    got = run_link_chain(LinkChainParams(separation, analog_mode=mode), None, seed)
    assert dataclasses.astuple(got) == report


# Frame fields a chain may change: chains that agree on them share a frame.
FRAMES = [
    {},
    dict(noise=NoiseModel(noise_figure_db=6.0)),
    dict(input_backoff_db=10.0),
    dict(n_holdout_symbols=4),
]


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    chains=st.lists(
        st.tuples(
            st.floats(0.1, 3.0),
            st.sampled_from(["auto", "on", "off"]),
            st.booleans(),
            st.sampled_from([None, ReflectorConfig(max_taps=2)]),
            st.sampled_from(FRAMES),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_shared_frame_chains_equal_one_chain_each(seed, chains):
    links = [
        chain(SiGeometry(d), seed, reflectors=refl, ideal_fd=ideal, analog_mode=mode, **frame)
        for d, mode, ideal, refl, frame in chains
    ]
    assert run_link_chains(links, seed) == [run_link_chain(p, taps, seed) for p, taps in links]


def test_one_frame_pair_per_frame_key_in_order_of_first_use():
    base = chain(SiGeometry(1.0), 3)
    other = chain(SiGeometry(2.0), 3, **FRAMES[3])
    links = [other, base, other, base]
    with mock.patch("fdiab.sic.build_frame", side_effect=fdiab.sic.build_frame) as build_frame:
        reports = run_link_chains(links, 3)
    # A train frame of 2 + 16 symbols, then the holdout frame, per key.
    assert [c.args[1] for c in build_frame.call_args_list] == [18, 4, 18, 8]
    assert reports == [run_link_chain(p, taps, 3) for p, taps in links]
    assert run_link_chains([], 3) == []


# A calibration frame of one 16-point symbol, fit with 6 taps at alignment 4.
TINY_FRAME = dict(
    ofdm=OfdmConfig(fft_size=16, active_subcarriers=12, cp_len=4),
    analog_mode="off", n_pilot_symbols=0, n_data_symbols=1,
    hammerstein_memory=6, hammerstein_alignment=4,
)


class TestLinkChainParamsBounds:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_pilot_symbols", 0),
            ("n_pilot_symbols", -1),
            ("n_holdout_symbols", 0),
            ("hammerstein_memory", 0),
            ("hammerstein_alignment", -1),
            ("hammerstein_alignment", 20),
            ("hammerstein_alignment", 30),
            ("ridge", -1.0),
            ("ridge", float("nan")),
            ("ridge", float("inf")),
            ("input_backoff_db", float("nan")),
            ("input_backoff_db", float("inf")),
            ("analog_engage_margin_db", float("nan")),
            ("antenna_separation_m", float("inf")),
            ("antenna_separation_m", -1.0),
            ("antenna_separation_m", 0.0),
            ("input_backoff_db", -1.0),
            ("n_data_symbols", -2),
            # No training symbols: the chain used to take the mean of an
            # empty view, with a RuntimeWarning, before the fit named no field.
            ("n_data_symbols", dict(analog_mode="off", n_pilot_symbols=0, n_data_symbols=0)),
            # One 16-point symbol less 4 aligned samples: 12 samples for 18 unknowns.
            ("n_data_symbols", dict(TINY_FRAME, hammerstein_orders=(1, 3, 5))),
            # Rejected when the chain is built, not once its frames are sent.
            ("hammerstein_orders", (2,)),
            ("hammerstein_orders", (1, 3, 5, 7)),
            ("hammerstein_orders", (3, 1)),
            ("hammerstein_orders", ()),
            ("hammerstein_orders", [1, 3, 5]),  # a list would not hash as a frame key
            # A tap window the OFDM symbol cannot hold, before the chain runs:
            # 200 taps at alignment 8 reach 191 samples back, past the 140-sample
            # CP; 2,000 taps at alignment 1,500 outspan the 1,024-point symbol.
            ("hammerstein_memory", 200),
            ("hammerstein_memory", dict(hammerstein_memory=2000, hammerstein_alignment=1500)),
            ("analog_mode", "x"),
        ],
    )
    def test_rejected_by_name(self, field, value):
        kwargs = value if isinstance(value, dict) else {field: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FieldError, match=f"^{field}: ") as excinfo:
                LinkChainParams(**{"antenna_separation_m": 0.1, **kwargs})
        assert excinfo.value.path == field

    def test_pilots_only_needed_when_analog_can_engage(self):
        for mode in ("auto", "on"):
            with pytest.raises(ValueError, match="n_pilot_symbols"):
                LinkChainParams(0.1, analog_mode=mode, n_pilot_symbols=0)
        with pytest.raises(ValueError, match="n_pilot_symbols"):
            LinkChainParams(0.1, analog_mode="off", n_pilot_symbols=-1)
        run_chain(SiGeometry(1.0), 3, analog_mode="off", n_pilot_symbols=0)

    def test_bounds_are_inclusive(self):
        run_chain(
            SiGeometry(1.0),
            3,
            n_holdout_symbols=1,
            hammerstein_memory=4,
            hammerstein_alignment=3,
            ridge=0.0,
        )
        LinkChainParams(1.0, hammerstein_memory=1, hammerstein_alignment=0)
        # 149 taps at alignment 8 reach 140 samples back: the whole CP.
        LinkChainParams(1.0, hammerstein_memory=149)
        # As many fit samples as unknowns: 12 for 2 orders x 6 taps.
        LinkChainParams(1.0, **TINY_FRAME, hammerstein_orders=(1, 3))


class TestReportValidation:
    @pytest.fixture(scope="class")
    def report(self):
        return run_chain(SiGeometry(1.0), 3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field",
        [
            "tx_power_dbm",
            "after_propagation_dbm",
            "after_analog_dbm",
            "after_digital_dbm",
            "holdout_residual_dbm",
            "noise_floor_dbm",
            "antenna_separation_m",
        ],
    )
    def test_non_finite_value_rejected(self, report, field, bad):
        with pytest.raises(ValueError, match=rf"{field} is not finite"):
            dataclasses.replace(report, **{field: bad}).validate()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("domain", [0, 1, 2])
    def test_non_finite_domain_rejected(self, report, domain, bad):
        per_domain = list(report.per_domain_db)
        per_domain[domain] = bad
        with pytest.raises(ValueError, match="per_domain_db is not finite"):
            dataclasses.replace(report, per_domain_db=tuple(per_domain)).validate()

    def test_all_nan_report_rejected(self, report):
        nan = float("nan")
        fields = {f.name: nan for f in dataclasses.fields(ReductionReport)}
        fields.update(
            per_domain_db=(nan, nan, nan),
            analog_applied=True,
            gray_zone_ok=False,
            digital_saturated=False,
        )
        with pytest.raises(ValueError, match="not finite"):
            ReductionReport(**fields).validate()
        assert report.validate() is report

    @pytest.mark.parametrize("above_floor_db, path", [(0.5, "noise_figure_db"), (0.51, "")])
    def test_rise_to_the_noise_names_the_noise_figure(self, report, above_floor_db, path):
        # A propagation stage 0.1 dB above the PA output: within the noise's
        # scatter of the floor the rise is the noise's, beyond it the chain's.
        rise = dict(after_propagation_dbm=report.tx_power_dbm + 0.1)
        rise["noise_floor_dbm"] = rise["after_propagation_dbm"] - above_floor_db
        with pytest.raises(ValueError, match="stage power increased|lifts a stage") as info:
            dataclasses.replace(report, **rise).validate()
        assert getattr(info.value, "path", "") == path
