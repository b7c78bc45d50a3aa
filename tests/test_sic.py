import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdiab.geometry import ChannelImpulseResponse, ReflectorConfig, SiGeometry
from fdiab.ofdm import OfdmConfig, build_frame
from fdiab.rf import NoiseModel
from fdiab.sic import (
    HammersteinModel,
    LinkChainParams,
    ReductionReport,
    apply_analog_canceller,
    apply_digital_sic,
    default_canceller_delays,
    fit_hammerstein,
    hammerstein_basis,
    ofdm_valid_indices,
    run_link_chain,
    tune_two_tap,
    two_tap_residual_power,
    TwoTapConfig,
)
from fdiab.util import SPEED_OF_LIGHT, FieldError, substream

CFG = OfdmConfig()
FREQS = CFG.subcarrier_freqs_hz()


def two_tap_response(delays, gains):
    basis = np.exp(-2j * np.pi * np.outer(FREQS, delays))
    return basis @ np.asarray(gains)


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
        rel = two_tap_residual_power(h, tt, CFG) / np.mean(np.abs(h) ** 2)
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
        residual = two_tap_residual_power(h + h3, tt, CFG)

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
        r1 = two_tap_residual_power(h, tune_two_tap(h, delays, CFG), CFG)
        r2 = two_tap_residual_power(h, tune_two_tap(h, delays[::-1], CFG), CFG)
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
        frame = build_frame(CFG, 4, rng, 0)
        tt = TwoTapConfig(delays_s=(3e-9, 4e-9), gains=(0.7 + 0.1j, -0.2 + 0.4j))
        rx = apply_analog_canceller(
            frame.samples, np.zeros_like(frame.samples), tt, CFG
        )
        # rx built as exactly the canceller's own regeneration
        resid = apply_analog_canceller(frame.samples, -rx, tt, CFG)
        rel = np.mean(np.abs(resid) ** 2) / np.mean(np.abs(rx) ** 2)
        assert rel < 1e-12  # at or below the numerical floor

    def test_zero_gains_identity(self):
        rng = substream(2, "ac0")
        frame = build_frame(CFG, 2, rng, 0)
        tt = TwoTapConfig(delays_s=(3e-9, 4e-9), gains=(0.0, 0.0))
        out = apply_analog_canceller(frame.samples, frame.samples, tt, CFG)
        assert np.allclose(out, frame.samples, atol=0)

    def test_shape_mismatch(self):
        tt = TwoTapConfig(delays_s=(3e-9, 4e-9), gains=(1.0, 1.0))
        with pytest.raises(ValueError):
            apply_analog_canceller(
                np.zeros(CFG.symbol_len, complex), np.zeros(2 * CFG.symbol_len, complex), tt, CFG
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


def integer_delay_cir(delay_samples, gain, cfg=CFG):
    return ChannelImpulseResponse(
        taps=((delay_samples / cfg.sample_rate_hz, gain),), carrier_freq_hz=28e9
    )


# A numerology with short symbols: 14 of them are fewer samples than two
# default symbols, so one-symbol and many-symbol frames both stay small.
SHORT = OfdmConfig(fft_size=64, active_subcarriers=48, cp_len=20)


class TestHammerstein:
    def test_linear_system_kills_nonlinear_branches(self):
        from fdiab.ofdm import apply_channel

        rng = substream(4, "hlin")
        frame = build_frame(CFG, 8, rng, 0)
        x = frame.samples
        y = apply_channel(x, integer_delay_cir(2, 0.6 - 0.2j), CFG)
        # ridge off: noiseless model identification should be exact
        model = fit_hammerstein(x, y, memory_len=8, alignment=4, ridge=0.0, cfg=CFG)
        norms = np.linalg.norm(model.coeffs, axis=1)
        assert norms[1] <= 1e-6 * norms[0]
        assert norms[2] <= 1e-6 * norms[0]

    def test_cubic_pa_fit_and_linear_floor(self):
        # Memoryless cubic distortion: the {1,3,5} fit reaches the noise
        # floor; a linear-only fit keeps the part of x|x|^2 orthogonal to the
        # delayed-x span (about one third of the c3-term power for an
        # OFDM-Gaussian input; the brute-force projection is the oracle).
        from fdiab.ofdm import apply_channel

        rng = substream(5, "hcub")
        frame = build_frame(CFG, 8, rng, 0)
        x = frame.samples
        c3 = 0.05
        distorted = x + c3 * x * np.abs(x) ** 2
        y_clean = apply_channel(distorted, integer_delay_cir(1, 1.0), CFG)
        noise_power = 10 ** (-60 / 10)
        noise = np.sqrt(noise_power / 2) * (
            rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
        )
        y = y_clean + noise
        idx = ofdm_valid_indices(CFG, x.size, 4)

        full = fit_hammerstein(x, y, (1, 3, 5), memory_len=8, alignment=4, cfg=CFG)
        assert full.training_residual_power <= 1.05 * noise_power

        lin = fit_hammerstein(x, y, (1,), memory_len=8, alignment=4, cfg=CFG)
        basis1 = hammerstein_basis(x, (1,), 8, 4, idx)
        target = (c3 * x * np.abs(x) ** 2)[idx - 1]  # the c3 term as received
        proj, *_ = np.linalg.lstsq(basis1, target, rcond=None)
        oracle = np.mean(np.abs(target - basis1 @ proj) ** 2)
        assert 10 * np.log10(lin.training_residual_power / oracle) == pytest.approx(
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

        x_tiny, x_big, x_test = (build_frame(cfg, n, rng, 0).samples for n in (1, 10, 100))
        with pytest.warns(RuntimeWarning, match="short"):
            tiny = fit_hammerstein(
                x_tiny, distorted(x_tiny), (1, 3, 5), memory_len=4, alignment=2, ridge=0.0, cfg=cfg
            )
        assert tiny.training_residual_power <= 1e-12 * tiny.training_power

        big = fit_hammerstein(x_big, distorted(x_big), (1, 3, 5), memory_len=4, alignment=2, cfg=cfg)
        y_test = distorted(x_test)
        r_tiny = np.mean(np.abs(apply_digital_sic(x_test, y_test, tiny, cfg)) ** 2)
        r_big = np.mean(np.abs(apply_digital_sic(x_test, y_test, big, cfg)) ** 2)
        assert r_tiny > r_big

    def test_apply_consistent_with_fit(self):
        rng = substream(7, "happ")
        frame = build_frame(CFG, 6, rng, 0)
        x = frame.samples
        y = 0.8 * x + 0.03 * x * np.abs(x) ** 4
        model = fit_hammerstein(x, y, memory_len=6, alignment=2, cfg=CFG)
        resid = apply_digital_sic(x, y, model, CFG)
        assert np.mean(np.abs(resid) ** 2) == pytest.approx(
            model.training_residual_power, rel=1e-9
        )

    def test_zero_coefficients_identity(self):
        rng = substream(8, "hzero")
        frame = build_frame(CFG, 2, rng, 0)
        x = frame.samples
        model = fit_hammerstein(x, x, memory_len=4, cfg=CFG)
        zeroed = type(model)(
            orders=model.orders,
            memory_len=model.memory_len,
            coeffs=np.zeros_like(model.coeffs),
            alignment=model.alignment,
        )
        resid = apply_digital_sic(x, x, zeroed, CFG)
        assert np.array_equal(resid, x[ofdm_valid_indices(CFG, x.size, 0)])

    def test_generalizes_to_fresh_block(self):
        rng = substream(9, "hgen")
        train = build_frame(CFG, 8, rng, 0).samples
        test = build_frame(CFG, 8, rng, 0).samples

        def channelize(x):
            from fdiab.ofdm import apply_channel

            d = x + 0.05 * x * np.abs(x) ** 2
            return apply_channel(d, integer_delay_cir(1, 1.0), CFG) + 1e-3 * (
                substream(10, "n", x.size).standard_normal(x.size)
                + 1j * substream(11, "n", x.size).standard_normal(x.size)
            )

        model = fit_hammerstein(train, channelize(train), memory_len=8, alignment=4, cfg=CFG)
        resid = apply_digital_sic(test, channelize(test), model, CFG)
        fresh = np.mean(np.abs(resid) ** 2)
        ratio_db = 10 * np.log10(fresh / model.training_residual_power)
        assert abs(ratio_db) < 1.0

    def test_ls_optimality_gradient(self):
        rng = substream(12, "hgrad")
        frame = build_frame(CFG, 4, rng, 0)
        x = frame.samples
        y = 0.7 * x + 0.04 * x * np.abs(x) ** 2
        idx = ofdm_valid_indices(CFG, x.size, 2)
        model = fit_hammerstein(x, y, memory_len=4, alignment=2, cfg=CFG)
        basis = hammerstein_basis(x, model.orders, model.memory_len, model.alignment, idx)
        c = model.coeffs.reshape(-1)
        grad = basis.conj().T @ (y[idx] - basis @ c) - model.ridge * c
        scale = np.linalg.norm(basis.conj().T @ y[idx])
        assert np.linalg.norm(grad) < 1e-6 * scale

    def test_perturbing_coefficients_raises_residual(self):
        rng = substream(13, "hconv")
        frame = build_frame(CFG, 4, rng, 0)
        x = frame.samples
        y = 0.7 * x + 0.04 * x * np.abs(x) ** 2
        idx = ofdm_valid_indices(CFG, x.size, 2)
        model = fit_hammerstein(x, y, memory_len=4, alignment=2, cfg=CFG)
        basis = hammerstein_basis(x, model.orders, model.memory_len, model.alignment, idx)
        c0 = model.coeffs.reshape(-1)
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
            fit_hammerstein(x, x, orders=(1, 3, 5, 7), memory_len=2, cfg=CFG)
        with pytest.raises(ValueError, match="orders"):
            fit_hammerstein(x, x, orders=(2, 4), memory_len=2, cfg=CFG)
        with pytest.raises(ValueError, match="orders"):
            fit_hammerstein(x, x, orders=(), memory_len=2, cfg=CFG)
        with pytest.raises(ValueError, match="alignment"):
            fit_hammerstein(x, x, memory_len=2, alignment=2, cfg=CFG)
        with pytest.raises(ValueError, match="alignment"):
            fit_hammerstein(x, x, memory_len=2, alignment=-1, cfg=CFG)


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
    from fdiab.ofdm import apply_channel

    rng = substream(seed, "hstruct")
    x = build_frame(cfg, n_symbols, rng, 0).samples
    d = x + 0.05 * x * np.abs(x) ** 2 - 0.01 * x * np.abs(x) ** 4
    y = apply_channel(d, integer_delay_cir(1, 0.8 + 0.3j, cfg), cfg) + 1e-3 * (
        rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    )
    return x, y


def assert_matches_explicit_fit(x, y, orders, memory_len, alignment, ridge, cfg):
    idx = ofdm_valid_indices(cfg, x.size, alignment)
    model = fit_hammerstein(x, y, orders, memory_len, alignment, ridge, cfg=cfg)
    basis, coeffs, eps, resid_power = explicit_fit(x, y, orders, memory_len, alignment, ridge, idx)
    scale = np.abs(coeffs).max()
    np.testing.assert_allclose(model.coeffs, coeffs, rtol=1e-8, atol=1e-8 * scale)
    assert model.ridge == pytest.approx(eps, rel=1e-12, abs=0.0)
    assert model.training_residual_power == pytest.approx(resid_power, rel=1e-9)
    prediction = y[idx] - apply_digital_sic(x, y, model, cfg)
    explicit = basis @ model.coeffs.reshape(-1)
    np.testing.assert_allclose(
        prediction, explicit, rtol=1e-12, atol=1e-12 * np.abs(explicit).max()
    )


class TestStructuredFitMatchesExplicitBasis:
    """fit_hammerstein and apply_digital_sic never build the design matrix;
    on any frame layout whose CP covers the taps' reach, they must agree with
    its explicit normal equations over ofdm_valid_indices."""

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
            fit_hammerstein(x, y, memory_len=memory_len, alignment=alignment, cfg=CFG)
        model = HammersteinModel(
            orders=(1, 3, 5),
            memory_len=memory_len,
            coeffs=np.ones((3, memory_len), complex),
            alignment=alignment,
        )
        with pytest.raises(ValueError, match=match):
            apply_digital_sic(x, y, model, CFG)

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
        fit_hammerstein(x, y, (1,), memory_len=5, cfg=cfg)
        with pytest.raises(ValueError, match="^memory_len: .* reach 5 samples back"):
            fit_hammerstein(x, y, (1,), memory_len=6, cfg=cfg)

    def test_taps_must_fit_in_one_symbol(self):
        # 20 taps at alignment 15 reach only 4 samples back, but outspan the
        # 16-sample symbol: a circular shift would alias taps 16 apart.
        cfg = OfdmConfig(fft_size=16, active_subcarriers=12, cp_len=4)
        x, y = ofdm_signals(33, 40, cfg)
        with pytest.raises(ValueError, match="^memory_len: .* at most 16 taps"):
            fit_hammerstein(x, y, (1,), memory_len=20, alignment=15, cfg=cfg)


@st.composite
def frame_layouts(draw):
    """An OFDM numerology and a tap window whose reach stays inside its CP.
    At least three quarters of the band is active, as in the default
    numerology, and at least twice as many subcarriers as taps: the shifts
    of a signal on a narrower band are too close to collinear for the
    explicit normal equations to serve as the oracle."""
    fft_size = draw(st.sampled_from([16, 32, 64, 128]))
    active = draw(st.integers(3 * fft_size // 8, fft_size // 2 - 1)) * 2
    cp_len = draw(st.integers(1, fft_size - 1))
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


class TestConditionWarning:
    def test_collinear_branches_warn(self):
        # |x| = 1 makes psi_3 = x |x|^2 equal psi_1 up to rounding. The
        # symbols are constant-modulus useful parts behind their CPs.
        useful = np.exp(2j * np.pi * substream(40, "phase").random((4, CFG.fft_size)))
        x = np.concatenate([useful[:, -CFG.cp_len :], useful], axis=1).ravel()
        with pytest.warns(RuntimeWarning, match="badly conditioned"):
            fit_hammerstein(x, 0.5 * x, (1, 3), memory_len=4, ridge=0.0, cfg=CFG)

    def test_default_chain_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_link_chain(LinkChainParams(geometry=SiGeometry(1.0)), 3)


class TestRunLinkChain:
    def test_deterministic(self):
        p = LinkChainParams(geometry=SiGeometry(1.0))
        assert run_link_chain(p, 5) == run_link_chain(p, 5)
        assert run_link_chain(p, 5) != run_link_chain(p, 6)

    def test_seed_outside_u64_rejected(self):
        # A 64-bit mask used to alias -1 with 2**64 - 1 and 2**64 with 0.
        p = LinkChainParams(geometry=SiGeometry(1.0))
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                run_link_chain(p, seed)
        assert run_link_chain(p, 0) != run_link_chain(p, 2**64 - 1)

    def test_reflections_past_cp_rejected(self):
        # Taps past the CP used to wrap around the symbol: after_digital_dbm
        # read about -64 dBm at [1e-9, 2e-6] where about -90 is right.
        message = r"reflectors\.delay_offset_range_s .* cyclic prefix"
        for hi in (2e-6, 9e-6, CFG.cp_duration_s):
            refl = ReflectorConfig(delay_offset_range_s=(1e-9, hi))
            with pytest.raises(ValueError, match=message):
                LinkChainParams(geometry=SiGeometry(1.0), reflectors=refl)
        room = CFG.cp_duration_s - 1.0 / SPEED_OF_LIGHT
        inside = ReflectorConfig(min_taps=6, delay_offset_range_s=(0.9 * room, 0.99 * room))
        run_link_chain(LinkChainParams(geometry=SiGeometry(1.0), reflectors=inside), 3)

    def test_default_separations_skip_analog(self):
        for d in (1.0, 2.0):
            r = run_link_chain(LinkChainParams(geometry=SiGeometry(d)), 11)
            assert not r.analog_applied
            assert r.per_domain_db[1] == 0.0  # skipped stage contributes nothing
            assert r.gray_zone_ok and not r.digital_saturated
            assert abs(r.after_digital_dbm - r.noise_floor_dbm) < 3.0

    def test_small_separation_engages_analog(self):
        r = run_link_chain(LinkChainParams(geometry=SiGeometry(0.1)), 11)
        assert r.analog_applied
        assert r.per_domain_db[1] > 0.0
        assert abs(r.after_digital_dbm - r.noise_floor_dbm) < 3.0

    def test_ideal_fd_lands_on_noise_floor(self):
        r = run_link_chain(LinkChainParams(geometry=SiGeometry(1.0), ideal_fd=True), 3)
        assert r.after_digital_dbm == pytest.approx(r.noise_floor_dbm, abs=0.3)

    def test_saturation_flag_when_analog_disabled(self):
        geom = SiGeometry(0.1, tx_orientation=(0, 0, -1), rx_orientation=(0, 0, 1))
        r = run_link_chain(LinkChainParams(geometry=geom, analog_mode="off"), 3)
        assert not r.gray_zone_ok and r.digital_saturated
        assert r.after_digital_dbm > r.noise_floor_dbm + 40.0

    def test_report_arithmetic_and_monotonicity(self):
        for seed in range(4):
            r = run_link_chain(LinkChainParams(geometry=SiGeometry(0.5)), seed)
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
        r = run_link_chain(LinkChainParams(geometry=SiGeometry(1.0)), 21)
        assert abs(r.holdout_residual_dbm - r.after_digital_dbm) < 1.0

    def test_peak_memory_of_one_chain(self):
        # At 0.1 m the analog stage engages, the chain's largest path. Only
        # one frame's streams are alive at a time.
        params = LinkChainParams(geometry=SiGeometry(0.1))
        run_link_chain(params, 3)
        tracemalloc.start()
        try:
            report = run_link_chain(params, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.analog_applied
        assert peak <= 6.0e6

    def test_fig4_structure_single_seed(self):
        sups = {}
        for d in (2.0, 1.0, 0.1):
            r = run_link_chain(LinkChainParams(geometry=SiGeometry(d)), 17)
            sups[d] = r.per_domain_db[0]
            assert abs(r.after_digital_dbm - r.noise_floor_dbm) < 6.0
        assert sups[2.0] > sups[1.0] > sups[0.1]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), separation=st.floats(0.1, 3.0))
def test_chain_property(seed, separation):
    params = LinkChainParams(geometry=SiGeometry(separation))
    report = run_link_chain(params, seed)
    report.validate()
    if not report.analog_applied:
        assert report.per_domain_db[1] == 0.0
    assert run_link_chain(params, seed) == report


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
            ("carrier_freq_hz", float("inf")),
            ("carrier_freq_hz", -1.0),
            ("carrier_freq_hz", 0.0),
            ("input_backoff_db", -1.0),
            ("n_data_symbols", -2),
        ],
    )
    def test_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            LinkChainParams(geometry=SiGeometry(0.1), **{field: value})

    def test_carrier_declared_once_with_the_scenario(self):
        # The scenario's carrier field is the one declaration of its default
        # and its bounds; the chain reads it.
        from fdiab.system import default_scenario

        assert LinkChainParams(geometry=SiGeometry(0.1)).carrier_freq_hz == (
            default_scenario().carrier_freq_hz
        )
        with pytest.raises(FieldError, match="^carrier_freq_hz: must be > 0, got -1.0"):
            LinkChainParams(geometry=SiGeometry(0.1), carrier_freq_hz=-1.0)

    def test_pilots_only_needed_when_analog_can_engage(self):
        for mode in ("auto", "on"):
            with pytest.raises(ValueError, match="n_pilot_symbols"):
                LinkChainParams(geometry=SiGeometry(0.1), analog_mode=mode, n_pilot_symbols=0)
        with pytest.raises(ValueError, match="n_pilot_symbols"):
            LinkChainParams(geometry=SiGeometry(0.1), analog_mode="off", n_pilot_symbols=-1)
        params = LinkChainParams(geometry=SiGeometry(1.0), analog_mode="off", n_pilot_symbols=0)
        run_link_chain(params, 3)

    def test_bounds_are_inclusive(self):
        params = LinkChainParams(
            geometry=SiGeometry(1.0),
            n_holdout_symbols=1,
            hammerstein_memory=4,
            hammerstein_alignment=3,
            ridge=0.0,
        )
        run_link_chain(params, 3)
        LinkChainParams(geometry=SiGeometry(1.0), hammerstein_memory=1, hammerstein_alignment=0)


class TestReportValidation:
    @pytest.fixture(scope="class")
    def report(self):
        return run_link_chain(LinkChainParams(geometry=SiGeometry(1.0)), 3)

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
