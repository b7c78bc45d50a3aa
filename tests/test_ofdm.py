import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdiab.ofdm import (
    OfdmConfig,
    apply_frequency_response,
    build_frame,
    demodulate,
    estimate_channel_ls,
    join_with_cp,
    modulate,
    qpsk_symbols,
    symbol_rows,
    symbol_spectra,
)
from fdiab.util import substream

CFG = OfdmConfig()


def useful_parts(samples, cfg=CFG):
    return samples.reshape(-1, cfg.symbol_len)[:, cfg.cp_len :]


class TestConfig:
    def test_defaults(self):
        assert CFG.fft_size == 1024
        assert CFG.active_subcarriers == 792
        assert CFG.cp_len == 140
        assert CFG.sample_rate_hz == pytest.approx(122.88e6)
        assert CFG.symbol_len == 1164
        # CP must comfortably cover the modeled SI delay spreads (< 30 ns).
        assert CFG.cp_duration_s == pytest.approx(1.139e-6, rel=1e-3)

    def test_dc_unused_and_centered(self):
        offs = CFG.subcarrier_offsets()
        assert 0 not in offs
        assert offs.min() == -396 and offs.max() == 396
        assert len(offs) == 792

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            OfdmConfig(active_subcarriers=1024)
        with pytest.raises(ValueError):
            OfdmConfig(active_subcarriers=791)
        with pytest.raises(ValueError):
            OfdmConfig(cp_len=1024)

    @pytest.mark.parametrize("spacing", [0.0, -1.0, float("nan"), float("inf")])
    def test_subcarrier_spacing_rejected_by_name(self, spacing):
        with pytest.raises(ValueError, match="^subcarrier_spacing_hz: must be > 0"):
            OfdmConfig(subcarrier_spacing_hz=spacing)


class TestModulateDemodulate:
    def test_zero_grid_gives_zero_samples(self):
        out = modulate(np.zeros((3, 792)), CFG)
        assert np.all(out == 0)

    def test_single_pilot_constant_modulus(self):
        grid = np.zeros((1, 792), dtype=complex)
        grid[0, 100] = 1.0
        samples = useful_parts(modulate(grid, CFG))[0]
        env = np.abs(samples)
        papr_db = 20 * np.log10(env.max() / np.sqrt(np.mean(env**2)))
        assert papr_db == pytest.approx(0.0, abs=1e-10)

    def test_qpsk_round_trip(self):
        rng = substream(1, "rt")
        grid = qpsk_symbols(rng, (5, 792))
        back = demodulate(modulate(grid, CFG), CFG)
        assert np.max(np.abs(back - grid)) < 1e-10

    def test_parseval_normalization(self):
        rng = substream(2, "pw")
        grid = qpsk_symbols(rng, (4, 792)) * 1.7
        samples = modulate(grid, CFG)
        p_time = np.mean(np.abs(useful_parts(samples)) ** 2)
        p_freq = np.mean(np.abs(grid) ** 2)
        assert p_time == pytest.approx(p_freq, rel=1e-10)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            modulate(np.zeros((2, 791)), CFG)
        with pytest.raises(ValueError):
            demodulate(np.zeros(1000, dtype=complex), CFG)

    def test_integer_delay_phase_ramp(self):
        rng = substream(3, "delay")
        grid = qpsk_symbols(rng, (3, 792))
        tx = modulate(grid, CFG)
        tau = 9  # samples, well inside the CP
        rx = np.concatenate([np.zeros(tau, dtype=complex), tx])[: tx.size]
        got = demodulate(rx, CFG)[1:]  # first symbol sees the zero padding
        expect = grid[1:] * np.exp(-2j * np.pi * CFG.subcarrier_offsets() * tau / CFG.fft_size)
        assert np.max(np.abs(got - expect)) < 1e-10
        assert np.max(np.abs(np.abs(got) - np.abs(grid[1:]))) < 1e-10

    def test_delay_spread_beyond_cp_leaves_isi_floor(self):
        # Documented failure mode, not an error: a tap beyond the CP causes
        # inter-symbol interference that one-tap equalization cannot remove.
        ref = qpsk_symbols(substream(4, "isi"), (10, 792))
        tx = modulate(ref, CFG)
        h = np.zeros(CFG.cp_len + 51, dtype=complex)
        h[0], h[-1] = 1.0, 0.5
        rx = np.convolve(tx, h)[: tx.size]
        grid = demodulate(rx, CFG)
        eq = np.sum(grid * ref.conj(), axis=0) / np.sum(np.abs(ref) ** 2, axis=0)
        err = grid - ref * eq
        floor_db = 10 * np.log10(np.mean(np.abs(err) ** 2) / np.mean(np.abs(ref) ** 2))
        assert floor_db > -40.0


    @pytest.mark.parametrize("n_head", [1, 2, 5])
    def test_head_symbols_demodulate_as_in_the_whole_frame(self, n_head):
        # The link chain demodulates only its pilot symbols, the frame's head,
        # and relies on each symbol's spectrum not depending on the others.
        rng = substream(11, "demod-head", n_head)
        x = rng.standard_normal(18 * CFG.symbol_len) + 1j * rng.standard_normal(18 * CFG.symbol_len)
        head = demodulate(x[: n_head * CFG.symbol_len], CFG)
        assert np.array_equal(head, demodulate(x, CFG)[:n_head])


class TestApplyChannel:
    def test_matches_per_subcarrier_response(self):
        rng = substream(5, "chan")
        grid = qpsk_symbols(rng, (4, 792))
        delays, gains = np.array([2e-9, 9e-9]), np.array([0.8 + 0.1j, 0.2 - 0.3j])

        def response(freqs):
            return np.exp(-2j * np.pi * np.outer(freqs, delays)) @ gains

        spectra = symbol_spectra(modulate(grid, CFG), CFG)
        rx = apply_frequency_response(spectra, response(CFG.bin_freqs_hz()), CFG)
        got = demodulate(rx, CFG)
        expect = grid * response(CFG.subcarrier_freqs_hz())
        assert np.max(np.abs(got - expect)) < 1e-10

    def test_bad_response_shape(self):
        with pytest.raises(ValueError):
            apply_frequency_response(np.zeros((1, CFG.fft_size), complex), np.ones(10), CFG)


class TestChannelEstimation:
    def test_noiseless_exact(self):
        rng = substream(6, "est0")
        pilots = qpsk_symbols(rng, (2, 792))
        h = np.exp(-2j * np.pi * CFG.subcarrier_freqs_hz() * 3e-9) * 0.7
        est = estimate_channel_ls(pilots * h, pilots)
        assert np.max(np.abs(est - h)) < 1e-10

    def test_mse_at_20db_snr(self):
        # Per-bin LS error equals the per-bin noise: MSE ~ -20 dB relative.
        rng = substream(7, "est20")
        mses = []
        for _ in range(40):
            pilots = qpsk_symbols(rng, (1, 792))
            h = np.exp(-2j * np.pi * CFG.subcarrier_freqs_hz() * 2e-9)
            noise = 10 ** (-20 / 20) / np.sqrt(2) * (
                rng.standard_normal(pilots.shape) + 1j * rng.standard_normal(pilots.shape)
            )
            est = estimate_channel_ls(pilots * h + noise, pilots)
            mses.append(np.mean(np.abs(est - h) ** 2))
        assert 10 * np.log10(np.mean(mses)) == pytest.approx(-20.0, abs=1.0)

    def test_four_pilot_symbols_average_6db_better(self):
        rng = substream(8, "estavg")

        def mse(n_pilots):
            out = []
            for _ in range(40):
                pilots = qpsk_symbols(rng, (n_pilots, 792))
                h = np.exp(-2j * np.pi * CFG.subcarrier_freqs_hz() * 2e-9)
                noise = 10 ** (-20 / 20) / np.sqrt(2) * (
                    rng.standard_normal(pilots.shape)
                    + 1j * rng.standard_normal(pilots.shape)
                )
                est = estimate_channel_ls(pilots * h + noise, pilots)
                out.append(np.mean(np.abs(est - h) ** 2))
            return 10 * np.log10(np.mean(out))

        assert mse(1) - mse(4) == pytest.approx(6.02, abs=0.5)

    def test_zero_pilot_rejected(self):
        pilots = np.ones((1, 792), dtype=complex)
        pilots[0, 5] = 0.0
        with pytest.raises(ValueError):
            estimate_channel_ls(pilots, pilots)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_channel_ls(np.ones((1, 792)), np.ones((2, 792)))


class TestFrame:
    def test_frame_is_the_modulated_qpsk_grid(self):
        samples = build_frame(CFG, 4, substream(9, "frame"))
        grid = qpsk_symbols(substream(9, "frame"), (4, 792))
        assert np.array_equal(samples, modulate(grid, CFG))
        assert samples.size == 4 * CFG.symbol_len
        assert np.max(np.abs(demodulate(samples, CFG) - grid)) < 1e-10


class TestZeroCp:
    """Without a CP a symbol is its useful part alone."""

    CFG0 = OfdmConfig(fft_size=16, active_subcarriers=12, cp_len=0)

    def test_frame_holds_only_useful_samples(self):
        assert build_frame(self.CFG0, 3, substream(0, "cp0")).shape == (48,)

    def test_frequency_response_keeps_the_length(self):
        x = build_frame(self.CFG0, 3, substream(1, "cp0"))
        h = np.exp(-2j * np.pi * np.arange(16) / 16)
        assert apply_frequency_response(symbol_spectra(x, self.CFG0), h, self.CFG0).shape == (48,)

    def test_round_trip(self):
        grid = qpsk_symbols(substream(2, "cp0"), (3, 12))
        back = demodulate(modulate(grid, self.CFG0), self.CFG0)
        assert np.max(np.abs(back - grid)) < 1e-12


@st.composite
def ofdm_layouts(draw):
    """A numerology with an even active band below the FFT size, CP from 0."""
    fft_size = draw(st.integers(3, 64))
    active = 2 * draw(st.integers(1, (fft_size - 1) // 2))
    return OfdmConfig(fft_size, active, draw(st.integers(0, fft_size - 1)))


@settings(max_examples=60, deadline=None)
@given(
    cfg=ofdm_layouts(),
    n_symbols=st.integers(1, 4),
    lead=st.sampled_from([(), (3,)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_symbol_layout_round_trips(cfg, n_symbols, lead, seed):
    rng = substream(seed, "layout")
    grid = qpsk_symbols(rng, lead + (n_symbols, cfg.active_subcarriers))
    samples = modulate(grid, cfg)
    assert samples.shape == lead + (n_symbols * cfg.symbol_len,)

    rows = symbol_rows(samples, cfg)
    assert rows.shape == lead + (n_symbols, cfg.symbol_len)
    assert np.shares_memory(rows, samples)
    assert np.array_equal(rows[..., : cfg.cp_len], rows[..., cfg.fft_size :])
    with pytest.raises(ValueError, match="^samples: .* not whole"):
        symbol_rows(samples[..., :-1], cfg)

    useful = rng.standard_normal(lead + (n_symbols, cfg.fft_size)) + 0j
    assert np.array_equal(symbol_rows(join_with_cp(useful, cfg), cfg)[..., cfg.cp_len :], useful)

    unit = apply_frequency_response(symbol_spectra(samples, cfg), np.ones(cfg.fft_size), cfg)
    assert unit.shape == samples.shape
    assert np.max(np.abs(unit - samples)) < 1e-12
    assert np.max(np.abs(demodulate(samples, cfg) - grid)) < 1e-10
