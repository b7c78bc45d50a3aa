import numpy as np
import pytest

from fdiab.rf import (
    AdcModel,
    NoiseModel,
    PaModel,
    adc_quantize,
    fits_gray_zone,
    pa_apply,
    thermal_noise,
)
from fdiab.util import FieldError, dbm_to_watt, mean_power_dbm, substream

PA = PaModel()  # 20 dB gain, 43 dBm P1dB, Rapp p=2


def cw(power_dbm, n=4096, f0=0.11):
    amp = np.sqrt(dbm_to_watt(power_dbm))
    return amp * np.exp(2j * np.pi * f0 * np.arange(n))


class TestPa:
    def test_linear_region_gain(self):
        x = cw(PA.input_p1db_dbm - 30.0)
        gain = mean_power_dbm(pa_apply(x, PA)) - mean_power_dbm(x)
        assert gain == pytest.approx(20.0, abs=0.01)

    def test_p1db_definition(self):
        x = cw(PA.input_p1db_dbm)
        out = mean_power_dbm(pa_apply(x, PA))
        assert out == pytest.approx(PA.input_p1db_dbm + 19.0, abs=0.01)
        assert out == pytest.approx(PA.p1db_dbm, abs=0.01)

    def test_odd_symmetry(self):
        rng = substream(1, "pa")
        x = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        assert np.allclose(pa_apply(-x, PA), -pa_apply(x, PA), atol=0)

    def test_monotone_am_am(self):
        amps = np.linspace(0.0, 100.0, 2000)
        out = np.abs(pa_apply(amps.astype(complex), PA))
        assert np.all(np.diff(out) >= 0)

    def test_saturation_amplitude(self):
        hard = pa_apply(np.array([1e6 + 0j]), PA)
        assert np.abs(hard[0]) == pytest.approx(PA.saturation_amplitude, rel=1e-6)
        assert PA.vsat_dbm > PA.p1db_dbm

    def test_two_tone_im3(self):
        # Rapp with p=2 has no cubic Taylor term: the 2f1-f2 product is
        # produced by the fifth-order term, so its small-signal slope is 5:1,
        # flattening toward compression. Measured drop for a 10 dB backoff
        # from the compression point is ~34 dB (not the classic 30 dB).
        n = 16384
        k1, k2 = 300, 331
        t = np.arange(n)

        def im3_db(backoff_db):
            amp = np.sqrt(dbm_to_watt(PA.input_p1db_dbm - backoff_db))
            x = amp * (np.exp(2j * np.pi * k1 * t / n) + np.exp(2j * np.pi * k2 * t / n))
            spec = np.fft.fft(pa_apply(x, PA)) / n
            return 20 * np.log10(np.abs(spec[2 * k1 - k2]))

        tone_db = 20 * np.log10(
            np.abs(np.fft.fft(pa_apply(cw(PA.input_p1db_dbm, n, 300 / n), PA))[300] / n)
        )
        assert im3_db(0.0) > tone_db - 30.0  # intermod clearly present near compression
        assert im3_db(0.0) - im3_db(10.0) == pytest.approx(33.9, abs=3.0)


class TestAdc:
    def test_full_scale_sine_sqnr(self):
        adc = AdcModel(bits=14, agc_backoff_db=0.0)
        n = 1 << 16
        x = np.exp(2j * np.pi * 12345 * np.arange(n) / n)
        y, _ = adc_quantize(x, adc)
        sqnr = 10 * np.log10(np.mean(np.abs(x) ** 2) / np.mean(np.abs(y - x) ** 2))
        assert sqnr == pytest.approx(6.02 * 14 + 1.76, abs=0.3)

    def test_one_bit_rails(self):
        adc = AdcModel(bits=1, agc_backoff_db=0.0)
        x = np.array([0.5 + 0.25j, -0.1 - 0.7j, 0.3 - 0.3j])
        y, scale = adc_quantize(x, adc)
        rails = np.abs((y * scale).view(float))
        assert np.allclose(rails, adc.full_scale_amplitude / 2, rtol=1e-12)

    def test_idempotent_with_reused_scale(self):
        adc = AdcModel()
        rng = substream(2, "adc")
        x = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
        y, scale = adc_quantize(x, adc)
        z, _ = adc_quantize(y, adc, scale=scale)
        assert np.array_equal(y, z)

    @pytest.mark.parametrize("louder_db", [None, 0.0, 12.0], ids=["agc", "agc-scale", "clipping"])
    def test_rescale_is_the_division_by_the_scale_bit_for_bit(self, louder_db):
        """The rails come back in input units exactly as u /= scale puts them,
        with the AGC's own scale or one given (louder_db above it, clipping)."""
        adc = AdcModel()
        rng = substream(6, "adc-rescale")
        x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        x *= 10 ** rng.uniform(-3, 1, 4096)
        scale = None if louder_db is None else adc_quantize(x, adc)[1] * 10 ** (louder_db / 20)
        y, applied = adc_quantize(x, adc, scale=scale)
        u = x * applied
        rails = u.view(np.float64)
        rails /= adc.step
        np.floor(rails, out=rails)
        rails += 0.5
        rails *= adc.step
        top = adc.full_scale_amplitude - adc.step / 2.0
        np.clip(rails, -top, top, out=rails)
        u /= applied
        assert scale is None or applied == scale
        assert np.array_equal(y.view(np.uint64), u.view(np.uint64))

    def test_zero_input_bypass(self):
        y, scale = adc_quantize(np.zeros(16, dtype=complex), AdcModel())
        assert np.all(y == 0) and scale == 1.0

    def test_agc_places_rms_at_backoff(self):
        adc = AdcModel(agc_backoff_db=15.0)
        rng = substream(3, "agc")
        x = 3.7 * (rng.standard_normal(20000) + 1j * rng.standard_normal(20000))
        _, scale = adc_quantize(x, adc)
        rms = np.sqrt(np.mean(np.abs(x * scale) ** 2))
        assert rms == pytest.approx(adc.full_scale_amplitude * 10 ** (-15 / 20), rel=1e-12)

    def test_quantization_bounds_si_limited_snr(self):
        # With SI 80 dB above the desired signal at the ADC input, even a
        # genie SI subtraction leaves the desired SNR quantization-limited.
        adc = AdcModel(bits=14, agc_backoff_db=0.0)
        rng = substream(4, "gray")
        n = 1 << 15
        si = np.exp(2j * np.pi * 0.2371 * np.arange(n))
        desired = 10 ** (-80 / 20) * np.exp(2j * np.pi * 0.1013 * np.arange(n))
        y, _ = adc_quantize(si + desired, adc)
        resid = y - si  # genie-cancel the SI, quantization error remains
        snr = 10 * np.log10(
            np.mean(np.abs(desired) ** 2) / np.mean(np.abs(resid - desired) ** 2)
        )
        assert snr <= (6.02 * 14 + 1.76) - 80.0 + 1.0

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            AdcModel(bits=0)


class TestNoise:
    def test_reference_floor(self):
        assert NoiseModel(120e6, 3.0).floor_dbm == pytest.approx(-90.21, abs=0.01)

    def test_one_hz(self):
        assert NoiseModel(1.0, 0.0).floor_dbm == pytest.approx(-174.0, abs=1e-12)

    def test_bandwidth_doubling(self):
        delta = NoiseModel(2e6, 3.0).floor_dbm - NoiseModel(1e6, 3.0).floor_dbm
        assert delta == pytest.approx(10 * np.log10(2.0), abs=1e-12)

    def test_noise_declared_once_with_the_scenario(self):
        # NoiseModel's fields are the one declaration of the noise defaults
        # and bounds; the scenario reads them.
        from fdiab.system import default_scenario

        assert default_scenario().noise == NoiseModel()
        with pytest.raises(FieldError, match="^noise_figure_db: must be >= 0, got -5.0"):
            NoiseModel(noise_figure_db=-5.0)
        with pytest.raises(FieldError, match="^bandwidth_hz: must be > 0"):
            NoiseModel(bandwidth_hz=0.0)
        # Above 1 THz, kT no longer gives the noise density.
        assert NoiseModel(bandwidth_hz=1e12).floor_dbm == pytest.approx(-51.0)
        msg = r"^bandwidth_hz: must be > 0, <= 1e12, got 1010000000000\.0"
        with pytest.raises(FieldError, match=msg):
            NoiseModel(bandwidth_hz=1.01e12)

    def test_thermal_noise_power(self):
        model = NoiseModel(120e6, 3.0)
        x = thermal_noise(200_000, model, substream(5, "nz"))
        assert mean_power_dbm(x) == pytest.approx(model.floor_dbm, abs=0.05)

    def test_gray_zone_rule(self):
        floor = -90.21
        assert fits_gray_zone(floor + 72.24, floor)
        assert not fits_gray_zone(floor + 72.25, floor)
        assert fits_gray_zone(floor - 5.0, floor)
