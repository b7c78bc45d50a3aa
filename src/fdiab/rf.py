"""RF front-end impairments: PA nonlinearity, ADC quantization, thermal noise.

Complex baseband samples use the 1-ohm convention: mean(|x|^2) is power in
watts, so dBm values follow directly from sample amplitudes.
"""

from dataclasses import dataclass, field

import numpy as np

from .util import bounded, check_bounds, dbm_to_watt, watt_to_dbm

# Effective ADC range above the noise floor within which digital SIC works
# (the gray zone); a given constant for 14-bit resolution, kept configurable
# on AdcModel. The ideal full-scale-sine SQNR 6.02*bits + 1.76 dB is modeled
# physically and the gap is implementation margin.
EFFECTIVE_ADC_RANGE_14BIT_DB = 72.24


@dataclass(frozen=True)
class PaModel:
    """Rapp AM/AM solid-state PA (no AM/PM), parameterized by gain and P1dB.

    The saturation amplitude is derived so that a CW tone at the 1 dB
    compression input comes out exactly 1 dB below linear gain.
    """

    gain_db: float = 20.0
    p1db_dbm: float = 43.0
    rapp_smoothness: float = bounded(2.0, "> 0")
    vsat_dbm: float = field(init=False)

    def __post_init__(self):
        check_bounds(self)
        # (1 + r)^(1/2p) = 10^(1/20) at the compression point.
        r = 10.0 ** (self.rapp_smoothness / 10.0) - 1.0
        a_in_1db = np.sqrt(dbm_to_watt(self.input_p1db_dbm))
        asat = self.gain_lin * a_in_1db / r ** (1.0 / (2.0 * self.rapp_smoothness))
        object.__setattr__(self, "vsat_dbm", float(watt_to_dbm(asat**2)))

    @property
    def gain_lin(self):
        return 10.0 ** (self.gain_db / 20.0)

    @property
    def input_p1db_dbm(self):
        """CW input power at which the output sits 1 dB below linear gain."""
        return self.p1db_dbm - self.gain_db + 1.0

    @property
    def saturation_amplitude(self):
        return np.sqrt(dbm_to_watt(self.vsat_dbm))


def pa_apply(samples, pa):
    """Rapp AM/AM: y = G*x / (1 + (|G*x|/Asat)^(2p))^(1/(2p))."""
    driven = pa.gain_lin * np.asarray(samples, dtype=complex)
    env = np.abs(driven)
    env /= pa.saturation_amplitude
    env **= 2.0 * pa.rapp_smoothness
    env += 1.0
    env **= 1.0 / (2.0 * pa.rapp_smoothness)
    driven /= env
    return driven


@dataclass(frozen=True)
class AdcModel:
    """Mid-rise uniform quantizer with clipping at full scale, per I/Q rail.

    full_scale_dbm is the power of a complex exponential whose rails just
    touch the clip level. The AGC places the input RMS agc_backoff_db below
    that full scale before quantizing.
    """

    bits: int = bounded(14, ">= 1")
    full_scale_dbm: float = 0.0
    agc_backoff_db: float = 15.0
    effective_range_db: float = EFFECTIVE_ADC_RANGE_14BIT_DB

    __post_init__ = check_bounds

    @property
    def full_scale_amplitude(self):
        return np.sqrt(dbm_to_watt(self.full_scale_dbm))

    @property
    def step(self):
        return 2.0 * self.full_scale_amplitude / 2**self.bits


def adc_quantize(samples, adc, scale=None):
    """AGC-scale, quantize I and Q independently, clip, and rescale back.

    Returns (quantized samples in input units, applied scale factor). Pass
    the scale back in to reuse an already-trained AGC setting; re-quantizing
    with the same scale is the identity.
    """
    x = np.asarray(samples, dtype=complex)
    if scale is None:
        rms = np.sqrt(np.mean(np.abs(x) ** 2))
        if rms == 0.0:
            return np.zeros_like(x), 1.0
        scale = float(
            adc.full_scale_amplitude * 10.0 ** (-adc.agc_backoff_db / 20.0) / rms
        )
    step = adc.step
    top = adc.full_scale_amplitude - step / 2.0
    u = x * scale
    rails = u.view(np.float64)  # I and Q interleaved, quantized in place
    rails /= step
    np.floor(rails, out=rails)
    rails += 0.5
    rails *= step
    np.clip(rails, -top, top, out=rails)
    rails *= 1.0 / scale  # u /= scale's bits: numpy's complex / real multiplies by 1 / real
    return u, scale


@dataclass(frozen=True)
class NoiseModel:
    """Thermal noise floor: -174 dBm/Hz plus bandwidth and noise figure."""

    # -174 dBm/Hz is kT at 290 K, valid while hf << kT; a band B wide reaches at
    # least B in frequency, and at 1 THz the quantum correction is 0.36 dB.
    bandwidth_hz: float = bounded(120e6, "> 0, <= 1e12")
    noise_figure_db: float = bounded(3.0, ">= 0, <= 100")

    __post_init__ = check_bounds

    @property
    def floor_dbm(self):
        return -174.0 + 10.0 * np.log10(self.bandwidth_hz) + self.noise_figure_db


def thermal_noise(n_samples, noise, rng):
    """Complex AWGN whose mean power equals the model's noise floor."""
    z = np.empty(n_samples, dtype=complex)
    z.real = rng.standard_normal(n_samples)
    z.imag = rng.standard_normal(n_samples)
    z *= np.sqrt(dbm_to_watt(noise.floor_dbm) / 2.0)
    return z


def fits_gray_zone(si_power_dbm, floor_dbm, effective_range_db=EFFECTIVE_ADC_RANGE_14BIT_DB):
    """Digital-domain admission rule: residual SI entering the ADC must sit
    within the effective ADC range of the noise floor, else the Rx saturates."""
    return si_power_dbm <= floor_dbm + effective_range_db
