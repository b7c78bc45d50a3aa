"""The chain's elementwise kernels work in place on arrays they allocate
themselves. They must equal the plain formulas below bit for bit, and never
write into the array they are given."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fdiab.rf import AdcModel, NoiseModel, PaModel, adc_quantize, pa_apply, thermal_noise
from fdiab.sic import _branch_signals
from fdiab.util import dbm_to_watt


def reference_pa(x, pa):
    p = pa.rapp_smoothness
    driven = pa.gain_lin * x
    env = np.abs(driven) / pa.saturation_amplitude
    return driven / (1.0 + env ** (2.0 * p)) ** (1.0 / (2.0 * p))


def reference_adc(x, adc, scale=None):
    if scale is None:
        rms = np.sqrt(np.mean(np.abs(x) ** 2))
        if rms == 0.0:
            return np.zeros_like(x), 1.0
        scale = float(adc.full_scale_amplitude * 10.0 ** (-adc.agc_backoff_db / 20.0) / rms)
    step = adc.step
    top = adc.full_scale_amplitude - step / 2.0

    def rail(v):
        return np.clip(step * (np.floor(v / step) + 0.5), -top, top)

    u = x * scale
    return (rail(u.real) + 1j * rail(u.imag)) / scale, scale


def reference_noise(n_samples, noise, rng):
    sigma2 = dbm_to_watt(noise.floor_dbm)
    return np.sqrt(sigma2 / 2.0) * (
        rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
    )


def reference_branches(x, orders):
    return np.stack([x * np.abs(x) ** (p - 1) for p in orders])


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(bits(got), bits(want))


# Samples from deep in the linear region to far past saturation, zeros and
# signed zeros included.
samples = st.builds(
    lambda values, exponent: np.asarray(values, dtype=complex) * 10.0**exponent,
    st.lists(
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=64,
    ),
    st.integers(-6, 1),
)


@settings(max_examples=60, deadline=None)
@given(
    x=samples,
    gain_db=st.floats(0.0, 30.0),
    p1db_dbm=st.floats(20.0, 50.0),
    smoothness=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
def test_pa_apply_matches_formula(x, gain_db, p1db_dbm, smoothness):
    pa = PaModel(gain_db=gain_db, p1db_dbm=p1db_dbm, rapp_smoothness=smoothness)
    given_x = x.copy()
    assert_same_bits(pa_apply(x, pa), reference_pa(given_x, pa))
    assert_same_bits(x, given_x)


@settings(max_examples=60, deadline=None)
@given(
    x=samples,
    bits_=st.integers(1, 16),
    backoff_db=st.floats(0.0, 30.0),
    scale=st.one_of(st.none(), st.floats(1e-3, 1e6)),
)
def test_adc_quantize_matches_formula(x, bits_, backoff_db, scale):
    adc = AdcModel(bits=bits_, agc_backoff_db=backoff_db)
    given_x = x.copy()
    got, got_scale = adc_quantize(x, adc, scale=scale)
    want, want_scale = reference_adc(given_x, adc, scale=scale)
    assert got_scale == want_scale
    assert_same_bits(got, want)
    assert_same_bits(x, given_x)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    bandwidth_hz=st.floats(1e3, 1e9),
    noise_figure_db=st.floats(0.0, 10.0),
)
def test_thermal_noise_matches_formula(n, seed, bandwidth_hz, noise_figure_db):
    noise = NoiseModel(bandwidth_hz, noise_figure_db)
    got = thermal_noise(n, noise, np.random.default_rng(seed))
    assert_same_bits(got, reference_noise(n, noise, np.random.default_rng(seed)))


@settings(max_examples=60, deadline=None)
@given(x=samples, orders=st.sampled_from([(1,), (1, 3), (3, 5), (1, 3, 5)]))
def test_branch_signals_match_formula(x, orders):
    given_x = x.copy()
    psi = _branch_signals(x, orders)
    assert_same_bits(psi, reference_branches(given_x, orders))
    assert_same_bits(x, given_x)
