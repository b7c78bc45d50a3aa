import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdiab.geometry import (
    AntennaPattern,
    ChannelImpulseResponse,
    ReflectorConfig,
    SiGeometry,
    angle_between_deg,
    antenna_gain_dbi,
    fspl_db,
    rx_dbm,
    si_channel,
)
from fdiab.util import SPEED_OF_LIGHT

F28 = 28e9
PAT = AntennaPattern()  # 20 dBi, 12 deg, floor -10 dBi

# Independent Friis evaluation through the wavelength form.
def friis_oracle(d, f):
    lam = SPEED_OF_LIGHT / f
    return 20.0 * np.log10(4.0 * np.pi * d / lam)


class TestFspl:
    def test_reference_points(self):
        assert fspl_db(1.0, F28) == pytest.approx(friis_oracle(1.0, F28), abs=1e-12)
        assert fspl_db(1.0, F28) == pytest.approx(61.3907, abs=5e-4)
        assert fspl_db(0.1, F28) == pytest.approx(41.3907, abs=5e-4)

    def test_distance_doubling_adds_6db(self):
        assert fspl_db(2.0, F28) - fspl_db(1.0, F28) == pytest.approx(
            20.0 * np.log10(2.0), abs=1e-12
        )

    @pytest.mark.parametrize("d,f", [(0.0, F28), (-1.0, F28), (1.0, 0.0), (1.0, -5.0)])
    def test_rejects_nonpositive(self, d, f):
        with pytest.raises(ValueError):
            fspl_db(d, f)

    def test_vectorized(self):
        out = fspl_db(np.array([1.0, 2.0]), F28)
        assert out.shape == (2,)


class TestAntennaPattern:
    def test_boresight(self):
        assert antenna_gain_dbi(PAT, 0.0) == pytest.approx(20.0, abs=1e-12)

    def test_half_beamwidth_is_3db_down(self):
        assert antenna_gain_dbi(PAT, 6.0) == pytest.approx(17.0, abs=1e-12)

    def test_sidelobe_clamp(self):
        assert antenna_gain_dbi(PAT, 90.0) == -10.0
        assert antenna_gain_dbi(PAT, 180.0) == -10.0

    def test_monotone_until_floor(self):
        offs = np.linspace(0.0, 180.0, 721)
        g = antenna_gain_dbi(PAT, offs)
        assert np.all(np.diff(g) <= 1e-12)

    def test_prototype_pair(self):
        p = AntennaPattern(19.86, 13.4)
        assert antenna_gain_dbi(p, 0.0) == pytest.approx(19.86)
        assert antenna_gain_dbi(p, 13.4 / 2) == pytest.approx(19.86 - 3.0)

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            AntennaPattern(boresight_gain_dbi=-20.0, sidelobe_floor_dbi=-10.0)
        with pytest.raises(ValueError):
            AntennaPattern(beamwidth_3db_deg=0.0)
        with pytest.raises(ValueError):
            AntennaPattern(polarization="X")


class TestChannelImpulseResponse:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ChannelImpulseResponse(taps=(), carrier_freq_hz=F28)
        with pytest.raises(ValueError):
            ChannelImpulseResponse(taps=((2e-9, 1.0), (1e-9, 1.0)), carrier_freq_hz=F28)
        with pytest.raises(ValueError):
            ChannelImpulseResponse(taps=((1e-9, 0.0),), carrier_freq_hz=F28)

    def test_freq_response_single_tap(self):
        cir = ChannelImpulseResponse(taps=((2e-9, 0.5 + 0.0j),), carrier_freq_hz=F28)
        f = np.array([0.0, 1e6])
        h = cir.freq_response(f)
        assert h[0] == pytest.approx(0.5)
        assert np.abs(h[1]) == pytest.approx(0.5)
        assert np.angle(h[1]) == pytest.approx(-2 * np.pi * 1e6 * 2e-9)


def direct_tap_gain_db(cir):
    return 20.0 * np.log10(np.abs(cir.taps[0][1]))


class TestSiChannel:
    def test_boresight_aligned_suppression(self):
        # DU looks straight down the mast at the MT and vice versa.
        geom = SiGeometry(1.0, tx_orientation=(0, 0, -1), rx_orientation=(0, 0, 1))
        cir = si_channel(geom, PAT, PAT, None, seed=0)
        assert len(cir.taps) == 1
        assert -direct_tap_gain_db(cir) == pytest.approx(61.3907 - 40.0, abs=5e-4)

    def test_sidelobe_pointing_suppression(self):
        geom = SiGeometry(1.0)  # default horizon pointing, 90 deg off the mast
        cir = si_channel(geom, PAT, PAT, None, seed=0)
        assert -direct_tap_gain_db(cir) == pytest.approx(61.3907 + 20.0, abs=5e-4)

    def test_direct_tap_delay(self):
        geom = SiGeometry(0.1)
        cir = si_channel(geom, PAT, PAT, None, seed=3)
        assert cir.taps[0][0] == pytest.approx(0.1 / SPEED_OF_LIGHT, rel=1e-12)

    def test_deterministic_per_seed(self):
        geom = SiGeometry(1.0)
        a = si_channel(geom, PAT, PAT, ReflectorConfig(), seed=42)
        b = si_channel(geom, PAT, PAT, ReflectorConfig(), seed=42)
        assert a == b  # bit-identical tap lists
        c = si_channel(geom, PAT, PAT, ReflectorConfig(), seed=43)
        assert a != c

    def test_cross_pol_adds_exactly(self):
        base = si_channel(SiGeometry(1.0), PAT, PAT, None, seed=0)
        iso = si_channel(
            SiGeometry(1.0, cross_pol_isolation_db=17.0), PAT, PAT, None, seed=0
        )
        delta = direct_tap_gain_db(base) - direct_tap_gain_db(iso)
        assert delta == pytest.approx(17.0, abs=1e-9)

    def test_suppression_monotone_in_separation(self):
        seps = [0.05, 0.1, 0.5, 1.0, 2.0, 5.0]
        sup = [
            -direct_tap_gain_db(si_channel(SiGeometry(d), PAT, PAT, ReflectorConfig(), seed=7))
            for d in seps
        ]
        assert np.all(np.diff(sup) > 0)

    def test_reflector_statistics(self):
        cfg = ReflectorConfig(min_taps=1)
        found_multi = False
        for seed in range(20):
            cir = si_channel(SiGeometry(1.0), PAT, PAT, cfg, seed=seed)
            direct_delay, direct_gain = cir.taps[0]
            assert 1 <= len(cir.taps) - 1 <= cfg.max_taps
            delays = cir.delays_s
            assert np.all(np.diff(delays) > 0)
            for t, g in cir.taps[1:]:
                found_multi = True
                assert direct_delay + 1e-9 <= t <= direct_delay + 20e-9
                rel_db = 20 * np.log10(abs(direct_gain) / abs(g))
                assert 15.0 - 1e-9 <= rel_db <= 30.0 + 1e-9
        assert found_multi

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SiGeometry(0.0)
        with pytest.raises(ValueError):
            SiGeometry(1.0, cross_pol_isolation_db=-1.0)


def per_pair_rx_dbm(tx_pos, tx_power_dbm, pat, beam_dir, rx_pos, rx_gain_dbi, shadow_db):
    """rx_dbm for one (beam, receiver) pair in Python floats, each dot product
    summed component by component."""
    lx, ly, lz = (float(r) - float(t) for r, t in zip(rx_pos, tx_pos))
    dx, dy, dz = (float(c) for c in beam_dir)
    dist = math.sqrt(lx * lx + ly * ly + lz * lz)
    dnorm = math.sqrt(dx * dx + dy * dy + dz * dz)
    cosang = min(max((dx * lx + dy * ly + dz * lz) / (dnorm * dist), -1.0), 1.0)
    gain = antenna_gain_dbi(pat, np.degrees(np.arccos(cosang)))
    return tx_power_dbm + gain + rx_gain_dbi - fspl_db(dist, F28) - shadow_db


coord = st.floats(-500.0, 500.0, allow_nan=False, allow_infinity=False)
vec3 = st.tuples(coord, coord, coord)


class TestRxDbm:
    def test_boresight_100m(self):
        rx = rx_dbm((0, 0, 0), 43.0, PAT, (1, 0, 0), (100.0, 0, 0), F28, 20.0, 0.0)
        assert rx == pytest.approx(43 + 40 - friis_oracle(100.0, F28), abs=1e-9)
        assert rx == pytest.approx(-18.39, abs=5e-3)

    def test_coincident_positions_raise_through_fspl(self):
        with pytest.raises(ValueError, match="fspl_db requires distance_m > 0"):
            rx_dbm((1, 2, 3), 43.0, PAT, (1, 0, 0), [(5, 0, 0), (1, 2, 3)], F28, 0.0, 0.0)

    def test_zero_beam_direction_rejected(self):
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])[:, np.newaxis]
        with pytest.raises(ValueError, match="direction vectors must be nonzero"):
            rx_dbm((0, 0, 0), 43.0, PAT, dirs, [(100.0, 0, 0), (0, 50.0, 0)], F28, 0.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        tx=vec3,
        dirs=st.lists(vec3.filter(lambda d: math.hypot(*d) > 1e-3), min_size=16, max_size=16),
        rxs=st.lists(vec3, min_size=1, max_size=6),
        power=st.floats(-10.0, 50.0),
        rx_gain=st.floats(-5.0, 25.0),
        shadow=st.floats(-12.0, 12.0),
    )
    def test_beam_broadcast_matches_per_pair_formula(self, tx, dirs, rxs, power, rx_gain, shadow):
        # Non-integer inputs, where BLAS ddot and the component-wise sum often
        # round differently: the broadcast must follow the component-wise rule.
        rxs = [r for r in rxs if math.dist(r, tx) > 1e-3] or [(tx[0] + 1.5, tx[1], tx[2])]
        shadows = shadow * np.arange(1, len(rxs) + 1) / len(rxs)
        got = rx_dbm(tx, power, PAT, np.array(dirs)[:, np.newaxis], rxs, F28, rx_gain, shadows)
        assert got.shape == (16, len(rxs))
        for b, d in enumerate(dirs):
            for u, r in enumerate(rxs):
                want = per_pair_rx_dbm(tx, power, PAT, d, r, rx_gain, float(shadows[u]))
                assert got[b, u] == want, (b, u)


def bit_patterns(values):
    return np.asarray(values, dtype=float).view(np.uint64)


direction = vec3.filter(lambda d: math.hypot(*d) > 1e-3)
# Wide enough that random angles land on the quadratic mainlobe too.
patterns = st.sampled_from([PAT, AntennaPattern(15.0, 150.0, -20.0, "H")])


class TestArrayFormsMatchScalarEvaluation:
    """The in-place array passes give, bit for bit, what each function gives
    for one element at a time."""

    def check(self, pat, beams, rxs, tx, power, rx_gain, shadows, pairs):
        los = rxs - np.asarray(tx, float)  # nonzero: receivers sit off the transmitter
        angles = angle_between_deg(beams, los)
        gains = antenna_gain_dbi(pat, angles)
        rx = rx_dbm(tx, power, pat, beams, rxs, F28, rx_gain, shadows)
        for idx, b, r in pairs:
            u = beams[b].ravel()
            assert bit_patterns(angles[idx]) == bit_patterns(angle_between_deg(u, los[r]))
            one_gain = antenna_gain_dbi(pat, float(angles[idx]))
            assert bit_patterns(gains[idx]) == bit_patterns(one_gain)
            one = rx_dbm(tx, power, pat, u, rxs[r], F28, rx_gain, float(shadows[r]))
            assert isinstance(one, float)
            assert bit_patterns(rx[idx]) == bit_patterns(one), idx

    @settings(max_examples=60, deadline=None)
    @given(
        pat=patterns,
        beams=st.lists(direction, min_size=16, max_size=16),
        rxs=st.lists(vec3, min_size=1, max_size=5),
        tx=vec3,
        power=st.floats(-10.0, 50.0),
        rx_gain=st.floats(-5.0, 25.0),
        shadow=st.floats(-12.0, 12.0),
    )
    def test_beam_grid(self, pat, beams, rxs, tx, power, rx_gain, shadow):
        rxs = np.array([r for r in rxs if math.dist(r, tx) > 1e-3] or [(tx[0] + 2.5, tx[1], tx[2])])
        beams = np.array(beams)[:, np.newaxis]  # (16, 1, 3) against (n, 3)
        shadows = shadow * np.linspace(-1.0, 1.0, len(rxs))
        pairs = [((b, r), b, r) for b in range(16) for r in range(len(rxs))]
        self.check(pat, beams, rxs, tx, power, rx_gain, shadows, pairs)

    @settings(max_examples=60, deadline=None)
    @given(
        pat=patterns,
        rows=st.lists(st.tuples(direction, vec3), min_size=1, max_size=12),
        tx=vec3,
        power=st.floats(-10.0, 50.0),
        shadow=st.floats(-12.0, 12.0),
    )
    def test_row_wise(self, pat, rows, tx, power, shadow):
        rows = [(d, r) for d, r in rows if math.dist(r, tx) > 1e-3]
        rows = rows or [((1, 0, 0), (tx[0] + 2.5, tx[1], tx[2]))]
        beams = np.array([d for d, _ in rows])  # (n, 3) against (n, 3)
        rxs = np.array([r for _, r in rows])
        shadows = shadow * np.linspace(-1.0, 1.0, len(rows))
        self.check(pat, beams, rxs, tx, power, 0.0, shadows, [(i, i, i) for i in range(len(rows))])

    @settings(max_examples=60, deadline=None)
    @given(pat=patterns, offsets=st.lists(st.floats(-360.0, 360.0), min_size=1, max_size=20))
    # Mainlobe offsets whose gain differs in the last bit if the scalar path
    # squares through libm pow(x, 2) instead of x * x.
    @example(pat=PAT, offsets=[11.8801144, -7.1501263, 2.0])
    def test_gain_of_offsets(self, pat, offsets):
        gains = antenna_gain_dbi(pat, np.array(offsets))
        scalar = [antenna_gain_dbi(pat, o) for o in offsets]
        assert all(isinstance(g, float) for g in scalar)
        assert np.array_equal(bit_patterns(gains), bit_patterns(scalar))
