import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdiab.geometry import (
    AntennaPattern,
    ReflectorConfig,
    SiGeometry,
    angle_between_deg,
    antenna_gain_dbi,
    direct_si_taps,
    fspl_db,
    rx_dbm,
    si_channel,
    total_gain_db,
)
from fdiab.util import SPEED_OF_LIGHT, FieldError

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


reflector_configs = st.integers(0, 8).flatmap(
    lambda lo: st.builds(
        ReflectorConfig,
        min_taps=st.just(lo),
        max_taps=st.integers(lo, 12),
        # Widths far above a delay's last bit, so that no two draws round together.
        delay_offset_range_s=st.tuples(st.floats(1e-12, 1e-8), st.floats(1e-12, 1e-8)).map(
            lambda t: (t[0], t[0] + t[1])
        ),
        rel_power_range_db=st.tuples(st.floats(0.0, 60.0), st.floats(0.0, 60.0)).map(
            lambda t: tuple(sorted(t))
        ),
    )
)
directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3)


def channel(geom, cfg=None, rng=None):
    """The SI channel of geom's one direct tap at 28 GHz, with PAT at both ends."""
    (tap,) = direct_si_taps(geom, PAT, PAT, 28e9)
    return si_channel(tap, cfg, rng)


class TestSiChannelOutput:
    @settings(max_examples=200, deadline=None)
    @given(
        d=st.floats(0.01, 10.0),
        tx=directions,
        rx=directions,
        cfg=reflector_configs,
        seed=st.integers(0, 2**32),
    )
    def test_invariants(self, d, tx, rx, cfg, seed):
        geom = SiGeometry(d, tx_orientation=tx, rx_orientation=rx)
        delays, gains = channel(geom, cfg, np.random.default_rng(seed))
        assert delays.shape == gains.shape
        assert 1 + cfg.min_taps <= len(delays) <= 1 + cfg.max_taps
        direct = d / SPEED_OF_LIGHT
        assert delays[0] == direct  # the direct tap comes first
        assert np.all(np.diff(delays) > 0)
        lo, hi = cfg.delay_offset_range_s
        assert np.all((direct + lo <= delays[1:]) & (delays[1:] <= direct + hi))
        assert np.sum(np.abs(gains) ** 2) > 0.0
        assert math.isfinite(total_gain_db(gains))

    @settings(max_examples=50, deadline=None)
    @given(d=st.floats(0.01, 10.0), seed=st.integers(0, 2**32))
    def test_freq_response_is_the_tap_sum(self, d, seed):
        # The chain's response exp(-j 2 pi outer(f, delays)) @ gains against
        # sum_i g_i exp(-j 2 pi f tau_i), summed tap by tap.
        f = np.fft.fftfreq(64, d=1.0 / 122.88e6)
        cfg = ReflectorConfig(min_taps=1)
        delays, gains = channel(SiGeometry(d), cfg, np.random.default_rng(seed))
        h = np.exp(-2j * np.pi * np.outer(f, delays)) @ gains
        expect = [sum(g * np.exp(-2j * np.pi * fk * t) for t, g in zip(delays, gains)) for fk in f]
        np.testing.assert_allclose(h, expect, rtol=0.0, atol=1e-12 * np.sum(np.abs(gains)))
        # A lone direct tap is a pure delay: |h| = |g| at every f.
        delays, gains = channel(SiGeometry(d))
        h = np.exp(-2j * np.pi * np.outer(f, delays)) @ gains
        np.testing.assert_allclose(h, gains[0] * np.exp(-2j * np.pi * f * delays[0]), rtol=1e-12)
        np.testing.assert_allclose(np.abs(h), np.abs(gains[0]), rtol=1e-12)


    def test_what_the_taps_cannot_hold_is_rejected(self):
        # Reflections ahead of the direct tap, or at one delay, and a channel
        # whose gain underflows to no power at all.
        for bad in ((5e-9, 5e-9), (5e-9, 1e-9), (0.0, 1e-9)):
            with pytest.raises(FieldError, match=r"^delay_offset_range_s: .*0 < lo < hi"):
                ReflectorConfig(delay_offset_range_s=bad)
        deaf = AntennaPattern(beamwidth_3db_deg=0.01, sidelobe_floor_dbi=-10000.0)
        with pytest.raises(FieldError, match="^pattern: .*carries no power"):
            direct_si_taps(SiGeometry(1.0), deaf, deaf, 28e9)


def direct_tap_gain_db(gains):
    return 20.0 * np.log10(np.abs(gains[0]))


class TestSiChannel:
    def test_boresight_aligned_suppression(self):
        # DU looks straight down the mast at the MT and vice versa.
        geom = SiGeometry(1.0, tx_orientation=(0, 0, -1), rx_orientation=(0, 0, 1))
        _, gains = channel(geom)
        assert len(gains) == 1
        assert -direct_tap_gain_db(gains) == pytest.approx(61.3907 - 40.0, abs=5e-4)

    def test_sidelobe_pointing_suppression(self):
        geom = SiGeometry(1.0)  # default horizon pointing, 90 deg off the mast
        _, gains = channel(geom)
        assert -direct_tap_gain_db(gains) == pytest.approx(61.3907 + 20.0, abs=5e-4)

    def test_direct_tap_delay(self):
        geom = SiGeometry(0.1)
        delays, _ = channel(geom)
        assert delays[0] == pytest.approx(0.1 / SPEED_OF_LIGHT, rel=1e-12)

    def test_deterministic_per_seed(self):
        geom = SiGeometry(1.0)
        a = channel(geom, ReflectorConfig(), np.random.default_rng(42))
        b = channel(geom, ReflectorConfig(), np.random.default_rng(42))
        assert all(map(np.array_equal, a, b))  # bit-identical taps
        c = channel(geom, ReflectorConfig(), np.random.default_rng(43))
        assert not all(map(np.array_equal, a, c))

    def test_suppression_monotone_in_separation(self):
        seps = [0.05, 0.1, 0.5, 1.0, 2.0, 5.0]
        cirs = [
            channel(SiGeometry(d), ReflectorConfig(), np.random.default_rng(7))
            for d in seps
        ]
        sup = [-direct_tap_gain_db(gains) for _, gains in cirs]
        assert np.all(np.diff(sup) > 0)

    def test_reflector_statistics(self):
        cfg = ReflectorConfig(min_taps=1)
        found_multi = False
        for seed in range(20):
            rng = np.random.default_rng(seed)
            delays, gains = channel(SiGeometry(1.0), cfg, rng)
            direct_delay, direct_gain = delays[0], gains[0]
            assert 1 <= len(delays) - 1 <= cfg.max_taps
            assert np.all(np.diff(delays) > 0)
            for t, g in zip(delays[1:], gains[1:]):
                found_multi = True
                assert direct_delay + 1e-9 <= t <= direct_delay + 20e-9
                rel_db = 20 * np.log10(abs(direct_gain) / abs(g))
                assert 15.0 - 1e-9 <= rel_db <= 30.0 + 1e-9
        assert found_multi

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SiGeometry(0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("antenna_separation_m", float("nan")),
            ("antenna_separation_m", float("inf")),
            ("antenna_separation_m", float("-inf")),
            ("tx_orientation", (float("nan"), 0.0, 0.0)),
            ("rx_orientation", (1.0, float("inf"), 0.0)),
            ("tx_orientation", ((1.0, 0.0, 0.0), (0.0, float("nan"), 1.0))),
        ],
    )
    def test_non_finite_geometry_rejected_by_name(self, field, value):
        with pytest.raises(FieldError, match=f"^{field}: must be"):
            SiGeometry(**{"antenna_separation_m": 1.0, field: value})


def per_pair_si_channel(d, tx_dir, rx_dir, tx_pat, rx_pat, f, cfg, rng):
    """The SI channel of one (DU, MT) orientation pair, written out as the
    model states it: off-boresight angles toward the other antenna from
    component-wise dot products in Python floats, amplitude -Friis + tx gain
    + rx gain in that order through Python's pow, and then the
    reflections' count, delays, powers and phases drawn from rng."""

    def off_deg(u, axis):
        u0, u1, u2 = (float(c) for c in u)
        a0, a1, a2 = axis
        norms = math.sqrt(u0 * u0 + u1 * u1 + u2 * u2) * math.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
        cos = min(max((u0 * a0 + u1 * a1 + u2 * a2) / norms, -1.0), 1.0)
        return float(np.degrees(np.arccos(cos)))

    def gain_dbi(pat, theta):
        x = abs(theta) / pat.beamwidth_3db_deg
        return max(-12.0 * (x * x) + pat.boresight_gain_dbi, pat.sidelobe_floor_dbi)

    delay = d / SPEED_OF_LIGHT
    amp_db = (
        -fspl_db(d, f)
        + gain_dbi(tx_pat, off_deg(tx_dir, (0.0, 0.0, -1.0)))
        + gain_dbi(rx_pat, off_deg(rx_dir, (0.0, 0.0, 1.0)))
    )
    amp = 10.0 ** (amp_db / 20.0)
    delays, gains = [delay], [amp * np.exp(-2j * np.pi * f * delay)]
    if cfg is not None:
        k = int(rng.integers(cfg.min_taps, cfg.max_taps + 1))
        if k > 0:
            delays.extend(np.sort(delay + rng.uniform(*cfg.delay_offset_range_s, size=k)))
            rel_db = rng.uniform(*cfg.rel_power_range_db, size=k)
            phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
            gains.extend(amp * 10.0 ** (-rel_db / 20.0) * np.exp(1j * phases))
    return np.array(delays), np.array(gains)


# Narrow and wide mainlobes; the wide ones leave most offsets unclamped.
node_patterns = st.sampled_from(
    [PAT, AntennaPattern(19.86, 13.4), AntennaPattern(15.0, 170.0, -60.0),
     AntennaPattern(8.0, 120.0, -20.0)]
)


class TestNodePass:
    """A node's SI channels as node_si_taps builds them: one direct_si_taps
    pass over every DU orientation, then one si_channel call per beam in
    order on the node's one stream."""

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.floats(0.01, 10.0),
        tx_dirs=st.lists(directions, min_size=1, max_size=16),
        rx_dir=directions,
        rx_per_beam=st.booleans(),
        pats=st.tuples(node_patterns, node_patterns),
        f=st.sampled_from([3.5e9, 28e9]) | st.floats(1e9, 100e9),
        cfg=st.sampled_from(
            [None, ReflectorConfig(max_taps=0), ReflectorConfig(min_taps=6, max_taps=6),
             ReflectorConfig(min_taps=9, max_taps=12)]
        ),
        seed=st.integers(0, 2**32),
    )
    # A 170-degree mainlobe at offsets where it is not clamped.
    @example(
        d=1.0, tx_dirs=[(1.0, 0.0, -0.3), (0.2, 0.1, -1.0), (1.0, 0.0, 0.0)],
        rx_dir=(1.0, 0.0, 0.5), rx_per_beam=False,
        pats=(AntennaPattern(15.0, 170.0, -60.0),) * 2, f=28e9,
        cfg=ReflectorConfig(min_taps=9, max_taps=12), seed=7,
    )
    def test_beams_match_the_per_pair_formula(
        self, d, tx_dirs, rx_dir, rx_per_beam, pats, f, cfg, seed
    ):
        rx_dirs = [tuple(-c if i % 2 else c for c in rx_dir) for i in range(len(tx_dirs))]
        rx = np.array(rx_dirs) if rx_per_beam else rx_dir
        geom = SiGeometry(d, np.array(tx_dirs), rx)
        rng = np.random.default_rng(seed)
        got = [si_channel(tap, cfg, rng) for tap in direct_si_taps(geom, *pats, f)]
        assert len(got) == len(tx_dirs)
        # The oracle reads one stream beam after beam: beam b's draws follow
        # beam b - 1's.
        oracle_rng = np.random.default_rng(seed)
        for b, tx_dir in enumerate(tx_dirs):
            rx_b = rx_dirs[b] if rx_per_beam else rx_dir
            want = per_pair_si_channel(d, tx_dir, rx_b, *pats, f, cfg, oracle_rng)
            for got_part, want_part in zip(got[b], want):
                assert got_part.dtype == want_part.dtype
                assert np.array_equal(got_part.view(np.uint64), want_part.view(np.uint64)), b
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_rejections_name_their_fields(self):
        (tap,) = direct_si_taps(SiGeometry(1.0), PAT, PAT, 28e9)
        with pytest.raises(ValueError, match=r"\brng\b"):
            si_channel(tap, ReflectorConfig())
        # One deaf row of several fails the pass at "pattern".
        wide = AntennaPattern(20.0, 1.0, -10000.0)
        rows = np.array([(0.0, 0.0, -1.0), (1.0, 0.0, 0.0)])
        with pytest.raises(FieldError, match="^pattern: gives the direct SI path .* no power"):
            direct_si_taps(SiGeometry(1.0, rows, (0.0, 0.0, 1.0)), wide, wide, 28e9)
        one_row = SiGeometry(1.0, rows[:1], (0.0, 0.0, 1.0))
        assert len(direct_si_taps(one_row, wide, wide, 28e9)) == 1


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
patterns = st.sampled_from([PAT, AntennaPattern(15.0, 150.0, -20.0)])


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
