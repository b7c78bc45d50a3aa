import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fdiab.geometry import (
    AntennaPattern,
    ReflectorConfig,
    SiGeometry,
    antenna_gain_dbi,
    direct_si_taps,
    fspl_db,
    rx_dbm,
    si_channel,
    total_gain_db,
)
from fdiab.system import (
    ALL_MODES,
    FD_MODES,
    Donor,
    IabNode,
    MCS_EFFICIENCIES_BPS_HZ,
    MCS_THRESHOLDS_DB,
    Mode,
    Scenario,
    UeGrid,
    backhaul_rx_power_dbm,
    capacity_bps,
    cdf,
    codebook_angles,
    default_scenario,
    direction_from_angles,
    dli_power_dbm,
    node_si_taps,
    noise_plus_dbm,
    propagation_residual_si_dbm,
    run_drop,
    schedule_drop,
    ue_throughput,
)
from fdiab.system import _first_max
from fdiab.util import SPEED_OF_LIGHT, FieldError, substream

BW = 120e6


def small_scenario(separation=1.0, **kwargs):
    base = default_scenario()
    nodes = tuple(
        dataclasses.replace(n, antenna_separation_m=separation) for n in base.iab_nodes
    )
    return dataclasses.replace(
        base, iab_nodes=nodes, ue_grid=UeGrid(nx=9, ny=9), **kwargs
    )


def one_ue_grid(pos):
    """A 1x1 grid whose only UE sits at pos."""
    x, y, z = (float(c) for c in pos)
    return UeGrid(nx=1, ny=1, x_range=(x, x), y_range=(y, y), height_m=z)


def per_mode(drop, field, modes=ALL_MODES):
    """{mode value: row of field over ue_id} for a run_drop result over modes."""
    return {Mode(m).value: row for m, row in zip(modes, drop[field])}


def columns_equal(a, b):
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k], equal_nan=a[k].dtype.kind == "f") for k in a
    )


# Plain per-UE formulas, one UE and one (cell, beam) at a time, in Python
# floats with dot products summed component by component: the reference that
# the columnar scheduler and drop must reproduce bit for bit.


def reference_directions(sc, ci):
    cell = sc.cells()[ci]
    return direction_from_angles(*codebook_angles(sc.sector_center_az(cell)))


def tensor_schedule(sc, seed):
    """(serving, beam, access_rx_dbm) from the (cell, beam, UE) tensor of
    every access power and one flat first argmax over (cell, beam): the
    pick that the scheduler's per-cell best beams must reproduce."""
    ues = sc.ue_grid.positions()

    def shadow(ci):
        z = substream(seed, "access-shadow", ci).standard_normal(len(ues))
        return sc.access_shadow_sigma_db * z if sc.access_shadow_sigma_db else 0.0

    rx = np.stack([
        rx_dbm(
            cell.position, cell.tx_power_dbm, cell.pattern, reference_directions(sc, ci)[:, None],
            ues, sc.carrier_freq_hz, 0.0, shadow(ci),
        )
        for ci, cell in enumerate(sc.cells())
    ])
    flat = rx.reshape(rx.shape[0] * rx.shape[1], len(ues))
    pick = np.argmax(flat, axis=0)
    serving, beam = np.divmod(pick, rx.shape[1])
    return serving, beam, flat[pick, np.arange(len(ues))]


def reference_rx_dbm(sc, seed, ci, beam_dir, ue, u):
    cell = sc.cells()[ci]
    shadow = 0.0
    if sc.access_shadow_sigma_db != 0.0:
        z = substream(seed, "access-shadow", ci).standard_normal(u + 1)[u]
        shadow = float(sc.access_shadow_sigma_db * z)
    lx, ly, lz = (float(c) for c in np.asarray(ue) - np.asarray(cell.position))
    dx, dy, dz = (float(c) for c in beam_dir)
    dist = math.sqrt(lx * lx + ly * ly + lz * lz)
    dnorm = math.sqrt(dx * dx + dy * dy + dz * dz)
    cosang = min(max((lx * dx + ly * dy + lz * dz) / (dnorm * dist), -1.0), 1.0)
    gain = antenna_gain_dbi(cell.pattern, np.degrees(np.arccos(cosang)))
    return cell.tx_power_dbm + gain + 0.0 - fspl_db(dist, sc.carrier_freq_hz) - shadow


def reference_lin_sum_dbm(*levels_dbm):
    total = sum(10.0 ** ((v - 30.0) / 10.0) for v in levels_dbm if v != -np.inf)
    return float(10.0 * np.log10(total) + 30.0)


def reference_capacity(sinr_db, sc):
    assert not math.isnan(sinr_db)
    i = int(np.searchsorted(MCS_THRESHOLDS_DB, sinr_db, side="right")) - 1
    return 0.0 if i < 0 else sc.bandwidth_hz * MCS_EFFICIENCIES_BPS_HZ[i]


def reference_residual_dbm(sc, seed, ni, node):
    """Propagation-only residual SI of each of the node's codebook beams, the
    SI model written out per beam: angles from component-wise dot products,
    Python's pow, tap powers summed by np.sum over the tap array. The beams
    read the node's one reflection stream, substream(seed, "si", ni), one
    after another in codebook order, each in its draw order."""
    f = sc.carrier_freq_hz
    d = node.antenna_separation_m
    mt_to_donor = np.asarray(sc.donor.position, float) - np.asarray(node.mt_position(), float)

    def off_boresight_deg(u, axis):
        u0, u1, u2 = (float(c) for c in u)
        a0, a1, a2 = axis
        norms = math.sqrt(u0 * u0 + u1 * u1 + u2 * u2) * math.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
        c = min(max((u0 * a0 + u1 * a1 + u2 * a2) / norms, -1.0), 1.0)
        return float(np.degrees(np.arccos(c)))

    rng = substream(seed, "si", ni)
    refl = sc.reflectors
    out = []
    for beam_dir in reference_directions(sc, ni + 1):
        amp_db = (
            -fspl_db(d, f)
            + antenna_gain_dbi(node.pattern, off_boresight_deg(beam_dir, (0.0, 0.0, -1.0)))
            + antenna_gain_dbi(
                node.pattern,
                off_boresight_deg(mt_to_donor / np.linalg.norm(mt_to_donor), (0.0, 0.0, 1.0)),
            )
        )
        amp = 10.0 ** (amp_db / 20.0)
        gains = [amp * np.exp(-2j * np.pi * f * (d / SPEED_OF_LIGHT))]
        if refl is not None:
            k = int(rng.integers(refl.min_taps, refl.max_taps + 1))
            if k > 0:
                rng.uniform(*refl.delay_offset_range_s, size=k)  # delays carry no power
                rel_db = rng.uniform(*refl.rel_power_range_db, size=k)
                phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
                gains.extend(amp * 10.0 ** (-rel_db / 20.0) * np.exp(1j * phases))
        power = float(np.sum(np.abs(gains) ** 2))
        out.append(node.tx_power_dbm + float(10.0 * np.log10(power)))
    return out


def reference_row(sc, seed, mode, ci, bi, access_rx, ue, u):
    """(access_sinr, backhaul_sinr, dli, throughput) of one UE; None where
    a value does not apply."""
    floor = sc.noise.floor_dbm
    snr = access_rx - floor
    if ci == 0 or mode == Mode.FIBERED:
        return snr, None, None, reference_capacity(snr, sc)
    node = sc.iab_nodes[ci - 1]
    donor_pos = np.asarray(sc.donor.position)
    hop = float(np.linalg.norm(np.asarray(node.mt_position()) - donor_pos))
    backhaul_rx = (
        sc.donor.tx_power_dbm
        + sc.donor.pattern.boresight_gain_dbi
        + node.pattern.boresight_gain_dbi
        - fspl_db(hop, sc.carrier_freq_hz)
    )
    if mode == Mode.HD:
        b_sinr = backhaul_rx - floor
        ca, cb = reference_capacity(snr, sc), reference_capacity(b_sinr, sc)
        thr = (1.0 - sc.guard_overhead) * ca * cb / (ca + cb) if ca > 0.0 and cb > 0.0 else 0.0
        return snr, b_sinr, None, thr
    # The DLI is the donor's access link with its beam held on the MT.
    mt_beam = np.asarray(node.mt_position(), float) - np.asarray(sc.donor.position, float)
    dli = reference_rx_dbm(sc, seed, 0, mt_beam, ue, u)
    prop = reference_residual_dbm(sc, seed, ci - 1, node)[bi]
    residual = {
        Mode.IDEAL_FD: -np.inf,
        Mode.FD_FULL: min(prop, floor + sc.full_sic_margin_db),
        Mode.FD_PROP_ONLY: prop,
    }[mode]
    a_sinr = access_rx - reference_lin_sum_dbm(floor, dli)
    b_sinr = backhaul_rx - reference_lin_sum_dbm(floor, residual)
    thr = min(reference_capacity(a_sinr, sc), reference_capacity(b_sinr, sc))
    return a_sinr, b_sinr, dli, thr


class TestMcs:
    def test_default_table_shape(self):
        assert len(MCS_THRESHOLDS_DB) == 15
        assert MCS_THRESHOLDS_DB[0] == pytest.approx(-6.7)
        assert MCS_THRESHOLDS_DB[-1] == pytest.approx(19.8)
        assert MCS_EFFICIENCIES_BPS_HZ[0] == 0.1523
        assert MCS_EFFICIENCIES_BPS_HZ[-1] == 5.5547

    def test_outage_below_first_threshold(self):
        assert capacity_bps(-6.71, BW) == 0.0

    def test_infinite_sinr_gets_max(self):
        assert capacity_bps(np.inf, BW) == BW * 5.5547

    def test_threshold_is_closed_lower_bound(self):
        t = MCS_THRESHOLDS_DB[3]
        at = capacity_bps(t, BW)
        below = capacity_bps(t - 1e-9, BW)
        assert at == BW * MCS_EFFICIENCIES_BPS_HZ[3]
        assert below == BW * MCS_EFFICIENCIES_BPS_HZ[2]

    def test_array_input_and_nan_rejection(self):
        sinr = np.array([-10.0, MCS_THRESHOLDS_DB[3], np.inf])
        out = capacity_bps(sinr, BW)
        assert out.tolist() == [0.0, BW * MCS_EFFICIENCIES_BPS_HZ[3], BW * 5.5547]
        with pytest.raises(ValueError, match="NaN"):
            capacity_bps(np.array([0.0, np.nan]), BW)

    def test_table_is_increasing_and_one_efficiency_per_threshold(self):
        assert len(MCS_THRESHOLDS_DB) == len(MCS_EFFICIENCIES_BPS_HZ)
        assert np.all(np.diff(MCS_THRESHOLDS_DB) > 0)
        assert np.all(np.diff(MCS_EFFICIENCIES_BPS_HZ) > 0)


class TestCodebook:
    def test_sixteen_equally_spaced_beams(self):
        az, el = codebook_angles(sector_center_az_deg=0.0)
        assert az.shape == el.shape == (16,)
        azs = sorted(set(az.tolist()))
        els = sorted(set(el.tolist()))
        assert len(azs) == 8 and len(els) == 2
        assert np.allclose(np.diff(azs), 15.0)
        assert azs[0] == -52.5 and azs[-1] == 52.5
        assert els == [-22.5, -7.5]
        # el-major, az-minor
        assert np.array_equal(az[:8], az[8:]) and np.all(np.diff(az[:8]) > 0)
        assert np.all(el[:8] == -22.5) and np.all(el[8:] == -7.5)

    @settings(max_examples=30, deadline=None)
    @given(center=st.floats(-720.0, 720.0))
    def test_directions_match_per_beam_unit_vectors(self, center):
        az, el = codebook_angles(sector_center_az_deg=center)
        dirs = direction_from_angles(az, el)
        assert dirs.shape == (16, 3)
        for a_deg, e_deg, d in zip(az.tolist(), el.tolist(), dirs):
            a, e = math.radians(a_deg), math.radians(e_deg)
            ref = np.array([np.cos(e) * np.cos(a), np.cos(e) * np.sin(a), np.sin(e)])
            assert np.array_equal(d, ref)
            assert np.array_equal(direction_from_angles(a_deg, e_deg), ref)

    @settings(max_examples=30, deadline=None)
    @given(center=st.floats(-720.0, 720.0))
    def test_sixteen_beams_for_any_center(self, center):
        az, el = codebook_angles(sector_center_az_deg=center)
        assert az.shape == el.shape == (16,)
        assert len(set(zip(az.tolist(), el.tolist()))) == 16


class TestScheduling:
    def test_boresight_ue_gets_matching_beam(self):
        sc = dataclasses.replace(
            small_scenario(),
            donor=Donor(position=(0.0, 0.0, 100.0), sector_center_az_deg=0.0),
            iab_nodes=(),
            access_shadow_sigma_db=0.0,
        )
        az, el = codebook_angles(0.0)
        # place a UE exactly on the boresight ray of beam (az 7.5, el -7.5)
        (target,) = np.flatnonzero((az == 7.5) & (el == -7.5))
        ue = np.array([0.0, 0.0, 100.0]) + 300.0 * direction_from_angles(7.5, -7.5)
        serving, beam, *_ = schedule_drop(
            dataclasses.replace(sc, ue_grid=one_ue_grid(ue)), 0
        )
        assert (serving[0], beam[0]) == (0, target)

    def test_tie_breaks_to_lowest_indices(self):
        # co-sited identical cells yield bit-identical SNR for every beam;
        # the tie must resolve to the lowest (cell, beam) pair
        donor = Donor(position=(-100.0, 0.0, 50.0), sector_center_az_deg=0.0)
        node = IabNode(position=(-100.0, 0.0, 50.0), sector_center_az_deg=0.0)
        sc = Scenario(
            donor=donor,
            iab_nodes=(node,),
            ue_grid=one_ue_grid((50.0, 0.0, 40.0)),
            access_shadow_sigma_db=0.0,
        )
        serving, beam, rx, *_ = schedule_drop(sc, 0)
        ue = sc.ue_grid.positions()[0]
        per_cell = [
            max(reference_rx_dbm(sc, 0, ci, d, ue, 0) for d in reference_directions(sc, ci))
            for ci in range(2)
        ]
        assert per_cell[0] == per_cell[1] == rx[0]
        assert serving[0] == 0  # cell 1 offers exactly the same SNR but loses the tie

    def test_uniform_power_shift_keeps_decisions(self):
        sc = small_scenario()
        serving, beam, *_ = schedule_drop(sc, 3)
        shifted = dataclasses.replace(
            sc,
            donor=dataclasses.replace(sc.donor, tx_power_dbm=sc.donor.tx_power_dbm + 7.0),
            iab_nodes=tuple(
                dataclasses.replace(n, tx_power_dbm=n.tx_power_dbm + 7.0)
                for n in sc.iab_nodes
            ),
        )
        serving2, beam2, *_ = schedule_drop(shifted, 3)
        assert np.array_equal(serving, serving2)
        assert np.array_equal(beam, beam2)

    def test_vectorized_matches_scalar(self):
        sc = dataclasses.replace(small_scenario(), ue_grid=UeGrid(nx=4, ny=3))
        serving, beam, rx, beam_dirs, shadows, ues = schedule_drop(sc, 9)
        n_cells = len(sc.cells())
        for ci in range(n_cells):
            assert np.array_equal(beam_dirs[ci], reference_directions(sc, ci))
        assert np.array_equal(ues, sc.ue_grid.positions())
        for u in range(ues.shape[0]):
            best = (-np.inf, 0, 0)
            for ci in range(n_cells):
                for bi, d in enumerate(reference_directions(sc, ci)):
                    rxi = reference_rx_dbm(sc, 9, ci, d, ues[u], u)
                    if rxi > best[0]:
                        best = (rxi, ci, bi)
            assert best == (rx[u], serving[u], beam[u])
            for ci in range(n_cells):
                z = substream(9, "access-shadow", ci).standard_normal(u + 1)[u]
                assert shadows[ci, u] == sc.access_shadow_sigma_db * z

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        nx=st.integers(0, 6),
        ny=st.integers(1, 6),
        sites=st.lists(
            st.tuples(st.floats(-300, 300), st.floats(-300, 300), st.floats(10, 150)),
            min_size=1,
            max_size=3,
        ),
        co_sited=st.booleans(),
        beamwidth=st.sampled_from([0.2, 12.0, 90.0]),
        sigma=st.sampled_from([0.0, 4.0]),
    )
    @example(seed=0, nx=4, ny=3, sites=[(-100.0, 0.0, 50.0)], co_sited=True, beamwidth=0.2,
             sigma=0.0)
    def test_matches_the_cell_beam_ue_tensor_argmax(
        self, seed, nx, ny, sites, co_sited, beamwidth, sigma
    ):
        # A node co-sited with the donor and unshadowed ties with it on every
        # beam; a 0.2 degree beam leaves most UEs at the sidelobe floor of all
        # 16 beams of a cell, so its beams tie too.
        pattern = AntennaPattern(beamwidth_3db_deg=beamwidth)
        nodes = [IabNode(position=p, pattern=pattern) for p in sites[1:]]
        if co_sited:
            nodes.insert(0, IabNode(position=sites[0], pattern=pattern))
        sc = Scenario(
            donor=Donor(position=sites[0], pattern=pattern),
            iab_nodes=tuple(nodes),
            ue_grid=UeGrid(nx=nx, ny=ny),
            access_shadow_sigma_db=sigma,
        )
        serving, beam, rx, *_ = schedule_drop(sc, seed)
        want_serving, want_beam, want_rx = tensor_schedule(sc, seed)
        assert np.array_equal(serving, want_serving)
        assert np.array_equal(beam, want_beam)
        assert rx.tobytes() == want_rx.tobytes()

    @pytest.mark.parametrize("case", ["default-101x101", "co-sited-0.2deg-111x111"])
    def test_full_size_grids_match_the_tensor_argmax(self, case):
        # The property above stops at 6 x 6 UEs. The default grid at full size,
        # and a co-sited, unshadowed pair of 0.2 degree cells, in which most UEs
        # tie on every (cell, beam) pair at the sidelobe floor.
        if case.startswith("default"):
            sc = dataclasses.replace(default_scenario(), ue_grid=UeGrid(nx=101, ny=101))
        else:
            pattern = AntennaPattern(beamwidth_3db_deg=0.2)
            site = (-100.0, 0.0, 50.0)
            sc = Scenario(
                donor=Donor(position=site, pattern=pattern),
                iab_nodes=(IabNode(position=site, pattern=pattern),),
                ue_grid=UeGrid(nx=111, ny=111),
                access_shadow_sigma_db=0.0,
            )
        serving, beam, rx, *_ = schedule_drop(sc, 0)
        want_serving, want_beam, want_rx = tensor_schedule(sc, 0)
        assert serving.tobytes() == want_serving.tobytes()
        assert beam.tobytes() == want_beam.tobytes()
        assert rx.tobytes() == want_rx.tobytes()
        if not case.startswith("default"):
            assert (serving == 0).all() and (beam == 0).mean() > 0.9

    @settings(max_examples=200, deadline=None)
    @given(
        table=st.tuples(st.integers(1, 17), st.integers(0, 12)).flatmap(
            lambda shape: arrays(float, shape, elements=st.sampled_from(
                [np.nan, -np.inf, -1.5, -0.0, 0.0, 2.0, np.inf]
            ))
        )
    )
    # A NaN power picks the column's first NaN.
    @example(table=np.array([[1.0, np.nan, 3.0], [np.nan, 2.0, np.nan], [np.nan, np.nan, 4.0]]))
    def test_first_max_is_argmax_with_ties_and_nan(self, table):
        # Few distinct values, so columns tie; NaN counts as the maximum, and
        # -0.0 ties with 0.0, as in np.argmax.
        got = _first_max(table)
        assert got.dtype == np.intp
        assert got.tobytes() == np.argmax(table, axis=0).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 40), extra=st.integers(1, 40))
    def test_shadow_depends_only_on_seed_cell_and_ue(self, seed, n, extra):
        sc = small_scenario()

        def shadows(scenario, n_ue):
            grid = UeGrid(nx=n_ue, ny=1)
            return schedule_drop(dataclasses.replace(scenario, ue_grid=grid), seed)[4]

        base = shadows(sc, n)
        assert base.shape == (3, n)
        assert np.array_equal(shadows(sc, n + extra)[:, :n], base)
        fewer_cells = dataclasses.replace(sc, iab_nodes=sc.iab_nodes[:1])
        assert np.array_equal(shadows(fewer_cells, n), base[:2])

    def test_seed_outside_u64_rejected(self):
        sc = dataclasses.replace(small_scenario(), ue_grid=UeGrid(nx=3, ny=2))
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                run_drop(sc, seed)
        low, high = run_drop(sc, 0), run_drop(sc, 2**64 - 1)
        assert not np.array_equal(low["access_snr_db"], high["access_snr_db"])


class TestPropagationResidual:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        separation=st.floats(0.05, 3.0),
        other_separation=st.floats(0.05, 3.0),
        reflectors=st.sampled_from(
            [
                None,
                ReflectorConfig(max_taps=0),
                ReflectorConfig(min_taps=6, max_taps=6),
                ReflectorConfig(min_taps=9, max_taps=12),
                # Beams of fewer and of more than 8 taps, where np.sum's pairwise
                # blocking changes: a row sum over zero-padded beams rounds differently.
                ReflectorConfig(min_taps=0, max_taps=12),
            ]
        ),
    )
    # Both nodes' padded row sums miss here.
    @example(seed=0, separation=1.0, other_separation=1.0,
             reflectors=ReflectorConfig(min_taps=0, max_taps=12))
    def test_matches_si_channel_per_beam(self, seed, separation, other_separation, reflectors):
        sc = small_scenario(separation, reflectors=reflectors)
        got = []
        for ni, node in enumerate(sc.iab_nodes):
            dirs = reference_directions(sc, ni + 1)
            got.append(propagation_residual_si_dbm(sc, seed, ni, node, dirs))
            assert got[ni].shape == (16,)
            mt_to_donor = np.asarray(sc.donor.position) - np.asarray(node.mt_position())
            rng = substream(seed, "si", ni)  # read by the beams in codebook order
            expected = []
            for beam_dir in dirs:
                geom = SiGeometry(
                    separation,
                    tx_orientation=tuple(beam_dir),
                    rx_orientation=tuple(mt_to_donor / np.linalg.norm(mt_to_donor)),
                )
                (tap,) = direct_si_taps(geom, node.pattern, node.pattern, sc.carrier_freq_hz)
                _, gains = si_channel(tap, reflectors, rng)
                expected.append(node.tx_power_dbm + total_gain_db(gains))
            assert expected == reference_residual_dbm(sc, seed, ni, node)
            assert got[ni].tolist() == expected
            # Reflections draw only from the Generator si_channel is given.
            if reflectors is not None:
                with pytest.raises(ValueError, match=r"\brng\b"):
                    si_channel(tap, reflectors)

        # Node 0's residuals, alone and as its UEs' backhaul SINR in a drop,
        # do not depend on node 1.
        nodes = (sc.iab_nodes[0],
                 dataclasses.replace(sc.iab_nodes[1], antenna_separation_m=other_separation))
        moved = dataclasses.replace(sc, iab_nodes=nodes)
        dirs = reference_directions(moved, 1)
        assert np.array_equal(propagation_residual_si_dbm(moved, seed, 0, nodes[0], dirs), got[0])
        before = run_drop(sc, seed, modes=[Mode.FD_PROP_ONLY])
        after = run_drop(moved, seed, modes=[Mode.FD_PROP_ONLY])
        on_node_0 = before["serving_cell"] == 1
        assert on_node_0.any()
        assert np.array_equal(after["serving_cell"], before["serving_cell"])
        assert np.array_equal(
            after["backhaul_sinr_db"][:, on_node_0], before["backhaul_sinr_db"][:, on_node_0]
        )

        # A stream that yields no taps gives every beam its reflection-free value.
        for ni, node in enumerate(sc.iab_nodes):
            dirs = reference_directions(sc, ni + 1)
            no_taps = dataclasses.replace(sc, reflectors=ReflectorConfig(max_taps=0))
            off = dataclasses.replace(sc, reflectors=None)
            assert np.array_equal(
                propagation_residual_si_dbm(no_taps, seed, ni, node, dirs),
                propagation_residual_si_dbm(off, seed, ni, node, dirs),
            )


    def test_node_pass_rejections_name_their_fields(self):
        sc = small_scenario()
        dirs = reference_directions(sc, 2)
        dirs[3, 1] = np.nan
        with pytest.raises(FieldError, match=r"^tx_orientation: must be finite"):
            node_si_taps(sc, 1, dirs, substream(0, "si", 1))
        with pytest.raises(ValueError, match=r"\brng\b"):
            node_si_taps(sc, 0, reference_directions(sc, 1), None)
        deaf = AntennaPattern(beamwidth_3db_deg=0.01, sidelobe_floor_dbi=-10000.0)
        nodes = (sc.iab_nodes[0], dataclasses.replace(sc.iab_nodes[1], pattern=deaf))
        with pytest.raises(FieldError, match=r"^iab_nodes\[1\]\.pattern: .* no power"):
            node_si_taps(dataclasses.replace(sc, iab_nodes=nodes), 1, dirs[:3], None)


class TestDli:
    def donor_node_pair(self):
        donor = Donor(position=(0.0, 0.0, 100.0))
        node = IabNode(position=(400.0, 0.0, 100.0 + 1.0), antenna_separation_m=1.0)
        sc = Scenario(
            donor=donor,
            iab_nodes=(node,),
            ue_grid=UeGrid(nx=1, ny=1),
            access_shadow_sigma_db=0.0,
        )
        return sc, node

    def test_ue_behind_mt_sees_boresight(self):
        sc, node = self.donor_node_pair()
        mt = np.asarray(node.mt_position())
        ue_on_ray = np.asarray(sc.donor.position) + 1.5 * (mt - np.asarray(sc.donor.position))
        dli = dli_power_dbm(sc, [node.mt_position()], [ue_on_ray], 0.0)[0]
        dist = np.linalg.norm(ue_on_ray - np.asarray(sc.donor.position))
        expected = 43.0 + 20.0 - fspl_db(float(dist), sc.carrier_freq_hz)
        assert dli == pytest.approx(expected, abs=1e-9)

    def test_ue_at_right_angle_sees_sidelobe_floor(self):
        sc, node = self.donor_node_pair()
        ue = np.asarray(sc.donor.position) + np.array([0.0, 300.0, 0.0])
        dli = dli_power_dbm(sc, [node.mt_position()], [ue], 0.0)[0]
        expected = 43.0 - 10.0 - fspl_db(300.0, sc.carrier_freq_hz)
        assert dli == pytest.approx(expected, abs=1e-6)

    def test_hd_mode_excludes_dli(self):
        sc = small_scenario()
        drop = run_drop(sc, 1, modes=(Mode.HD,))
        relayed = drop["serving_cell"] > 0
        assert relayed.any()
        # The drop reports the DLI each relayed UE would see; HD leaves it out.
        assert np.isfinite(drop["dli_power_dbm"][relayed]).all()
        assert np.isnan(drop["dli_power_dbm"][~relayed]).all()
        (hd_sinr,) = drop["access_sinr_db"]
        assert np.array_equal(hd_sinr[relayed], drop["access_snr_db"][relayed])


class TestUeThroughput:
    C = capacity_bps(21.0, BW)  # the top MCS's capacity

    def test_hd_even_split_halves_capacity(self):
        thr = ue_throughput(Mode.HD, True, self.C, self.C, 0.0)
        assert thr == pytest.approx(self.C / 2.0, rel=1e-12)

    def test_ideal_fd_doubles_hd_with_guard(self):
        thr_fd = ue_throughput(Mode.IDEAL_FD, True, self.C, self.C, 0.1)
        thr_hd = ue_throughput(Mode.HD, True, self.C, self.C, 0.1)
        assert thr_fd / thr_hd == pytest.approx(1.0 / (0.9 * 0.5), rel=1e-12)

    def test_noise_plus_dbm_sums_powers(self):
        floor = -90.0
        got = noise_plus_dbm(floor, [-np.inf, floor, floor + 30.0])
        want = [floor, floor + 10 * np.log10(2.0), 10 * np.log10(10 ** -9.0 + 10 ** -6.0)]
        assert got == pytest.approx(want, abs=1e-9)

    def test_residual_shifts_backhaul_sinr(self):
        sc = small_scenario()
        floor = sc.noise.floor_dbm
        residual = floor + 30.0
        nodes = tuple(dataclasses.replace(n, residual_si_dbm=residual) for n in sc.iab_nodes)
        sc = dataclasses.replace(sc, iab_nodes=nodes)
        drop = run_drop(sc, 0, modes=[Mode.FD_FULL])
        for ci, node in enumerate(nodes, 1):
            on_node = drop["serving_cell"] == ci
            assert on_node.any()
            rx = backhaul_rx_power_dbm(sc, node)
            # hand computation: SINR = rx - 10log10(noise + residual)
            expected = rx - 10 * np.log10(10 ** (floor / 10) + 10 ** (residual / 10))
            bh_sinr = drop["backhaul_sinr_db"][0, on_node]
            assert bh_sinr == pytest.approx(expected, abs=1e-9)
            assert bh_sinr == pytest.approx(rx - floor - 30.0, abs=0.01)

    def test_min_bottleneck(self):
        low = capacity_bps(9.0, BW)
        assert ue_throughput(Mode.FD_FULL, True, self.C, low, 0.1) == low
        assert ue_throughput(Mode.FD_PROP_ONLY, True, low, self.C, 0.1) == low

    def test_donor_served_ignores_mode(self):
        outs = [ue_throughput(m, False, self.C, 0.0, 0.1) for m in ALL_MODES]
        assert outs == [self.C] * len(ALL_MODES)
        # Fibered UEs, relayed or not, get their access capacity too.
        assert ue_throughput(Mode.FIBERED, True, self.C, 0.0, 0.1) == self.C


class TestRunDrop:
    def test_nan_full_sic_margin_names_its_field(self):
        # run_drop used to meet it as "sinr_db must not be NaN", which names no field.
        with pytest.raises(FieldError, match=r"^full_sic_margin_db: must be >= -100, got nan"):
            dataclasses.replace(default_scenario(), full_sic_margin_db=math.nan)

    def test_deterministic(self):
        sc = small_scenario()
        assert columns_equal(run_drop(sc, 4), run_drop(sc, 4))
        assert not columns_equal(run_drop(sc, 4), run_drop(sc, 5))

    def test_record_count_and_modes(self):
        sc = small_scenario()
        drop = run_drop(sc, 1)
        per_ue = ("serving_cell", "beam", "access_snr_db", "dli_power_dbm")
        per_mode_fields = ("access_sinr_db", "backhaul_sinr_db", "throughput_bps")
        assert list(drop) == [*per_ue, *per_mode_fields]
        assert {drop[f].shape for f in per_ue} == {(81,)}
        # one row per mode, in the order asked for
        assert {drop[f].shape for f in per_mode_fields} == {(len(ALL_MODES), 81)}
        modes = (Mode.HD, Mode.FIBERED)
        hd_first = run_drop(sc, 1, modes=modes)
        for f in per_mode_fields:
            want = drop[f][[ALL_MODES.index(m) for m in modes]]
            assert np.array_equal(hd_first[f], want, equal_nan=True), f

    def test_empty_ue_set(self):
        sc = dataclasses.replace(small_scenario(), ue_grid=UeGrid(nx=0, ny=0))
        drop = run_drop(sc, 1)
        assert drop.keys() == run_drop(small_scenario(), 1).keys()
        assert all(c.shape[-1] == 0 for c in drop.values())

    # At a 2.7 dB noise figure, ideal_fd's noise_plus_dbm(floor, -inf) is not
    # hd's floor in the last bit, so the modes may not share its backhaul.
    @pytest.mark.parametrize("seed, noise_figure_db", [
        (0, 3.0), (7, 3.0), (123456789, 3.0), (0, 2.7), (7, 2.7),
    ])
    def test_matches_per_ue_reference(self, seed, noise_figure_db):
        sc = dataclasses.replace(
            small_scenario(), ue_grid=UeGrid(nx=4, ny=3), noise_figure_db=noise_figure_db
        )
        drop = run_drop(sc, seed)
        serving, beam, access_rx, *_ = schedule_drop(sc, seed)
        ues = sc.ue_grid.positions()
        assert (serving > 0).any() and (serving == 0).any()
        for k, mode in enumerate(ALL_MODES):
            for u in range(ues.shape[0]):
                expected = reference_row(
                    sc, seed, mode, int(serving[u]), int(beam[u]), float(access_rx[u]), ues[u], u
                )
                # The DLI is per UE and enters the FD modes only.
                dli = drop["dli_power_dbm"][u] if mode in FD_MODES else np.nan
                a_sinr, b_sinr, thr = (
                    drop[f][k, u] for f in ("access_sinr_db", "backhaul_sinr_db", "throughput_bps")
                )
                got = [None if np.isnan(v) else v for v in (a_sinr, b_sinr, dli, thr)]
                assert got == list(expected), (mode, u)

    def test_dominance_orderings(self):
        for seed in (0, 1):
            sc = small_scenario()
            drop = run_drop(sc, seed)
            d = per_mode(drop, "throughput_bps")
            assert np.all(d["fibered"] >= d["ideal_fd"])
            assert np.all(d["ideal_fd"] >= d["fd_full"])
            assert np.all(d["fd_full"] >= d["fd_prop_only"])
            # IdealFD >= HD except where the DLI knocked the access link
            # down an MCS step (the Fig. 5 DLI performance loss).
            loss = d["ideal_fd"] < d["hd"] - 1e-9
            ideal = ALL_MODES.index(Mode.IDEAL_FD)
            c_clean = capacity_bps(drop["access_snr_db"][loss], sc.bandwidth_hz)
            c_dli = capacity_bps(drop["access_sinr_db"][ideal][loss], sc.bandwidth_hz)
            assert np.all(c_dli < c_clean)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        separation=st.floats(0.05, 3.0),
        nx=st.integers(1, 6),
        ny=st.integers(1, 6),
    )
    def test_mode_ordering_property(self, seed, separation, nx, ny):
        sc = dataclasses.replace(small_scenario(separation), ue_grid=UeGrid(nx=nx, ny=ny))
        d = per_mode(run_drop(sc, seed), "throughput_bps")
        assert np.all(d["fibered"] >= d["ideal_fd"])
        assert np.all(d["ideal_fd"] >= d["fd_full"])
        assert np.all(d["fd_full"] >= d["fd_prop_only"])

    def test_dli_gap_exists(self):
        # some relayed UEs with DLI above the floor lose throughput vs fibered
        sc = small_scenario()
        drop = run_drop(sc, 2)
        thr = per_mode(drop, "throughput_bps")
        dli = drop["dli_power_dbm"]
        strong_dli = dli > sc.noise.floor_dbm  # False where NaN (not relayed)
        assert strong_dli.any()  # DLI-exposed UEs exist in the default layout
        # and the DLI gap shows for at least some of them
        assert (thr["fibered"][strong_dli] > thr["ideal_fd"][strong_dli]).any()

    def test_hd_beats_prop_only_at_small_separation(self):
        sc = small_scenario(separation=0.1)
        hd, prop = [], []
        for seed in range(3):
            modes = (Mode.HD, Mode.FD_PROP_ONLY)
            d = per_mode(run_drop(sc, seed, modes=modes), "throughput_bps", modes)
            hd.extend(d["hd"])
            prop.extend(d["fd_prop_only"])
        assert np.median(hd) > np.median(prop)

    def test_relayed_throughput_bounded_by_each_link(self):
        sc = small_scenario()
        drop = run_drop(sc, 3, modes=(Mode.FD_PROP_ONLY,))
        relayed = drop["serving_cell"] > 0
        ca = capacity_bps(drop["access_sinr_db"][0, relayed], sc.bandwidth_hz)
        cb = capacity_bps(drop["backhaul_sinr_db"][0, relayed], sc.bandwidth_hz)
        assert np.all(drop["throughput_bps"][0, relayed] <= ca + 1e-9)
        assert np.all(drop["throughput_bps"][0, relayed] <= cb + 1e-9)


class TestCdf:
    def test_empirical_definition(self):
        v, p = cdf([1.0, 2.0, 3.0, 4.0])
        assert p[np.searchsorted(v, 2.0)] == pytest.approx(0.5)
        assert p[-1] == 1.0

    def test_empty(self):
        v, p = cdf([])
        assert v.size == 0 and p.size == 0

    def test_duplicates(self):
        v, p = cdf([5.0, 5.0, 5.0, 7.0])
        assert np.all(v[:3] == 5.0)
        assert p[2] == pytest.approx(0.75)
