"""System-level IAB downlink: deployment, beam selection, DLI, throughput.

One donor plus wirelessly backhauled nodes serve a rectangular UE grid with
single-hop relaying, one UE at a time. Five configurations are compared:
fibered backhaul, ideal FD (zero SI), FD with full SIC, FD with
propagation-domain suppression only, and half duplex.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import (
    AntennaPattern, ReflectorConfig, SiGeometry, direct_si_taps, fspl_db, rx_dbm, si_channel,
)
from .rf import NoiseModel
from .util import (
    SPEED_OF_LIGHT, FieldError, bounded, check_bounds, dbm_to_watt, same_as, substream, watt_to_dbm,
)


class Mode(str, Enum):
    FIBERED = "fibered"
    IDEAL_FD = "ideal_fd"
    FD_FULL = "fd_full"
    FD_PROP_ONLY = "fd_prop_only"
    HD = "hd"


ALL_MODES = tuple(Mode)
FD_MODES = (Mode.IDEAL_FD, Mode.FD_FULL, Mode.FD_PROP_ONLY)

# Access codebook geometry: a 120 degree azimuth sector split eight ways and
# a 30 degree elevation span split two ways, 16 beams total.
SECTOR_SPAN_AZ_DEG = 120.0
N_BEAMS_AZ = 8
SECTOR_SPAN_EL_DEG = 30.0
N_BEAMS_EL = 2
SECTOR_CENTER_EL_DEG = -15.0  # rooftop cells look down toward street level

UE_GAIN_DBI = 0.0  # uniform dipole, isotropic in azimuth


def direction_from_angles(az_deg, el_deg):
    """Unit pointing vector from azimuth and elevation in degrees,
    elementwise: (..., 3) for arrays of angles."""
    az = np.radians(az_deg)
    el = np.radians(el_deg)
    return np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=-1)


def codebook_angles(sector_center_az_deg):
    """(az_deg, el_deg) arrays of a cell's 16 access beams, el-major and
    az-minor: eight azimuths across the sector, two elevations about
    SECTOR_CENTER_EL_DEG."""
    az_steps = SECTOR_SPAN_AZ_DEG * ((np.arange(N_BEAMS_AZ) + 0.5) / N_BEAMS_AZ - 0.5)
    el_steps = SECTOR_SPAN_EL_DEG * ((np.arange(N_BEAMS_EL) + 0.5) / N_BEAMS_EL - 0.5)
    az = np.tile(sector_center_az_deg + az_steps, N_BEAMS_EL)
    return az, np.repeat(SECTOR_CENTER_EL_DEG + el_steps, N_BEAMS_AZ)


# 15-entry CQI-style MCS table, SINR threshold to efficiency, both strictly
# increasing: standard NR CQI table-1 efficiencies with SINR thresholds
# spaced linearly from -6.7 dB to 19.8 dB.
MCS_THRESHOLDS_DB = tuple(np.round(np.linspace(-6.7, 19.8, 15), 4))
MCS_EFFICIENCIES_BPS_HZ = (
    0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766, 1.9141,
    2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547,
)
_THRESHOLDS = np.array(MCS_THRESHOLDS_DB)  # the tables as capacity_bps reads them
_EFFICIENCY = np.array((0.0, *MCS_EFFICIENCIES_BPS_HZ))  # [0]: outage


def capacity_bps(sinr_db, bandwidth_hz):
    """Bandwidth times the efficiency of the best MCS whose threshold is met,
    elementwise.

    Thresholds are closed lower bounds; below the lowest one the UE is in
    outage and gets zero.
    """
    sinr = np.asarray(sinr_db, float)
    if np.isnan(sinr).any():
        raise ValueError("sinr_db must not be NaN")
    return bandwidth_hz * _EFFICIENCY[np.searchsorted(_THRESHOLDS, sinr, side="right")]


# ---------------------------------------------------------------------------
# Scenario description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Donor:
    position: tuple[float, float, float]
    tx_power_dbm: float = bounded(43.0, "<= 100")
    pattern: AntennaPattern = field(default_factory=AntennaPattern)
    sector_center_az_deg: float | None = bounded(None, "> -inf, < inf")  # None: the region center

    __post_init__ = check_bounds


@dataclass(frozen=True)
class IabNode(Donor):
    """A relay cell: the donor's fields for its DU, plus the MT on its mast."""

    antenna_separation_m: float = bounded(1.0, "> 0")
    residual_si_dbm: float | None = bounded(None, "<= 100")  # full-SIC residual override

    def mt_position(self):
        """The MT hangs antenna_separation_m below the DU on the mast."""
        x, y, z = self.position
        return (x, y, z - self.antenna_separation_m)


# The traced memory a call may take: it sizes MAX_UES and cli.MAX_SWEEP_CHAINS.
MEMORY_BUDGET_BYTES = 2 * 2**30

# A system-sim call's traced allocations peak in run_drop, at 528 B per UE
# between a 201 x 201 and a 301 x 301 grid (5.18 MiB at 101 x 101). The cap
# budgets 1 KiB per UE within 2 GiB: 2,097,152 UEs, 1448 x 1448.
MAX_UES = MEMORY_BUDGET_BYTES // 1024


@dataclass(frozen=True)
class UeGrid:
    nx: int = bounded(21, ">= 0")
    ny: int = bounded(21, ">= 0")
    x_range: tuple[float, float] = (-250.0, 250.0)
    y_range: tuple[float, float] = (-250.0, 250.0)
    height_m: float = bounded(1.5, ">= 0")

    def __post_init__(self):
        check_bounds(self)
        if self.nx * self.ny > MAX_UES:
            raise FieldError(
                "", f"{self.nx} x {self.ny} UEs exceed the cap of {MAX_UES} (about 1 KiB each)"
            )

    def positions(self):
        """UE positions, y-major row order (ue_id = iy * nx + ix)."""
        xs = np.linspace(*self.x_range, self.nx)
        ys = np.linspace(*self.y_range, self.ny)
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, self.height_m)])


@dataclass(frozen=True)
class Scenario:
    donor: Donor
    iab_nodes: tuple[IabNode, ...] = (
        IabNode(position=(40.0, 100.0, 126.0)),
        IabNode(position=(40.0, -100.0, 99.0)),
    )
    ue_grid: UeGrid = field(default_factory=UeGrid)
    bandwidth_hz: float = same_as(NoiseModel, "bandwidth_hz")
    noise_figure_db: float = same_as(NoiseModel, "noise_figure_db")
    carrier_freq_hz: float = bounded(28e9, "> 0")
    guard_overhead: float = bounded(0.1, ">= 0, < 1")
    access_shadow_sigma_db: float = bounded(4.0, ">= 0, <= 100")
    full_sic_margin_db: float = bounded(1.0, ">= -100, <= 100")
    reflectors: ReflectorConfig | None = field(default_factory=ReflectorConfig)

    def __post_init__(self):
        check_bounds(self)
        # Friis loss turns into a gain below c / (4 pi f): 0.85 mm at 28 GHz.
        nearest = SPEED_OF_LIGHT / (4.0 * np.pi * self.carrier_freq_hz)
        for i, d in enumerate(node.antenna_separation_m for node in self.iab_nodes):
            if d < nearest:
                where = f"at carrier_freq_hz {self.carrier_freq_hz:.4g}, where Friis loss is 0 dB"
                msg = f"must be >= {nearest:.4g} m {where}, got {d!r}"
                raise FieldError(f"iab_nodes[{i}].antenna_separation_m", msg)
        # A UE on a cell's position would have an access path of no length, and
        # the other access paths and the backhaul hops clear c / (4 pi f) too.
        # A cell's nearest UE sits at the grid's nearest x and nearest y.
        grid = self.ue_grid
        xs, ys = np.linspace(*grid.x_range, grid.nx), np.linspace(*grid.y_range, grid.ny)
        paths = ["donor"] + [f"iab_nodes[{i}]" for i in range(len(self.iab_nodes))]
        links = []  # (length, what)
        for path, cell in zip(paths, self.cells() if xs.size and ys.size else ()):
            x, y, z = cell.position
            ix, iy = np.argmin(np.abs(xs - x)), np.argmin(np.abs(ys - y))
            length, ue = math.hypot(xs[ix] - x, ys[iy] - y, grid.height_m - z), iy * grid.nx + ix
            if length == 0.0:
                raise FieldError("ue_grid", f"UE {ue} lies on {path}.position {[x, y, z]}")
            links.append((length, f"access path from {path} to UE {ue}"))
        for path, node in zip(paths[1:], self.iab_nodes):
            length = math.dist(node.mt_position(), self.donor.position)
            if length == 0.0:
                raise FieldError(path, f"its MT lies on donor.position {list(self.donor.position)}")
            links.append((length, f"backhaul hop to {path}"))
        length, what = min(links, default=(math.inf, ""))
        if length < nearest:
            msg = f"must be >= {SPEED_OF_LIGHT / (4.0 * np.pi * length):.4g} Hz, where the"
            msg += f" {length:.4g} m {what} has 0 dB Friis loss, got {self.carrier_freq_hz!r}"
            raise FieldError("carrier_freq_hz", msg)

    @property
    def noise(self):
        return NoiseModel(self.bandwidth_hz, self.noise_figure_db)

    def cells(self):
        return (self.donor,) + tuple(self.iab_nodes)

    def sector_center_az(self, cell):
        """Aim at the UE region's center unless the cell sets its own azimuth."""
        if cell.sector_center_az_deg is not None:
            return cell.sector_center_az_deg
        cx, cy = np.mean(self.ue_grid.x_range), np.mean(self.ue_grid.y_range)
        x, y, _ = cell.position
        return float(np.degrees(np.arctan2(cy - y, cx - x)))

    def codebook(self, cell):
        """The (16, 3) unit pointing vectors of the cell's access beams, in
        codebook order."""
        return direction_from_angles(*codebook_angles(self.sector_center_az(cell)))

    def mt_boresight(self, node):
        """Unit vector from the node's MT to the donor, where the MT points."""
        v = np.asarray(self.donor.position, float) - np.asarray(node.mt_position(), float)
        return tuple(float(c) for c in v / np.linalg.norm(v))


def default_scenario():
    """Desk-scale deployment: one donor, two relays, 441 UEs over 500 m x 500 m.

    The donor sits toward the west edge so that the two relays carry the
    majority of the UEs; backhaul hops stay ~215 m long, short enough that a
    healthy backhaul survives moderate residual SI.
    """
    return Scenario(donor=Donor(position=(-150.0, 0.0, 130.0)))


# ---------------------------------------------------------------------------
# Scheduling and link arithmetic, on per-UE columns
#
# Each value must round exactly as the per-UE formula it stands for, so that
# throughput.csv keeps its bytes: access and DLI powers come from
# geometry.rx_dbm, whose dot products are summed component by component,
# u0*v0 + u1*v1 + u2*v2, and dBm levels reach watts through libm's pow
# (np.float_power), as a Python float does.
# ---------------------------------------------------------------------------


def noise_plus_dbm(floor_dbm, levels_dbm):
    """Power sum of the noise floor and each level, in dBm; -inf adds nothing.

    The levels reach watts through np.float_power, which calls libm's pow:
    numpy's SIMD np.power rounds some of them differently in the last bit.
    """
    watts = np.float_power(10.0, (np.asarray(levels_dbm, float) - 30.0) / 10.0)
    return watt_to_dbm(dbm_to_watt(floor_dbm) + watts)


def _access_shadows_db(scenario, seed, n_cells, n_ue):
    """Log-normal shadowing of every (cell, UE) access path, indexed [cell, ue].

    Each cell draws one stream, substream(seed, "access-shadow", cell), and
    UE u takes draw u. A value thus depends only on (seed, cell, ue_id): the
    draws fill in order, so a smaller grid reads a prefix of the same stream,
    and no cell's stream depends on another's.
    """
    if scenario.access_shadow_sigma_db == 0.0:
        return np.zeros((n_cells, n_ue))
    z = [substream(seed, "access-shadow", ci).standard_normal(n_ue) for ci in range(n_cells)]
    return scenario.access_shadow_sigma_db * np.reshape(z, (n_cells, n_ue))


def schedule_drop(scenario, seed):
    """Max-SNR association of the whole UE grid; ties go to the lowest
    (cell, beam) pair.

    Returns (serving_cell, beam, access_rx_dbm, beam_dirs, shadow_db,
    ue_pos): the first three per UE, the codebook directions
    beam_dirs[cell, beam], the shadowing of every (cell, UE) path, which the
    DLI reuses for the donor's paths, and the (n, 3) UE positions.

    Shadowing is a property of the cell-UE path, shared by all beams of the
    cell, so a uniform Tx power shift can never change the argmax decision.
    """
    ues = scenario.ue_grid.positions()
    n_ue = ues.shape[0]
    cells = scenario.cells()
    beam_dirs = np.stack([scenario.codebook(c) for c in cells])
    shadows = _access_shadows_db(scenario, seed, len(cells), n_ue)

    # Each cell's first best beam per UE, from one (beam, UE) broadcast per cell;
    # their first best over cells is the first max in (cell, beam) order.
    best_beam = np.empty((len(cells), n_ue), np.intp)
    best_rx = np.empty((len(cells), n_ue))
    ue = np.arange(n_ue)
    for ci, cell in enumerate(cells):
        rx = rx_dbm(
            cell.position, cell.tx_power_dbm, cell.pattern, beam_dirs[ci][:, np.newaxis],
            ues, scenario.carrier_freq_hz, UE_GAIN_DBI, shadows[ci],
        )
        best_beam[ci] = _first_max(rx)
        best_rx[ci] = rx[best_beam[ci], ue]

    serving = _first_max(best_rx)
    return serving, best_beam[serving, ue], best_rx[serving, ue], beam_dirs, shadows, ues


def _first_max(table):
    """np.argmax(table, axis=0), NaN counting as the maximum, from reductions
    along the rows, a few times faster than a strided argmax: the column max,
    then the largest weighted hit, rows - i for a hit in row i."""
    hit = table == (best := table.max(axis=0))
    if np.isnan(best).any():  # max propagates NaN, which equals nothing
        hit |= np.isnan(table)
    weights = np.arange(len(table), 0, -1, dtype=np.min_scalar_type(len(table)))[:, np.newaxis]
    return np.subtract(len(table), np.max(hit * weights, axis=0), dtype=np.intp)


def backhaul_rx_power_dbm(scenario, node):
    """Donor-DU to node-MT link over the perfectly aligned fixed beams."""
    dist = float(
        np.linalg.norm(np.asarray(node.mt_position()) - np.asarray(scenario.donor.position))
    )
    return (
        scenario.donor.tx_power_dbm
        + scenario.donor.pattern.boresight_gain_dbi
        + node.pattern.boresight_gain_dbi
        - fspl_db(dist, scenario.carrier_freq_hz)
    )


def dli_power_dbm(scenario, mt_pos, ue_pos, shadow_db):
    """Donor backhaul transmission received directly by relayed UEs.

    The DLI is the donor's access link to each UE with the donor's beam held
    on the serving node's MT at mt_pos, over the same shadowed path
    (shadow_db). Positions are (n, 3) arrays, one row per UE.
    """
    donor = scenario.donor
    beam_dirs = np.asarray(mt_pos, float) - np.asarray(donor.position, float)
    return rx_dbm(
        donor.position, donor.tx_power_dbm, donor.pattern, beam_dirs,
        ue_pos, scenario.carrier_freq_hz, UE_GAIN_DBI, shadow_db,
    )


def node_direct_taps(scenario, node_idx, du_dirs):
    """The direct SI tap of IAB node node_idx with its DU beam along each
    direction of du_dirs (n, 3) and its MT pointing at the donor: one
    direct_si_taps pass, whose errors name the node."""
    node = scenario.iab_nodes[node_idx]
    geom = SiGeometry(node.antenna_separation_m, du_dirs, scenario.mt_boresight(node))
    try:
        return direct_si_taps(geom, node.pattern, node.pattern, scenario.carrier_freq_hz)
    except FieldError as e:
        raise FieldError(f"iab_nodes[{node_idx}].{e.path}", e.message) from None


def node_si_taps(scenario, node_idx, du_dirs, rng):
    """The SI channel of IAB node node_idx with its DU beam along each
    direction of du_dirs (n, 3) in turn and its MT pointing at the donor, as
    si_channel's (delays_s, gains) pairs: node_direct_taps, then each
    direction draws its reflections from the Generator rng after the one
    before it."""
    taps = node_direct_taps(scenario, node_idx, du_dirs)
    return [si_channel(tap, scenario.reflectors, rng) for tap in taps]


def propagation_residual_si_dbm(scenario, seed, node_idx, node, beam_dirs):
    """Residual SI after propagation-domain suppression only, per access beam
    of the node's codebook beam_dirs (n, 3) in the drop at seed: the node's
    transmit power through each beam's SI channel (node_si_taps). The
    reflected taps are redrawn per beam (the SI seen at the MT varies with
    the DU beam): the node's one stream, substream(seed, "si", node_idx), is
    read by its beams one after another in codebook order.

    The beams' tap powers lie in one table, each beam's behind a 0, and one
    reduceat sums them: it adds a segment's first value to the pairwise sum
    of the rest, so a segment sums as np.sum sums the beam, and each value is
    total_gain_db's, bit for bit, whatever the tap counts."""
    taps = node_si_taps(scenario, node_idx, beam_dirs, substream(seed, "si", node_idx))
    zero = np.zeros(1)
    table = np.concatenate([g for _, gains in taps for g in (zero, gains)])
    starts = np.cumsum([0] + [gains.size + 1 for _, gains in taps[:-1]])
    return node.tx_power_dbm + 10.0 * np.log10(np.add.reduceat(np.abs(table) ** 2, starts))


def residual_si_dbm(scenario, mode, floor_dbm, prop_residual_dbm):
    """Residual SI power entering the backhaul SINR in an FD mode, over the
    (cell, beam) table prop_residual_dbm of propagation-only residuals: -inf
    (none) in ideal_fd, else a table of its shape."""
    if mode == Mode.IDEAL_FD:
        return -np.inf
    if mode == Mode.FD_PROP_ONLY:
        return prop_residual_dbm
    # Full chain lands the residual near the floor; it can never exceed
    # what propagation alone already achieved.
    residual = np.minimum(prop_residual_dbm, floor_dbm + scenario.full_sic_margin_db)
    for ni, node in enumerate(scenario.iab_nodes):
        if node.residual_si_dbm is not None:
            residual[ni + 1] = node.residual_si_dbm
    return residual


def ue_throughput(mode, relayed, access_bps, backhaul_bps, guard_overhead):
    """Downlink throughput of each UE under one configuration, from the
    capacities of its access and backhaul hops, per-UE arrays or scalars.

    Donor-served and fibered UEs get their access capacity. Relayed FD UEs
    are bottlenecked by min(access, backhaul). Relayed HD UEs time-share the
    two hops, optimal split, charged the guard overhead:
    (1-g) * Ca*Cb / (Ca+Cb).
    """
    if mode == Mode.FIBERED:
        return access_bps
    if mode == Mode.HD:
        with np.errstate(invalid="ignore"):  # 0/0 where both hops are in outage
            split = (1.0 - guard_overhead) * access_bps * backhaul_bps / (access_bps + backhaul_bps)
        relayed_thr = np.where((access_bps > 0.0) & (backhaul_bps > 0.0), split, 0.0)
    else:
        relayed_thr = np.minimum(access_bps, backhaul_bps)
    return np.where(relayed, relayed_thr, access_bps)


def run_drop(scenario, seed, modes=ALL_MODES):
    """One deployment drop: schedule every UE once, evaluate every mode.

    Scheduling is max-SNR and mode-independent, so per-UE serving decisions
    are shared across the mode comparison, as in the reference topology.
    Deterministic per (scenario, seed).

    Returns a dict of numpy arrays, UEs by ue_id. Per UE, shape (n,):
    serving_cell (0 is the donor), beam, access_snr_db and dli_power_dbm,
    NaN for donor-served UEs. Per mode, shape (k, n), row k for modes[k]:
    access_sinr_db, backhaul_sinr_db, NaN for donor-served UEs and in the
    fibered mode, and throughput_bps. The DLI enters the FD modes only.

    Modes share work, not results: the capacities of the access SNR serve hd
    and fibered, and those of the SINR with DLI the FD modes. Each mode's
    backhaul capacities come from its own (cell, beam) SINR table.
    """
    modes = [Mode(m) for m in modes]
    serving, beam, access_rx, beam_dirs, shadows, ues = schedule_drop(scenario, seed)
    relayed = serving > 0
    nodes = scenario.iab_nodes
    floor = scenario.noise.floor_dbm
    bw = scenario.bandwidth_hz

    # Per (cell, beam) tables, indexed by serving cell and beam; the donor has no backhaul.
    mt = np.array([scenario.donor.position] + [n.mt_position() for n in nodes])
    backhaul_rx = np.full(beam_dirs.shape[:2], np.nan)
    prop_residual = np.full(beam_dirs.shape[:2], np.nan)
    for ni, node in enumerate(nodes):
        backhaul_rx[ni + 1] = backhaul_rx_power_dbm(scenario, node)
        prop_residual[ni + 1] = propagation_residual_si_dbm(
            scenario, seed, ni, node, beam_dirs[ni + 1]
        )
    cell_beam = serving * prop_residual.shape[1] + beam

    dli = np.full(serving.size, np.nan)  # of relayed UEs only
    idx = np.flatnonzero(relayed)
    dli[idx] = dli_power_dbm(scenario, mt.take(serving[idx], 0), ues.take(idx, 0), shadows[0, idx])
    snr = access_rx - floor
    sinr = snr.copy()  # with the DLI that relayed UEs see in the FD modes
    sinr[idx] = access_rx[idx] - noise_plus_dbm(floor, dli[idx])
    snr_bps = capacity_bps(snr, bw)
    sinr_bps = snr_bps.copy()
    sinr_bps[idx] = capacity_bps(sinr[idx], bw)

    shape = (len(modes), serving.size)  # three arrays, so each can be let go on its own
    thr, access_sinr, backhaul_sinr = np.empty(shape), np.empty(shape), np.full(shape, np.nan)
    for k, mode in enumerate(modes):
        access_sinr[k], ca = (sinr, sinr_bps) if mode in FD_MODES else (snr, snr_bps)
        cb = None  # fibered UEs have no backhaul
        if mode != Mode.FIBERED:
            noise = floor
            if mode in FD_MODES:
                noise = noise_plus_dbm(floor, residual_si_dbm(scenario, mode, floor, prop_residual))
            table = backhaul_rx - noise
            bps = np.zeros(table.shape)  # the donor's row is never read
            bps[1:] = capacity_bps(table[1:], bw)
            backhaul_sinr[k] = table.take(cell_beam)
            cb = bps.take(cell_beam)
        thr[k] = ue_throughput(mode, relayed, ca, cb, scenario.guard_overhead)
    return {
        "serving_cell": serving,
        "beam": beam,
        "access_snr_db": snr,
        "dli_power_dbm": dli,
        "access_sinr_db": access_sinr,
        "backhaul_sinr_db": backhaul_sinr,
        "throughput_bps": thr,
    }


def cdf(values):
    """Empirical CDF points (sorted value, P(X <= value))."""
    v = np.sort(np.asarray(values, dtype=float))
    p = np.arange(1, v.size + 1) / v.size  # both empty for no values
    return v, p
