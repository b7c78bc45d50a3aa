"""System-level IAB downlink: deployment, beam selection, DLI, throughput.

One donor plus wirelessly backhauled nodes serve a rectangular UE grid with
single-hop relaying, one UE at a time. Five configurations are compared:
fibered backhaul, ideal FD (zero SI), FD with full SIC, FD with
propagation-domain suppression only, and half duplex.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import AntennaPattern, ReflectorConfig, SiGeometry, fspl_db, rx_dbm, si_channel
from .rf import NoiseModel
from .util import FieldError, bounded, check_bounds, dbm_to_watt, same_as, substream, watt_to_dbm


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


@dataclass(frozen=True)
class Codebook:
    """Fixed grid of beam pointing directions sharing one radiation pattern."""

    beams: tuple  # ((az_deg, el_deg), ...) indexed el-major, az-minor
    pattern: AntennaPattern

    def __post_init__(self):
        if len(self.beams) != N_BEAMS_AZ * N_BEAMS_EL:
            raise ValueError(f"codebook must hold exactly {N_BEAMS_AZ * N_BEAMS_EL} beams")

    def directions(self):
        az, el = np.array(self.beams).T
        return direction_from_angles(az, el)


def build_codebook(pattern, sector_center_az_deg):
    az_steps = SECTOR_SPAN_AZ_DEG * ((np.arange(N_BEAMS_AZ) + 0.5) / N_BEAMS_AZ - 0.5)
    el_steps = SECTOR_SPAN_EL_DEG * ((np.arange(N_BEAMS_EL) + 0.5) / N_BEAMS_EL - 0.5)
    beams = tuple(
        (float(sector_center_az_deg + daz), float(SECTOR_CENTER_EL_DEG + del_))
        for del_ in el_steps
        for daz in az_steps
    )
    return Codebook(beams=beams, pattern=pattern)


@dataclass(frozen=True)
class McsTable:
    """Discrete adaptive-modulation lookup: SINR threshold to efficiency."""

    thresholds_db: tuple
    efficiencies_bps_hz: tuple

    def __post_init__(self):
        t = np.asarray(self.thresholds_db)
        e = np.asarray(self.efficiencies_bps_hz)
        if t.shape != e.shape or t.size == 0:
            raise ValueError("thresholds and efficiencies must match and be non-empty")
        if np.any(np.diff(t) <= 0) or np.any(np.diff(e) <= 0):
            raise ValueError("thresholds and efficiencies must be strictly increasing")


# 15-entry CQI-style table: standard NR CQI table-1 efficiencies with SINR
# thresholds spaced linearly from -6.7 dB to 19.8 dB.
DEFAULT_MCS = McsTable(
    thresholds_db=tuple(np.round(np.linspace(-6.7, 19.8, 15), 4)),
    efficiencies_bps_hz=(
        0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766, 1.9141,
        2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547,
    ),
)


def capacity_bps(sinr_db, bandwidth_hz, mcs):
    """Bandwidth times the efficiency of the best MCS whose threshold is met,
    elementwise.

    Thresholds are closed lower bounds; below the lowest one the UE is in
    outage and gets zero.
    """
    sinr = np.asarray(sinr_db, float)
    if np.isnan(sinr).any():
        raise ValueError("sinr_db must not be NaN")
    eff = np.concatenate(([0.0], mcs.efficiencies_bps_hz))  # eff[0]: outage
    return bandwidth_hz * eff[np.searchsorted(mcs.thresholds_db, sinr, side="right")]


# ---------------------------------------------------------------------------
# Scenario description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Donor:
    position: tuple[float, float, float]
    tx_power_dbm: float = 43.0
    pattern: AntennaPattern = field(default_factory=AntennaPattern)
    sector_center_az_deg: float | None = None  # None: aim at the region center


@dataclass(frozen=True)
class IabNode(Donor):
    """A relay cell: the donor's fields for its DU, plus the MT on its mast."""

    antenna_separation_m: float = bounded(1.0, "> 0")
    residual_si_dbm: float | None = None  # full-SIC residual override

    __post_init__ = check_bounds

    def mt_position(self):
        """The MT hangs antenna_separation_m below the DU on the mast."""
        x, y, z = self.position
        return (x, y, z - self.antenna_separation_m)


# A system-sim call's traced allocations peak at about 1 KiB per UE (987 B
# per UE between a 201 x 201 and a 301 x 301 grid, 10.1 MiB at 101 x 101).
# The cap keeps that peak within a 2 GiB budget: 2,097,152 UEs, 1448 x 1448.
MAX_UES = 2 * 2**30 // 1024


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

    @property
    def n_ues(self):
        return self.nx * self.ny

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
    access_shadow_sigma_db: float = bounded(4.0, ">= 0")
    full_sic_margin_db: float = 1.0
    reflectors: ReflectorConfig | None = field(default_factory=ReflectorConfig)

    def __post_init__(self):
        check_bounds(self)
        # A UE on a cell's position would have an access path of no length.
        # Every UE sits at height_m, so only a cell at that height can be hit.
        paths = ["donor"] + [f"iab_nodes[{i}]" for i in range(len(self.iab_nodes))]
        for path, cell in zip(paths, self.cells()):
            if cell.position[2] != self.ue_grid.height_m:
                continue
            hit = np.flatnonzero((self.ue_grid.positions() == cell.position).all(axis=1))
            if hit.size:
                where = f"{path}.position {list(cell.position)}"
                raise FieldError("ue_grid", f"UE {hit[0]} lies on {where}")

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
# u0*v0 + u1*v1 + u2*v2, and dBm levels reach watts through libm's pow, as a
# Python float does.
# ---------------------------------------------------------------------------


def noise_plus_dbm(floor_dbm, levels_dbm):
    """Power sum of the noise floor and each level, in dBm; -inf adds nothing.

    The levels are converted one by one: numpy's SIMD power rounds some of
    them differently from libm in the last bit.
    """
    exponents = (np.asarray(levels_dbm, float) - 30.0) / 10.0
    watts = [10.0 ** x for x in exponents.ravel().tolist()]
    return watt_to_dbm(dbm_to_watt(floor_dbm) + np.reshape(watts, exponents.shape))


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

    Returns (serving_cell, beam, access_rx_dbm, beam_dirs, shadow_db): the
    first three per UE, the codebook directions beam_dirs[cell, beam], and
    the shadowing of every (cell, UE) path, which the DLI reuses for the
    donor's paths.

    Shadowing is a property of the cell-UE path, shared by all beams of the
    cell, so a uniform Tx power shift can never change the argmax decision.
    """
    ues = scenario.ue_grid.positions()
    n_ue = ues.shape[0]
    cells = scenario.cells()
    beam_dirs = np.stack(
        [build_codebook(c.pattern, scenario.sector_center_az(c)).directions() for c in cells]
    )
    shadows = _access_shadows_db(scenario, seed, len(cells), n_ue)

    # rx[cell, beam, ue], one (beam, UE) broadcast per cell.
    rx = np.empty((len(cells), N_BEAMS_AZ * N_BEAMS_EL, n_ue))
    for ci, cell in enumerate(cells):
        rx[ci] = rx_dbm(
            cell.position, cell.tx_power_dbm, cell.pattern, beam_dirs[ci][:, np.newaxis],
            ues, scenario.carrier_freq_hz, UE_GAIN_DBI, shadows[ci],
        )

    flat = rx.reshape(len(cells) * N_BEAMS_AZ * N_BEAMS_EL, n_ue)
    pick = np.argmax(flat, axis=0)  # first max: lowest (cell, beam) wins ties
    serving, beam = np.divmod(pick, N_BEAMS_AZ * N_BEAMS_EL)
    return serving, beam, flat[pick, np.arange(n_ue)], beam_dirs, shadows


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


def propagation_residual_si_dbm(scenario, seed, node_idx, node, beam_dirs, beam_idx):
    """Residual SI after propagation-domain suppression only, per access beam:
    beam_dirs (n, 3) with indices beam_idx (n,).

    The reflected taps are redrawn per beam (the SI seen at the MT varies with
    the DU beam), from substream(seed, "si", node_idx, beam_idx); the MT keeps
    pointing at the donor.
    """
    rx_dir = scenario.mt_boresight(node)
    out = []
    for beam_dir, bi in zip(np.asarray(beam_dirs).tolist(), np.asarray(beam_idx).tolist()):
        cir = si_channel(
            SiGeometry(node.antenna_separation_m, tuple(beam_dir), rx_dir),
            node.pattern,
            node.pattern,
            scenario.reflectors,
            seed=substream(seed, "si", node_idx, bi).integers(2**63),
            carrier_freq_hz=scenario.carrier_freq_hz,
        )
        out.append(node.tx_power_dbm + cir.total_gain_db())
    return np.array(out)


def residual_si_dbm(scenario, mode, node, prop_residual_dbm):
    """Residual SI power entering the backhaul SINR for one node and mode,
    elementwise over the node's propagation-only residuals."""
    floor = scenario.noise.floor_dbm
    if mode in (Mode.HD, Mode.FIBERED, Mode.IDEAL_FD):
        return -np.inf
    if mode == Mode.FD_PROP_ONLY:
        return prop_residual_dbm
    if mode == Mode.FD_FULL:
        if node.residual_si_dbm is not None:
            return node.residual_si_dbm
        # Full chain lands the residual near the floor; it can never exceed
        # what propagation alone already achieved.
        return np.minimum(prop_residual_dbm, floor + scenario.full_sic_margin_db)
    raise ValueError(f"unknown mode {mode}")


def ue_throughput(
    mode,
    relayed,
    access_rx_dbm,
    backhaul_rx_dbm,
    access_noise_dbm,
    backhaul_noise_dbm,
    scenario,
    mcs=DEFAULT_MCS,
):
    """Downlink throughput of each UE under one configuration.

    Every argument after mode is a per-UE array or a scalar. In FD modes a
    relayed UE's access hop sees access_noise_dbm (noise plus DLI) and its
    backhaul hop backhaul_noise_dbm (noise plus residual SI), power sums
    from noise_plus_dbm; other modes see the noise floor. Returns the
    arrays (throughput_bps, access_sinr_db, backhaul_sinr_db). Donor-served
    and fibered UEs get their plain access capacity and a NaN backhaul SINR.
    Relayed FD UEs are bottlenecked by min(access with DLI, backhaul with
    residual SI). Relayed HD UEs time-share the two hops, optimal split,
    charged the guard overhead: (1-g) * Ca*Cb / (Ca+Cb).
    """
    mode = Mode(mode)
    floor = scenario.noise.floor_dbm
    bw = scenario.bandwidth_hz
    relayed = np.asarray(relayed, bool) & (mode != Mode.FIBERED)
    access_rx = np.asarray(access_rx_dbm, float)
    backhaul_rx = np.asarray(backhaul_rx_dbm, float)
    access_snr = access_rx - floor

    if mode in FD_MODES:
        # DLI degrades the access link, residual SI the backhaul link.
        access_sinr = np.where(relayed, access_rx - access_noise_dbm, access_snr)
        backhaul_sinr = backhaul_rx - backhaul_noise_dbm
    else:
        access_sinr = access_snr
        backhaul_sinr = backhaul_rx - floor
    backhaul_sinr = np.where(relayed, backhaul_sinr, np.nan)

    ca = capacity_bps(access_sinr, bw, mcs)
    cb = capacity_bps(np.where(relayed, backhaul_sinr, np.inf), bw, mcs)
    if mode == Mode.HD:
        with np.errstate(invalid="ignore"):  # 0/0 where both hops are in outage
            split = (1.0 - scenario.guard_overhead) * ca * cb / (ca + cb)
        relayed_thr = np.where((ca > 0.0) & (cb > 0.0), split, 0.0)
    else:
        relayed_thr = np.minimum(ca, cb)
    thr = np.where(relayed, relayed_thr, ca)
    return thr, access_sinr, backhaul_sinr


def run_drop(scenario, seed, modes=ALL_MODES, mcs=DEFAULT_MCS):
    """One deployment drop: schedule every UE once, evaluate every mode.

    Scheduling is max-SNR and mode-independent, so per-UE serving decisions
    are shared across the mode comparison, as in the reference topology.
    Deterministic per (scenario, seed).

    Returns the columns of throughput.csv, in its order, as numpy arrays:
    one row per (mode, UE), in the order of `modes` and by ue_id within a
    mode; serving_cell 0 is the donor. NaN marks a value that does not
    apply: the backhaul SINR of donor-served and fibered rows, and the DLI
    of those and of HD rows.
    """
    modes = [Mode(m) for m in modes]
    serving, beam, access_rx, beam_dirs, shadows = schedule_drop(scenario, seed)
    n_ue = serving.size
    relayed = serving > 0
    nodes = scenario.iab_nodes

    # Per-cell tables, indexed by serving cell; the donor has no backhaul.
    mt = np.array([scenario.donor.position] + [n.mt_position() for n in nodes])
    backhaul_rx = np.full(len(beam_dirs), np.nan)
    prop_residual = np.full(beam_dirs.shape[:2], np.nan)
    for ni, node in enumerate(nodes):
        backhaul_rx[ni + 1] = backhaul_rx_power_dbm(scenario, node)
        prop_residual[ni + 1] = propagation_residual_si_dbm(
            scenario, seed, ni, node, beam_dirs[ni + 1], np.arange(len(beam_dirs[ni + 1]))
        )

    ues = scenario.ue_grid.positions()
    floor = scenario.noise.floor_dbm
    dli = np.full(n_ue, np.nan)
    dli[relayed] = dli_power_dbm(
        scenario, mt[serving[relayed]], ues[relayed], shadows[0, relayed]
    )
    dli_noise = noise_plus_dbm(floor, dli)  # the same in every FD mode

    n_rows = len(modes) * n_ue
    cols = {
        "mode": np.repeat([m.value for m in modes], n_ue),
        "ue_id": np.tile(np.arange(n_ue), len(modes)),
        "serving_cell": np.tile(serving, len(modes)),
        "beam": np.tile(beam, len(modes)),
        "access_snr_db": np.tile(access_rx - floor, len(modes)),
        "access_sinr_db": np.empty(n_rows),
        "backhaul_sinr_db": np.empty(n_rows),
        "dli_power_dbm": np.empty(n_rows),
        "throughput_bps": np.empty(n_rows),
    }
    for k, mode in enumerate(modes):
        residual = np.full(prop_residual.shape, np.nan)
        for ni, node in enumerate(nodes):
            residual[ni + 1] = residual_si_dbm(scenario, mode, node, prop_residual[ni + 1])
        rows = slice(k * n_ue, (k + 1) * n_ue)
        thr, access_sinr, backhaul_sinr = ue_throughput(
            mode, relayed, access_rx, backhaul_rx[serving], dli_noise,
            noise_plus_dbm(floor, residual)[serving, beam], scenario, mcs,
        )
        cols["throughput_bps"][rows] = thr
        cols["access_sinr_db"][rows] = access_sinr
        cols["backhaul_sinr_db"][rows] = backhaul_sinr
        cols["dli_power_dbm"][rows] = dli if mode in FD_MODES else np.nan
    return cols


def cdf(values):
    """Empirical CDF points (sorted value, P(X <= value))."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        return np.array([]), np.array([])
    p = np.arange(1, v.size + 1) / v.size
    return v, p
