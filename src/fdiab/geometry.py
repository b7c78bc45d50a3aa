"""Propagation-domain model: path loss, directional antennas, SI channels, received power.

Everything here is a pure function of its inputs and, for the SI
reflections, of the Generator passed in, so channel realizations are
bit-reproducible and safe to evaluate concurrently.
"""

from dataclasses import MISSING, dataclass

import numpy as np

from .util import SPEED_OF_LIGHT, FieldError, bounded, check_bounds


def fspl_db(distance_m, freq_hz):
    """Friis free-space path loss 20*log10(4*pi*d*f/c) in dB."""
    d = np.asarray(distance_m, dtype=float)
    f = np.asarray(freq_hz, dtype=float)
    if (d <= 0.0).any() or (f <= 0.0).any():
        raise ValueError("fspl_db requires distance_m > 0 and freq_hz > 0")
    out = 20.0 * np.log10(4.0 * np.pi * d * f / SPEED_OF_LIGHT)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AntennaPattern:
    """Gaussian-mainlobe directional antenna with a hard sidelobe floor.

    Gain at angular offset theta from boresight is
    G(theta) = boresight_gain_dbi - 12*(theta/beamwidth_3db_deg)^2, clamped
    below at sidelobe_floor_dbi, so the offset beamwidth/2 sits exactly 3 dB
    down.
    """

    boresight_gain_dbi: float = bounded(20.0, "<= 100")
    beamwidth_3db_deg: float = bounded(12.0, "> 0")
    sidelobe_floor_dbi: float = -10.0
    polarization: str = "V"

    def __post_init__(self):
        check_bounds(self)
        if self.polarization not in ("V", "H"):
            raise FieldError("polarization", f"must be 'V' or 'H', got {self.polarization!r}")
        if not self.boresight_gain_dbi > self.sidelobe_floor_dbi:
            raise FieldError("", "boresight_gain_dbi must exceed sidelobe_floor_dbi")


def antenna_gain_dbi(pattern, offset_deg, out=None):
    """Pattern gain in dBi at an angular offset (degrees) from boresight; with
    out, a float array of offset_deg's shape (offset_deg itself, say), the
    gains are written into it."""
    # One array worked in place; from a 0-d input, a faster numpy scalar. The
    # offset needs no abs, as a quotient's sign leaves its square as it is.
    off = np.divide(offset_deg, pattern.beamwidth_3db_deg, out=out, dtype=float)
    off *= off
    off *= -12.0
    off += pattern.boresight_gain_dbi  # boresight - 12 * (offset / beamwidth)**2, bit for bit
    out = np.maximum(off, pattern.sidelobe_floor_dbi, out=off if off.ndim else None)
    return float(out) if out.ndim == 0 else out


def _dot(u, v):
    """(u0*v0 + u1*v1 + u2*v2 over the last axis, summed in that order in the
    first product, an array, 0-d for two vectors; the array of its shape that
    held the other products): the one rounding rule for angles and path
    lengths. A BLAS ddot rounds some of these sums differently in the last bit."""
    out = np.asarray(u[..., 0] * v[..., 0])
    term = np.empty_like(out)
    out += np.multiply(u[..., 1], v[..., 1], out=term)
    out += np.multiply(u[..., 2], v[..., 2], out=term)
    return out, term


def angle_between_deg(u, v):
    """Angle in degrees between direction vectors, elementwise over the
    broadcast rows of (..., 3) arrays; a float for two vectors."""
    u, v = np.asarray(u, float), np.asarray(v, float)
    u_norm, v_norm = np.sqrt(_dot(u, u)[0]), np.sqrt(_dot(v, v)[0])
    if not (u_norm.all() and v_norm.all()):
        raise ValueError("direction vectors must be nonzero")
    out, scratch = _dot(u, v)  # the only arrays of the broadcast shape made
    out /= np.multiply(u_norm, v_norm, out=scratch)
    np.clip(out, -1.0, 1.0, out=out)
    np.arccos(out, out=out)
    out *= 180.0 / np.pi  # np.degrees' own formula, so the same bits
    return float(out) if out.ndim == 0 else out


def rx_dbm(tx_pos, tx_power_dbm, tx_pattern, beam_dirs, rx_pos, freq_hz, rx_gain_dbi, shadow_db):
    """Received power in dBm from a transmitter at tx_pos whose beam points
    along beam_dirs, at receivers rx_pos with gain rx_gain_dbi.

    tx power + pattern gain at the off-boresight angle + rx gain - Friis
    loss - shadowing, summed in that order in the gain array. beam_dirs
    (..., 3) broadcasts against rx_pos (..., 3), the rest into that shape:
    (beams, 1, 3) against (n, 3) gives every (beam, receiver) pair, and one
    beam and one receiver a float. Coincident positions raise in fspl_db.
    """
    # Column-major, so each line-of-sight component is one contiguous array.
    los = np.subtract(np.asarray(rx_pos, float), np.asarray(tx_pos, float), order="F")
    path_loss = fspl_db(np.sqrt(_dot(los, los)[0]), freq_hz)
    out = np.asarray(angle_between_deg(beam_dirs, los))
    out = np.asarray(antenna_gain_dbi(tx_pattern, out, out=out))
    np.add(tx_power_dbm, out, out=out)
    out += rx_gain_dbi
    out -= path_loss
    out -= shadow_db
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SiGeometry:
    """DU-to-MT self-interference geometry on one mast.

    The DU (tx) sits antenna_separation_m above the MT (rx) along +z, so the
    direct SI ray leaves the DU toward -z and arrives at the MT from +z.
    Orientations are boresight direction vectors in the same frame, one (3,)
    vector or (n, 3) rows, tx rows broadcast against rx rows; the defaults
    point both antennas at the horizon (90 degrees off the mast axis).
    cross_pol_isolation_db is 0 for co-polarized antennas.
    """

    antenna_separation_m: float = bounded(MISSING, "> 0, < inf")
    tx_orientation: tuple = (1.0, 0.0, 0.0)
    rx_orientation: tuple = (1.0, 0.0, 0.0)
    cross_pol_isolation_db: float = bounded(0.0, ">= 0, < inf")

    def __post_init__(self):
        check_bounds(self)
        for name in ("tx_orientation", "rx_orientation"):
            if not np.isfinite(getattr(self, name)).all():
                raise FieldError(name, f"must be finite, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class ReflectorConfig:
    """Seeded random reflections added behind the direct SI path.

    Per realization the tap count is uniform in [min_taps, max_taps], excess
    delays are uniform in delay_offset_range_s after the direct tap, and tap
    powers are uniform in rel_power_range_db below the direct tap with
    uniform phases.
    """

    min_taps: int = bounded(0, ">= 0")
    max_taps: int = bounded(6, ">= 0")
    delay_offset_range_s: tuple[float, float] = (1e-9, 20e-9)
    rel_power_range_db: tuple[float, float] = (15.0, 30.0)

    def __post_init__(self):
        check_bounds(self)
        if self.min_taps > self.max_taps:
            raise FieldError("min_taps", "must be <= max_taps")
        lo, hi = self.delay_offset_range_s
        if not 0.0 < lo < hi:  # the reflections follow the direct tap, in delay order
            msg = f"must be [lo, hi] with 0 < lo < hi, behind the direct tap, got {[lo, hi]}"
            raise FieldError("delay_offset_range_s", msg)


def total_gain_db(gains):
    """Tx-to-Rx power gain in dB over the complex tap gains of an SI channel;
    its negation is the propagation-domain SI suppression."""
    return float(10.0 * np.log10(np.sum(np.abs(gains) ** 2)))


def direct_si_taps(geom, tx_pat, rx_pat, carrier_freq_hz=28e9):
    """The direct SI tap of each broadcast row of geom's tx and rx
    orientations, as one (delay_s, amp, gain) triple per row: the delay d/c,
    which every row shares, the amplitude set by Friis loss,
    cross-polarization isolation and both off-boresight antenna gains along
    the mast axis, and the complex gain amp * exp(-2j*pi*f*d/c). A row whose
    tap power underflows to 0 raises FieldError at "pattern"."""
    d = geom.antenna_separation_m
    delay = d / SPEED_OF_LIGHT
    # Off-boresight angles toward the other antenna, (2, n, 3) rows against
    # (2, 1, 3) axes: DU looks down the mast (-z), MT looks up (+z).
    rows = np.broadcast_arrays(*map(np.atleast_2d, (geom.tx_orientation, geom.rx_orientation)))
    theta_tx, theta_rx = angle_between_deg(rows, [[(0.0, 0.0, -1.0)], [(0.0, 0.0, 1.0)]])
    amp_db = (
        -fspl_db(d, carrier_freq_hz)
        - geom.cross_pol_isolation_db
        + antenna_gain_dbi(tx_pat, theta_tx)
        + antenna_gain_dbi(rx_pat, theta_rx)
    )
    # Python's pow per row: numpy's SIMD power can round the last bit differently.
    amps = [10.0 ** x for x in (amp_db / 20.0).tolist()]
    for amp, db in zip(amps, amp_db.tolist()):
        if amp**2 == 0.0:  # every tap's gain is a fraction of the direct tap's
            msg = f"gives the direct SI path {db:.4g} dB, which carries no power"
            raise FieldError("pattern", msg)
    phasor = np.exp(-2j * np.pi * carrier_freq_hz * delay)
    return [(delay, amp, amp * phasor) for amp in amps]


def si_channel(direct_tap, reflector_cfg=None, rng=None):
    """One beam's SI channel as two arrays (delays_s, gains), the taps'
    delays in seconds and complex gains: direct_tap, a (delay_s, amp, gain)
    triple of direct_si_taps, then, with reflector_cfg set, reflections drawn
    from the Generator rng (the tap count, then the delays, powers and
    phases). Identical inputs and rng state give bit-identical output."""
    if reflector_cfg is not None and rng is None:
        raise ValueError("si_channel: reflector_cfg needs rng, the Generator of its draws")
    delay, amp, gain = direct_tap
    k = 0
    if reflector_cfg is not None:
        k = int(rng.integers(reflector_cfg.min_taps, reflector_cfg.max_taps + 1))
    delays, gains = np.empty(1 + k), np.empty(1 + k, complex)  # filled in place
    delays[0], gains[0] = delay, gain
    if k > 0:
        np.add(rng.uniform(*reflector_cfg.delay_offset_range_s, size=k), delay, out=delays[1:])
        delays[1:].sort()
        # amp * 10 ** (-rel_db / 20) * exp(1j * phases), each step rounded as written there
        scale = np.power(10.0, rng.uniform(*reflector_cfg.rel_power_range_db, size=k) / -20.0)
        scale *= amp
        np.multiply(scale, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=k)), out=gains[1:])
    return delays, gains
