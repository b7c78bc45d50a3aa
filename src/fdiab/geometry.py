"""Propagation-domain model: path loss, directional antennas, SI channels, received power.

Everything here is a pure function of its inputs and a seed, so channel
realizations are bit-reproducible and safe to evaluate concurrently.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .util import SPEED_OF_LIGHT, FieldError, bounded, check_bounds, substream


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

    boresight_gain_dbi: float = 20.0
    beamwidth_3db_deg: float = bounded(12.0, "> 0")
    sidelobe_floor_dbi: float = -10.0
    polarization: str = "V"

    def __post_init__(self):
        check_bounds(self)
        if self.polarization not in ("V", "H"):
            raise FieldError("polarization", f"must be 'V' or 'H', got {self.polarization!r}")
        if not self.boresight_gain_dbi > self.sidelobe_floor_dbi:
            raise FieldError("", "boresight_gain_dbi must exceed sidelobe_floor_dbi")


def antenna_gain_dbi(pattern, offset_deg):
    """Pattern gain in dBi at an angular offset (degrees) from boresight."""
    # One fresh array worked in place; from a 0-d input, a faster numpy scalar.
    off = np.abs(np.asarray(offset_deg, dtype=float))
    off /= pattern.beamwidth_3db_deg
    off *= off
    off *= -12.0
    off += pattern.boresight_gain_dbi  # boresight - 12 * (offset / beamwidth)**2, bit for bit
    out = np.maximum(off, pattern.sidelobe_floor_dbi, out=off if off.ndim else None)
    return float(out) if out.ndim == 0 else out


def _dot(u, v):
    """Dot product over the last axis as u0*v0 + u1*v1 + u2*v2, in that order,
    summed in place in the first product: the one rounding rule for angles
    and path lengths. A BLAS ddot rounds some of these sums differently in
    the last bit."""
    out = u[..., 0] * v[..., 0]
    out += u[..., 1] * v[..., 1]
    out += u[..., 2] * v[..., 2]
    return out


def angle_between_deg(u, v):
    """Angle in degrees between direction vectors, elementwise over the
    broadcast rows of (..., 3) arrays; a float for two vectors."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    u_norm, v_norm = np.sqrt(_dot(u, u)), np.sqrt(_dot(v, v))
    if not (u_norm.all() and v_norm.all()):
        raise ValueError("direction vectors must be nonzero")
    out = _dot(u, v)
    out /= u_norm * v_norm
    into = out if out.ndim else None  # an array is worked in place
    out = np.minimum(np.maximum(out, -1.0, out=into), 1.0, out=into)
    out = np.degrees(np.arccos(out, out=into), out=into)
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
    los = np.asarray(rx_pos, float) - np.asarray(tx_pos, float)
    path_loss = fspl_db(np.sqrt(_dot(los, los)), freq_hz)
    out = np.asarray(antenna_gain_dbi(tx_pattern, angle_between_deg(beam_dirs, los)))
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
    Orientations are boresight direction vectors in the same frame; the
    defaults point both antennas at the horizon (90 degrees off the mast
    axis). cross_pol_isolation_db is 0 for co-polarized antennas.
    """

    antenna_separation_m: float
    tx_orientation: tuple = (1.0, 0.0, 0.0)
    rx_orientation: tuple = (1.0, 0.0, 0.0)
    cross_pol_isolation_db: float = 0.0

    def __post_init__(self):
        if self.antenna_separation_m <= 0.0:
            raise ValueError("antenna_separation_m must be positive")
        if self.cross_pol_isolation_db < 0.0:
            raise ValueError("cross_pol_isolation_db must be >= 0")


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
        if not self.delay_offset_range_s[0] > 0.0:
            got = list(self.delay_offset_range_s)
            raise FieldError("delay_offset_range_s", f"must fall behind the direct tap, got {got}")


@dataclass(frozen=True)
class ChannelImpulseResponse:
    """Tapped-delay-line channel: ((delay_s, complex gain), ...) pairs."""

    taps: tuple
    carrier_freq_hz: float

    def __post_init__(self):
        if len(self.taps) == 0:
            raise ValueError("channel needs at least one tap")
        delays = [float(t[0]) for t in self.taps]
        if delays[0] < 0.0 or any(b <= a for a, b in zip(delays, delays[1:])):
            raise ValueError("tap delays must be non-negative and strictly increasing")
        if self.total_power() <= 0.0:
            raise ValueError("channel must carry nonzero power")

    @property
    def delays_s(self):
        return np.array([t[0] for t in self.taps], dtype=float)

    @property
    def gains(self):
        return np.array([t[1] for t in self.taps], dtype=complex)

    def total_power(self):
        return self._power

    @functools.cached_property
    def _power(self):
        # Summed once per channel: the constructor's check needs it, and a
        # system drop reads it once per beam through total_gain_db.
        return float(np.sum(np.abs([t[1] for t in self.taps]) ** 2))

    def total_gain_db(self):
        """Tx-to-Rx power gain over all taps; negation is the SI suppression."""
        return float(10.0 * np.log10(self.total_power()))

    def freq_response(self, freqs_hz):
        """Baseband frequency response sum_i g_i * exp(-j*2*pi*f*tau_i)."""
        f = np.asarray(freqs_hz, dtype=float)
        phases = np.exp(-2j * np.pi * np.outer(f, self.delays_s))
        return phases @ self.gains


def si_channel(geom, tx_pat, rx_pat, reflector_cfg=None, seed=0, carrier_freq_hz=28e9):
    """SI channel impulse response for one DU/MT pair.

    Tap 0 is the direct path at delay d/c with amplitude set by Friis loss,
    cross-polarization isolation and both off-boresight antenna gains along
    the mast axis. With reflector_cfg set, seeded random reflection taps are
    appended. Identical (inputs, seed) give bit-identical output.
    """
    d = geom.antenna_separation_m
    direct_delay = d / SPEED_OF_LIGHT
    # Off-boresight angles toward the other antenna: DU looks down the mast
    # (-z), MT looks up (+z).
    theta_tx, theta_rx = angle_between_deg(
        (geom.tx_orientation, geom.rx_orientation), ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0))
    )
    amp_db = (
        -fspl_db(d, carrier_freq_hz)
        - geom.cross_pol_isolation_db
        + antenna_gain_dbi(tx_pat, theta_tx)
        + antenna_gain_dbi(rx_pat, theta_rx)
    )
    direct_amp = 10.0 ** (amp_db / 20.0)
    direct_gain = direct_amp * np.exp(-2j * np.pi * carrier_freq_hz * direct_delay)
    taps = [(direct_delay, complex(direct_gain))]

    if reflector_cfg is not None:
        rng = substream(seed, "si-reflections")
        k = int(rng.integers(reflector_cfg.min_taps, reflector_cfg.max_taps + 1))
        if k > 0:
            lo, hi = reflector_cfg.delay_offset_range_s
            delays = np.sort(direct_delay + rng.uniform(lo, hi, size=k))
            rel_db = rng.uniform(*reflector_cfg.rel_power_range_db, size=k)
            phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
            gains = direct_amp * 10.0 ** (-rel_db / 20.0) * np.exp(1j * phases)
            taps.extend(zip(delays.tolist(), gains.tolist()))

    return ChannelImpulseResponse(taps=tuple(taps), carrier_freq_hz=carrier_freq_hz)

