"""The 28 GHz rooftop measurement campaign's mean suppressions and the
comparison run against the simulated propagation-only chain.

Only the three per-separation mean suppressions are measured, so the
comparison sets the simulated per-azimuth values beside them only through
their means. The measurement environment (surrounding reflectors, absorbing
mast) differs from the simulated one, so the report makes no pass/fail claim.
"""

import numpy as np

from .geometry import (
    AntennaPattern, ReflectorConfig, SiGeometry, direct_si_taps, si_channel, total_gain_db,
)
from .util import substream

# Measured mean propagation-domain SI suppression per antenna separation.
PAPER_MEAN_SUPPRESSION_DB = {2.0: 100.125, 1.0: 97.26, 0.1: 82.18}
_SEPARATIONS_M = sorted(PAPER_MEAN_SUPPRESSION_DB, reverse=True)  # compare_prototype.csv's order
PROTOTYPE_CARRIER_HZ = 28e9

# Lens antennas used on the prototype.
PROTOTYPE_PATTERN = AntennaPattern(
    boresight_gain_dbi=19.86, beamwidth_3db_deg=13.4, sidelobe_floor_dbi=-10.0
)

_AZIMUTHS_DEG = tuple(float(a) for a in range(-180, 180, 10))  # 36 points


def simulate_suppression_db(separation_m, relative_azimuths_deg, seed):
    """Propagation-only suppression at the prototype's parameters, one value
    per relative azimuth, from one direct_si_taps pass over them all.

    Both antennas point at the horizon; the Rx is rotated in azimuth relative
    to the Tx. Suppression is Tx power minus total received SI power.
    """
    az = np.radians(relative_azimuths_deg)
    rx_dirs = np.stack([np.cos(az), np.sin(az), np.zeros_like(az)], axis=-1)
    geom = SiGeometry(separation_m, (1.0, 0.0, 0.0), rx_dirs)
    taps = direct_si_taps(geom, PROTOTYPE_PATTERN, PROTOTYPE_PATTERN, PROTOTYPE_CARRIER_HZ)
    out = []
    for azimuth, tap in zip(relative_azimuths_deg, taps):
        draw_seed = substream(seed, "proto", separation_m, azimuth).integers(2**63)
        _, gains = si_channel(tap, ReflectorConfig(), substream(draw_seed, "si-reflections"))
        out.append(-total_gain_db(gains))
    return np.array(out)


def compare_prototype(seed):
    """Simulated suppression per azimuth, and measured against simulated per separation.

    Returns the columns of compare_prototype.csv, separation_m,
    relative_azimuth_deg and simulated_suppression_db, one row per
    (separation, azimuth), and of compare_summary.csv: separation_m
    ascending, measured_mean_db (PAPER_MEAN_SUPPRESSION_DB),
    simulated_mean_db and delta_db.
    """
    sims = [simulate_suppression_db(sep, _AZIMUTHS_DEG, seed) for sep in _SEPARATIONS_M]
    rows = {
        "separation_m": np.repeat(_SEPARATIONS_M, len(_AZIMUTHS_DEG)),
        "relative_azimuth_deg": np.tile(_AZIMUTHS_DEG, len(_SEPARATIONS_M)),
        "simulated_suppression_db": np.concatenate(sims),
    }
    seps = _SEPARATIONS_M[::-1]
    measured_mean = np.array([PAPER_MEAN_SUPPRESSION_DB[sep] for sep in seps])
    simulated_mean = np.array([np.mean(sim) for sim in sims[::-1]])
    summary = {
        "separation_m": np.array(seps),
        "measured_mean_db": measured_mean,
        "simulated_mean_db": simulated_mean,
        "delta_db": simulated_mean - measured_mean,
    }
    return rows, summary
