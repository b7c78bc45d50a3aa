"""Reference dataset from the 28 GHz rooftop measurement campaign and the
comparison run against the simulated propagation-only chain.

Only the three per-separation mean suppressions are measured ground truth;
the per-azimuth rows are reconstructed to match those means exactly with a
qualitative +-8 dB spread, and every row carries a reconstructed flag.
The measurement environment (surrounding reflectors, absorbing mast) differs
from the simulated one, so the report makes no pass/fail claim.
"""

import numpy as np

from .geometry import (
    AntennaPattern, ReflectorConfig, SiGeometry, direct_si_taps, si_channel, total_gain_db,
)
from .util import substream

# Measured mean propagation-domain SI suppression per antenna separation.
PAPER_MEAN_SUPPRESSION_DB = {2.0: 100.125, 1.0: 97.26, 0.1: 82.18}
_SEPARATIONS_M = sorted(PAPER_MEAN_SUPPRESSION_DB, reverse=True)  # the datasets' row order

# Lens antennas used on the prototype.
PROTOTYPE_PATTERN = AntennaPattern(
    boresight_gain_dbi=19.86, beamwidth_3db_deg=13.4, sidelobe_floor_dbi=-10.0
)

_AZIMUTHS_DEG = tuple(float(a) for a in range(-180, 180, 10))  # 36 points
_DATASET_SEED = 20260408
_MAX_SPREAD_DB = 8.0


def reference_dataset():
    """Shipped per-azimuth dataset as columns of compare_prototype.csv:
    separation_m, relative_azimuth_deg, measured_suppression_db and
    reconstructed, one row per (separation, azimuth). Per-separation means
    equal the measured values to double precision because the spread comes
    in exact +-pairs."""
    measured = []
    for sep in _SEPARATIONS_M:
        rng = substream(_DATASET_SEED, "spread", sep)
        mags = np.round(rng.uniform(0.4, _MAX_SPREAD_DB, size=len(_AZIMUTHS_DEG) // 2), 2)
        offsets = np.concatenate([mags, -mags])
        rng.shuffle(offsets)
        measured.append(PAPER_MEAN_SUPPRESSION_DB[sep] + offsets)
    return {
        "separation_m": np.repeat(_SEPARATIONS_M, len(_AZIMUTHS_DEG)),
        "relative_azimuth_deg": np.tile(_AZIMUTHS_DEG, len(_SEPARATIONS_M)),
        "measured_suppression_db": np.concatenate(measured),
        "reconstructed": np.ones(len(_SEPARATIONS_M) * len(_AZIMUTHS_DEG), bool),
    }


def simulate_suppression_db(separation_m, relative_azimuths_deg, seed):
    """Propagation-only suppression at the prototype's parameters, one value
    per relative azimuth, from one direct_si_taps pass over them all.

    Both antennas point at the horizon; the Rx is rotated in azimuth relative
    to the Tx. Suppression is Tx power minus total received SI power.
    """
    az = np.radians(relative_azimuths_deg)
    rx_dirs = np.stack([np.cos(az), np.sin(az), np.zeros_like(az)], axis=-1)
    geom = SiGeometry(separation_m, (1.0, 0.0, 0.0), rx_dirs)
    taps = direct_si_taps(geom, PROTOTYPE_PATTERN, PROTOTYPE_PATTERN)
    out = []
    for azimuth, tap in zip(relative_azimuths_deg, taps):
        draw_seed = substream(seed, "proto", separation_m, azimuth).integers(2**63)
        _, gains = si_channel(tap, ReflectorConfig(), substream(draw_seed, "si-reflections"))
        out.append(-total_gain_db(gains))
    return np.array(out)


def compare_prototype(seed=0):
    """Measured vs simulated suppression, row by row plus per-separation means.

    Returns the columns of compare_prototype.csv, the reference dataset with
    simulated_suppression_db, and of compare_summary.csv: separation_m
    ascending, measured_mean_db, simulated_mean_db and delta_db.
    """
    ref = reference_dataset()
    sims = [simulate_suppression_db(sep, _AZIMUTHS_DEG, seed) for sep in _SEPARATIONS_M]
    simulated = np.concatenate(sims)
    rows = {c: ref[c] for c in ("separation_m", "relative_azimuth_deg", "measured_suppression_db")}
    rows.update(simulated_suppression_db=simulated, reconstructed=ref["reconstructed"])
    seps = np.unique(ref["separation_m"])
    at = [ref["separation_m"] == sep for sep in seps]
    measured_mean = np.array([np.mean(ref["measured_suppression_db"][m]) for m in at])
    simulated_mean = np.array([np.mean(simulated[m]) for m in at])
    summary = {
        "separation_m": seps,
        "measured_mean_db": measured_mean,
        "simulated_mean_db": simulated_mean,
        "delta_db": simulated_mean - measured_mean,
    }
    return rows, summary
