"""Reference dataset from the 28 GHz rooftop measurement campaign and the
comparison run against the simulated propagation-only chain.

Only the three per-separation mean suppressions are measured ground truth;
the per-azimuth rows are reconstructed to match those means exactly with a
qualitative +-8 dB spread, and every row carries a reconstructed flag.
The measurement environment (surrounding reflectors, absorbing mast) differs
from the simulated one, so the report makes no pass/fail claim.
"""

import numpy as np

from .geometry import AntennaPattern, ReflectorConfig, SiGeometry, si_channel, total_gain_db
from .util import substream

# Measured mean propagation-domain SI suppression per antenna separation.
PAPER_MEAN_SUPPRESSION_DB = {2.0: 100.125, 1.0: 97.26, 0.1: 82.18}

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
    seps = sorted(PAPER_MEAN_SUPPRESSION_DB, reverse=True)
    measured = []
    for sep in seps:
        rng = substream(_DATASET_SEED, "spread", sep)
        mags = np.round(rng.uniform(0.4, _MAX_SPREAD_DB, size=len(_AZIMUTHS_DEG) // 2), 2)
        offsets = np.concatenate([mags, -mags])
        rng.shuffle(offsets)
        measured.append(PAPER_MEAN_SUPPRESSION_DB[sep] + offsets)
    return {
        "separation_m": np.repeat(seps, len(_AZIMUTHS_DEG)),
        "relative_azimuth_deg": np.tile(_AZIMUTHS_DEG, len(seps)),
        "measured_suppression_db": np.concatenate(measured),
        "reconstructed": np.ones(len(seps) * len(_AZIMUTHS_DEG), bool),
    }


def simulate_suppression_db(separation_m, relative_azimuth_deg, seed):
    """Propagation-only suppression at the prototype's parameters.

    Both antennas point at the horizon; the Rx is rotated in azimuth relative
    to the Tx. Suppression is Tx power minus total received SI power.
    """
    az = np.radians(relative_azimuth_deg)
    rx_dir = (float(np.cos(az)), float(np.sin(az)), 0.0)
    geom = SiGeometry(separation_m, (1.0, 0.0, 0.0), rx_dir)
    draw_seed = substream(seed, "proto", separation_m, relative_azimuth_deg).integers(2**63)
    rng = substream(draw_seed, "si-reflections")
    _, gains = si_channel(geom, PROTOTYPE_PATTERN, PROTOTYPE_PATTERN, ReflectorConfig(), rng=rng)
    return -total_gain_db(gains)


def compare_prototype(seed=0):
    """Measured vs simulated suppression, row by row plus per-separation means.

    Returns the columns of compare_prototype.csv, the reference dataset with
    simulated_suppression_db, and of compare_summary.csv: separation_m
    ascending, measured_mean_db, simulated_mean_db and delta_db.
    """
    ref = reference_dataset()
    pairs = zip(ref["separation_m"].tolist(), ref["relative_azimuth_deg"].tolist())
    simulated = np.array([simulate_suppression_db(sep, az, seed) for sep, az in pairs])
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
