import numpy as np
import pytest

from fdiab.prototype import (
    PAPER_MEAN_SUPPRESSION_DB,
    PROTOTYPE_PATTERN,
    compare_prototype,
    simulate_suppression_db,
)


def mean_at(values, separation_m, separations):
    return float(np.mean(values[separations == separation_m]))


def test_prototype_pattern_values():
    assert PROTOTYPE_PATTERN.boresight_gain_dbi == 19.86
    assert PROTOTYPE_PATTERN.beamwidth_3db_deg == 13.4


def test_simulated_suppression_monotone_in_separation():
    sims = [
        np.mean(simulate_suppression_db(sep, range(-180, 180, 30), seed=1))
        for sep in (0.1, 1.0, 2.0)
    ]
    assert sims[0] < sims[1] < sims[2]


def test_compare_report_structure():
    rows, summary = compare_prototype(seed=0)
    assert list(rows) == ["separation_m", "relative_azimuth_deg", "simulated_suppression_db"]
    assert all(v.shape == (3 * 36,) for v in rows.values())
    assert list(summary) == ["separation_m", "measured_mean_db", "simulated_mean_db", "delta_db"]
    assert summary["separation_m"].tolist() == [0.1, 1.0, 2.0]
    for i, sep in enumerate(summary["separation_m"]):
        measured, simulated = summary["measured_mean_db"][i], summary["simulated_mean_db"][i]
        assert measured == PAPER_MEAN_SUPPRESSION_DB[sep]
        assert summary["delta_db"][i] == pytest.approx(simulated - measured)
        assert simulated == mean_at(rows["simulated_suppression_db"], sep, rows["separation_m"])
    sim_means = summary["simulated_mean_db"]
    assert sim_means[0] < sim_means[1] < sim_means[2]
