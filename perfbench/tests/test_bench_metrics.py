import pytest

import run

REF = run.CALIB_REF_S

# Three invocations and the calibration read around each. The second ran on a
# machine twice as slow as the reference.
TIMED = [
    {"wall_s": 1.0, "cpu_s": 0.9, "calib_s": REF, "problems": []},
    {"wall_s": 2.2, "cpu_s": 2.0, "calib_s": 2 * REF, "problems": []},
    {"wall_s": 1.3, "cpu_s": 1.2, "calib_s": 1.25 * REF, "problems": []},
]
FRESH = {"peak_rss_mib": 80.0, "problems": ["exit code 1"]}
PROBES = [
    {"setup_s": 0.2, "calib_s": REF},
    {"setup_s": 0.5, "calib_s": 2 * REF},
    {"setup_s": 0.1, "calib_s": REF},
]


def test_times_are_rescaled_to_the_reference_then_median():
    got = run.end_to_end(10, TIMED, FRESH, PROBES)
    # rescaled walls 1.0, 1.1, 1.04
    assert got["wall_s"] == pytest.approx(1.04)
    assert got["rows_per_s"] == pytest.approx(10 / 1.04)
    # rescaled cpu 0.9, 1.0, 0.96
    assert got["cpu_s"] == pytest.approx(0.96)
    # rescaled probes 0.2, 0.25, 0.1
    assert got["setup_s"] == pytest.approx(0.2)
    assert got["peak_rss_mib"] == 80.0
    assert got["ok_frac"] == pytest.approx(3 / 4)
