import csv
import os

import pytest

from checks import HashBook, check_invocation, sha256_file
from fdiab.cli import main

SCENARIO = os.path.join(os.path.dirname(__file__), "..", "..", "scenarios", "default.json")


@pytest.fixture(scope="module")
def system_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("system"))
    argv = ["system-sim", "--scenario", SCENARIO, "--seed", "5", "--out", out]
    assert main(argv + ["--set", "ue_grid.nx=4", "--set", "ue_grid.ny=4"]) == 0
    return out


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sweep"))
    grid = ["--grid", "iab_nodes.*.antenna_separation_m=0.1,1", "--drops", "1"]
    assert main(["sweep", "--scenario", SCENARIO, "--seed", "5", "--out", out, *grid]) == 0
    return out


def _rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        columns = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_clean_outputs_pass(system_out, sweep_out):
    problems, hashes, props = check_invocation("system-sim", 0, system_out, 80)
    assert problems == []
    assert set(hashes) == {"throughput.csv", "cdf.csv"}
    assert props["ues"] == 16 and props["rows"] == 80
    problems, _, props = check_invocation("sweep", 0, sweep_out, 4)
    assert problems == []
    assert props["chains"] == 4 and props["analog_engaged_share"] == 0.5


def test_nonzero_exit_fails(system_out):
    problems, hashes, _ = check_invocation("system-sim", 1, system_out, 80)
    assert problems == ["exit code 1"] and hashes == {}


def test_wrong_row_count_fails(system_out):
    problems, _, _ = check_invocation("system-sim", 0, system_out, 81)
    assert problems == ["80 rows, expected 81"]


def test_flipped_byte_is_flagged(tmp_path, system_out):
    path = tmp_path / "throughput.csv"
    path.write_bytes(open(os.path.join(system_out, "throughput.csv"), "rb").read())
    book = HashBook(str(tmp_path / "book.json"))
    assert book.record("k", {"throughput.csv": sha256_file(path)}) == []
    data = bytearray(path.read_bytes())
    data[-2] ^= 0x01
    path.write_bytes(bytes(data))
    assert book.record("k", {"throughput.csv": sha256_file(path)}) == ["throughput.csv"]


def test_hashbook_persists_between_runs(tmp_path):
    book = HashBook(str(tmp_path / "book.json"))
    book.record("k", {"a.csv": "00"})
    book.save()
    assert HashBook(str(tmp_path / "book.json")).record("k", {"a.csv": "11"}) == ["a.csv"]


def test_mode_ordering_violation_is_flagged(tmp_path, system_out):
    out = tmp_path / "out"
    out.mkdir()
    for name in ("throughput.csv", "cdf.csv"):
        (out / name).write_bytes(open(os.path.join(system_out, name), "rb").read())

    def raise_fd_full(rows):
        ue = next(r["ue_id"] for r in rows if r["mode"] == "ideal_fd")
        for r in rows:
            if r["ue_id"] == ue and r["mode"] == "fd_full":
                r["throughput_bps"] = "1e12"

    _rewrite(out / "throughput.csv", raise_fd_full)
    problems, _, _ = check_invocation("system-sim", 0, str(out), 80)
    assert len(problems) == 1 and "ordering" in problems[0]


def _bump(row, column, delta):
    row[column] = repr(float(row[column]) + delta)


def _break_sum(row):
    _bump(row, "digital_db", 5.0)


def _break_monotone(row):
    # lift the post-analog power above the post-propagation power and move
    # the difference between the analog and digital shares, so the per-domain
    # sum still matches the total
    delta = float(row["after_propagation_dbm"]) - float(row["after_analog_dbm"]) + 5.0
    _bump(row, "after_analog_dbm", delta)
    _bump(row, "analog_db", -delta)
    _bump(row, "digital_db", delta)


@pytest.mark.parametrize(
    "edit, message", [(_break_sum, "do not sum to the total"), (_break_monotone, "stage power increased")]
)
def test_reduction_invariants_are_flagged(tmp_path, sweep_out, edit, message):
    out = tmp_path / "out"
    out.mkdir()
    (out / "sweep.csv").write_bytes(open(os.path.join(sweep_out, "sweep.csv"), "rb").read())
    _rewrite(out / "sweep.csv", lambda rows: edit(rows[0]))
    problems, _, _ = check_invocation("sweep", 0, str(out), 4)
    assert len(problems) == 1 and message in problems[0], problems
