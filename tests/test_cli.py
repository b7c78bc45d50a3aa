import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdiab import cli
from fdiab.cli import _write_columns, main, sweep_workers
from fdiab.scenario import apply_overrides, save_scenario, scenario_from_dict, scenario_to_dict
from fdiab.system import default_scenario

SCENARIO = os.path.join(os.path.dirname(__file__), "..", "scenarios", "default.json")

SMALL = ["--set", "ue_grid.nx=5", "--set", "ue_grid.ny=5"]


@pytest.fixture()
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(default_scenario(), path)
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def sidecar_without_timestamp(path):
    with open(path) as fh:
        data = json.load(fh)
    data.pop("timestamp")
    return data


class TestLinkSim:
    def test_writes_reduction_csv_and_sidecar(self, scenario_path, tmp_path):
        out = tmp_path / "out"
        rc = main(["link-sim", "--scenario", scenario_path, "--seed", "7", "--out", str(out)])
        assert rc == 0
        body = read(out / "reduction.csv").decode()
        header = body.splitlines()[0]
        assert header.startswith("node,antenna_separation_m,seed,tx_power_dbm")
        assert len(body.splitlines()) == 3  # header + one row per node
        side = sidecar_without_timestamp(out / "run.json")
        assert side["command"] == "link-sim" and side["seed"] == 7

    def test_byte_identical_reruns(self, scenario_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["link-sim", "--scenario", scenario_path, "--seed", "3", "--out", str(out)]) == 0
            outs.append(out)
        assert read(outs[0] / "reduction.csv") == read(outs[1] / "reduction.csv")
        assert sidecar_without_timestamp(outs[0] / "run.json") == sidecar_without_timestamp(
            outs[1] / "run.json"
        )


class TestSystemSim:
    def test_outputs_and_determinism(self, scenario_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(
                ["system-sim", "--scenario", scenario_path, "--seed", "11", "--out", str(out)]
                + SMALL
            )
            assert rc == 0
            outs.append(out)
        assert read(outs[0] / "throughput.csv") == read(outs[1] / "throughput.csv")
        assert read(outs[0] / "cdf.csv") == read(outs[1] / "cdf.csv")
        body = read(outs[0] / "throughput.csv").decode().splitlines()
        assert body[0] == "mode,ue_id,serving_cell,beam,access_snr_db,access_sinr_db,backhaul_sinr_db,dli_power_dbm,throughput_bps"
        assert len(body) == 1 + 25 * 5

    def test_mode_subset(self, scenario_path, tmp_path):
        out = tmp_path / "m"
        rc = main(
            ["system-sim", "--scenario", scenario_path, "--seed", "1", "--out", str(out),
             "--modes", "hd,fibered"] + SMALL
        )
        assert rc == 0
        body = read(out / "cdf.csv").decode()
        assert "fd_full" not in body and "hd" in body


class TestSidecar:
    MINIMAL = {"donor": {"position": [0.0, 0.0, 100.0]}}

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("link-sim", []),
            ("system-sim", ["--modes", "hd"]),
            ("sweep", ["--grid", "noise_figure_db=3"]),
        ],
    )
    def test_resolved_scenario_round_trips(self, tmp_path, command, extra):
        path = tmp_path / "min.json"
        path.write_text(json.dumps(self.MINIMAL))
        overrides = ["--set", "ue_grid.nx=3", "--set", "ue_grid.ny=2"]
        outs = [tmp_path / name for name in ("a", "b")]
        for out in outs:
            argv = [command, "--scenario", str(path), "--seed", "4", "--out", str(out)]
            assert main(argv + overrides + extra) == 0
        side = sidecar_without_timestamp(outs[0] / "run.json")
        assert side == sidecar_without_timestamp(outs[1] / "run.json")
        run_scenario = scenario_from_dict(apply_overrides(dict(self.MINIMAL), overrides[1::2]))
        assert scenario_from_dict(side["resolved_scenario"]) == run_scenario
        assert side["resolved_scenario"] == scenario_to_dict(run_scenario)


class TestSweep:
    def test_grid_rows_and_monotone_propagation(self, scenario_path, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            ["sweep", "--scenario", scenario_path, "--seed", "5", "--out", str(out),
             "--grid", "iab_nodes.*.antenna_separation_m=0.1,1,2"]
        )
        assert rc == 0
        lines = read(out / "sweep.csv").decode().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 3 * 2  # three cells x two nodes
        by_sep = {}
        for r in rows:
            by_sep.setdefault(float(r["iab_nodes.*.antenna_separation_m"]), []).append(
                float(r["propagation_db"])
            )
        means = [sum(v) / len(v) for _, v in sorted(by_sep.items())]
        assert means[0] < means[1] < means[2]

    def test_parallel_matches_sequential(self, scenario_path, tmp_path):
        cmd = [
            sys.executable, "-m", "fdiab.cli", "sweep",
            "--scenario", scenario_path, "--seed", "5",
            "--grid", "iab_nodes.*.antenna_separation_m=0.1,1,2",
        ]
        outs = {}
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}"
            env = dict(os.environ, FDIAB_THREADS=threads)
            res = subprocess.run(
                cmd + ["--out", str(out)], env=env, capture_output=True, text=True
            )
            assert res.returncode == 0, res.stderr
            outs[threads] = read(out / "sweep.csv")
        assert outs["1"] == outs["3"]


# sweep --grid iab_nodes.*.antenna_separation_m=0.1,1,2 --drops 1 --seed 0 over
# scenarios/default.json. Change these on purpose only, when the chain's
# output is meant to move.
GOLDEN_SWEEP = """\
cell,drop,iab_nodes.*.antenna_separation_m,node,antenna_separation_m,seed,tx_power_dbm,after_propagation_dbm,after_analog_dbm,after_digital_dbm,propagation_db,analog_db,digital_db,noise_floor_dbm,analog_applied,gray_zone_ok,digital_saturated,holdout_residual_dbm
0,0,0.1,0,0.1,7641905497107630166,31.9749820549,-29.515328366,-38.5848851259,-89.9286409215,61.4903104209,9.0695567599,51.3437557956,-90.2081875395,true,true,false,-89.9409794975
0,0,0.1,1,0.1,8292628241887650774,31.9698133672,-29.3414731697,-50.4209638208,-90.2253912374,61.3112865369,21.0794906512,39.8044274165,-90.2081875395,true,true,false,-90.1318474383
1,0,1,0,1,2802070219553558219,31.9737212141,-48.6795298437,-48.6795298437,-90.2255401112,80.6532510578,0,41.5460102675,-90.2081875395,false,true,false,-90.1740219319
1,0,1,1,1,3356091845602939886,31.9657866284,-49.8636561487,-49.8636561487,-90.166495048,81.8294427771,0,40.3028388993,-90.2081875395,false,true,false,-90.1865695001
2,0,2,0,2,1633661671141348558,31.9690665129,-55.4426307637,-55.4426307637,-90.1555292816,87.4116972766,0,34.7128985179,-90.2081875395,false,true,false,-90.1578338221
2,0,2,1,2,8746855754193636803,31.974700586,-54.670799354,-54.670799354,-90.2525482547,86.6454999401,0,35.5817489006,-90.2081875395,false,true,false,-90.1827654494
"""


def test_sweep_matches_golden_values(tmp_path):
    """Pins the link chain's output: integers and flags exactly, numbers to 1e-6 dB."""
    out = tmp_path / "sweep"
    rc = main(
        ["sweep", "--scenario", SCENARIO, "--seed", "0", "--drops", "1", "--out", str(out),
         "--grid", "iab_nodes.*.antenna_separation_m=0.1,1,2"]
    )
    assert rc == 0
    got = list(csv.reader(io.StringIO(read(out / "sweep.csv").decode())))
    want = list(csv.reader(io.StringIO(GOLDEN_SWEEP)))
    assert got[0] == want[0] and len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        for column, g, w in zip(want[0], got_row, want_row):
            if column in ("cell", "drop", "node", "seed") or w in ("true", "false"):
                assert g == w, column
            else:
                assert float(g) == pytest.approx(float(w), rel=0, abs=1e-6), column


class TestComparePrototype:
    def test_report_files(self, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare-prototype", "--out", str(out)]) == 0
        lines = read(out / "compare_prototype.csv").decode().splitlines()
        assert lines[0] == "separation_m,relative_azimuth_deg,measured_suppression_db,simulated_suppression_db,reconstructed"
        assert len(lines) == 1 + 108
        summary = read(out / "compare_summary.csv").decode().splitlines()
        assert len(summary) == 4
        assert "100.125" in summary[3]  # d = 2 m measured mean


class TestExitCodes:
    def test_validation_failure_is_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"donor": {"position": [0, 0, 1]}, "nope": 2}))
        rc = main(["link-sim", "--scenario", str(bad), "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_malformed_scenario_file_is_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["link-sim", "--scenario", str(bad), "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("fdiab: scenario: malformed JSON (")

    @pytest.mark.parametrize("value", ["0", "[]", "\"V\""])
    def test_non_object_pattern_is_1_naming_it(self, scenario_path, tmp_path, capsys, value):
        rc = main(
            ["link-sim", "--scenario", scenario_path, "--seed", "1",
             "--out", str(tmp_path / "o"), "--set", f"iab_nodes.0.pattern={value}"]
        )
        assert rc == 1
        assert capsys.readouterr().err == "fdiab: iab_nodes[0].pattern: expected an object\n"

    def test_unknown_override_key_is_1(self, scenario_path, tmp_path):
        rc = main(
            ["system-sim", "--scenario", scenario_path, "--seed", "1",
             "--out", str(tmp_path / "o"), "--set", "not_a_key=1"] + SMALL
        )
        assert rc == 1

    def test_unwritable_output_dir_is_2(self, scenario_path, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a dir")
        rc = main(
            ["compare-prototype", "--out", str(blocker / "sub")]
        )
        assert rc == 2

    def test_invalid_separation_override_is_1(self, scenario_path, tmp_path):
        rc = main(
            ["link-sim", "--scenario", scenario_path, "--seed", "1",
             "--out", str(tmp_path / "o"), "--set", "iab_nodes.*.antenna_separation_m=-1"]
        )
        assert rc == 1

    @pytest.mark.parametrize("upper", ["2e-6", "9e-6"])
    def test_reflections_past_cp_is_1_for_link_sim(
        self, scenario_path, tmp_path, capsys, upper
    ):
        override = ["--set", f"reflectors.delay_offset_range_s=[1e-9,{upper}]"]
        rc = main(
            ["link-sim", "--scenario", scenario_path, "--seed", "1",
             "--out", str(tmp_path / "o")] + override
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "reflectors.delay_offset_range_s" in err and "cyclic prefix" in err
        assert not (tmp_path / "o").exists()
        # system-sim uses only the total SI power, so late taps are fine there.
        rc = main(
            ["system-sim", "--scenario", scenario_path, "--seed", "1",
             "--out", str(tmp_path / "s")] + override + SMALL
        )
        assert rc == 0

    @pytest.mark.parametrize(
        "override, field",
        [
            ("bandwidth_hz=NaN", "bandwidth_hz"),
            ("donor.tx_power_dbm=Infinity", "donor.tx_power_dbm"),
        ],
    )
    def test_non_finite_override_is_1(self, scenario_path, tmp_path, capsys, override, field):
        rc = main(
            ["system-sim", "--scenario", scenario_path, "--seed", "1",
             "--out", str(tmp_path / "o"), "--set", override] + SMALL
        )
        assert rc == 1
        assert f"fdiab: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    def test_oversized_ue_grid_is_1_naming_it(self, tmp_path, capsys):
        rc = main(
            ["system-sim", "--scenario", SCENARIO, "--seed", "0", "--out", str(tmp_path / "o"),
             "--set", f"ue_grid.nx={10**30}"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("fdiab: ue_grid: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_ue_on_the_donor_is_1_naming_both_fields(self, tmp_path, capsys):
        rc = main(
            ["system-sim", "--scenario", SCENARIO, "--seed", "0", "--out", str(tmp_path / "o"),
             "--set", "ue_grid.nx=3", "--set", "ue_grid.ny=1",
             "--set", "ue_grid.x_range=[-250,-50]", "--set", "ue_grid.y_range=[0,10]",
             "--set", "ue_grid.height_m=130"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "fdiab: ue_grid: UE 1 lies on donor.position [-150.0, 0.0, 130.0]\n"
        assert not (tmp_path / "o").exists()


class TestArgumentBounds:
    @pytest.mark.parametrize("modes", ["", ",", " , "])
    def test_empty_mode_selection_is_1(self, scenario_path, tmp_path, capsys, modes):
        rc = main(
            ["system-sim", "--scenario", scenario_path, "--seed", "3",
             "--out", str(tmp_path / "o"), "--modes", modes] + SMALL
        )
        assert rc == 1
        assert "selects no mode" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_repeated_mode_is_1(self, scenario_path, tmp_path, capsys):
        rc = main(
            ["system-sim", "--scenario", scenario_path, "--seed", "3",
             "--out", str(tmp_path / "o"), "--modes", "hd,fibered,hd"] + SMALL
        )
        assert rc == 1
        assert "repeats hd" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_repeated_grid_key_is_1(self, scenario_path, tmp_path, capsys):
        # Two axes on one key would both write it; the first axis's values
        # would run nowhere.
        key = "iab_nodes.*.antenna_separation_m"
        rc = main(
            ["sweep", "--scenario", scenario_path, "--seed", "0", "--out", str(tmp_path / "o"),
             "--grid", f"{key}=0.1,2", "--grid", f"{key}=1"]
        )
        assert rc == 1
        assert f"--grid repeats key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "extra", [["--set", "nonsense.key=5"], ["--scenario", SCENARIO]]
    )
    def test_compare_prototype_takes_no_scenario_input(self, tmp_path, capsys, extra):
        # compare-prototype reads no scenario, so an override would be ignored.
        out = tmp_path / "cmp"
        with pytest.raises(SystemExit) as exc:
            main(["compare-prototype", "--out", str(out)] + extra)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {extra[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_wildcard_override_matching_nothing_is_1(self, tmp_path, capsys):
        path = tmp_path / "min.json"
        path.write_text(json.dumps({"donor": {"position": [0, 0, 100]}}))
        rc = main(
            ["link-sim", "--scenario", str(path), "--seed", "1", "--out", str(tmp_path / "o"),
             "--set", "iab_nodes.*.tx_power_dbm=30"]
        )
        assert rc == 1
        assert "'iab_nodes.*.tx_power_dbm'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("drops", ["0", "-3"])
    def test_drops_below_one_is_1(self, scenario_path, tmp_path, capsys, drops):
        rc = main(
            ["sweep", "--scenario", scenario_path, "--seed", "5",
             "--out", str(tmp_path / "o"), "--drops", drops]
        )
        assert rc == 1
        assert "--drops must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_u64_is_1(self, scenario_path, tmp_path, capsys, seed):
        rc = main(
            ["link-sim", "--scenario", scenario_path, "--seed", str(seed),
             "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        assert "--seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_bounds_are_inclusive_exclusive(self, scenario_path, tmp_path):
        # -1 used to alias 2**64 - 1; the top of the range itself still runs.
        for seed in (0, 2**64 - 1):
            out = tmp_path / str(seed)
            assert main(
                ["link-sim", "--scenario", scenario_path, "--seed", str(seed), "--out", str(out)]
            ) == 0
        assert read(tmp_path / "0" / "reduction.csv") != read(
            tmp_path / str(2**64 - 1) / "reduction.csv"
        )

    @pytest.mark.parametrize(
        "value, cells, cpus, expected",
        [
            (None, 3, 2, 1),
            ("", 3, 2, 1),
            ("1", 3, 2, 1),
            (" 2 ", 3, 4, 2),
            ("4", 3, 8, 3),
            ("64", 10, 2, 2),
            ("2", 1, 4, 1),
            ("3", 3, None, 1),
        ],
    )
    def test_sweep_workers_clamp(self, value, cells, cpus, expected):
        assert sweep_workers(value, cells, cpus) == expected

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_sweep_workers_rejects_by_name(self, value):
        with pytest.raises(ValueError, match="FDIAB_THREADS"):
            sweep_workers(value, 3, 2)

    def test_bad_threads_env_is_1(self, scenario_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FDIAB_THREADS", "two")
        rc = main(["sweep", "--scenario", scenario_path, "--seed", "5", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "FDIAB_THREADS must be an integer >= 1, got 'two'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# csv.writer over the formatting rule of each column kind: the reference that
# _write_columns must reproduce byte for byte.


def reference_cells(values):
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return ["" if np.isnan(v) else format(float(v), ".12g") for v in values]
    if isinstance(values, np.ndarray) and values.dtype.kind == "b":
        return ["true" if v else "false" for v in values.tolist()]
    if isinstance(values, np.ndarray):
        return [str(v) for v in values.tolist()]
    out = []
    for v in values:
        if v is None:
            out.append("")
        elif isinstance(v, bool):
            out.append("true" if v else "false")
        elif isinstance(v, float):
            out.append(format(v, ".12g"))
        else:
            out.append(str(v))
    return out


def reference_csv(columns):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*map(reference_cells, columns.values())))
    return buf.getvalue().encode()


SPECIAL_FLOATS = [
    0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -2.5e-310,
    1e300, -1e-300, 1e12, 123456789012.5, 0.1,
]
FLOATS = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(SPECIAL_FLOATS))
# Quoting triggers, NUL, and non-ASCII characters of 2, 3 and 4 UTF-8 bytes.
TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\r\n-0.\x00é€\U0001f600')), max_size=6)
LIST_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**15), 10**15), FLOATS, TEXT
)
COLUMN_KINDS = {
    "float": (FLOATS, float),
    "int": (st.integers(-(2**63), 2**63 - 1), np.int64),
    "uint64": (st.integers(0, 2**64 - 1), np.uint64),
    "bool": (st.booleans(), bool),
    "str": (TEXT, str),
    "list": (LIST_VALUES, None),  # kept a list: mixed None/bool/int/float/str
}


@st.composite
def tables(draw):
    n = draw(st.integers(0, 25))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=4))
    columns = {}
    for i, kind in enumerate(kinds):
        elements, dtype = COLUMN_KINDS[kind]
        values = draw(st.lists(elements, min_size=n, max_size=n))
        columns[f"c{i}"] = values if dtype is None else np.array(values, dtype=dtype)
    return columns


class TestWriteColumns:
    @settings(max_examples=300, deadline=None)
    @given(columns=tables(), chunk_rows=st.one_of(st.integers(1, 30), st.just(cli.CSV_CHUNK_ROWS)))
    def test_matches_csv_writer(self, columns, chunk_rows):
        # Small chunks put chunk edges inside the table.
        with mock.patch.object(cli, "CSV_CHUNK_ROWS", chunk_rows), tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            _write_columns(path, columns)
            assert read(path) == reference_csv(columns)

    @pytest.mark.parametrize(
        "values",
        [np.array(["", "a", "", "", "", "b,", ""]), [None, 1.5, None, None, "", None, None],
         np.array([np.nan, 2.0, np.nan, np.nan, np.nan, -0.0, np.nan])],
    )
    def test_lone_empty_fields_across_chunk_edges(self, tmp_path, monkeypatch, values):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 3)
        _write_columns(tmp_path / "t.csv", {"only": values})
        assert read(tmp_path / "t.csv") == reference_csv({"only": values})

    def test_drop_sized_table_is_written_in_bounded_memory(self, tmp_path):
        # A 101x101 drop over 5 modes: 51,005 rows of throughput.csv's kinds.
        # Its text is about 4 MiB; the writer holds one chunk of rows at a
        # time, and a block for the whole table would take about 19 MiB.
        rng = np.random.default_rng(0)
        n_ue, n = 10201, 51005
        columns = {
            "mode": np.repeat(["fibered", "ideal_fd", "fd_full", "fd_prop_only", "hd"], n_ue),
            "ue_id": np.tile(np.arange(n_ue), 5),
            "serving_cell": rng.integers(0, 3, n),
            "beam": rng.integers(0, 16, n),
            "access_snr_db": np.tile(rng.normal(20.0, 10.0, n_ue), 5),
            "access_sinr_db": rng.normal(20.0, 10.0, n),
            "backhaul_sinr_db": np.where(rng.random(n) < 0.3, np.nan, rng.normal(0.0, 10.0, n)),
            "dli_power_dbm": np.tile(rng.normal(-80.0, 10.0, n_ue), 5),
            "throughput_bps": rng.choice([0.0, 1.5e8, 3.2e8, 6.6e8], n),
        }
        tracemalloc.start()
        try:
            _write_columns(tmp_path / "t.csv", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        head = read(tmp_path / "t.csv")[:4096].decode().splitlines()[:3]
        first_rows = reference_csv({k: v[:2] for k, v in columns.items()}).decode().splitlines()
        assert head == first_rows

    def test_runs_of_strings_and_repeated_floats(self, tmp_path):
        columns = {
            "mode": np.repeat(["hd", "fibered", "hd"], [3, 2, 4]),
            "x": np.tile([1.5, -0.0, np.nan], 3),
        }
        _write_columns(tmp_path / "t.csv", columns)
        assert read(tmp_path / "t.csv") == reference_csv(columns)
