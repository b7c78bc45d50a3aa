import csv
import dataclasses
import io
import json
import os
import re
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdiab import cli, numtext, sic
from fdiab.cli import _write_columns, main
from fdiab.scenario import (
    apply_overrides, read_scenario_file, save_scenario, scenario_from_dict, scenario_to_dict,
)
from fdiab.sic import run_link_chain
from fdiab.system import ALL_MODES, FD_MODES, Mode, cdf, default_scenario, run_drop
from fdiab.util import substream

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


def assert_outputs_listed(out):
    """run.json's outputs are exactly the CSV files in the directory."""
    outputs = sidecar_without_timestamp(out / "run.json")["outputs"]
    assert sorted(outputs) == sorted(p.name for p in out.glob("*.csv"))


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
        assert_outputs_listed(out)

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
        assert_outputs_listed(outs[0])

    @pytest.mark.parametrize("modes", ["hd,fibered", "hd,ideal_fd"])
    def test_mode_subset(self, scenario_path, tmp_path, modes):
        out = tmp_path / "m"
        rc = main(
            ["system-sim", "--scenario", scenario_path, "--seed", "1", "--out", str(out),
             "--modes", modes] + SMALL
        )
        assert rc == 0
        with open(out / "throughput.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(out / "cdf.csv", newline="") as fh:
            curve = list(csv.DictReader(fh))
        # In --modes order, each mode's curve is its sorted throughput_bps
        # from throughput.csv, the i-th of n at p = i/n.
        assert [r["mode"] for r in curve] == [r["mode"] for r in rows]
        for mode in modes.split(","):
            values = sorted((r["throughput_bps"] for r in rows if r["mode"] == mode), key=float)
            n = len(values)
            assert n == 25
            assert [(r["throughput_bps"], r["cdf"]) for r in curve if r["mode"] == mode] == [
                (v, format(i / n, ".12g")) for i, v in enumerate(values, 1)
            ]

    def test_mode_subset_writes_the_full_runs_rows_of_its_modes(self, tmp_path):
        # A selection in its own order, an FD mode first, gives each mode the
        # rows the full run gives it, byte for byte, in both files.
        runs = {}
        for name, extra in (("full", []), ("subset", ["--modes", "fd_prop_only,hd"])):
            argv = ["system-sim", "--scenario", SCENARIO, "--seed", "0",
                    "--out", str(tmp_path / name)] + extra
            assert main(argv) == 0
            runs[name] = {f: read(tmp_path / name / f).splitlines(True)
                          for f in ("throughput.csv", "cdf.csv")}
        for f, subset in runs["subset"].items():
            full = runs["full"][f]
            want = [r for m in (b"fd_prop_only,", b"hd,") for r in full if r.startswith(m)]
            assert len(want) == 2 * 21 * 21
            assert subset == full[:1] + want, f

    def test_101x101_call_peaks_in_the_drop_not_the_writer(self, tmp_path):
        # Measured: 5.18 MiB traced, run_drop's own peak; holding the drop's
        # arrays through the throughput.csv write took it to 6.85 MiB.
        out = tmp_path / "o"
        argv = ["system-sim", "--scenario", SCENARIO, "--seed", "0", "--out", str(out),
                "--set", "ue_grid.nx=101", "--set", "ue_grid.ny=101"]
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert read(out / "throughput.csv").count(b"\n") == 1 + 5 * 101 * 101
        assert peak < 6.5 * 2**20


class TestSidecar:
    MINIMAL = {"donor": {"position": [0.0, 0.0, 100.0]}}

    @pytest.mark.parametrize(
        "command, extra, arguments",
        [
            ("link-sim", [], {}),
            ("system-sim", ["--modes", "hd"], {"modes": ["hd"]}),
            (
                "sweep",
                ["--grid", "noise_figure_db=3,4.5", "--grid", "carrier_freq_hz=2.8e10",
                 "--drops", "2"],
                {"grid": [["noise_figure_db", [3, 4.5]], ["carrier_freq_hz", [2.8e10]]],
                 "drops": 2},
            ),
        ],
    )
    def test_resolved_scenario_round_trips(self, tmp_path, command, extra, arguments):
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
        assert {k: side[k] for k in side.keys() & {"grid", "drops", "modes"}} == arguments
        # run.json alone repeats the run.
        rerun = tmp_path / "rerun"
        argv = [side["command"], "--scenario", side["scenario_path"],
                "--seed", str(side["seed"]), "--out", str(rerun)]
        argv += [flag for o in side["overrides"] for flag in ("--set", o)]
        for key, values in side.get("grid", []):
            argv += ["--grid", f"{key}={','.join(map(json.dumps, values))}"]
        if "drops" in side:
            argv += ["--drops", str(side["drops"])]
        if "modes" in side:
            argv += ["--modes", ",".join(side["modes"])]
        assert main(argv) == 0
        assert sidecar_without_timestamp(rerun / "run.json") == side
        for name in side["outputs"]:
            assert read(rerun / name) == read(outs[0] / name)


    @pytest.mark.parametrize(
        "flags, modes",
        [
            ([], [m.value for m in ALL_MODES]),
            (["--modes", "hd,fd_full"], ["hd", "fd_full"]),
            (["--modes", " hd , fibered "], ["hd", "fibered"]),
        ],
        ids=["default", "given-order", "spaces"],
    )
    def test_system_sim_records_modes_as_parsed(self, scenario_path, tmp_path, flags, modes):
        """run.json's modes are the selection as run, in the order cdf.csv lists them."""
        out = tmp_path / "o"
        argv = ["system-sim", "--scenario", scenario_path, "--seed", "4", "--out", str(out)]
        assert main(argv + SMALL + flags) == 0
        assert sidecar_without_timestamp(out / "run.json")["modes"] == modes
        with open(out / "cdf.csv", newline="") as fh:
            cdf_modes = [row["mode"] for row in csv.DictReader(fh)]
        assert list(dict.fromkeys(cdf_modes)) == modes

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
        assert_outputs_listed(out)

    @pytest.mark.parametrize(
        "key, values",
        [
            ("iab_nodes.*.antenna_separation_m", (0.1, 1, 2)),  # the cells share each frame
            ("noise_figure_db", (3, 6)),  # no two cells share a frame
        ],
    )
    def test_rows_equal_one_chain_each(self, scenario_path, tmp_path, key, values):
        """Row (cell, drop, node) is run_link_chain of that cell's node at
        substream(seed, "sweep", drop, node), whatever frame it shared."""
        out = tmp_path / "sweep"
        grid = f"{key}={','.join(map(str, values))}"
        assert main(
            ["sweep", "--scenario", scenario_path, "--seed", "5", "--drops", "2",
             "--out", str(out), "--grid", grid]
        ) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        base = scenario_to_dict(default_scenario())
        scenarios = [
            scenario_from_dict(apply_overrides(json.loads(json.dumps(base)), [f"{key}={v}"]))
            for v in values
        ]
        n_nodes = len(scenarios[0].iab_nodes)
        expect = [(c, d, n) for c in range(len(values)) for d in range(2) for n in range(n_nodes)]
        assert [(int(r["cell"]), int(r["drop"]), int(r["node"])) for r in rows] == expect
        for row, (c, d, n) in zip(rows, expect):
            seed = int(substream(5, "sweep", d, n).integers(2**63))
            assert int(row["seed"]) == seed
            sc = scenarios[c]
            params, si_taps = cli.chain_for_node(sc, n)
            report = run_link_chain(params, si_taps(seed), seed)
            want = {
                "antenna_separation_m": report.antenna_separation_m,
                "tx_power_dbm": report.tx_power_dbm,
                "after_propagation_dbm": report.after_propagation_dbm,
                "after_analog_dbm": report.after_analog_dbm,
                "after_digital_dbm": report.after_digital_dbm,
                "propagation_db": report.per_domain_db[0],
                "analog_db": report.per_domain_db[1],
                "digital_db": report.per_domain_db[2],
                "noise_floor_dbm": report.noise_floor_dbm,
                "analog_applied": report.analog_applied,
                "gray_zone_ok": report.gray_zone_ok,
                "digital_saturated": report.digital_saturated,
                "holdout_residual_dbm": report.holdout_residual_dbm,
            }
            assert {k: row[k] for k in want} == {k: cli._fmt(v) for k, v in want.items()}


# Golden tables at seed 0 over scenarios/default.json. Change these on purpose
# only, when the chain's, the prototype comparison's or the drop's output is
# meant to move.
# sweep --grid iab_nodes.*.antenna_separation_m=0.1,1,2 --drops 1:
GOLDEN_SWEEP = """\
cell,drop,iab_nodes.*.antenna_separation_m,node,antenna_separation_m,seed,tx_power_dbm,after_propagation_dbm,after_analog_dbm,after_digital_dbm,propagation_db,analog_db,digital_db,noise_floor_dbm,analog_applied,gray_zone_ok,digital_saturated,holdout_residual_dbm
0,0,0.1,0,0.1,3408044606088226153,31.9732127774,-30.6786592232,-43.6919776427,-90.1779774496,62.6518720006,13.0133184196,46.4859998069,-90.2081875395,true,true,false,-90.1709781781
0,0,0.1,1,0.1,2803755670168787654,31.968210688,-29.1829601204,-47.0418772459,-90.010308796,61.1511708084,17.8589171255,42.96843155,-90.2081875395,true,true,false,-90.0550324844
1,0,1,0,1,3408044606088226153,31.9732127774,-50.2906861635,-50.2906861635,-90.1715786206,82.2638989409,0,39.8808924572,-90.2081875395,false,true,false,-90.1729868194
1,0,1,1,1,2803755670168787654,31.968210688,-49.091809919,-49.091809919,-90.1793486708,81.060020607,0,41.0875387518,-90.2081875395,false,true,false,-90.2137962469
2,0,2,0,2,3408044606088226153,31.9732127774,-53.9177298636,-53.9177298636,-90.1965851431,85.890942641,0,36.2788552795,-90.2081875395,false,true,false,-90.1872278142
2,0,2,1,2,2803755670168787654,31.968210688,-55.3678141877,-55.3678141877,-90.1973901189,87.3360248757,0,34.8295759313,-90.2081875395,false,true,false,-90.2314954288
"""

# link-sim:
GOLDEN_LINK = """\
node,antenna_separation_m,seed,tx_power_dbm,after_propagation_dbm,after_analog_dbm,after_digital_dbm,propagation_db,analog_db,digital_db,noise_floor_dbm,analog_applied,gray_zone_ok,digital_saturated,holdout_residual_dbm
0,1,8028033113326539936,31.9762245029,-50.0326900248,-50.0326900248,-90.1597769094,82.0089145276,0,40.1270868846,-90.2081875395,false,true,false,-90.0953405334
1,1,1858689254262361655,31.9766499026,-49.5513941166,-49.5513941166,-90.2324669939,81.5280440192,0,40.6810728774,-90.2081875395,false,true,false,-90.2153957194
"""

# compare-prototype: simulated minus measured mean per separation.
GOLDEN_COMPARE_SUMMARY = """\
separation_m,measured_mean_db,simulated_mean_db,delta_db
0.1,82.18,61.2830744884,-20.8969255116
1,97.26,81.3036130392,-15.9563869608
2,100.125,87.2926096433,-12.8323903567
"""

# system-sim over a 2x2 grid (--set ue_grid.nx=2 --set ue_grid.ny=2); every
# UE is relayed, so fd_prop_only's backhaul_sinr_db pins the SI residuals.
SYSTEM_2X2 = ["system-sim", "--scenario", SCENARIO, "--set", "ue_grid.nx=2", "--set", "ue_grid.ny=2"]
SYSTEM_EXACT = ("mode", "ue_id", "serving_cell", "beam")

GOLDEN_SYSTEM = """\
mode,ue_id,serving_cell,beam,access_snr_db,access_sinr_db,backhaul_sinr_db,dli_power_dbm,throughput_bps
fibered,0,1,2,32.443972037,32.443972037,,,666564000
fibered,1,1,7,39.6760660731,39.6760660731,,,666564000
fibered,2,2,13,38.2772193707,38.2772193707,,,666564000
fibered,3,2,8,35.7012097422,35.7012097422,,,666564000
ideal_fd,0,1,2,32.443972037,25.3089021095,65.1778798991,-84.0066230466,666564000
ideal_fd,1,1,7,39.6760660731,31.5608699558,65.1778798991,-82.8210369878,666564000
ideal_fd,2,2,13,38.2772193707,20.7679961831,65.0848222176,-72.7767221731,666564000
ideal_fd,3,2,8,35.7012097422,27.7585879677,65.0848222176,-83.0258613491,666564000
fd_full,0,1,2,32.443972037,25.3089021095,61.6388609887,-84.0066230466,666564000
fd_full,1,1,7,39.6760660731,31.5608699558,61.6388609887,-82.8210369878,666564000
fd_full,2,2,13,38.2772193707,20.7679961831,61.5458033072,-72.7767221731,666564000
fd_full,3,2,8,35.7012097422,27.7585879677,61.5458033072,-83.0258613491,666564000
fd_prop_only,0,1,2,32.443972037,25.3089021095,13.1882273993,-84.0066230466,398676000
fd_prop_only,1,1,7,39.6760660731,31.5608699558,13.2366239259,-82.8210369878,398676000
fd_prop_only,2,2,13,38.2772193707,20.7679961831,13.0882267345,-72.7767221731,398676000
fd_prop_only,3,2,8,35.7012097422,27.7585879677,13.2675499471,-83.0258613491,398676000
hd,0,1,2,32.443972037,32.443972037,65.1778798991,,299953800
hd,1,1,7,39.6760660731,39.6760660731,65.1778798991,,299953800
hd,2,2,13,38.2772193707,38.2772193707,65.0848222176,,299953800
hd,3,2,8,35.7012097422,35.7012097422,65.0848222176,,299953800
"""

# ... with --set reflectors=null, which draws no reflections:
GOLDEN_SYSTEM_NO_REFLECTIONS = """\
mode,ue_id,serving_cell,beam,access_snr_db,access_sinr_db,backhaul_sinr_db,dli_power_dbm,throughput_bps
fibered,0,1,2,32.443972037,32.443972037,,,666564000
fibered,1,1,7,39.6760660731,39.6760660731,,,666564000
fibered,2,2,13,38.2772193707,38.2772193707,,,666564000
fibered,3,2,8,35.7012097422,35.7012097422,,,666564000
ideal_fd,0,1,2,32.443972037,25.3089021095,65.1778798991,-84.0066230466,666564000
ideal_fd,1,1,7,39.6760660731,31.5608699558,65.1778798991,-82.8210369878,666564000
ideal_fd,2,2,13,38.2772193707,20.7679961831,65.0848222176,-72.7767221731,666564000
ideal_fd,3,2,8,35.7012097422,27.7585879677,65.0848222176,-83.0258613491,666564000
fd_full,0,1,2,32.443972037,25.3089021095,61.6388609887,-84.0066230466,666564000
fd_full,1,1,7,39.6760660731,31.5608699558,61.6388609887,-82.8210369878,666564000
fd_full,2,2,13,38.2772193707,20.7679961831,61.5458033072,-72.7767221731,666564000
fd_full,3,2,8,35.7012097422,27.7585879677,61.5458033072,-83.0258613491,666564000
fd_prop_only,0,1,2,32.443972037,25.3089021095,13.3606076286,-84.0066230466,398676000
fd_prop_only,1,1,7,39.6760660731,31.5608699558,13.3606076286,-82.8210369878,398676000
fd_prop_only,2,2,13,38.2772193707,20.7679961831,13.2675499471,-72.7767221731,398676000
fd_prop_only,3,2,8,35.7012097422,27.7585879677,13.2675499471,-83.0258613491,398676000
hd,0,1,2,32.443972037,32.443972037,65.1778798991,,299953800
hd,1,1,7,39.6760660731,39.6760660731,65.1778798991,,299953800
hd,2,2,13,38.2772193707,38.2772193707,65.0848222176,,299953800
hd,3,2,8,35.7012097422,35.7012097422,65.0848222176,,299953800
"""


@pytest.mark.parametrize(
    "argv, name, golden, exact_columns",
    [
        (["sweep", "--scenario", SCENARIO, "--drops", "1",
          "--grid", "iab_nodes.*.antenna_separation_m=0.1,1,2"],
         "sweep.csv", GOLDEN_SWEEP, ("cell", "drop", "node", "seed")),
        (["link-sim", "--scenario", SCENARIO], "reduction.csv", GOLDEN_LINK, ("node", "seed")),
        (["compare-prototype"], "compare_summary.csv", GOLDEN_COMPARE_SUMMARY, ()),
        (SYSTEM_2X2, "throughput.csv", GOLDEN_SYSTEM, SYSTEM_EXACT),
        (SYSTEM_2X2 + ["--set", "reflectors=null"],
         "throughput.csv", GOLDEN_SYSTEM_NO_REFLECTIONS, SYSTEM_EXACT),
    ],
    ids=["sweep", "link-sim", "compare-summary", "system-sim", "system-sim-no-reflections"],
)
def test_matches_golden_values(tmp_path, argv, name, golden, exact_columns):
    """Pins the chain's, the prototype comparison's and the drop's output:
    integers, flags, modes and empty cells exactly, numbers to 1e-6 dB."""
    out = tmp_path / "out"
    assert main(argv + ["--seed", "0", "--out", str(out)]) == 0
    got = list(csv.reader(io.StringIO(read(out / name).decode())))
    want = list(csv.reader(io.StringIO(golden)))
    assert got[0] == want[0] and len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        for column, g, w in zip(want[0], got_row, want_row):
            if column in exact_columns or w in ("true", "false", ""):
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
        assert_outputs_listed(out)

    def test_seed_defaults_to_0_and_is_recorded(self, tmp_path):
        outs = [tmp_path / "default", tmp_path / "zero"]
        assert main(["compare-prototype", "--out", str(outs[0])]) == 0
        assert main(["compare-prototype", "--seed", "0", "--out", str(outs[1])]) == 0
        sides = [sidecar_without_timestamp(out / "run.json") for out in outs]
        assert sides[0]["seed"] == 0 and sides[0] == sides[1]
        for name in ("compare_prototype.csv", "compare_summary.csv"):
            assert read(outs[0] / name) == read(outs[1] / name)


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
        self, scenario_path, tmp_path, capsys, monkeypatch, upper
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
        # A sweep whose second cell puts the direct tap past the CP fails
        # while its cells' chain inputs are built, before any chain runs. The
        # sweep imports run_link_chains from fdiab.sic as it starts, so the
        # patch goes on that module.
        chains = mock.Mock(side_effect=sic.run_link_chains)
        monkeypatch.setattr(sic, "run_link_chains", chains)
        rc = main(
            ["sweep", "--scenario", scenario_path, "--seed", "1", "--out", str(tmp_path / "w"),
             "--grid", "iab_nodes.*.antenna_separation_m=1,400"]
        )
        assert rc == 1
        assert "cyclic prefix" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()
        assert chains.call_count == 0
        # system-sim uses only the total SI power, so late taps are fine there.
        rc = main(
            ["system-sim", "--scenario", scenario_path, "--seed", "1",
             "--out", str(tmp_path / "s")] + override + SMALL
        )
        assert rc == 0

    @pytest.mark.parametrize("command", ["link-sim", "sweep"])
    def test_direct_tap_past_cp_without_reflections_is_1_naming_the_separation(
        self, scenario_path, tmp_path, capsys, command
    ):
        # The chain used to wrap the direct tap around the symbol unchecked.
        rc = main(
            [command, "--scenario", scenario_path, "--seed", "1", "--out", str(tmp_path / "o"),
             "--set", "reflectors=null", "--set", "iab_nodes.*.antenna_separation_m=400"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("fdiab: iab_nodes[0].antenna_separation_m lets SI taps arrive up to")
        assert "cyclic prefix" in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, flag, value, field",
        [
            ("system-sim", "--set", "bandwidth_hz=NaN", "bandwidth_hz"),
            ("system-sim", "--set", "donor.tx_power_dbm=Infinity", "donor.tx_power_dbm"),
            # An empty grid value is one value, the empty string.
            ("sweep", "--grid", "iab_nodes.*.antenna_separation_m=",
             "iab_nodes[0].antenna_separation_m"),
            # Powers past the README's limits, which would overflow a float.
            ("system-sim", "--set", "iab_nodes.*.pattern.boresight_gain_dbi=1e6",
             "iab_nodes[0].pattern.boresight_gain_dbi"),
            ("link-sim", "--set", "iab_nodes.*.pattern.boresight_gain_dbi=1e6",
             "iab_nodes[0].pattern.boresight_gain_dbi"),
            ("sweep", "--grid", "iab_nodes.*.pattern.boresight_gain_dbi=1e6",
             "iab_nodes[0].pattern.boresight_gain_dbi"),
            ("system-sim", "--set", "iab_nodes.*.tx_power_dbm=1e6", "iab_nodes[0].tx_power_dbm"),
            ("system-sim", "--set", "iab_nodes.*.residual_si_dbm=1e6",
             "iab_nodes[0].residual_si_dbm"),
            ("system-sim", "--set", "access_shadow_sigma_db=1e6", "access_shadow_sigma_db"),
            ("system-sim", "--set", "noise_figure_db=1e6", "noise_figure_db"),
            ("link-sim", "--set", "noise_figure_db=1e6", "noise_figure_db"),
            # Past the 1 THz where the thermal noise model stops: link-sim used
            # to blame the chain, system-sim to write SNRs of -2,887 dB.
            ("system-sim", "--set", "bandwidth_hz=1e300", "bandwidth_hz"),
            ("link-sim", "--set", "bandwidth_hz=1e300", "bandwidth_hz"),
        ],
    )
    def test_non_finite_or_too_large_override_is_1(
        self, scenario_path, tmp_path, capsys, command, flag, value, field
    ):
        rc = main(
            [command, "--scenario", scenario_path, "--seed", "1",
             "--out", str(tmp_path / "o"), flag, value] + SMALL
        )
        assert rc == 1
        assert f"fdiab: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("command", ["link-sim", "sweep"])
    def test_noise_floor_at_the_pa_output_is_1_naming_it(self, tmp_path, capsys, command):
        # -174 + 120 + 100 = 46 dBm of noise against the PA's linear output,
        # 43 + 1 - 12 = 32 dBm: no stage could read below the noise.
        rc = main(
            [command, "--scenario", SCENARIO, "--seed", "0", "--out", str(tmp_path / "o"),
             "--set", "bandwidth_hz=1e12", "--set", "noise_figure_db=100"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("fdiab: noise_figure_db: must be < 86 at bandwidth_hz 1e+12")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()
        # 0.01 dB under the linear bound the floor still sits above the PA's
        # 31.98 dBm mean OFDM output, and the noise lifts the propagation stage
        # above it: the chain's check names the field too.
        rc = main(
            [command, "--scenario", SCENARIO, "--seed", "0", "--out", str(tmp_path / "o"),
             "--set", "bandwidth_hz=1e12", "--set", "noise_figure_db=85.99"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("fdiab: noise_figure_db: puts the noise floor at 31.99 dBm")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()
        # 20 dB lower the floor sits 6 dB under the PA output, and the chain runs.
        rc = main(
            ["link-sim", "--scenario", SCENARIO, "--seed", "0", "--out", str(tmp_path / "ok"),
             "--set", "bandwidth_hz=1e12", "--set", "noise_figure_db=80"]
        )
        assert rc == 0

    @pytest.mark.parametrize("command", ["system-sim", "link-sim", "sweep"])
    @pytest.mark.parametrize("node, path", [("*", "iab_nodes[0]"), ("1", "iab_nodes[1]")])
    def test_pattern_leaving_the_si_channel_no_power_is_1_naming_it(
        self, tmp_path, capsys, command, node, path
    ):
        rc = main(
            [command, "--scenario", SCENARIO, "--seed", "0", "--out", str(tmp_path / "o"),
             "--set", f"iab_nodes.{node}.pattern.sidelobe_floor_dbi=-10000",
             "--set", f"iab_nodes.{node}.pattern.beamwidth_3db_deg=0.01"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (
            f"fdiab: {path}.pattern: gives the direct SI path -2.006e+04 dB,"
            " which carries no power\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, flag, value, carrier",
        [
            ("system-sim", "--set", "iab_nodes.*.antenna_separation_m=1e-300", "2.8e+10"),
            ("link-sim", "--set", "iab_nodes.*.antenna_separation_m=1e-300", "2.8e+10"),
            ("sweep", "--grid", "iab_nodes.*.antenna_separation_m=1,1e-300", "2.8e+10"),
            ("system-sim", "--set", "carrier_freq_hz=1e-300", "1e-300"),
            ("link-sim", "--set", "carrier_freq_hz=1e-300", "1e-300"),
        ],
    )
    def test_separation_where_free_space_loss_is_a_gain_is_1_naming_it(
        self, tmp_path, capsys, command, flag, value, carrier
    ):
        # Friis loss is below 0 dB under c / (4 pi f) and overflows far below it.
        rc = main(
            [command, "--scenario", SCENARIO, "--seed", "0", "--out", str(tmp_path / "o"),
             flag, value]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("fdiab: iab_nodes[0].antenna_separation_m: must be >= ")
        assert f" m at carrier_freq_hz {carrier}, " in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["system-sim", "link-sim", "sweep"])
    def test_carrier_where_an_access_path_has_friis_gain_is_1_naming_it(
        self, tmp_path, capsys, command
    ):
        # With no node the separation rule has nothing to check; UE 214 sits
        # 128.5 m below the donor. The drop used to write 6,215 dB SNRs.
        rc = main(
            [command, "--scenario", SCENARIO, "--seed", "0", "--out", str(tmp_path / "o"),
             "--set", "iab_nodes=[]", "--set", "carrier_freq_hz=1e-300"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("fdiab: carrier_freq_hz: must be >= 1.857e+05 Hz, where the 128.5 m")
        assert " access path from donor to UE 214 " in err and err.count("\n") == 1
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

    @pytest.mark.parametrize("modes, name", [("foo", "foo"), ("hd, FD_FULL", "FD_FULL")])
    def test_unknown_mode_is_1_naming_it_and_the_modes(
        self, scenario_path, tmp_path, capsys, modes, name
    ):
        rc = main(
            ["system-sim", "--scenario", scenario_path, "--seed", "3",
             "--out", str(tmp_path / "o"), "--modes", modes] + SMALL
        )
        assert rc == 1
        valid = "fibered, ideal_fd, fd_full, fd_prop_only, hd"
        want = f"fdiab: --modes {modes!r} names {name!r}, not one of {valid}\n"
        assert capsys.readouterr().err == want
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

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--set", "=5"], ""),
            (["--set", ".=5"], "."),
            (["--set", "ue_grid..nx=3"], "ue_grid..nx"),
            (["--set", "ue_grid.nx.=3"], "ue_grid.nx."),
            (["--grid", "ue_grid..nx=3,4"], "ue_grid..nx"),
            (["--grid", "donor.=1"], "donor."),
        ],
    )
    def test_empty_override_path_segment_is_1(self, scenario_path, tmp_path, capsys, flags, key):
        rc = main(
            ["sweep", "--scenario", scenario_path, "--seed", "0", "--out", str(tmp_path / "o")]
            + flags
        )
        assert rc == 1
        assert f"override {key!r}: empty path segment" in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--drops", "100000000", "--grid", "iab_nodes.*.antenna_separation_m=1,2"],
            # 10**20 cells, which itertools.product would never finish listing.
            # The keys need not exist: the cap is checked before any cell is built.
            [f"--grid=noise_figure_db{i}={','.join(map(str, range(10)))}" for i in range(20)],
        ],
        ids=["drops", "grid"],
    )
    def test_oversized_sweep_is_1_before_any_cell_is_built(
        self, scenario_path, tmp_path, capsys, flags
    ):
        tracemalloc.start()
        try:
            rc = main(
                ["sweep", "--scenario", scenario_path, "--seed", "5",
                 "--out", str(tmp_path / "o")] + flags
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("fdiab: --grid cells x --drops x nodes = ") and err.count("\n") == 1
        assert f"exceed the cap of {cli.MAX_SWEEP_CHAINS}" in err
        assert not (tmp_path / "o").exists()
        assert peak < 2**20

    @pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "over-cap"])
    @pytest.mark.parametrize(
        "n_nodes, flags, cells, drops",
        [
            (2, [], 1, 1),
            (2, ["--grid", "iab_nodes.*.antenna_separation_m=0.1,1,2"], 3, 1),
            (2, ["--drops", "3"], 1, 3),
            (1, ["--grid", "noise_figure_db=3,6", "--grid", "iab_nodes.*.tx_power_dbm=20,30",
                 "--drops", "2"], 4, 2),
            (0, ["--grid", "noise_figure_db=3,6", "--drops", "2"], 2, 2),
        ],
        ids=["one-chain", "cells", "drops", "two-axes-one-node", "no-node"],
    )
    def test_sweep_cap_counts_cells_drops_and_nodes(
        self, tmp_path, capsys, monkeypatch, n_nodes, flags, cells, drops, over
    ):
        """A sweep of exactly MAX_SWEEP_CHAINS chains runs; one more is
        rejected. A node-less scenario counts one node a cell."""
        scenario = default_scenario()
        path = tmp_path / "s.json"
        save_scenario(dataclasses.replace(scenario, iab_nodes=scenario.iab_nodes[:n_nodes]), path)
        chains = cells * drops * max(n_nodes, 1)
        monkeypatch.setattr(cli, "MAX_SWEEP_CHAINS", chains - over)
        out = tmp_path / "o"
        rc = main(["sweep", "--scenario", str(path), "--seed", "2", "--out", str(out)] + flags)
        if over:
            assert rc == 1
            err = capsys.readouterr().err
            assert f"= {cells} x {drops} x {n_nodes} chains exceed the cap of {chains - 1}" in err
            assert not out.exists()
        else:
            assert rc == 0
            assert len(read(out / "sweep.csv").splitlines()) == 1 + cells * drops * n_nodes

    def test_sweep_cap_covers_a_call_that_holds_every_chain(self, tmp_path):
        """MAX_SWEEP_CHAINS budgets 8 KiB a chain within 2 GiB. A chain adds
        the most in a one-drop, one-node sweep, whose one run_link_chains call
        keeps every chain's SI taps and fit until its holdout frame."""
        scenario = default_scenario()
        path = tmp_path / "s.json"
        save_scenario(dataclasses.replace(scenario, iab_nodes=scenario.iab_nodes[:1]), path)

        def peak(n_cells):
            values = ",".join(f"{d:.4f}" for d in np.linspace(0.5, 2.0, n_cells))
            argv = ["sweep", "--scenario", str(path), "--seed", "0",
                    "--grid", f"iab_nodes.*.antenna_separation_m={values}",
                    "--out", str(tmp_path / str(n_cells))]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # the caches a first sweep fills
        assert (peak(100) - peak(25)) / 75 <= 8 * 1024  # 5.4 KB at 25 to 100
        assert cli.MAX_SWEEP_CHAINS * 8 * 1024 <= 2 * 2**30

    @pytest.mark.parametrize("command", ["link-sim", "system-sim", "sweep"])
    def test_seed_is_required_where_it_has_no_default(
        self, scenario_path, tmp_path, capsys, command
    ):
        # Only compare-prototype, which reads no scenario, defaults --seed to 0.
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", scenario_path, "--out", str(out)])
        assert exc.value.code == 2
        assert "the following arguments are required: --seed" in capsys.readouterr().err
        assert not out.exists()

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


# csv.writer over the formatting rule of each column kind: the reference that
# _write_columns must reproduce byte for byte.


def reference_cells(values):
    if values.dtype.kind == "f":
        return ["" if np.isnan(v) else format(float(v), ".12g") for v in values]
    if values.dtype.kind == "b":
        return ["true" if v else "false" for v in values.tolist()]
    return [str(v) for v in values.tolist()]


def reference_csv(columns):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*map(reference_cells, columns.values())))
    return buf.getvalue().encode()


def throughput_rows(drop, modes):
    """throughput.csv's columns as plain arrays, expanded from a run_drop
    result over modes: one row per (mode, UE), mode-major, with a UE's DLI
    in its FD-mode rows only."""
    k, n = drop["throughput_bps"].shape
    fd = np.array([Mode(m) in FD_MODES for m in modes]).reshape(k, 1)
    return {
        "mode": np.repeat([Mode(m).value for m in modes], n),
        "ue_id": np.tile(np.arange(n), k),
        "serving_cell": np.tile(drop["serving_cell"], k),
        "beam": np.tile(drop["beam"], k),
        "access_snr_db": np.tile(drop["access_snr_db"], k),
        "access_sinr_db": drop["access_sinr_db"].ravel(),
        "backhaul_sinr_db": drop["backhaul_sinr_db"].ravel(),
        "dli_power_dbm": np.where(fd, drop["dli_power_dbm"], np.nan).ravel(),
        "throughput_bps": drop["throughput_bps"].ravel(),
    }


SPECIAL_FLOATS = [
    0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -2.5e-310,
    1e300, -1e-300, 1e12, 123456789012.5, 0.1,
]
FLOATS = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(SPECIAL_FLOATS))
# Quoting triggers, NUL, and non-ASCII characters of 2, 3 and 4 UTF-8 bytes.
TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\r\n-0.\x00é€\U0001f600')), max_size=6)


def column_of(elements, dtype):
    """n independent draws of elements, as a numpy column of dtype."""
    return lambda n: st.lists(elements, min_size=n, max_size=n).map(lambda v: np.array(v, dtype))


def spanned(lo, hi, dtype):
    """Integers within 30 of a base in [lo, hi - 29], drawn once per column:
    columns that repeat their values, next to the limits of their type."""
    return lambda n: st.integers(lo, hi - 29).flatmap(
        lambda base: column_of(st.integers(base, base + 29), dtype)(n)
    )


def runs(elements, dtype):
    """Each drawn value repeated 1-4 times, in drawn order or sorted: the
    writer reduces a column whose runs at least halve it to the runs' first
    values."""

    @st.composite
    def column(draw, n):
        k = draw(st.integers(1, 4))
        values = draw(st.lists(elements, min_size=-(-n // k), max_size=-(-n // k)))
        out = np.repeat(np.array(values, dtype), k)[:n]
        return np.sort(out) if draw(st.booleans()) else out

    return column


COLUMN_KINDS = {
    "float": column_of(FLOATS, float),
    "int": column_of(st.integers(-(2**63), 2**63 - 1), np.int64),
    "uint64": column_of(st.integers(0, 2**64 - 1), np.uint64),
    "bool": column_of(st.booleans(), bool),
    "str": column_of(TEXT, str),
    # Small ranges: negative ones, and uint64 ones up against 2**64.
    "int-span": spanned(-(2**63), 2**63 - 1, np.int64),
    "int-span-negative": spanned(-(2**63), -1, np.int64),
    "uint64-span": spanned(2**64 - 2**16, 2**64 - 1, np.uint64),
    # Runs, sorted or repeated, with NaN and -0.0 among the floats.
    "float-runs": runs(FLOATS, float),
    "int-runs": runs(st.integers(-(2**63), 2**63 - 1), np.int64),
}


@st.composite
def tables(draw):
    n = draw(st.integers(0, 25))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=4))
    return {f"c{i}": draw(COLUMN_KINDS[kind](n)) for i, kind in enumerate(kinds)}


CHUNK_ROWS = st.one_of(st.integers(1, 30), st.just(cli.CSV_CHUNK_ROWS))


def through_the_kernel():
    """numtext's crossover at 0: every number column, however short, takes the kernel."""
    return mock.patch.object(numtext, "CROSSOVER", 0)


def assert_matches_csv_writer(columns, chunk_rows):
    # Small chunks put chunk edges inside the table.
    with mock.patch.object(cli, "CSV_CHUNK_ROWS", chunk_rows), tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        _write_columns(path, dict(columns))
        assert read(path) == reference_csv(columns)


class TestWriteColumns:
    @settings(max_examples=300, deadline=None)
    @given(columns=tables(), chunk_rows=CHUNK_ROWS)
    def test_matches_csv_writer(self, columns, chunk_rows):
        assert_matches_csv_writer(columns, chunk_rows)

    @settings(max_examples=300, deadline=None)
    @given(columns=tables(), chunk_rows=CHUNK_ROWS)
    def test_matches_csv_writer_through_the_kernel(self, columns, chunk_rows):
        with through_the_kernel():
            assert_matches_csv_writer(columns, chunk_rows)

    @pytest.mark.parametrize(
        "values",
        [np.array(["", "a", "", "", "", "b,", ""]),
         np.array([np.nan, 2.0, np.nan, np.nan, np.nan, -0.0, np.nan]),
         (np.array(["", "a,"]), np.array([0, 1, 0, 0, 0, 1, 0])),
         (np.array([np.nan, -0.0]), np.array([0, 1, 0, 0, 0, 1, 0]))],
    )
    def test_lone_empty_fields_across_chunk_edges(self, tmp_path, monkeypatch, values):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 3)
        _write_columns(tmp_path / "t.csv", {"only": values})
        plain = values[0][values[1]] if isinstance(values, tuple) else values
        assert read(tmp_path / "t.csv") == reference_csv({"only": plain})

    @pytest.mark.parametrize(
        "values, got",
        [
            ([None, 1.5, None, None, "", None, None], "got list"),
            (np.array([None, 1.5, True, "a"], dtype=object), "got dtype object"),
            (np.array([0.1, 1 / 3], dtype=object), "got dtype object"),
            (np.array([1 + 2j]), "got dtype complex128"),
            (np.array([b"a"]), "got dtype |S1"),
            (np.array(["2020-01-01"], dtype="datetime64[D]"), "got dtype datetime64[D]"),
        ],
    )
    def test_rejects_all_but_numpy_bool_int_float_str(self, tmp_path, values, got):
        # Through csv, an object column's float would come out in repr form,
        # not ".12g": the writer takes numpy columns of the kinds it formats.
        columns = {"ok": np.arange(len(values)), "bad": values}
        with pytest.raises(TypeError, match=f"^column 'bad': .*{re.escape(got)}$"):
            _write_columns(tmp_path / "t.csv", columns)
        assert not (tmp_path / "t.csv").exists()

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
            _write_columns(tmp_path / "t.csv", dict(columns))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        head = read(tmp_path / "t.csv")[:4096].decode().splitlines()[:3]
        first_rows = reference_csv({k: v[:2] for k, v in columns.items()}).decode().splitlines()
        assert head == first_rows

    def test_owned_drop_is_let_go_column_by_column(self, tmp_path):
        # The writer owns the dict it is given and pops each column once its
        # cell table exists, so the columns' bytes go as the tables come. On the
        # plain mode-major columns of a 101x101 drop (5.45 MiB) it peaks 0.3 MiB
        # above what was traced at the call; holding them to the end took 4.8 MiB.
        data = apply_overrides(
            scenario_to_dict(default_scenario()), ["ue_grid.nx=101", "ue_grid.ny=101"]
        )
        scenario = scenario_from_dict(data)
        tracemalloc.start()
        try:
            columns = throughput_rows(run_drop(scenario, 0), ALL_MODES)  # their only reference
            total = sum(values.nbytes for values in columns.values())
            at_call = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _write_columns(tmp_path / "t.csv", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert columns == {}
        assert peak - at_call < total / 4

        # system-sim hands the drop over as lookups and keeps none of its
        # arrays while it writes. Each write of a 101x101 call peaks below what
        # plain mode-major columns took: 7.21 MiB traced for throughput.csv and
        # 5.12 MiB for cdf.csv. Now 5.17 and 2.80 at seed 0; holding the drop's
        # arrays through the writes took them to 6.88 and 5.10.
        peaks, write = {}, cli._write_columns

        def traced_write(path, columns):
            tracemalloc.reset_peak()
            write(path, columns)
            peaks[os.path.basename(path)] = tracemalloc.get_traced_memory()[1]

        argv = ["system-sim", "--scenario", SCENARIO, "--seed", "0", "--out", str(tmp_path / "o"),
                "--set", "ue_grid.nx=101", "--set", "ue_grid.ny=101"]
        tracemalloc.start()
        try:
            with mock.patch.object(cli, "_write_columns", traced_write):
                assert main(argv) == 0
        finally:
            tracemalloc.stop()
        assert peaks["throughput.csv"] <= 6.0 * 2**20 and peaks["cdf.csv"] <= 3.5 * 2**20

    def test_runs_of_strings_and_repeated_floats(self, tmp_path):
        columns = {
            "mode": np.repeat(["hd", "fibered", "hd"], [3, 2, 4]),
            "x": np.tile([1.5, -0.0, np.nan], 3),
        }
        _write_columns(tmp_path / "t.csv", dict(columns))
        assert read(tmp_path / "t.csv") == reference_csv(columns)


# Lookup columns: (values, rows) writes values[rows].

LOOKUP_VALUES = {
    "bool": column_of(st.booleans(), bool),
    "int8": column_of(st.integers(-(2**7), 2**7 - 1), np.int8),
    "int64": column_of(st.integers(-(2**63), 2**63 - 1), np.int64),
    "uint8": column_of(st.integers(0, 2**8 - 1), np.uint8),
    "uint64": column_of(st.integers(0, 2**64 - 1), np.uint64),
    "float": column_of(FLOATS, float),
    "str": column_of(TEXT, str),
}
ROW_DTYPES = [np.int8, np.int32, np.int64, np.uint16, np.uint64]


@st.composite
def lookup_tables(draw):
    """(columns, their plain expansion): n rows over one to three values
    objects of m values each, every column a lookup into one of them or its
    expansion. Columns may share an object, the last one included."""
    n = draw(st.integers(0, 25))
    m = draw(st.integers(0 if n == 0 else 1, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(LOOKUP_VALUES)), min_size=1, max_size=3))
    objects = [draw(LOOKUP_VALUES[kind](m)) for kind in kinds]
    columns, plain = {}, {}
    for i in range(draw(st.integers(1, 4))):
        values = objects[draw(st.integers(0, len(objects) - 1))]
        row_dtype = draw(st.sampled_from(ROW_DTYPES))
        rows = draw(column_of(st.integers(0, max(m - 1, 0)), row_dtype)(n))
        plain[f"c{i}"] = values[rows]
        columns[f"c{i}"] = (values, rows) if draw(st.booleans()) else values[rows]
    return columns, plain


def assert_lookup_writes_its_expansion(columns, plain, chunk_rows):
    chunks = mock.patch.object(cli, "CSV_CHUNK_ROWS", chunk_rows)
    with chunks, tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("lookup.csv", "plain.csv")]
        _write_columns(paths[0], dict(columns))
        _write_columns(paths[1], dict(plain))
        assert read(paths[0]) == read(paths[1]) == reference_csv(plain)


class TestLookupColumns:
    @settings(max_examples=200, deadline=None)
    @given(drawn=lookup_tables(), chunk_rows=CHUNK_ROWS)
    def test_lookup_writes_its_expansion(self, drawn, chunk_rows):
        assert_lookup_writes_its_expansion(*drawn, chunk_rows)

    @settings(max_examples=200, deadline=None)
    @given(drawn=lookup_tables(), chunk_rows=CHUNK_ROWS)
    def test_lookup_writes_its_expansion_through_the_kernel(self, drawn, chunk_rows):
        with through_the_kernel():
            assert_lookup_writes_its_expansion(*drawn, chunk_rows)

    def test_lookups_of_one_values_object_share_its_cells(self, tmp_path):
        values = np.array([1.5, -0.0, np.nan, 1e300])
        rows = np.array([0, 1, 2, 3, 1]), np.array([3, 3, 0, 2, 1])
        columns = {"a": (values, rows[0]), "b": (values, rows[1]), "c": (values, rows[0])}
        seps, real = [], cli._column_cells

        def counted(values, sep):
            seps.append(sep)
            return real(values, sep)

        with mock.patch.object(cli, "_column_cells", counted):
            _write_columns(tmp_path / "t.csv", dict(columns))
        assert seps == [b",", b"\n"]  # a and b share one table; c ends the row
        plain = {name: v[r] for name, (v, r) in columns.items()}
        assert read(tmp_path / "t.csv") == reference_csv(plain)

    @pytest.mark.parametrize(
        "columns, bad",
        [
            ({"a": np.arange(2), "b": np.arange(3)}, "b"),
            ({"a": np.arange(3), "b": np.arange(2)}, "b"),
            ({"a": np.arange(4), "b": np.arange(4).reshape(2, 2)}, "b"),
            ({"a": np.arange(4).reshape(2, 2), "b": np.arange(2)}, "a"),
            ({"a": np.array(1.0)}, "a"),
            ({"a": np.arange(2), "b": (np.arange(3.0), np.array([0, 1, 2]))}, "b"),
            ({"a": np.arange(2), "b": (np.arange(3.0), np.array([0, 3]))}, "b"),
            ({"a": np.arange(2), "b": (np.arange(3.0), np.array([-1, 0]))}, "b"),
            ({"a": np.arange(2), "b": (np.arange(3.0), np.array([0.0, 1.0]))}, "b"),
            ({"a": np.arange(2), "b": (np.arange(3.0), [0, 1])}, "b"),
            ({"a": np.arange(4), "b": (np.arange(3.0), np.zeros((2, 2), int))}, "b"),
            ({"a": (np.zeros((2, 3)), np.array([0, 1])), "b": np.arange(2)}, "a"),
            ({"a": np.arange(0), "b": (np.arange(0.0), np.array([0]))}, "b"),
        ],
    )
    def test_rejects_a_bad_shape_or_row_before_opening_the_file(self, tmp_path, columns, bad):
        with pytest.raises(ValueError, match=f"^column {bad!r}: "):
            _write_columns(tmp_path / "t.csv", columns)
        assert not (tmp_path / "t.csv").exists()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_distinct_matches_np_unique(self, data):
        kinds = {**COLUMN_KINDS, **LOOKUP_VALUES}
        kind = data.draw(st.sampled_from(sorted(kinds)))
        keys = data.draw(kinds[kind](data.draw(st.integers(0, 40))))
        uniq, index = cli._distinct(keys)
        bits = (lambda a: a.view(np.uint64)) if keys.dtype.kind == "f" else (lambda a: a)
        want, inverse = np.unique(bits(keys), return_inverse=True)
        assert uniq.dtype == keys.dtype and index.dtype == np.int32
        assert np.array_equal(bits(uniq), want) and np.array_equal(index, inverse)


class TestSystemSimLookups:
    """system-sim hands the writer each per-UE value once, as lookups built
    from run_drop's per-UE and per-mode arrays; it writes what the plain
    mode-major columns do."""

    @pytest.mark.parametrize(
        "overrides, modes",
        [
            (["ue_grid.nx=0", "ue_grid.ny=0"], ALL_MODES),
            (["ue_grid.nx=1", "ue_grid.ny=1"], ALL_MODES),
            (["ue_grid.nx=2", "ue_grid.ny=2"], ALL_MODES),
            ([], ALL_MODES),
            ([], ("hd", "fd_full")),
            (["reflectors=null"], ALL_MODES),
            (["iab_nodes=[]"], ALL_MODES),
        ],
        ids=["0x0", "1x1", "2x2", "21x21", "modes", "no-reflectors", "no-nodes"],
    )
    def test_writes_what_the_plain_columns_write(self, tmp_path, overrides, modes):
        names = [getattr(m, "value", m) for m in modes]
        out = tmp_path / "out"
        argv = ["system-sim", "--scenario", SCENARIO, "--seed", "5", "--out", str(out),
                "--modes", ",".join(names)]
        handed = []  # throughput.csv's access columns, as the writer gets them

        def write_columns(path, columns):
            if "access_sinr_db" in columns:
                handed.extend((columns["access_snr_db"], columns["access_sinr_db"]))
            return _write_columns(path, columns)

        with mock.patch.object(cli, "_write_columns", write_columns):
            assert main(argv + [a for o in overrides for a in ("--set", o)]) == 0
        scenario = scenario_from_dict(apply_overrides(read_scenario_file(SCENARIO), overrides))
        drop = run_drop(scenario, 5, modes=modes)
        k, n = drop["throughput_bps"].shape
        assert k == len(names)
        # One access level per UE, plus the SINR with DLI of each relayed UE
        # once, however many FD modes share it.
        (level, snr_rows), (sinr_level, _) = handed
        fd = any(Mode(m) in FD_MODES for m in modes)
        assert sinr_level is level and snr_rows.tolist() == list(range(n)) * k
        assert level.size == n + fd * int((drop["serving_cell"] > 0).sum())
        # Every mode's curve has n points, so the first mode's probabilities.
        curves = [cdf(row) for row in drop["throughput_bps"]]
        assert all(np.array_equal(p, curves[0][1]) for _, p in curves)
        plain_cdf = {
            "mode": np.repeat(names, n),
            "throughput_bps": np.concatenate([v for v, _ in curves]),
            "cdf": np.concatenate([p for _, p in curves]),
        }
        _write_columns(tmp_path / "throughput.csv", throughput_rows(drop, modes))
        _write_columns(tmp_path / "cdf.csv", plain_cdf)
        for name in ("throughput.csv", "cdf.csv"):
            assert read(out / name) == read(tmp_path / name), name

    def test_101x101_bytes_do_not_depend_on_the_crossover(self, tmp_path):
        # Crossover 0 sends every number column through the numpy kernel, the
        # 21-value throughputs included; above every column size, none.
        argv = ["system-sim", "--scenario", SCENARIO, "--seed", "3",
                "--set", "ue_grid.nx=101", "--set", "ue_grid.ny=101"]
        for crossover in (0, 10**9):
            with mock.patch.object(numtext, "CROSSOVER", crossover):
                assert main(argv + ["--out", str(tmp_path / str(crossover))]) == 0
        for name in ("throughput.csv", "cdf.csv"):
            assert read(tmp_path / "0" / name) == read(tmp_path / str(10**9) / name), name


# numtext's kernel: the cells of a column's distinct values, with PAD dropped,
# read as format(v, ".12g") (NaN empty) and str(v).

# Short decimals, ties at the 12th digit among them, and values next to the
# fixed notation's edges.
DECIMALS = st.builds(lambda m, k: m / 10.0**k, st.integers(-(10**13), 10**13), st.integers(0, 17))
KERNEL_FLOATS = st.one_of(
    FLOATS, st.floats(1e-5, 1e12), st.floats(-1e12, -1e-5), DECIMALS,
    st.integers(-19, 15).map(lambda k: float(f"1e{k}")).flatmap(
        lambda p: st.sampled_from([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
    ),
)
KERNEL_INTS = st.one_of(
    st.integers(-(10**12), 10**12), st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([0, -1, 9, 10, -10, 99, 100, 10**12, -(10**12), 10**12 + 1, -(10**12) - 1]),
)


def kernel_text(values):
    """Each value's cell from _column_cells with the kernel's crossover at 0."""
    with through_the_kernel():
        cells, index = cli._column_cells(values, b",")
    assert cells.shape[0] == 0 or (cells[:, -1] == ord(",")).all()
    text = cells.tobytes().translate(None, b"\xff").decode().split(",")[:-1]
    return [text[i] for i in index]


class TestNumberCells:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(KERNEL_FLOATS, max_size=40).map(lambda v: np.array(v, float)))
    def test_floats_read_as_format_12g(self, values):
        assert kernel_text(values) == reference_cells(values)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.one_of(
            st.lists(KERNEL_INTS, max_size=40).map(lambda v: np.array(v, np.int64)),
            st.lists(st.integers(0, 2**64 - 1), max_size=10).map(lambda v: np.array(v, np.uint64)),
            st.lists(st.integers(0, 10**12 + 1), max_size=10).map(lambda v: np.array(v, np.uint64)),
        )
    )
    def test_ints_read_as_str(self, values):
        assert kernel_text(values) == reference_cells(values)

    @pytest.mark.parametrize(
        "value",
        [float(f"1e{k}") for k in range(-5, 14)]
        + [9.999999999995, 999999999999.5, 99999.99999995, 123456789012.5, 9.99999999999951e-05],
    )
    def test_edges(self, value):
        # The value, its neighbours, and their negatives: powers of ten cross
        # the fixed/scientific edges, the others carry into a 13th digit, tie
        # or round up to 1e-4.
        near = [value, np.nextafter(value, 0), np.nextafter(value, np.inf)]
        values = np.array(near + [-v for v in near])
        assert kernel_text(values) == reference_cells(values)

    def test_only_unproved_values_go_through_percent(self):
        # Ties and values within GUARD of one, zeros, subnormals, NaN, inf and
        # the scientific range are the "%" pass's; fixed notation is the
        # kernel's, with values that carry into the next power of ten
        # (9.99999999999951e-05 rounds to 0.0001) among it.
        kernel = [1.5, -0.001, 9.99999999999951e-05, 99999.9999999996, 123.456, 0.1]
        percent = [123456789012.5, 99999.99999995, 0.0, -0.0, 5e-324, np.nan, np.inf, 1e12, 9.9e-5]
        values = np.array(kernel + percent)
        seen, real = [], numtext._percent_cells

        def recorded(uniq, sep):
            seen.extend(uniq.tolist())
            return real(uniq, sep)

        with mock.patch.object(numtext, "_percent_cells", recorded):
            assert kernel_text(values) == reference_cells(values)
        assert sorted(map(repr, seen)) == sorted(map(repr, percent))

    def test_columns_below_the_crossover_take_percent(self):
        values = np.arange(numtext.CROSSOVER - 1, dtype=float) / 7
        with mock.patch.object(numtext, "_float_cells") as kernel:
            cli._column_cells(values, b",")
        kernel.assert_not_called()
