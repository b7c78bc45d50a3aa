import csv
import dataclasses
import io
import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from fdiab import cli, csvtable, sic
from fdiab.cli import main
from fdiab.csvtable import write_columns
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

    @pytest.mark.parametrize("seed", ["0", "123456789"])
    def test_is_the_sweep_of_one_cell_and_one_drop(self, tmp_path, seed):
        """reduction.csv is, byte for byte, the sweep.csv of no grid and one
        drop at the same seed less its first two columns, cell and drop."""
        args = ["--scenario", SCENARIO, "--seed", seed]
        assert main(["link-sim", *args, "--out", str(tmp_path / "link")]) == 0
        assert main(["sweep", *args, "--drops", "1", "--out", str(tmp_path / "sweep")]) == 0
        sweep = read(tmp_path / "sweep" / "sweep.csv").decode().splitlines(keepends=True)
        assert sweep[0].startswith("cell,drop,node,")
        rows = "".join(line.split(",", 2)[2] for line in sweep)
        assert read(tmp_path / "link" / "reduction.csv").decode() == rows

    @pytest.mark.parametrize("argv, builds", [
        (["link-sim"], 1),
        (["sweep", "--grid", "iab_nodes.*.antenna_separation_m=0.1,1,2"], 1 + 3),
    ])
    def test_builds_the_scenario_once_and_each_grid_cell_once(
        self, tmp_path, monkeypatch, argv, builds
    ):
        built = mock.Mock(wraps=scenario_from_dict)
        monkeypatch.setattr(cli, "scenario_from_dict", built)
        assert main([*argv, "--scenario", SCENARIO, "--seed", "0", "--out", str(tmp_path)]) == 0
        assert built.call_count == builds


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

    # A selection in its own order, an FD mode first, and each mode alone, so
    # that no mode's rows can depend on which other modes ran.
    @pytest.mark.parametrize("modes", ["fd_prop_only,hd", *(m.value for m in ALL_MODES)])
    def test_mode_subset_writes_the_full_runs_rows_of_its_modes(self, tmp_path, modes):
        # The selection gives each mode the rows the full run gives it, byte
        # for byte, in both files.
        runs = {}
        for name, extra in (("full", []), ("subset", ["--modes", modes])):
            argv = ["system-sim", "--scenario", SCENARIO, "--seed", "0",
                    "--out", str(tmp_path / name)] + extra
            assert main(argv) == 0
            runs[name] = {f: read(tmp_path / name / f).splitlines(True)
                          for f in ("throughput.csv", "cdf.csv")}
        selected = [f"{m},".encode() for m in modes.split(",")]
        for f, subset in runs["subset"].items():
            full = runs["full"][f]
            want = [r for m in selected for r in full if r.startswith(m)]
            assert len(want) == len(selected) * 21 * 21
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

    COMMON_KEYS = {"tool", "version", "command", "scenario_path", "seed", "overrides",
                   "resolved_scenario", "outputs", "timestamp"}

    @pytest.mark.parametrize(
        "argv, own_keys",
        [
            (["link-sim", "--scenario", SCENARIO], set()),
            (["system-sim", "--scenario", SCENARIO] + SMALL, {"modes"}),
            (["sweep", "--scenario", SCENARIO, "--grid", "noise_figure_db=3,4"],
             {"grid", "drops"}),
            (["compare-prototype"], set()),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_sidecar_keys(self, tmp_path, argv, own_keys):
        """Every command's run.json has the common keys and its own arguments'."""
        out = tmp_path / "o"
        assert main(argv + ["--seed", "2", "--out", str(out)]) == 0
        with open(out / "run.json") as fh:
            side = json.load(fh)
        assert set(side) == self.COMMON_KEYS | own_keys
        assert side["command"] == argv[0] and side["seed"] == 2

    def test_compare_prototype_records_no_scenario_and_no_overrides(self, tmp_path):
        out = tmp_path / "o"
        assert main(["compare-prototype", "--out", str(out)]) == 0
        side = sidecar_without_timestamp(out / "run.json")
        assert side["scenario_path"] is None and side["resolved_scenario"] is None
        assert side["overrides"] == []


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
            text = {k: csvtable.format_value(v) for k, v in want.items()}
            assert {k: row[k] for k in want} == text


# Golden tables at seed 0 over scenarios/default.json. Change these on purpose
# only, when the chain's, the prototype comparison's or the drop's output is
# meant to move.
# sweep --grid iab_nodes.*.antenna_separation_m=0.1,1,2 --drops 1:
GOLDEN_SWEEP = """\
cell,drop,iab_nodes.*.antenna_separation_m,node,antenna_separation_m,seed,tx_power_dbm,after_propagation_dbm,after_analog_dbm,after_digital_dbm,propagation_db,analog_db,digital_db,noise_floor_dbm,analog_applied,gray_zone_ok,digital_saturated,holdout_residual_dbm
0,0,0.1,0,0.1,3408044606088226153,31.9732127774,-29.4177090325,-90.175173183,-90.1990749612,61.3909218099,60.7574641505,0.0239017782299,-90.2081875395,true,true,false,-90.1883137314
0,0,0.1,1,0.1,2803755670168787654,31.968210688,-29.7895996638,-55.8621330802,-90.1542619711,61.7578103518,26.0725334164,34.2921288908,-90.2081875395,true,true,false,-90.1860255872
1,0,1,0,1,3408044606088226153,31.9732127774,-49.4173478375,-49.4173478375,-90.1720639287,81.3905606149,0,40.7547160912,-90.2081875395,false,true,false,-90.1705055259
1,0,1,1,1,2803755670168787654,31.968210688,-49.724810657,-49.724810657,-90.169034849,81.693021345,0,40.444224192,-90.2081875395,false,true,false,-90.1998453119
2,0,2,0,2,3408044606088226153,31.9732127774,-55.4383293077,-55.4383293077,-90.1971334004,87.4115420851,0,34.7588040927,-90.2081875395,false,true,false,-90.1840995504
2,0,2,1,2,2803755670168787654,31.968210688,-55.037034302,-55.037034302,-90.1972956263,87.00524499,0,35.1602613243,-90.2081875395,false,true,false,-90.2298959203
"""

# link-sim:
GOLDEN_LINK = """\
node,antenna_separation_m,seed,tx_power_dbm,after_propagation_dbm,after_analog_dbm,after_digital_dbm,propagation_db,analog_db,digital_db,noise_floor_dbm,analog_applied,gray_zone_ok,digital_saturated,holdout_residual_dbm
0,1,3408044606088226153,31.9732127774,-49.4173478375,-49.4173478375,-90.1720639287,81.3905606149,0,40.7547160912,-90.2081875395,false,true,false,-90.1705055259
1,1,2803755670168787654,31.968210688,-49.724810657,-49.724810657,-90.169034849,81.693021345,0,40.444224192,-90.2081875395,false,true,false,-90.1998453119
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
        assert lines[0] == "separation_m,relative_azimuth_deg,simulated_suppression_db"
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

    def test_sweep_cell_leaving_the_si_channel_no_power_is_1_before_any_chain(
        self, scenario_path, tmp_path, capsys, monkeypatch
    ):
        # Node 1's direct tap underflows in the second cell alone. Each cell's
        # direct taps are evaluated as its chain inputs are built, so the sweep
        # fails there, before any chain runs (patched as in the CP case above).
        chains = mock.Mock(side_effect=sic.run_link_chains)
        monkeypatch.setattr(sic, "run_link_chains", chains)
        rc = main(
            ["sweep", "--scenario", scenario_path, "--seed", "0", "--out", str(tmp_path / "o"),
             "--set", "iab_nodes.1.pattern.beamwidth_3db_deg=0.01",
             "--grid", "iab_nodes.1.pattern.sidelobe_floor_dbi=-10,-10000"]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            "fdiab: iab_nodes[1].pattern: gives the direct SI path -2.006e+04 dB,"
            " which carries no power\n"
        )
        assert not (tmp_path / "o").exists()
        assert chains.call_count == 0

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
        "first, second",
        [
            ("iab_nodes.0.antenna_separation_m", "iab_nodes.*.antenna_separation_m"),
            ("iab_nodes.*.antenna_separation_m", "iab_nodes.1.antenna_separation_m"),
            ("iab_nodes", "iab_nodes.0.antenna_separation_m"),
        ],
    )
    def test_overlapping_grid_keys_are_1_naming_both(
        self, scenario_path, tmp_path, capsys, first, second
    ):
        # The later axis would overwrite the earlier one's values, which would
        # still label the rows.
        rc = main(
            ["sweep", "--scenario", scenario_path, "--seed", "0", "--out", str(tmp_path / "o"),
             "--grid", f"{first}=1,2", "--grid", f"{second}=0.5"]
        )
        assert rc == 1
        assert f"--grid keys {first!r} and {second!r} overlap" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_disjoint_grid_keys_sweep(self, scenario_path, tmp_path):
        out = tmp_path / "o"
        rc = main(
            ["sweep", "--scenario", scenario_path, "--seed", "0", "--out", str(out),
             "--grid", "iab_nodes.0.antenna_separation_m=1,2",
             "--grid", "iab_nodes.1.antenna_separation_m=0.5"]
        )
        assert rc == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            want = row["iab_nodes.0.antenna_separation_m"] if row["node"] == "0" else "0.5"
            assert row["antenna_separation_m"] == want

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

        def handing(path, columns):
            if "access_sinr_db" in columns:
                handed.extend((columns["access_snr_db"], columns["access_sinr_db"]))
            return write_columns(path, columns)

        with mock.patch.object(csvtable, "write_columns", handing):
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
        write_columns(tmp_path / "throughput.csv", throughput_rows(drop, modes))
        write_columns(tmp_path / "cdf.csv", plain_cdf)
        for name in ("throughput.csv", "cdf.csv"):
            assert read(out / name) == read(tmp_path / name), name

    def test_101x101_bytes_do_not_depend_on_the_crossover(self, tmp_path):
        # Crossover 0 sends every number column through the numpy kernel, the
        # 21-value throughputs included; above every column size, none.
        argv = ["system-sim", "--scenario", SCENARIO, "--seed", "3",
                "--set", "ue_grid.nx=101", "--set", "ue_grid.ny=101"]
        for crossover in (0, 10**9):
            with mock.patch.object(csvtable, "CROSSOVER", crossover):
                assert main(argv + ["--out", str(tmp_path / str(crossover))]) == 0
        for name in ("throughput.csv", "cdf.csv"):
            assert read(tmp_path / "0" / name) == read(tmp_path / str(10**9) / name), name
