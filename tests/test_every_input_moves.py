"""Every leaf field of the scenario moves an output.

The leaves are found by walking Scenario's dataclasses, as test_bounds.py
walks the bounded fields, so a new field is covered as it is written. Each
leaf is nudged to another valid value from NUDGES, and the nudge must change
at least one byte of the CSVs of system-sim on a 5x5 grid or of link-sim. A
field that no computation reads fails, and so does a leaf with no entry.
"""

import dataclasses
import json
import typing

import pytest

from fdiab.cli import main
from fdiab.scenario import scenario_to_dict, set_value
from fdiab.system import Scenario, default_scenario

# Another valid value of each leaf, keyed by its path; '*' is a list's
# elements, of which the nudge sets the first.
NUDGES = {
    "donor.position": [-150.0, 10.0, 130.0],
    "donor.tx_power_dbm": 40.0,
    "donor.pattern.boresight_gain_dbi": 18.0,
    "donor.pattern.beamwidth_3db_deg": 10.0,
    "donor.pattern.sidelobe_floor_dbi": -20.0,
    "donor.sector_center_az_deg": 10.0,
    "iab_nodes.*.position": [40.0, 110.0, 126.0],
    "iab_nodes.*.tx_power_dbm": 40.0,
    "iab_nodes.*.pattern.boresight_gain_dbi": 18.0,
    "iab_nodes.*.pattern.beamwidth_3db_deg": 10.0,
    "iab_nodes.*.pattern.sidelobe_floor_dbi": -20.0,
    "iab_nodes.*.sector_center_az_deg": 10.0,
    "iab_nodes.*.antenna_separation_m": 2.0,
    "iab_nodes.*.residual_si_dbm": -60.0,
    "ue_grid.nx": 4,
    "ue_grid.ny": 4,
    "ue_grid.x_range": [-200.0, 250.0],
    "ue_grid.y_range": [-200.0, 250.0],
    "ue_grid.height_m": 2.0,
    "bandwidth_hz": 100e6,
    "noise_figure_db": 6.0,
    "carrier_freq_hz": 3.5e9,
    "guard_overhead": 0.2,
    "access_shadow_sigma_db": 6.0,
    "full_sic_margin_db": 3.0,
    "reflectors.min_taps": 1,
    "reflectors.max_taps": 3,
    "reflectors.delay_offset_range_s": [2e-9, 20e-9],
    "reflectors.rel_power_range_db": [10.0, 30.0],
}

# Each command's CSVs; run.json records the scenario, so it always moves.
COMMANDS = {"system-sim": ("throughput.csv", "cdf.csv"), "link-sim": ("reduction.csv",)}


def leaves(cls, path=""):
    """The dotted path of each leaf field below the dataclass cls."""
    for f in dataclasses.fields(cls):
        name = f"{path}.{f.name}" if path else f.name
        args = [a for a in typing.get_args(f.type) if a is not type(None)]
        if dataclasses.is_dataclass(f.type):
            yield from leaves(f.type, name)
        elif typing.get_origin(f.type) is tuple and args[-1] is Ellipsis:
            yield from leaves(args[0], f"{name}.*")
        elif len(args) == 1 and dataclasses.is_dataclass(args[0]):  # X | None
            yield from leaves(args[0], name)
        else:
            yield name


LEAVES = list(leaves(Scenario))


def base():
    """The default scenario on a 5x5 UE grid, as a dict."""
    data = scenario_to_dict(default_scenario())
    data["ue_grid"].update(nx=5, ny=5)
    return data


def outputs(tmp_path, data, command):
    """The CSV bytes command writes for the scenario dict data at seed 0."""
    path, out = tmp_path / "scenario.json", tmp_path / "out"
    path.write_text(json.dumps(data))
    assert main([command, "--scenario", str(path), "--seed", "0", "--out", str(out)]) == 0
    written = {name: (out / name).read_bytes() for name in COMMANDS[command]}
    for name in (*written, "run.json"):
        (out / name).unlink()
    return written


@pytest.fixture(scope="module")
def base_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("base")
    return {command: outputs(tmp, base(), command) for command in COMMANDS}


def test_walk_finds_the_known_leaves():
    assert {"donor.pattern.sidelobe_floor_dbi", "iab_nodes.*.antenna_separation_m",
            "reflectors.min_taps", "ue_grid.nx", "guard_overhead"} <= set(LEAVES)
    assert sorted(NUDGES.keys() - set(LEAVES)) == []  # an entry for a leaf that is gone goes


@pytest.mark.parametrize("path", LEAVES)
def test_every_leaf_moves_an_output(path, base_outputs, tmp_path):
    assert path in NUDGES, f"{path}: no nudge; give it one, or drop the field if nothing reads it"
    data = base()
    set_value(data, path.replace("*", "0"), NUDGES[path], "override")
    assert any(
        outputs(tmp_path, data, command) != base_outputs[command] for command in COMMANDS
    ), f"{path}: set to {NUDGES[path]!r}, it changed no byte of any output"
