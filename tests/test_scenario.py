import copy
import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdiab.geometry import AntennaPattern, ReflectorConfig
from fdiab.scenario import (
    ScenarioError,
    apply_overrides,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from fdiab.system import MAX_UES, Donor, IabNode, Scenario, UeGrid, default_scenario
from fdiab.util import SPEED_OF_LIGHT, FieldError


def test_minimal_file_gets_defaults(tmp_path):
    path = tmp_path / "min.json"
    path.write_text(json.dumps({"donor": {"position": [0, 0, 100]}}))
    sc = load_scenario(path)
    assert sc.donor.tx_power_dbm == 43.0
    assert sc.donor.pattern.boresight_gain_dbi == 20.0
    assert sc.ue_grid.nx * sc.ue_grid.ny == 441
    assert len(sc.iab_nodes) == 2  # default deployment fills in the relays
    assert sc.bandwidth_hz == 120e6 and sc.guard_overhead == 0.1


def test_negative_separation_rejected_with_field_path(tmp_path):
    data = {
        "donor": {"position": [0, 0, 100]},
        "iab_nodes": [{"position": [10, 0, 90], "antenna_separation_m": -1}],
    }
    with pytest.raises(ScenarioError, match=r"iab_nodes\[0\].antenna_separation_m"):
        scenario_from_dict(data)


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError, match="unknown key"):
        scenario_from_dict({"donor": {"position": [0, 0, 1]}, "bogus": 1})
    with pytest.raises(ScenarioError, match="unknown key"):
        scenario_from_dict({"donor": {"position": [0, 0, 1], "frequency": 1.0}})


def test_missing_donor_named():
    with pytest.raises(ScenarioError, match="donor"):
        scenario_from_dict({})


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="malformed"):
        load_scenario(path)


def test_round_trip_shipped_scenario(tmp_path):
    sc = default_scenario()
    path = tmp_path / "s.json"
    save_scenario(sc, path)
    assert load_scenario(path) == sc
    # and a second hop through the dict form
    assert scenario_from_dict(scenario_to_dict(sc)) == sc


finite = st.floats(-1e6, 1e6)
positive = st.floats(1e-6, 1e12)
non_negative = st.floats(0.0, 1e6)
# Powers and gains in dB stop at their 100 dB upper bound.
up_to_100 = st.floats(-1e6, 100.0)
# Carriers from 1 GHz and separations from 3 cm keep every Friis loss >= 0 dB.
carriers = st.floats(1e9, 1e12)
separations = st.floats(0.03, 1e12)


def ordered_pair(values):
    return st.tuples(values, values).filter(lambda t: t[0] != t[1]).map(lambda t: tuple(sorted(t)))


patterns = st.builds(
    lambda floor, above, width, pol: AntennaPattern(floor + above, width, floor, pol),
    st.floats(-1e6, 0.0),
    st.floats(1e-3, 100.0),
    positive,
    st.sampled_from(["V", "H"]),
)
positions = st.tuples(finite, finite, finite)
azimuths = st.none() | finite

def link_under_friis_distance(kwargs):
    """A UE on a cell, or an access path or a backhaul hop shorter than
    c / (4 pi f), where the Friis loss is 0 dB."""
    nearest = SPEED_OF_LIGHT / (4 * math.pi * kwargs["carrier_freq_hz"])
    ues, donor, nodes = kwargs["ue_grid"].positions(), kwargs["donor"], kwargs["iab_nodes"]
    access = [np.linalg.norm(ues - np.asarray(c.position), axis=1) for c in (donor, *nodes)]
    hops = [math.dist(node.mt_position(), donor.position) for node in nodes]
    return any(a.size and a.min() < nearest for a in access) or any(h < nearest for h in hops)


# Scenario keyword arguments first: Scenario itself rejects a UE on a cell
# and a link shorter than c / (4 pi f).
scenarios = st.builds(
    dict,
    donor=st.builds(
        Donor,
        position=positions,
        tx_power_dbm=up_to_100,
        pattern=patterns,
        sector_center_az_deg=azimuths,
    ),
    iab_nodes=st.lists(
        st.builds(
            IabNode,
            position=positions,
            antenna_separation_m=separations,
            tx_power_dbm=up_to_100,
            pattern=patterns,
            sector_center_az_deg=azimuths,
            residual_si_dbm=st.none() | up_to_100,
        ),
        max_size=3,
    ).map(tuple),
    ue_grid=st.builds(
        UeGrid,
        nx=st.integers(0, 50),
        ny=st.integers(0, 50),
        x_range=ordered_pair(finite),
        y_range=ordered_pair(finite),
        height_m=non_negative,
    ),
    bandwidth_hz=positive,
    noise_figure_db=st.floats(0.0, 100.0),
    carrier_freq_hz=carriers,
    guard_overhead=st.floats(0.0, 1.0, exclude_max=True),
    access_shadow_sigma_db=st.floats(0.0, 100.0),
    full_sic_margin_db=st.floats(-100.0, 100.0),
    reflectors=st.none()
    | st.integers(0, 8).flatmap(
        lambda lo: st.builds(
            ReflectorConfig,
            min_taps=st.just(lo),
            max_taps=st.integers(lo, 12),
            delay_offset_range_s=ordered_pair(st.floats(1e-12, 1e-5)),
            rel_power_range_db=ordered_pair(finite),
        )
    ),
).filter(lambda kwargs: not link_under_friis_distance(kwargs)).map(lambda kw: Scenario(**kw))


@settings(max_examples=200, deadline=None)
@given(sc=scenarios)
def test_round_trip_generated_scenarios(sc):
    assert scenario_from_dict(scenario_to_dict(sc)) == sc
    assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(sc)))) == sc


def test_shipped_default_scenario_file():
    sc = load_scenario("scenarios/default.json")
    assert sc == default_scenario()


def test_overrides_applied_and_validated():
    data = scenario_to_dict(default_scenario())
    data = apply_overrides(
        data,
        [
            "iab_nodes.*.antenna_separation_m=0.1",
            "iab_nodes.1.tx_power_dbm=40",
            "ue_grid.nx=5",
            "donor.pattern.boresight_gain_dbi=19.86",
        ],
    )
    sc = scenario_from_dict(data)
    assert all(n.antenna_separation_m == 0.1 for n in sc.iab_nodes)
    assert sc.iab_nodes[1].tx_power_dbm == 40.0
    assert sc.ue_grid.nx == 5
    assert sc.donor.pattern.boresight_gain_dbi == 19.86


def test_unknown_override_key_rejected():
    data = scenario_to_dict(default_scenario())
    data = apply_overrides(data, ["definitely_not_a_field=3"])
    with pytest.raises(ScenarioError, match="unknown key"):
        scenario_from_dict(data)


def test_bad_override_forms():
    data = scenario_to_dict(default_scenario())
    with pytest.raises(ScenarioError, match="key=value"):
        apply_overrides(data, ["no_equals_sign"])
    with pytest.raises(ScenarioError, match="out of range"):
        apply_overrides(data, ["iab_nodes.7.tx_power_dbm=40"])
    with pytest.raises(ScenarioError, match="not a list index"):
        apply_overrides(data, ["iab_nodes.first.tx_power_dbm=40"])


@pytest.mark.parametrize("nodes", [None, []], ids=["missing", "empty"])
def test_wildcard_matching_nothing_rejected(nodes):
    data = {"donor": {"position": [0, 0, 100]}}
    if nodes is not None:
        data["iab_nodes"] = nodes
    key = "iab_nodes.*.tx_power_dbm"
    with pytest.raises(ScenarioError, match=r"'iab_nodes\.\*\.tx_power_dbm'.*matches no"):
        apply_overrides(data, [f"{key}=30"])


def test_reflectors_null_disables():
    data = scenario_to_dict(default_scenario())
    data["reflectors"] = None
    assert scenario_from_dict(data).reflectors is None


def test_override_into_null_section_applies_on_its_defaults():
    # A null ue_grid or pattern loads as the section's defaults, so an
    # override descends into those defaults.
    data = {"donor": {"position": [-150, 0, 130], "pattern": None}, "ue_grid": None}
    sc = scenario_from_dict(
        apply_overrides(data, ["ue_grid.nx=5", "donor.pattern.beamwidth_3db_deg=10"])
    )
    assert sc.ue_grid == UeGrid(nx=5)
    assert sc.donor.pattern == AntennaPattern(beamwidth_3db_deg=10.0)


def test_override_into_null_reflectors_names_the_section_off():
    data = {"donor": {"position": [-150, 0, 130]}, "reflectors": None}
    message = r"^override 'reflectors\.min_taps': reflectors is null, which turns that section off"
    with pytest.raises(ScenarioError, match=message):
        apply_overrides(data, ["reflectors.min_taps=1"])


def test_noise_bounds_hold_in_files():
    data = apply_overrides(scenario_to_dict(default_scenario()), ["noise_figure_db=-5"])
    with pytest.raises(ScenarioError, match="^noise_figure_db: must be >= 0, got -5.0"):
        scenario_from_dict(data)


def test_separation_must_keep_free_space_loss_at_or_above_0_db():
    sc = default_scenario()
    at_0_db = SPEED_OF_LIGHT / (4 * math.pi * sc.carrier_freq_hz)  # 0.85 mm at 28 GHz
    node = dataclasses.replace(sc.iab_nodes[1], antenna_separation_m=at_0_db * (1 + 1e-9))
    assert dataclasses.replace(sc, iab_nodes=(sc.iab_nodes[0], node)).iab_nodes[1] == node
    node = dataclasses.replace(node, antenna_separation_m=at_0_db * (1 - 1e-9))
    message = (
        r"^iab_nodes\[1\].antenna_separation_m: must be >= 0.000852 m at carrier_freq_hz 2.8e\+10,"
        r" where Friis loss is 0 dB, got 0.000852"
    )
    with pytest.raises(FieldError, match=message):
        dataclasses.replace(sc, iab_nodes=(sc.iab_nodes[0], node))


@pytest.mark.parametrize(
    "nodes, length, link",
    [
        # No node: one UE 10 m below the donor, the access path the only link.
        ((), 10.0, "access path from donor to UE 0"),
        # A node's MT 5 m above the donor: shorter than its 10 m separation.
        ((IabNode(position=(0.0, 0.0, 116.5), antenna_separation_m=10.0),), 5.0,
         "backhaul hop to iab_nodes[0]"),
    ],
    ids=["access-path", "backhaul-hop"],
)
def test_carrier_must_keep_every_link_at_or_above_0_db_friis_loss(nodes, length, link):
    grid = UeGrid(nx=1, ny=1, x_range=(0.0, 1.0), y_range=(0.0, 1.0), height_m=91.5)
    far = UeGrid(nx=1, ny=1, x_range=(1e3, 2e3), y_range=(0.0, 1.0))
    sc = Scenario(donor=Donor(position=(0.0, 0.0, 101.5)), iab_nodes=nodes,
                  ue_grid=grid if not nodes else far)
    at_0_db = SPEED_OF_LIGHT / (4 * math.pi * length)
    assert dataclasses.replace(sc, carrier_freq_hz=at_0_db * (1 + 1e-9)).iab_nodes == nodes
    carrier = at_0_db * (1 - 1e-9)
    message = f"carrier_freq_hz: must be >= {at_0_db:.4g} Hz, where the {length:g} m {link} has"
    message += f" 0 dB Friis loss, got {carrier!r}"
    with pytest.raises(FieldError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(sc, carrier_freq_hz=carrier)


def test_mt_on_the_donor_is_rejected_naming_both():
    node = IabNode(position=(-150.0, 0.0, 131.0), antenna_separation_m=1.0)
    message = r"^iab_nodes\[1\]: its MT lies on donor\.position \[-150\.0, 0\.0, 130\.0\]$"
    with pytest.raises(FieldError, match=message):
        dataclasses.replace(default_scenario(), iab_nodes=(default_scenario().iab_nodes[0], node))


def test_ue_grid_cap_is_checked_before_any_ue_is_laid_out():
    data = apply_overrides(
        scenario_to_dict(default_scenario()), ["ue_grid.nx=100000", "ue_grid.ny=100000"]
    )
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError, match="^ue_grid: 100000 x 100000 UEs exceed the cap"):
            scenario_from_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # 10**10 UEs would take 240 GB as positions alone
    grid = UeGrid(nx=MAX_UES, ny=1)
    assert grid.nx * grid.ny == MAX_UES
    with pytest.raises(FieldError, match="exceed the cap"):
        UeGrid(nx=MAX_UES + 1, ny=1)


@pytest.mark.parametrize(
    "override, field",
    [
        ("bandwidth_hz=NaN", "bandwidth_hz"),
        ("donor.tx_power_dbm=Infinity", "donor.tx_power_dbm"),
        ("iab_nodes.1.antenna_separation_m=Infinity", r"iab_nodes\[1\].antenna_separation_m"),
        ("iab_nodes.0.residual_si_dbm=-Infinity", r"iab_nodes\[0\].residual_si_dbm"),
        ("donor.sector_center_az_deg=NaN", "donor.sector_center_az_deg"),
        ("donor.position=[0, 0, NaN]", "donor.position"),
        ("ue_grid.x_range=[-Infinity, 0]", "ue_grid.x_range"),
    ],
)
def test_non_finite_numbers_rejected_with_field_path(override, field):
    data = apply_overrides(scenario_to_dict(default_scenario()), [override])
    with pytest.raises(ScenarioError, match=rf"^{field}: expected .*finite"):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "overrides, message",
    [
        # UE 1 of a 3x1 grid sits on the donor at (-150, 0, 130).
        (
            ["ue_grid.nx=3", "ue_grid.ny=1", "ue_grid.x_range=[-250,-50]",
             "ue_grid.y_range=[0,10]", "ue_grid.height_m=130"],
            r"^ue_grid: UE 1 lies on donor\.position \[-150\.0, 0\.0, 130\.0\]$",
        ),
        # UE 4 of a 3x2 grid sits on the second relay at (40, -100, 99).
        (
            ["ue_grid.nx=3", "ue_grid.ny=2", "ue_grid.x_range=[0,80]",
             "ue_grid.y_range=[-200,-100]", "ue_grid.height_m=99"],
            r"^ue_grid: UE 4 lies on iab_nodes\[1\]\.position \[40\.0, -100\.0, 99\.0\]$",
        ),
    ],
)
def test_ue_on_a_cell_rejected_with_both_fields(overrides, message):
    data = apply_overrides(scenario_to_dict(default_scenario()), overrides)
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(data)
    # At street level the same grid is valid.
    scenario_from_dict(apply_overrides(data, ["ue_grid.height_m=1.5"]))


def field_paths(node, keys=()):
    """Key paths of every field and list element in a scenario dict."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        yield keys + (k,)
        if isinstance(v, (dict, list)):
            yield from field_paths(v, keys + (k,))


def path_text(keys):
    """Key path as error messages write it: iab_nodes[0].pattern."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


DEFAULT_DICT = scenario_to_dict(default_scenario())
DELETE = object()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def related(a, b):
    """One path is the other or lies inside it."""
    a, b = sorted((a, b), key=len)
    return b == a or b.startswith(a + ".") or b.startswith(a + "[")


@settings(max_examples=400, deadline=None)
@given(
    keys=st.sampled_from(list(field_paths(DEFAULT_DICT))),
    # Besides any JSON value: pairs in and out of order, and a point of the
    # default UE grid, which a cell position must not take.
    value=st.just(DELETE) | json_values | st.sampled_from([[0, 1], [1, 0], [0, 0, 1.5], {}]),
)
def test_single_field_mutation_loads_or_names_its_field(keys, value):
    """Any one field or list element set to any JSON value, or deleted,
    either loads or raises a ScenarioError that names the mutated field,
    a field inside it or the object holding it."""
    data = copy.deepcopy(DEFAULT_DICT)
    parent = data
    for k in keys[:-1]:
        parent = parent[k]
    if value is DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    try:
        scenario_from_dict(data)
    except ScenarioError as e:
        named = [str(e).split(": ", 1)[0]]
        # The UE rule names the grid and the cell it hits, the separation rule
        # the node's separation and the carrier it is measured at.
        named += re.findall(r"lies on (\S+) \[", str(e))
        named += re.findall(r" at (carrier_freq_hz) ", str(e))
        assert any(related(path_text(keys), n) for n in named if n), str(e)
