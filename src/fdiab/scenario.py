"""Scenario file handling: versioned JSON schema, validation, defaults.

Validation errors always name the offending field path. Unknown keys are
rejected so that CLI overrides cannot silently miss their target.
"""

import json
import math
from dataclasses import asdict

import numpy as np

from .geometry import AntennaPattern, ReflectorConfig
from .system import Donor, IabNode, Scenario, UeGrid, default_scenario

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Scenario validation failure; message starts with the field path."""


def _fail(path, message):
    raise ScenarioError(f"{path}: {message}")


def _check_keys(d, allowed, path):
    unknown = set(d) - set(allowed)
    if unknown:
        _fail(f"{path}.{sorted(unknown)[0]}" if path else sorted(unknown)[0], "unknown key")


def _is_number(v):
    """A finite JSON number; bools, NaN and infinities are not."""
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or (isinstance(v, float) and math.isfinite(v))


def _number(d, key, default, path, lo=None, hi=None, strict_lo=False):
    v = d.get(key, default)
    if not _is_number(v):
        _fail(f"{path}{key}", f"expected a finite number, got {v!r}")
    v = float(v)
    if lo is not None and (v <= lo if strict_lo else v < lo):
        _fail(f"{path}{key}", f"must be {'>' if strict_lo else '>='} {lo}, got {v}")
    if hi is not None and v > hi:
        _fail(f"{path}{key}", f"must be <= {hi}, got {v}")
    return v


def _position(d, key, default, path):
    v = d.get(key, default)
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 3
        or not all(_is_number(c) for c in v)
    ):
        _fail(f"{path}{key}", f"expected [x, y, z] finite numbers, got {v!r}")
    return tuple(float(c) for c in v)


_PATTERN_KEYS = ("boresight_gain_dbi", "beamwidth_3db_deg", "sidelobe_floor_dbi", "polarization")


def _pattern(d, path):
    if d is None:
        return AntennaPattern()
    _check_keys(d, _PATTERN_KEYS, path)
    pol = d.get("polarization", "V")
    try:
        return AntennaPattern(
            boresight_gain_dbi=_number(d, "boresight_gain_dbi", 20.0, f"{path}."),
            beamwidth_3db_deg=_number(d, "beamwidth_3db_deg", 12.0, f"{path}.", lo=0.0, strict_lo=True),
            sidelobe_floor_dbi=_number(d, "sidelobe_floor_dbi", -10.0, f"{path}."),
            polarization=pol,
        )
    except ValueError as e:
        if isinstance(e, ScenarioError):
            raise
        _fail(path, str(e))


_DONOR_KEYS = ("position", "tx_power_dbm", "pattern", "sector_center_az_deg")
_NODE_KEYS = _DONOR_KEYS + ("antenna_separation_m", "residual_si_dbm")
_GRID_KEYS = ("nx", "ny", "x_range", "y_range", "height_m")
_REFL_KEYS = ("min_taps", "max_taps", "delay_offset_range_s", "rel_power_range_db")
_TOP_KEYS = (
    "schema_version",
    "donor",
    "iab_nodes",
    "ue_grid",
    "bandwidth_hz",
    "noise_figure_db",
    "carrier_freq_hz",
    "guard_overhead",
    "access_shadow_sigma_db",
    "full_sic_margin_db",
    "reflectors",
)


def _sector_az(d, path):
    v = d.get("sector_center_az_deg")
    if v is None:
        return None
    if not _is_number(v):
        _fail(f"{path}.sector_center_az_deg", f"expected a finite number or null, got {v!r}")
    return float(v)


def _donor(d, path="donor"):
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    _check_keys(d, _DONOR_KEYS, path)
    if "position" not in d:
        _fail(f"{path}.position", "required")
    return Donor(
        position=_position(d, "position", None, f"{path}."),
        tx_power_dbm=_number(d, "tx_power_dbm", 43.0, f"{path}."),
        pattern=_pattern(d.get("pattern"), f"{path}.pattern"),
        sector_center_az_deg=_sector_az(d, path),
    )


def _iab_node(d, path):
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    _check_keys(d, _NODE_KEYS, path)
    if "position" not in d:
        _fail(f"{path}.position", "required")
    res = d.get("residual_si_dbm")
    if res is not None and not _is_number(res):
        _fail(f"{path}.residual_si_dbm", f"expected a finite number or null, got {res!r}")
    return IabNode(
        position=_position(d, "position", None, f"{path}."),
        antenna_separation_m=_number(
            d, "antenna_separation_m", 1.0, f"{path}.", lo=0.0, strict_lo=True
        ),
        tx_power_dbm=_number(d, "tx_power_dbm", 43.0, f"{path}."),
        pattern=_pattern(d.get("pattern"), f"{path}.pattern"),
        sector_center_az_deg=_sector_az(d, path),
        residual_si_dbm=None if res is None else float(res),
    )


def _range_pair(d, key, default, path):
    v = d.get(key, default)
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(_is_number(c) for c in v)
        or not v[0] < v[1]
    ):
        _fail(f"{path}{key}", f"expected finite [lo, hi] with lo < hi, got {v!r}")
    return (float(v[0]), float(v[1]))


def _ue_grid(d, path="ue_grid"):
    if d is None:
        return UeGrid()
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    _check_keys(d, _GRID_KEYS, path)
    nx = d.get("nx", 21)
    ny = d.get("ny", 21)
    for key, v in (("nx", nx), ("ny", ny)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            _fail(f"{path}.{key}", f"expected a non-negative integer, got {v!r}")
    return UeGrid(
        nx=nx,
        ny=ny,
        x_range=_range_pair(d, "x_range", (-250.0, 250.0), f"{path}."),
        y_range=_range_pair(d, "y_range", (-250.0, 250.0), f"{path}."),
        height_m=_number(d, "height_m", 1.5, f"{path}.", lo=0.0),
    )


def _reflectors(d, path="reflectors"):
    if d is None:
        return None
    if not isinstance(d, dict):
        _fail(path, "expected an object or null")
    _check_keys(d, _REFL_KEYS, path)
    min_taps = d.get("min_taps", 0)
    max_taps = d.get("max_taps", 6)
    for key, v in (("min_taps", min_taps), ("max_taps", max_taps)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            _fail(f"{path}.{key}", f"expected a non-negative integer, got {v!r}")
    if min_taps > max_taps:
        _fail(f"{path}.min_taps", "must be <= max_taps")
    return ReflectorConfig(
        min_taps=min_taps,
        max_taps=max_taps,
        delay_offset_range_s=_range_pair(d, "delay_offset_range_s", (1e-9, 20e-9), f"{path}."),
        rel_power_range_db=_range_pair(d, "rel_power_range_db", (15.0, 30.0), f"{path}."),
    )


def scenario_from_dict(data):
    """Build and validate a Scenario, applying documented defaults."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario: expected a JSON object")
    _check_keys(data, _TOP_KEYS, "")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"unsupported version {version!r} (expected {SCHEMA_VERSION})")
    if "donor" not in data:
        _fail("donor", "required")

    if "iab_nodes" in data:
        nodes_raw = data["iab_nodes"]
        if not isinstance(nodes_raw, list):
            _fail("iab_nodes", "expected a list")
        nodes = tuple(
            _iab_node(nd, f"iab_nodes[{i}]") for i, nd in enumerate(nodes_raw)
        )
    else:
        nodes = default_scenario().iab_nodes

    key = "reflectors"
    reflectors = _reflectors(data[key]) if key in data else ReflectorConfig()
    try:
        scenario = Scenario(
            donor=_donor(data["donor"]),
            iab_nodes=nodes,
            ue_grid=_ue_grid(data.get("ue_grid")),
            bandwidth_hz=_number(data, "bandwidth_hz", 120e6, "", lo=0.0, strict_lo=True),
            noise_figure_db=_number(data, "noise_figure_db", 3.0, "", lo=0.0),
            carrier_freq_hz=_number(data, "carrier_freq_hz", 28e9, "", lo=0.0, strict_lo=True),
            guard_overhead=_number(data, "guard_overhead", 0.1, "", lo=0.0),
            access_shadow_sigma_db=_number(data, "access_shadow_sigma_db", 4.0, "", lo=0.0),
            full_sic_margin_db=_number(data, "full_sic_margin_db", 1.0, ""),
            reflectors=reflectors,
        )
    except ScenarioError:
        raise
    except ValueError as e:
        raise ScenarioError(f"scenario: {e}") from e
    # A UE on a cell's position would have an access path of no length.
    ues = scenario.ue_grid.positions()
    paths = ["donor"] + [f"iab_nodes[{i}]" for i in range(len(scenario.iab_nodes))]
    for path, cell in zip(paths, scenario.cells()):
        hit = np.flatnonzero((ues == cell.position).all(axis=1))
        if hit.size:
            _fail("ue_grid", f"UE {hit[0]} lies on {path}.position {list(cell.position)}")
    return scenario


def scenario_to_dict(scenario):
    """Serializable form; load(save(x)) round-trips exactly."""
    def node_dict(n):
        d = {
            "position": list(n.position),
            "tx_power_dbm": n.tx_power_dbm,
            "pattern": asdict(n.pattern),
            "sector_center_az_deg": n.sector_center_az_deg,
        }
        if isinstance(n, IabNode):
            d["antenna_separation_m"] = n.antenna_separation_m
            d["residual_si_dbm"] = n.residual_si_dbm
        return d

    refl = scenario.reflectors
    return {
        "schema_version": SCHEMA_VERSION,
        "donor": node_dict(scenario.donor),
        "iab_nodes": [node_dict(n) for n in scenario.iab_nodes],
        "ue_grid": {
            "nx": scenario.ue_grid.nx,
            "ny": scenario.ue_grid.ny,
            "x_range": list(scenario.ue_grid.x_range),
            "y_range": list(scenario.ue_grid.y_range),
            "height_m": scenario.ue_grid.height_m,
        },
        "bandwidth_hz": scenario.bandwidth_hz,
        "noise_figure_db": scenario.noise_figure_db,
        "carrier_freq_hz": scenario.carrier_freq_hz,
        "guard_overhead": scenario.guard_overhead,
        "access_shadow_sigma_db": scenario.access_shadow_sigma_db,
        "full_sic_margin_db": scenario.full_sic_margin_db,
        "reflectors": None
        if refl is None
        else {
            "min_taps": refl.min_taps,
            "max_taps": refl.max_taps,
            "delay_offset_range_s": list(refl.delay_offset_range_s),
            "rel_power_range_db": list(refl.rel_power_range_db),
        },
    }


def load_scenario(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario: malformed JSON ({e})") from e
    return scenario_from_dict(data)


def save_scenario(scenario, path):
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


def apply_overrides(data, overrides):
    """Apply CLI key=value overrides to a scenario dict.

    Keys are dotted paths into the JSON structure; list elements are indexed
    numerically and '*' addresses every element. Values parse as JSON with a
    bare-string fallback. Unknown paths, and a '*' that matches no element,
    are rejected.
    """
    for item in overrides:
        if "=" not in item:
            raise ScenarioError(f"override {item!r}: expected key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_path(data, key.split("."), value, key)
    return data


def _set_path(node, parts, value, full_key):
    head, rest = parts[0], parts[1:]
    if isinstance(node, list):
        if head == "*":
            if not node:
                raise ScenarioError(f"override {full_key!r}: '*' matches no list element")
            targets = range(len(node))
        else:
            try:
                i = int(head)
            except ValueError:
                raise ScenarioError(f"override {full_key!r}: {head!r} is not a list index")
            if not (0 <= i < len(node)):
                raise ScenarioError(f"override {full_key!r}: index {i} out of range")
            targets = [i]
        for i in targets:
            if rest:
                _set_path(node[i], rest, value, full_key)
            else:
                node[i] = value
        return
    if not isinstance(node, dict):
        raise ScenarioError(f"override {full_key!r}: path descends into a scalar")
    if rest:
        if head not in node:
            # Allow descending into sections that are optional in the file,
            # as long as validation knows them.
            node[head] = {} if not rest[0].isdigit() and rest[0] != "*" else []
        _set_path(node[head], rest, value, full_key)
    else:
        node[head] = value
