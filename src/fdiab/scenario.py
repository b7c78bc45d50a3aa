"""Scenario files: a versioned JSON form of system.Scenario.

The dataclasses are the schema: each field's annotated type says what the
file may hold, and the dataclass holds its default and its bounds. A field
that is absent takes its default, and so does a null where an object with a
default is expected. Errors always name the offending field path. Unknown
keys are rejected so that CLI overrides cannot silently miss their target.
"""

import json
import math
import typing
from dataclasses import MISSING, fields, is_dataclass

from .system import Scenario
from .util import FieldError

SCHEMA_VERSION = 1


class ScenarioError(FieldError):
    """Scenario validation failure; message starts with the field path."""


def _join(path, name):
    return f"{path}.{name}" if path and name else path or name


def _is_number(v):
    """A finite JSON number; bools, NaN, infinities and integers past the
    float range are not."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _read(tp, value, path):
    """value, as read from JSON, as a field of annotated type tp."""
    if tp is float:
        if not _is_number(value):
            raise ScenarioError(path, f"expected a finite number, got {value!r}")
        return float(value)
    if tp is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ScenarioError(path, f"expected an integer, got {value!r}")
        return value
    if is_dataclass(tp):
        return _object(tp, value, path)
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _read(args[0], value, path)
    if args[-1] is Ellipsis:
        if not isinstance(value, list):
            raise ScenarioError(path, "expected a list")
        return tuple(_read(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    # Numbers: a position, or a pair that must increase.
    if (
        not isinstance(value, (list, tuple))
        or len(value) != len(args)
        or not all(_is_number(c) for c in value)
        or len(args) == 2 and not value[0] < value[1]
    ):
        form = "finite [lo, hi] with lo < hi" if len(args) == 2 else "[x, y, z] finite numbers"
        raise ScenarioError(path, f"expected {form}, got {value!r}")
    return tuple(float(c) for c in value)


def _object(cls, data, path):
    """The dataclass cls from a JSON object; absent fields take defaults."""
    if not isinstance(data, dict):
        raise ScenarioError(path, "expected an object")
    kwargs = {}
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ScenarioError(_join(path, unknown[0]), "unknown key")
    for name, f in known.items():
        has_default = f.default is not MISSING or f.default_factory is not MISSING
        if name in data and not (data[name] is None and has_default and is_dataclass(f.type)):
            kwargs[name] = _read(f.type, data[name], _join(path, name))
        elif not has_default:
            raise ScenarioError(_join(path, name), "required")
    try:
        return cls(**kwargs)
    except FieldError as e:
        raise ScenarioError(_join(path, e.path), e.message) from None


def scenario_from_dict(data):
    """Build and validate a Scenario, applying the dataclasses' defaults."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario", "expected a JSON object")
    data = dict(data)
    version = data.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            "schema_version", f"unsupported version {version!r} (expected {SCHEMA_VERSION})"
        )
    return _object(Scenario, data, "")


def _plain(value):
    """value with dataclasses as dicts and tuples as lists, recursively."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def scenario_to_dict(scenario):
    """Serializable form; load(save(x)) round-trips exactly."""
    return {"schema_version": SCHEMA_VERSION, **_plain(scenario)}


def read_scenario_file(path):
    """The JSON object in the scenario file at path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ScenarioError("scenario", f"malformed JSON ({e})") from e


def load_scenario(path):
    return scenario_from_dict(read_scenario_file(path))


def save_scenario(scenario, path):
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_setting(spec, what, form):
    """(key, value text) of spec, a command-line "key=value" of kind what
    ("override" or "grid"), whose errors name it so; form is the shape
    expected. The key is a dotted path with no empty segment."""
    if "=" not in spec:
        raise ScenarioError(f"{what} {spec!r}", f"expected {form}")
    key, raw = spec.split("=", 1)
    if "" in key.split("."):
        raise ScenarioError(f"{what} {key!r}", "empty path segment")
    return key, raw


def parse_value(raw):
    """A setting's value text as JSON, else as the text itself."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_overrides(data, overrides):
    """Apply CLI key=value overrides to a scenario dict: each value parses
    as JSON, else as its text, and goes to its key's path (set_value)."""
    for item in overrides:
        key, raw = parse_setting(item, "override", "key=value")
        set_value(data, key, parse_value(raw), "override")
    return data


def set_value(data, key, value, what):
    """Set the dotted path key of the scenario dict data to value; errors
    name the setting as what key.

    List elements are indexed numerically and '*' addresses every element.
    Unknown paths and a '*' that matches no element are rejected.
    """
    _set_path(data, key.split("."), value, key, Scenario, what)


def _set_path(node, parts, value, full_key, tp, what):
    """Set parts' path below node, of annotated type tp, to value. A null
    section that loads as its defaults is descended into as if empty; one
    whose null turns it off is rejected."""
    head, rest = parts[0], parts[1:]
    where = f"{what} {full_key!r}"
    if isinstance(node, list):
        if head == "*":
            if not node:
                raise ScenarioError(where, "'*' matches no list element")
            targets = range(len(node))
        else:
            try:
                i = int(head)
            except ValueError:
                raise ScenarioError(where, f"{head!r} is not a list index")
            if not (0 <= i < len(node)):
                raise ScenarioError(where, f"index {i} out of range")
            targets = [i]
        for i in targets:
            if rest:
                _set_path(node[i], rest, value, full_key, (typing.get_args(tp) or (None,))[0], what)
            else:
                node[i] = value
        return
    if not isinstance(node, dict):
        raise ScenarioError(where, "path descends into a scalar")
    tp = {f.name: f.type for f in fields(tp)}.get(head) if is_dataclass(tp) else None
    if rest and head in node and node[head] is None:
        if is_dataclass(tp):  # null loads as the section's defaults
            node[head] = {}
        elif any(map(is_dataclass, typing.get_args(tp))):  # null turns the section off
            section = ".".join(full_key.split(".")[: -len(rest)])
            raise ScenarioError(
                where, f"{section} is null, which turns that section off; set it to an object first"
            )
    if rest:
        if head not in node:
            # Allow descending into sections that are optional in the file,
            # as long as validation knows them.
            node[head] = {} if not rest[0].isdigit() and rest[0] != "*" else []
        _set_path(node[head], rest, value, full_key, tp, what)
    else:
        node[head] = value
