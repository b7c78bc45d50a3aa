"""Every bounded field of every dataclass in fdiab's modules rejects what its
bounds exclude, by name, and takes its default.

The classes are found by walking the package, so a new class or field is
covered as it is written. A class with required fields is built from its
entry in REQUIRED; a class with bounded fields that needs one and has none
fails.
"""

import dataclasses
import importlib
import math
import pkgutil

import pytest

import fdiab
from fdiab.system import Donor
from fdiab.util import FieldError

# Valid values of the required fields of each class with bounded fields.
REQUIRED = {
    "geometry.SiGeometry": dict(antenna_separation_m=1.0),
    "sic.LinkChainParams": dict(antenna_separation_m=1.0),
    "system.Donor": dict(position=(0.0, 0.0, 25.0)),
    "system.IabNode": dict(position=(40.0, 100.0, 26.0)),
    "system.Scenario": dict(donor=Donor(position=(0.0, 0.0, 25.0))),
}


def bounded_classes():
    """'module.Class' -> class, for every dataclass written in an fdiab module
    with at least one bounded field."""
    found = {}
    for info in pkgutil.iter_modules(fdiab.__path__):
        module = importlib.import_module(f"fdiab.{info.name}")
        for name, obj in vars(module).items():
            if (
                isinstance(obj, type) and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
                and any("bounds" in f.metadata for f in dataclasses.fields(obj))
            ):
                found[f"{info.name}.{name}"] = obj
    return found


CLASSES = bounded_classes()


def required_fields(cls):
    return [
        f.name for f in dataclasses.fields(cls)
        if f.init and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]


def excluded(bounds, integral):
    """Values that bounds such as ">= 0, < inf" exclude: NaN for a float, and
    for each limit the limit itself if it is strict, else the next value past
    it (one past it for an int)."""
    values = [] if integral else [math.nan]
    for clause in bounds.split(","):
        op, limit = clause.split()
        limit = float(limit)
        if op in (">", "<"):
            values.append(int(limit) if integral and math.isfinite(limit) else limit)
        elif math.isfinite(limit):
            away = -1 if op == ">=" else 1
            values.append(int(limit) + away if integral else math.nextafter(limit, away * math.inf))
    return values


CASES = [
    pytest.param(qualname, f, id=f"{qualname}.{f.name}")
    for qualname, cls in CLASSES.items()
    for f in dataclasses.fields(cls)
    if "bounds" in f.metadata
]


def test_every_class_that_needs_base_values_has_them():
    needs = {q for q, cls in CLASSES.items() if required_fields(cls)}
    assert sorted(needs - REQUIRED.keys()) == []
    assert sorted(REQUIRED.keys() - needs) == []  # an entry no class needs goes


def test_walk_finds_the_known_classes():
    assert {"rf.PaModel", "rf.NoiseModel", "sic.LinkChainParams", "system.Scenario"} <= set(CLASSES)


@pytest.mark.parametrize("qualname, f", CASES)
def test_bounded_field_rejects_what_its_bounds_exclude(qualname, f):
    cls = CLASSES[qualname]
    base = cls(**REQUIRED.get(qualname, {}))
    if f.default is not dataclasses.MISSING:
        dataclasses.replace(base, **{f.name: f.default})
    values = excluded(f.metadata["bounds"], f.type is int)
    assert values, f"{f.metadata['bounds']!r} excludes nothing"
    for value in values:
        with pytest.raises(FieldError) as info:
            dataclasses.replace(base, **{f.name: value})
        assert info.value.path == f.name, (value, str(info.value))
