import json
import os

import pytest

import fdiab.cli
import fdiab.system
import run
import spans
from fdiab.system import UeGrid, default_scenario
from spans import SpanRecorder, self_times, summarize

# A synthetic tree, absolute indices 10.. (base=10):
#   10 root      [0, 10]
#   11 a         [1, 3]    child of root, overlaps b
#   12 b         [2, 5]    child of root
#   13 c         [9, 12]   child of root, runs past its end
#   14 leaf      [1.5, 2.5] child of a
#   15 orphan    [20, 21]  parent outside the slice
TREE = [
    ("x.root", -1, 0.0, 10.0),
    ("x.a", 10, 1.0, 3.0),
    ("x.b", 10, 2.0, 5.0),
    ("x.c", 10, 9.0, 12.0),
    ("y.leaf", 11, 1.5, 2.5),
    ("x.a", 3, 20.0, 21.0),
]


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    got = self_times(TREE, base=10)
    # root: children cover [1, 5] and [9, 10] -> 10 - 5
    assert got == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0, 1.0])


def test_summarize_aggregates_by_name():
    agg = summarize(TREE, base=10)
    assert agg["x.a"] == pytest.approx({"calls": 2, "s": 3.0, "self_s": 2.0})
    assert agg["x.root"] == pytest.approx({"calls": 1, "s": 10.0, "self_s": 5.0})
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(14.0)


def _small_scenario():
    s = default_scenario()
    return type(s)(donor=s.donor, iab_nodes=s.iab_nodes, ue_grid=UeGrid(nx=2, ny=2))


def test_recorder_wraps_aliases_and_restores_them():
    original = fdiab.cli.run_drop
    rec = SpanRecorder()
    with rec.installed():
        assert fdiab.cli.run_drop is not original
        assert fdiab.cli.run_drop is fdiab.system.run_drop
        fdiab.cli.run_drop(_small_scenario(), 3)
    assert fdiab.cli.run_drop is original
    agg = summarize(rec.spans())
    assert agg["system.run_drop"]["calls"] == 1
    assert agg["geometry.si_channel"]["calls"] == 32
    by_name = {name: parent for name, parent, _, _ in rec.spans()}
    assert rec.spans()[by_name["system.schedule_drop"]][0] == "system.run_drop"
    # run_drop's self time excludes its children
    assert agg["system.run_drop"]["self_s"] < agg["system.run_drop"]["s"]


def test_every_per_layer_metric_has_a_source():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    span_names = {f"{layer}.{fn}" for layer, fns in spans.TARGETS.items() for fn in fns}
    derived = {
        "scenario.resolve.s",
        "system.dli_calls_per_relayed_ue",
        "util.substream_calls_per_ue",
        "sic.basis_builds_per_chain",
        "sic.analog_engaged_frac",
        "trace_overhead_s",
    }
    for metric in spec["per_layer"]:
        name = metric["name"]
        base, _, field = name.rpartition(".")
        ok = name in derived or (base in span_names and field in ("calls", "s", "self_s"))
        ok = ok or (base in spans.LAYERS and field == "self_s")
        assert ok, name
