"""Span recorder for the traced benchmark run.

Spans are taken around calls into the public functions of each fdiab module,
from this file, by rebinding those functions for the duration of one CLI
invocation. The rebinding also covers every name a `from .x import f` copied
into an importing module (for example `fdiab.cli.run_drop` or
`fdiab.sic.si_channel`), because those call sites never look the function up
in its defining module again.

Spans live in memory as four flat arrays (name id, parent index, start, end)
and are written once, when the benchmark ends.
"""

import array
import functools
import importlib
import sys
import time
from contextlib import contextmanager

# Layer -> public functions whose calls are timed. Chosen so that every
# per-layer metric in BENCHMARK.json has a span, without wrapping the hot
# scalar helpers (capacity_bps, residual_si_dbm) whose tens of thousands of
# calls per drop would only add overhead.
TARGETS = {
    "cli": ("cmd_link_sim", "cmd_system_sim", "cmd_sweep"),
    "scenario": ("apply_overrides", "scenario_from_dict"),
    "system": (
        "run_drop",
        "schedule_drop",
        "backhaul_rx_power_dbm",
        "propagation_residual_si_dbm",
        "dli_power_dbm",
        "ue_throughput",
        "cdf",
    ),
    "sic": (
        "run_link_chain",
        "tune_two_tap",
        "apply_analog_canceller",
        "hammerstein_basis",
        "fit_hammerstein",
        "apply_digital_sic",
    ),
    "ofdm": ("build_frame", "demodulate", "apply_frequency_response", "estimate_channel_ls"),
    "rf": ("pa_apply", "adc_quantize", "thermal_noise"),
    "geometry": ("si_channel",),
    "util": ("substream",),
}

LAYERS = tuple(TARGETS)
PACKAGE = "fdiab"


class SpanRecorder:
    """Collects nested spans of the fdiab layers for one process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = []
        self._originals = []
        for layer, fnames in TARGETS.items():
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for fname in fnames:
                self._originals.append((f"{layer}.{fname}", getattr(module, fname)))

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def mark(self):
        """Index of the next span; spans from a mark on belong to one invocation."""
        return len(self.start)

    def _wrap(self, span_name, fn):
        name_id = self._name_id(span_name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Rebind every target, and every alias of it in the package, while inside."""
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self._originals}
        originals = {id(fn): fn for _, fn in self._originals}
        restore = []
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and originals[id(value)] is value:
                    restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        try:
            yield self
        finally:
            for module, attr, value in restore:
                setattr(module, attr, value)
            self._stack.clear()

    def spans(self, lo=0, hi=None):
        """Spans [lo, hi) as (name, parent, start, end) tuples; parent is absolute."""
        hi = len(self.start) if hi is None else hi
        return [
            (self.names[self.name[i]], self.parent[i], self.start[i], self.end[i])
            for i in range(lo, hi)
        ]


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, base=0):
    """Per-span self time: duration minus the part its child spans cover.

    `spans` holds (name, parent, start, end) with parent an absolute index
    (or -1); `base` is the absolute index of spans[0]. A parent outside the
    slice is treated as no parent.
    """
    children = [[] for _ in spans]
    for i, (_, parent, start, end) in enumerate(spans):
        p = parent - base
        if 0 <= p < len(spans):
            children[p].append((start, end))
    return [
        (end - start) - _covered(start, end, children[i])
        for i, (_, _, start, end) in enumerate(spans)
    ]


def summarize(spans, base=0):
    """Aggregate spans by name: {name: {"calls", "s", "self_s"}}.

    `s` is inclusive time summed over calls. A function that re-enters itself
    would count its inner calls twice in `s`; none of the traced ones recurse.
    """
    out = {}
    for (name, _, start, end), self_s in zip(spans, self_times(spans, base)):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += self_s
    return out

