"""Benchmark of the fdiab CLI: end-to-end cost per workload, and a traced run
that times each module.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the checkout is the parent of this directory and fdiab is
imported from its `src/`. One process drives `fdiab.cli.main(argv)` in a
closed loop with one caller: each invocation starts when the previous one has
returned, for about `--seconds` seconds and at least a few invocations.
Every invocation gets its own CLI `--seed`, derived from the workload seed,
so no two timed invocations repeat inputs. The seed of the first invocation
also runs untimed in a fresh interpreter, which gives the peak RSS; its CSVs
must not change by a byte. Set-up probes in fresh interpreters are spread
over the timed loop. A fixed calibration runs after every invocation and
probe, and times are reported in reference seconds: scaled by the
calibration read around them, so that the machine's changing speed cancels
(see end_to_end).

With `--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` the per-layer metrics, from spans recorded
around calls into each module (see spans.py). The full report, with the
environment, workload properties, per-invocation samples and CSV hashes, is
the line before it and is also written to `.perfbench_out/`.
"""

import argparse
import functools
import gc
import hashlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import spans
from checks import HashBook, check_invocation

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_BASE = os.path.join(ROOT, ".perfbench_out")

# Unpinned, OpenBLAS starts one thread per core in the benchmark process and
# in every sweep worker; on 2 cores a 2-worker sweep then measured 9.7 s and
# 52.6 s wall against 3.4 s pinned, and the serial sweep burned 9.5 CPU s for
# 4.8 s wall. Pinning keeps runs comparable, and it means this
# oversubscription defect is outside what the benchmark sees.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

SCENARIO = os.path.join("scenarios", "default.json")
SEPARATION_GRID = "iab_nodes.*.antenna_separation_m=0.1,1,2"
SWEEP_DROPS = 2
SWEEP_ARGS = ("--grid", SEPARATION_GRID, "--drops", str(SWEEP_DROPS))
MODES = 5
MIN_INVOCATIONS = 3
MIN_TRACE_INVOCATIONS = 4  # two traced, two untraced
SETUP_PROBES = 11


@dataclass(frozen=True)
class Workload:
    command: str
    args: tuple


# Why these three: the link sweep is dominated by the sic Hammerstein fit,
# with one third of its chains engaging the analog stage, and leaves system
# idle; the 101x101 drop is dominated by the per-UE x mode loop in
# system/util and CSV formatting in cli, and leaves sic idle; the 21x21 drops
# run the same system code on a 20x smaller working set, so per-drop fixed
# costs (codebooks, SI draws, scenario resolution, sidecars) weigh in.
WORKLOADS = {
    "link-sweep": Workload("sweep", SWEEP_ARGS),
    "system-grid": Workload("system-sim", ("--set", "ue_grid.nx=101", "--set", "ue_grid.ny=101")),
    "system-drops": Workload("system-sim", ()),
}


def cli_seed(seed, i):
    """CLI seed of invocation i of a run with the given workload seed."""
    digest = hashlib.sha256(f"fdiab-bench:{seed}:{i}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def workload_shape(wl):
    """(expected CSV rows, drops) of one invocation, from the scenario file."""
    with open(os.path.join(ROOT, SCENARIO)) as fh:
        data = json.load(fh)
    if wl.command == "sweep":
        cells = len(SEPARATION_GRID.split("=", 1)[1].split(","))
        return cells * SWEEP_DROPS * len(data["iab_nodes"]), cells * SWEEP_DROPS
    grid = dict(data["ue_grid"])
    for override in wl.args[1::2]:
        field, raw = override.split("=", 1)
        grid[field.split(".")[-1]] = int(raw)
    return grid["nx"] * grid["ny"] * MODES, 1


def _cpu_s(who):
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _source_fingerprint():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fdiab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    with open(os.path.join(ROOT, SCENARIO), "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 has no mode argument
        blas = {}
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "why_pinned": "unpinned BLAS threads oversubscribe the cores (2-worker sweep 9.7-52.6 s "
            "wall vs 3.4 s pinned); pinned, that defect is outside what this benchmark sees",
        },
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": _git_commit(),
        "source_sha256": _source_fingerprint(),
    }


def setup_probe(wl):
    """Wall seconds of a fresh interpreter importing fdiab.cli and resolving
    the workload's scenario."""
    overrides = list(wl.args[1::2]) if wl.command == "system-sim" else []
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), ROOT, os.path.join(ROOT, SCENARIO)]
    t0 = time.perf_counter()
    # wait() without a timeout blocks in waitpid; with one it polls in steps
    # of up to 50 ms, which would quantise the measurement.
    code = subprocess.Popen(argv + overrides).wait()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"setup probe exited {code}")
    return elapsed


# Seconds calibrate() takes on a 2-core Xeon at 2.1 GHz when the machine is
# quiet. End-to-end times are reported in these reference seconds.
CALIB_REF_S = 0.033


@functools.cache
def _calib_matrix():
    import numpy as np

    return np.random.default_rng(0).standard_normal((4096, 60)) + 0j


def calibrate():
    """Wall seconds of a fixed piece of work: a pure-Python integer loop and
    small complex matrix products, the two kinds of work the workloads do.
    It reads the machine's current speed, not fdiab's."""
    a = _calib_matrix()
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    for _ in range(10):
        a.conj().T @ a
    return time.perf_counter() - t0


# What the `fdiab` console script runs, with the checkout's src/ first on the path.
FRESH_CLI = "import sys; sys.path.insert(0, sys.argv[1]); from fdiab.cli import main; sys.exit(main(sys.argv[2:]))"


class Bench:
    def __init__(self, name, seed, trace):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.expected_rows, self.drops = workload_shape(self.wl)
        self.out_dir = os.path.join(OUT_BASE, name, "out")
        self.fingerprint = _source_fingerprint()
        self.hashbook = HashBook(os.path.join(OUT_BASE, "hashbook.json"))
        self.recorder = None

    def argv(self, cli_seed):
        return [
            self.wl.command,
            "--scenario",
            os.path.join(ROOT, SCENARIO),
            *self.wl.args,
            "--seed",
            str(cli_seed),
            "--out",
            self.out_dir,
        ]

    def _checked(self, record, code):
        problems, hashes, props = check_invocation(
            self.wl.command, code, self.out_dir, self.expected_rows
        )
        key = f"{self.fingerprint}|{' '.join((self.wl.command, *self.wl.args))}|{record['seed']}"
        changed = self.hashbook.record(key, hashes)
        problems += [f"{n}: bytes differ from an earlier invocation with this seed" for n in changed]
        record.update(problems=problems, sha256=hashes, props=props)
        return record

    def invoke(self, cli_seed, traced):
        """One in-process CLI call, timed, then checked."""
        import fdiab.cli

        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = self.argv(cli_seed)
        mark = self.recorder.mark() if self.recorder else 0
        gc.collect()
        cpu_self, cpu_children = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        with self.recorder.installed() if traced else nullcontext():
            try:
                code = fdiab.cli.main(argv)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                code = "exception"
        wall = time.perf_counter() - t0
        children = _cpu_s(resource.RUSAGE_CHILDREN) - cpu_children
        record = {
            "seed": cli_seed,
            "traced": traced,
            "wall_s": wall,
            "cpu_s": _cpu_s(resource.RUSAGE_SELF) - cpu_self + children,
            "span_range": (mark, self.recorder.mark() if self.recorder else 0),
        }
        return self._checked(record, code)

    def invoke_fresh(self, cli_seed):
        """One CLI call in a fresh interpreter, as a user runs it. A child's
        peak RSS starts at this process's RSS when it forks, so call this
        before fdiab is imported here."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = [sys.executable, "-c", FRESH_CLI, os.path.join(ROOT, "src"), *self.argv(cli_seed)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=sys.stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = {
            "seed": cli_seed,
            "fresh_process": True,
            "wall_s": time.perf_counter() - t0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mib": usage.ru_maxrss / 1024.0,
        }
        return self._checked(record, proc.returncode)

    def run(self, seconds):
        """Timed invocations, set-up probes, and an untimed fresh-interpreter
        run of the first (traced) invocation's seed.

        Returns (timed, fresh, setup probes, calibration samples). Each
        invocation and each probe is bracketed by calibrations, and its
        record carries the mean of the two as `calib_s`. The hash book flags
        any byte change between the fresh run and its in-process twin, which
        covers determinism and traced == untraced. The set-up probes are spread
        evenly over the timed loop, between invocations, so that they sample
        the same stretch of machine time as the loop does.
        """
        fresh = self.invoke_fresh(cli_seed(self.seed, 1 if self.trace else 0))
        if self.trace:
            self.recorder = spans.SpanRecorder()
        timed, laps, probes = [], [], []
        probe_due = [i * seconds / SETUP_PROBES for i in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        floor = MIN_TRACE_INVOCATIONS if self.trace else MIN_INVOCATIONS
        speed = [calibrate()]

        def probe():
            elapsed = setup_probe(self.wl)
            speed.append(calibrate())
            probes.append({"setup_s": elapsed, "calib_s": (speed[-2] + speed[-1]) / 2})

        while len(timed) < floor or time.perf_counter() - t0 + statistics.median(laps) <= seconds:
            while probe_due and time.perf_counter() - t0 >= probe_due[0]:
                probe_due.pop(0)
                probe()
            lap = time.perf_counter()
            traced = self.trace and len(timed) % 2 == 1
            timed.append(self.invoke(cli_seed(self.seed, len(timed)), traced))
            speed.append(calibrate())
            timed[-1]["calib_s"] = (speed[-2] + speed[-1]) / 2
            laps.append(time.perf_counter() - lap)
        for _ in probe_due:
            probe()
        return timed, fresh, probes, speed


def properties(drops, timed):
    keys = ("chains", "analog_engaged_share", "ues", "relayed_share", "rows")
    out = {k: statistics.fmean(r["props"].get(k, 0) for r in timed) for k in keys}
    out["drops"] = drops
    return out


def rescaled(record, key):
    """record[key] in reference seconds: scaled by CALIB_REF_S over the
    calibration time read around the record."""
    return record[key] * CALIB_REF_S / record["calib_s"]


def end_to_end(expected_rows, timed, fresh, probes):
    """End-to-end metrics: medians over the run of rescaled times.

    The machine's speed switches between regimes that last from under a
    second to about a minute, and drifts over tens of minutes, so a plain
    median or minimum of wall times moves with the share of the run each
    regime held (see NOTES.md). Scaling each time by the calibrations that
    bracket it cancels most of that.
    """
    everything = timed + [fresh]
    wall = statistics.median(rescaled(r, "wall_s") for r in timed)
    return {
        "wall_s": wall,
        "rows_per_s": expected_rows / wall,
        "cpu_s": statistics.median(rescaled(r, "cpu_s") for r in timed),
        "setup_s": statistics.median(rescaled(p, "setup_s") for p in probes),
        "peak_rss_mib": fresh["peak_rss_mib"],
        "ok_frac": sum(1 for r in everything if not r["problems"]) / len(everything),
    }


def layer_values(bench, r):
    """Per-layer values of one traced invocation record."""
    lo, hi = r["span_range"]
    tree = bench.recorder.spans(lo, hi)
    agg = spans.summarize(tree, base=lo)
    values = {}
    for name, a in agg.items():
        for field in ("calls", "s", "self_s"):
            values[f"{name}.{field}"] = a[field]
    for layer in spans.LAYERS:
        values[f"{layer}.self_s"] = sum(a["self_s"] for n, a in agg.items() if n.startswith(layer + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    def get(key):
        return values.get(key, 0)

    chains = get("sic.run_link_chain.calls")
    ues = r["props"].get("ues", 0)
    relayed = round(r["props"].get("relayed_share", 0.0) * ues)
    values.update(
        {
            "scenario.resolve.s": get("scenario.apply_overrides.s") + get("scenario.scenario_from_dict.s"),
            "system.dli_calls_per_relayed_ue": ratio(get("system.dli_power_dbm.calls"), relayed),
            "util.substream_calls_per_ue": ratio(get("util.substream.calls"), ues),
            "sic.basis_builds_per_chain": ratio(get("sic.hammerstein_basis.calls"), chains),
            # tune_two_tap runs once in each chain that engages the analog stage
            "sic.analog_engaged_frac": ratio(get("sic.tune_two_tap.calls"), chains),
        }
    )
    return values


def per_layer(bench, timed, names):
    """Per-layer metrics. Times are medians over the traced invocations, in
    reference seconds like the end-to-end times. Counts and count ratios
    come from the first traced invocation, whose seed is fixed by the
    workload seed, so they repeat exactly between runs."""
    traced = [r for r in timed if r["traced"]]
    per_inv = [layer_values(bench, r) for r in traced]
    out = {}
    for name in names:
        if name.endswith((".s", "self_s")):
            out[name] = statistics.median(
                v.get(name, 0.0) * CALIB_REF_S / r["calib_s"] for v, r in zip(per_inv, traced)
            )
        else:
            out[name] = per_inv[0].get(name, 0)
    out["trace_overhead_s"] = statistics.median(rescaled(r, "wall_s") for r in traced) - statistics.median(
        rescaled(r, "wall_s") for r in timed if not r["traced"]
    )
    return out


def write_spans(recorder, path):
    import numpy as np

    np.savez_compressed(
        path,
        names=np.array(recorder.names),
        name=np.frombuffer(recorder.name, dtype=np.int32),
        parent=np.frombuffer(recorder.parent, dtype=np.int32),
        start=np.frombuffer(recorder.start, dtype=np.float64),
        end=np.frombuffer(recorder.end, dtype=np.float64),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fdiab", "cli.py")) or not os.path.isfile(
        os.path.join(ROOT, SCENARIO)
    ):
        print(f"perfbench: no fdiab checkout at {ROOT} (need src/fdiab and {SCENARIO})", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["FDIAB_THREADS"] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Locate fdiab without importing it: Bench.run imports it only after the
    # fresh-process run, while this process is still small.
    origin = importlib.util.find_spec("fdiab").origin
    if not os.path.abspath(origin).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"perfbench: fdiab resolves to {origin}, not this checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT_BASE, exist_ok=True)

    bench = Bench(args.workload, args.seed, bool(args.trace))
    timed, fresh, probes, speed = bench.run(args.seconds)
    bench.hashbook.save()

    everything = timed + [fresh]
    failed = sum(1 for r in everything if r["problems"])
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(bench, timed, units)
        write_spans(bench.recorder, os.path.join(OUT_BASE, f"spans-{args.workload}.npz"))
    else:
        values = end_to_end(bench.expected_rows, timed, fresh, probes)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    import numpy as np

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(np),
        "properties": properties(bench.drops, timed),
        "setup_probes": probes,
        "calib_s_samples": speed,
        "invocations": [
            {k: v for k, v in r.items() if k != "span_range"} for r in everything
        ],
        "metrics": metrics,
    }
    with open(os.path.join(OUT_BASE, f"report-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps(report, sort_keys=True))
    result = {"correct": failed == 0, "attempted": len(everything), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
