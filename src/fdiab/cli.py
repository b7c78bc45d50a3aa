"""Command-line runner: scenario ingestion, experiment orchestration, CSV output.

Commands
    link-sim           per-node SI reduction chain, sweep's one-cell, one-drop case -> reduction.csv
    system-sim         throughput drop over all modes -> throughput.csv, cdf.csv
    sweep              link chains over a parameter grid -> sweep.csv
    compare-prototype  simulated vs measured suppression -> compare_prototype.csv

Every command reads its arguments from argparse's namespace and hands its
tables, as (file name, dict of numpy columns) pairs, to _write_outputs, which
makes the output directory once the first table is ready, writes them
(csvtable) and then a run.json sidecar with the fully resolved
configuration, seed, tool version and the files written; a run that fails
before its first table leaves no directory. Outputs are byte-identical
for identical (scenario, seed, version), timestamp aside. Exit codes: 0
success, 1 validation failure, 2 I/O failure. Only the commands that run the
link chain (fdiab.sic, fdiab.ofdm) or fdiab.prototype import them.
"""

import argparse
import datetime
import itertools
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__, csvtable
from .geometry import si_channel
from .scenario import (
    ScenarioError,
    apply_overrides,
    parse_setting,
    parse_value,
    read_scenario_file,
    scenario_from_dict,
    scenario_to_dict,
    set_value,
)
from .system import (
    ALL_MODES, FD_MODES, MEMORY_BUDGET_BYTES, Mode, cdf, node_direct_taps, run_drop,
)
from .util import SPEED_OF_LIGHT, FieldError, substream

REDUCTION_COLUMNS = (
    "node", "antenna_separation_m", "seed", "tx_power_dbm", "after_propagation_dbm",
    "after_analog_dbm", "after_digital_dbm", "propagation_db", "analog_db", "digital_db",
    "noise_floor_dbm", "analog_applied", "gray_zone_ok", "digital_saturated",
    "holdout_residual_dbm",
)

CDF_COLUMNS = ("mode", "throughput_bps", "cdf")


def _write_outputs(args, resolved_scenario, tables, **arguments):
    """Write each (file name, columns) pair of tables as a CSV in args.out,
    then the run.json sidecar, whose outputs are the names written and which
    also records the command's own arguments, as parsed.

    The directory is made once the first table is ready, so a run that fails
    before then leaves none. The writer empties each table, so callers take
    what they need from it first, and a generator builds the next without it.
    """
    outputs = []
    for name, columns in tables:
        if not outputs:
            os.makedirs(args.out, exist_ok=True)
        csvtable.write_columns(os.path.join(args.out, name), columns)
        outputs.append(name)
    sidecar = {
        "tool": "fdiab",
        "version": __version__,
        "command": args.command,
        "scenario_path": args.scenario,
        "seed": args.seed,
        "overrides": args.overrides,
        "resolved_scenario": resolved_scenario,
        "outputs": outputs,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **arguments,
    }
    with open(os.path.join(args.out, "run.json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_with_overrides(args):
    """(scenario dict with args.overrides applied, the validated Scenario)."""
    data = apply_overrides(read_scenario_file(args.scenario), args.overrides)
    return data, scenario_from_dict(data)


def chain_for_node(scenario, i):
    """(LinkChainParams, si_taps) of IAB node i's link chain, where
    si_taps(seed) draws the SI channel of the node's first codebook beam in
    the drop at seed: si_channel of its direct tap, evaluated here once, on
    the node's drop stream substream(seed, "si", i), which that beam reads
    first (system.node_si_taps). A separation or reflectors that could put a
    tap past the cyclic prefix (the chain applies its channel circularly per
    OFDM symbol), or a direct tap of no power, are rejected before any draw."""
    from .sic import LinkChainParams

    node, reflectors = scenario.iab_nodes[i], scenario.reflectors
    try:
        params = LinkChainParams(node.antenna_separation_m, noise=scenario.noise)
    except FieldError as e:  # the scenario holds the noise model's fields at its top level
        raise FieldError(e.path.removeprefix("noise."), e.message) from None
    late_s, field = 0.0, f"iab_nodes[{i}].antenna_separation_m"
    if reflectors is not None:
        late_s, field = reflectors.delay_offset_range_s[1], "reflectors.delay_offset_range_s"
    latest = node.antenna_separation_m / SPEED_OF_LIGHT + late_s
    if latest >= params.ofdm.cp_duration_s:
        raise ValueError(
            f"{field} lets SI taps arrive up to {latest:.4g} s after transmission, past the "
            f"{params.ofdm.cp_duration_s:.4g} s cyclic prefix"
        )
    tap = node_direct_taps(scenario, i, scenario.codebook(node))[0]

    def si_taps(seed):
        return si_channel(tap, reflectors, substream(seed, "si", i))

    return params, si_taps


def _node_seed(*path):
    """The seed of the link chain whose substream path is path."""
    return int(substream(*path).integers(2**63))


def _reduction_columns(nodes, seeds, reports):
    """reduction.csv's columns: one row per report, the chain of node
    nodes[k] run at seeds[k]."""
    from .sic import ReductionReport

    columns = {
        f.name: np.array([getattr(r, f.name) for r in reports], f.type)
        for f in fields(ReductionReport)
        if f.type in (bool, float)
    }
    domains = np.array([r.per_domain_db for r in reports], float).reshape(-1, 3).T
    columns.update(zip(("propagation_db", "analog_db", "digital_db"), domains))
    columns.update(node=np.array(nodes, int), seed=np.array(seeds, np.uint64))
    return {c: columns[c] for c in REDUCTION_COLUMNS}


def cmd_link_sim(args):
    """reduction.csv: the rows of a sweep with no grid and one drop, less
    their cell and drop columns."""
    scenario, _, columns = _sweep(args, [], 1)
    del columns["cell"], columns["drop"]
    _write_outputs(args, scenario_to_dict(scenario), [("reduction.csv", columns)])
    return 0


def cmd_system_sim(args):
    modes = _parse_modes(args.modes)
    _, scenario = _load_with_overrides(args)
    values = [m.value for m in modes]

    def tables():
        drop = run_drop(scenario, args.seed, modes=modes)
        # throughput.csv: a row per (mode, UE), mode-major; the writer gets each per-UE value
        # once, with int32 rows (half an int64's bytes). A relayed UE's FD rows share its DLI
        # and SINR with DLI (np.argmax(fd): the first FD row); other rows a NaN DLI, the SNR.
        k, n = drop["throughput_bps"].shape
        sorted_bps = [(curve := cdf(bps))[0] for bps in drop["throughput_bps"]]  # n points each
        mode = np.array(values), np.repeat(np.arange(k, dtype=np.int32), n)
        ue = np.tile(np.arange(n, dtype=np.int32), k)
        fd = [m in FD_MODES for m in modes]
        relayed = np.flatnonzero((drop["serving_cell"] > 0) & any(fd))
        rank = np.full(k * n, relayed.size, np.int32)  # the NaN after the relayed DLIs
        rank.reshape(k, n)[np.ix_(fd, relayed)] = np.arange(relayed.size)
        level = np.append(drop["access_snr_db"], drop["access_sinr_db"][np.argmax(fd), relayed])
        cols = {
            "mode": mode,
            "ue_id": (np.arange(n), ue),
            "serving_cell": (drop["serving_cell"], ue),
            "beam": (drop["beam"], ue),
            "access_snr_db": (level, ue),
            "access_sinr_db": (level, np.where(rank < relayed.size, n + rank, ue)),
            "backhaul_sinr_db": drop["backhaul_sinr_db"].ravel(),
            "dli_power_dbm": (np.append(drop["dli_power_dbm"][relayed], np.nan), rank),
            "throughput_bps": drop["throughput_bps"].ravel(),
        }
        del drop, level, rank  # so the writer frees each column once it is read
        yield "throughput.csv", cols
        yield "cdf.csv", dict(zip(CDF_COLUMNS, (mode, np.concatenate(sorted_bps), (curve[1], ue))))

    _write_outputs(args, scenario_to_dict(scenario), tables(), modes=values)
    return 0


def _parse_grid(specs):
    """(key, values) of each --grid spec "key=v1,v2,...", each value parsed
    as an override's is."""
    grid = []
    for spec in specs:
        key, raw = parse_setting(spec, "grid", "key=v1,v2,...")
        for other, _ in grid:  # overlap: over the shorter key, each segment pair is equal or *
            if other == key:
                raise ScenarioError("", f"--grid repeats key {key!r}")
            if all(a == b or "*" in (a, b) for a, b in zip(key.split("."), other.split("."))):
                raise ScenarioError("", f"--grid keys {other!r} and {key!r} overlap")
        grid.append((key, [parse_value(part) for part in raw.split(",")]))
    return grid


# A sweep's traced allocations grow by 5.4-5.6 KB per chain when one call runs
# them all (1 drop, 1 node, 25 to 4,800 chains): each keeps its cell, SI taps and
# fit until its holdout. The cap keeps that in the 2 GiB budget at 8 KiB a chain.
MAX_SWEEP_CHAINS = MEMORY_BUDGET_BYTES // (8 * 1024)


def _sweep(args, grid_specs, drops):
    """(scenario, grid, columns of sweep.csv): every node of every grid cell
    over drops seeded drops, rows in (cell, drop, node) order.

    Node i of drop d is seeded from substream(seed, "sweep", d, i) in every
    cell, so a drop compares its cells on common random numbers, and each
    (drop, node) runs its cells in one run_link_chains call, which shares a
    frame among those that agree on its fields; calls run in the order of
    their first rows. A sweep of more than MAX_SWEEP_CHAINS chains is
    rejected before any cell is built, and every cell's chain parameters are
    built, and so validated, before the first chain runs; a call draws its SI
    taps as it runs.
    """
    from .sic import run_link_chains

    if drops < 1:
        raise ValueError(f"--drops must be >= 1, got {drops}")
    base, scenario = _load_with_overrides(args)
    grid = _parse_grid(grid_specs)
    n_cells = math.prod(len(values) for _, values in grid)
    n_nodes = len(scenario.iab_nodes)
    # A grid value holds no comma, so it adds no node (a position takes two).
    # A node-less sweep counts one node a cell, so its cells are capped too.
    if n_cells * drops * max(n_nodes, 1) > MAX_SWEEP_CHAINS:
        raise ValueError(
            f"--grid cells x --drops x nodes = {n_cells} x {drops} x {n_nodes} chains"
            f" exceed the cap of {MAX_SWEEP_CHAINS}"
        )
    cells = list(itertools.product(*[[(k, v) for v in vals] for k, vals in grid]))
    cell_chains = []
    for assignment in cells:  # with no grid, one empty assignment: the scenario as loaded
        cell = scenario
        if assignment:
            data = json.loads(json.dumps(base))  # a copy
            for key, value in assignment:
                set_value(data, key, value, "grid")
            cell = scenario_from_dict(data)
        cell_chains.append([chain_for_node(cell, i) for i in range(len(cell.iab_nodes))])
    rows = [
        (ci, d, ni)
        for ci, chains in enumerate(cell_chains)
        for d in range(drops)
        for ni in range(len(chains))
    ]
    seeds = {k: _node_seed(args.seed, "sweep", *k) for k in dict.fromkeys(r[1:] for r in rows)}
    reports = {}
    for (d, ni), seed in seeds.items():  # one run_link_chains call per (drop, node)
        cis = [ci for ci, node_chains in enumerate(cell_chains) if ni < len(node_chains)]
        chains = (cell_chains[ci][ni] for ci in cis)
        chains = ((params, si_taps(seed)) for params, si_taps in chains)  # drawn as read
        reports.update(zip([(ci, d, ni) for ci in cis], run_link_chains(chains, seed)))
    cell, drop, node = np.array(rows, int).reshape(-1, 3).T
    columns = {"cell": cell, "drop": drop}
    for j, (key, _) in enumerate(grid):
        columns[key] = np.array([csvtable.format_value(c[j][1]) for c in cells], str)[cell]
    row_seeds = [seeds[d, ni] for _, d, ni in rows]
    columns.update(_reduction_columns(node, row_seeds, [reports[r] for r in rows]))
    return scenario, grid, columns


def cmd_sweep(args):
    scenario, grid, columns = _sweep(args, args.grid, args.drops)
    tables = [("sweep.csv", columns)]
    _write_outputs(args, scenario_to_dict(scenario), tables, grid=grid, drops=args.drops)
    return 0


def cmd_compare_prototype(args):
    from .prototype import compare_prototype

    rows, summary = compare_prototype(seed=args.seed)
    _write_outputs(args, None, [("compare_prototype.csv", rows), ("compare_summary.csv", summary)])
    return 0


def _parse_modes(spec):
    """--modes value -> tuple of Mode; an empty, unknown or repeated selection is an error."""
    names = [m.strip() for m in spec.split(",") if m.strip()]
    if not names:
        raise ValueError(f"--modes {spec!r} selects no mode")
    valid = [m.value for m in ALL_MODES]
    unknown = [m for m in names if m not in valid]
    if unknown:
        raise ValueError(f"--modes {spec!r} names {unknown[0]!r}, not one of {', '.join(valid)}")
    repeated = sorted({m for m in names if names.count(m) > 1})
    if repeated:
        raise ValueError(f"--modes {spec!r} repeats {', '.join(repeated)}")
    return tuple(map(Mode, names))


def build_parser():
    description = "Full-duplex IAB simulator: SI reduction chains and throughput drops."
    parser = argparse.ArgumentParser(prog="fdiab", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_required=True, with_scenario=True):
        if with_scenario:
            p.add_argument("--scenario", required=True, help="scenario JSON path")
            p.add_argument(
                "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                help="override a scenario field (dotted path, '*' for list wildcards)",
            )
        seed_help = "experiment seed in [0, 2**64)" + ("" if seed_required else ", default 0")
        p.add_argument("--seed", type=int, required=seed_required, default=0, help=seed_help)
        p.add_argument("--out", required=True, help="output directory")

    common(sub.add_parser("link-sim", help="run the SI reduction chain per IAB node"))

    p_sys = sub.add_parser("system-sim", help="run one throughput drop over all modes")
    common(p_sys)
    all_modes = ",".join(m.value for m in ALL_MODES)
    p_sys.add_argument("--modes", default=all_modes, help="comma-separated subset of modes")

    p_sweep = sub.add_parser("sweep", help="sweep link chains over a parameter grid")
    common(p_sweep)
    p_sweep.add_argument(
        "--grid", action="append", default=[], metavar="KEY=V1,V2,...",
        help="sweep axis over scenario fields (repeatable; cartesian product)",
    )
    p_sweep.add_argument("--drops", type=int, default=1, help="seeded drops per cell")

    cmp_help = "simulated vs measured propagation suppression"
    p_cmp = sub.add_parser("compare-prototype", help=cmp_help)
    common(p_cmp, seed_required=False, with_scenario=False)
    p_cmp.set_defaults(scenario=None, overrides=[])  # as run.json records them

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if not 0 <= args.seed < 2**64:
            raise ValueError(f"--seed must be in [0, 2**64), got {args.seed}")
        command = {"link-sim": cmd_link_sim, "system-sim": cmd_system_sim, "sweep": cmd_sweep,
                   "compare-prototype": cmd_compare_prototype}[args.command]
        return command(args)
    except (ScenarioError, ValueError) as exc:
        print(f"fdiab: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"fdiab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
