"""Output checks for benchmark invocations of the fdiab CLI.

An invocation passes when it exits 0, writes every CSV its command promises,
and the rows hold the paper's invariants:

- reduction rows (sweep): each row, read back into a `ReductionReport`,
  passes `ReductionReport.validate` (per-domain dB sum equals the total,
  stage powers do not rise along the chain);
- throughput rows (system-sim): per UE, fibered >= ideal_fd >= fd_full >=
  fd_prop_only.

Byte identity is checked through a `HashBook`: the sha256 of every CSV is
recorded under a key that names the CLI arguments and seed but not
tracing, so a repeat of the same key must give the same bytes.
"""

import csv
import hashlib
import json
import os

MODE_ORDER = ("fibered", "ideal_fd", "fd_full", "fd_prop_only")

OUTPUTS = {
    "sweep": ("sweep.csv",),
    "system-sim": ("throughput.csv", "cdf.csv"),
}


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _rows(path):
    with open(path, newline="") as fh:
        yield from csv.DictReader(fh)


def _report(row):
    """The ReductionReport a sweep.csv row was written from."""
    # Imported here: run.py pins BLAS threads and puts the checkout's src/
    # on the path before anything imports fdiab or numpy.
    from fdiab.sic import ReductionReport

    num = lambda k: float(row[k])  # noqa: E731
    flag = lambda k: row[k] == "true"  # noqa: E731
    return ReductionReport(
        tx_power_dbm=num("tx_power_dbm"),
        after_propagation_dbm=num("after_propagation_dbm"),
        after_analog_dbm=num("after_analog_dbm"),
        after_digital_dbm=num("after_digital_dbm"),
        per_domain_db=(num("propagation_db"), num("analog_db"), num("digital_db")),
        noise_floor_dbm=num("noise_floor_dbm"),
        analog_applied=flag("analog_applied"),
        gray_zone_ok=flag("gray_zone_ok"),
        digital_saturated=flag("digital_saturated"),
        holdout_residual_dbm=num("holdout_residual_dbm"),
        antenna_separation_m=num("antenna_separation_m"),
    )


def check_reduction_rows(path):
    """Validate reduction rows; returns (problems, chains, analog_engaged)."""
    problems, chains, engaged = [], 0, 0
    for i, row in enumerate(_rows(path)):
        chains += 1
        report = _report(row)
        engaged += report.analog_applied
        try:
            report.validate()
        except ValueError as exc:
            problems.append(f"{os.path.basename(path)} row {i}: {exc}")
    return problems, chains, engaged


def check_throughput_rows(path):
    """Validate the per-UE mode ordering; returns (problems, rows, ues, relayed)."""
    per_ue = {}
    relayed = set()
    rows = 0
    for row in _rows(path):
        rows += 1
        ue = int(row["ue_id"])
        per_ue.setdefault(ue, {})[row["mode"]] = float(row["throughput_bps"])
        if row["serving_cell"] != "0":
            relayed.add(ue)
    problems = []
    for ue, thr in per_ue.items():
        present = [thr[m] for m in MODE_ORDER if m in thr]
        if any(b > a for a, b in zip(present, present[1:])):
            problems.append(f"ue {ue}: throughput ordering {MODE_ORDER} violated")
    return problems, rows, len(per_ue), len(relayed)


def check_invocation(command, exit_code, out_dir, expected_rows):
    """Check one CLI invocation.

    Returns (problems, hashes, props): the list of failed checks, the sha256
    of each CSV, and the workload properties read from the outputs.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}, {}
    problems, hashes = [], {}
    for name in OUTPUTS[command]:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{name} missing")
            continue
        hashes[name] = sha256_file(path)
    if problems:
        return problems, hashes, {}
    if command == "system-sim":
        found, rows, ues, relayed = check_throughput_rows(os.path.join(out_dir, "throughput.csv"))
        props = {"ues": ues, "relayed_share": relayed / ues if ues else 0.0, "rows": rows}
    else:
        found, chains, engaged = check_reduction_rows(os.path.join(out_dir, OUTPUTS[command][0]))
        rows = chains
        props = {"chains": chains, "analog_engaged_share": engaged / chains if chains else 0.0, "rows": rows}
    problems.extend(found)
    if rows != expected_rows:
        problems.append(f"{rows} rows, expected {expected_rows}")
    return problems, hashes, props


class HashBook:
    """sha256 per (key, CSV) that must not change once recorded.

    Entries persist in a JSON file between runs, so a later run with the
    same key is checked against an earlier one.
    """

    def __init__(self, path):
        self.path = path
        self.entries = {}
        if os.path.isfile(path):
            with open(path) as fh:
                self.entries = json.load(fh)

    def record(self, key, hashes):
        """Record hashes under key; returns the names whose bytes differ from before."""
        known = self.entries.setdefault(key, {})
        changed = [n for n, h in hashes.items() if n in known and known[n] != h]
        for name, digest in hashes.items():
            known.setdefault(name, digest)
        return changed

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.entries, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
