"""Set-up work every fdiab CLI call pays, run in a fresh interpreter.

Imports fdiab.cli and loads, overrides and validates the scenario the way
the CLI does before it computes anything. The caller times this process
from start to exit.

    python3 perfbench/setup_probe.py <checkout> <scenario.json> [KEY=VALUE ...]
"""

import json
import os
import sys


def main(root, scenario_path, overrides):
    sys.path.insert(0, os.path.join(root, "src"))
    from fdiab.cli import apply_overrides, scenario_from_dict

    with open(scenario_path) as fh:
        data = json.load(fh)
    scenario_from_dict(apply_overrides(data, overrides))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
