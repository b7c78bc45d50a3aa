"""Every function and method defined in src/fdiab is reached by a command.

link-sim, system-sim on a 5x5 and a 46x46 grid, a 2-cell sweep,
compare-prototype and one rejected sweep run in-process under sys.setprofile.
The 46x46 drop's 2,116 UEs put its ue_id and SNR columns past
csvtable.CROSSOVER, so the writer's numpy kernel runs for ints and floats. A
function that none of them calls is a second route into math the commands
reach some other way, kept alive by its tests; it goes, or it goes on
UNREACHED_BY_DESIGN with its reason.
"""

import importlib
import os
import pkgutil
import sys

import fdiab

SCENARIO = os.path.join(os.path.dirname(__file__), "..", "scenarios", "default.json")

UNREACHED_BY_DESIGN = {
    "sic.hammerstein_basis": "the explicit design matrix that tests check the fit against",
    "sic.run_link_chain": "the library's one-chain call, which perfbench's span targets name",
    "system.default_scenario": "imported by perfbench's tests",
    "scenario.load_scenario": "the scenario-file API",
    "scenario.save_scenario": "the scenario-file API",
}


def defined_functions(modules):
    """'module.name' or 'module.Class.name' -> code object, for every
    module-level function and class method (property getters included)
    written in one of modules, a name -> module dict. Names a module imports,
    and the methods dataclass generates, are written elsewhere and left out."""
    found = {}
    for module_name, module in modules.items():
        for name, obj in vars(module).items():
            members = [(name, obj)]
            if isinstance(obj, type):
                members = [(f"{name}.{k}", v) for k, v in vars(obj).items()]
            for qualname, member in members:
                if isinstance(member, property):
                    member = member.fget
                code = getattr(member, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    found[f"{module_name}.{qualname}"] = code
    return found


def test_every_function_is_reached_by_a_command(tmp_path, monkeypatch):
    # A fresh import of the package, traced too: the calls a command makes as
    # it loads (dataclass defaults, field declarations) are reached by it.
    # The modules the other tests use come back at teardown.
    for name in [n for n in sys.modules if n.partition(".")[0] == "fdiab"]:
        monkeypatch.delitem(sys.modules, name)
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    scenario = ["--scenario", SCENARIO, "--seed", "0"]
    runs = [
        (["link-sim", *scenario], 0),
        (["system-sim", *scenario, "--set", "ue_grid.nx=5", "--set", "ue_grid.ny=5"], 0),
        (["system-sim", *scenario, "--set", "ue_grid.nx=46", "--set", "ue_grid.ny=46"], 0),
        (["sweep", *scenario, "--grid", "iab_nodes.*.antenna_separation_m=0.1,2"], 0),
        (["compare-prototype"], 0),
        # A rejected value is a path of every command: it exits 1 naming its field.
        (["sweep", *scenario, "--grid", "iab_nodes.*.antenna_separation_m="], 1),
    ]
    sys.setprofile(profile)
    try:
        modules = {
            info.name: importlib.import_module(f"fdiab.{info.name}")
            for info in pkgutil.iter_modules(fdiab.__path__)
        }
        codes = [modules["cli"].main([*argv, "--out", str(tmp_path / str(i))])
                 for i, (argv, _) in enumerate(runs)]
    finally:
        sys.setprofile(None)
    assert codes == [code for _, code in runs]
    unreached = {name for name, code in defined_functions(modules).items() if code not in reached}
    assert sorted(unreached - UNREACHED_BY_DESIGN.keys()) == []
    # An entry that a command now reaches, or that no longer exists, goes too.
    assert sorted(UNREACHED_BY_DESIGN.keys() - unreached) == []
