"""What each command loads, and the package's public names.

fdiab's public names resolve from their submodules on first access, and the
CLI imports the link chain (fdiab.sic, which imports fdiab.ofdm) and
fdiab.prototype only in the commands that run them. Every CLI call starts a
fresh interpreter, so a layer it imports without running is set-up time:
with bytecode writing off it is also compiled.
"""

import importlib
import json
import os
import re
import subprocess
import sys
import tokenize

import pytest

import fdiab

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src")
SCENARIO = os.path.join(ROOT, "scenarios", "default.json")
README = os.path.join(ROOT, "README.md")
CHAIN = {"fdiab.sic", "fdiab.ofdm"}
PROTOTYPE = {"fdiab.prototype"}

# Runs fdiab.cli.main(argv), or with no argv the set-up path the benchmark's
# set-up probe times (perfbench/setup_probe.py), in this fresh interpreter;
# prints its exit code, then the fdiab modules it loaded.
LOAD = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    if argv:
        from fdiab.cli import main
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    else:
        from fdiab.cli import apply_overrides, scenario_from_dict
        with open(sys.argv[2]) as fh:
            scenario_from_dict(apply_overrides(json.load(fh), []))
        code = 0
print(code)
print(json.dumps(sorted(n for n in sys.modules if n.startswith("fdiab."))))
"""


def fresh(args, **kwargs):
    """subprocess.run of a fresh interpreter that imports fdiab from src/."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **kwargs)


OUT = "{out}"  # a case's output directory, under tmp_path
RUN = ["--scenario", SCENARIO, "--seed", "0", "--out", OUT]


@pytest.mark.parametrize(
    "argv, needs, never",
    [
        (["system-sim", *RUN, "--set", "ue_grid.nx=2", "--set", "ue_grid.ny=2"],
         {"fdiab.system"}, CHAIN | PROTOTYPE),
        (["--help"], {"fdiab.cli"}, CHAIN | PROTOTYPE),
        ([], {"fdiab.scenario"}, CHAIN | PROTOTYPE),  # the set-up path
        (["link-sim", *RUN], CHAIN, PROTOTYPE),
        (["sweep", *RUN, "--grid", "iab_nodes.*.antenna_separation_m=1"], CHAIN, PROTOTYPE),
        (["compare-prototype", "--out", OUT], PROTOTYPE, CHAIN),
    ],
    ids=["system-sim", "help", "setup", "link-sim", "sweep", "compare-prototype"],
)
def test_a_command_loads_only_the_layers_it_runs(argv, needs, never, tmp_path):
    argv = [a.format(out=tmp_path / "o") for a in argv]
    res = fresh(["-c", LOAD, json.dumps(argv), SCENARIO])
    assert res.returncode == 0, res.stderr
    code, modules = res.stdout.splitlines()[-2:]
    assert code == "0", res.stderr
    modules = set(json.loads(modules))
    assert needs <= modules
    assert not never & modules


# CPython's parser grows its token array in steps of 4,096 tokens: cli.py past
# the step raised the compile peak of every fresh process by about 0.23 MiB.
PARSER_TOKEN_STEP = 4096


def parser_tokens(path):
    """The tokens the parser reads of a module: tokenize's, less comments and
    non-logical newlines."""
    with open(path) as fh:
        tokens = tokenize.generate_tokens(fh.readline)
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)


def test_system_sim_modules_stay_under_the_parser_token_step(tmp_path):
    argv = ["system-sim", *RUN, "--set", "ue_grid.nx=2", "--set", "ue_grid.ny=2"]
    res = fresh(["-c", LOAD, json.dumps([a.format(out=tmp_path / "o") for a in argv]), SCENARIO])
    assert res.returncode == 0, res.stderr
    modules = ["fdiab", *json.loads(res.stdout.splitlines()[-1])]
    assert {"fdiab.cli", "fdiab.csvtable", "fdiab.system", "fdiab.util"} <= set(modules)
    paths = {m: os.path.join(SRC, *m.split(".")) + ".py" for m in modules}
    paths["fdiab"] = os.path.join(SRC, "fdiab", "__init__.py")
    tokens = {m: parser_tokens(path) for m, path in paths.items()}
    assert {m: n for m, n in tokens.items() if n >= PARSER_TOKEN_STEP} == {}


def test_public_names_are_their_submodules_objects(monkeypatch):
    for name, module in fdiab._MODULE_OF.items():
        assert getattr(fdiab, name) is getattr(importlib.import_module(f"fdiab.{module}"), name)
        assert name in dir(fdiab)
    with pytest.raises(AttributeError):
        fdiab.no_such_name
    # A name reads its submodule on every access, so a rebinding there (the
    # benchmark's span recorder rebinds functions for one call) shows through,
    # and so does its undoing.
    original = fdiab.sic.run_link_chain
    monkeypatch.setattr(fdiab.sic, "run_link_chain", rebound := object())
    assert fdiab.run_link_chain is rebound
    monkeypatch.undo()
    assert fdiab.run_link_chain is original


def test_readme_library_block_runs(tmp_path):
    with open(README) as fh:
        text = fh.read()
    block = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.S | re.M).group(1)
    res = fresh(["-c", block], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
