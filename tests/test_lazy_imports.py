"""Import on demand: ``import equiterm`` loads no submodule and no numpy,
every public name still resolves, and each CLI subcommand loads only the
modules it runs.  The module sets are read in fresh child processes."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equiterm as eq
from equiterm import cli
from equiterm.__main__ import BLAS_THREAD_VARS

SUBMODULES = ("assembly", "covariance", "equilibrium", "errors", "grid", "oracles", "players",
              "process", "qp", "scenario", "validate")

# what each subcommand loads besides the package, on a scenario without an
# ensemble (doob's carries one, so it loads the path module)
BASE = {"cli", "covariance", "errors", "grid", "qp", "scenario"}
SOLVER = {"assembly", "equilibrium", "players"}
MODULE_SETS = {
    "validate": BASE | {"assembly", "validate"},
    "solve": BASE | SOLVER | {"validate"},
    "diagnose": BASE | SOLVER | {"validate"},
    "two-stage": BASE | SOLVER | {"oracles"},
    "mean-max": BASE | SOLVER | {"oracles"},
    "oracle": BASE | SOLVER | {"oracles"},
    "doob": BASE | {"process"},
}
# input file and exit code of each run (quotes vary within the two-stage
# delivery, so mean-max reports no expectation-only equilibrium: exit 3)
RUNS = {"validate": ("desk", 0), "solve": ("desk", 0), "diagnose": ("desk", 0),
        "two-stage": ("two_stage", 0), "mean-max": ("two_stage", 3), "oracle": ("desk", 0),
        "doob": ("ensemble", 0)}

# runs ``python -m equiterm ARGS...`` in this process, then prints its exit
# code, the equiterm submodules loaded and the three BLAS thread variables
RUN_MAIN = """\
import json, os, runpy, sys
sys.argv = ["equiterm", *sys.argv[1:]]
try:
    runpy.run_module("equiterm", run_name="__main__")
except SystemExit as exc:
    print(exc.code)
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("equiterm."))))
print(json.dumps([os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS")]))
"""


def _child_env(**extra):
    """The environment of a child that imports the equiterm under test, with
    no BLAS thread variable set unless given in ``extra``."""
    path_dirs = [str(Path(eq.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, path_dirs)), **extra}


def _run(code, *args, **extra_env):
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                          text=True, env=_child_env(**extra_env), check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


@pytest.fixture(scope="module")
def cli_files(scenario_file, two_stage_file, ensemble_file):
    return {"desk": scenario_file, "two_stage": two_stage_file, "ensemble": ensemble_file}


def test_import_loads_no_submodule_and_no_numpy():
    code = ("import json, sys, equiterm\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.startswith('equiterm.') or m == 'numpy')))")
    assert _run(code) == [[]]


def test_star_import_resolves_every_public_name_in_a_fresh_process():
    code = ("import json, equiterm\nfrom equiterm import *\n"
            "print(json.dumps([n for n in equiterm.__all__ if n not in globals()]))")
    assert _run(code) == [[]]


def test_every_public_name_and_submodule_resolves():
    assert len(eq.__all__) == 66 and len(set(eq.__all__)) == 66
    listed = dir(eq)
    for name in eq.__all__:
        obj = getattr(eq, name)
        assert obj.__module__.startswith("equiterm."), name
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert name in listed
    for name in SUBMODULES:
        assert getattr(eq, name) is importlib.import_module(f"equiterm.{name}")
        assert name in listed
    with pytest.raises(AttributeError):
        eq.no_such_name  # noqa: B018


@pytest.mark.parametrize("command", sorted(MODULE_SETS))
def test_each_subcommand_loads_only_the_modules_it_runs(cli_files, command):
    name, code = RUNS[command]
    got, modules, _ = _run(RUN_MAIN, command, "--scenario", cli_files[name],
                           "--output", os.devnull)
    assert got == code
    assert set(modules) == MODULE_SETS[command]


def test_the_cli_pins_one_blas_thread_unless_the_caller_set_a_count(cli_files):
    argv = ("validate", "--scenario", cli_files["desk"], "--output", os.devnull)
    assert _run(RUN_MAIN, *argv)[::2] == [0, ["1", "1", "1"]]
    assert _run(RUN_MAIN, *argv, OPENBLAS_NUM_THREADS="3")[::2] == [0, ["3", "1", "1"]]
    # the library API, the CLI's main included, leaves the environment alone
    code = ("import json, os, sys\nfrom equiterm.cli import main\n"
            "assert main(['validate', '--scenario', sys.argv[1], '--output', os.devnull]) == 0\n"
            "print(json.dumps([os.environ.get(v) for v in sys.argv[2:]]))")
    assert _run(code, cli_files["desk"], *BLAS_THREAD_VARS) == [[None, None, None]]


def test_a_patched_cli_binding_is_the_one_the_command_calls(cli_files, monkeypatch):
    calls = []
    original = cli.validate_scenario

    def counted(scenario):
        calls.append(scenario)
        return original(scenario)

    monkeypatch.setattr(cli, "validate_scenario", counted)
    assert cli.main(["validate", "--scenario", str(cli_files["desk"]),
                     "--output", os.devnull]) == 0
    assert len(calls) == 1
    with pytest.raises(AttributeError):
        cli.no_such_name  # noqa: B018
