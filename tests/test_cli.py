import copy
import dataclasses
import functools
import json
import operator
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import equiterm as eq
from equiterm import cli, qp
from equiterm.cli import _build_parser, main
from equiterm.errors import CovarianceError, EnsembleError, GridError
from tests.corpus import demand_exceeds_capacity, desk_n1, in_small_units, make_corpus


@pytest.fixture(scope="module")
def bad_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "bad.json"
    path.write_text(json.dumps(eq.scenario_to_dict(demand_exceeds_capacity())),
                    encoding="utf-8")
    return path


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roundtrip_of_scenario_files(scenario_file):
    sc = eq.load_scenario(scenario_file)
    assert sc.n_contracts == 1
    assert sc.producers[0].plants[0].capacity == 10.0


def test_validate_ok(scenario_file, capsys):
    code, out, _ = run(["validate", "--scenario", str(scenario_file)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["validation"]["passed"] is True
    assert doc["command"] == "validate"
    assert len(doc["scenario_hash"]) == 64


def test_validate_failure_exits_2(bad_file, capsys):
    code, out, _ = run(["validate", "--scenario", str(bad_file)], capsys)
    assert code == 2
    doc = json.loads(out)
    names = {c["name"]: c["passed"] for c in doc["validation"]["checks"]}
    assert names["joint_clearing"] is False


def test_solve_reports_residuals(scenario_file, capsys):
    code, out, _ = run(["solve", "--scenario", str(scenario_file), "--tol", "1e-8"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    res = doc["result"]
    assert res["converged"] is True
    assert res["clearing_residual"] <= 1e-8
    assert res["max_kkt_residual"] <= 1e-8
    assert doc["config"]["tol"] == 1e-8
    assert doc["config"]["kkt_tol"] == 1e-8
    assert "internal_tolerances" in doc["config"]
    assert "method" not in doc["config"] and "method" not in res
    assert res["saturation"]["statuses"] == ["interior"]


def test_solve_is_byte_deterministic(scenario_file, tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["solve", "--scenario", str(scenario_file), "--output", str(out1)]) == 0
    assert main(["solve", "--scenario", str(scenario_file), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_diagnose_is_byte_deterministic(tmp_path, capsys, fmt):
    # three producers: the sampled pairs go through the batched excess map
    path = tmp_path / "three.json"
    path.write_text(json.dumps(eq.scenario_to_dict(dict(make_corpus())["three_by_three"])),
                    encoding="utf-8")
    outs = [tmp_path / f"{k}.{fmt}" for k in range(2)]
    for out in outs:
        assert main(["diagnose", "--scenario", str(path), "--seed", "7", "--format", fmt,
                     "--output", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_diagnose_is_byte_deterministic_across_processes(tmp_path):
    # what the promise covers: the same scenario bytes, arguments, seed, build
    # and BLAS thread count; string hashing differs between the two children
    path = tmp_path / "three.json"
    path.write_text(json.dumps(eq.scenario_to_dict(dict(make_corpus())["three_by_three"])),
                    encoding="utf-8")
    path_dirs = [str(Path(eq.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_dirs)),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    outs = [tmp_path / f"{k}.json" for k in range(2)]
    for hash_seed, out in zip(("1", "2"), outs):
        subprocess.run([sys.executable, "-m", "equiterm", "diagnose", "--scenario", str(path),
                        "--seed", "7", "--output", str(out)],
                       check=True, env={**env, "PYTHONHASHSEED": hash_seed})
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _leaves(node, path=""):
    """(path, value) of every scalar of a parsed JSON report, in the
    ``--format text`` spelling of paths."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, node


def test_control_characters_in_names_give_valid_json(tmp_path, capsys):
    sc = desk_n1()
    producer = dataclasses.replace(sc.producers[0], name="p\u0001x")
    path = tmp_path / "ctrl.json"
    path.write_text(json.dumps(eq.scenario_to_dict(dataclasses.replace(sc, producers=(producer,)))),
                    encoding="utf-8")
    code, out, _ = run(["solve", "--scenario", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["players"][0]["name"] == "p\u0001x"


def test_float_fields_stay_floats(tmp_path, capsys):
    path = tmp_path / "two_fuels.json"
    path.write_text(json.dumps(eq.scenario_to_dict(dict(make_corpus())["two_fuels"])),
                    encoding="utf-8")
    code, out, _ = run(["solve", "--scenario", str(path)], capsys)
    assert code == 0
    counts = {"max_iter", "iterations", "active_inequalities", "delivery"}
    numbers = [(p, v) for p, v in _leaves(json.loads(out))
               if isinstance(v, (int, float)) and not isinstance(v, bool)]
    assert any(isinstance(v, float) and v.is_integer() for _, v in numbers)
    wrong = [p for p, v in numbers if isinstance(v, int) != (p.rsplit(".", 1)[-1] in counts)]
    assert not wrong


def test_text_lines_spell_the_json_values(scenario_file, capsys):
    reports = {}
    for fmt in ("json", "text"):
        code, reports[fmt], _ = run(["diagnose", "--scenario", str(scenario_file),
                                     "--format", fmt], capsys)
        assert code == 0
    expected = [f"{p} = {v if isinstance(v, str) else json.dumps(v)}"
                for p, v in _leaves(json.loads(reports["json"]))]
    expected[expected.index("config.format = json")] = "config.format = text"
    assert reports["text"].splitlines() == expected


def test_usage_error_exits_1(capsys):
    assert main(["solve"]) == 1          # missing --scenario
    capsys.readouterr()
    assert main(["frobnicate", "--scenario", "x"]) == 1
    capsys.readouterr()
    # the solver has one step rule: the former --method option is gone
    assert main(["solve", "--scenario", "x", "--method", "hybrid"]) == 1


@pytest.mark.parametrize("command, target", [("solve", "missing/dir/r.json"), ("validate", ".")])
def test_unwritable_output_is_a_usage_error(scenario_file, tmp_path, capsys, command, target):
    # a missing directory, or a directory in place of a file: no traceback
    out = tmp_path / target
    assert main([command, "--scenario", str(scenario_file), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write report: {out}: ")


def test_repeated_calls_in_one_process_give_the_same_reports(scenario_file, tmp_path, capsys):
    # main builds its parser once per process: later calls, other subcommands
    # and usage errors in between must not change what a call reports
    calls = {
        "solve": ["solve", "--scenario", str(scenario_file)],
        "validate": ["validate", "--scenario", str(scenario_file), "--format", "text"],
        "usage": ["solve", "--scenario", str(scenario_file), "--tol"],
    }
    first = {}
    for _ in range(3):
        for name, argv in calls.items():
            code, out, err = run(argv, capsys)
            first.setdefault(name, (code, out, err))
            assert (code, out, err) == first[name], name
    assert [first[name][0] for name in calls] == [0, 0, 1]
    assert first["solve"][1] and first["validate"][1] and "--tol" in first["usage"][2]
    assert _build_parser() is _build_parser()


def test_missing_file_exits_2(capsys):
    code, _, err = run(["solve", "--scenario", "/nонexistent.json"], capsys)
    assert code == 2
    assert err


def test_diagnose(scenario_file, capsys):
    code, out, _ = run(["diagnose", "--scenario", str(scenario_file), "--seed", "3"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    d = doc["diagnostics"]
    assert d["monotonicity_all_negative"] is True
    assert d["rank_ok"] is True
    assert d["seed"] == 3


ENVELOPE = {"command", "config", "report_schema", "scenario_hash", "scenario_path", "validation"}
REPORT_KEYS = {
    "solve": (ENVELOPE | {"result"}, {
        "clearing_residual", "converged", "iterations", "max_kkt_residual", "message",
        "players", "price_bound_ok", "prices", "saturation", "trace_residuals"}, None),
    "diagnose": (ENVELOPE | {"result", "diagnostics"}, {
        "clearing_residual", "converged", "prices"}, {
        "jacobian_available", "jacobian_eigen_max", "monotonicity_all_negative",
        "monotonicity_max_inner_product", "monotonicity_pairs", "notes", "rank_condition",
        "rank_ok", "rank_required", "saturation", "seed", "strictly_feasible_plant_per_period"}),
}


@pytest.mark.parametrize("command", sorted(REPORT_KEYS))
def test_report_key_sets_are_pinned(scenario_file, capsys, command):
    """The solve's selection record and market stay out of every report."""
    code, out, _ = run([command, "--scenario", str(scenario_file)], capsys)
    assert code == 0
    doc = json.loads(out)
    top, result, diagnostics = REPORT_KEYS[command]
    assert set(doc) == top
    assert set(doc["result"]) == result
    assert diagnostics is None or set(doc["diagnostics"]) == diagnostics


def test_two_stage_subcommand(two_stage_file, capsys):
    code, out, _ = run(["two-stage", "--scenario", str(two_stage_file)], capsys)
    assert code == 0
    doc = json.loads(out)
    cf = doc["result"]["closed_form"]
    assert cf["agrees_1e6"] is True


def test_two_stage_wrong_grid_exits_2(scenario_file, capsys):
    code, _, err = run(["two-stage", "--scenario", str(scenario_file)], capsys)
    assert code == 2
    assert "two trading times" in err


def test_mean_max_subcommand(two_stage_file, capsys):
    # quotes vary within the delivery: the expectation-only market degenerates
    code, out, _ = run(["mean-max", "--scenario", str(two_stage_file)], capsys)
    assert code == 3
    doc = json.loads(out)
    assert doc["result"]["converged"] is False


def test_oracle_subcommand(scenario_file, capsys):
    code, out, _ = run(["oracle", "--scenario", str(scenario_file), "--step", "1e-3"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["step"] == 1e-3
    assert doc["result"]["evaluations"] > 0


def test_doob_subcommand(ensemble_file, capsys):
    code, out, _ = run(["doob", "--scenario", str(ensemble_file)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["reconstruction_error"] <= 1e-12
    assert doc["result"]["martingale_residual"] <= 1e-12


@pytest.mark.parametrize("cmd", ["validate", "solve", "diagnose"])
def test_one_path_ensemble_exits_2(ensemble_file, tmp_path, capsys, cmd):
    # two paths are the fewest that estimate a covariance; diagnose solves
    # past a failed validation and meets the estimate's CovarianceError
    doc = json.loads(ensemble_file.read_text(encoding="utf-8"))
    paths = doc["exogenous"]["ensemble"]["paths"]
    del paths[1:]
    paths[0]["weight"] = 1.0
    path = tmp_path / "one_path.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run([cmd, "--scenario", str(path)], capsys)
    assert code == 2
    assert "bad configuration" not in err and "Traceback" not in err


@pytest.mark.parametrize("error, code", [
    (eq.ScenarioError, 2), (eq.GridError, 2), (eq.EnsembleError, 2), (eq.CovarianceError, 2),
    (eq.InfeasibleError, 3), (eq.NumericalError, 3), (ValueError, 1),
])
def test_errors_raised_by_a_command_exit_with_their_code(scenario_file, capsys, monkeypatch,
                                                         error, code):
    # every input error class is a ValueError too: each must keep its own code
    def raising(scenario, args, report):
        raise error("raised by the command")

    monkeypatch.setitem(cli._COMMANDS, "solve", raising)
    got, out, err = run(["solve", "--scenario", str(scenario_file)], capsys)
    assert got == code
    assert not out and "raised by the command" in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--step", "nan"],
    ["oracle", "--step", "inf"],
    ["solve", "--tol", "nan"],
    ["solve", "--kkt-tol", "inf"],
    ["solve", "--max-iter", "0"],
], ids=["step_nan", "step_inf", "tol_nan", "kkt_tol_inf", "max_iter_0"])
def test_non_finite_or_empty_options_exit_1(scenario_file, capsys, argv):
    code, out, err = run([*argv, "--scenario", str(scenario_file)], capsys)
    assert code == 1
    assert not out and "bad configuration" in err


def test_doob_needs_ensemble(scenario_file, capsys):
    code, _, err = run(["doob", "--scenario", str(scenario_file)], capsys)
    assert code == 2
    assert "ensemble" in err


def _gas_row(row):
    def edit(doc):
        doc["exogenous"]["ensemble"]["paths"][0]["g"]["gas"][0] = row
    return edit


def _early_last_trading_time(doc):
    doc["grid"]["deliveries"][0]["trading_times"][-1] = 0.9


def _nan_q1(doc):
    doc["exogenous"].pop("ensemble")
    doc["exogenous"]["covariance"] = {"q1": [[float("nan")]], "q2": [[0.0, 0.0]],
                                      "q3": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("edit, error, message", [
    (_gas_row([3.0, 3.1, 3.2]), EnsembleError, "wrong width at delivery 0 for fuel 'gas'"),
    (_gas_row([]), EnsembleError, "wrong width at delivery 0 for fuel 'gas'"),
    (_early_last_trading_time, GridError, "last trading time 0.9 must equal delivery time"),
    (_nan_q1, CovarianceError, "q1 has non-finite entries"),
], ids=["extra_quotes", "empty", "grid", "covariance"])
def test_fuel_row_of_the_wrong_width_is_refused(ensemble_file, tmp_path, capsys,
                                                edit, error, message):
    """A library error raised while a scenario file is read reaches the
    caller as itself, not wrapped in a ScenarioError, and the CLI exits 2."""
    doc = json.loads(ensemble_file.read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(error, match=message):
        eq.load_scenario(path)
    code, out, err = run(["doob", "--scenario", str(path)], capsys)
    assert code == 2 and not out
    assert message in err


def test_text_format(scenario_file, capsys):
    code, out, _ = run(["validate", "--scenario", str(scenario_file),
                        "--format", "text"], capsys)
    assert code == 0
    assert "validation.passed = true" in out


def _mutated_two_fuels(tmp_path, mutate):
    doc = eq.scenario_to_dict(dict(make_corpus())["two_fuels"])
    mutate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


_DELETE = object()
_PLANT = ("producers", 0, "plants", 0)

# (id, path into the two_fuels document, value or _DELETE, cause named on stderr);
# the empty path replaces the whole document
MALFORMED = [
    ("not_an_object", (), [], "scenario document must be a JSON object"),
    ("no_schema", ("schema",), _DELETE, "missing or unsupported schema field"),
    ("negative_capacity", (*_PLANT, "capacity"), -1.0, "capacity must be finite and > 0"),
    ("text_capacity", (*_PLANT, "capacity"), "big", "could not convert string to float: 'big'"),
    ("positive_ramp_down", (*_PLANT, "ramp_down"), 1.0, "need ramp_down <= 0 <= ramp_up"),
    ("unknown_fuel", (*_PLANT, "fuel"), "oil", "plant fuel 'oil' not in fuel table"),
    ("shares_sum_to_half", ("consumers", 0, "demand_share"), 0.5,
     "consumer demand shares sum to 0.5"),
    ("duplicate_names", ("producers", 1, "name"), "producer1", "duplicate producer names"),
    ("demand_too_long", ("exogenous", "demand"), [7.2, 7.2, 7.2],
     "demand length must match delivery count"),
    ("nan_demand", ("exogenous", "demand", 0), float("nan"), "demand must be finite"),
    ("covariance_and_ensemble", ("exogenous", "ensemble"), {"paths": []},
     "give either covariance blocks or an ensemble, not both"),
    ("no_bounds", ("bounds",), _DELETE, "malformed scenario document: 'bounds'"),
    ("negative_v_trade", ("bounds", "v_trade"), -1.0, "v_trade must be finite and >= 0"),
    ("plants_not_a_list", ("producers", 0, "plants"), 5, "'int' object is not iterable"),
    ("no_plants", ("producers", 0, "plants"), [], "producer owns no plants"),
    ("no_trading_times", ("grid", "deliveries", 0, "trading_times"), [],
     "every delivery needs at least one trading time"),
    ("nan_gas_forward", ("exogenous", "fuel_forwards", "gas", 1, 0), float("nan"),
     "fuel 'gas' forwards must be finite (delivery 1)"),
    ("inf_emission_forward", ("exogenous", "emission_forwards", 0, 1), float("inf"),
     "emission forwards must be finite (delivery 0)"),
    # an unknown key, named: Python's own wording for a record differs by version
    ("unknown_top_level_key", ("producer",), [], "unknown key 'producer' in scenario document"),
    ("unknown_grid_key", ("grid", "interest_rat"), 0.05, "unknown key 'interest_rat' in grid"),
    ("unknown_delivery_key", ("grid", "deliveries", 0, "tme"), 1.0,
     "unknown key 'tme' in delivery"),
    ("unknown_plant_key", (*_PLANT, "efficency"), 1.0, "'efficency'"),
    ("unknown_producer_key", ("producers", 0, "risk"), 1.0, "'risk'"),
    ("unknown_consumer_key", ("consumers", 0, "retail_prce"), 3.0, "'retail_prce'"),
    ("unknown_exogenous_key", ("exogenous", "demnd"), [7.2, 7.2], "'demnd'"),
    ("unknown_covariance_key", ("exogenous", "covariance", "q4"), [],
     "unknown key 'q4' in covariance"),
    ("unknown_ensemble_key", ("exogenous",), {"ensemble": {"paths": [], "seed": 1}},
     "unknown key 'seed' in ensemble"),
    ("unknown_path_record_key", ("exogenous",),
     {"ensemble": {"paths": [{"weight": 1.0, "label": "a"}]}},
     "unknown key 'label' in path record"),
    ("unknown_path_record_fuel", ("exogenous",),
     {"ensemble": {"paths": [{"weight": 1.0, "pi": [], "g": {"oil": []}, "g_em": []}]}},
     "unknown key 'oil' in path record's g"),
    ("unknown_bounds_key", ("bounds", "pi_mx"), 10.0, "'pi_mx'"),
]


@pytest.fixture(scope="module")
def two_fuels_doc():
    return eq.scenario_to_dict(dict(make_corpus())["two_fuels"])


@pytest.mark.parametrize("path, value, cause", [m[1:] for m in MALFORMED],
                         ids=[m[0] for m in MALFORMED])
def test_malformed_scenario_file_exits_2_naming_the_cause(two_fuels_doc, tmp_path, capsys,
                                                         path, value, cause):
    doc = copy.deepcopy(two_fuels_doc)
    if not path:
        doc = value
    else:
        *parents, last = path
        target = functools.reduce(operator.getitem, parents, doc)
        if value is _DELETE:
            del target[last]
        else:
            target[last] = value
    scenario = tmp_path / "malformed.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(["validate", "--scenario", str(scenario)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("invalid scenario: ") and cause in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "mean-max"])
def test_non_finite_fuel_quote_exits_2_before_any_command(tmp_path, capsys, command):
    def nan_gas(doc):
        doc["exogenous"]["fuel_forwards"]["gas"][0][0] = float("nan")

    path = _mutated_two_fuels(tmp_path, nan_gas)
    code, out, err = run([command, "--scenario", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == "invalid scenario: fuel 'gas' forwards must be finite (delivery 0)\n"


def test_non_finite_covariance_exits_2(tmp_path, capsys):
    def nan_q1(doc):
        doc["exogenous"]["covariance"]["q1"][0][0] = float("nan")

    path = _mutated_two_fuels(tmp_path, nan_q1)
    code, _, err = run(["solve", "--scenario", str(path)], capsys)
    assert code == 2
    assert "invalid scenario" in err and "q1" in err


def test_price_box_near_float_max_solves_without_warnings(tmp_path, capsys):
    def huge_box(doc):
        doc["bounds"]["pi_max"] = 1e308

    path = _mutated_two_fuels(tmp_path, huge_box)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(["solve", "--scenario", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["result"]["converged"] is True


@pytest.mark.parametrize("side", ["producers", "consumers"])
@pytest.mark.parametrize("lam", [1e-300, 1e-12, 1e12, 1e300])
def test_extreme_risk_aversion_ends_with_a_report(tmp_path, capsys, side, lam):
    # only the outcome class is pinned: some of these stall (exit 3) today
    def set_lambda(doc):
        for player in doc[side]:
            player["risk_aversion"] = lam

    path = _mutated_two_fuels(tmp_path, set_lambda)
    report = tmp_path / "report.json"
    code, _, err = run(["solve", "--scenario", str(path), "--output", str(report)], capsys)
    assert code in (0, 3)
    assert "result" in json.loads(report.read_text(encoding="utf-8"))
    assert "solver failure" not in err and "Traceback" not in err


def test_import_does_not_load_scipy(tmp_path):
    # the phase-I LP runs on the package's own active-set engine; scipy would
    # add its load time to every CLI call
    # the child imports the equiterm under test, installed or not
    path_dirs = [str(Path(eq.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_dirs))}
    code = "import equiterm, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    # nor do the subcommands that certify, solve and diagnose load it
    path = tmp_path / "two_fuels.json"
    path.write_text(json.dumps(eq.scenario_to_dict(dict(make_corpus())["two_fuels"])),
                    encoding="utf-8")
    code = (
        "import os, sys\n"
        "from equiterm.cli import main\n"
        "for cmd in ('validate', 'solve', 'diagnose'):\n"
        "    code = main([cmd, '--scenario', sys.argv[1], '--output', os.devnull])\n"
        "    assert code == 0, (cmd, code)\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code, str(path)], check=True, env=env)


def test_phase_one_engine_failure_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise eq.NumericalError("active-set iteration limit 7 exceeded")

    # in small units no phase-I start reaches the cap, so every LP runs the engine
    path = tmp_path / "small.json"
    path.write_text(json.dumps(eq.scenario_to_dict(in_small_units(desk_n1()))), encoding="utf-8")
    monkeypatch.setattr(qp, "solve_qp_active_set", broken)
    code, out, err = run(["validate", "--scenario", str(path)], capsys)
    assert code == 2
    assert "Traceback" not in err
    doc = json.loads(out)
    assert doc["validation"]["passed"] is False
    joint = next(c for c in doc["validation"]["checks"] if c["name"] == "joint_clearing")
    assert "iteration limit" in joint["message"]
