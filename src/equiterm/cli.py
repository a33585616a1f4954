"""Batch command-line front door.

Subcommands: validate, solve, diagnose, two-stage, mean-max, oracle, doob.
Exit codes: 0 success, 1 usage error, 2 validation/input failure,
3 non-convergence.  A JSON report is ``json.dumps`` with sorted keys,
indent 2, raw non-ASCII, floats in their shortest round-trip form and the
``NaN``/``Infinity`` tokens; ``--format text`` spells the same values as
flat ``path = value`` lines.  Neither holds a timestamp, so the same
scenario bytes, arguments and seed give the same report bytes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import asdict

import numpy as np

from .errors import (
    CovarianceError,
    EnsembleError,
    EquitermError,
    GridError,
    InfeasibleError,
    NumericalError,
    ScenarioError,
)
from .qp import FEAS_MARGIN, FEAS_TOL, STRICT_DUAL_TOL
from .scenario import load_scenario

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3

_INPUT_ERRORS = (ScenarioError, GridError, EnsembleError, CovarianceError)  # all ValueErrors

# Names that only some commands call.  Each resolves on first access through
# the package, which imports its home module, and is then bound here.  The
# commands look them up on ``_here`` at call time, so a patched binding (a
# tracer's) is the one called.
_LAZY = frozenset((
    "validate_scenario SolveOptions solve_equilibrium check_uniqueness GridSpec "
    "brute_force_equilibrium mean_max_equilibrium two_stage_check doob_decompose").split())
_here = sys.modules[__name__]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged, so every
    call of ``main`` reads its arguments with it."""
    parser = argparse.ArgumentParser(
        prog="equiterm",
        description="Competitive-equilibrium term structure of power forward prices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, solver=False, seed=False, step=False):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if solver:
            p.add_argument("--tol", type=float, default=1e-8,
                           help="market clearing tolerance (volume units)")
            p.add_argument("--kkt-tol", type=float, default=1e-8,
                           help="per-player optimality tolerance")
            p.add_argument("--max-iter", type=int, default=200)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if step:
            p.add_argument("--step", type=float, default=1e-4,
                           help="price grid resolution")

    common(sub.add_parser("validate", help="run all scenario preconditions"))
    common(sub.add_parser("solve", help="compute the equilibrium term structure"),
           solver=True)
    common(sub.add_parser("diagnose", help="solve, then run the uniqueness diagnostics"),
           solver=True, seed=True)
    common(sub.add_parser("two-stage", help="closed-form cross-check on a 2-trading-time market"),
           solver=True)
    common(sub.add_parser("mean-max", help="expectation-only equilibrium per delivery"))
    common(sub.add_parser("oracle", help="brute-force nested bisection (N <= 3 contracts)"),
           step=True)
    common(sub.add_parser("doob", help="martingale/drift split of an ensemble scenario"))
    return parser


def _json_default(obj):
    """Numpy scalars and arrays as Python numbers and lists; anything else
    as its ``str``."""
    return obj.tolist() if isinstance(obj, (np.generic, np.ndarray)) else str(obj)


def render_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False,
                      default=_json_default) + "\n"


def render_text(report) -> str:
    """Flat ``path = value`` lines in key order, each value spelled as its
    token in the JSON report, strings unquoted."""
    lines: list[str] = []

    def walk(node, path):
        if isinstance(node, dict):
            for k, v in node.items():  # sorted: the JSON report's key order
                walk(v, f"{path}.{k}" if path else k)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")
        else:
            lines.append(f"{path} = {node if isinstance(node, str) else json.dumps(node)}")

    walk(json.loads(render_json(report)), "")
    return "\n".join(lines) + "\n"


def _emit(args, report: dict, code: int) -> int:
    """Write the report and return ``code``, or ``EXIT_USAGE`` when
    ``--output`` cannot be written."""
    text = render_json(report) if args.format == "json" else render_text(report)
    if not args.output:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write report: {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def _config_echo(args) -> dict:
    cfg = {
        "format": args.format,
        "internal_tolerances": {
            "player_dual_tol": STRICT_DUAL_TOL,
            "player_active_tol": FEAS_TOL,
            "feas_margin": FEAS_MARGIN,
        },
    }
    for key in ("tol", "kkt_tol", "max_iter", "seed", "step"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _envelope(args) -> dict:
    return {
        "report_schema": "equiterm/report/1",
        "command": args.command,
        "scenario_path": args.scenario,
        "scenario_hash": _file_sha256(args.scenario),
        "config": _config_echo(args),
    }


def _price_table(scenario, prices) -> list:
    grid = scenario.grid
    raw = prices / grid.node_discounts()
    return [{
        "delivery": j,
        "delivery_time": grid.deliveries[j],
        "trading_time": grid.trading_times[j][i],
        "price": float(raw[k]),
        "price_discounted": float(prices[k]),
    } for k, (j, i) in enumerate(grid.node_labels())]


def _solution_rows(result) -> list:
    rows = []
    for name, sol in zip(result.player_names, result.player_solutions):
        rows.append({
            "name": name,
            "objective": sol.objective,
            "kkt_residual": sol.kkt_residual,
            "stationarity": sol.residuals.stationarity,
            "complementarity": sol.residuals.complementarity,
            "volumes": sol.volumes,
            "active_inequalities": len(sol.active_set),
        })
    return rows


def _solve(scenario, args):
    opts = _here.SolveOptions(tol=args.tol, kkt_tol=args.kkt_tol, max_iter=args.max_iter)
    return _here.solve_equilibrium(scenario, opts)


def _result_head(scenario, result) -> dict:
    return {"converged": result.converged, "clearing_residual": result.clearing_residual,
            "prices": _price_table(scenario, result.prices)}


def _cmd_validate(scenario, args, report):
    validation = _here.validate_scenario(scenario)
    report["validation"] = validation.as_dict()
    return _emit(args, report, EXIT_OK if validation.passed else EXIT_VALIDATION)


def _cmd_solve(scenario, args, report):
    validation = _here.validate_scenario(scenario)
    report["validation"] = validation.as_dict()
    if not validation.passed:
        return _emit(args, report, EXIT_VALIDATION)
    result = _solve(scenario, args)
    report["result"] = {
        **_result_head(scenario, result),
        "message": result.message,
        "iterations": result.iterations,
        "max_kkt_residual": result.max_kkt_residual,
        "price_bound_ok": result.price_bound_ok,
        "players": _solution_rows(result),
        "saturation": asdict(result.saturation),
        "trace_residuals": result.trace,
    }
    return _emit(args, report, EXIT_OK if result.converged else EXIT_NO_CONVERGENCE)


def _cmd_diagnose(scenario, args, report):
    validation = _here.validate_scenario(scenario)
    report["validation"] = validation.as_dict()
    result = _solve(scenario, args)
    diag = _here.check_uniqueness(scenario, result, seed=args.seed)  # on the solve's market
    ips = [ip for _, _, ip in diag.monotonicity_samples]
    report["result"] = _result_head(scenario, result)
    report["diagnostics"] = {
        "monotonicity_pairs": len(ips),
        "monotonicity_all_negative": diag.monotonicity_all_negative,
        "monotonicity_max_inner_product": max(ips) if ips else None,
        "jacobian_available": diag.jacobian_available,
        "jacobian_eigen_max": diag.jacobian_eigen_max,
        "rank_condition": diag.rank_condition,
        "rank_required": diag.rank_required,
        "rank_ok": diag.rank_ok,
        "strictly_feasible_plant_per_period": diag.strictly_feasible_plant_per_period,
        "saturation": asdict(diag.saturation),
        "notes": diag.notes,
        "seed": args.seed,
    }
    return _emit(args, report, EXIT_OK if result.converged else EXIT_NO_CONVERGENCE)


def _cmd_two_stage(scenario, args, report):
    if scenario.grid.n_deliveries != 1 or scenario.grid.sizes != (2,):
        print("two-stage check needs exactly one delivery with two trading times",
              file=sys.stderr)
        return EXIT_VALIDATION
    result = _solve(scenario, args)
    check = _here.two_stage_check(scenario, result)
    report["result"] = {
        **_result_head(scenario, result),
        "closed_form": {
            "expected_t2_price": check.params.expected_t2_price,
            "lambdas": check.params.lambdas,
            "cost_covariances": check.params.cost_covariances,
            "retail": check.params.retail,
            "predicted_t1_price": check.predicted_t1,
            "solver_t1_price": check.solver_t1,
            "rel_error": check.rel_error,
            "agrees_1e6": check.rel_error <= 1e-6,
        },
    }
    return _emit(args, report, EXIT_OK if result.converged else EXIT_NO_CONVERGENCE)


def _cmd_mean_max(scenario, args, report):
    mm = _here.mean_max_equilibrium(scenario)
    report["result"] = {
        "converged": mm.converged,
        "message": mm.message,
        "notes": mm.notes,
        "intra_delivery_spread": mm.intra_delivery_spread,
        "prices_discounted": mm.prices,
        "deliveries": [asdict(d) for d in mm.deliveries],
    }
    return _emit(args, report, EXIT_OK if mm.converged else EXIT_NO_CONVERGENCE)


def _cmd_oracle(scenario, args, report):
    if scenario.n_contracts > 3:
        print("brute-force oracle limited to 3 contracts", file=sys.stderr)
        return EXIT_VALIDATION
    bf = _here.brute_force_equilibrium(scenario, _here.GridSpec(step=args.step))
    report["result"] = {
        "prices_discounted": bf.prices,
        "clearing_residual": bf.residual,
        "step": bf.step,
        "evaluations": bf.evaluations,
        "levels": bf.levels,
    }
    return _emit(args, report, EXIT_OK)


def _cmd_doob(scenario, args, report):
    ens = scenario.exogenous.ensemble
    if ens is None:
        print("doob needs a scenario whose exogenous block carries an ensemble",
              file=sys.stderr)
        return EXIT_VALIDATION
    parts = _here.doob_decompose(ens)
    report["result"] = {
        "n_paths": ens.n_paths,
        "reconstruction_error": parts.max_reconstruction_error(ens),
        "martingale_residual": parts.martingale_residual(ens),
        "predictability_residual": parts.predictability_residual(ens),
        "martingale": parts.martingale,
        "predictable": parts.predictable,
        "weights": ens.weights,
    }
    return _emit(args, report, EXIT_OK)


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "diagnose": _cmd_diagnose,
    "two-stage": _cmd_two_stage,
    "mean-max": _cmd_mean_max,
    "oracle": _cmd_oracle,
    "doob": _cmd_doob,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _INPUT_ERRORS as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    report = _envelope(args)
    try:
        return _COMMANDS[args.command](scenario, args, report)
    except _INPUT_ERRORS as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleError, NumericalError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except EquitermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
