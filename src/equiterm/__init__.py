"""Competitive-equilibrium term structure of electricity forward prices.

Names resolve on first access (PEP 562), so ``import equiterm`` loads no
submodule and no numpy.  A public name imports its home module (``_HOMES``)
and is cached here; a submodule name imports that submodule.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "assembly": "PlayerProblem assemble_all assemble_consumer assemble_producer",
    "covariance": "CovarianceBlocks estimate_covariance",
    "errors": "CovarianceError EnsembleError EquitermError GridError InfeasibleError "
              "NumericalError ScenarioError",
    "grid": "IndexMap TradingGrid canonical_index delivery_totals_matrix",
    "players": "PlayerSolution ResidualReport ResponseJacobian best_response_volumes "
               "finite_difference_volumes kkt_residual response_jacobian solve_qp solve_qp_many",
    "process": "DoobParts PathEnsemble doob_decompose drift_matching_prices "
               "ensemble_from_records shift_measure verify_covariance_invariance",
    "scenario": "Bounds Consumer ExogenousModel FuelTable PowerPlant Producer Scenario "
                "load_scenario scenario_from_dict scenario_to_dict",
    "equilibrium": "DiagnosticsReport EquilibriumResult Market SaturationReport SolveOptions "
                   "check_uniqueness detect_saturation excess_volume merit_order_prices "
                   "solve_equilibrium",
    "oracles": "BruteForceResult DeliveryMeanMax GridSpec MeanMaxResult TwoStageParams "
               "brute_force_equilibrium mean_max_equilibrium producer_solution_with_fixed_totals "
               "two_stage_check two_stage_price",
    "validate": "CheckResult ValidationReport validate_scenario",
}
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names.split()}
_SUBMODULES = (*_HOMES, "qp")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
