"""Competitive-equilibrium term structure of electricity forward prices."""

from .assembly import PlayerProblem, assemble_all, assemble_consumer, assemble_producer
from .covariance import CovarianceBlocks, estimate_covariance
from .errors import (
    CovarianceError,
    EnsembleError,
    EquitermError,
    GridError,
    InfeasibleError,
    NumericalError,
    ScenarioError,
)
from .grid import IndexMap, TradingGrid, canonical_index, delivery_totals_matrix
from .players import (
    PlayerSolution,
    ResidualReport,
    ResponseJacobian,
    best_response_volumes,
    finite_difference_volumes,
    kkt_residual,
    response_jacobian,
    solve_qp,
    solve_qp_many,
)
from .process import (
    DoobParts,
    PathEnsemble,
    doob_decompose,
    drift_matching_prices,
    ensemble_from_records,
    shift_measure,
    verify_covariance_invariance,
)
from .scenario import (
    Bounds,
    Consumer,
    ExogenousModel,
    FuelTable,
    PowerPlant,
    Producer,
    Scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .equilibrium import (
    DiagnosticsReport,
    EquilibriumResult,
    Market,
    SaturationReport,
    SolveOptions,
    check_uniqueness,
    detect_saturation,
    excess_volume,
    merit_order_prices,
    solve_equilibrium,
)
from .oracles import (
    BruteForceResult,
    DeliveryMeanMax,
    GridSpec,
    MeanMaxResult,
    TwoStageParams,
    brute_force_equilibrium,
    mean_max_equilibrium,
    producer_solution_with_fixed_totals,
    two_stage_check,
    two_stage_price,
)
from .validate import CheckResult, ValidationReport, validate_scenario

__version__ = "0.1.0"
