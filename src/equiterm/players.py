"""Per-player best responses, optimality residuals and price sensitivities.

``solve_qp`` maximizes a player's concave mean-variance objective at given
expected power prices.  The traded block (V, F, O) of the optimum is
unique; the production block W can sit on a flat face, so a second stage
picks the minimum-norm W on that face to make results deterministic.  W
carries no cost and no curvature, so the first stage's multipliers stay
valid there (a convex QP has the same multipliers at every optimum).

``response_jacobian`` differentiates the optimal power trades with respect
to expected prices while holding the strictly active constraints fixed:
one affine piece of the piecewise-affine response map.  Every player goes
through the reduced KKT system of the equality-plus-active-set selection
rather than an explicit constrained pseudoinverse (the same object,
simpler numerics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import PlayerProblem
from .errors import InfeasibleError, JacobianUnavailableError
from .qp import solve_qp_active_set
from .validate import _interior_margin

__all__ = [
    "PlayerSolution",
    "ResidualReport",
    "ResponseJacobian",
    "solve_qp",
    "kkt_residual",
    "best_response_volumes",
    "response_jacobian",
    "finite_difference_volumes",
]

DUAL_TOL = 1e-8
ACT_TOL = 1e-8


@dataclass(frozen=True)
class ResidualReport:
    """Max-norm KKT residuals of a candidate optimum."""

    stationarity: float
    primal_equality: float
    primal_inequality: float
    dual_feasibility: float
    complementarity: float

    @property
    def max_violation(self) -> float:
        return max(self.stationarity, self.primal_equality, self.primal_inequality,
                   self.dual_feasibility, self.complementarity)


@dataclass(frozen=True)
class PlayerSolution:
    """Primal/dual optimum of one player at fixed expected prices."""

    prices: np.ndarray
    primal: np.ndarray
    eq_duals: np.ndarray
    ineq_duals: np.ndarray
    active_set: tuple[int, ...]
    objective: float
    kkt_residual: float
    residuals: ResidualReport

    @property
    def volumes(self) -> np.ndarray:
        """Power trade block of the primal."""
        return self.primal[: self.prices.shape[0]]


@dataclass(frozen=True)
class ResponseJacobian:
    """One selection of dV/dpi with its active-set fingerprint."""

    matrix: np.ndarray
    selection_id: tuple[int, ...]
    on_boundary: bool


def _feasible_start(problem: PlayerProblem) -> np.ndarray:
    if problem.kind == "consumer":
        # spread each delivery's demand evenly over its trading times; the
        # box |V| <= v_trade holds for some split iff it holds for this one
        sizes = np.array(problem.index_map.grid.sizes)
        share = problem.eq_rhs / sizes
        vt = problem.ineq_rhs[0]
        over = np.flatnonzero(np.abs(share) > vt)
        if over.size:
            j = int(over[0])
            raise InfeasibleError(
                f"consumer {problem.name!r} has an empty feasible set: delivery {j} "
                f"needs {problem.eq_rhs[j]:g} over {sizes[j]} trading times with "
                f"v_trade {vt:g}"
            )
        return np.repeat(share, sizes)
    if not np.any(problem.eq_rhs):
        return np.zeros(problem.n_vars)  # shutting down is always feasible
    margin, x, status = _interior_margin(problem.eq_matrix, problem.eq_rhs,
                                         problem.ineq_matrix, problem.ineq_rhs)
    if margin is None or margin < 0.0:
        cause = status if margin is None else f"margin {margin:.3e}"
        raise InfeasibleError(
            f"{problem.kind} {problem.name!r} has an empty feasible set: "
            f"phase-I LP reports {cause}"
        )
    return x


def _w_rows(problem: PlayerProblem):
    kinds = ("ramp_up", "ramp_down", "cap_upper", "cap_lower")
    return [k for k, lab in enumerate(problem.ineq_labels) if lab[0] in kinds]


def _min_norm_production(problem: PlayerProblem, x: np.ndarray) -> np.ndarray:
    """Second stage: minimum-norm W on the optimal face, (V, F, O) fixed."""
    im = problem.index_map
    if im.n_w == 0:
        return x
    w_cols = np.arange(im.n_traded, im.total)
    other = np.arange(im.n_traded)
    A_sub = problem.eq_matrix[:, w_cols]
    a_sub = problem.eq_rhs - problem.eq_matrix[:, other] @ x[other]
    rows = _w_rows(problem)
    B_sub = problem.ineq_matrix[np.ix_(rows, w_cols)]
    b_sub = problem.ineq_rhs[rows]
    res = solve_qp_active_set(
        np.eye(im.n_w), np.zeros(im.n_w), A_sub, a_sub, B_sub, b_sub, x[w_cols]
    )
    out = x.copy()
    out[w_cols] = res.x
    return out


def solve_qp(problem: PlayerProblem, expected_prices, warm_start=None) -> PlayerSolution:
    """Global maximizer of the player's objective at the given prices.

    ``warm_start`` may be a previous PlayerSolution for the same problem
    (its primal stays feasible since constraints do not move with prices)
    or a bare working set of inequality rows.
    """
    prices = np.asarray(expected_prices, dtype=float)
    if not np.all(np.isfinite(prices)):
        raise ValueError("expected prices must be finite")
    g = problem.merged_linear(prices)
    if isinstance(warm_start, PlayerSolution):
        x0 = warm_start.primal.copy()
        seed = warm_start.active_set
    else:
        x0 = _feasible_start(problem)
        seed = tuple(warm_start) if warm_start else ()
    res = solve_qp_active_set(
        problem.quadratic, g, problem.eq_matrix, problem.eq_rhs,
        problem.ineq_matrix, problem.ineq_rhs, x0,
        working_set=seed,
    )
    x, mu, eta = res.x, res.eq_duals, res.ineq_duals
    if problem.kind == "producer":
        x = _min_norm_production(problem, x)
    report = _residuals(problem, g, x, mu, eta)
    slack = problem.ineq_rhs - problem.ineq_matrix @ x
    active = tuple(
        int(i) for i in range(slack.size)
        if slack[i] <= ACT_TOL * max(1.0, abs(problem.ineq_rhs[i]))
    )
    prices_ro = prices.copy()
    prices_ro.flags.writeable = False
    return PlayerSolution(
        prices=prices_ro,
        primal=x,
        eq_duals=mu,
        ineq_duals=eta,
        active_set=active,
        objective=float(-(g @ x) - 0.5 * x @ (problem.quadratic @ x)),
        kkt_residual=report.max_violation,
        residuals=report,
    )


def _residuals(problem, g, x, mu, eta) -> ResidualReport:
    grad = -g - problem.quadratic @ x
    stat = grad - problem.eq_matrix.T @ mu - problem.ineq_matrix.T @ eta
    slack = problem.ineq_matrix @ x - problem.ineq_rhs
    return ResidualReport(
        stationarity=float(np.max(np.abs(stat), initial=0.0)),
        primal_equality=float(np.max(np.abs(problem.eq_matrix @ x - problem.eq_rhs), initial=0.0)),
        primal_inequality=float(np.max(slack, initial=0.0)),
        dual_feasibility=float(max(0.0, -np.min(eta, initial=0.0))),
        complementarity=float(np.max(np.abs(eta * slack), initial=0.0)),
    )


def kkt_residual(problem: PlayerProblem, solution: PlayerSolution) -> ResidualReport:
    """Recompute the optimality residuals of a stored solution."""
    g = problem.merged_linear(solution.prices)
    return _residuals(problem, g, solution.primal, solution.eq_duals, solution.ineq_duals)


def best_response_volumes(problem: PlayerProblem, expected_prices, warm_start=None) -> np.ndarray:
    """Unique optimal power trade vector at the given expected prices."""
    return solve_qp(problem, expected_prices, warm_start=warm_start).volumes


def _strict_active(problem, solution, dual_tol):
    strict, weak = [], []
    for i in solution.active_set:
        if solution.ineq_duals[i] > dual_tol:
            strict.append(i)
        else:
            weak.append(i)
    return strict, weak


def response_jacobian(problem: PlayerProblem, solution: PlayerSolution | None = None,
                      expected_prices=None, dual_tol: float = DUAL_TOL) -> ResponseJacobian:
    """dV/dpi for the affine selection active at the query point."""
    if solution is None:
        if expected_prices is None:
            raise ValueError("need a solution or expected prices")
        solution = solve_qp(problem, expected_prices)
    n_p = problem.n_prices
    strict, weak = _strict_active(problem, solution, dual_tol)
    on_boundary = bool(weak)
    n = problem.n_vars
    C = np.vstack([problem.eq_matrix, problem.ineq_matrix[strict]])
    m = C.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = problem.quadratic
    K[:n, n:] = C.T
    K[n:, :n] = C
    rhs = np.zeros((n + m, n_p))
    rhs[:n_p, :n_p] = -np.eye(n_p)
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    resid = float(np.max(np.abs(K @ sol - rhs)))
    if resid > 1e-7:
        raise JacobianUnavailableError(
            f"sensitivity system inconsistent (residual {resid:.2e}) at a "
            "degenerate active set"
        )
    return ResponseJacobian(sol[:n_p, :], tuple(strict), on_boundary)


def finite_difference_volumes(problem: PlayerProblem, expected_prices, direction,
                              h: float = 1e-6) -> np.ndarray:
    """Central-difference directional derivative of the volume response."""
    prices = np.asarray(expected_prices, dtype=float)
    d = np.asarray(direction, dtype=float)
    up = best_response_volumes(problem, prices + h * d)
    dn = best_response_volumes(problem, prices - h * d)
    return (up - dn) / (2.0 * h)
