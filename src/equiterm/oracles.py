"""Independent reference solutions used to cross-check the general solver.

Three routes that never touch the equilibrium solver:

* a closed-form relation between the two expected prices of a one-delivery,
  two-trading-time market (risk premium = total cost covariance with the
  delivery-time price divided by the market's aggregate risk tolerance),
* the expectation-only (no variance penalty) equilibrium, read per delivery
  off the exact merit-order supply step function,
* a nested bisection of the excess map for tiny markets (N <= 3), which
  shares only the per-player best responses with the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assembly import PlayerProblem
from .equilibrium import EquilibriumResult, Market
from .errors import EquitermError, ScenarioError
from .grid import delivery_totals_matrix
from .players import PlayerSolution, solve_qp
from .scenario import Scenario

__all__ = [
    "TwoStageParams",
    "two_stage_price",
    "two_stage_check",
    "producer_solution_with_fixed_totals",
    "MeanMaxResult",
    "DeliveryMeanMax",
    "mean_max_equilibrium",
    "GridSpec",
    "BruteForceResult",
    "brute_force_equilibrium",
]


# ---------------------------------------------------------------------------
# two-stage closed form


@dataclass(frozen=True)
class TwoStageParams:
    """Inputs of the two-stage price relation.

    ``cost_covariances[p]`` is the covariance, seen from the first trading
    time, between the delivery-time power price and producer p's realized
    fuel-plus-emission procurement cost at fixed total volume;
    ``retail`` is the demand-share-weighted sum of retail prices.
    """

    expected_t2_price: float
    lambdas: tuple[float, ...]
    cost_covariances: tuple[float, ...]
    demand_covariance: float = 0.0
    retail: float = 0.0

    def __post_init__(self):
        if not self.lambdas:
            raise ScenarioError("need at least one risk aversion")
        for lam in self.lambdas:
            if not math.isfinite(lam) or lam <= 0:
                raise ScenarioError("risk aversions must be finite and positive")
        for v in (self.expected_t2_price, self.demand_covariance, self.retail,
                  *self.cost_covariances):
            if not math.isfinite(v):
                raise ScenarioError("two-stage parameters must be finite")


def two_stage_price(params: TwoStageParams) -> float:
    """First trading-time price implied by clearing at the second one.

    price(t1) = E[price(t2)] + (sum_p cost_cov_p - retail * demand_cov) / T,
    with T = sum_k 1/lambda_k the aggregate risk tolerance.  The premium
    vanishes as any player turns risk neutral.
    """
    tolerance = sum(1.0 / lam for lam in params.lambdas)
    premium = (sum(params.cost_covariances)
               - params.retail * params.demand_covariance) / tolerance
    return params.expected_t2_price + premium


@dataclass(frozen=True)
class TwoStageCheck:
    params: TwoStageParams
    predicted_t1: float
    solver_t1: float

    @property
    def rel_error(self) -> float:
        scale = max(1.0, abs(self.solver_t1))
        return abs(self.predicted_t1 - self.solver_t1) / scale


def two_stage_check(scenario: Scenario, result: EquilibriumResult) -> TwoStageCheck:
    """Compare a solved two-trading-time equilibrium against the closed form.

    Works in discounted units throughout (the relation is exact there);
    cost covariances are read off the covariance blocks at the producers'
    realized fuel and emission positions.
    """
    grid = scenario.grid
    if grid.n_deliveries != 1 or grid.sizes != (2,):
        raise ScenarioError("two-stage check needs one delivery with two trading times")
    # covariance of the discounted t2 power price with the discounted cost
    row = scenario.covariance_blocks().q2[1]
    cost_covs = []
    for sol in result.player_solutions[: len(scenario.producers)]:
        im = sol.problem.index_map
        f_block = sol.primal[im.n_v : im.n_v + im.n_f]
        o_block = sol.primal[im.n_v + im.n_f : im.n_traded]
        cost_covs.append(float(row[: im.n_f] @ f_block + row[im.n_f :] @ o_block))

    lambdas = tuple(p.risk_aversion for p in scenario.producers) + tuple(
        c.risk_aversion for c in scenario.consumers
    )
    retail = sum(c.retail_price * c.demand_share for c in scenario.consumers)
    params = TwoStageParams(
        expected_t2_price=float(result.prices[1]),
        lambdas=lambdas,
        cost_covariances=tuple(cost_covs),
        demand_covariance=0.0,  # demand is deterministic in this model
        retail=retail,
    )
    return TwoStageCheck(params, two_stage_price(params), float(result.prices[0]))


def producer_solution_with_fixed_totals(problem: PlayerProblem, expected_prices,
                                        volume_totals) -> PlayerSolution:
    """Producer optimum with the per-delivery power totals pinned.

    Realizes the procurement-cost functional at a given committed volume:
    the producer still chooses the trade split, fuel and emission strategy,
    and dispatch, subject to sum_i V(t_i, T_j) = volume_totals[j].
    """
    grid = problem.index_map.grid
    totals = np.asarray(volume_totals, dtype=float)
    if totals.shape != (grid.n_deliveries,):
        raise ScenarioError("one volume total per delivery required")
    extra = np.zeros((grid.n_deliveries, problem.n_vars))
    extra[:, : grid.n_contracts] = delivery_totals_matrix(grid)
    restricted = replace(
        problem,
        eq_matrix=np.vstack([problem.eq_matrix, extra]),
        eq_rhs=np.concatenate([problem.eq_rhs, totals]),
        eq_labels=problem.eq_labels + tuple(("volume_total", j) for j in range(grid.n_deliveries)),
    )
    return solve_qp(restricted, expected_prices)


# ---------------------------------------------------------------------------
# expectation-only (mean maximization) equilibrium


@dataclass(frozen=True)
class DeliveryMeanMax:
    delivery: int
    price: float                         # representative undiscounted level
    volume: float
    kind: str                            # "volume-interval" | "price-interval"
    price_interval: tuple[float, float]
    volume_interval: tuple[float, float]


@dataclass(frozen=True)
class MeanMaxResult:
    prices: np.ndarray                   # discounted canonical (N,)
    deliveries: tuple[DeliveryMeanMax, ...]
    intra_delivery_spread: float
    converged: bool
    message: str
    notes: tuple[str, ...] = ()


def mean_max_equilibrium(scenario: Scenario) -> MeanMaxResult:
    """Clearing prices when every player maximizes expectation only.

    Supply per delivery is the merit-order step function of undiscounted
    marginal cost (fuel burn plus emission charge); demand is the inelastic
    total.  The stack is walked once, level by level: demand strictly inside
    a level pins the price at that level's marginal cost but leaves the
    level's dispatch free (volume interval); demand at a stack edge (within
    a relative 1e-9) leaves a whole price interval.  The levels partition
    the producible range (0, total], so every admitted demand is classified.
    """
    grid = scenario.grid
    notes = []

    # expectation-only trading runs to the boxes unless same-delivery fuel
    # quotes and all discounted emission quotes are flat
    for fuel in scenario.fuel_names:
        for j in range(grid.n_deliveries):
            row = scenario.exogenous.forwards_for(fuel)[j]
            if max(row) - min(row) > 1e-12 * max(1.0, abs(row[0])):
                return MeanMaxResult(
                    np.zeros(grid.n_contracts), (), 0.0, False,
                    f"expected {fuel} quotes vary within delivery {j}: the "
                    "expectation-only market rides its trading boxes", tuple(notes))
    gem_disc = [grid.discount(j) * v
                for j in range(grid.n_deliveries)
                for v in scenario.exogenous.emission_forwards[j]]
    if max(gem_disc) - min(gem_disc) > 1e-12 * max(1.0, abs(gem_disc[0])):
        return MeanMaxResult(
            np.zeros(grid.n_contracts), (), 0.0, False,
            "discounted emission quotes vary across the horizon: the "
            "expectation-only market rides its trading boxes", tuple(notes))

    if grid.n_deliveries > 1:
        tight = any(
            pl.ramp_up < pl.capacity or -pl.ramp_down < pl.capacity
            for p in scenario.producers for pl in p.plants
        )
        if tight:
            notes.append("ramp limits below capacity: deliveries treated "
                         "independently, result is an outer approximation")

    out = []
    prices = np.zeros(grid.n_contracts)
    pi_max = scenario.bounds.pi_max
    for j in range(grid.n_deliveries):
        e_bar = scenario.exogenous.emission_forwards[j][0]
        raw_costs = []
        for producer in scenario.producers:
            for plant in producer.plants:
                g_bar = scenario.exogenous.forwards_for(plant.fuel)[j][0]
                mc = plant.efficiency * g_bar + scenario.fuels.intensity(plant.fuel) * e_bar
                raw_costs.append((mc, plant.capacity))
        raw_costs.sort()
        # merge ties into stack levels
        levels: list[tuple[float, float]] = []
        for mc, cap in raw_costs:
            if levels and abs(mc - levels[-1][0]) <= 1e-12 * max(1.0, abs(mc)):
                levels[-1] = (levels[-1][0], levels[-1][1] + cap)
            else:
                levels.append((mc, cap))
        D = scenario.exogenous.demand[j]
        total = sum(cap for _, cap in levels)
        if not levels or D <= 0.0 or D > total + 1e-12 * max(1.0, total):
            return MeanMaxResult(
                np.zeros(grid.n_contracts), tuple(out), 0.0, False,
                f"delivery {j}: demand {D} outside the producible range (0, {total}]",
                tuple(notes))
        cum = 0.0
        for idx, (mc, cap) in enumerate(levels):
            tie = 1e-9 * max(1.0, abs(cum + cap), abs(D))
            if abs(D - (cum + cap)) <= tie:
                upper = levels[idx + 1][0] if idx + 1 < len(levels) else pi_max
                detail = DeliveryMeanMax(
                    delivery=j,
                    price=0.5 * (mc + upper),
                    volume=D,
                    kind="price-interval",
                    price_interval=(mc, upper),
                    volume_interval=(D, D),
                )
                break
            if cum < D < cum + cap:
                detail = DeliveryMeanMax(
                    delivery=j,
                    price=mc,
                    volume=D,
                    kind="volume-interval",
                    price_interval=(mc, mc),
                    volume_interval=(cum, cum + cap),
                )
                break
            cum += cap
        out.append(detail)
        prices[grid.slices[j]] = grid.discount(j) * detail.price

    spread = max(float(prices[b].max() - prices[b].min()) for b in grid.slices)
    return MeanMaxResult(prices, tuple(out), spread, True, "ok", tuple(notes))


# ---------------------------------------------------------------------------
# brute-force oracle: nested bisection


@dataclass(frozen=True)
class GridSpec:
    step: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.step < np.inf:
            raise ValueError("step must be finite and positive")


@dataclass(frozen=True)
class BruteForceResult:
    prices: np.ndarray
    residual: float
    step: float                          # the grid step, at least the box edge's float spacing
    evaluations: int                     # excess-map evaluations
    levels: int                          # nested bisection levels, one per contract


def _bisect_root(f, lo, hi, tol, start=None, step=0.0):
    """Root of a non-increasing scalar map on [lo, hi] by bisection in a bracket walked
    from ``start`` by steps doubling from max(tol, step) (from lo, one box-wide step).
    ``tol`` is at least the float spacing at the box edge: a bracket that narrow
    may have no float inside, and its midpoint is then one of its ends."""
    tol = max(tol, math.ulp(max(-lo, hi)))
    start, step = (lo, hi - lo) if start is None else (start, max(tol, step))
    up = f(start) >= 0.0  # the root lies above start
    edge = hi if up else lo
    while start != edge:
        far = min(start + step, hi) if up else max(start - step, lo)
        if (f(far) >= 0.0) != up:
            break
        start, step = far, 2.0 * step
    else:
        return edge
    lo, hi = sorted((start, far))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_force_equilibrium(scenario: Scenario, grid_spec: GridSpec | None = None,
                            market: Market | None = None) -> BruteForceResult:
    """Nested bisection of the excess map for tiny markets; shares only the
    per-player best responses with the main solver.

    Z = -grad Phi for the convex welfare potential Phi (see
    ``equilibrium``).  Minimizing Phi over the later prices in their box
    leaves a convex function of the earlier ones, so each reduced component
    is non-increasing in its own price and plain bisection brackets its
    root.  The last component is zeroed in the last price, the reduced
    second-to-last component in its price, and so on outward, one level per
    contract.  Each level's bracket is walked from its previous root, first
    by half its previous move (at least the tolerance).  The outermost
    level stops at half a grid step, the inner ones at a hundredth, each
    at least the float spacing of its box edge (``_bisect_root``).  So the
    answer lies within one reported step of the true equilibrium: the grid
    step, or the float spacing of the widest box edge where that is larger.
    """
    spec = grid_spec or GridSpec()
    market = market or Market(scenario)
    n = market.n_prices
    if n > 3:
        raise EquitermError(f"brute force limited to 3 contracts, got {n}")
    lo, hi = market.price_box()
    count = 0
    roots = [None] * n
    moves = [0.0] * n  # each level's last root move, half of which starts its next walk

    def z_at(p):
        nonlocal count
        count += 1
        z, _ = market.excess(np.asarray(p, dtype=float))
        return z

    def completion(prefix):
        """``prefix`` extended by the later prices that zero the later components."""
        k = len(prefix)
        if k == n:
            return prefix

        def reduced(p):
            return float(z_at(completion(prefix + [p]))[k])

        tol = 0.5 * spec.step if k == 0 else 0.01 * spec.step
        last = roots[k]
        roots[k] = _bisect_root(reduced, lo[k], hi[k], tol, last, 0.5 * moves[k])
        moves[k] = 0.0 if last is None else abs(roots[k] - last)
        return completion(prefix + [roots[k]])

    price = np.array(completion([]))
    resid = float(np.max(np.abs(z_at(price))))
    spacing = math.ulp(float(np.max(np.maximum(-lo, hi))))
    return BruteForceResult(price, resid, max(spec.step, spacing), count, n)
