"""Market clearing: find expected prices at which net forward volume is zero.

The aggregate excess-volume map (sum of every player's optimal power
trades) is continuous, piecewise affine, and strictly decreasing away from
the saturation region where every plant is pinned at a production bound.
The solver exploits that: a damped price-adjustment iteration provides
global progress, a semismooth Newton step on the current affine selection
finishes the job finitely.  No algorithm is prescribed upstream of this
library; the hybrid here is cross-validated against the pure iteration and
against brute-force oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import PlayerProblem, assemble_all
from .errors import JacobianUnavailableError
from .grid import delivery_totals_matrix
from .players import PlayerSolution, response_jacobian, solve_qp
from .scenario import Scenario

__all__ = [
    "SolveOptions",
    "EquilibriumResult",
    "SaturationReport",
    "DiagnosticsReport",
    "Market",
    "excess_volume",
    "solve_equilibrium",
    "detect_saturation",
    "check_uniqueness",
    "merit_order_prices",
]


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and method selection for the equilibrium search."""

    tol: float = 1e-8
    kkt_tol: float = 1e-8
    max_iter: int = 200
    method: str = "hybrid"  # hybrid | newton | tatonnement
    initial_prices: np.ndarray | None = None

    def __post_init__(self):
        if self.tol <= 0 or self.kkt_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.method not in ("hybrid", "newton", "tatonnement"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class SaturationReport:
    """Per-delivery bound status of the whole plant fleet at given prices."""

    statuses: tuple[str, ...]           # interior | all-upper | all-lower
    clearing_sums: tuple[float, ...]    # per-delivery sum of excess volume
    sign_consistent: tuple[bool, ...]   # all-upper => sum < 0, all-lower => sum > 0

    @property
    def saturated(self) -> bool:
        return any(s != "interior" for s in self.statuses)


@dataclass(frozen=True)
class EquilibriumResult:
    prices: np.ndarray
    player_solutions: tuple[PlayerSolution, ...]
    player_names: tuple[str, ...]
    clearing_residual: float
    iterations: int
    method: str
    trace: tuple[tuple[float, ...], ...]  # (residual per iteration)
    converged: bool
    message: str
    max_kkt_residual: float
    saturation: SaturationReport | None = None
    price_bound_ok: bool = True

    def undiscounted_prices(self, grid) -> np.ndarray:
        return self.prices / grid.node_discounts()


@dataclass(frozen=True)
class DiagnosticsReport:
    """Everything the uniqueness conditions ask for, sampled or exact."""

    monotonicity_samples: tuple[tuple[np.ndarray, np.ndarray, float], ...]
    monotonicity_all_negative: bool | None
    jacobian_eigen_max: float | None
    jacobian_available: bool
    rank_condition: int | None
    rank_required: int
    rank_ok: bool | None
    strictly_feasible_plant_per_period: tuple[bool, ...]
    saturation: SaturationReport | None
    notes: tuple[str, ...] = ()


class Market:
    """Assembled player problems with warm starts and solution caching.

    Solutions are memoized per price vector, so line searches and repeated
    diagnostics at the same point cost nothing.  Each player warm-starts
    from its own previous solution.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.problems: tuple[PlayerProblem, ...] = assemble_all(scenario)
        self.names = tuple(p.name for p in self.problems)
        self._warm: list = [None] * len(self.problems)
        self._cache: dict[bytes, tuple[PlayerSolution, ...]] = {}

    @property
    def n_prices(self) -> int:
        return self.scenario.n_contracts

    def solutions(self, prices: np.ndarray) -> tuple[PlayerSolution, ...]:
        prices = np.asarray(prices, dtype=float)
        key = prices.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        sols = tuple(self._solve_one(k, prices) for k in range(len(self.problems)))
        if len(self._cache) > 512:
            self._cache.clear()
        self._cache[key] = sols
        return sols

    def _solve_one(self, k: int, prices: np.ndarray) -> PlayerSolution:
        sol = solve_qp(self.problems[k], prices, warm_start=self._warm[k])
        self._warm[k] = sol
        return sol

    def excess(self, prices: np.ndarray):
        sols = self.solutions(prices)
        z = np.zeros(self.n_prices)
        for sol in sols:
            z += sol.volumes
        return z, sols

    def aggregate_jacobian(self, sols, producers_only: bool = False):
        total = np.zeros((self.n_prices, self.n_prices))
        for problem, sol in zip(self.problems, sols):
            if producers_only and problem.kind != "producer":
                continue
            total += response_jacobian(problem, sol).matrix
        return total

    def price_box(self):
        """Per-node discounted bounds implied by the price box."""
        disc = self.scenario.grid.node_discounts()
        hi = self.scenario.bounds.pi_max * disc
        return -hi, hi


def merit_order_prices(scenario: Scenario) -> np.ndarray:
    """Marginal cost of the plant that clears demand, per delivery.

    Walking the merit-order stack up to the delivery's demand starts the
    price iteration strictly inside the region where some plant is
    dispatched but not everything is pinned; starting at the cheapest
    plant instead tends to land on the all-idle plateau where the clearing
    residual is locally flat.
    """
    grid = scenario.grid
    out = np.zeros(grid.n_contracts)
    pos = 0
    for j, m in enumerate(grid.sizes):
        e_bar = float(np.mean(scenario.exogenous.emission_forwards[j]))
        stack = []
        for producer in scenario.producers:
            for plant in producer.plants:
                g_bar = float(np.mean(scenario.exogenous.forwards_for(plant.fuel)[j]))
                mc = plant.efficiency * g_bar + scenario.fuels.intensity(plant.fuel) * e_bar
                stack.append((mc, plant.capacity))
        stack.sort()
        level = 0.0
        cum = 0.0
        for mc, cap in stack:
            level = mc
            cum += cap
            if cum >= scenario.exogenous.demand[j]:
                break
        out[pos : pos + m] = grid.discount(j) * level
        pos += m
    return out


def excess_volume(scenario: Scenario, expected_prices, market: Market | None = None) -> np.ndarray:
    """Aggregate optimal power trades at the given discounted prices."""
    market = market or Market(scenario)
    z, _ = market.excess(np.asarray(expected_prices, dtype=float))
    return z


# (delivery shift, side) that a tight production row pins, side 0 upper and
# 1 lower: ramp_up(j) reads w[j+1] - w[j] <= ramp_up, so it pins j+1 up and
# j down; ramp_down(j) reads w[j+1] - w[j] >= ramp_down, the reverse
_PINS = {
    "cap_upper": ((0, 0),),
    "cap_lower": ((0, 1),),
    "ramp_up": ((1, 0), (0, 1)),
    "ramp_down": ((0, 0), (1, 1)),
}


def _plant_bound_states(problem, solution):
    """Per delivery and plant: is production pinned at its upper/lower bound.

    Read from the solution's active set; returns two boolean arrays of shape
    (deliveries, plants), upper and lower.
    """
    im = problem.index_map
    pinned = np.zeros((2, im.n_w), dtype=bool)
    for i in solution.active_set:
        label = problem.ineq_labels[i]
        for shift, side in _PINS.get(label[0], ()):
            _, j, fuel, r = label
            pinned[side, im.w_index(j + shift, fuel, r) - im.n_traded] = True
    shape = (im.grid.n_deliveries, im.plants_per_delivery)
    return pinned[0].reshape(shape), pinned[1].reshape(shape)


def detect_saturation(scenario: Scenario, prices=None, solutions=None,
                      market: Market | None = None) -> SaturationReport:
    """Classify each delivery: interior, or every plant at the same bound.

    At an all-upper delivery the per-delivery clearing sum must be
    negative (demand sits strictly below saturated production), at an
    all-lower one positive; both signs are checked and reported.
    """
    market = market or Market(scenario)
    if solutions is None:
        if prices is None:
            raise ValueError("need prices or solutions")
        solutions = market.solutions(np.asarray(prices, dtype=float))
    nj = scenario.grid.n_deliveries
    all_upper = np.ones(nj, dtype=bool)
    all_lower = np.ones(nj, dtype=bool)
    any_plant = False
    for problem, sol in zip(market.problems, solutions):
        if problem.kind != "producer":
            continue
        any_plant = True
        upper, lower = _plant_bound_states(problem, sol)
        all_upper &= upper.all(axis=1)
        all_lower &= lower.all(axis=1)
    totals = delivery_totals_matrix(scenario.grid)
    z = np.zeros(scenario.n_contracts)
    for sol in solutions:
        z += sol.volumes
    sums = totals @ z
    statuses, consistent = [], []
    for j in range(nj):
        if not any_plant:
            statuses.append("interior")
            consistent.append(True)
        elif all_upper[j]:
            statuses.append("all-upper")
            consistent.append(bool(sums[j] < 0))
        elif all_lower[j]:
            statuses.append("all-lower")
            consistent.append(bool(sums[j] > 0))
        else:
            statuses.append("interior")
            consistent.append(True)
    return SaturationReport(tuple(statuses), tuple(float(s) for s in sums),
                            tuple(consistent))


def solve_equilibrium(scenario: Scenario, options: SolveOptions | None = None,
                      market: Market | None = None, **overrides) -> EquilibriumResult:
    """Drive the excess-volume map to zero; returns the best iterate found.

    Hybrid strategy: try the Newton step of the active affine selection
    with a backtracking residual line search; fall back to a damped
    price-adjustment step whenever the Newton step is unavailable or does
    not decrease the residual.
    """
    if options is None:
        options = SolveOptions(**overrides)
    elif overrides:
        raise ValueError("pass either options or keyword overrides, not both")
    market = market or Market(scenario)
    n = market.n_prices

    if options.initial_prices is not None:
        prices = np.asarray(options.initial_prices, dtype=float).copy()
        if prices.shape != (n,):
            raise ValueError(f"initial prices must have shape ({n},)")
    else:
        prices = merit_order_prices(scenario)

    # damped-step scale from the flattest response the consumers can show
    q1 = scenario.covariance_blocks().q1
    lam_min = float(np.linalg.eigvalsh(q1)[0])
    inv_tol_sum = sum(1.0 / p.risk_aversion for p in market.problems)
    slope = inv_tol_sum / max(lam_min, 1e-12)
    alpha = 1.0 / max(slope, 1e-12)

    box_lo, box_hi = market.price_box()
    # the box is symmetric; its full width 2 * half_width can overflow
    half_width = float(np.max(box_hi))

    z, sols = market.excess(prices)
    resid = float(np.max(np.abs(z)))
    merit = float(np.linalg.norm(z))
    best = (resid, prices.copy(), sols)
    trace = [resid]
    message = "iteration limit reached"
    converged = False
    iterations = 0

    def try_step(cand):
        cand = np.clip(cand, box_lo, box_hi)
        z_c, sols_c = market.excess(cand)
        return cand, z_c, sols_c, float(np.max(np.abs(z_c))), float(np.linalg.norm(z_c))

    for it in range(1, options.max_iter + 1):
        iterations = it
        max_kkt = max(s.kkt_residual for s in sols)
        if resid <= options.tol and max_kkt <= options.kkt_tol:
            converged = True
            message = "converged"
            break

        # line searches accept on the euclidean merit: the monotone
        # structure guarantees descent of |Z|_2 along both directions,
        # while the max-norm can sit on a plateau of a pinned delivery
        stepped = False
        if options.method in ("hybrid", "newton"):
            step = _newton_step(market, sols, z)
            if step is not None:
                scale = 0.5 * float(np.max(np.abs(step)))
                if scale > half_width:  # singular selection direction: cap the ray
                    step = step * (half_width / scale)
                t = 1.0
                for _ in range(9):
                    cand, z_c, sols_c, r_c, m_c = try_step(prices + t * step)
                    if m_c < merit * (1.0 - 1e-9) or r_c <= options.tol:
                        prices, z, sols, resid, merit = cand, z_c, sols_c, r_c, m_c
                        stepped = True
                        break
                    t *= 0.5
        if not stepped and options.method in ("hybrid", "tatonnement"):
            a = alpha
            for _ in range(40):
                cand, z_c, sols_c, r_c, m_c = try_step(prices + a * z)
                if m_c < merit * (1.0 - 1e-12) or r_c <= options.tol:
                    prices, z, sols, resid, merit = cand, z_c, sols_c, r_c, m_c
                    alpha = min(a * 1.6, 1e6 * alpha)
                    stepped = True
                    break
                a *= 0.5
        if not stepped and options.method in ("hybrid", "tatonnement"):
            # every plant pinned: the merit is locally flat; march along the
            # adjustment direction until it drops
            a = alpha
            for _ in range(60):
                a *= 2.0
                cand, z_c, sols_c, r_c, m_c = try_step(prices + a * z)
                if float(np.max(np.abs(cand - prices))) == 0.0:
                    break
                if m_c < merit * (1.0 - 1e-12):
                    prices, z, sols, resid, merit = cand, z_c, sols_c, r_c, m_c
                    stepped = True
                    break
        trace.append(resid)
        if resid < best[0]:
            best = (resid, prices.copy(), sols)
        if not stepped:
            message = "stalled: no step decreased the clearing residual"
            break

    if not converged:
        resid, prices, sols = best
    max_kkt = max(s.kkt_residual for s in sols)
    saturation = detect_saturation(scenario, solutions=sols, market=market)
    if saturation.saturated and not converged:
        message += " (price iterate inside the saturation region)"
    lo, hi = market.price_box()
    bound_ok = bool(np.all(prices > lo) and np.all(prices < hi))
    prices_ro = prices.copy()
    prices_ro.flags.writeable = False
    return EquilibriumResult(
        prices=prices_ro,
        player_solutions=sols,
        player_names=market.names,
        clearing_residual=resid,
        iterations=iterations,
        method=options.method,
        trace=tuple(trace),
        converged=converged,
        message=message,
        max_kkt_residual=max_kkt,
        saturation=saturation,
        price_bound_ok=bound_ok,
    )


def _newton_step(market: Market, sols, z):
    """Newton step of the active affine selection, restricted to its
    responsive subspace.

    At a selection boundary or deep in a pinned region the aggregate
    sensitivity is (numerically) singular; a plain solve or a tiny Tikhonov
    shift then produces astronomical steps along the flat directions.  The
    truncated eigendecomposition zeroes those components instead; progress
    along flat directions is the damped adjustment step's job.
    """
    try:
        J = market.aggregate_jacobian(sols)
    except JacobianUnavailableError:
        return None
    S = 0.5 * (J + J.T)
    w, U = np.linalg.eigh(S)
    w_max = float(np.max(np.abs(w)))
    if w_max <= 1e-11:  # no player responds to prices here at all
        return None
    cut = 1e-9 * w_max
    keep = np.abs(w) > cut
    if not np.any(keep):
        return None
    coeff = U.T @ (-z)
    coeff = np.where(keep, coeff / np.where(keep, w, 1.0), 0.0)
    step = U @ coeff
    if not np.all(np.isfinite(step)):
        return None
    return step


def check_uniqueness(scenario: Scenario, equilibrium: EquilibriumResult | None = None,
                     prices=None, n_samples: int = 64, radius_scale: float = 1e-2,
                     seed: int = 0, market: Market | None = None) -> DiagnosticsReport:
    """Run the uniqueness conditions at (or near) an equilibrium point.

    Samples pairwise monotonicity of the excess map around the point,
    reports the largest eigenvalue of the symmetrized aggregate
    sensitivity, the rank of the producers' per-delivery response (must be
    the delivery count), and whether every delivery has a plant strictly
    inside its production bounds.
    """
    market = market or Market(scenario)
    if equilibrium is not None:
        prices = equilibrium.prices
    if prices is None:
        raise ValueError("need an equilibrium or a price vector")
    prices = np.asarray(prices, dtype=float)
    sols = market.solutions(prices)
    n = market.n_prices
    rng = np.random.default_rng(seed)
    radius = radius_scale * max(1.0, float(np.max(np.abs(prices))))

    samples = []
    notes = []
    attempts = 0
    while len(samples) < n_samples and attempts < 20 * n_samples:
        attempts += 1
        x = prices + radius * rng.standard_normal(n)
        y = prices + radius * rng.standard_normal(n)
        if float(np.max(np.abs(x - y))) < 1e-12:
            continue
        if detect_saturation(scenario, prices=x, market=market).saturated:
            continue
        if detect_saturation(scenario, prices=y, market=market).saturated:
            continue
        zx, _ = market.excess(x)
        zy, _ = market.excess(y)
        samples.append((x, y, float((zx - zy) @ (x - y))))
    if len(samples) < n_samples:
        notes.append(f"only {len(samples)} off-saturation pairs found in {attempts} draws")
    all_neg = all(ip < 0 for _, _, ip in samples) if samples else None

    try:
        J = market.aggregate_jacobian(sols)
        eig_max = float(np.linalg.eigvalsh(0.5 * (J + J.T))[-1])
        available = True
    except JacobianUnavailableError as exc:
        J, eig_max, available = None, None, False
        notes.append(f"aggregate sensitivity unavailable: {exc}")

    required = scenario.grid.n_deliveries
    rank = None
    rank_ok = None
    if available:
        a1 = delivery_totals_matrix(scenario.grid)
        try:
            Jp = market.aggregate_jacobian(sols, producers_only=True)
            S = a1 @ Jp @ a1.T
            sv = np.linalg.svd(S, compute_uv=False)
            cut = max(S.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
            cut = max(cut, 1e-10 * (sv[0] if sv.size else 0.0), 1e-14)
            rank = int(np.sum(sv > cut))
            rank_ok = rank == required
        except JacobianUnavailableError as exc:
            notes.append(f"producer sensitivity unavailable: {exc}")

    strict = np.zeros(scenario.grid.n_deliveries, dtype=bool)
    for problem, sol in zip(market.problems, sols):
        if problem.kind != "producer":
            continue
        upper, lower = _plant_bound_states(problem, sol)
        strict |= (~upper & ~lower).any(axis=1)

    sat = detect_saturation(scenario, solutions=sols, market=market)
    return DiagnosticsReport(
        monotonicity_samples=tuple(samples),
        monotonicity_all_negative=all_neg,
        jacobian_eigen_max=eig_max,
        jacobian_available=available,
        rank_condition=rank,
        rank_required=required,
        rank_ok=rank_ok,
        strictly_feasible_plant_per_period=tuple(strict.tolist()),
        saturation=sat,
        notes=tuple(notes),
    )
