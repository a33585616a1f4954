"""Market clearing: find expected prices at which net forward volume is zero.

Prices enter every player's QP only through -pi'V.  So the players' optimal
values add up to the welfare potential Phi(pi) = sum_k objective_k(pi),
convex and piecewise quadratic, with gradient -Z, where Z is the aggregate
excess-volume map (the sum of every player's optimal power trades), and
Hessian -J on each affine selection of Z.  The equilibrium is the minimizer
of Phi over the price box (Samuelson, AER 1952; Pang & Qi, JOTA 1995).  The
solver descends Phi: the truncated Newton step of the current selection
finishes finitely, and a projected gradient step along Z crosses the
plateaus where every plant is pinned and the clearing residual is flat.
Tests check the prices against the joint welfare QP and brute-force oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .assembly import PlayerProblem, assemble_all
from .grid import delivery_totals_matrix
from .players import (PlayerSolution, ResponseJacobian, response_jacobian, solve_fleet, solve_qp,
                      solve_qp_many)
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

# relative roundoff of Phi = sum of objectives: a smaller decrease is no decrease
PHI_ROUNDOFF = 64 * np.finfo(float).eps
ARMIJO = 1e-4  # sufficient-decrease fraction of the first-order prediction
RADIUS_SCALE = 1e-2  # check_uniqueness draws at this fraction of max(1, |pi|)


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances, iteration budget and start of the equilibrium search."""

    tol: float = 1e-8
    kkt_tol: float = 1e-8
    max_iter: int = 200
    initial_prices: np.ndarray | None = None

    def __post_init__(self):
        if not (0.0 < self.tol < np.inf and 0.0 < self.kkt_tol < np.inf):
            raise ValueError("tolerances must be finite and positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


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
    trace: tuple[float, ...]             # residual per iteration
    converged: bool
    message: str
    max_kkt_residual: float
    saturation: SaturationReport | None = None
    price_bound_ok: bool = True
    # the final point's record, and the market whose memo it is
    selection: Selection | None = field(default=None, repr=False, compare=False)
    market: Market | None = field(default=None, repr=False, compare=False)

    def undiscounted_prices(self, grid) -> np.ndarray:
        return self.prices / grid.node_discounts()


@dataclass(frozen=True)
class DiagnosticsReport:
    """Everything the uniqueness conditions ask for, sampled or exact."""

    monotonicity_samples: tuple[tuple[np.ndarray, np.ndarray, float], ...]
    monotonicity_all_negative: bool | None
    jacobian_eigen_max: float
    jacobian_available: bool      # always True: every selection has a sensitivity
    rank_condition: int
    rank_required: int
    rank_ok: bool
    strictly_feasible_plant_per_period: tuple[bool, ...]
    saturation: SaturationReport | None
    notes: tuple[str, ...] = ()


class Selection:
    """One evaluated price point (prices, player solutions, Z) and what the
    step rule, saturation and diagnostics read of its affine selection, each
    built on first read and kept.  It holds the scenario and problems, not
    their ``Market``, so the market's memo keeps it without a cycle."""

    def __init__(self, scenario, problems, prices, sols, z):
        self.scenario, self.problems = scenario, problems
        self.prices, self.sols, self.z = prices, sols, z

    @cached_property
    def resid(self) -> float:
        """The clearing residual max |Z|."""
        return float(np.max(np.abs(self.z)))

    @cached_property
    def potential(self) -> tuple[float, float]:
        """The welfare potential Phi, summed in player order, and its roundoff."""
        objectives = [s.objective for s in self.sols]
        return sum(objectives), PHI_ROUNDOFF * sum(abs(v) for v in objectives)

    @cached_property
    def jacobians(self) -> tuple[ResponseJacobian, ...]:
        """Each player's response dV/dpi at its own selection."""
        return tuple(map(response_jacobian, self.problems, self.sols))

    @cached_property
    def jacobian(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The aggregate sensitivity J = dZ/dpi, its producers' part, both
        summed in player order, and the symmetric part of J."""
        matrices = [jac.matrix for jac in self.jacobians]
        producers = len(self.scenario.producers)  # they lead the player order
        Jp = sum(matrices[:producers], np.zeros((self.z.size,) * 2))
        J = sum(matrices[producers:], Jp)
        return J, Jp, 0.5 * (J + J.T)

    @cached_property
    def bound_states(self) -> np.ndarray:
        """(2, deliveries, plants): is each plant at its upper bound, at its lower."""
        return _fleet_bound_states(self, [self.sols])[0]

    @cached_property
    def saturation(self) -> SaturationReport:
        """Each delivery interior, or every plant at the same bound.

        At an all-upper delivery the per-delivery clearing sum must be
        negative (demand sits strictly below saturated production), at an
        all-lower one positive; both signs are checked and reported.
        """
        sums = (_totals(self.scenario) @ self.z).tolist()
        states = self.bound_states  # a fleet without plants is at no bound
        rows = list(zip(*(states.all(axis=-1) & (states.shape[-1] > 0)).tolist(), sums))
        return SaturationReport(
            tuple("all-upper" if up else "all-lower" if lo else "interior" for up, lo, _ in rows),
            tuple(sums), tuple(s < 0 if up else s > 0 if lo else True for up, lo, s in rows))


class Market:
    """Assembled player problems with warm starts and a memo of the last point.

    Each player warm-starts from its own previous solution, so the memo is
    the warm start of every player: asking again for the last price vector
    (saturation detection, then the excess at the same point) solves
    nothing.  The memo keeps Z, summed once in player order, next to the
    solutions, and the point's ``Selection`` once a reader asks.  Any other
    point is solved afresh: first by one stacked pass over the whole fleet
    from its held selection (``players.solve_fleet``), then, player by
    player, wherever that pass did not serve.  ``excess_many`` evaluates a
    batch of points, each from the memo point, and leaves the memo as it was.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.problems: tuple[PlayerProblem, ...] = assemble_all(scenario)
        self.names = tuple(p.name for p in self.problems)
        self._last: list | None = None  # [key, solutions, Z, Selection or None]

    @property
    def n_prices(self) -> int:
        return self.scenario.n_contracts

    def _solve(self, prices, alone):
        """Each player's solutions at the columns of ``prices`` (prices x
        points) from its warm start: the fleet step's, or ``alone``'s for a
        player that step does not serve."""
        warm = (None,) * len(self.problems) if self._last is None else self._last[1]
        fleet = solve_fleet(self.problems, prices, warm, self.scenario._derived)
        return [sols if sols is not None else alone(problem, w)
                for problem, w, sols in zip(self.problems, warm, fleet)]

    def solutions(self, prices: np.ndarray) -> tuple[PlayerSolution, ...]:
        prices = np.asarray(prices, dtype=float)
        key, last = prices.tobytes(), self._last
        if last is not None and last[0] == key:
            return last[1]
        column = prices.reshape(prices.shape + (1,))
        sols = tuple(s[0] for s in self._solve(
            column, lambda problem, w: (solve_qp(problem, prices, warm_start=w),)))
        z = sum((sol.volumes for sol in sols), np.zeros(self.n_prices))
        z.flags.writeable = False
        self._last = [key, sols, z, None]
        return sols

    def excess(self, prices: np.ndarray):
        """Z at ``prices`` (read-only) and the player solutions, from the memo."""
        sols = self.solutions(prices)
        return self._last[2], sols

    def selection(self, prices: np.ndarray) -> Selection:
        """The record of ``prices``, made from the memo on first request and kept there."""
        self.solutions(prices)
        last = self._last
        if last[3] is None:
            last[3] = Selection(self.scenario, self.problems, np.asarray(prices, float), *last[1:3])
        return last[3]

    def excess_many(self, prices: np.ndarray):
        """Excess volumes at every column of ``prices`` (prices x points), as
        the same matrix shape, and each column's player solutions.

        Every column warm-starts from the memo point, and the memo is left
        in place, so no column depends on another or on their order.
        """
        prices = np.asarray(prices, dtype=float)
        per_player = self._solve(
            prices, lambda problem, w: solve_qp_many(problem, prices, warm_start=w))
        m = prices.shape[1]
        z = np.zeros((m, self.n_prices))
        for sols in per_player:
            z += np.array([sol.volumes for sol in sols]).reshape(z.shape)
        return z.T, tuple(tuple(sols[c] for sols in per_player) for c in range(m))

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
    caps = [plant.capacity for producer in scenario.producers for plant in producer.plants]
    out = np.zeros(grid.n_contracts)
    for j, (block, costs) in enumerate(zip(grid.slices, scenario.marginal_costs())):
        level = 0.0
        cum = 0.0
        for mc, cap in sorted(zip(costs.tolist(), caps)):
            level = mc
            cum += cap
            if cum >= scenario.exogenous.demand[j]:
                break
        out[block] = grid.discount(j) * level
    return out


def excess_volume(scenario: Scenario, expected_prices) -> np.ndarray:
    """Aggregate optimal power trades at the given discounted prices."""
    return Market(scenario).excess(expected_prices)[0]


def _fleet_bound_states(owner, columns) -> np.ndarray:
    """Per column (one solution per player), delivery and plant of the whole
    fleet, producers in order: is production at its upper bound and at its
    lower; one boolean array (columns, 2, deliveries, plants).  ``owner``
    holds the scenario and its problems: a ``Market`` or a ``Selection``.

    Only an active capacity row pins: a tight ramp row ties two deliveries'
    production to each other, not to a bound.  Each producer's solution
    (producers lead the player order) flags its active rows in its own span
    of one array, read in one assignment and one gather.
    """
    cache = owner.scenario._derived
    if "fleet" not in cache:
        span = max(p.ineq_rhs.size for p in owner.problems)
        nd = owner.scenario.grid.n_deliveries
        cache["fleet"] = span, np.concatenate(
            [p.capacity_rows().reshape(2, nd, -1) + k * span
             for k, p in enumerate(owner.problems)], axis=2)
    span, table = cache["fleet"]
    n = len(owner.scenario.producers)
    sets = [sol.active_set for sols in columns for sol in sols[:n]]
    active = np.zeros(len(sets) * span, dtype=bool)
    active[np.repeat(np.arange(0, active.size, span), list(map(len, sets)))
           + np.fromiter(chain.from_iterable(sets), np.intp)] = True
    return active.reshape(len(columns), n * span)[:, table]


def _totals(scenario: Scenario) -> np.ndarray:
    """``delivery_totals_matrix`` of the scenario's grid, built once per
    scenario and kept read-only."""
    cache = scenario._derived
    if "totals" not in cache:
        totals = delivery_totals_matrix(scenario.grid)
        totals.flags.writeable = False
        cache["totals"] = totals
    return cache["totals"]


def detect_saturation(scenario: Scenario, prices=None, solutions=None,
                      market: Market | None = None) -> SaturationReport:
    """Classify each delivery at ``prices`` or of ``solutions`` (one per player):
    interior, or every plant at the same bound (``Selection.saturation``)."""
    if (prices is None) == (solutions is None):
        raise ValueError("pass exactly one of prices and solutions")
    market = market or Market(scenario)
    if solutions is None:
        return market.selection(prices).saturation
    z = sum((sol.volumes for sol in solutions), np.zeros(scenario.n_contracts))
    return Selection(scenario, market.problems, None, solutions, z).saturation


def solve_equilibrium(scenario: Scenario, options: SolveOptions | None = None,
                      market: Market | None = None, **overrides) -> EquilibriumResult:
    """Minimize the welfare potential Phi over the price box; returns the last iterate.

    Each iteration tries the truncated Newton step of the current affine
    selection, backtracking until Phi meets the Armijo condition.  When that
    step is unavailable, predicts no decrease above the roundoff of Phi, or
    backtracks below it, one projected gradient step pi + aZ is taken,
    backtracked the same way.  Its length a starts at 1/curvature of the
    selection and doubles after each accepted gradient step.  A trial lands
    when it decreases Phi by more than its roundoff or clears within
    ``tol``; an iteration where nothing lands stalls the solve.
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

    box_lo, box_hi = market.price_box()
    # the box is symmetric; its full width 2 * half_width can overflow
    half_width = float(np.max(box_hi))

    def search(start: Selection, direction, t):
        """First trial along ``direction``, from length ``t`` down, that
        lands, with its length; None when Phi cannot drop measurably."""
        phi, noise = start.potential
        while True:
            trial = market.selection(np.clip(start.prices + t * direction, box_lo, box_hi))
            linear = float(start.z @ (trial.prices - start.prices))  # first-order drop
            drop = phi - trial.potential[0]
            if trial.resid <= options.tol or (drop > noise and drop >= ARMIJO * linear):
                return trial, t
            if linear <= noise:  # convexity: drop <= linear for every shorter step
                return None, t
            t *= _secant_shrink(linear, drop)

    cur = market.selection(prices)
    trace = [cur.resid]
    message = "iteration limit reached"
    converged = False
    iterations = 0
    grad_len = None

    for it in range(1, options.max_iter + 1):
        iterations = it
        if cur.resid <= options.tol and max(s.kkt_residual for s in cur.sols) <= options.kkt_tol:
            converged = True
            message = "converged"
            break

        step, curvature = _newton_step(cur)
        landed = None
        if step is not None:
            scale = 0.5 * float(np.max(np.abs(step)))
            if scale > half_width:  # singular selection direction: cap the ray
                step = step * (half_width / scale)
            if float(cur.z @ step) > cur.potential[1]:
                landed, _ = search(cur, step, 1.0)
        if landed is None and cur.resid > 0.0:
            cap = half_width / cur.resid  # takes a price from the centre to the box edge
            if grad_len is None:
                # a flat selection has no curvature: move prices by their own size
                size = float(np.max(np.abs(cur.prices))) or half_width
                grad_len = 1.0 / curvature if curvature else size / cur.resid
            landed, grad_len = search(cur, cur.z, min(grad_len, cap))
            grad_len *= 2.0
        if landed is None:
            trace.append(cur.resid)
            message = "stalled: no step decreased the welfare potential measurably"
            break
        cur = landed
        trace.append(cur.resid)

    if cur.saturation.saturated and not converged:
        message += " (price iterate inside the saturation region)"
    # the memo is the answer, so diagnostics on this market start from it
    market._last = [cur.prices.tobytes(), cur.sols, cur.z, cur]
    bound_ok = bool(np.all(cur.prices > box_lo) and np.all(cur.prices < box_hi))
    prices_ro = cur.prices.copy()
    prices_ro.flags.writeable = False
    return EquilibriumResult(
        prices=prices_ro,
        player_solutions=cur.sols,
        player_names=market.names,
        clearing_residual=cur.resid,
        iterations=iterations,
        trace=tuple(trace),
        converged=converged,
        message=message,
        max_kkt_residual=max(s.kkt_residual for s in cur.sols),
        saturation=cur.saturation,
        price_bound_ok=bound_ok,
        selection=cur,
        market=market,
    )


def _secant_shrink(linear, drop):
    """Backtracking factor: the minimizer of the quadratic through Phi, its
    slope and the rejected trial, clamped to [0.1, 0.5]."""
    bend = linear - drop
    if bend <= 0.0:
        return 0.5
    return min(0.5, max(0.1, 0.5 * linear / bend))


def _newton_step(sel: Selection):
    """Newton step of the active affine selection, restricted to its
    responsive subspace, and the selection's curvature.

    The curvature is the largest |eigenvalue| of the symmetrized aggregate
    sensitivity, None when no player responds to prices.  At a selection
    boundary or deep in a pinned region the sensitivity is (numerically)
    singular; a plain solve or a tiny Tikhonov shift then produces
    astronomical steps along the flat directions.  The truncated
    eigendecomposition zeroes those components instead; progress along flat
    directions is the gradient step's job.
    """
    w, U = np.linalg.eigh(sel.jacobian[2])
    w_max = float(np.max(np.abs(w)))
    if w_max <= 1e-11:  # no player responds to prices here at all
        return None, None
    keep = np.abs(w) > 1e-9 * w_max
    coeff = U.T @ (-sel.z)
    step = U @ np.where(keep, coeff / np.where(keep, w, 1.0), 0.0)
    if not np.all(np.isfinite(step)):
        return None, w_max
    return step, w_max


def check_uniqueness(scenario: Scenario, equilibrium: EquilibriumResult | None = None,
                     prices=None, n_samples: int = 64, seed: int = 0,
                     market: Market | None = None) -> DiagnosticsReport:
    """Run the uniqueness conditions at (or near) an equilibrium point.

    Samples pairwise monotonicity of the excess map around the point,
    reports the largest eigenvalue of the symmetrized aggregate
    sensitivity, the rank of the producers' per-delivery response (must be
    the delivery count), and whether every delivery has a plant strictly
    inside its production bounds.  An equilibrium's point is read from the
    solve's market when no market is given and that one is the scenario's.
    """
    if (equilibrium is None) == (prices is None):
        raise ValueError("pass exactly one of equilibrium and prices")
    if equilibrium is not None:
        prices = equilibrium.prices
        if market is None and getattr(equilibrium.market, "scenario", None) is scenario:
            market = equilibrium.market
    market = market or Market(scenario)
    sel = market.selection(prices)
    n = market.n_prices
    rng = np.random.default_rng(seed)
    radius = RADIUS_SCALE * max(1.0, float(np.max(np.abs(sel.prices))))

    samples = []
    notes = []
    attempts, cap = 0, 20 * n_samples
    while len(samples) < n_samples and attempts < cap:
        # a (k, 2, n) draw is k successive (x, y) draws of the stream
        k = min(n_samples - len(samples), cap - attempts)
        pairs = sel.prices + radius * rng.standard_normal((k, 2, n))
        z, point_sols = market.excess_many(pairs.reshape(2 * k, n).T)
        states = _fleet_bound_states(market, point_sols)
        saturated = (states.all(axis=-1) & (states.shape[-1] > 0)).any(axis=(1, 2))
        for i, (x, y) in enumerate(pairs):
            attempts += 1
            if saturated[2 * i] or saturated[2 * i + 1]:
                continue
            samples.append((x, y, float((z[:, 2 * i] - z[:, 2 * i + 1]) @ (x - y))))
    if len(samples) < n_samples:
        notes.append(f"only {len(samples)} off-saturation pairs found in {attempts} draws")
    all_neg = all(ip < 0 for _, _, ip in samples) if samples else None

    required = scenario.grid.n_deliveries
    _, Jp, symmetric = sel.jacobian
    eig_max = float(np.linalg.eigvalsh(symmetric)[-1])
    a1 = _totals(scenario)
    S = a1 @ Jp @ a1.T
    sv = np.linalg.svd(S, compute_uv=False)
    top = sv[0] if sv.size else 0.0
    cut = max(max(S.shape) * np.finfo(float).eps * top, 1e-10 * top, 1e-14)
    rank = int(np.sum(sv > cut))

    upper, lower = sel.bound_states
    strict = (~upper & ~lower).any(axis=-1)

    return DiagnosticsReport(
        monotonicity_samples=tuple(samples),
        monotonicity_all_negative=all_neg,
        jacobian_eigen_max=eig_max,
        jacobian_available=True,
        rank_condition=rank,
        rank_required=required,
        rank_ok=rank == required,
        strictly_feasible_plant_per_period=tuple(strict.tolist()),
        saturation=sel.saturation,
        notes=tuple(notes),
    )
