"""Assembly of each player's quadratic program in canonical matrix form.

Producer variables are [V | F | O | W]: power trades, fuel trades, emission
trades, production.  Equality rows, in order: one volume balance per
delivery (all power sold is produced), one fuel balance per (fuel,
delivery) pair (fuel bought covers the burn), one emission row for the
whole horizon.  Consumers carry only V with one demand row per delivery.

Expected fuel and emission quotes enter the linear term discounted by
e^{-r T_j}; the power slots stay zero and are filled per query with the
candidate expected power prices, discounted likewise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError
from .grid import IndexMap, canonical_index, delivery_totals_matrix
from .scenario import Consumer, Producer, Scenario

__all__ = ["PlayerProblem", "assemble_producer", "assemble_consumer", "assemble_all"]


@dataclass(frozen=True)
class PlayerProblem:
    """One player's concave QP: max -g'v - v'Qv/2 s.t. Av = a, Bv <= b.

    ``quadratic`` is the risk-aversion-scaled covariance (zero on the W
    block), ``linear`` the expected discounted price vector with zeroed
    power slots.  Row labels name every constraint for tests and reports.
    ``cov_inverse`` is the inverse of the unscaled covariance of the traded
    block, one array shared by every player of a scenario (None when its
    Cholesky factorization fails, which leaves only the full QP).
    """

    kind: str
    name: str
    quadratic: np.ndarray
    linear: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray
    index_map: IndexMap
    eq_labels: tuple[tuple, ...]
    ineq_labels: tuple[tuple, ...]
    risk_aversion: float
    cov_inverse: np.ndarray | None = field(default=None, repr=False, compare=False)
    # the condensation and the cold start, built from this instance's own
    # matrices on first use (players.py), so a dataclasses.replace copy
    # starts empty instead of inheriting stale ones
    _derived: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for nm in ("quadratic", "linear", "eq_matrix", "eq_rhs", "ineq_matrix", "ineq_rhs"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, nm), dtype=float))
            arr.flags.writeable = False
            object.__setattr__(self, nm, arr)
        object.__setattr__(self, "_derived", {})

    @property
    def n_vars(self) -> int:
        return self.linear.shape[0]

    @property
    def n_prices(self) -> int:
        """Width of the power-price block (the first coordinates)."""
        return self.index_map.n_v

    def merged_linear(self, expected_prices: np.ndarray) -> np.ndarray:
        """Linear term with the candidate discounted power prices filled in."""
        prices = np.asarray(expected_prices, dtype=float)
        if prices.shape != (self.n_prices,):
            raise ScenarioError(
                f"expected {self.n_prices} prices, got shape {prices.shape}"
            )
        g = self.linear.copy()
        g[: self.n_prices] = prices
        return g

    def objective(self, primal: np.ndarray, expected_prices: np.ndarray) -> float:
        g = self.merged_linear(expected_prices)
        return float(-(g @ primal) - 0.5 * primal @ (self.quadratic @ primal))

    def ineq_row(self, label: tuple) -> int:
        return self.ineq_labels.index(label)


def _producer_plants(producer: Producer, scenario: Scenario):
    fuels = scenario.fuel_names
    grouped = producer.plants_by_fuel(fuels)
    counts = tuple(len(grouped[f]) for f in fuels)
    return grouped, counts


def assemble_producer(producer: Producer, scenario: Scenario) -> PlayerProblem:
    grid = scenario.grid
    fuels = scenario.fuel_names
    grouped, counts = _producer_plants(producer, scenario)
    im = canonical_index(grid, fuels, counts)
    n = im.total
    nj, nl = grid.n_deliveries, len(fuels)

    # equalities: volume per delivery, fuel per (fuel, delivery), one emission row
    n_eq = nj + nj * nl + 1
    A = np.zeros((n_eq, n))
    a = np.zeros(n_eq)
    eq_labels = []
    row = 0
    for j in range(nj):
        for i in range(grid.sizes[j]):
            A[row, im.v_index(j, i)] = 1.0
        for l, fuel in enumerate(fuels):
            for r in range(counts[l]):
                A[row, im.w_index(j, fuel, r)] = 1.0
        eq_labels.append(("volume", j))
        row += 1
    for l, fuel in enumerate(fuels):
        for j in range(nj):
            for i in range(grid.sizes[j]):
                A[row, im.f_index(j, i, fuel)] = -1.0
            for r, plant in enumerate(grouped[fuel]):
                A[row, im.w_index(j, fuel, r)] = plant.efficiency
            eq_labels.append(("fuel", j, fuel))
            row += 1
    for j in range(nj):
        for i in range(grid.sizes[j]):
            A[row, im.o_index(j, i)] = 1.0
        for l, fuel in enumerate(fuels):
            g_l = scenario.fuels.intensity(fuel)
            for r in range(counts[l]):
                A[row, im.w_index(j, fuel, r)] = -g_l
    eq_labels.append(("emission",))
    row += 1

    # inequalities: ramps, capacity, then the three trading boxes
    rows, rhs, labels = [], [], []

    def add(coeffs, bound, label):
        vec = np.zeros(n)
        for idx, val in coeffs:
            vec[idx] = val
        rows.append(vec)
        rhs.append(bound)
        labels.append(label)

    for j in range(nj - 1):
        for l, fuel in enumerate(fuels):
            for r, plant in enumerate(grouped[fuel]):
                up, dn = im.w_index(j + 1, fuel, r), im.w_index(j, fuel, r)
                add([(up, 1.0), (dn, -1.0)], plant.ramp_up, ("ramp_up", j, fuel, r))
                add([(up, -1.0), (dn, 1.0)], -plant.ramp_down, ("ramp_down", j, fuel, r))
    for j in range(nj):
        for l, fuel in enumerate(fuels):
            for r, plant in enumerate(grouped[fuel]):
                w = im.w_index(j, fuel, r)
                add([(w, 1.0)], plant.capacity, ("cap_upper", j, fuel, r))
                add([(w, -1.0)], 0.0, ("cap_lower", j, fuel, r))
    vt, ft = scenario.bounds.v_trade, scenario.bounds.f_trade
    for j, i in grid.node_labels():
        k = im.v_index(j, i)
        add([(k, 1.0)], vt, ("v_upper", j, i))
        add([(k, -1.0)], vt, ("v_lower", j, i))
    for j, i in grid.node_labels():
        for fuel in fuels:
            k = im.f_index(j, i, fuel)
            add([(k, 1.0)], ft, ("f_upper", j, i, fuel))
            add([(k, -1.0)], ft, ("f_lower", j, i, fuel))
    for j, i in grid.node_labels():
        k = im.o_index(j, i)
        add([(k, 1.0)], ft, ("o_upper", j, i))
        add([(k, -1.0)], ft, ("o_lower", j, i))

    blocks = scenario.covariance_blocks()
    quadratic = np.zeros((n, n))
    nt = im.n_traded
    quadratic[:nt, :nt] = producer.risk_aversion * blocks.stacked()

    linear = np.zeros(n)
    disc = grid.node_discounts()
    g_flat = scenario.exogenous.flat_fuel_forwards(grid, fuels)
    gem_flat = scenario.exogenous.flat_emission_forwards(grid)
    linear[im.n_v : im.n_v + im.n_f] = np.repeat(disc, nl) * g_flat
    linear[im.n_v + im.n_f : nt] = disc * gem_flat

    return PlayerProblem(
        kind="producer",
        name=producer.name,
        quadratic=quadratic,
        linear=linear,
        eq_matrix=A,
        eq_rhs=a,
        ineq_matrix=np.array(rows),
        ineq_rhs=np.array(rhs),
        index_map=im,
        eq_labels=tuple(eq_labels),
        ineq_labels=tuple(labels),
        risk_aversion=producer.risk_aversion,
        cov_inverse=blocks.stacked_inverse(),
    )


def assemble_consumer(consumer: Consumer, scenario: Scenario) -> PlayerProblem:
    grid = scenario.grid
    im = canonical_index(grid)
    n = grid.n_contracts

    A = delivery_totals_matrix(grid)
    a = consumer.demand_share * scenario.demand_vector()
    eq_labels = tuple(("demand", j) for j in range(grid.n_deliveries))

    vt = scenario.bounds.v_trade
    rows, rhs, labels = [], [], []
    for j, i in grid.node_labels():
        k = im.v_index(j, i)
        up = np.zeros(n)
        up[k] = 1.0
        rows.append(up)
        rhs.append(vt)
        labels.append(("v_upper", j, i))
        lo = np.zeros(n)
        lo[k] = -1.0
        rows.append(lo)
        rhs.append(vt)
        labels.append(("v_lower", j, i))

    blocks = scenario.covariance_blocks()
    quadratic = consumer.risk_aversion * blocks.q1

    return PlayerProblem(
        kind="consumer",
        name=consumer.name,
        quadratic=quadratic,
        linear=np.zeros(n),
        eq_matrix=A,
        eq_rhs=a,
        ineq_matrix=np.array(rows),
        ineq_rhs=np.array(rhs),
        index_map=im,
        eq_labels=eq_labels,
        ineq_labels=tuple(labels),
        risk_aversion=consumer.risk_aversion,
        cov_inverse=blocks.q1_inverse(),
    )


def assemble_all(scenario: Scenario) -> tuple[PlayerProblem, ...]:
    """Every player's problem, producers first, in scenario order.

    Assembled once per scenario: every caller gets the same tuple, so each
    problem's condensation and cold start are shared too.
    """
    if "problems" not in scenario._derived:
        problems = [assemble_producer(p, scenario) for p in scenario.producers]
        problems += [assemble_consumer(c, scenario) for c in scenario.consumers]
        scenario._derived["problems"] = tuple(problems)
    return scenario._derived["problems"]
