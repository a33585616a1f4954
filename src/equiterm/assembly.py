"""Assembly of each player's quadratic program in canonical matrix form.

Producer variables are [V | F | O | W]: power trades, fuel trades, emission
trades, production.  Equality rows, in order: one volume balance per
delivery (all power sold is produced), one fuel balance per (fuel,
delivery) pair (fuel bought covers the burn), one emission row for the
whole horizon.  Consumers carry only V with one demand row per delivery.

Every inequality is half of a bound pair: ramp up and down, capacity upper
and lower, then the V, F and O trading boxes (a consumer's V only).  Rows
are (column, coefficient) entries with a right-hand side and a label, made
dense at the end.  The labels are the one statement of the row layout.

Expected fuel and emission quotes enter the linear term discounted by
e^{-r T_j}; the power slots stay zero and are filled per query with the
candidate expected power prices, discounted likewise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError
from .grid import IndexMap, canonical_index
from .scenario import Bounds, Consumer, Producer, Scenario

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
    # the capacity table, the condensation and the cold start, built from
    # this instance's own rows on first use, so a dataclasses.replace copy
    # starts empty instead of inheriting stale ones
    _derived: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for nm in ("quadratic", "linear", "eq_matrix", "eq_rhs", "ineq_matrix", "ineq_rhs"):
            arr = np.ascontiguousarray(getattr(self, nm), dtype=float)
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

    def capacity_rows(self) -> np.ndarray:
        """The ``cap_upper`` and the ``cap_lower`` row of each production
        entry, in W order: a read-only (2, W) integer table, read once from
        the row labels through the index map."""
        if "capacity_rows" not in self._derived:
            im = self.index_map
            sides, table = ("cap_upper", "cap_lower"), np.zeros((2, im.n_w), dtype=np.intp)
            for k, (side, *key) in enumerate(self.ineq_labels):
                if side in sides:
                    table[sides.index(side), im.w_index(*key) - im.n_traded] = k
            table.flags.writeable = False
            self._derived["capacity_rows"] = table
        return self._derived["capacity_rows"]


def _bound_pair(rows, entries, upper, lower, upper_label, lower_label):
    """Append the rows entries·v <= upper and -entries·v <= lower."""
    rows.append((entries, upper, upper_label))
    rows.append(([(k, -c) for k, c in entries], lower, lower_label))


def _dense(rows, n):
    """The (rows, n) matrix, right-hand sides and labels of a list of
    (entries, right-hand side, label) rows, each entry (column, coefficient)."""
    entries, rhs, labels = zip(*rows)
    matrix = np.zeros((len(rows), n))
    for r, row in enumerate(entries):
        for k, c in row:
            matrix[r, k] = c
    return matrix, rhs, labels


def _trading_boxes(rows, im: IndexMap, bounds: Bounds, producer: bool):
    """Every contract's V box; for a producer, every F box and then every O box."""
    nodes = im.grid.node_labels()
    vt, ft = bounds.v_trade, bounds.f_trade
    for j, i in nodes:
        _bound_pair(rows, [(im.v_index(j, i), 1.0)], vt, vt, ("v_upper", j, i), ("v_lower", j, i))
    if not producer:
        return
    for j, i in nodes:
        for fuel in im.fuels:
            _bound_pair(rows, [(im.f_index(j, i, fuel), 1.0)], ft, ft,
                        ("f_upper", j, i, fuel), ("f_lower", j, i, fuel))
    for j, i in nodes:
        _bound_pair(rows, [(im.o_index(j, i), 1.0)], ft, ft, ("o_upper", j, i), ("o_lower", j, i))


def _problem(kind, player, im, quadratic, linear, eq, ineq, cov_inverse):
    A, a, eq_labels = _dense(eq, linear.size)
    B, b, ineq_labels = _dense(ineq, linear.size)
    return PlayerProblem(
        kind=kind, name=player.name, quadratic=quadratic, linear=linear,
        eq_matrix=A, eq_rhs=a, ineq_matrix=B, ineq_rhs=b, index_map=im,
        eq_labels=eq_labels, ineq_labels=ineq_labels,
        risk_aversion=player.risk_aversion, cov_inverse=cov_inverse)


def assemble_producer(producer: Producer, scenario: Scenario) -> PlayerProblem:
    grid = scenario.grid
    fuels = scenario.fuel_names
    grouped = producer.plants_by_fuel(fuels)
    im = canonical_index(grid, fuels, [len(grouped[fuel]) for fuel in fuels])
    nj = grid.n_deliveries
    # every plant with its (fuel, rank) key in the W order of a delivery,
    # its emission coefficient, and each delivery's production columns
    plants = [(fuel, r, plant) for fuel in fuels for r, plant in enumerate(grouped[fuel])]
    burn = [-scenario.fuels.intensity(fuel) for fuel, _, _ in plants]
    w = [[im.w_index(j, fuel, r) for fuel, r, _ in plants] for j in range(nj)]

    # equalities: volume per delivery, fuel per (fuel, delivery), one emission row
    eq = [([(im.v_index(j, i), 1.0) for i in range(grid.sizes[j])] + [(k, 1.0) for k in w[j]],
           0.0, ("volume", j)) for j in range(nj)]
    for fuel in fuels:
        for j in range(nj):
            burnt = [(k, pl.efficiency) for k, (f, _, pl) in zip(w[j], plants) if f == fuel]
            eq.append(([(im.f_index(j, i, fuel), -1.0) for i in range(grid.sizes[j])] + burnt,
                       0.0, ("fuel", j, fuel)))
    emitted = [(k, g) for j in range(nj) for k, g in zip(w[j], burn)]
    eq.append(([(im.o_index(j, i), 1.0) for j, i in grid.node_labels()] + emitted,
               0.0, ("emission",)))

    # inequalities: ramps, capacity, then the three trading boxes
    ineq = []
    for j in range(nj - 1):
        for (fuel, r, pl), up, dn in zip(plants, w[j + 1], w[j]):
            _bound_pair(ineq, [(up, 1.0), (dn, -1.0)], pl.ramp_up, -pl.ramp_down,
                        ("ramp_up", j, fuel, r), ("ramp_down", j, fuel, r))
    for j in range(nj):
        for (fuel, r, pl), k in zip(plants, w[j]):
            _bound_pair(ineq, [(k, 1.0)], pl.capacity, 0.0,
                        ("cap_upper", j, fuel, r), ("cap_lower", j, fuel, r))
    _trading_boxes(ineq, im, scenario.bounds, producer=True)

    n, nt = im.total, im.n_traded
    blocks = scenario.covariance_blocks()
    quadratic = np.zeros((n, n))
    quadratic[:nt, :nt] = producer.risk_aversion * blocks.stacked()

    linear = np.zeros(n)
    disc = grid.node_discounts()
    g_flat = scenario.exogenous.flat_fuel_forwards(grid, fuels)
    gem_flat = scenario.exogenous.flat_emission_forwards(grid)
    linear[im.n_v : im.n_v + im.n_f] = np.repeat(disc, len(fuels)) * g_flat
    linear[im.n_v + im.n_f : nt] = disc * gem_flat

    return _problem("producer", producer, im, quadratic, linear, eq, ineq,
                    blocks.stacked_inverse())


def assemble_consumer(consumer: Consumer, scenario: Scenario) -> PlayerProblem:
    grid = scenario.grid
    im = canonical_index(grid)
    demand = consumer.demand_share * scenario.demand_vector()

    eq = [([(im.v_index(j, i), 1.0) for i in range(grid.sizes[j])], demand[j], ("demand", j))
          for j in range(grid.n_deliveries)]
    ineq = []
    _trading_boxes(ineq, im, scenario.bounds, producer=False)

    blocks = scenario.covariance_blocks()
    quadratic = consumer.risk_aversion * blocks.q1

    return _problem("consumer", consumer, im, quadratic, np.zeros(grid.n_contracts), eq, ineq,
                    blocks.q1_inverse())


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
