"""The fleet step: one stacked pass that serves every player of a market
from its held selection, checked against each player's own solve."""

from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest

from equiterm import equilibrium, players
from equiterm.equilibrium import Market
from tests.corpus import ladder, make_corpus, portfolio

MARKETS = {**dict(make_corpus()), **{f"ladder{n}": (lambda n=n: ladder(n)) for n in (12, 24, 48)},
           "portfolio12": lambda: portfolio(12)}


def _scenario(name):
    built = MARKETS[name]
    return built() if callable(built) else built


def _centred(name):
    """A market whose memo is its equilibrium."""
    sc = _scenario(name)
    market = Market(sc)
    centre = equilibrium.solve_equilibrium(sc, market=market).prices
    market.solutions(centre)
    return market, centre


def _assert_same(sol, ref):
    """Same active set and selection; x, mu and eta within 1e-12 relative."""
    assert sol.active_set == ref.active_set
    assert sol._strict == ref._strict
    for got, want in ((sol.primal, ref.primal), (sol.eq_duals, ref.eq_duals),
                      (sol.ineq_duals, ref.ineq_duals)):
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def _assert_optimal(problem, sol):
    """The KKT residuals of the full problem, and the full QP's volumes."""
    scale = max(1.0, float(np.max(np.abs(sol.primal))))
    assert sol.kkt_residual <= 1e-8 * scale
    full = players._full_solve_qp(problem, sol.prices)
    np.testing.assert_allclose(sol.volumes, full.volumes, rtol=0, atol=1e-7 * scale)


@pytest.mark.parametrize("name", sorted(MARKETS))
def test_fleet_step_is_each_players_own_solve(name):
    market, centre = _centred(name)
    rng = np.random.default_rng(41)
    if name == "portfolio12":  # its producer's W is not unique: it is solved alone
        fleet = market.scenario._derived["fleet_step"]
        assert [k for k, _, _ in fleet.members] == [1, 2]
    for radius in (1e-3, 5e-2):
        spread = radius * max(1.0, float(np.max(np.abs(centre))))
        points = centre[:, None] + spread * rng.standard_normal((centre.size, 6))
        warm = market.solutions(centre)
        z, batch = market.excess_many(points)
        for c in range(points.shape[1]):
            total = np.zeros(market.n_prices)
            for problem, w, sol in zip(market.problems, warm, batch[c]):
                _assert_same(sol, players.solve_qp(problem, points[:, c], warm_start=w))
                total += sol.volumes
            assert z[:, c].tobytes() == total.tobytes()
        # one point after another, each from the one before
        before = centre
        for x in points.T:
            warm = market.solutions(before)
            sols = market.solutions(x)
            for problem, w, sol in zip(market.problems, warm, sols):
                _assert_same(sol, players.solve_qp(problem, x, warm_start=w))
                _assert_optimal(problem, sol)
            before = x


def _record(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records its first argument."""
    calls, inner = [], getattr(owner, name)

    def recording(first, *args, **kwargs):
        calls.append(first)
        return inner(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def test_a_point_served_by_the_fleet_step_solves_no_player_alone(monkeypatch):
    market, centre = _centred("three_by_three")
    walks = _record(monkeypatch, players, "_solve_condensed")
    alone = _record(monkeypatch, equilibrium, "solve_qp")
    stacks = _record(monkeypatch, players._Fleet, "_stack")
    sols = market.solutions(centre * (1.0 + 1e-6))
    assert not walks and not alone and not stacks  # the equilibrium's selection holds
    for problem, sol in zip(market.problems, sols):
        _assert_optimal(problem, sol)


def test_the_selection_stack_is_rebuilt_once_per_selection_change(monkeypatch):
    market, centre = _centred("mixed_sizes")
    fleet = market.scenario._derived["fleet_step"]
    stacks = _record(monkeypatch, players._Fleet, "_stack")
    rng = np.random.default_rng(5)
    radius = 0.05 * float(np.max(np.abs(centre)))
    changes, key, before = 0, fleet.key, centre
    for x in centre + radius * rng.standard_normal((40, centre.size)):
        warm = market.solutions(before)
        held = tuple(w._strict[0] if p.kind == "producer" else ()
                     for p, w in zip(market.problems, warm))
        changes += held != key
        key = held
        market.solutions(x)
        market.solutions(x)  # the memo: no evaluation, no stack
        before = x
    assert len(stacks) == changes > 0


def _tie_points(name, count):
    """Up to ``count`` (market, centre, producer, row, prices): a point where the
    region of the equilibrium's strict rows still certifies (every held
    multiplier positive, every row within its tolerance) and ties one more
    W row, ``row``."""
    market, centre = _centred(name)
    out = []
    for problem, sol in zip(market.problems, market.solutions(centre)):
        cond = players._condensation(problem)
        strict = sol._strict[0]
        if problem.kind != "producer" or not cond.w_unique:
            continue
        region, n_w = players._region(problem, cond, strict), cond.a_w.shape[1]
        for j, row in enumerate(cond.w_rows.tolist()):
            slope = -(cond.b_w[j] @ region.coef[:n_w])  # the row's slack in [1; pi]
            if row in strict or not np.any(slope[1:]):
                continue
            s0 = problem.ineq_rhs[row] + slope @ np.concatenate(([1.0], centre))
            prices = centre - s0 / (slope[1:] @ slope[1:]) * slope[1:]
            p = np.concatenate(([1.0], prices))[:, None]
            z = region.coef @ p
            x = np.concatenate(((cond.rec @ np.concatenate((p, z[:n_w])))[: cond.n_t], z[:n_w]))
            slack = players._rows(problem, cond, x)[1][:, 0]
            loose = np.ones(slack.size, dtype=bool)
            loose[list(strict) + [row]] = False
            tol = cond.tols[1][:, 0]
            if (z[n_w:] > 1e-6).all() and (slack[loose] > tol[loose]).all() \
                    and abs(slack[row]) <= 1e-3 * tol[row]:
                out.append((market, centre, problem, row, prices))
                break
        if len(out) == count:
            break
    return out


@pytest.mark.parametrize("name", ["n2_two_deliveries", "two_fuels", "mixed_sizes"])
def test_a_point_that_ties_another_w_row_is_not_served_by_the_fleet_step(monkeypatch, name):
    found = _tie_points(name, 1)
    assert found
    market, centre, problem, row, prices = found[0]
    warm = market.solutions(centre)  # the memo
    walks = _record(monkeypatch, players, "_solve_condensed")
    sols = market.solutions(prices)
    # the region certifies there, but a degenerate vertex ends the walk:
    # the player is finished by the engine, as its own solve would be
    assert problem.name in [p.name for p in walks]
    k = market.problems.index(problem)
    assert row in sols[k].active_set
    _assert_same(sols[k], players.solve_qp(problem, prices, warm_start=warm[k]))


def test_a_player_whose_rows_have_other_entries_is_solved_alone(monkeypatch):
    sc = _scenario("two_fuels")
    problems = equilibrium.assemble_all(sc)
    doubled = replace(problems[0], ineq_matrix=2.0 * problems[0].ineq_matrix,
                      ineq_rhs=2.0 * problems[0].ineq_rhs)
    sc._derived["problems"] = (doubled,) + problems[1:]
    market = Market(sc)
    alone = _record(monkeypatch, equilibrium, "solve_qp")
    prices = equilibrium.merit_order_prices(sc)
    sols = market.solutions(prices)
    assert alone == [doubled]  # its rows are not +1/-1 pairs; the others are served
    for problem, sol in zip(market.problems, sols):
        _assert_same(sol, players.solve_qp(problem, prices))


def test_the_memo_keeps_z_summed_in_player_order():
    market, centre = _centred("square_2x2")
    x = centre * 1.01
    z, sols = market.excess(x)
    total = np.zeros(market.n_prices)
    for sol in sols:
        total += sol.volumes
    assert z.tobytes() == total.tobytes() and not z.flags.writeable
    assert market.excess(x)[0] is z  # read again, not summed again
    sums = equilibrium.detect_saturation(market.scenario, prices=x, market=market).clearing_sums
    assert sums == tuple((equilibrium._totals(market.scenario) @ z).tolist())


# ---- the record of an evaluated point ------------------------------------------

def _consumers_only():
    sc = dict(make_corpus())["two_consumers"]
    return equilibrium.Scenario(sc.grid, (), sc.consumers, sc.fuels, sc.exogenous, sc.bounds)


RECORD_MARKETS = sorted(set(MARKETS) - {"ladder48"}) + ["consumers_only"]


def _record_market(name):
    """A market whose memo is its centre (the equilibrium, or zero prices
    where there is no producer), and that centre."""
    if name != "consumers_only":
        return _centred(name)
    market = Market(_consumers_only())
    centre = np.zeros(market.n_prices)
    market.selection(centre)
    return market, centre


def _states_of(market, sols):
    """(2, deliveries, plants) from the active sets of one solution per player."""
    nd = market.scenario.grid.n_deliveries
    return np.concatenate([np.zeros((2, nd, 0), dtype=bool)] + [
        np.isin(problem.capacity_rows().reshape(2, nd, -1), sol.active_set)
        for problem, sol in zip(market.problems, sols) if problem.kind == "producer"], axis=2)


def _eager(record, k, c):
    """Player k's solution at column c as the fleet step built each one when
    it served it: from one contiguous row per point of v and of the
    multipliers, its active set read column by column off the fleet's slack."""
    fleet = record.fleet
    x_span, mu_span, _, _, in_span = fleet.spans[fleet.index[k]]
    vt, etas = record.v.T.copy(), np.zeros((record.m, record.slack.shape[0]))
    etas[:, fleet.w_rows] = np.maximum(record.eta, 0.0).T
    col, row = np.nonzero((record.slack <= fleet.tols[1]).T)
    active = tuple(r - in_span.start for cc, r in zip(col.tolist(), row.tolist())
                   if cc == c and in_span.start <= r < in_span.stop)
    return players.PlayerSolution(record.prices[c], vt[c, x_span], vt[c, mu_span],
                                  etas[c, in_span], active, fleet.problems[k])


def _assert_bitwise(sol, ref):
    for got, want in ((sol.prices, ref.prices), (sol.primal, ref.primal),
                      (sol.eq_duals, ref.eq_duals), (sol.ineq_duals, ref.ineq_duals)):
        assert got.tobytes() == want.tobytes()
    assert sol.active_set == ref.active_set
    assert sol.objective.hex() == ref.objective.hex()
    assert [v.hex() for v in astuple(sol.residuals)] == [v.hex() for v in astuple(ref.residuals)]


def _records(market, centre, seed):
    """A batch record from the memo centre, then single-point records, each
    from the point before: (record, the warm record before it or None)."""
    rng = np.random.default_rng(seed)
    spread = 0.02 * max(1.0, float(np.max(np.abs(centre))))
    points = centre[:, None] + spread * rng.standard_normal((centre.size, 8))
    warm = market.selection(centre).record
    out = [(market._batch(points), warm)]
    for x in points.T:
        out.append((market.selection(x).record, warm))
        warm = out[-1][0]
    return out


@pytest.mark.parametrize("name", RECORD_MARKETS)
def test_record_bound_states_are_the_active_sets_of_its_solutions(name):
    market, centre = _record_market(name)
    served = 0
    for record, _ in _records(market, centre, 3):
        states = record.bound_states  # read before any solution is built
        assert states.shape[:2] == (record.m, 2)
        for c in range(record.m):
            sols = [record.solution(k, c) for k in range(len(market.problems))]
            np.testing.assert_array_equal(states[c], _states_of(market, sols))
        served += sum(len(cols) < record.m for cols in record.alone.values())
    assert served  # the fleet step served players, so the arrays were read


@pytest.mark.parametrize("name", RECORD_MARKETS)
def test_solutions_built_from_the_record_are_the_eager_ones_bit_for_bit(name):
    market, centre = _record_market(name)
    for record, warm in _records(market, centre, 4):
        objectives = {(k, c): record.objective(k, c) for k in range(len(market.problems))
                      for c in range(record.m)}
        strict = [record.strict(k) for k in range(len(market.problems))] if record.m == 1 else []
        z = np.zeros((record.m, market.n_prices)).T
        for k, cols in record.alone.items():
            for c in range(record.m):
                sol = record.solution(k, c)
                if c not in cols:
                    _assert_bitwise(sol, _eager(record, k, c))
                assert objectives[k, c].hex() == sol.objective.hex()
                z[:, c] += sol.volumes
        assert record.z.tobytes() == z.tobytes() and not record.z.flags.writeable
        # the next point's held selection is the strict rows of the solutions
        assert strict == [record.solution(k)._strict[0] for k in range(len(strict))]
        if warm is not None and record.m == 1:  # and each is the player's own solve
            for k, problem in enumerate(market.problems):
                _assert_same(record.solution(k), players.solve_qp(
                    problem, record.prices[0], warm_start=warm.solution(k)))


@pytest.mark.parametrize("name", sorted(set(MARKETS) - {"ladder48"}))
def test_a_sweep_block_builds_no_solution_for_a_player_the_fleet_step_served(monkeypatch, name):
    sc = _scenario(name)
    centre = equilibrium.solve_equilibrium(sc).prices
    key, built, alone = centre.tobytes(), Counter(), Counter()

    class Counting(players.PlayerSolution):
        def __init__(self, prices, *args):
            if prices.tobytes() != key:  # at the centre the Jacobian reads them
                built[id(args[-1])] += 1
            super().__init__(prices, *args)

    def walk(problem, cond, p, warm_start, step=None, _inner=players._solve_condensed):
        alone[id(problem)] += p.shape[1] if step is None else step[2].count(None)
        return _inner(problem, cond, p, warm_start, step)

    def full(problem, *args, _inner=players._solve_full):
        alone[id(problem)] += 1
        return _inner(problem, *args)

    monkeypatch.setattr(players, "PlayerSolution", Counting)
    monkeypatch.setattr(players, "_solve_condensed", walk)
    monkeypatch.setattr(players, "_solve_full", full)
    rng = np.random.default_rng(9)
    equilibrium.check_uniqueness(sc, prices=centre, n_samples=16, seed=int(rng.integers(1 << 31)))
    market = Market(sc)
    radius = 0.05 * max(1.0, float(np.max(np.abs(centre))))
    for x in centre + radius * rng.standard_normal((16, centre.size)):
        if not equilibrium.detect_saturation(sc, prices=x, market=market).saturated:
            market.excess(x)
    # a member is built only where it was solved alone: walked on, or by the full QP
    members = [p for _, p, _ in sc._derived["fleet_step"].members]
    assert members
    assert {p.name: built[id(p)] for p in members if built[id(p)] > alone[id(p)]} == {}
