"""The fleet step: one stacked pass that serves every player of a market
from its held selection, checked against each player's own solve."""

from dataclasses import replace

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
        for x in points.T:
            warm = market.solutions(market._last[1][0].prices)
            sols = market.solutions(x)
            for problem, w, sol in zip(market.problems, warm, sols):
                _assert_same(sol, players.solve_qp(problem, x, warm_start=w))
                _assert_optimal(problem, sol)


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
    changes, key = 0, fleet.key
    for x in centre + radius * rng.standard_normal((40, centre.size)):
        warm = market.solutions(market._last[1][0].prices)
        held = tuple(w._strict[0] if p.kind == "producer" else ()
                     for p, w in zip(market.problems, warm))
        changes += held != key
        key = held
        market.solutions(x)
        market.solutions(x)  # the memo: no evaluation, no stack
    assert len(stacks) == changes > 0


def _tie_points(name, count):
    """Up to ``count`` (market, producer, row, prices): a point where the
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
                out.append((market, problem, row, prices))
                break
        if len(out) == count:
            break
    return out


@pytest.mark.parametrize("name", ["n2_two_deliveries", "two_fuels", "mixed_sizes"])
def test_a_point_that_ties_another_w_row_is_not_served_by_the_fleet_step(monkeypatch, name):
    found = _tie_points(name, 1)
    assert found
    market, problem, row, prices = found[0]
    warm = market.solutions(market._last[1][0].prices)
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
