import gc
import weakref
from collections import Counter
from dataclasses import astuple, replace
from functools import cached_property

import numpy as np
import pytest

import equiterm as eq
from equiterm import equilibrium, players
from equiterm.equilibrium import Market, merit_order_prices
from tests.corpus import build_scenario, desk_n1, ladder, make_corpus, portfolio


@pytest.fixture(scope="module")
def solved_n1():
    sc = desk_n1()
    return sc, eq.solve_equilibrium(sc)


@pytest.fixture(scope="module")
def medium():
    return build_scenario(
        seed=91, sizes=(2, 2), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 9.0, 9.0, -9.0, 2.0)]),
                   (1.4, [("gas", 6.0, 6.0, -6.0, 2.3)])],
        consumers=[(0.9, 0.6, 0.0), (1.3, 0.4, 0.0)], demand_frac=(0.4, 0.55))


def test_clearing_residual_vanishes(solved_n1):
    sc, res = solved_n1
    assert res.converged
    assert res.clearing_residual <= 1e-8
    z = eq.excess_volume(sc, res.prices)
    assert np.abs(z).max() <= 1e-8


def test_solutions_are_best_responses(solved_n1):
    _, res = solved_n1
    assert res.max_kkt_residual <= 1e-8
    for sol in res.player_solutions:
        assert sol.kkt_residual <= 1e-8


def test_prices_inside_the_box(solved_n1):
    sc, res = solved_n1
    assert res.price_bound_ok
    raw = res.undiscounted_prices(sc.grid)
    assert np.abs(raw).max() < sc.bounds.pi_max


def test_box_corner_starts_reach_the_default_prices():
    # every plant pinned at a corner: the clearing residual is flat there,
    # the welfare potential is not, so the gradient step must carry the solve
    failures = []
    starts = 0
    for name, sc in make_corpus():
        default = eq.solve_equilibrium(sc)
        corner = 0.9 * sc.bounds.pi_max * sc.grid.node_discounts()
        for sign in (1.0, -1.0):
            starts += 1
            res = eq.solve_equilibrium(sc, initial_prices=sign * corner)
            gap = float(np.max(np.abs(res.prices - default.prices)))
            if not (res.converged and gap <= 1e-9):
                failures.append(f"{name} from {sign:+.0f}: {res.message}, gap {gap:.1e}")
    assert starts == 46
    assert not failures, failures


def _counted_solve(scenario, **options):
    market = Market(scenario)
    calls = []
    solutions = market.solutions
    market.solutions = lambda prices: calls.append(1) or solutions(prices)
    return eq.solve_equilibrium(scenario, market=market, **options), len(calls)


def test_stall_when_no_step_decreases_the_potential_measurably(medium):
    # below the roundoff of the potential no step counts: an unreachable
    # tolerance stalls at the equilibrium after one more market evaluation,
    # with no backtracking through noise
    default, default_evals = _counted_solve(medium)
    res, evals = _counted_solve(medium, tol=1e-300)
    assert default.converged and not res.converged
    assert res.message.startswith("stalled")
    assert evals <= default_evals + 2
    np.testing.assert_allclose(res.prices, default.prices, rtol=0, atol=1e-12)


def test_trace_reaches_tolerance(medium):
    res = eq.solve_equilibrium(medium)
    assert res.trace[-1] <= 1e-8
    assert res.trace[0] > res.trace[-1]


def test_low_price_sweep_all_lower(solved_n1):
    sc, _ = solved_n1
    eps = 1.0
    lo = -(sc.bounds.pi_max - eps) * sc.grid.node_discounts()
    sat = eq.detect_saturation(sc, prices=lo)
    assert sat.statuses == ("all-lower",)
    assert sat.clearing_sums[0] == pytest.approx(sc.exogenous.demand[0])
    assert all(sat.sign_consistent)


def test_high_price_sweep_all_upper(solved_n1):
    sc, _ = solved_n1
    eps = 1.0
    hi = (sc.bounds.pi_max - eps) * sc.grid.node_discounts()
    sat = eq.detect_saturation(sc, prices=hi)
    assert sat.statuses == ("all-upper",)
    expected = sc.exogenous.demand[0] - sc.total_capacity()
    assert sat.clearing_sums[0] == pytest.approx(expected)
    assert sat.clearing_sums[0] < 0
    assert all(sat.sign_consistent)


def test_equilibrium_is_interior(solved_n1):
    sc, res = solved_n1
    assert res.saturation.statuses == ("interior",)


def test_diagnostics_on_healthy_market(medium):
    res = eq.solve_equilibrium(medium)
    diag = eq.check_uniqueness(medium, res, n_samples=40, seed=3)
    assert diag.monotonicity_all_negative
    assert diag.jacobian_available
    assert diag.jacobian_eigen_max < 0
    assert diag.rank_ok and diag.rank_condition == medium.grid.n_deliveries
    assert all(diag.strictly_feasible_plant_per_period)


def test_consumer_only_market_fails_uniqueness():
    sc = desk_n1()
    no_prod = eq.Scenario(sc.grid, (), sc.consumers, sc.fuels, sc.exogenous, sc.bounds)
    market = Market(no_prod)
    diag = eq.check_uniqueness(no_prod, prices=np.zeros(1), n_samples=8, seed=0, market=market)
    assert diag.rank_condition == 0
    # a fleet without plants: no delivery at a bound, none with a plant strictly inside
    assert market._batch(np.zeros((1, 2))).bound_states.shape == (2, 2, 1, 0)
    assert diag.saturation.statuses == ("interior",)
    assert diag.strictly_feasible_plant_per_period == (False,)
    assert diag.rank_ok is False
    assert diag.jacobian_eigen_max >= -1e-12  # flat direction survives


def test_consumer_response_flat_on_delivery_constants(medium):
    mkt = Market(medium)
    prices = merit_order_prices(medium)
    a1 = eq.delivery_totals_matrix(medium.grid)
    for prob, sol in zip(mkt.problems, mkt.solutions(prices)):
        if prob.kind != "consumer":
            continue
        rj = eq.response_jacobian(prob, sol)
        for row in a1:
            assert abs(row @ rj.matrix @ row) <= 1e-10


def test_risk_scaling_still_clears(medium):
    scaled = build_scenario(
        seed=91, sizes=(2, 2), fuels={"gas": 0.5},
        producers=[(3.0, [("gas", 9.0, 9.0, -9.0, 2.0)]),
                   (4.2, [("gas", 6.0, 6.0, -6.0, 2.3)])],
        consumers=[(2.7, 0.6, 0.0), (3.9, 0.4, 0.0)], demand_frac=(0.4, 0.55))
    res = eq.solve_equilibrium(scaled)
    assert res.converged and res.clearing_residual <= 1e-8


def test_market_agent_profit_vanishes(solved_n1):
    # clearing makes the price-setter's objective value collapse to zero
    sc, res = solved_n1
    z = eq.excess_volume(sc, res.prices)
    agent_value = float(res.prices @ z)
    assert abs(agent_value) <= res.clearing_residual * np.abs(res.prices).sum() + 1e-30


def test_volumes_away_from_trading_boxes(medium):
    res = eq.solve_equilibrium(medium)
    vt = medium.bounds.v_trade
    for sol in res.player_solutions:
        assert np.abs(sol.volumes).max() < vt * (1 - 1e-9)


def test_nonconvergence_reported_honestly():
    sc = desk_n1()
    res = eq.solve_equilibrium(sc, eq.SolveOptions(max_iter=1))
    assert not res.converged
    assert "converged" not in res.message or "non" in res.message


def test_explicit_initial_prices(medium):
    res0 = eq.solve_equilibrium(medium)
    res1 = eq.solve_equilibrium(
        medium, eq.SolveOptions(initial_prices=res0.prices + 0.01))
    assert res1.converged
    np.testing.assert_allclose(res1.prices, res0.prices, atol=1e-6)


def test_zero_covariance_limit_approaches_mean_max():
    # shrink the risk term: prices flatten toward the expectation-only level
    sc_mm = build_scenario(
        seed=95, sizes=(2,), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.5, flat_forwards=True,
        cov_scale=1.0)
    mm = eq.mean_max_equilibrium(sc_mm)
    assert mm.converged
    gaps = []
    for scale in (1e-2, 1e-4, 1e-6):
        sc_eps = build_scenario(
            seed=95, sizes=(2,), fuels={"gas": 0.5},
            producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
            consumers=[(1.0, 1.0, 0.0)], demand_frac=0.5, flat_forwards=True,
            cov_scale=scale)
        res = eq.solve_equilibrium(sc_eps)
        assert res.converged
        gaps.append(np.abs(res.prices - mm.prices).max())
    assert gaps[2] < gaps[0]
    assert gaps[2] <= 1e-4


def test_two_stage_residual_small(two_stage):
    res = eq.solve_equilibrium(two_stage)
    assert res.converged
    assert res.clearing_residual <= 1e-8


def _ramp_scenario():
    return build_scenario(
        seed=3, sizes=(1, 1, 1), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 10.0, 1.0, -1.0, 2.0)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.3)


def _primal_bound_states(scenario, problem, solution, tol=1e-7):
    """Reference: each plant's production against its capacity bounds."""
    im = problem.index_map
    producer = next(p for p in scenario.producers if p.name == problem.name)
    nj = scenario.grid.n_deliveries
    upper = np.zeros((nj, im.plants_per_delivery), dtype=bool)
    lower = np.zeros_like(upper)
    for fuel, plants in producer.plants_by_fuel(scenario.fuel_names).items():
        for r, plant in enumerate(plants):
            k = im.w_index(0, fuel, r) - im.n_traded
            s = tol * max(1.0, plant.capacity)
            for j in range(nj):
                w = solution.primal[im.w_index(j, fuel, r)]
                upper[j, k], lower[j, k] = w >= plant.capacity - s, w <= s
    return upper, lower


FLEETS = {
    "ramp": _ramp_scenario,
    # several plants share a fuel
    "twin_plants": lambda: dict(make_corpus())["twin_plants"],
    "portfolio12": lambda: portfolio(12),
}


@pytest.mark.parametrize("which", ["medium", *FLEETS])
def test_bound_states_from_active_set_match_primal_walk(medium, which):
    sc = medium if which == "medium" else FLEETS[which]()
    market = Market(sc)
    base = merit_order_prices(sc)
    rng = np.random.default_rng(23)
    pinned = 0
    for _ in range(40):
        prices = base + 0.5 * np.abs(base).max() * rng.standard_normal(base.size)
        got = market.selection(prices).record.bound_states[0]  # from the fleet step's slack
        sols = market.solutions(prices)
        # producers lead the player order, each with its plants in W order
        ref = np.concatenate([_primal_bound_states(sc, problem, sol) for problem, sol
                              in zip(market.problems[: len(sc.producers)], sols)], axis=-1)
        np.testing.assert_array_equal(got, ref)
        pinned += int(got.sum())
    assert pinned > 0


def test_fleet_bound_states_of_a_batch_are_its_columns_read_one_at_a_time():
    sc = ladder(12)
    market = Market(sc)
    base = merit_order_prices(sc)
    rng = np.random.default_rng(5)
    points = base[:, None] + 0.2 * np.abs(base).max() * rng.standard_normal((base.size, 32))
    record = market._batch(points)
    batch = record.bound_states
    assert batch.shape == (32, 2, sc.grid.n_deliveries, 3)
    for c, states in enumerate(batch):
        single = players.FleetRecord(market.problems, sc._derived, None, 1,
                                     [[record.solution(k, c)] for k in range(len(market.problems))])
        np.testing.assert_array_equal(states, single.bound_states[0])
    assert len({states.tobytes() for states in batch}) > 1


def test_ramp_pinned_deliveries_read_as_interior():
    # price spike at the middle delivery: ramp_up(0) and ramp_down(1) bind
    # while production stays strictly inside (0, capacity), so no delivery
    # has its fleet at a bound
    sc = _ramp_scenario()
    market = Market(sc)
    prices = np.array([0.0, 50.0, 0.0]) * sc.grid.node_discounts()
    producer = market.problems[0]
    sol = market.solutions(prices)[0]
    tight = {producer.ineq_labels[i][:2] for i in sol.active_set}
    assert tight == {("ramp_up", 0), ("ramp_down", 1)}
    rep = eq.detect_saturation(sc, prices=prices, market=market)
    assert rep.statuses == ("interior",) * 3
    assert rep.sign_consistent == (True,) * 3
    diag = eq.check_uniqueness(sc, prices=prices, n_samples=1, market=market)
    assert diag.strictly_feasible_plant_per_period == (True, True, True)


# ---- one evaluation per price point -------------------------------------------


def _record_solves(monkeypatch, alone="solve_qp"):
    """Player solves per price vector, through the bindings the market calls:
    the fleet step, once per player it serves, and ``alone`` (``solve_qp``
    or ``solve_qp_many``) for each player that step does not serve."""
    solves = Counter()
    fleet, inner = equilibrium.solve_fleet, getattr(equilibrium, alone)

    def fleet_step(problems, prices, *args):
        out = fleet(problems, prices, *args)
        served = sum(sols is not None for sols in out.sols)
        solves.update({col.tobytes(): served for col in prices.T})
        return out

    def recording(problem, prices, **kwargs):
        columns = np.asarray(prices)
        solves.update(col.tobytes() for col in (columns.T if columns.ndim == 2 else [columns]))
        return inner(problem, prices, **kwargs)

    monkeypatch.setattr(equilibrium, "solve_fleet", fleet_step)
    monkeypatch.setattr(equilibrium, alone, recording)
    return solves


def test_market_memo_holds_the_last_point_only(monkeypatch):
    sc = dict(make_corpus())["three_by_three"]
    market = Market(sc)
    centre = eq.solve_equilibrium(sc, market=market).prices
    rng = np.random.default_rng(17)
    radius = 0.05 * max(1.0, float(np.max(np.abs(centre))))
    points = centre + radius * rng.standard_normal((1001, centre.size))
    solves = _record_solves(monkeypatch)
    for x in points:
        if not eq.detect_saturation(sc, prices=x, market=market).saturated:
            market.excess(x)
    n_players = len(market.problems)
    assert sorted(solves.values()) == [n_players] * 1001  # one round per point
    # asked again, most recent first: only the last point is still held
    held = 0
    for x in points[::-1][:64]:
        before = sum(solves.values())
        market.solutions(x)
        held += sum(solves.values()) == before
    assert held == 1


def test_check_uniqueness_evaluates_each_point_once(monkeypatch):
    sc = dict(make_corpus())["three_by_three"]
    centre = eq.solve_equilibrium(sc).prices
    market = Market(sc)
    evaluated = []
    batch = market._batch
    market._batch = lambda prices: (
        evaluated.extend(col.tobytes() for col in prices.T) or batch(prices))
    market.solutions(centre)  # the centre is the memo, so only the batches solve below
    solves = _record_solves(monkeypatch, "solve_qp_many")
    diag = eq.check_uniqueness(sc, prices=centre, n_samples=16, market=market)
    assert len(diag.monotonicity_samples) == 16
    assert len(evaluated) == len(set(evaluated)) >= 32
    assert set(solves) == set(evaluated)
    assert set(solves.values()) == {len(market.problems)}



def test_check_uniqueness_takes_one_jacobian_per_player(monkeypatch):
    sc = dict(make_corpus())["three_by_three"]
    market = Market(sc)
    centre = eq.solve_equilibrium(sc, market=market).prices
    sols = market.solutions(centre)
    J = sum(equilibrium.response_jacobian(p, s).matrix for p, s in zip(market.problems, sols))
    taken = _jacobians_taken(monkeypatch)
    diag = eq.check_uniqueness(sc, prices=centre, n_samples=4, market=market)
    assert sorted(id(problem) for _, problem in taken) == sorted(map(id, market.problems))
    assert diag.jacobian_eigen_max == float(np.linalg.eigvalsh(0.5 * (J + J.T))[-1])


@pytest.mark.parametrize("seed", [-1, -(1 << 40)])
def test_check_uniqueness_names_a_negative_seed(seed):
    sc = dict(make_corpus())["two_fuels"]
    res = eq.solve_equilibrium(sc)
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got seed={seed}"):
        eq.check_uniqueness(sc, res, n_samples=1, seed=seed)
    assert eq.check_uniqueness(sc, res, n_samples=1, seed=0).monotonicity_all_negative


def test_check_uniqueness_takes_an_equilibrium_or_prices_not_both():
    sc = dict(make_corpus())["two_fuels"]
    res = eq.solve_equilibrium(sc)
    away = 1.5 * res.prices  # the fleet is pinned here, unlike at the equilibrium
    assert eq.check_uniqueness(sc, prices=away, n_samples=1).saturation.clearing_sums != \
        eq.check_uniqueness(sc, res, n_samples=1).saturation.clearing_sums
    for kwargs in ({"equilibrium": res, "prices": away}, {}):
        with pytest.raises(ValueError, match="exactly one of equilibrium and prices"):
            eq.check_uniqueness(sc, n_samples=1, **kwargs)


def test_detect_saturation_takes_prices_or_solutions_not_both():
    sc = dict(make_corpus())["two_fuels"]
    res = eq.solve_equilibrium(sc)
    away = 1.5 * res.prices
    assert eq.detect_saturation(sc, prices=away) != \
        eq.detect_saturation(sc, solutions=res.player_solutions)
    for kwargs in ({"prices": away, "solutions": res.player_solutions}, {}):
        with pytest.raises(ValueError, match="exactly one of prices and solutions"):
            eq.detect_saturation(sc, **kwargs)


def _jacobians_taken(monkeypatch):
    """Record (prices, problem) of every player sensitivity a selection takes:
    from its record where the fleet served the player (``FleetRecord.jacobian``),
    else from its solution (``response_jacobian``)."""
    taken = []
    from_record, from_solution = players.FleetRecord.jacobian, equilibrium.response_jacobian

    def record_jacobian(record, k):
        out = from_record(record, k)
        if out is not None:
            taken.append((record.prices[0].tobytes(), record.fleet.problems[k]))
        return out

    def solution_jacobian(problem, sol):
        taken.append((sol.prices.tobytes(), problem))
        return from_solution(problem, sol)

    monkeypatch.setattr(players.FleetRecord, "jacobian", record_jacobian)
    monkeypatch.setattr(equilibrium, "response_jacobian", solution_jacobian)
    return taken


def test_one_selection_record_serves_the_solve_and_check_uniqueness(monkeypatch):
    """Over a solve and ``check_uniqueness(sc, result)``: one Market, each
    player's sensitivity taken at most once per evaluated point, and at the
    answer the fleet's bound states read once and classified once."""
    markets, taken, reads, reports = [], _jacobians_taken(monkeypatch), [], []

    class RecordingMarket(equilibrium.Market):
        def __init__(self, scenario):
            super().__init__(scenario)
            markets.append(self)

    def bound_states(record, _inner=players.FleetRecord.bound_states.func):
        reads.append({row.tobytes() for row in record.prices})
        return _inner(record)

    bound_states = cached_property(bound_states)
    bound_states.__set_name__(players.FleetRecord, "bound_states")

    def report(*args, _inner=equilibrium.SaturationReport):
        reports.append(args)
        return _inner(*args)

    monkeypatch.setattr(equilibrium, "Market", RecordingMarket)
    monkeypatch.setattr(players.FleetRecord, "bound_states", bound_states)
    monkeypatch.setattr(equilibrium, "SaturationReport", report)
    corpus = dict(make_corpus())
    corpus_reads = 0
    for name, sc in [*corpus.items(), ("ladder12", ladder(12)), ("ladder24", ladder(24))]:
        for seen in (markets, taken, reads, reports):
            seen.clear()
        result = eq.solve_equilibrium(sc)
        batches, batch = [], markets[0]._batch
        markets[0]._batch = lambda prices: batches.append(prices) or batch(prices)
        eq.check_uniqueness(sc, result)
        final = result.prices.tobytes()
        jacobians = Counter((key, id(problem)) for key, problem in taken)
        assert len(markets) == 1, name
        assert max(jacobians.values()) == 1, name
        assert sorted(i for key, i in jacobians if key == final) == \
            sorted(map(id, markets[0].problems)), name
        assert sum(final in keys for keys in reads) == 1, name
        assert len(reports) == 1, name
        assert len(reads) == 1 + len(batches), name  # the answer, then each sample batch
        corpus_reads += len(reads) if name in corpus else 0
    assert corpus_reads == 2 * len(corpus)


def test_the_record_and_its_market_form_no_reference_cycle():
    sc = dict(make_corpus())["two_fuels"]
    gc.disable()  # what is still held without the collector is held by a cycle
    try:
        result = eq.solve_equilibrium(sc)
        eq.check_uniqueness(sc, result, n_samples=4)
        held = weakref.ref(result.market), weakref.ref(result.selection)
        assert result.market.selection(result.prices) is result.selection
        del result
        assert [ref() for ref in held] == [None, None]
    finally:
        gc.enable()


# ---- the batched excess map ------------------------------------------------------


def _centred_batch(name, spread, m, seed=11):
    """A market whose memo is its equilibrium, that centre and m points around it."""
    sc = dict(make_corpus())[name]
    market = Market(sc)
    centre = eq.solve_equilibrium(sc, market=market).prices
    market.solutions(centre)
    rng = np.random.default_rng(seed)
    radius = spread * max(1.0, float(np.max(np.abs(centre))))
    return market, centre, centre[:, None] + radius * rng.standard_normal((centre.size, m))


def _engine_runs(monkeypatch):
    """Counts of the engine's W-QP solves and of the full-QP solves."""
    runs = Counter()
    for name in ("_solve_w_qp", "_solve_full"):
        inner = getattr(players, name)

        def recording(*args, _inner=inner, _name=name):
            runs[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(players, name, recording)
    return runs


def _assert_column_matches_single_solve(prob, warm, prices, sol):
    """A batched column is the single-point solve from the same warm start."""
    single = players.solve_qp(prob, prices, warm_start=warm)
    scale = max(1.0, float(np.max(np.abs(single.primal))))
    np.testing.assert_allclose(sol.primal, single.primal, rtol=0, atol=1e-12 * scale)
    assert sol.active_set == single.active_set
    assert sol.prices.tobytes() == prices.tobytes()
    stored = [v.hex() for v in astuple(sol.residuals)]
    assert [v.hex() for v in astuple(eq.kkt_residual(prob, sol))] == stored


def _assert_batch_matches_single_solves(market, centre, prices):
    """Each column of the batch is the single-point solve from the memo point ``centre``."""
    warm = market.solutions(centre)
    z, sols = market.excess_many(prices)
    assert z.shape == prices.shape and len(sols) == prices.shape[1]
    for c in range(prices.shape[1]):
        total = np.zeros(market.n_prices)
        for prob, w, sol in zip(market.problems, warm, sols[c]):
            _assert_column_matches_single_solve(prob, w, prices[:, c], sol)
            total += sol.volumes
        assert z[:, c].tobytes() == total.tobytes()


def test_batch_columns_served_by_the_region(monkeypatch):
    market, centre, prices = _centred_batch("three_by_three", 0.01, 40)
    runs = _engine_runs(monkeypatch)
    market.excess_many(prices)
    assert not runs  # no column reached an engine
    _assert_batch_matches_single_solves(market, centre, prices)


def test_far_batch_columns_fall_back_to_the_engine(monkeypatch):
    market, centre, prices = _centred_batch("three_by_three", 0.5, 40)
    runs = _engine_runs(monkeypatch)
    market.excess_many(prices)
    producers = sum(p.kind == "producer" for p in market.problems)
    assert 0 < runs["_solve_w_qp"] < producers * prices.shape[1]
    _assert_batch_matches_single_solves(market, centre, prices)


def test_batch_with_non_unique_production():
    market, centre, prices = _centred_batch("twin_plants", 0.05, 12)
    assert any(not players._condensation(p).w_unique for p in market.problems
               if p.kind == "producer")
    _assert_batch_matches_single_solves(market, centre, prices)


def test_batch_with_a_binding_trading_box(monkeypatch):
    # validation would reject a v_trade this small; the QP does not care
    sc = build_scenario(seed=5, sizes=(2, 2), fuels={"gas": 0.5},
                        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
                        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.4, bound_factor=0.1)
    prob = eq.assemble_producer(sc.producers[0], sc)
    warm = eq.solve_qp(prob, np.full(4, 50.0))
    prices = 50.0 + np.random.default_rng(2).standard_normal((4, 6))
    runs = _engine_runs(monkeypatch)
    sols = eq.solve_qp_many(prob, prices, warm_start=warm)
    assert runs["_solve_full"] == prices.shape[1]
    for c, sol in enumerate(sols):
        _assert_column_matches_single_solve(prob, warm, prices[:, c], sol)


def test_batch_columns_do_not_depend_on_their_order():
    market, centre, prices = _centred_batch("four_deliveries", 0.1, 24)
    z, sols = market.excess_many(prices)
    perm = np.random.default_rng(5).permutation(prices.shape[1])
    z_perm, sols_perm = market.excess_many(prices[:, perm])
    scale = max(1.0, float(np.max(np.abs(z))))
    np.testing.assert_allclose(z_perm, z[:, perm], rtol=0, atol=1e-12 * scale)
    for c, k in enumerate(perm):
        assert [s.active_set for s in sols_perm[c]] == [s.active_set for s in sols[k]]


def test_batch_leaves_the_memo_in_place(monkeypatch):
    market, centre, prices = _centred_batch("three_by_three", 0.05, 8)
    memo = market.selection(centre)
    market.excess_many(prices)
    solves = _record_solves(monkeypatch)
    assert market.selection(centre) is memo
    market.solutions(centre)
    assert not solves


def test_empty_batch():
    market, centre, prices = _centred_batch("n1_single", 0.05, 0)
    z, sols = market.excess_many(prices)
    assert z.shape == (market.n_prices, 0) and sols == ()


def test_non_finite_batch_column_is_named():
    market, centre, prices = _centred_batch("three_by_three", 0.05, 5)
    prices[1, 3] = np.nan
    with pytest.raises(ValueError, match="column 3"):
        market.excess_many(prices)


def test_secant_shrink_halves_when_the_drop_reaches_the_prediction():
    assert equilibrium._secant_shrink(1.0, 1.0) == 0.5
    assert equilibrium._secant_shrink(1.0, 2.0) == 0.5
    assert equilibrium._secant_shrink(1.0, -3.0) == 0.125  # the secant minimizer


@pytest.mark.parametrize("name", ["two_fuels", "three_by_three", "n12_max"])
def test_an_astronomical_newton_step_is_capped_to_the_box(monkeypatch, name):
    sc = dict(make_corpus())[name]
    expected = eq.solve_equilibrium(sc).prices
    original = equilibrium._newton_step
    blown_up = []

    def astronomical(sel):
        step, curvature = original(sel)
        if step is not None:
            blown_up.append(step)
            step = step * 1e12
        return step, curvature

    monkeypatch.setattr(equilibrium, "_newton_step", astronomical)
    result = eq.solve_equilibrium(sc)
    assert blown_up and result.converged
    assert np.max(np.abs(result.prices - expected)) <= 1e-9


# ---- marginal costs --------------------------------------------------------

def _marginal_costs_loop(sc):
    """The definition spelled out as the reference: one ``np.mean`` per
    (delivery, plant) for the fuel and one per delivery for emission."""
    plants = [pl for p in sc.producers for pl in p.plants]
    out = np.zeros((sc.grid.n_deliveries, len(plants)))
    for j in range(sc.grid.n_deliveries):
        e_bar = float(np.mean(sc.exogenous.emission_forwards[j]))
        for k, plant in enumerate(plants):
            g_bar = float(np.mean(sc.exogenous.forwards_for(plant.fuel)[j]))
            out[j, k] = plant.efficiency * g_bar + sc.fuels.intensity(plant.fuel) * e_bar
    return out


def _long_deliveries():
    """Deliveries of 9, 17 and 3 trading times with irregular quotes, so the
    means leave numpy's short sequential sums for its unrolled pairwise ones."""
    sc = build_scenario(
        seed=35, sizes=(9, 17, 3), fuels={"coal": 0.9, "gas": 0.5},
        producers=[(1.0, [("coal", 8.0, 4.0, -4.0, 1.1), ("gas", 6.0, 6.0, -6.0, 2.0)]),
                   (1.3, [("gas", 5.0, 5.0, -5.0, 2.3)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.4)
    rng = np.random.default_rng(35)

    def quotes():
        return tuple(tuple(rng.uniform(1.0, 9.0, m).tolist()) for m in sc.grid.sizes)

    exo = eq.ExogenousModel(sc.exogenous.demand, {fuel: quotes() for fuel in sc.fuel_names},
                            quotes(), covariance=sc.exogenous.covariance)
    return replace(sc, exogenous=exo)


MARGINAL_MARKETS = {**dict(make_corpus()), "ladder_48": ladder(48),
                    "long_deliveries": _long_deliveries()}


@pytest.mark.parametrize("name", list(MARGINAL_MARKETS))
def test_marginal_costs_match_the_per_plant_loop(name):
    sc = MARGINAL_MARKETS[name]
    costs = sc.marginal_costs()
    ref = _marginal_costs_loop(sc)
    assert costs.shape == ref.shape and costs.dtype == ref.dtype
    assert costs.tobytes() == ref.tobytes()


def test_marginal_costs_are_computed_once_per_scenario():
    # validation's pi_max check and the merit-order start read one read-only array
    sc = replace(dict(make_corpus())["three_producers"])  # a copy with nothing derived
    assert "marginal_costs" not in sc._derived
    eq.validate_scenario(sc)
    costs = sc._derived["marginal_costs"]
    start = merit_order_prices(sc)
    assert sc.marginal_costs() is costs and not costs.flags.writeable
    assert costs.tobytes() == _marginal_costs_loop(sc).tobytes()
    assert start.tobytes() == merit_order_prices(replace(sc)).tobytes()
