from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import equiterm as eq
from equiterm import players
from equiterm.covariance import CovarianceBlocks
from equiterm.errors import InfeasibleError
from equiterm.grid import delivery_totals_matrix
from equiterm.oracles import producer_solution_with_fixed_totals
from equiterm.qp import FEAS_TOL, STRICT_DUAL_TOL
from tests.corpus import (asymmetric_ramps, build_scenario, desk_identity, ladder, make_corpus,
                          portfolio)
from tests.test_acceptance import FD_TOL
from tests.welfare import welfare_qp_prices


@pytest.fixture(scope="module")
def identity():
    return desk_identity()


@pytest.fixture(scope="module")
def consumer_problem(identity):
    return eq.assemble_consumer(identity.consumers[0], identity)


@pytest.fixture(scope="module")
def producer_problem(identity):
    return eq.assemble_producer(identity.producers[0], identity)


@pytest.fixture(scope="module")
def rich_scenario():
    return build_scenario(
        seed=77, sizes=(2, 1), fuels={"coal": 0.9, "gas": 0.5},
        producers=[(1.2, [("gas", 6.0, 4.0, -4.0, 2.0), ("coal", 8.0, 8.0, -8.0, 1.1)])],
        consumers=[(0.8, 1.0, 0.0)], demand_frac=(0.45, 0.5))


@pytest.fixture(scope="module")
def rich_producer(rich_scenario):
    return eq.assemble_producer(rich_scenario.producers[0], rich_scenario)


# ---- solve_qp -------------------------------------------------------------

def test_consumer_even_split_at_flat_prices(consumer_problem):
    sol = eq.solve_qp(consumer_problem, np.zeros(2))
    np.testing.assert_allclose(sol.primal, [2.5, 2.5], atol=1e-12)
    assert sol.kkt_residual <= 1e-9


def test_consumer_tilts_away_from_expensive_time(consumer_problem):
    sol = eq.solve_qp(consumer_problem, np.array([1.0, 0.0]))
    np.testing.assert_allclose(sol.primal, [2.0, 3.0], atol=1e-12)


def test_idle_producer_at_zero_power_price(producer_problem):
    sol = eq.solve_qp(producer_problem, np.zeros(2))
    np.testing.assert_allclose(sol.primal, np.zeros(7), atol=1e-12)
    assert sol.kkt_residual <= 1e-9


def test_infeasible_consumer_raises():
    sc = desk_identity()
    squeezed = eq.Scenario(sc.grid, sc.producers, sc.consumers, sc.fuels, sc.exogenous,
                           eq.Bounds(1.0, 500.0, 1000.0))  # 2 * 1.0 < demand 5
    prob = eq.assemble_consumer(squeezed.consumers[0], squeezed)
    with pytest.raises(InfeasibleError, match="delivery 0"):
        eq.solve_qp(prob, np.zeros(2))


def test_identical_calls_identical_bits(rich_producer):
    prices = np.full(3, 12.0)
    a = eq.solve_qp(rich_producer, prices)
    b = eq.solve_qp(rich_producer, prices)
    assert a.primal.tobytes() == b.primal.tobytes()
    assert a.volumes.tobytes() == b.volumes.tobytes()


def test_objective_value_definition(consumer_problem):
    prices = np.array([1.0, 0.0])
    sol = eq.solve_qp(consumer_problem, prices)
    assert sol.objective == pytest.approx(consumer_problem.objective(sol.primal, prices))


def test_warm_start_from_previous_solution(rich_producer):
    p0 = np.full(3, 11.0)
    cold = eq.solve_qp(rich_producer, p0)
    warm = eq.solve_qp(rich_producer, np.full(3, 11.05), warm_start=cold)
    assert warm.kkt_residual <= 1e-9


# ---- kkt_residual ---------------------------------------------------------

def test_residuals_vanish_at_hand_solution(consumer_problem):
    prices = np.array([1.0, 0.0])
    sol = eq.solve_qp(consumer_problem, prices)
    rep = eq.kkt_residual(consumer_problem, sol)
    assert rep.max_violation <= 1e-12


def test_primal_perturbation_breaks_stationarity(consumer_problem):
    from dataclasses import replace

    prices = np.array([1.0, 0.0])
    sol = eq.solve_qp(consumer_problem, prices)
    bumped = sol.primal.copy()
    bumped[0] += 1e-3
    rep = eq.kkt_residual(consumer_problem, replace(sol, primal=bumped))
    # stationarity moves by |Q row . delta| = 1e-3 for the identity block
    assert rep.stationarity == pytest.approx(1e-3, rel=1e-6)


def test_zero_vector_feasibility_residual(consumer_problem):
    from dataclasses import replace

    sol = eq.solve_qp(consumer_problem, np.zeros(2))
    zeroed = replace(sol, primal=np.zeros(2), eq_duals=np.zeros(1),
                     ineq_duals=np.zeros(4))
    rep = eq.kkt_residual(consumer_problem, zeroed)
    assert rep.primal_equality == pytest.approx(5.0)


def test_duals_respect_sign_and_complementarity(rich_producer):
    sol = eq.solve_qp(rich_producer, np.full(3, 40.0))
    assert sol.ineq_duals.min() >= -1e-12
    slack = rich_producer.ineq_matrix @ sol.primal - rich_producer.ineq_rhs
    assert np.max(np.abs(sol.ineq_duals * slack)) <= 1e-8
    assert slack.max() <= FEAS_TOL


# ---- optimality properties --------------------------------------------------

def _random_feasible(problem, rng):
    """Project a random point onto the equality constraints, then pull it
    toward a strictly feasible anchor until the boxes hold."""
    anchor = eq.solve_qp(problem, np.zeros(problem.n_prices)).primal
    x = anchor + rng.standard_normal(problem.n_vars)
    A = problem.eq_matrix
    x -= A.T @ np.linalg.lstsq(A @ A.T, A @ x - problem.eq_rhs, rcond=None)[0]
    for _ in range(60):
        if (problem.ineq_matrix @ x <= problem.ineq_rhs + 1e-12).all():
            return x
        x = anchor + 0.5 * (x - anchor)
    return anchor


@pytest.mark.parametrize("which", ["producer", "consumer"])
def test_returned_point_beats_random_feasible_points(rich_scenario, which):
    if which == "producer":
        problem = eq.assemble_producer(rich_scenario.producers[0], rich_scenario)
    else:
        problem = eq.assemble_consumer(rich_scenario.consumers[0], rich_scenario)
    rng = np.random.default_rng(42)
    prices = 10.0 + rng.standard_normal(3)
    sol = eq.solve_qp(problem, prices)
    for _ in range(100):
        x = _random_feasible(problem, rng)
        assert problem.objective(x, prices) <= sol.objective + 1e-9


def test_concavity_certificate(rich_producer):
    rng = np.random.default_rng(7)
    prices = np.full(3, 9.0)
    for _ in range(25):
        v1 = _random_feasible(rich_producer, rng)
        v2 = _random_feasible(rich_producer, rng)
        theta = rng.uniform(0.05, 0.95)
        lhs = rich_producer.objective(theta * v1 + (1 - theta) * v2, prices)
        rhs = theta * rich_producer.objective(v1, prices) \
            + (1 - theta) * rich_producer.objective(v2, prices)
        assert lhs >= rhs - 1e-12


def test_piecewise_affine_along_a_segment(rich_producer):
    rng = np.random.default_rng(11)
    base = np.full(3, 10.0)
    direction = rng.standard_normal(3)
    ts = np.linspace(0.0, 4.0, 81)
    vols = np.array([eq.best_response_volumes(rich_producer, base + t * direction)
                     for t in ts])
    fingerprints = [eq.response_jacobian(rich_producer, expected_prices=base + t * direction).selection_id
                    for t in ts]
    second = np.abs(np.diff(vols, n=2, axis=0)).max(axis=1)
    same_piece = [fingerprints[k] == fingerprints[k + 1] == fingerprints[k + 2]
                  for k in range(len(ts) - 2)]
    inside = second[same_piece]
    assert inside.size > 10
    assert inside.max() <= 1e-9


def test_fuel_and_emission_positions_stay_off_their_boxes(rich_scenario, rich_producer):
    rng = np.random.default_rng(13)
    ft = rich_scenario.bounds.f_trade
    im = rich_producer.index_map
    for _ in range(20):
        prices = 12.0 + 4.0 * rng.standard_normal(3)
        sol = eq.solve_qp(rich_producer, prices)
        traded = sol.primal[im.n_v : im.n_traded]
        assert np.abs(traded).max() < ft * (1 - 1e-6)


# ---- response jacobians ------------------------------------------------------

def test_consumer_jacobian_closed_form(consumer_problem):
    rj = eq.response_jacobian(consumer_problem, expected_prices=np.array([1.0, 0.0]))
    np.testing.assert_allclose(rj.matrix, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-12)
    eigs = np.linalg.eigvalsh(0.5 * (rj.matrix + rj.matrix.T))
    np.testing.assert_allclose(eigs, [-1.0, 0.0], atol=1e-12)


def test_consumer_closed_form_matches_general_kkt_path(identity):
    # solve the sensitivity system directly and compare with the shortcut
    prob = eq.assemble_consumer(identity.consumers[0], identity)
    sol = eq.solve_qp(prob, np.array([1.0, 0.0]))
    n = prob.n_vars
    C = prob.eq_matrix
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = prob.quadratic
    K[:n, n:] = C.T
    K[n:, :n] = C
    rhs = np.zeros((n + 1, 2))
    rhs[:2, :2] = -np.eye(2)
    direct = np.linalg.solve(K, rhs)[:2, :]
    rj = eq.response_jacobian(prob, sol)
    np.testing.assert_allclose(rj.matrix, direct, atol=1e-12)


def test_uniform_price_shift_does_not_move_consumer(consumer_problem):
    base = np.array([1.0, 0.0])
    v0 = eq.best_response_volumes(consumer_problem, base)
    v1 = eq.best_response_volumes(consumer_problem, base + 3.7)
    np.testing.assert_allclose(v0, v1, atol=1e-10)
    rj = eq.response_jacobian(consumer_problem, expected_prices=base)
    np.testing.assert_allclose(rj.matrix @ np.ones(2), np.zeros(2), atol=1e-12)


def test_jacobians_negative_semidefinite_and_symmetric(rich_scenario):
    rng = np.random.default_rng(5)
    problems = eq.assemble_all(rich_scenario)
    for _ in range(12):
        prices = 11.0 + 3.0 * rng.standard_normal(3)
        for prob in problems:
            rj = eq.response_jacobian(prob, expected_prices=prices)
            assert np.abs(rj.matrix - rj.matrix.T).max() <= 1e-9
            eig_max = np.linalg.eigvalsh(0.5 * (rj.matrix + rj.matrix.T))[-1]
            assert eig_max <= 1e-9


def test_jacobian_matches_finite_differences(rich_scenario):
    rng = np.random.default_rng(19)
    problems = eq.assemble_all(rich_scenario)
    hits = 0
    for _ in range(10):
        prices = 11.0 + 2.0 * rng.standard_normal(3)
        direction = rng.standard_normal(3)
        for prob in problems:
            rj = eq.response_jacobian(prob, expected_prices=prices)
            if rj.on_boundary:
                continue  # kink: one-sided selections differ
            fd = eq.finite_difference_volumes(prob, prices, direction)
            np.testing.assert_allclose(rj.matrix @ direction, fd, atol=1e-5)
            hits += 1
    assert hits >= 10


def test_selection_fingerprint_tracks_active_set(rich_producer):
    low = eq.response_jacobian(rich_producer, expected_prices=np.full(3, 2.0))
    high = eq.response_jacobian(rich_producer, expected_prices=np.full(3, 60.0))
    assert low.selection_id != high.selection_id


# ---- condensed path against the full QP -------------------------------------

AGREEMENT_MARKETS = {**dict(make_corpus()), "ladder_12": ladder(12)}


def _assert_stored_residuals_bitwise(prob, sol):
    """The residuals stored from the solve's one pass over the rows are the
    recomputed ones bit for bit."""
    again = astuple(eq.kkt_residual(prob, sol))
    assert [v.hex() for v in again] == [v.hex() for v in astuple(sol.residuals)]


def _assert_agrees_with_full_qp(prob, prices, fast):
    full = players._full_solve_qp(prob, prices)
    scale = max(1.0, float(np.max(np.abs(full.primal))))
    np.testing.assert_allclose(fast.primal, full.primal, rtol=0, atol=1e-9 * scale)
    assert fast.active_set == full.active_set
    assert fast.kkt_residual <= 1e-8
    for sol in (fast, full):
        _assert_stored_residuals_bitwise(prob, sol)
    jac = eq.response_jacobian(prob, fast)
    ref = eq.response_jacobian(prob, full)
    strict, _ = players._strict_active(full)
    assert strict == tuple(i for i in full.active_set if full.ineq_duals[i] > STRICT_DUAL_TOL)
    kkt = players._kkt_jacobian(prob, strict)
    assert jac.selection_id == ref.selection_id
    np.testing.assert_allclose(jac.matrix, kkt, rtol=0, atol=1e-9)


def _recorder(monkeypatch, name):
    """Replace players.<name> by a wrapper that records (first argument, result)."""
    calls = []
    inner = getattr(players, name)

    def recording(first, *args, **kwargs):
        out = inner(first, *args, **kwargs)
        calls.append((first, out))
        return out

    monkeypatch.setattr(players, name, recording)
    return calls


def _served(calls):
    """Whether any recorded ``_serve`` step served a point."""
    return any(p is not None for _, (points, _moves) in calls for p in points)


def _bypass_walk(mp):
    """Make every walk step serve nothing and name no next region, so every
    W-QP column goes to the engine, seeded from the first region as before."""
    mp.setattr(players, "_serve", lambda problem, cond, g, *rest: ([None] * g.shape[1],) * 2)


@pytest.mark.parametrize("name", sorted(AGREEMENT_MARKETS))
def test_condensed_path_agrees_with_full_qp(name, monkeypatch):
    sc = AGREEMENT_MARKETS[name]
    market = eq.Market(sc)
    res = eq.solve_equilibrium(sc, market=market)
    rng = np.random.default_rng(31)
    spread = 0.05 * max(1.0, float(np.max(np.abs(res.prices))))
    points = [res.prices] + [res.prices + spread * rng.standard_normal(res.prices.size)
                             for _ in range(10)]
    steps = _recorder(monkeypatch, "_serve")
    for prices in points:
        for prob in market.problems:
            cond = players._condensation(prob)
            assert cond.rec is not None
            # the condensed point itself is accepted, so solve_qp serves it
            p = players._query(prob, prices[:, None])[1]
            assert players._solve_condensed(prob, cond, p, None)[0] is not None
            _assert_agrees_with_full_qp(prob, prices, eq.solve_qp(prob, prices))
    cold = _served(steps)
    # warm pass: each point from the previous point's solution, so the
    # walk starts from the region of that solution's strict rows
    served = _recorder(monkeypatch, "_serve")
    for prob in market.problems:
        warm = eq.solve_qp(prob, points[0])
        for prices in points[1:]:
            warm = eq.solve_qp(prob, prices, warm_start=warm)
            _assert_agrees_with_full_qp(prob, prices, warm)
    # every market is served by a region somewhere from the warm start's
    # strict rows, and from the cold start's tied rows where it has a
    # unique-W producer (a non-unique W does not walk from its cold start)
    unique = any(players._condensation(p).w_unique for p in market.problems
                 if p.kind == "producer")
    assert cold == unique
    assert _served(served)


def test_walk_through_dependent_rows_is_served_by_a_region(rich_producer, monkeypatch):
    low = eq.solve_qp(rich_producer, np.full(3, 2.0))
    strict, _ = players._strict_active(low)
    cond = players._condensation(rich_producer)
    assert strict and all(i in cond.w_pos for i in strict)
    steps = _walk_steps(monkeypatch)
    engine = _recorder(monkeypatch, "solve_qp_active_set")
    prices = np.full(3, 60.0)
    sol = eq.solve_qp(rich_producer, prices, warm_start=low)
    # the idle selection does not hold at high prices: its region is tried
    # and fails to certify; the walk passes the dependent rows (0, 3, 4, 6, 8),
    # 5 rows on 4 W variables, whose null-space map names the next region,
    # and the last region serves without the engine
    walked = [rows for rows, _, _ in steps]
    assert walked[0] == strict and (0, 3, 4, 6, 8) in walked
    assert all(served == [None] for _, served, _ in steps[:-1])
    assert steps[-1][1][0] is not None and not engine
    _assert_agrees_with_full_qp(rich_producer, prices, sol)
    assert sol.active_set != low.active_set


def test_non_unique_production_is_served_at_the_min_norm_point(monkeypatch):
    market = eq.Market(AGREEMENT_MARKETS["twin_plants"])
    prob = next(p for p in market.problems if p.name == "producer1")
    cond = players._condensation(prob)
    assert not cond.w_unique
    res = eq.solve_equilibrium(market.scenario, market=market)
    min_norm = players._min_norm_production
    served = _recorder(monkeypatch, "_serve")
    stages = _recorder(monkeypatch, "_min_norm_production")
    rng = np.random.default_rng(3)
    for _ in range(20):
        prices = res.prices * (1.0 + 0.05 * rng.standard_normal(res.prices.size))
        sol = market.solutions(prices)[market.problems.index(prob)]
        again = min_norm(prob, cond, sol.primal)
        scale = max(1.0, float(np.max(np.abs(sol.primal))))
        np.testing.assert_allclose(again, sol.primal, rtol=0, atol=1e-9 * scale)
    # the warm start's region serves every point in one step (a non-unique W
    # does not walk), and no second stage runs
    steps = [points for p, (points, _moves) in served if p is prob]
    assert len(steps) == 20 and all(points[0] is not None for points in steps)
    assert not stages


def test_each_engine_column_is_canonicalized_once(monkeypatch):
    # twin plants: the W-QPs of the cold solves run on the engine; each
    # point is finished by _solution alone, which reads the active set and
    # the canonical multipliers once
    canonical = _recorder(monkeypatch, "_canonical_duals")
    engine = _recorder(monkeypatch, "_solve_w_qp")
    assert eq.solve_equilibrium(AGREEMENT_MARKETS["twin_plants"]).converged
    assert engine and len(canonical) == len(engine)


def test_residuals_are_taken_at_the_point_the_min_norm_stage_returns(monkeypatch):
    # twin plants: where the second stage moves W, the rows taken to accept
    # the condensed point are stale and must be taken again; it runs after
    # the engine, on the cold solves whose strict rows do not pin W
    market = eq.Market(AGREEMENT_MARKETS["twin_plants"])
    centre = eq.solve_equilibrium(market.scenario, market=market).prices
    moved = []
    inner = players._min_norm_production

    def recording(problem, cond, x):
        out = inner(problem, cond, x)
        moved.append(not np.array_equal(out, x))
        return out

    monkeypatch.setattr(players, "_min_norm_production", recording)
    rng = np.random.default_rng(7)
    for _ in range(100):
        prices = centre + 0.3 * float(np.max(np.abs(centre))) * rng.standard_normal(centre.size)
        for prob, sol in zip(market.problems, market.solutions(prices)):
            _assert_stored_residuals_bitwise(prob, sol)
            _assert_stored_residuals_bitwise(prob, eq.solve_qp(prob, prices))
    assert any(moved)


@pytest.mark.parametrize("name", ["three_by_three", "ladder_12"])
def test_each_problem_holds_at_most_one_region(name):
    market = eq.Market(AGREEMENT_MARKETS[name])
    res = eq.solve_equilibrium(market.scenario, market=market)
    rng = np.random.default_rng(50)
    spread = 0.3 * max(1.0, float(np.max(np.abs(res.prices))))
    selections = set()
    for _ in range(50):
        sel = market.selection(res.prices + spread * rng.standard_normal(res.prices.size))
        sols = sel.sols
        sel.jacobian  # each player's sensitivity, read from its region
        for prob, sol in zip(market.problems, sols):
            selections.add((prob.name, players._strict_active(sol)[0]))
    assert len(selections) > len(market.problems)  # the slot was replaced
    assert all(len(players._condensation(p).region) <= 1 for p in market.problems)


@pytest.mark.parametrize("name", sorted(dict(make_corpus())))
def test_min_norm_stage_is_the_identity_for_unique_production(name):
    sc = AGREEMENT_MARKETS[name]
    market = eq.Market(sc)
    res = eq.solve_equilibrium(sc, market=market)
    rng = np.random.default_rng(17)
    points = [res.prices] + [res.prices * (1.0 + 0.05 * rng.standard_normal(res.prices.size))
                             for _ in range(5)]
    for prob in market.problems:
        cond = players._condensation(prob)
        if prob.kind != "producer" or not cond.w_unique:
            continue
        for prices in points:
            x = eq.solve_qp(prob, prices).primal
            out = players._min_norm_production(prob, cond, x)
            assert out.tobytes() == x.tobytes()


def test_binding_trading_box_falls_back_to_full_qp():
    # validation would reject a v_trade this small; the QP does not care
    sc = build_scenario(seed=5, sizes=(2, 2), fuels={"gas": 0.5},
                        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
                        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.4, bound_factor=0.1)
    prob = eq.assemble_producer(sc.producers[0], sc)
    prices = np.full(4, 50.0)
    cond = players._condensation(prob)
    assert cond.rec is not None
    assert players._solve_condensed(prob, cond, players._query(prob, prices[:, None])[1],
                                    None) == [None]
    sol = eq.solve_qp(prob, prices)
    boxes = {"v_upper", "v_lower", "f_upper", "f_lower", "o_upper", "o_lower"}
    assert any(prob.ineq_labels[i][0] in boxes for i in sol.active_set)
    full = players._full_solve_qp(prob, prices)
    assert sol.primal.tobytes() == full.primal.tobytes()
    assert sol.active_set == full.active_set
    assert sol.kkt_residual <= 1e-8


def test_trading_box_selections_match_finite_differences():
    # the producer of test_binding_trading_box_falls_back_to_full_qp: a strict
    # trading-box row leaves the W-QP, so dV/dpi is the full problem's
    # null-space projection, checked against central differences
    sc = build_scenario(seed=5, sizes=(2, 2), fuels={"gas": 0.5},
                        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
                        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.4, bound_factor=0.1)
    prob = eq.assemble_producer(sc.producers[0], sc)
    boxes = {"v_upper", "v_lower", "f_upper", "f_lower", "o_upper", "o_lower"}
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(400):
        prices = rng.uniform(-20.0, 80.0, 4)
        rj = eq.response_jacobian(prob, expected_prices=prices)
        if rj.on_boundary or not any(prob.ineq_labels[i][0] in boxes for i in rj.selection_id):
            continue
        checked += 1
        for direction in np.eye(4):
            fd = eq.finite_difference_volumes(prob, prices, direction)
            assert float(np.max(np.abs(rj.matrix @ direction - fd))) <= FD_TOL
    assert checked


@pytest.mark.parametrize("which", ["producer", "consumer"])
def test_non_finite_condensed_point_falls_back(rich_scenario, monkeypatch, which):
    prob = next(p for p in eq.assemble_all(rich_scenario) if p.kind == which)
    cond = players._condensation(prob)
    poisoned = replace(cond, rec=np.full_like(cond.rec, np.nan))
    monkeypatch.setattr(players, "_condensation", lambda problem: poisoned)
    prices = np.full(3, 12.0)
    sol = eq.solve_qp(prob, prices)
    assert np.all(np.isfinite(sol.primal))
    assert np.all(np.isfinite(sol.eq_duals)) and np.all(np.isfinite(sol.ineq_duals))
    full = players._full_solve_qp(prob, prices)
    assert sol.primal.tobytes() == full.primal.tobytes()


@pytest.mark.parametrize("name", ["two_fuels", "tight_ramps", "three_producers"])
def test_pinned_totals_are_served_by_the_full_qp(monkeypatch, name):
    sc = AGREEMENT_MARKETS[name]
    prices = eq.merit_order_prices(sc)
    producers = [eq.assemble_producer(p, sc) for p in sc.producers]
    assert all(players._condensation(prob).rec is not None for prob in producers)
    built = []
    condense = players._condense

    def recording(problem):
        built.append(condense(problem))
        return built[-1]

    monkeypatch.setattr(players, "_condense", recording)
    for prob in producers:
        volumes = eq.solve_qp(prob, prices).volumes
        sol = producer_solution_with_fixed_totals(
            prob, prices, delivery_totals_matrix(sc.grid) @ volumes)
        assert sol.kkt_residual <= 1e-8
    # each restricted copy repeats the volume rows, so S is singular (its
    # Cholesky factor fails or leaves a pivot near roundoff): it is condensed
    # afresh, inheriting nothing from the original, and has no map
    assert len(built) == len(producers) and all(cond.rec is None for cond in built)


def test_batched_active_sets_match_the_column_loop(rich_producer):
    prob = rich_producer
    sols = eq.solve_qp_many(prob, np.linspace(2.0, 60.0, 7)[None, :].repeat(3, axis=0))
    slack = prob.ineq_rhs[:, None] - prob.ineq_matrix @ np.array([s.primal for s in sols]).T
    tol = FEAS_TOL * np.maximum(1.0, np.abs(prob.ineq_rhs))

    def loop():
        return [tuple(np.flatnonzero(slack[:, c] <= tol).tolist()) for c in range(slack.shape[1])]

    assert [s.active_set for s in sols] == loop()
    assert len({s.active_set for s in sols}) > 1
    slack[:, 0] = tol  # on the tolerance counts as active
    slack[:, 1] = np.nextafter(tol, np.inf)
    cond = players._condensation(prob)
    assert players._active_sets(cond, slack) == loop()
    assert players._active_sets(cond, slack[:, :0]) == []
    assert loop()[0] == tuple(range(prob.ineq_rhs.size)) and loop()[1] == ()


def _without_last_variance(sc):
    """``sc`` with the last row and column of its stacked covariance zeroed
    (the last emission price): Sigma has no Cholesky factor, q1 keeps one."""
    cov = sc.exogenous.covariance
    q2, q3 = cov.q2.copy(), cov.q3.copy()
    q2[:, -1] = 0.0
    q3[-1, :] = 0.0
    q3[:, -1] = 0.0
    singular = CovarianceBlocks(cov.q1, q2, q3)
    return replace(sc, exogenous=replace(sc.exogenous, covariance=singular))


def test_producer_without_a_covariance_factor_is_served_by_the_full_qp():
    sc = _without_last_variance(AGREEMENT_MARKETS["n1_single"])
    prob = next(p for p in eq.assemble_all(sc) if p.kind == "producer")
    assert prob.cov_inverse is None
    cond = players._condensation(prob)
    assert cond.rec is None and not cond.w_unique
    # the record still holds the W rows and the row tolerances
    w_rows = [i for i, label in enumerate(prob.ineq_labels)
              if label[0] in ("ramp_up", "ramp_down", "cap_upper", "cap_lower")]
    assert w_rows and cond.w_rows.tolist() == w_rows
    assert cond.w_pos == {r: k for k, r in enumerate(w_rows)}
    assert cond.tols[0] == FEAS_TOL * max(1.0, float(np.max(np.abs(prob.eq_rhs))))
    ineq_tols = FEAS_TOL * np.maximum(1.0, np.abs(prob.ineq_rhs))
    assert cond.tols[1].tobytes() == ineq_tols.tobytes()
    for prices in (eq.merit_order_prices(sc), np.array([0.0]), np.array([40.0])):
        sol = eq.solve_qp(prob, prices)
        full = players._full_solve_qp(prob, prices)
        for name in ("primal", "eq_duals", "ineq_duals"):
            assert getattr(sol, name).tobytes() == getattr(full, name).tobytes()
        assert sol.active_set == full.active_set
        assert np.all(np.isfinite(eq.response_jacobian(prob, sol).matrix))
    report = eq.validate_scenario(sc)
    assert "covariance_pd" in [c.name for c in report.failures()]


def test_players_share_one_covariance_inverse(rich_scenario):
    market = eq.Market(rich_scenario)
    producers = [p for p in market.problems if p.kind == "producer"]
    consumers = [p for p in market.problems if p.kind == "consumer"]
    blocks = rich_scenario.covariance_blocks()
    assert all(p.cov_inverse is blocks.stacked_inverse() for p in producers)
    assert all(p.cov_inverse is blocks.q1_inverse() for p in consumers)
    for p in market.problems:
        eq.solve_qp(p, np.full(3, 12.0))


# ---- the seeded W-QP -------------------------------------------------------

def _rerun_from_fallback_seed(mp, problems, start):
    """Make every W-QP of ``problems`` run a second time from the seed used
    where no region can serve, the W rows of the warm start's active set
    (none from a cold start), and check both give the same W, or the same
    A_w W where W is not unique.

    ``start[0]`` is the warm start of the solve under way.  Returns a list
    that records, per W-QP, whether the two seeds differed.
    """
    hessians = {id(players._condensation(p).hessian): p for p in problems
                if players._condensation(p).rec is not None}
    engine = players.solve_qp_active_set
    differs = []
    _bypass_walk(mp)

    def both_seeds(G, g, A, a, B, b, x0, working_set=()):
        res = engine(G, g, A, a, B, b, x0, working_set=working_set)
        prob = hessians.get(id(G))
        if prob is not None:
            cond = players._condensation(prob)
            warm = start[0]
            fallback = [] if warm is None else [cond.w_pos[i] for i in warm.active_set
                                                 if i in cond.w_pos]
            ref = engine(G, g, A, a, B, b, x0, working_set=fallback)
            # a W that is not unique is compared through A_w W, which is
            a_w = np.eye(G.shape[0]) if cond.w_unique else cond.a_w
            scale = max(1.0, float(np.max(np.abs(a_w @ ref.x))))
            np.testing.assert_allclose(a_w @ res.x, a_w @ ref.x, rtol=0, atol=1e-9 * scale)
            differs.append(sorted(working_set) != fallback)
        return res

    mp.setattr(players, "solve_qp_active_set", both_seeds)
    return differs


def _solve_cold_and_warm(problems, warms, points, start):
    for prices in points:
        for prob, warm in zip(problems, warms):
            for start[0] in (None, warm):
                sol = eq.solve_qp(prob, prices, warm_start=start[0])
                _assert_agrees_with_full_qp(prob, prices, sol)


@pytest.mark.parametrize("name", sorted(AGREEMENT_MARKETS))
def test_seeded_w_qp_agrees_with_the_fallback_seed_and_the_full_qp(name, monkeypatch):
    market = eq.Market(AGREEMENT_MARKETS[name])
    centre = eq.solve_equilibrium(market.scenario, market=market).prices
    warms = [eq.solve_qp(p, centre) for p in market.problems]
    start = [None]
    differs = _rerun_from_fallback_seed(monkeypatch, market.problems, start)
    rng = np.random.default_rng(41)
    spread = max(1.0, float(np.max(np.abs(centre))))
    for radius in (0.05, 0.5):
        points = centre + radius * spread * rng.standard_normal((3, centre.size))
        _solve_cold_and_warm(market.problems, warms, points, start)
    assert differs  # the engine ran


def test_ladder_dispatch_work(monkeypatch):
    # the region walk serves every W-QP of the three benchmark ladders, the
    # dependent row set that once sent ladder_24 to the engine included
    iterations = []
    engine = players.solve_qp_active_set

    def counting(*args, **kwargs):
        res = engine(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(players, "solve_qp_active_set", counting)
    for n in (12, 24, 48):
        assert eq.solve_equilibrium(ladder(n)).converged
    assert (len(iterations), sum(iterations)) == (0, 0)


@st.composite
def small_markets(draw):
    """A small market and two price points around its merit-order prices."""
    sizes = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    plant = st.tuples(st.sampled_from(["coal", "gas"]), st.floats(2.0, 10.0),
                      st.floats(0.5, 10.0), st.floats(1.0, 2.5))
    producers = draw(st.lists(st.tuples(st.floats(0.5, 2.0), st.lists(plant, min_size=1, max_size=2)),
                              min_size=1, max_size=2))
    n_cons = draw(st.integers(1, 2))
    sc = build_scenario(
        seed=draw(st.integers(0, 99)), sizes=sizes, fuels={"coal": 0.9, "gas": 0.5},
        producers=[(lam, [(f, cap, ramp, -ramp, eff) for f, cap, ramp, eff in plants])
                   for lam, plants in producers],
        consumers=[(draw(st.floats(0.5, 2.0)), 1.0 / n_cons, 0.0) for _ in range(n_cons)],
        demand_frac=draw(st.floats(0.2, 0.7)))
    centre = eq.merit_order_prices(sc)
    shifts = st.lists(st.floats(-0.5, 0.5), min_size=centre.size, max_size=centre.size)
    return sc, [centre * (1.0 + np.array(draw(shifts))) for _ in range(2)]


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_markets())
def test_seeded_w_qp_agrees_on_generated_markets(market):
    sc, (first, second) = market
    problems = [eq.assemble_producer(p, sc) for p in sc.producers]
    start = [None]
    with pytest.MonkeyPatch.context() as mp:
        differs = _rerun_from_fallback_seed(mp, problems, start)
        warms = [eq.solve_qp(p, first) for p in problems]
        _solve_cold_and_warm(problems, warms, [second], start)
    assert differs


def test_walked_points_agree_on_generated_markets():
    served = []

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_markets())
    def walk(market):
        sc, (first, second) = market
        problems = [eq.assemble_producer(p, sc) for p in sc.producers]
        with pytest.MonkeyPatch.context() as mp:
            steps = _recorder(mp, "_serve")
            warms = [eq.solve_qp(p, first) for p in problems]
            _solve_cold_and_warm(problems, warms, [second], [None])
        served.append(_served(steps))

    walk()
    assert any(served)


@st.composite
def fuel_pair_markets(draw):
    """A small market whose one producer owns a pair of plants of one fuel,
    identical or with distinct efficiencies, and maybe a pair of the other
    fuel (four plants on the power, fuel and emission rows: W is not unique
    even with distinct efficiencies), and two price points around its
    merit-order prices."""
    sizes = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    plant = st.tuples(st.floats(2.0, 10.0), st.floats(0.5, 10.0), st.floats(1.0, 2.5))
    plants = []
    for fuel in draw(st.sampled_from([("coal",), ("gas",), ("coal", "gas")])):
        cap, ramp, eff = draw(plant)
        if draw(st.booleans()):
            pair = [(cap, ramp, eff)] * 2
        else:
            other = draw(plant)
            pair = [(cap, ramp, eff), (*other[:2], eff * draw(st.floats(1.1, 1.5)))]
        plants += [(fuel, c, r, -r, e) for c, r, e in pair]
    sc = build_scenario(
        seed=draw(st.integers(0, 99)), sizes=sizes, fuels={"coal": 0.9, "gas": 0.5},
        producers=[(draw(st.floats(0.5, 2.0)), plants)], consumers=[(1.0, 1.0, 0.0)],
        demand_frac=draw(st.floats(0.2, 0.7)))
    centre = eq.merit_order_prices(sc)
    shifts = st.lists(st.floats(-0.5, 0.5), min_size=centre.size, max_size=centre.size)
    return sc, [centre * (1.0 + np.array(draw(shifts))) for _ in range(2)]


def test_plants_of_one_fuel_match_the_full_qp_and_the_min_norm_stage():
    # cold and warm: the served volumes are the full QP's, W is the second
    # stage's minimum-norm W at the full QP's own point, and the selection
    # is the same; some non-unique W is served by its region
    served = []

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fuel_pair_markets())
    def check(market):
        sc, (first, second) = market
        prob = eq.assemble_producer(sc.producers[0], sc)
        cond = players._condensation(prob)
        full = players._full_solve_qp(prob, second)
        x = players._solve_full(prob, prob.merged_linear(second), None)[0]
        w_ref = players._min_norm_production(prob, cond, x)[cond.n_t:]
        scale = max(1.0, float(np.max(np.abs(full.primal))))
        selection = eq.response_jacobian(prob, full).selection_id
        with pytest.MonkeyPatch.context() as mp:
            steps = _recorder(mp, "_serve")
            warm = eq.solve_qp(prob, first)
            for start in (None, warm):
                sol = eq.solve_qp(prob, second, warm_start=start)
                np.testing.assert_allclose(sol.volumes, full.volumes, rtol=0, atol=1e-9 * scale)
                np.testing.assert_allclose(sol.primal[cond.n_t:], w_ref, rtol=0, atol=1e-9 * scale)
                assert eq.response_jacobian(prob, sol).selection_id == selection
        served.append(not cond.w_unique and _served(steps))

    check()
    assert any(served)


# ---- the region walk ---------------------------------------------------------

def _walk_steps(monkeypatch):
    """Replace players._serve by a wrapper that records (region rows, served,
    next rows) of every walk step, and return that list."""
    steps = []
    inner = players._serve

    def recording(problem, cond, p, region, z):
        served, moves = inner(problem, cond, p, region, z)
        steps.append((region.rows, served, moves))
        return served, moves

    monkeypatch.setattr(players, "_serve", recording)
    return steps


def test_repeated_row_set_hands_the_column_to_the_engine(rich_producer, monkeypatch):
    low = eq.solve_qp(rich_producer, np.full(3, 2.0))
    first, _ = players._strict_active(low)
    inner = players._serve

    def cycling(problem, cond, p, region, z):
        # the walk from the first region to no rows and back
        served, _ = inner(problem, cond, p, region, z)
        return served, [() if region.rows == first else first] * p.shape[1]

    monkeypatch.setattr(players, "_serve", cycling)
    steps = _walk_steps(monkeypatch)
    engine = _recorder(monkeypatch, "_solve_w_qp")
    prices = np.full(3, 60.0)
    sol = eq.solve_qp(rich_producer, prices, warm_start=low)
    assert [rows for rows, _, _ in steps] == [first, ()]
    assert all(served == [None] for _, served, _ in steps)
    assert len(engine) == 1
    _assert_agrees_with_full_qp(rich_producer, prices, sol)


def test_walked_columns_keep_their_own_prices(rich_producer, monkeypatch):
    # columns reach the region X out of order: the first region F sends
    # columns 0 and 2 to X and column 1 to B, and B sends column 1 on to X,
    # so X holds the columns 0, 2, 1; each must get the point of its prices
    warm = eq.solve_qp(rich_producer, np.full(3, 2.0))
    first = players._strict_active(warm)[0]
    detour = players._strict_active(eq.solve_qp(rich_producer, np.full(3, 10.0)))[0]
    columns = np.array([[19.0, 20.0, 21.0]] * 3) + np.array([[0.0], [0.3], [-0.2]])
    alone = [eq.solve_qp(rich_producer, columns[:, c], warm_start=warm) for c in range(3)]
    target = players._strict_active(alone[0])[0]
    assert all(players._strict_active(sol)[0] == target for sol in alone)
    assert len({first, detour, target}) == 3
    p_all = players._query(rich_producer, columns)[1]
    inner = players._serve

    def steering(problem, cond, p, region, z):
        if region.rows == target:
            return inner(problem, cond, p, region, z)
        ids = [next(c for c in range(3) if np.array_equal(p[:, k], p_all[:, c]))
               for k in range(p.shape[1])]
        moves = {first: {0: target, 1: detour, 2: target}, detour: {1: target}}[region.rows]
        return [None] * len(ids), [moves[c] for c in ids]

    monkeypatch.setattr(players, "_serve", steering)
    steps = _walk_steps(monkeypatch)
    engine = _recorder(monkeypatch, "_solve_w_qp")
    sols = players.solve_qp_many(rich_producer, columns, warm_start=warm)
    assert [rows for rows, _, _ in steps] == [first, detour, target]
    assert all(point is not None for point in steps[-1][1]) and not engine
    for sol, ref in zip(sols, alone):
        assert sol.active_set == ref.active_set
        np.testing.assert_allclose(sol.primal, ref.primal, rtol=0, atol=1e-9)
        np.testing.assert_allclose(sol.ineq_duals, ref.ineq_duals, rtol=0, atol=1e-9)


def _small_cov_vertex():
    """small_cov's producer2 (ramp_down = -capacity) at full output in
    delivery 0 and none in delivery 1: ramp_down(0), cap_upper(0) and
    cap_lower(1) are tied on its 2 W variables, so its multipliers are not
    unique.  Returns the market, the problem, the prices and those rows."""
    market = eq.Market(AGREEMENT_MARKETS["small_cov"])
    prob = next(p for p in market.problems if p.name == "producer2")
    rows = tuple(prob.ineq_row(label) for label in (
        ("ramp_down", 0, "gas", 0), ("cap_upper", 0, "gas", 0), ("cap_lower", 1, "gas", 0)))
    return market, prob, np.array([40.0, 40.0, 1.0]), rows


def test_tied_row_outside_the_region_hands_the_column_to_the_engine(monkeypatch):
    market, prob, prices, vertex = _small_cov_vertex()
    centre = eq.solve_equilibrium(market.scenario, market=market).prices
    warm = eq.solve_qp(prob, centre)
    steps = _walk_steps(monkeypatch)
    engine = _recorder(monkeypatch, "_solve_w_qp")
    for start in (None, warm):
        steps.clear()
        engine.clear()
        sol = eq.solve_qp(prob, prices, warm_start=start)
        # the last region certifies its point, but a vertex row outside it is tied
        rows, served, moves = steps[-1]
        assert served == [None] and moves == [None]
        assert set(rows) < set(vertex)
        assert len(engine) == 1
        assert sol.active_set == vertex
        _assert_agrees_with_full_qp(prob, prices, sol)


def test_degenerate_vertex_multipliers_are_the_minimum_norm_ones():
    _, prob, prices, vertex = _small_cov_vertex()
    cond = players._condensation(prob)
    b_t = cond.b_w[[cond.w_pos[i] for i in vertex]]
    null = np.linalg.svd(b_t.T)[2][-1]  # B_T' e = r leaves one direction free
    for sol in (eq.solve_qp(prob, prices), players._full_solve_qp(prob, prices)):
        eta = sol.ineq_duals[list(vertex)]
        assert sol.active_set == vertex and np.all(eta >= 0.0)
        # the nearest point to 0 on the line eta + t null, kept nonnegative
        with np.errstate(divide="ignore"):
            bounds = -eta / null
        t = np.clip(-float(eta @ null), np.max(bounds[null > 0.0], initial=-np.inf),
                    np.min(bounds[null < 0.0], initial=np.inf))
        assert abs(t) <= 1e-12 * float(np.max(eta))
        assert players._strict_active(sol)[0] == vertex[:2]


def test_jittered_small_cov_picks_one_selection_on_every_path(monkeypatch):
    # moving the small_cov equilibrium by up to 2 ulp per price moves the
    # last radius-0.5 point of the draws in
    # test_seeded_w_qp_agrees_with_the_fallback_seed_and_the_full_qp across
    # the vertex of _small_cov_vertex; every path must pick its one selection
    market, prob, _, _ = _small_cov_vertex()
    centre = eq.solve_equilibrium(market.scenario, market=market).prices
    jitter = np.random.default_rng(0)
    for _ in range(200):
        moved = centre.copy()
        for k, ulps in enumerate(jitter.integers(-2, 3, centre.size)):
            for _ in range(abs(int(ulps))):
                moved[k] = np.nextafter(moved[k], np.copysign(np.inf, ulps))
        rng = np.random.default_rng(41)
        spread = max(1.0, float(np.max(np.abs(moved))))
        for radius in (0.05, 0.5):
            points = moved + radius * spread * rng.standard_normal((3, moved.size))
        prices = points[-1]
        full = eq.response_jacobian(prob, players._full_solve_qp(prob, prices)).selection_id
        warm = eq.solve_qp(prob, moved)
        with pytest.MonkeyPatch.context() as mp:
            for bypass in (False, True):
                if bypass:
                    _bypass_walk(mp)
                for start in (None, warm):
                    sol = eq.solve_qp(prob, prices, warm_start=start)
                    assert eq.response_jacobian(prob, sol).selection_id == full


# ---- range-space region maps ----------------------------------------------

def _reduced_kkt_region(problem, cond, rows):
    """(coef, jacobian) of the region of ``rows`` from one least-squares solve
    of the reduced KKT system [H B_s'; B_s 0] (W, eta_s) = (-A_w' mu0(pi), b_s):
    an independent build that the region maps are checked against.  Its
    kernel is (null(H) & null(B_s)) x null(B_s'), so where W or eta is not
    unique the minimum-norm solution holds the minimum-norm W and eta."""
    n_p, lam = problem.n_prices, problem.risk_aversion
    n_w = cond.a_w.shape[1]
    pos = [cond.w_pos[i] for i in rows]
    b_s = cond.b_w[pos]
    k = n_w + len(pos)
    K = np.zeros((k, k))
    K[:n_w, :n_w] = cond.hessian
    K[:n_w, n_w:] = b_s.T
    K[n_w:, :n_w] = b_s
    m = problem.eq_matrix[:, : cond.n_t] @ problem.cov_inverse  # A_t Sigma^-1
    s_inv = np.linalg.inv(m @ problem.eq_matrix[:, : cond.n_t].T / lam)
    d_mu = s_inv @ m[:, :n_p] / lam
    mu_zero = -s_inv @ (problem.eq_rhs + m @ problem.linear[: cond.n_t] / lam)
    rhs = np.zeros((k, 1 + n_p))
    rhs[:n_w, 0] = -cond.a_w.T @ mu_zero
    rhs[n_w:, 0] = problem.ineq_rhs[cond.w_rows[pos]]
    rhs[:n_w, 1:] = cond.a_w.T @ d_mu
    sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    d_mu = -d_mu + s_inv @ (cond.a_w @ sol[:n_w, 1:])
    jacobian = -(problem.cov_inverse[:n_p, :n_p] + m[:, :n_p].T @ d_mu) / lam
    return sol, jacobian


def _curvature(problem, cond):
    """The scale of dV/dpi's terms, Sigma^-1 / lambda on the prices: an entry
    of dV/dpi can cancel to roundoff."""
    n_p = problem.n_prices
    return float(np.max(np.abs(problem.cov_inverse[:n_p, :n_p]))) / problem.risk_aversion


def _assert_close(value, ref, scale=0.0):
    """``value`` within 1e-10 of ``ref``, relative to the larger of ``scale``
    and the largest entry of ``ref``."""
    scale = max(scale, float(np.max(np.abs(ref), initial=0.0)))
    assert value.shape == ref.shape
    assert float(np.max(np.abs(value - ref), initial=0.0)) <= 1e-10 * scale


def _built_regions(monkeypatch):
    """Record every region built, as (problem, rows, region)."""
    built = []
    inner = players._region

    def recording(problem, cond, rows):
        slot = cond.region
        fresh = not (slot and slot[0].rows == rows)
        region = inner(problem, cond, rows)
        if fresh:
            built.append((problem, rows, region))
        return region

    monkeypatch.setattr(players, "_region", recording)
    return built


SOLVED_MARKETS = {**dict(make_corpus()), **{f"ladder_{n}": ladder(n) for n in (12, 24, 48)}}


def test_region_maps_agree_with_the_reduced_kkt_build(monkeypatch):
    built = _built_regions(monkeypatch)
    for sc in SOLVED_MARKETS.values():
        assert eq.solve_equilibrium(sc).converged
    monkeypatch.undo()  # the Jacobians below build regions too: stop recording
    dependent = served = twins = 0
    for problem, rows, region in built:
        cond = players._condensation(problem)
        coef, jacobian = _reduced_kkt_region(problem, cond, rows)
        jac = players._condensed_jacobian(problem, cond, rows)
        _assert_close(jac, jacobian, _curvature(problem, cond))
        # every region has a map: the null-space build's minimum-norm W and
        # eta where either is not unique
        _assert_close(region.coef, coef)
        if not cond.w_unique:
            twins += 1
        elif np.linalg.matrix_rank(cond.b_w[region.pos]) < len(rows):
            dependent += 1
        else:
            served += 1
    # three_by_three's producer2 walks into (0, 3, 4), 3 rows on 2 W variables
    assert served > 100 and dependent and twins


def test_dependent_rows_take_the_null_space_map(rich_producer):
    # 5 rows on 4 W variables: a step of the walk at prices 60 from a warm
    # start at prices 2 (see the walk test above)
    rows = (0, 3, 4, 6, 8)
    cond = players._condensation(rich_producer)
    b_s = cond.b_w[[cond.w_pos[i] for i in rows]]
    rank = np.linalg.matrix_rank(b_s)
    assert cond.w_unique and rank < len(rows)
    cond.region.clear()
    region = players._region(rich_producer, cond, rows)
    n_w = cond.a_w.shape[1]
    w, eta = region.coef[:n_w], region.coef[n_w:]
    assert region.eta_err.shape == eta.shape and np.all(region.eta_err >= 0.0)
    # W is unique; eta is the minimum-norm solution of its stationarity,
    # orthogonal to the null space of B_s'
    coef, jacobian = _reduced_kkt_region(rich_producer, cond, rows)
    _assert_close(region.coef, coef)
    _assert_close(b_s.T @ eta, cond.w_lin - cond.hessian @ w)
    null = np.linalg.svd(b_s.T)[2][rank:]
    _assert_close(null @ eta, np.zeros_like(null @ eta), float(np.max(np.abs(eta))))
    jac = players._condensed_jacobian(rich_producer, cond, rows)
    _assert_close(jac, jacobian, _curvature(rich_producer, cond))


# engine runs per solve_equilibrium since the null-space build serves regions
# with a non-unique W or dependent rows (twin_plants: the W-QP and the second
# stage of its two cold solves); a later change may lower a count, never raise it
ENGINE_RUNS = {"twin_plants": 4}


@pytest.mark.parametrize("name", sorted(SOLVED_MARKETS))
def test_engine_runs_per_solve_do_not_grow(name, monkeypatch):
    engine = _recorder(monkeypatch, "solve_qp_active_set")
    assert eq.solve_equilibrium(SOLVED_MARKETS[name]).converged
    assert len(engine) <= ENGINE_RUNS.get(name, 0)


def test_twin_plants_uniqueness_check_runs_no_engine(monkeypatch):
    # every sampled column warm-starts from the equilibrium, and its strict
    # rows' null-space region serves it
    sc = SOLVED_MARKETS["twin_plants"]
    market = eq.Market(sc)
    res = eq.solve_equilibrium(sc, market=market)
    engine = _recorder(monkeypatch, "solve_qp_active_set")
    diag = eq.check_uniqueness(sc, res, n_samples=16, market=market)
    assert len(diag.monotonicity_samples) == 16 and diag.monotonicity_all_negative
    assert not engine


def test_degenerate_cold_start_is_served_by_its_region(monkeypatch):
    # n1_single's producer1 starts cold at prices where its unconstrained
    # optimum is W = 0, with the lower bound row 1 tied: the multiplier of
    # that row is zero up to the roundoff of its solve, so the region serves
    market = eq.Market(SOLVED_MARKETS["n1_single"])
    prob = next(p for p in market.problems if p.name == "producer1")
    steps = _walk_steps(monkeypatch)
    engine = _recorder(monkeypatch, "solve_qp_active_set")
    cond = players._condensation(prob)
    prices = np.array([5.5])
    cond.region.clear()
    region = players._region(prob, cond, (1,))
    eta = float(region.coef[-1] @ np.concatenate(([1.0], prices)))
    err = float(region.eta_err[-1] @ np.concatenate(([1.0], prices)))
    assert abs(eta) <= err  # a degenerate vertex, up to roundoff
    sol = eq.solve_qp(prob, prices)
    assert [rows for rows, _, _ in steps] == [(1,)] and steps[0][1][0] is not None
    assert not engine and sol.ineq_duals[1] == 0.0
    _assert_agrees_with_full_qp(prob, prices, sol)


# ---- the recovery map -------------------------------------------------------

def _recovery_chain(problem, prices, w):
    """[t; mu] at (pi, W) by the chain of products that ``rec`` composes,
    built from the problem's Sigma^-1 and rows alone:
    mu = -S^-1 (a + A_t Sigma^-1 g_t / lambda) + S^-1 A_w W and
    t = -(Sigma^-1 g_t + (A_t Sigma^-1)' mu) / lambda."""
    n_t, lam = problem.n_vars - problem.index_map.n_w, problem.risk_aversion
    a_t, a_w = problem.eq_matrix[:, :n_t], problem.eq_matrix[:, n_t:]
    m = a_t @ problem.cov_inverse
    s_inv = np.linalg.inv(m @ a_t.T / lam)
    g_t = problem.merged_linear(prices)[:n_t]
    mu = -s_inv @ (problem.eq_rhs + m @ g_t / lam) + s_inv @ (a_w @ w)
    return np.concatenate((-(problem.cov_inverse @ g_t + m.T @ mu) / lam, mu))


@pytest.mark.parametrize("name", sorted(set(dict(make_corpus())) | {"ladder_12"}))
def test_recovery_map_matches_the_chain_it_composes(name):
    rng = np.random.default_rng(17)
    for problem in eq.assemble_all(SOLVED_MARKETS[name]):
        cond = players._condensation(problem)
        assert cond.rec is not None
        for _ in range(5):
            prices = rng.uniform(-20.0, 80.0, problem.n_prices)
            w = rng.uniform(0.0, 10.0, problem.index_map.n_w)
            ref = _recovery_chain(problem, prices, w)
            value = cond.rec @ np.concatenate(([1.0], prices, w))
            assert value.shape == ref.shape
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert float(np.max(np.abs(value - ref))) <= 1e-12 * scale


# ---- the entry-based slack -------------------------------------------------

SLACK_MARKETS = {**dict(make_corpus()),
                 **{f"ladder_{n}": ladder(n) for n in (12, 24, 48, 96, 192)},
                 **{f"portfolio_{n}": portfolio(n) for n in (12, 96)},
                 "asymmetric_ramps": asymmetric_ramps()}


def _seeded_points(problem, rng, m):
    """``m`` random points of the problem's variables, some entries exact zeros of either sign."""
    x = rng.standard_normal((problem.n_vars, m)) * 10.0 ** rng.uniform(-3, 3, (problem.n_vars, 1))
    zero = rng.random(x.shape) < 0.2
    x[zero] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[zero]
    return x


@pytest.mark.parametrize("name", list(SLACK_MARKETS))
def test_entry_slack_is_the_dense_slack_bit_for_bit(name):
    # every row has at most one +1 and one -1 entry, so the gathered slack is
    # b - Bx of the dense matrix at one column and at a block of columns; the
    # record keeps the entries of every assembled problem
    rng = np.random.default_rng(23)
    for problem in eq.assemble_all(SLACK_MARKETS[name]):
        cond = players._condensation(problem)
        pairs = players._entry_pairs(problem.ineq_matrix)
        assert pairs is not None
        assert [p.tobytes() for p in cond.ineq_pairs] == [p.tobytes() for p in pairs]
        gathered = replace(cond, ineq_pairs=pairs)
        block = _seeded_points(problem, rng, 4)
        for x in (block[:, 0].copy(), block):
            b = problem.ineq_rhs if x.ndim == 1 else problem.ineq_rhs[:, None]
            a = problem.eq_rhs if x.ndim == 1 else problem.eq_rhs[:, None]
            gap, slack = players._rows(problem, gathered, x)
            assert slack.tobytes() == (b - problem.ineq_matrix @ x).tobytes()
            assert gap.tobytes() == (problem.eq_matrix @ x - a).tobytes()


def test_rows_without_the_entry_layout_take_the_dense_product(rich_producer):
    # a row with two +1 entries, or a coefficient other than +-1, has no pairs
    matrix = rich_producer.ineq_matrix
    wide, scaled = matrix.copy(), matrix.copy()
    wide[0, :3] = 1.0
    scaled[0, np.flatnonzero(scaled[0])[0]] = 2.0
    assert players._entry_pairs(wide) is None and players._entry_pairs(scaled) is None
    assert [p.shape for p in players._entry_pairs(matrix)] == [(matrix.shape[0],)] * 2
    assert [p.shape for p in players._entry_pairs(np.zeros((0, 5)))] == [(0,)] * 2
    gathered = players._condensation(rich_producer)
    assert gathered.ineq_pairs is not None  # every assembled problem gathers
    dense = replace(gathered, ineq_pairs=None)  # what a row with other entries leaves
    x = _seeded_points(rich_producer, np.random.default_rng(5), 3)
    assert (players._rows(rich_producer, gathered, x)[1].tobytes()
            == players._rows(rich_producer, dense, x)[1].tobytes())


def test_asymmetric_ramps_bind_with_their_own_bounds():
    sc = asymmetric_ramps()
    prob = eq.assemble_all(sc)[0]
    plant = sc.producers[0].plants[0]
    assert (plant.ramp_up, plant.ramp_down) == (3.0, -1.0)
    for j in range(sc.grid.n_deliveries - 1):
        assert prob.ineq_rhs[prob.ineq_row(("ramp_up", j, "gas", 0))] == 3.0
        assert prob.ineq_rhs[prob.ineq_row(("ramp_down", j, "gas", 0))] == 1.0
    res = eq.solve_equilibrium(sc)
    assert res.converged, res.message
    np.testing.assert_allclose(res.prices, welfare_qp_prices(sc), rtol=0, atol=1e-9)
    # the answer climbs 3 and then drops 1: both ramp rows hold strictly
    sol = res.player_solutions[0]
    strict = {prob.ineq_labels[i] for i in players._strict_active(sol)[0]}
    assert {("ramp_up", 0, "gas", 0), ("ramp_down", 1, "gas", 0)} <= strict
    pairs = players._entry_pairs(prob.ineq_matrix)
    gathered = replace(players._condensation(prob), ineq_pairs=pairs)
    _, slack = players._rows(prob, gathered, sol.primal)
    assert slack.tobytes() == (prob.ineq_rhs - prob.ineq_matrix @ sol.primal).tobytes()
