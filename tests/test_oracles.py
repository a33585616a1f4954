import numpy as np
import pytest

import equiterm as eq
from equiterm.equilibrium import Market
from equiterm.errors import EquitermError, InfeasibleError
from equiterm.oracles import _bisect_root, producer_solution_with_fixed_totals, two_stage_check
from tests.corpus import (
    build_scenario,
    make_corpus,
    mean_max_instances,
    merit_stack,
    oracle_instances,
    two_stage_scenario,
)


# ---- two-stage closed form ---------------------------------------------------

def test_riskless_collapse():
    params = eq.TwoStageParams(expected_t2_price=7.0, lambdas=(1.0, 2.0),
                               cost_covariances=(0.0,))
    assert eq.two_stage_price(params) == pytest.approx(7.0)


def test_unit_tolerance_substitution():
    # sum of 1/lambda = 1, so the premium equals the total cost covariance.
    # Positive cost covariance pushes the earlier price above the later one
    # (verified against the equilibrium solver; the aggregate multiplies the
    # covariance with a plus sign).
    params = eq.TwoStageParams(expected_t2_price=7.0, lambdas=(2.0, 2.0),
                               cost_covariances=(0.3,))
    assert eq.two_stage_price(params) == pytest.approx(7.3)


def test_retail_term_offsets_cost_term():
    params = eq.TwoStageParams(expected_t2_price=7.0, lambdas=(2.0, 2.0),
                               cost_covariances=(0.3,), demand_covariance=0.2,
                               retail=1.5)
    assert eq.two_stage_price(params) == pytest.approx(7.0 + 0.3 - 1.5 * 0.2)


def test_independent_replication_of_the_relation():
    """Fully independent mini-market: interior first-order conditions are
    linear, so the equilibrium solves exactly; the closed form must match."""
    lam_p, lam_c = 1.3, 0.7
    c_eff, g_int, cap, D = 2.0, 0.5, 10.0, 4.0
    g1, g2, e1, e2 = 3.0, 3.2, 1.0, 1.1
    S3 = np.array([[1.0, 0.35, 0.10], [0.35, 0.8, 0.05], [0.10, 0.05, 0.3]])
    eps = 0.01

    def exposure_matrix():
        # producer unknowns y = (V2, F2, O2, W); coefficients of the noise
        # vector (Pi2, G2, E2, n_pi1, n_g1, n_e1) in the profit
        M = np.zeros((6, 4))
        M[0, 0] = -1.0
        M[1, 1] = -1.0
        M[2, 2] = -1.0
        M[3, 0], M[3, 3] = 1.0, 1.0
        M[4, 1], M[4, 3] = 1.0, -c_eff
        M[5, 2], M[5, 3] = 1.0, -g_int
        return M

    S = np.zeros((6, 6))
    S[:3, :3] = S3
    S[3:, 3:] = eps * np.eye(3)
    M = exposure_matrix()
    H = lam_p * (M.T @ S @ M)

    def producer(pi1, pi2):
        b = np.array([pi1 - pi2, g1 - g2, e1 - e2, pi1 - c_eff * g1 - g_int * e1])
        return np.linalg.solve(H, b)

    def consumer(pi1, pi2):
        u2 = (pi1 - pi2 + lam_c * D * eps) / (lam_c * (S3[0, 0] + eps))
        return u2

    def excess(pi):
        V2, F2, O2, W = producer(pi[0], pi[1])
        U2 = consumer(pi[0], pi[1])
        return np.array([(-W - V2) + (D - U2), V2 + U2])

    pi = np.array([7.0, 7.0])
    for _ in range(50):
        J = np.zeros((2, 2))
        h = 1e-6
        for k in range(2):
            d = np.zeros(2)
            d[k] = h
            J[:, k] = (excess(pi + d) - excess(pi - d)) / (2 * h)
        pi = pi - np.linalg.solve(J, excess(pi))
        if np.abs(excess(pi)).max() < 1e-12:
            break
    V2, F2, O2, W = producer(pi[0], pi[1])
    assert 0 < W < cap
    cov_cost = S3[0, 1] * F2 + S3[0, 2] * O2
    params = eq.TwoStageParams(expected_t2_price=pi[1], lambdas=(lam_p, lam_c),
                               cost_covariances=(cov_cost,))
    assert eq.two_stage_price(params) == pytest.approx(pi[0], rel=1e-12)


@pytest.mark.parametrize("seed,lam_p,lam_c", [(1, (1.3,), (0.7,)), (2, (2.0,), (2.0,)),
                                              (3, (0.4,), (1.8,))])
def test_solver_matches_closed_form(seed, lam_p, lam_c):
    sc = two_stage_scenario(seed=seed, lam_p=lam_p, lam_c=lam_c)
    res = eq.solve_equilibrium(sc)
    assert res.converged
    check = two_stage_check(sc, res)
    assert check.rel_error <= 1e-6


def test_restricted_totals_reproduce_equilibrium_strategy(two_stage):
    res = eq.solve_equilibrium(two_stage)
    prob = Market(two_stage).problems[0]
    totals = np.array([res.player_solutions[0].volumes.sum()])
    restricted = producer_solution_with_fixed_totals(prob, res.prices, totals)
    np.testing.assert_allclose(restricted.primal, res.player_solutions[0].primal,
                               atol=1e-9)


def test_restricted_totals_beyond_capacity_raise(two_stage):
    prob = Market(two_stage).problems[0]
    capacity = sum(pl.capacity for pl in two_stage.producers[0].plants)
    with pytest.raises(InfeasibleError, match="empty feasible set"):
        producer_solution_with_fixed_totals(prob, np.zeros(prob.n_prices),
                                            np.array([-2.0 * capacity]))


# ---- brute-force oracle -------------------------------------------------------

def test_brute_force_brackets_the_solver_n1():
    name, sc = oracle_instances()[0]
    bf = eq.brute_force_equilibrium(sc, eq.GridSpec(step=1e-4))
    res = eq.solve_equilibrium(sc)
    assert res.converged
    assert np.abs(bf.prices - res.prices).max() <= 1e-4


def test_brute_force_three_contracts_lands_within_a_grid_step():
    sc = build_scenario(
        seed=61, sizes=(2, 1), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.45, bound_factor=2.0)
    step = 1e-2
    market = Market(sc)
    res = eq.solve_equilibrium(sc, market=market)
    assert res.converged
    bf = eq.brute_force_equilibrium(sc, eq.GridSpec(step=step), market=market)
    assert bf.levels == 3
    assert np.abs(bf.prices - res.prices).max() <= step


def test_brute_force_rejects_large_markets():
    sc = build_scenario(
        seed=99, sizes=(2, 2), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.5)
    with pytest.raises(EquitermError):
        eq.brute_force_equilibrium(sc)


@pytest.mark.parametrize("root", [0.3, 2.9999995, 3.0, 7.25, 10.0])
def test_bisect_root_walk_from_a_first_step_finds_the_same_root(root):
    # any first step (below tol it is tol) brackets the root within tol; one
    # near the root's distance from the start saves the doubling from tol
    tol, evaluations = 1e-6, {}
    for step in (0.0, 1e-9, 0.5, 4.0, 100.0):
        calls = []

        def f(p):
            calls.append(p)
            return root - p

        got = _bisect_root(f, 0.0, 10.0, tol, start=3.0, step=step)
        assert abs(got - root) <= tol, (step, got)
        assert all(0.0 <= p <= 10.0 for p in calls)
        evaluations[step] = len(calls)
    if root == 7.25:
        assert evaluations[4.0] < evaluations[0.0] - 15


@pytest.mark.parametrize("name", ["n1_single", "n2_two_times"])
@pytest.mark.parametrize("step", [1e-12, 1e-300])
def test_brute_force_ends_at_a_step_below_the_price_spacing(monkeypatch, name, step):
    # a bracket one float wide has no midpoint; the evaluation cap turns a
    # bisection that never ends into a failure
    sc = dict(make_corpus())[name]
    excess, calls = Market.excess, []

    def capped(self, prices):
        calls.append(None)
        if len(calls) > 10_000:
            raise RuntimeError("brute force did not end within 10,000 evaluations")
        return excess(self, prices)

    monkeypatch.setattr(Market, "excess", capped)
    bf = eq.brute_force_equilibrium(sc, eq.GridSpec(step=step))
    assert bf.evaluations == len(calls)
    assert bf.residual <= 1e-8


@pytest.mark.parametrize("name", ["n1_single", "n2_two_times"])
def test_brute_force_reports_the_step_it_can_resolve(name):
    # below the float spacing of the box edge the bisection stops at that
    # spacing, so that is the step reported, and the answer lies within it
    sc = dict(make_corpus())[name]
    market = Market(sc)
    spacing = float(np.spacing(np.max(market.price_box()[1])))
    assert eq.brute_force_equilibrium(sc, eq.GridSpec(step=1e-3), market=market).step == 1e-3
    bf = eq.brute_force_equilibrium(sc, eq.GridSpec(step=1e-300), market=market)
    assert bf.step == spacing
    solved = eq.solve_equilibrium(sc).prices
    assert float(np.max(np.abs(bf.prices - solved))) <= bf.step


def test_symmetric_consumers_split_equally():
    sc = build_scenario(
        seed=101, sizes=(1,), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
        consumers=[(1.0, 0.5, 0.0), (1.0, 0.5, 0.0)], demand_frac=0.5,
        bound_factor=2.0)
    bf = eq.brute_force_equilibrium(sc, eq.GridSpec(step=1e-3))
    mkt = Market(sc)
    sols = mkt.solutions(bf.prices)
    np.testing.assert_allclose(sols[1].volumes, sols[2].volumes, atol=1e-12)


def test_more_demand_raises_the_oracle_price():
    lo = build_scenario(
        seed=102, sizes=(1,), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.3, bound_factor=2.0)
    hi = build_scenario(
        seed=102, sizes=(1,), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.6, bound_factor=2.0)
    p_lo = eq.brute_force_equilibrium(lo, eq.GridSpec(step=1e-3)).prices
    p_hi = eq.brute_force_equilibrium(hi, eq.GridSpec(step=1e-3)).prices
    assert p_hi[0] > p_lo[0]


# ---- expectation-only equilibrium ---------------------------------------------

def test_mean_max_generic_interior():
    sc = mean_max_instances()["generic"]
    mm = eq.mean_max_equilibrium(sc)
    assert mm.converged
    d = mm.deliveries[0]
    # marginal cost of the only plant: efficiency * fuel + intensity * emission
    assert d.price == pytest.approx(2.0 * 2.5 + 0.5 * 1.0)
    assert d.volume == pytest.approx(sc.exogenous.demand[0])
    assert d.kind == "volume-interval"
    assert mm.intra_delivery_spread <= 1e-9


def test_mean_max_price_interval_case():
    sc = mean_max_instances()["price_interval"]
    mm = eq.mean_max_equilibrium(sc)
    assert mm.converged
    d = mm.deliveries[0]
    assert d.kind == "price-interval"
    assert d.price_interval == pytest.approx((3.5, 9.5))


def test_mean_max_volume_interval_case():
    sc = mean_max_instances()["volume_interval"]
    mm = eq.mean_max_equilibrium(sc)
    d = mm.deliveries[0]
    assert d.kind == "volume-interval"
    assert d.volume_interval[0] < d.volume < d.volume_interval[1]


# (plants as (capacity, efficiency), demand, kind, price, price_interval,
# volume_interval); marginal costs 3.5, 6.5 and 9.5 for efficiencies 1, 2, 3
STACK_WALKS = {
    "second_level": ([(4.0, 1.0), (6.0, 3.0)], 7.0,
                     "volume-interval", 9.5, (9.5, 9.5), (4.0, 10.0)),
    "equal_costs_merge": ([(4.0, 1.0), (5.0, 3.0), (6.0, 1.0)], 7.0,
                          "volume-interval", 3.5, (3.5, 3.5), (0.0, 10.0)),
    "interior_edge": ([(4.0, 1.0), (6.0, 3.0), (5.0, 2.0)], 9.0,
                      "price-interval", 8.0, (6.5, 9.5), (9.0, 9.0)),
    "top_edge": ([(4.0, 1.0), (6.0, 3.0)], 10.0,
                 "price-interval", 29.75, (9.5, 50.0), (10.0, 10.0)),
}


@pytest.mark.parametrize("case", sorted(STACK_WALKS))
def test_mean_max_walks_the_stack(case):
    plants, demand, kind, price, price_interval, volume_interval = STACK_WALKS[case]
    mm = eq.mean_max_equilibrium(merit_stack(plants, demand))
    assert mm.converged
    d = mm.deliveries[0]
    assert (d.kind, d.volume) == (kind, demand)
    assert d.price == pytest.approx(price)
    assert d.price_interval == pytest.approx(price_interval)
    assert d.volume_interval == pytest.approx(volume_interval)
    assert mm.prices == pytest.approx([price])


def test_mean_max_refuses_demand_beyond_the_fleet():
    mm = eq.mean_max_equilibrium(merit_stack([(4.0, 1.0), (6.0, 3.0)], 10.5))
    assert not mm.converged
    assert "outside the producible range" in mm.message


def test_mean_max_flat_spread():
    for sc in (mean_max_instances()["generic"], mean_max_instances()["multi"]):
        mm = eq.mean_max_equilibrium(sc)
        assert mm.converged
        assert mm.intra_delivery_spread <= 1e-9


def test_mean_max_refuses_in_delivery_arbitrage():
    sc = build_scenario(
        seed=103, sizes=(2,), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.5, flat_forwards=False)
    mm = eq.mean_max_equilibrium(sc)
    assert not mm.converged
