"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Everything is oracle- or property-based at desk scale; tolerances are fixed
here and nowhere else.
"""

import time

import numpy as np
import pytest

import equiterm as eq
from equiterm.equilibrium import Market
from equiterm.process import PathEnsemble, doob_decompose, shift_measure, verify_covariance_invariance
from equiterm.oracles import two_stage_check
from tests.corpus import (
    make_corpus,
    mean_max_instances,
    oracle_instances,
    two_stage_instances,
)

CLEARING_TOL = 1e-8
KKT_TOL = 1e-8
GRID_STEP = 1e-4
TWO_STAGE_REL = 1e-6
FD_TOL = 1e-5
NSD_TOL = 1e-9
FLAT_TOL = 1e-9
DOOB_TOL = 1e-12
RUNTIME_CAP = 5.0


def _verdict(n, ok, detail):
    print(f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def solved_corpus():
    out = {}
    for name, sc in make_corpus():
        market = Market(sc)
        t0 = time.time()
        res = eq.solve_equilibrium(sc, market=market)
        out[name] = (sc, market, res, time.time() - t0)
    return out


def test_criterion_01_market_clearing(solved_corpus):
    assert len(solved_corpus) >= 20
    worst_resid = worst_kkt = worst_time = 0.0
    for name, (sc, _, res, wall) in solved_corpus.items():
        report = eq.validate_scenario(sc)
        assert report.passed, f"{name} failed validation"
        assert res.converged, f"{name}: {res.message}"
        worst_resid = max(worst_resid, res.clearing_residual)
        worst_kkt = max(worst_kkt, res.max_kkt_residual)
        worst_time = max(worst_time, wall)
    ok = worst_resid <= CLEARING_TOL and worst_kkt <= KKT_TOL and worst_time <= RUNTIME_CAP
    _verdict(1, ok, f"{len(solved_corpus)} scenarios clear: worst residual "
                    f"{worst_resid:.2e}, worst KKT {worst_kkt:.2e}, "
                    f"slowest run {worst_time:.2f}s")


def test_criterion_02_oracle_equivalence(solved_corpus):
    instances = list(oracle_instances())
    instances += [(name, sc) for name, (sc, _, _, _) in solved_corpus.items()
                  if sc.n_contracts <= 2]
    worst = 0.0
    for name, sc in instances:
        market = Market(sc)
        res = eq.solve_equilibrium(sc, market=market)
        assert res.converged, name
        bf = eq.brute_force_equilibrium(sc, eq.GridSpec(step=GRID_STEP), market=market)
        gap = float(np.max(np.abs(bf.prices - res.prices)))
        worst = max(worst, gap)
        assert gap <= GRID_STEP, f"{name}: solver {res.prices} vs grid {bf.prices}"
    _verdict(2, worst <= GRID_STEP,
             f"{len(instances)} tiny markets within one grid step of the brute-force oracle "
             f"(worst gap {worst:.2e} <= {GRID_STEP})")


def test_criterion_03_two_stage_closed_form():
    instances = two_stage_instances()
    assert len(instances) >= 5
    worst = 0.0
    for name, sc in instances:
        res = eq.solve_equilibrium(sc)
        assert res.converged, name
        # interiority of the committed production: the premise of the relation
        sol = res.player_solutions[0]
        im = Market(sc).problems[0].index_map
        w = sol.primal[im.n_traded]
        cap = sc.producers[0].plants[0].capacity
        assert 1e-9 < w < cap - 1e-9, f"{name}: production {w} sits on a bound"
        check = two_stage_check(sc, res)
        worst = max(worst, check.rel_error)
        assert check.rel_error <= TWO_STAGE_REL, name
    _verdict(3, worst <= TWO_STAGE_REL,
             f"{len(instances)} two-stage markets match the closed form "
             f"(worst relative error {worst:.2e} <= {TWO_STAGE_REL})")


def test_criterion_04_monotonicity(solved_corpus):
    rng = np.random.default_rng(2024)
    pairs_per_scenario = 1000
    worst_ip = -np.inf
    total = 0
    for name, (sc, market, res, _) in solved_corpus.items():
        n = market.n_prices
        radius = 0.05 * max(1.0, float(np.max(np.abs(res.prices))))
        market.solutions(res.prices)  # every batch warm-starts from the equilibrium
        points, zs = [], []
        guard = 0
        while len(points) < pairs_per_scenario + 1 and guard < 20 * pairs_per_scenario:
            # a (k, n) draw is k successive draws of the shared stream; k never
            # exceeds the points still needed, so the next market's draws are kept
            k = min(pairs_per_scenario + 1 - len(points), 20 * pairs_per_scenario - guard)
            xs = res.prices + radius * rng.standard_normal((k, n))
            z, sols = market.excess_many(xs.T)
            for c, x in enumerate(xs):
                guard += 1
                if eq.detect_saturation(sc, solutions=sols[c], market=market).saturated:
                    continue
                points.append(x)
                zs.append(z[:, c])
        assert len(points) == pairs_per_scenario + 1, f"{name}: too many saturated draws"
        for k in range(pairs_per_scenario):
            dx = points[k] - points[k + 1]
            if float(np.max(np.abs(dx))) < 1e-12:
                continue
            ip = float((zs[k] - zs[k + 1]) @ dx)
            worst_ip = max(worst_ip, ip)
            total += 1
            assert ip < 0, f"{name}: non-decreasing pair, inner product {ip}"
    _verdict(4, worst_ip < 0,
             f"{total} sampled pairs strictly decreasing across the corpus "
             f"(largest inner product {worst_ip:.3e} < 0)")


def test_criterion_05_jacobian_correctness(solved_corpus):
    rng = np.random.default_rng(515)
    points_per_scenario = 50
    worst_fd = worst_eig = -np.inf
    for name, (sc, market, res, _) in solved_corpus.items():
        n = market.n_prices
        radius = 0.02 * max(1.0, float(np.max(np.abs(res.prices))))
        checked = 0
        guard = 0
        while checked < points_per_scenario and guard < 40 * points_per_scenario:
            guard += 1
            p = res.prices + radius * rng.standard_normal(n)
            sols = market.solutions(p)
            jacs = [eq.response_jacobian(prob, sol)
                    for prob, sol in zip(market.problems, sols)]
            for rj in jacs:
                eig = float(np.linalg.eigvalsh(0.5 * (rj.matrix + rj.matrix.T))[-1])
                worst_eig = max(worst_eig, eig)
                assert eig <= NSD_TOL, f"{name}: jacobian not NSD ({eig:.2e})"
            if any(rj.on_boundary for rj in jacs):
                continue  # selection kink: one-sided derivatives differ
            direction = rng.standard_normal(n)
            direction /= np.abs(direction).max()
            for prob, rj in zip(market.problems, jacs):
                fd = eq.finite_difference_volumes(prob, p, direction)
                gap = float(np.max(np.abs(rj.matrix @ direction - fd)))
                worst_fd = max(worst_fd, gap)
                assert gap <= FD_TOL, f"{name}: jacobian vs differences gap {gap:.2e}"
            checked += 1
        assert checked == points_per_scenario, f"{name}: only {checked} interior points"
    _verdict(5, worst_fd <= FD_TOL and worst_eig <= NSD_TOL,
             f"jacobians match central differences (worst gap {worst_fd:.2e} <= "
             f"{FD_TOL}) and are NSD (max eigenvalue {worst_eig:.2e} <= {NSD_TOL})")


def test_criterion_06_consumer_projection(solved_corpus):
    rng = np.random.default_rng(66)
    worst_repr = worst_null = 0.0
    worst_strict = -np.inf
    consumers = 0
    for name, (sc, market, res, _) in solved_corpus.items():
        a1 = eq.delivery_totals_matrix(sc.grid)
        for prob, sol in zip(market.problems, market.solutions(res.prices)):
            if prob.kind != "consumer":
                continue
            consumers += 1
            rj = eq.response_jacobian(prob, sol)
            # reproduce the closed form independently of the library path
            Q = prob.quadratic
            Qi = np.linalg.inv(Q)
            S = a1 @ Qi @ a1.T
            analytic = -Qi + Qi @ a1.T @ np.linalg.solve(S, a1 @ Qi)
            worst_repr = max(worst_repr, float(np.max(np.abs(rj.matrix - analytic))))
            M = 0.5 * (rj.matrix + rj.matrix.T)
            # zero "exactly" means at roundoff level of the response operator,
            # whose natural magnitude is that of the inverse risk matrix
            scale = float(np.max(np.abs(Qi)))
            for _ in range(10):
                e = rng.standard_normal(sc.grid.n_deliveries)
                x = a1.T @ e  # uniform within each delivery
                q = float(x @ M @ x)
                worst_null = max(worst_null, abs(q) / (scale * max(x @ x, 1e-30)))
                y = rng.standard_normal(prob.n_vars)
                y -= a1.T @ np.linalg.solve(a1 @ a1.T, a1 @ y)  # kill the flat part
                if float(y @ y) < 1e-12:
                    continue
                worst_strict = max(worst_strict, float(y @ M @ y) / float(y @ y))
    ok = worst_repr <= 1e-9 and worst_null <= 1e-10 and worst_strict < 0
    _verdict(6, ok,
             f"{consumers} consumer responses reproduce the projection form "
             f"(worst {worst_repr:.2e}); flat directions give zero "
             f"({worst_null:.2e} relative) and others strictly negative "
             f"({worst_strict:.3e})")


def test_criterion_07_rank_condition(solved_corpus):
    for name, (sc, market, res, _) in solved_corpus.items():
        diag = eq.check_uniqueness(sc, res, n_samples=0, market=market)
        assert all(diag.strictly_feasible_plant_per_period), name
        assert diag.rank_ok and diag.rank_condition == sc.grid.n_deliveries, (
            f"{name}: rank {diag.rank_condition} vs {sc.grid.n_deliveries}")
    # deleting all producers must break the condition
    sc0 = dict(make_corpus())["n2_two_times"]
    gutted = eq.Scenario(sc0.grid, (), sc0.consumers, sc0.fuels, sc0.exogenous,
                         sc0.bounds)
    diag = eq.check_uniqueness(gutted, prices=np.zeros(sc0.n_contracts), n_samples=0)
    assert diag.rank_ok is False and diag.rank_condition == 0
    assert diag.jacobian_eigen_max >= -1e-12
    _verdict(7, True,
             f"rank equals the delivery count on all {len(solved_corpus)} scenarios; "
             "deleting the producers drops it to 0 and the diagnostic reports failure")


def _dyadic_tree():
    grid = eq.TradingGrid((1.0,), ((0.25, 0.5, 1.0),))
    pi = np.array([
        [1.0, 2.0, 3.0],
        [1.0, 2.0, 1.0],
        [1.0, 0.0, 1.0],
        [1.0, 0.0, -1.0],
    ])
    g = np.array([[3.0, 3.5, 4.0], [3.0, 3.5, 3.0], [3.0, 2.5, 3.0], [3.0, 2.5, 2.0]])
    gem = np.array([[1.0, 1.5, 2.0], [1.0, 1.5, 1.0], [1.0, 0.5, 1.0], [1.0, 0.5, 0.0]])
    return PathEnsemble(grid, ("gas",), np.full(4, 0.25), pi, g, gem)


def test_criterion_08_doob_suite():
    ens = _dyadic_tree()
    parts = doob_decompose(ens)
    exact = (parts.max_reconstruction_error(ens) == 0.0
             and parts.martingale_residual(ens) == 0.0
             and parts.predictability_residual(ens) == 0.0)
    assert exact
    rng = np.random.default_rng(88)
    reference = shift_measure(ens, np.zeros(3))
    worst = 0.0
    for _ in range(100):
        drift = np.concatenate([[0.0], 20.0 * rng.standard_normal(2)])
        shifted = shift_measure(ens, drift)
        rep = verify_covariance_invariance(reference, shifted)
        worst = max(worst, rep.max_abs_deviation)
        assert rep.max_abs_deviation <= DOOB_TOL
        back = doob_decompose(shifted)
        assert float(np.max(np.abs(back.predictable - drift))) <= 1e-12
    _verdict(8, worst <= DOOB_TOL,
             f"decomposition exact on the rational tree; covariance deviation "
             f"under 100 random drifts {worst:.2e} <= {DOOB_TOL}")


def test_criterion_09_mean_max():
    inst = mean_max_instances()
    worst_spread = 0.0
    for key in ("generic", "multi", "volume_interval"):
        mm = eq.mean_max_equilibrium(inst[key])
        assert mm.converged, key
        worst_spread = max(worst_spread, mm.intra_delivery_spread)
        assert mm.intra_delivery_spread <= FLAT_TOL
    tie = eq.mean_max_equilibrium(inst["price_interval"])
    assert tie.converged and tie.deliveries[0].kind == "price-interval"
    assert tie.deliveries[0].price_interval == pytest.approx((3.5, 9.5))
    vol = eq.mean_max_equilibrium(inst["volume_interval"])
    d = vol.deliveries[0]
    assert d.kind == "volume-interval" and d.volume_interval[0] < d.volume < d.volume_interval[1]
    _verdict(9, worst_spread <= FLAT_TOL,
             f"expectation-only runs are flat within deliveries "
             f"(worst spread {worst_spread:.2e} <= {FLAT_TOL}); both degenerate "
             "instances classified (price interval vs dispatch interval)")


def test_criterion_10_saturation_logic(solved_corpus):
    eps_frac = 1e-6
    checked = 0
    for name, (sc, market, _, _) in solved_corpus.items():
        disc = sc.grid.node_discounts()
        level = sc.bounds.pi_max * (1.0 - eps_frac)
        hi = eq.detect_saturation(sc, prices=level * disc, market=market)
        lo = eq.detect_saturation(sc, prices=-level * disc, market=market)
        assert all(s == "all-upper" for s in hi.statuses), f"{name}: {hi.statuses}"
        assert all(s < 0 for s in hi.clearing_sums), name
        assert all(hi.sign_consistent), name
        assert all(s == "all-lower" for s in lo.statuses), f"{name}: {lo.statuses}"
        assert all(s > 0 for s in lo.clearing_sums), name
        assert all(lo.sign_consistent), name
        checked += 1
    _verdict(10, True,
             f"price sweeps at +/-(price bound - eps) pin every plant on all "
             f"{checked} scenarios with the asserted clearing-sum signs")


def test_criterion_11_bound_hygiene(solved_corpus):
    slack = 1e-6
    for name, (sc, market, res, _) in solved_corpus.items():
        vt, ft = sc.bounds.v_trade, sc.bounds.f_trade
        raw = res.undiscounted_prices(sc.grid)
        assert float(np.max(np.abs(raw))) < sc.bounds.pi_max * (1 - slack), name
        for prob, sol in zip(market.problems, res.player_solutions):
            assert float(np.max(np.abs(sol.volumes))) < vt * (1 - slack), name
            if prob.kind == "producer":
                im = prob.index_map
                traded = sol.primal[im.n_v : im.n_traded]
                assert float(np.max(np.abs(traded))) < ft * (1 - slack), name
    _verdict(11, True,
             f"no trading box and no price bound is touched at any of the "
             f"{len(solved_corpus)} equilibria")
