import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import equiterm as eq
from equiterm import assembly, cli, equilibrium, players, validate
from equiterm.errors import InfeasibleError
from tests.corpus import build_scenario, desk_identity


@pytest.fixture(scope="module")
def identity():
    return desk_identity()


@pytest.fixture(scope="module")
def producer_problem(identity):
    return eq.assemble_producer(identity.producers[0], identity)


def test_producer_equality_rows(identity, producer_problem):
    p = producer_problem
    # 1 delivery, 1 fuel: volume + fuel + emission rows
    assert p.eq_matrix.shape[0] == 3
    assert p.eq_labels == (("volume", 0), ("fuel", 0, "gas"), ("emission",))

    im = p.index_map
    vol = p.eq_matrix[0]
    assert vol[im.v_index(0, 0)] == 1.0 and vol[im.v_index(0, 1)] == 1.0
    assert vol[im.w_index(0, "gas", 0)] == 1.0
    assert p.eq_rhs[0] == 0.0

    fuel = p.eq_matrix[1]
    assert fuel[im.f_index(0, 0, "gas")] == -1.0 and fuel[im.f_index(0, 1, "gas")] == -1.0
    assert fuel[im.w_index(0, "gas", 0)] == identity.producers[0].plants[0].efficiency

    em = p.eq_matrix[2]
    assert em[im.o_index(0, 0)] == 1.0 and em[im.o_index(0, 1)] == 1.0
    assert em[im.w_index(0, "gas", 0)] == -identity.fuels.intensity("gas")


def test_ramp_rows_present():
    sc = build_scenario(
        seed=7, sizes=(1, 1), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 10.0, 3.0, -2.0, 2.0)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.4)
    p = eq.assemble_producer(sc.producers[0], sc)
    im = p.index_map
    up = p.ineq_row(("ramp_up", 0, "gas", 0))
    dn = p.ineq_row(("ramp_down", 0, "gas", 0))
    w0, w1 = im.w_index(0, "gas", 0), im.w_index(1, "gas", 0)
    assert p.ineq_matrix[up, w1] == 1.0 and p.ineq_matrix[up, w0] == -1.0
    assert p.ineq_rhs[up] == 3.0
    assert p.ineq_matrix[dn, w1] == -1.0 and p.ineq_matrix[dn, w0] == 1.0
    assert p.ineq_rhs[dn] == 2.0


def test_producer_equality_rank(producer_problem):
    # full row rank |J|(|L|+1)+1
    p = producer_problem
    expected = 1 * (1 + 1) + 1
    assert p.eq_matrix.shape[0] == expected
    assert np.linalg.matrix_rank(p.eq_matrix) == expected


def test_equality_rank_multifuel_multiplant():
    sc = build_scenario(
        seed=8, sizes=(2, 1), fuels={"coal": 0.9, "gas": 0.5},
        producers=[(1.0, [("gas", 6.0, 6.0, -6.0, 2.0), ("gas", 5.0, 5.0, -5.0, 2.2),
                          ("coal", 8.0, 8.0, -8.0, 1.1)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.4)
    p = eq.assemble_producer(sc.producers[0], sc)
    expected = 2 * (2 + 1) + 1
    assert p.eq_matrix.shape[0] == expected
    assert np.linalg.matrix_rank(p.eq_matrix) == expected


def test_plantless_fuel_rows_force_zero_net_trades():
    sc = build_scenario(
        seed=9, sizes=(1,), fuels={"coal": 0.9, "gas": 0.5},
        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.4)
    p = eq.assemble_producer(sc.producers[0], sc)
    im = p.index_map
    row = p.eq_matrix[list(p.eq_labels).index(("fuel", 0, "coal"))]
    assert row[im.f_index(0, 0, "coal")] == -1.0
    assert not row[im.n_traded:].any()  # no coal plants to burn anything
    assert np.linalg.matrix_rank(p.eq_matrix) == p.eq_matrix.shape[0]


def test_consumer_rows(identity):
    c = eq.assemble_consumer(identity.consumers[0], identity)
    np.testing.assert_array_equal(c.eq_matrix, [[1.0, 1.0]])
    assert c.eq_rhs[0] == 5.0
    assert c.quadratic == pytest.approx(np.eye(2))


def test_consumer_demand_share_rhs():
    sc = build_scenario(
        seed=10, sizes=(1,), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 25.0, 25.0, -25.0, 2.0)])],
        consumers=[(1.0, 0.4, 0.0), (1.0, 0.6, 0.0)], demand=(10.0,), demand_frac=None)
    c = eq.assemble_consumer(sc.consumers[0], sc)
    assert c.eq_rhs[0] == pytest.approx(4.0)


def test_retail_price_changes_nothing_assembled():
    base = build_scenario(
        seed=11, sizes=(2,), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.5)
    paid = build_scenario(
        seed=11, sizes=(2,), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
        consumers=[(1.0, 1.0, 55.0)], demand_frac=0.5)
    a = eq.assemble_consumer(base.consumers[0], base)
    b = eq.assemble_consumer(paid.consumers[0], paid)
    np.testing.assert_array_equal(a.quadratic, b.quadratic)
    np.testing.assert_array_equal(a.eq_matrix, b.eq_matrix)
    np.testing.assert_array_equal(a.eq_rhs, b.eq_rhs)
    np.testing.assert_array_equal(a.ineq_matrix, b.ineq_matrix)
    np.testing.assert_array_equal(a.ineq_rhs, b.ineq_rhs)


def test_discounted_linear_term():
    r = 0.07
    sc = build_scenario(
        seed=12, sizes=(1, 1), fuels={"gas": 0.5}, r=r,
        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.4)
    p = eq.assemble_producer(sc.producers[0], sc)
    im = p.index_map
    for j in range(2):
        disc = sc.grid.discount(j)
        g_quote = sc.exogenous.forwards_for("gas")[j][0]
        e_quote = sc.exogenous.emission_forwards[j][0]
        assert p.linear[im.f_index(j, 0, "gas")] == pytest.approx(disc * g_quote)
        assert p.linear[im.o_index(j, 0)] == pytest.approx(disc * e_quote)
    assert not p.linear[: im.n_v].any()  # power slots filled per query


def test_quadratic_structure(identity, producer_problem):
    p = producer_problem
    im = p.index_map
    stacked = identity.covariance_blocks().stacked()
    lam = identity.producers[0].risk_aversion
    np.testing.assert_allclose(p.quadratic[: im.n_traded, : im.n_traded], lam * stacked)
    assert not p.quadratic[im.n_traded:, :].any()
    assert not p.quadratic[:, im.n_traded:].any()


def test_box_rows_roundtrip(identity, producer_problem):
    p = producer_problem
    im = p.index_map
    vt, ft = identity.bounds.v_trade, identity.bounds.f_trade
    for (j, i) in identity.grid.node_labels():
        r = p.ineq_row(("v_upper", j, i))
        assert p.ineq_matrix[r, im.v_index(j, i)] == 1.0 and p.ineq_rhs[r] == vt
        r = p.ineq_row(("v_lower", j, i))
        assert p.ineq_matrix[r, im.v_index(j, i)] == -1.0 and p.ineq_rhs[r] == vt
        r = p.ineq_row(("o_upper", j, i))
        assert p.ineq_matrix[r, im.o_index(j, i)] == 1.0 and p.ineq_rhs[r] == ft
        r = p.ineq_row(("f_lower", j, i, "gas"))
        assert p.ineq_matrix[r, im.f_index(j, i, "gas")] == -1.0 and p.ineq_rhs[r] == ft


# ---------------------------------------------------------------------------
# one derivation per scenario, shared by validation, solves and diagnostics

TWO_FUELS_DOC = eq.scenario_to_dict(build_scenario(
    seed=15, sizes=(2, 2), fuels={"coal": 0.9, "gas": 0.5},
    producers=[(1.0, (("gas", 7.0, 7.0, -7.0, 2.0),)), (1.4, (("coal", 9.0, 9.0, -9.0, 1.1),))],
    consumers=[(0.7, 1.0, 0.0)], demand_frac=0.45))


def _fresh():
    """A scenario object no other test holds, so its derived data starts empty."""
    return eq.scenario_from_dict(TWO_FUELS_DOC)


def test_every_consumer_shares_the_scenarios_problems(monkeypatch):
    sc = _fresh()
    market = equilibrium.Market(sc)
    assert eq.assemble_all(sc) is market.problems

    seen = []

    def recording(scenario):
        seen.append(assembly.assemble_all(scenario))
        return seen[-1]

    monkeypatch.setattr(validate, "assemble_all", recording)
    assert eq.validate_scenario(sc).passed
    assert seen and all(problems is market.problems for problems in seen)

    markets = []

    class RecordingMarket(equilibrium.Market):
        def __init__(self, scenario):
            super().__init__(scenario)
            markets.append(self)

    monkeypatch.setattr(equilibrium, "Market", RecordingMarket)
    result = eq.solve_equilibrium(sc)
    eq.check_uniqueness(sc, result, n_samples=4)
    assert len(markets) == 2
    assert all(m.problems is market.problems for m in markets)
    assert all(sol.problem is p for sol, p in zip(result.player_solutions, market.problems))


def test_a_replaced_scenario_assembles_its_own_problems():
    sc = _fresh()
    before = eq.assemble_all(sc)
    wider = replace(sc, bounds=eq.Bounds(2.0 * sc.bounds.v_trade, sc.bounds.f_trade,
                                         sc.bounds.pi_max))
    after = eq.assemble_all(wider)
    assert after is not before and not set(map(id, after)) & set(map(id, before))
    for old, new in zip(before, after):
        row = new.ineq_row(("v_upper", 0, 0))
        assert old.ineq_rhs[row] == sc.bounds.v_trade
        assert new.ineq_rhs[row] == wider.bounds.v_trade
    assert eq.assemble_all(sc) is before


def test_cold_start_is_found_once_and_read_only():
    sc = _fresh()
    for problem in eq.assemble_all(sc):
        x0, seed = players._start(problem, None)
        assert seed == () and players._start(problem, None)[0] is x0
        assert not x0.flags.writeable
        with pytest.raises(ValueError):
            x0[0] = 1.0


def test_an_empty_feasible_set_is_not_cached(monkeypatch):
    consumer = eq.assemble_all(_fresh())[-1]
    pinched = replace(consumer, ineq_rhs=np.full(consumer.ineq_rhs.size, 1e-9))
    calls = []
    original = players._feasible_start

    def counting(problem):
        calls.append(problem)
        return original(problem)

    monkeypatch.setattr(players, "_feasible_start", counting)
    for n in (1, 2):
        with pytest.raises(InfeasibleError, match="empty feasible set"):
            players._start(pinched, None)
        assert len(calls) == n
    assert "start" not in pinched._derived


def test_reusing_a_scenario_gives_the_fresh_prices():
    fresh = eq.solve_equilibrium(_fresh()).prices.tobytes()
    sc = _fresh()
    assert eq.solve_equilibrium(sc).prices.tobytes() == fresh
    assert eq.solve_equilibrium(sc).prices.tobytes() == fresh
    sc = _fresh()
    eq.check_uniqueness(sc, prices=eq.merit_order_prices(sc), n_samples=8)
    assert eq.solve_equilibrium(sc).prices.tobytes() == fresh


def test_diagnose_assembles_each_producer_once(monkeypatch, tmp_path):
    path = tmp_path / "two_fuels.json"
    path.write_text(json.dumps(TWO_FUELS_DOC), encoding="utf-8")
    counts = Counter()
    original = assembly.assemble_producer

    def counting(producer, scenario):
        counts[producer.name] += 1
        return original(producer, scenario)

    monkeypatch.setattr(assembly, "assemble_producer", counting)
    assert cli.main(["diagnose", "--scenario", str(path), "--output",
                     str(tmp_path / "report.json")]) == 0
    assert counts == {"producer1": 1, "producer2": 1}
