import json
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import equiterm as eq
from equiterm import assembly, cli, equilibrium, players, validate
from equiterm.errors import InfeasibleError
from tests.corpus import build_scenario, desk_identity, ladder, make_corpus, portfolio


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
# every assembled row, rebuilt from its label and the scenario alone


def _row_of_label(sc, player, label):
    """The coefficients, keyed by IndexMap variable tuple, and the right-hand
    side that the row with this label must have."""
    kind, *key = label
    trades = lambda j: [("V", j, i) for i in range(sc.grid.sizes[j])]  # noqa: E731
    if kind == "demand":
        (j,) = key
        return dict.fromkeys(trades(j), 1.0), player.demand_share * sc.exogenous.demand[j]
    if kind in ("v_upper", "v_lower", "f_upper", "f_lower", "o_upper", "o_lower"):
        bound = sc.bounds.v_trade if kind[0] == "v" else sc.bounds.f_trade
        return {(kind[0].upper(), *key): 1.0 if kind.endswith("upper") else -1.0}, bound
    plants = player.plants_by_fuel(sc.fuel_names)
    fleet = [(fuel, r, pl) for fuel in sc.fuel_names for r, pl in enumerate(plants[fuel])]
    if kind == "volume":
        (j,) = key
        return {**dict.fromkeys(trades(j), 1.0),
                **{("W", j, fuel, r): 1.0 for fuel, r, _ in fleet}}, 0.0
    if kind == "fuel":
        j, fuel = key
        return {**{("F", j, i, fuel): -1.0 for i in range(sc.grid.sizes[j])},
                **{("W", j, fuel, r): pl.efficiency for r, pl in enumerate(plants[fuel])}}, 0.0
    if kind == "emission":
        return {**{("O", j, i): 1.0 for j, i in sc.grid.node_labels()},
                **{("W", j, fuel, r): -sc.fuels.intensity(fuel)
                   for j in range(sc.grid.n_deliveries) for fuel, r, _ in fleet}}, 0.0
    j, fuel, r = key
    plant = plants[fuel][r]
    if kind == "ramp_up":
        return {("W", j + 1, fuel, r): 1.0, ("W", j, fuel, r): -1.0}, plant.ramp_up
    if kind == "ramp_down":
        return {("W", j + 1, fuel, r): -1.0, ("W", j, fuel, r): 1.0}, -plant.ramp_down
    if kind == "cap_upper":
        return {("W", j, fuel, r): 1.0}, plant.capacity
    assert kind == "cap_lower", label
    return {("W", j, fuel, r): -1.0}, 0.0


def _labels_of_player(sc, player):
    """Every row label the scenario implies for this player."""
    nodes = sc.grid.node_labels()
    deliveries = range(sc.grid.n_deliveries)
    boxes = {(side, j, i) for side in ("v_upper", "v_lower") for j, i in nodes}
    if isinstance(player, eq.Consumer):
        return {("demand", j) for j in deliveries} | boxes
    fuels = sc.fuel_names
    plants = player.plants_by_fuel(fuels)
    keys = [(fuel, r) for fuel in fuels for r in range(len(plants[fuel]))]
    return ({("volume", j) for j in deliveries} | {("fuel", j, f) for j in deliveries for f in fuels}
            | {("emission",)} | boxes
            | {(side, j, i, f) for side in ("f_upper", "f_lower") for j, i in nodes for f in fuels}
            | {(side, j, i) for side in ("o_upper", "o_lower") for j, i in nodes}
            | {(side, j, *k) for side in ("ramp_up", "ramp_down") for j in deliveries[:-1]
               for k in keys}
            | {(side, j, *k) for side in ("cap_upper", "cap_lower") for j in deliveries
               for k in keys})


def _assert_rows_follow_labels(sc):
    players_ = sc.producers + sc.consumers
    for player, problem in zip(players_, eq.assemble_all(sc)):
        im = problem.index_map
        labels = problem.eq_labels + problem.ineq_labels
        assert len(set(labels)) == len(labels)
        assert set(labels) == _labels_of_player(sc, player)
        for matrix, rhs, row_labels in ((problem.eq_matrix, problem.eq_rhs, problem.eq_labels),
                                        (problem.ineq_matrix, problem.ineq_rhs,
                                         problem.ineq_labels)):
            assert matrix.shape == (len(row_labels), problem.n_vars)
            for row, label in enumerate(row_labels):
                coefs, bound = _row_of_label(sc, player, label)
                expected = np.zeros(problem.n_vars)
                for var, coef in coefs.items():
                    expected[im.index_of(var)] = coef
                assert matrix[row].tolist() == expected.tolist(), label
                assert rhs[row] == bound, label


LABELLED = {**dict(make_corpus()), "ladder48": ladder(48), "portfolio12": portfolio(12)}


@pytest.mark.parametrize("name", list(LABELLED))
def test_every_row_follows_its_label(name):
    _assert_rows_follow_labels(LABELLED[name])


@st.composite
def fleets(draw):
    """A producer with 1-2 fuels and 1-3 plants of each, on 1-4 deliveries of
    1-3 trading times."""
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    fuels = draw(st.sampled_from([("coal",), ("gas",), ("coal", "gas")]))
    plant = st.tuples(st.floats(1.0, 10.0), st.floats(0.5, 10.0), st.floats(0.5, 10.0),
                      st.floats(1.0, 2.5))
    plants = [(fuel, cap, up, -dn, eff) for fuel in fuels
              for cap, up, dn, eff in draw(st.lists(plant, min_size=1, max_size=3))]
    return build_scenario(
        seed=draw(st.integers(0, 99)), sizes=sizes,
        fuels={fuel: {"coal": 0.9, "gas": 0.5}[fuel] for fuel in fuels},
        producers=[(draw(st.floats(0.5, 2.0)), plants)], consumers=[(1.0, 1.0, 0.0)],
        demand_frac=draw(st.floats(0.2, 0.7)))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(fleets())
def test_every_row_of_a_drawn_fleet_follows_its_label(sc):
    _assert_rows_follow_labels(sc)


BLOCK_SIZES = ("n_nodes", "n_fuels", "n_v", "n_f", "n_o", "plants_per_delivery", "n_w",
               "n_traded", "total")


def _assert_block_sizes(sc):
    """Every player's IndexMap holds its block sizes as fields set once,
    equal to their formulas in the grid, the fuels and the plant counts."""
    for problem in eq.assemble_all(sc):
        im = problem.index_map
        assert {f.name for f in fields(im) if not f.init} == set(BLOCK_SIZES)
        nodes, per = sc.grid.n_contracts, sum(im.plant_counts)
        assert (im.n_nodes, im.n_fuels, im.n_v, im.n_o) == (nodes, len(im.fuels), nodes, nodes)
        assert im.n_f == nodes * len(im.fuels)
        assert im.plants_per_delivery == per and im.n_w == sc.grid.n_deliveries * per
        assert im.n_traded == im.n_v + im.n_f + im.n_o and im.total == im.n_traded + im.n_w
        assert problem.n_prices == nodes
        if problem.kind == "producer":
            player = next(p for p in sc.producers if p.name == problem.name)
            plants = player.plants_by_fuel(sc.fuel_names)
            assert im.plant_counts == tuple(len(plants[fuel]) for fuel in im.fuels)
            assert problem.n_vars == im.total


@pytest.mark.parametrize("name", list(LABELLED))
def test_index_map_block_sizes_are_fields(name):
    _assert_block_sizes(LABELLED[name])


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(fleets())
def test_index_map_block_sizes_of_a_drawn_fleet(sc):
    _assert_block_sizes(sc)


@pytest.mark.parametrize("name", ["two_fuels", "ladder48", "portfolio12"])
def test_capacity_rows_name_each_plants_production(name):
    sc = LABELLED[name]
    for problem in eq.assemble_all(sc)[: len(sc.producers)]:
        n_t = problem.index_map.n_traded
        table = problem.capacity_rows()
        assert table.shape == (2, problem.index_map.n_w)
        for side, sign, rows in zip(("cap_upper", "cap_lower"), (1.0, -1.0), table.tolist()):
            for col, row in enumerate(rows):
                assert problem.ineq_labels[row][0] == side
                assert np.flatnonzero(problem.ineq_matrix[row]).tolist() == [n_t + col]
                assert problem.ineq_matrix[row, n_t + col] == sign


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
