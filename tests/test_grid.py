import json

import numpy as np
import pytest

import equiterm as eq
from equiterm.errors import GridError
from tests.corpus import build_scenario


def test_single_delivery_two_times_layout():
    # one delivery over two trading times, one fuel, one plant
    grid = eq.TradingGrid((1.0,), ((0.5, 1.0),))
    im = eq.canonical_index(grid, ("gas",), (1,))
    assert [im.v_index(0, i) for i in range(2)] == [0, 1]
    assert [im.f_index(0, i, "gas") for i in range(2)] == [2, 3]
    assert [im.o_index(0, i) for i in range(2)] == [4, 5]
    assert im.w_index(0, "gas", 0) == 6
    assert im.total == 7


def test_two_deliveries_price_order():
    grid = eq.TradingGrid((1.0, 2.0), ((1.0,), (2.0,)))
    im = eq.canonical_index(grid)
    assert grid.n_contracts == 2
    assert grid.node_labels() == ((0, 0), (1, 0))
    assert im.v_index(0, 0) == 0 and im.v_index(1, 0) == 1


def test_plant_order_is_canonical():
    plants = [
        eq.PowerPlant("gas", 5.0, 5.0, -5.0, 2.5, name="b"),
        eq.PowerPlant("gas", 5.0, 5.0, -5.0, 1.5, name="a"),
    ]
    p1 = eq.Producer(1.0, tuple(plants))
    p2 = eq.Producer(1.0, tuple(reversed(plants)))
    g1 = p1.plants_by_fuel(("gas",))
    g2 = p2.plants_by_fuel(("gas",))
    assert g1 == g2
    assert [pl.efficiency for pl in g1["gas"]] == [1.5, 2.5]


def test_index_map_is_a_bijection():
    # every V, F, O and W label, listed in canonical order, takes the next position
    grid = eq.TradingGrid((1.0, 2.0, 3.0), ((0.5, 1.0), (2.0,), (2.5, 2.8, 3.0)))
    im = eq.canonical_index(grid, ("coal", "gas"), (2, 1))
    nodes = grid.node_labels()
    labels = [("V", j, i) for j, i in nodes]
    labels += [("F", j, i, fuel) for j, i in nodes for fuel in im.fuels]
    labels += [("O", j, i) for j, i in nodes]
    labels += [("W", j, fuel, r) for j in range(grid.n_deliveries)
               for fuel, count in zip(im.fuels, im.plant_counts) for r in range(count)]
    assert [im.index_of(label) for label in labels] == list(range(im.total))


def test_grid_invariants():
    with pytest.raises(GridError):
        eq.TradingGrid((1.0,), ((0.5, 0.9),))  # last trading != delivery
    with pytest.raises(GridError):
        eq.TradingGrid((2.0, 1.0), ((2.0,), (1.0,)))  # decreasing deliveries
    with pytest.raises(GridError):
        eq.TradingGrid((1.0,), ((1.0, 0.5),))  # unordered trading times
    with pytest.raises(GridError):
        eq.TradingGrid((1.0,), ((),))  # empty trading list


def test_discounts():
    grid = eq.TradingGrid((1.0, 2.0), ((1.0,), (1.5, 2.0)), interest_rate=0.1)
    d = grid.node_discounts()
    assert d == pytest.approx([np.exp(-0.1), np.exp(-0.2), np.exp(-0.2)])
    im = eq.canonical_index(grid, ("gas",))
    pd = im.price_discounts()
    assert pd.shape == (3 * 3,)
    assert pd[:3] == pytest.approx(d)


def test_delivery_totals_matrix():
    grid = eq.TradingGrid((1.0, 2.0), ((0.5, 1.0), (2.0,)))
    a1 = eq.delivery_totals_matrix(grid)
    np.testing.assert_array_equal(a1, [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _uneven_market():
    """Sizes (2, 1, 3), r != 0, coal and gas."""
    return build_scenario(
        seed=7, sizes=(2, 1, 3), fuels={"coal": 0.9, "gas": 0.5}, r=0.05,
        producers=[(1.0, [("coal", 9.0, 9.0, -9.0, 1.0), ("gas", 6.0, 6.0, -6.0, 2.0)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.4)


def test_slices_own_the_contract_layout():
    sc = _uneven_market()
    grid = sc.grid
    im = eq.canonical_index(grid, sc.fuel_names)
    assert grid.sizes == (2, 1, 3) and grid.interest_rate != 0.0
    assert [list(range(grid.n_contracts))[b] for b in grid.slices] == [[0, 1], [2], [3, 4, 5]]
    labels = grid.node_labels()
    totals = eq.delivery_totals_matrix(grid)
    disc = grid.node_discounts()
    for j, block in enumerate(grid.slices):
        nodes = list(range(grid.n_contracts))[block]
        assert nodes == [im.v_index(j, i) for i in range(grid.sizes[j])]
        assert [labels[k] for k in nodes] == [(j, i) for i in range(grid.sizes[j])]
        np.testing.assert_array_equal(np.flatnonzero(totals[j]), nodes)
        assert np.all(disc[block] == grid.discount(j))
    assert totals.sum() == grid.n_contracts

    exo = sc.exogenous
    by_index = np.empty(im.n_f)
    for j, i in labels:
        for fuel in sc.fuel_names:
            by_index[im.f_index(j, i, fuel) - im.n_v] = exo.forwards_for(fuel)[j][i]
    np.testing.assert_array_equal(exo.flat_fuel_forwards(grid, sc.fuel_names), by_index)


def test_two_fuel_ensemble_roundtrips_through_the_document():
    sc = _uneven_market()
    grid = sc.grid
    im = eq.canonical_index(grid, sc.fuel_names)
    rng = np.random.default_rng(5)

    def nested():
        return [rng.standard_normal(m).tolist() for m in grid.sizes]

    records = [{"weight": 0.25, "pi": nested(), "g": {"coal": nested(), "gas": nested()},
                "g_em": nested()} for _ in range(4)]
    doc = eq.scenario_to_dict(sc)
    doc["exogenous"].pop("covariance")
    doc["exogenous"]["ensemble"] = {"paths": records}
    loaded = eq.scenario_from_dict(json.loads(json.dumps(doc)))
    ens = loaded.exogenous.ensemble
    for p, rec in enumerate(records):
        for j, i in grid.node_labels():
            assert ens.pi[p, im.v_index(j, i)] == rec["pi"][j][i]
            assert ens.gem[p, im.v_index(j, i)] == rec["g_em"][j][i]
            for fuel in sc.fuel_names:
                assert ens.g[p, im.f_index(j, i, fuel) - im.n_v] == rec["g"][fuel][j][i]

    again = eq.scenario_from_dict(json.loads(json.dumps(eq.scenario_to_dict(loaded))))
    back = again.exogenous.ensemble
    for name in ("pi", "g", "gem"):
        np.testing.assert_array_equal(getattr(back, name), getattr(ens, name))
