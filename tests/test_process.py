import dataclasses

import numpy as np
import pytest

import equiterm as eq
from equiterm.errors import EnsembleError
from equiterm.process import (
    PathEnsemble,
    _class_spread,
    doob_decompose,
    drift_matching_prices,
    ensemble_from_records,
    ensemble_to_records,
    shift_measure,
    verify_covariance_invariance,
)


GRID3 = eq.TradingGrid((1.0,), ((0.25, 0.5, 1.0),))


def _ens(grid, pi, weights=None, fuels=("gas",), g=None, gem=None):
    pi = np.asarray(pi, dtype=float)
    n = pi.shape[0]
    if weights is None:
        weights = np.full(n, 1.0 / n)
    width = pi.shape[1]
    if g is None:
        g = np.full((n, width * len(fuels)), 3.0)
    if gem is None:
        gem = np.full((n, width), 1.0)
    return PathEnsemble(grid, fuels, np.asarray(weights, float), pi, g, gem)


def test_deterministic_path_split():
    ens = _ens(GRID3, [[1.0, 2.0, 3.0]], weights=[1.0])
    parts = doob_decompose(ens)
    np.testing.assert_array_equal(parts.martingale, [[1.0, 1.0, 1.0]])
    np.testing.assert_array_equal(parts.predictable, [[0.0, 1.0, 2.0]])
    assert parts.max_reconstruction_error(ens) == 0.0


def test_martingale_path_has_zero_drift():
    grid = eq.TradingGrid((1.0,), ((0.5, 1.0),))
    ens = _ens(grid, [[1.0, 0.0], [1.0, 2.0]])
    parts = doob_decompose(ens)
    np.testing.assert_array_equal(parts.predictable, np.zeros((2, 2)))
    np.testing.assert_array_equal(parts.martingale, ens.pi)


def test_biased_branch_drift():
    grid = eq.TradingGrid((1.0,), ((0.5, 1.0),))
    ens = _ens(grid, [[1.0, 1.0], [1.0, 2.0]])  # E[pi(t1)|t0] = 1.5
    parts = doob_decompose(ens)
    np.testing.assert_array_equal(parts.predictable[:, 1], [0.5, 0.5])
    assert parts.martingale_residual(ens) == 0.0
    assert parts.predictability_residual(ens) == 0.0


def test_three_level_tree_exact():
    # dyadic weights and values: every check is exact in floating point
    pi = np.array([
        [1.0, 2.0, 3.0],
        [1.0, 2.0, 1.0],
        [1.0, 0.0, 1.0],
        [1.0, 0.0, -1.0],
    ])
    ens = _ens(GRID3, pi, weights=[0.25, 0.25, 0.25, 0.25])
    parts = doob_decompose(ens)
    assert parts.max_reconstruction_error(ens) == 0.0
    assert parts.martingale_residual(ens) == 0.0
    assert parts.predictability_residual(ens) == 0.0


def test_identity_shift_is_identity():
    pi = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
    ens = _ens(GRID3, pi)
    parts = doob_decompose(ens)
    back = shift_measure(ens, parts.predictable)
    np.testing.assert_array_equal(back.pi, ens.pi)
    rep = verify_covariance_invariance(ens, back)
    assert rep.max_abs_deviation == 0.0


def test_zero_drift_yields_martingale():
    pi = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
    ens = _ens(GRID3, pi)
    shifted = shift_measure(ens, np.zeros(3))
    parts = doob_decompose(shifted)
    np.testing.assert_array_equal(parts.predictable, np.zeros_like(pi))
    assert doob_decompose(shifted).martingale_residual(shifted) == 0.0


def test_uniform_shift_keeps_covariance():
    pi = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
    ens = _ens(GRID3, pi)
    parts = doob_decompose(ens)
    shifted = shift_measure(ens, parts.predictable + np.array([0.0, 10.0, 10.0]))
    rep = verify_covariance_invariance(ens, shifted)
    assert rep.max_abs_deviation <= 1e-12


def test_random_admissible_drifts_keep_covariance():
    rng = np.random.default_rng(17)
    pi = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
    ens = _ens(GRID3, pi)
    for _ in range(25):
        drift = np.concatenate([[0.0], 10.0 * rng.standard_normal(2)])
        shifted = shift_measure(ens, drift)
        rep = verify_covariance_invariance(shift_measure(ens, np.zeros(3)), shifted)
        assert rep.max_abs_deviation <= 1e-12


def test_drift_reproduced_by_decomposition():
    rng = np.random.default_rng(3)
    pi = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
    ens = _ens(GRID3, pi)
    drift = np.concatenate([[0.0], rng.standard_normal(2)])
    shifted = shift_measure(ens, drift)
    parts = doob_decompose(shifted)
    np.testing.assert_allclose(parts.predictable, np.broadcast_to(drift, pi.shape),
                               atol=1e-14)


def test_predictable_per_path_drift_accepted_and_reproduced():
    pi = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
    ens = _ens(GRID3, pi)
    # drift at the last step may depend on the branch taken at the middle step
    drift = np.array([
        [0.0, 0.5, 2.0],
        [0.0, 0.5, 2.0],
        [0.0, 0.5, -1.0],
        [0.0, 0.5, -1.0],
    ])
    shifted = shift_measure(ens, drift)
    parts = doob_decompose(shifted)
    np.testing.assert_array_equal(parts.predictable, drift)


def test_non_predictable_drift_rejected():
    pi = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
    ens = _ens(GRID3, pi)
    drift = np.zeros((4, 3))
    drift[0, 2] = 1.0  # differs across siblings sharing the middle node
    with pytest.raises(EnsembleError):
        shift_measure(ens, drift)


def test_nonzero_root_drift_rejected_without_normalize():
    ens = _ens(GRID3, [[1.0, 2.0, 3.0], [1.0, 0.0, 1.0]])
    with pytest.raises(EnsembleError):
        shift_measure(ens, np.array([1.0, 0.0, 0.0]))


def test_normalized_shift_targets_expected_prices():
    pi = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
    ens = _ens(GRID3, pi)
    target = np.array([4.0, 5.0, 6.0])
    drift = drift_matching_prices(ens, target, normalize=True)  # r = 0: raw == discounted
    shifted = shift_measure(ens, drift, normalize=True)
    means = shifted.weights @ shifted.pi
    np.testing.assert_allclose(means, target, atol=1e-14)
    assert verify_covariance_invariance(ens, shifted).max_abs_deviation <= 1e-12


def test_records_roundtrip():
    grid = eq.TradingGrid((1.0, 2.0), ((0.5, 1.0), (2.0,)))
    records = [
        {"weight": 0.5, "pi": [[1.0, 2.0], [4.0]], "g": {"gas": [[3.0, 3.1], [3.2]]},
         "g_em": [[1.0, 1.1], [1.2]]},
        {"weight": 0.5, "pi": [[1.0, 0.0], [2.0]], "g": {"gas": [[3.0, 2.9], [3.0]]},
         "g_em": [[1.0, 0.9], [1.0]]},
    ]
    ens = ensemble_from_records(grid, ("gas",), records)
    assert ensemble_to_records(ens) == records
    assert ens.pi.shape == (2, 3)
    np.testing.assert_array_equal(ens.pi[0], [1.0, 2.0, 4.0])
    np.testing.assert_array_equal(ens.g[1], [3.0, 2.9, 3.0])


def test_branching_counts_information_sets():
    pi = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
    ens = _ens(GRID3, pi)
    assert int(ens.information_classes(0.25).max()) + 1 == 1
    assert int(ens.information_classes(0.5).max()) + 1 == 2
    assert int(ens.information_classes(1.0).max()) + 1 == 4


def test_replaced_ensemble_finds_its_own_information_classes():
    pi = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
    ens = _ens(GRID3, pi)
    assert int(ens.information_classes(0.5).max()) + 1 == 2
    alike = dataclasses.replace(ens, pi=np.repeat(pi[:1], 4, axis=0))
    assert int(alike.information_classes(0.5).max()) + 1 == 1


def _branching_market_tree():
    """64-path dyadic tree with deterministic drift, rich enough for a
    positive definite 6-dimensional covariance."""
    grid = eq.TradingGrid((1.0,), ((0.5, 1.0),))
    base = {"pi": 8.0, "g": 3.0, "gem": 1.0}
    amp1 = {"pi": 1.0, "g": 0.5, "gem": 0.25}
    amp2 = {"pi": 0.75, "g": 0.4, "gem": 0.2}
    drift2 = {"pi": 0.5, "g": 0.1, "gem": 0.05}
    paths = {"pi": [], "g": [], "gem": []}
    for k1 in range(8):
        s1 = [1 if k1 & (1 << b) else -1 for b in range(3)]
        for k2 in range(8):
            s2 = [1 if k2 & (1 << b) else -1 for b in range(3)]
            for b, key in enumerate(("pi", "g", "gem")):
                v1 = base[key] + s1[b] * amp1[key]
                v2 = v1 + drift2[key] + s2[b] * amp2[key]
                paths[key].append([v1, v2])
    n = 64
    return PathEnsemble(grid, ("gas",), np.full(n, 1.0 / n),
                        np.array(paths["pi"]), np.array(paths["g"]),
                        np.array(paths["gem"]))


def test_equilibrium_prices_are_a_fixed_point_of_the_drift():
    ens = _branching_market_tree()
    exo = eq.ExogenousModel((4.0,), {"gas": ((3.0, 3.1),)}, ((1.0, 1.05),),
                            ensemble=ens)
    producers = (eq.Producer(1.0, (eq.PowerPlant("gas", 10.0, 10.0, -10.0, 2.0),)),)
    consumers = (eq.Consumer(1.0, 1.0),)
    sc = eq.Scenario(ens.grid, producers, consumers, eq.FuelTable({"gas": 0.5}),
                     exo, eq.Bounds(100.0, 500.0, 1000.0))
    res = eq.solve_equilibrium(sc)
    assert res.converged

    drift = drift_matching_prices(ens, res.prices)
    shifted = shift_measure(ens, drift)
    means = shifted.weights @ shifted.pi
    # later expectations hit the equilibrium prices; the first node keeps
    # its historical level so its variance survives
    np.testing.assert_allclose(means[1:], res.prices[1:], atol=1e-12)

    exo2 = eq.ExogenousModel((4.0,), {"gas": ((3.0, 3.1),)}, ((1.0, 1.05),),
                             ensemble=shifted)
    sc2 = eq.Scenario(ens.grid, producers, consumers, eq.FuelTable({"gas": 0.5}),
                      exo2, eq.Bounds(100.0, 500.0, 1000.0))
    c1 = sc.covariance_blocks().stacked()
    c2 = sc2.covariance_blocks().stacked()
    assert float(np.max(np.abs(c1 - c2))) <= 1e-12

    res2 = eq.solve_equilibrium(sc2, eq.SolveOptions(initial_prices=res.prices))
    assert res2.converged
    assert res2.iterations <= 2
    np.testing.assert_allclose(res2.prices, res.prices, atol=1e-9)


def test_class_spread_matches_the_per_class_masks():
    rng = np.random.default_rng(21)
    for n, n_groups in ((1, 1), (7, 3), (50, 50), (200, 9), (1000, 400)):
        labels = rng.permutation(np.arange(n) % n_groups)
        # rounded values, so classes hold ties and repeated extremes
        col = np.round(rng.standard_normal(n), 1)
        expected = max(float(np.ptp(col[labels == grp])) for grp in range(n_groups))
        assert _class_spread(col, labels) == expected


def test_zero_weight_class_falls_back_to_plain_average():
    # the third path is alone in its class at t = 0.5 and carries no weight
    ens = _ens(GRID3, [[1.0, 2.0, 3.0], [1.0, 2.0, 4.0], [1.0, 5.0, 6.0]],
               weights=[0.5, 0.5, 0.0])
    parts = doob_decompose(ens)
    assert np.all(np.isfinite(parts.martingale)) and np.all(np.isfinite(parts.predictable))
    np.testing.assert_array_equal(parts.predictable[:, 2], [2.5, 2.5, 2.0])
    assert parts.max_reconstruction_error(ens) == 0.0
    assert parts.martingale_residual(ens) == 0.0
    assert parts.predictability_residual(ens) == 0.0
