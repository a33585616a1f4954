"""The active-set engine factors each working set once.

One SVD of the working-set rows gives the null-space basis and the
minimum-norm multipliers, at the rank cut of ``lstsq(rcond=None)``, and it
is kept while no row enters or leaves.
"""

import numpy as np
import pytest

import equiterm as eq
from equiterm import players, qp
from tests.corpus import ladder


def _random_rows(seed, m, n, repeat=None):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((m, n))
    if repeat is not None:
        C = np.vstack([C, C[repeat]])
    return C, rng.standard_normal(n)


@pytest.mark.parametrize("m, n, repeat", [(1, 4, None), (3, 5, None), (5, 5, None),
                                          (3, 6, 0), (4, 4, 2), (2, 3, 1)])
def test_multipliers_from_the_factor_match_lstsq(m, n, repeat):
    # a repeated row (an equality row stated twice) makes C rank-deficient:
    # both must return the same minimum-norm split of its multiplier
    C, r = _random_rows(10 * m + n, m, n, repeat)
    Z, multipliers = qp._factor(C, n)
    y = multipliers(r)
    ref = np.linalg.lstsq(C.T, r, rcond=None)[0]
    assert np.max(np.abs(y - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))
    rank = np.linalg.matrix_rank(C)
    assert Z.shape == (n, n - rank)
    np.testing.assert_allclose(C @ Z, 0.0, atol=1e-12)
    np.testing.assert_allclose(Z.T @ Z, np.eye(n - rank), atol=1e-12)


def test_factor_of_no_rows_is_the_identity():
    Z, multipliers = qp._factor(np.zeros((0, 3)), 3)
    assert np.array_equal(Z, np.eye(3))
    assert multipliers(np.ones(3)).shape == (0,)


def test_engine_duals_with_a_repeated_equality_row():
    # min 1/2 |x - c|^2 s.t. x0 + x1 = 1 stated twice and x >= 0
    c = np.array([2.0, -1.0, 0.5])
    A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    res = qp.solve_qp_active_set(np.eye(3), -c, A, np.ones(2), -np.eye(3), np.zeros(3),
                                 np.array([0.5, 0.5, 0.0]))
    np.testing.assert_allclose(res.x, [1.0, 0.0, 0.5], atol=1e-12)
    assert res.working_set == (1,)
    # stationarity x - c + A'mu - eta = 0 with the multiplier split evenly
    np.testing.assert_allclose(res.eq_duals, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(res.ineq_duals, [0.0, 2.0, 0.0], atol=1e-12)


def _w_qp_calls(scenario):
    """The arguments of every W-QP the engine gets while ``scenario`` solves
    with the region walk bypassed, so that every W-QP goes to the engine."""
    calls = []
    engine = players.solve_qp_active_set

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return engine(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(players, "_step", lambda record, groups, *rest: [
            ([False] * len(cols), [None] * len(cols)) for _, _, cols in groups])
        mp.setattr(players, "solve_qp_active_set", recording)
        market = eq.Market(scenario)
        eq.solve_equilibrium(scenario, market=market)
        hessians = {id(players._condensation(p).hessian) for p in market.problems}
    return [(args, kwargs) for args, kwargs in calls if id(args[0]) in hessians]


def test_one_svd_per_working_set_within_a_call(monkeypatch):
    calls = _w_qp_calls(ladder(12))
    assert calls
    svd = np.linalg.svd
    factored = []

    def recording(C, *args, **kwargs):
        factored.append(tuple(sorted(row.tobytes() for row in C)))
        return svd(C, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    iterations = svds = 0
    for args, kwargs in calls:
        factored.clear()
        iterations += qp.solve_qp_active_set(*args, **kwargs).iterations
        assert len(factored) == len(set(factored))
        svds += len(factored)
    # a full step that keeps the working set reuses its factor
    assert svds < iterations


def test_a_descent_ray_with_no_rows_is_unbounded():
    # G = 0, g = -1 and no rows: the objective falls without bound along +x
    with pytest.raises(eq.NumericalError, match="descent ray is unbounded"):
        qp.solve_qp_active_set(np.zeros((1, 1)), [-1.0], np.zeros((0, 1)), [],
                               np.zeros((0, 1)), [], [0.0])
