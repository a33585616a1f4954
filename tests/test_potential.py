"""The welfare potential Φ(π) = Σ_k objective_k(π) that the solver minimizes,
and the joint welfare QP whose clearing multipliers are the equilibrium."""

import numpy as np
import pytest

import equiterm as eq
from equiterm.equilibrium import Market
from tests.corpus import ladder, make_corpus, portfolio
from tests.welfare import welfare_qp_prices

CORPUS = dict(make_corpus())


@pytest.mark.parametrize("name", ["twin_plants", "three_by_three", "discounted_more", "two_fuels"])
def test_potential_gradient_is_minus_excess(name):
    # twin_plants' producer has a flat production block: W is not unique,
    # the potential still is
    sc = CORPUS[name]
    market = Market(sc)
    centre = eq.solve_equilibrium(sc, market=market).prices
    scale = max(1.0, float(np.max(np.abs(centre))))
    h = 1e-4 * scale
    rng = np.random.default_rng(61)

    def phi(prices):
        return sum(sol.objective for sol in market.solutions(prices))

    for _ in range(5):
        p = centre + 0.05 * scale * rng.standard_normal(centre.size)
        z, _ = market.excess(p)
        fd = np.array([(phi(p + h * e) - phi(p - h * e)) / (2.0 * h)
                       for e in np.eye(p.size)])
        assert float(np.max(np.abs(fd + z))) <= 1e-6 * float(np.max(np.abs(z)))


WELFARE_MARKETS = {**CORPUS, "ladder_12": ladder(12), "ladder_24": ladder(24),
                   "portfolio_12": portfolio(12), "portfolio_24": portfolio(24)}


@pytest.mark.parametrize("name", list(WELFARE_MARKETS))
def test_solver_matches_welfare_qp(name):
    sc = WELFARE_MARKETS[name]
    res = eq.solve_equilibrium(sc)
    assert res.converged, res.message
    np.testing.assert_allclose(res.prices, welfare_qp_prices(sc), rtol=0, atol=1e-9)
