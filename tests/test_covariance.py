from dataclasses import replace

import numpy as np
import pytest

import equiterm as eq
from equiterm.covariance import estimate_covariance
from equiterm.errors import CovarianceError
from equiterm.process import PathEnsemble, raw_covariance
from tests.corpus import make_corpus


GRID = eq.TradingGrid((1.0,), ((1.0,),))


def two_point_ensemble(pi_vals=(0.0, 2.0), g_val=3.0, gem_val=1.0):
    return PathEnsemble(
        GRID, ("gas",),
        weights=np.array([0.5, 0.5]),
        pi=np.array([[pi_vals[0]], [pi_vals[1]]]),
        g=np.array([[g_val], [g_val]]),
        gem=np.array([[gem_val], [gem_val]]),
    )


def test_two_point_variance_pre_ridge():
    full = raw_covariance(two_point_ensemble())
    # Var(pi) = 1, everything against the constants is 0
    assert full[0, 0] == pytest.approx(1.0)
    assert np.abs(full[0, 1:]).max() == 0.0
    assert np.abs(full[1:, 1:]).max() == 0.0


def test_exact_linear_dependence_rejected():
    ens = PathEnsemble(
        GRID, ("gas",),
        weights=np.array([0.5, 0.5]),
        pi=np.array([[0.0], [2.0]]),
        g=np.array([[0.0], [2.0]]),   # fuel path identical to power path
        gem=np.array([[1.0], [3.0]]),
    )
    with pytest.raises(CovarianceError):
        estimate_covariance(ens)


def test_single_path_rejected():
    ens = PathEnsemble(GRID, ("gas",), np.array([1.0]), np.array([[1.0]]),
                       np.array([[2.0]]), np.array([[3.0]]))
    with pytest.raises(CovarianceError):
        estimate_covariance(ens)


def test_many_paths_off_diagonals_small():
    rng = np.random.default_rng(123)
    n = 1000
    ens = PathEnsemble(
        GRID, ("gas",),
        weights=np.full(n, 1.0 / n),
        pi=rng.standard_normal((n, 1)),
        g=rng.standard_normal((n, 1)),
        gem=rng.standard_normal((n, 1)),
    )
    blocks = estimate_covariance(ens)
    full = blocks.stacked()
    off = full[~np.eye(3, dtype=bool)]
    assert np.abs(off).max() < 0.15  # sampling error stays within ~3/sqrt(n)
    assert blocks.is_positive_definite()


def test_estimation_discounts_quotes():
    grid = eq.TradingGrid((1.0,), ((1.0,),), interest_rate=0.5)
    rng = np.random.default_rng(5)
    n = 64
    pi = rng.standard_normal((n, 1))
    ens_flat = PathEnsemble(GRID, ("gas",), np.full(n, 1 / n), pi,
                            rng.standard_normal((n, 1)), rng.standard_normal((n, 1)))
    ens_disc = PathEnsemble(grid, ("gas",), ens_flat.weights, ens_flat.pi,
                            ens_flat.g, ens_flat.gem)
    d = np.exp(-0.5)
    np.testing.assert_allclose(raw_covariance(ens_disc), d * d * raw_covariance(ens_flat))


def test_blocks_shape_and_symmetry_checks():
    with pytest.raises(CovarianceError):
        eq.CovarianceBlocks(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((2, 4)), np.eye(4))
    with pytest.raises(CovarianceError):
        eq.CovarianceBlocks(np.eye(2), np.zeros((2, 3)), np.eye(4))
    blocks = eq.CovarianceBlocks(np.eye(2), np.zeros((2, 4)), np.eye(4))
    assert blocks.n_fuels == 1
    assert blocks.min_eigenvalue() == pytest.approx(1.0)


def test_ridge_applied_to_tiny_eigenvalues():
    # genuinely positive definite but tiny-scale data: lifted, not rejected
    rng = np.random.default_rng(9)
    n = 32
    s = 3e-6
    ens = PathEnsemble(GRID, ("gas",), np.full(n, 1 / n),
                       s * rng.standard_normal((n, 1)),
                       s * rng.standard_normal((n, 1)),
                       s * rng.standard_normal((n, 1)))
    blocks = estimate_covariance(ens)
    assert blocks.ridge > 0.0
    assert blocks.min_eigenvalue() >= 1e-10 * 0.99


def test_replaced_scenario_resolves_its_own_covariance():
    sc = dict(make_corpus())["two_fuels"]
    first = sc.covariance_blocks()  # fills the original's cache
    c = sc.exogenous.covariance
    scaled = eq.CovarianceBlocks(4.0 * c.q1, 4.0 * c.q2, 4.0 * c.q3)
    moved = replace(sc, exogenous=replace(sc.exogenous, covariance=scaled))
    assert moved.covariance_blocks() is scaled
    np.testing.assert_array_equal(moved.covariance_blocks().q1, 4.0 * first.q1)
    assert sc.covariance_blocks() is first
