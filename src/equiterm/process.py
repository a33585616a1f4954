"""Weighted path ensembles over the trading grid and drift re-selection.

The filtration is a finite scenario tree derived from the paths themselves:
two paths are in the same information set at time tau when they agree on
every coordinate observed up to tau.  This keeps conditional expectations
exact at desk scale.

An adapted price path splits uniquely into a martingale part plus a
predictable drift.  Re-selecting the drift (the market's freedom to move
expected prices) translates each node value and therefore leaves every
second moment untouched; ``verify_covariance_invariance`` checks that
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EnsembleError, known_keys
from .grid import TradingGrid, canonical_index

__all__ = [
    "PathEnsemble",
    "DoobParts",
    "doob_decompose",
    "shift_measure",
    "verify_covariance_invariance",
    "drift_matching_prices",
    "ensemble_from_records",
    "ensemble_to_records",
    "raw_covariance",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PathEnsemble:
    """Weighted sample paths of power, fuel and emission forward quotes.

    ``pi`` and ``gem`` are (n_paths, N) in canonical node order; ``g`` is
    (n_paths, N*|L|) with the fuel index fastest.  Values are undiscounted
    market quotes.  Weights are probabilities.
    """

    grid: TradingGrid
    fuels: tuple[str, ...]
    weights: np.ndarray
    pi: np.ndarray
    g: np.ndarray
    gem: np.ndarray
    _class_cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_class_cache", {})
        object.__setattr__(self, "fuels", tuple(self.fuels))
        if tuple(sorted(self.fuels)) != self.fuels:
            raise EnsembleError("fuels must be sorted")
        n_nodes = self.grid.n_contracts
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise EnsembleError("weights must be a non-empty vector")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise EnsembleError("weights must be finite and non-negative")
        total = w.sum()
        if abs(total - 1.0) > 1e-12:
            raise EnsembleError(f"weights must sum to 1 (got {total!r})")
        object.__setattr__(self, "weights", _freeze(w / total))
        for name, width in (("pi", n_nodes), ("g", n_nodes * len(self.fuels)), ("gem", n_nodes)):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (w.size, width):
                raise EnsembleError(f"{name} must have shape ({w.size}, {width}), got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise EnsembleError(f"{name} contains non-finite values")
            object.__setattr__(self, name, _freeze(arr))

    @property
    def n_paths(self) -> int:
        return self.weights.size

    # ---- filtration -----------------------------------------------------
    def _observed_columns(self, tau: float) -> np.ndarray:
        """Column mask into hstack(pi, g, gem) for coordinates known by tau."""
        node_times = np.array(
            [t for ts in self.grid.trading_times for t in ts], dtype=float
        )
        mask = node_times <= tau
        return np.concatenate([mask, np.repeat(mask, len(self.fuels)), mask])

    def information_classes(self, tau: float) -> np.ndarray:
        """Label paths by information set at time tau (equal-prefix grouping)."""
        key = float(tau)
        cached = self._class_cache.get(key)
        if cached is not None:
            return cached
        cols = self._observed_columns(tau)
        data = np.hstack([self.pi, self.g, self.gem])[:, cols]
        groups: dict[bytes, int] = {}
        labels = np.empty(self.n_paths, dtype=np.intp)
        for p in range(self.n_paths):
            k = data[p].tobytes()
            labels[p] = groups.setdefault(k, len(groups))
        labels.flags.writeable = False
        self._class_cache[key] = labels
        return labels

    def conditional_expectation(self, values: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Per-path conditional mean of ``values`` given the class labels."""
        values = np.asarray(values, dtype=float)
        n_groups = int(labels.max()) + 1
        wsum = np.bincount(labels, weights=self.weights, minlength=n_groups)
        vsum = np.bincount(labels, weights=self.weights * values, minlength=n_groups)
        means = np.empty(n_groups)
        ok = wsum > 0
        means[ok] = vsum[ok] / wsum[ok]
        if not np.all(ok):
            # zero-weight branches: fall back to plain averaging so the
            # decomposition stays finite; they carry no probability mass
            cnt = np.bincount(labels, minlength=n_groups)
            plain = np.bincount(labels, weights=values, minlength=n_groups)
            means[~ok] = plain[~ok] / cnt[~ok]
        return means[labels]

    def steps(self):
        """(delivery j, step k, previous node, node, information classes at
        t_{k-1}) for every step t_{k-1} -> t_k of every delivery, in
        canonical order; nodes are flat contract positions."""
        for j, block in enumerate(self.grid.slices):
            times = self.grid.trading_times[j]
            for k in range(1, len(times)):
                node = block.start + k
                yield j, k, node - 1, node, self.information_classes(times[k - 1])


def _class_spread(col: np.ndarray, labels: np.ndarray) -> float:
    """Largest spread of ``col`` among the paths of one information class,
    from one pass over the paths."""
    n_groups = int(labels.max()) + 1
    hi = np.full(n_groups, -np.inf)
    lo = np.full(n_groups, np.inf)
    np.maximum.at(hi, labels, col)
    np.minimum.at(lo, labels, col)
    return float(np.max(hi - lo))


@dataclass(frozen=True)
class DoobParts:
    """Martingale and predictable components of the power-price paths.

    Reconstruction ``pi = martingale + predictable`` holds node-wise.  With
    ``normalized`` the martingale starts at zero per delivery and the first
    node's level lives in the predictable part instead.
    """

    grid: TradingGrid
    martingale: np.ndarray
    predictable: np.ndarray
    normalized: bool = False

    def reconstruct(self) -> np.ndarray:
        return self.martingale + self.predictable

    def max_reconstruction_error(self, ensemble: PathEnsemble) -> float:
        return float(np.max(np.abs(self.reconstruct() - ensemble.pi)))

    def martingale_residual(self, ensemble: PathEnsemble) -> float:
        """Worst deviation of E[M(t_k) | info at t_{k-1}] from M(t_{k-1})."""
        worst = 0.0
        for _, _, prev, node, labels in ensemble.steps():
            cond = ensemble.conditional_expectation(self.martingale[:, node], labels)
            worst = max(worst, float(np.max(np.abs(cond - self.martingale[:, prev]))))
        return worst

    def predictability_residual(self, ensemble: PathEnsemble) -> float:
        """Worst spread of the drift across paths sharing the prior node."""
        return max((_class_spread(self.predictable[:, node], labels)
                    for _, _, _, node, labels in ensemble.steps()), default=0.0)


def doob_decompose(ensemble: PathEnsemble, normalize: bool = False) -> DoobParts:
    """Split the power paths into martingale plus predictable drift.

    Per delivery, per path: M(t_0) = pi(t_0), A(t_0) = 0, and for k >= 1
    the drift accumulates E[pi(t_k) | t_{k-1}] - pi(t_{k-1}) while the
    martingale accumulates the surprise pi(t_k) - E[pi(t_k) | t_{k-1}].
    With ``normalize`` the first-node level moves from M to A.
    """
    grid, pi = ensemble.grid, ensemble.pi
    M = np.zeros((ensemble.n_paths, grid.n_contracts))
    A = np.zeros_like(M)
    firsts = [block.start for block in grid.slices]
    M[:, firsts] = pi[:, firsts]
    for _, _, prev, node, labels in ensemble.steps():
        cond = ensemble.conditional_expectation(pi[:, node], labels)
        A[:, node] = A[:, prev] + (cond - pi[:, prev])
        M[:, node] = M[:, prev] + (pi[:, node] - cond)
    if normalize:
        root = np.repeat(pi[:, firsts], grid.sizes, axis=1)
        M -= root
        A += root
    return DoobParts(ensemble.grid, _freeze(M), _freeze(A), normalized=normalize)


def _drift_as_paths(ensemble: PathEnsemble, drift) -> np.ndarray:
    drift = np.asarray(drift, dtype=float)
    n_nodes = ensemble.grid.n_contracts
    if drift.shape == (n_nodes,):
        return np.broadcast_to(drift, (ensemble.n_paths, n_nodes))
    if drift.shape == (ensemble.n_paths, n_nodes):
        return drift
    raise EnsembleError(
        f"drift must have shape ({n_nodes},) or ({ensemble.n_paths}, {n_nodes})"
    )


def _check_drift_admissible(ensemble: PathEnsemble, drift: np.ndarray, normalize: bool):
    firsts = [block.start for block in ensemble.grid.slices]
    if not normalize and np.any(drift[:, firsts] != 0.0):
        raise EnsembleError(
            "drift at the first trading time must be zero (use normalize=True "
            "to re-anchor the level instead)"
        )
    for j, k, _, node, labels in ensemble.steps():
        if _class_spread(drift[:, node], labels) > 0.0:
            raise EnsembleError(
                f"drift is not predictable: differs across siblings at "
                f"delivery {j}, trading step {k}"
            )


def shift_measure(ensemble: PathEnsemble, drift, normalize: bool = False) -> PathEnsemble:
    """Replace the power drift: new pi = martingale + drift, node-wise.

    ``drift`` is either a flat (N,) table (chosen once, today) or a
    per-path (n_paths, N) array that must be predictable.  Weights, fuel and
    emission paths stay untouched, so do all conditional variances.
    """
    drift = _drift_as_paths(ensemble, drift)
    _check_drift_admissible(ensemble, drift, normalize)
    parts = doob_decompose(ensemble, normalize=normalize)
    new_pi = parts.martingale + drift
    return PathEnsemble(ensemble.grid, ensemble.fuels, ensemble.weights, new_pi,
                        ensemble.g, ensemble.gem)


def drift_matching_prices(ensemble: PathEnsemble, discounted_prices: np.ndarray,
                          normalize: bool = False) -> np.ndarray:
    """Drift table that re-targets expected power quotes to given prices.

    ``discounted_prices`` is an (N,) vector in the solver's discounted
    canonical order; the returned table is in raw quote units and meant for
    ``shift_measure`` with the same ``normalize`` flag.

    Default convention: the first trading node of each delivery keeps its
    (possibly random) historical level and later expectations are shifted
    relative to it, which preserves every covariance entry.  With
    ``normalize`` the whole term structure is re-anchored instead; the
    first node then becomes deterministic and loses its variance.
    """
    prices = np.asarray(discounted_prices, dtype=float)
    if prices.shape != (ensemble.grid.n_contracts,):
        raise EnsembleError("price vector does not match the grid")
    raw = prices / ensemble.grid.node_discounts()
    if normalize:
        return raw
    drift = np.empty_like(raw)
    for block in ensemble.grid.slices:
        drift[block] = raw[block] - float(ensemble.weights @ ensemble.pi[:, block.start])
        drift[block.start] = 0.0
    return drift


def raw_covariance(ensemble: PathEnsemble) -> np.ndarray:
    """Weighted covariance of the discounted stacked (pi, g, gem) vector."""
    im = canonical_index(ensemble.grid, ensemble.fuels)
    disc = im.price_discounts()
    x = np.hstack([ensemble.pi, ensemble.g, ensemble.gem]) * disc
    mean = ensemble.weights @ x
    centred = x - mean
    cov = (centred * ensemble.weights[:, None]).T @ centred
    return 0.5 * (cov + cov.T)


@dataclass(frozen=True)
class InvarianceReport:
    max_abs_deviation: float
    dimension: int


def verify_covariance_invariance(original: PathEnsemble, shifted: PathEnsemble) -> InvarianceReport:
    """Compare full second-moment blocks of two ensembles on the same tree.

    Drift re-selection translates node values, so the covariance of
    (pi, g, gem) must agree between the two ensembles.  Deviation is
    reported relative to the largest block entry when that exceeds 1.
    """
    if original.grid != shifted.grid or original.fuels != shifted.fuels:
        raise EnsembleError("ensembles live on different grids")
    if original.n_paths != shifted.n_paths or np.any(original.weights != shifted.weights):
        raise EnsembleError("ensembles carry different weights")
    ca, cb = raw_covariance(original), raw_covariance(shifted)
    dev = float(np.max(np.abs(ca - cb))) / max(1.0, float(np.max(np.abs(ca))))
    return InvarianceReport(dev, ca.shape[0])


def ensemble_from_records(grid: TradingGrid, fuels, records) -> PathEnsemble:
    """Build an ensemble from nested per-delivery path records.

    Each record carries ``weight``, ``pi`` and ``g_em`` as per-delivery
    lists of per-trading-time values, and ``g`` as a mapping fuel ->
    same nested layout.  A key outside that layout is refused by name.
    """
    fuels = tuple(sorted(fuels))
    n_nodes = grid.n_contracts
    weights, pis, gs, gems = [], [], [], []
    for rec in records:
        known_keys(rec, ("weight", "pi", "g", "g_em"), "path record")
        known_keys(rec["g"], fuels, "path record's g")
        weights.append(float(rec["weight"]))
        pi_flat = np.empty(n_nodes)
        gem_flat = np.empty(n_nodes)
        g_flat = np.empty((n_nodes, len(fuels)))
        for j, (block, m) in enumerate(zip(grid.slices, grid.sizes)):
            pi_j = rec["pi"][j]
            gem_j = rec["g_em"][j]
            if len(pi_j) != m or len(gem_j) != m:
                raise EnsembleError(f"path record has wrong width at delivery {j}")
            pi_flat[block] = pi_j
            gem_flat[block] = gem_j
            for l, fuel in enumerate(fuels):
                g_j = rec["g"][fuel][j]
                if len(g_j) != m:
                    raise EnsembleError(
                        f"path record has wrong width at delivery {j} for fuel {fuel!r}")
                g_flat[block, l] = g_j
        pis.append(pi_flat)
        gs.append(g_flat.reshape(-1))
        gems.append(gem_flat)
    return PathEnsemble(grid, fuels, np.array(weights), np.array(pis), np.array(gs),
                        np.array(gems))


def ensemble_to_records(ensemble: PathEnsemble) -> list[dict]:
    """The path records ``ensemble_from_records`` reads back, one per path."""
    grid, fuels = ensemble.grid, ensemble.fuels
    g = ensemble.g.reshape(ensemble.n_paths, grid.n_contracts, len(fuels))
    return [{
        "weight": float(ensemble.weights[p]),
        "pi": [ensemble.pi[p, b].tolist() for b in grid.slices],
        "g": {f: [g[p, b, l].tolist() for b in grid.slices] for l, f in enumerate(fuels)},
        "g_em": [ensemble.gem[p, b].tolist() for b in grid.slices],
    } for p in range(ensemble.n_paths)]
