"""Trading/delivery grid and the canonical flat ordering of decision vectors.

Every vector in the library (prices, volumes, covariance rows) is laid out in
one canonical order: delivery-major, then trading time, then fuel, then plant.
Two owners hold that layout: ``TradingGrid.slices`` gives each delivery's
contiguous block of contracts, and the IndexMap places the V, F, O and W
blocks of a player's variables around it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError

__all__ = ["TradingGrid", "IndexMap", "canonical_index", "delivery_totals_matrix"]


@dataclass(frozen=True)
class TradingGrid:
    """Delivery times, per-delivery trading times, and the flat interest rate.

    ``deliveries[j]`` is the delivery time T_j in years; ``trading_times[j]``
    lists the times at which forwards on that delivery trade, the last one
    equal to the delivery time itself.  ``interest_rate`` may be negative.
    """

    deliveries: tuple[float, ...]
    trading_times: tuple[tuple[float, ...], ...]
    interest_rate: float = 0.0
    # derived once: every index computation reads them
    sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    n_contracts: int = field(init=False, repr=False, compare=False)
    slices: tuple[slice, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "deliveries", tuple(float(t) for t in self.deliveries))
        object.__setattr__(
            self, "trading_times", tuple(tuple(float(t) for t in ts) for ts in self.trading_times)
        )
        if len(self.deliveries) == 0:
            raise GridError("at least one delivery period required")
        if len(self.trading_times) != len(self.deliveries):
            raise GridError("trading_times must list one sequence per delivery")
        if any(b <= a for a, b in zip(self.deliveries, self.deliveries[1:])):
            raise GridError("delivery times must be strictly increasing")
        for T, ts in zip(self.deliveries, self.trading_times):
            if len(ts) == 0:
                raise GridError("every delivery needs at least one trading time")
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise GridError("trading times must be strictly increasing")
            if ts[-1] != T:
                raise GridError(f"last trading time {ts[-1]} must equal delivery time {T}")
        if not math.isfinite(self.interest_rate):
            raise GridError("interest rate must be finite")
        # number of trading times per delivery, their total, and the
        # contiguous block of contracts of each delivery
        sizes = tuple(len(ts) for ts in self.trading_times)
        starts = tuple(itertools.accumulate(sizes, initial=0))
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "n_contracts", starts[-1])
        object.__setattr__(self, "slices", tuple(map(slice, starts, starts[1:])))

    @property
    def n_deliveries(self) -> int:
        return len(self.deliveries)

    def discount(self, j: int) -> float:
        """e^{-r T_j} factor applied to everything settling at delivery j."""
        return math.exp(-self.interest_rate * self.deliveries[j])

    def node_discounts(self) -> np.ndarray:
        """Flat (N,) vector of per-contract discount factors."""
        out = np.empty(self.n_contracts)
        for j, block in enumerate(self.slices):
            out[block] = self.discount(j)
        return out

    def node_labels(self) -> tuple[tuple[int, int], ...]:
        """Flat order of (delivery, trading) index pairs."""
        return tuple((j, i) for j, m in enumerate(self.sizes) for i in range(m))


@dataclass(frozen=True)
class IndexMap:
    """Bijection between structured variable tuples and flat vector positions.

    Blocks, in order: power trades V (one per contract), fuel trades F (one
    per contract and fuel, fuel fastest), emission trades O (one per
    contract), production W (one per delivery and plant, fuel-major within a
    delivery).  Consumers use only the V block.
    """

    grid: TradingGrid
    fuels: tuple[str, ...]
    plant_counts: tuple[int, ...]
    # block sizes, derived once: every index computation reads them
    n_nodes: int = field(init=False, repr=False, compare=False)
    n_fuels: int = field(init=False, repr=False, compare=False)
    n_v: int = field(init=False, repr=False, compare=False)
    n_f: int = field(init=False, repr=False, compare=False)
    n_o: int = field(init=False, repr=False, compare=False)
    plants_per_delivery: int = field(init=False, repr=False, compare=False)
    n_w: int = field(init=False, repr=False, compare=False)
    n_traded: int = field(init=False, repr=False, compare=False)  # (V, F, O), as (Pi, G, G_em)
    total: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.plant_counts) != len(self.fuels):
            raise GridError("plant_counts must align with fuels")
        if tuple(sorted(self.fuels)) != tuple(self.fuels):
            raise GridError("fuels must be given in sorted order")
        nodes, n_fuels, per = self.grid.n_contracts, len(self.fuels), sum(self.plant_counts)
        n_w, n_traded = self.grid.n_deliveries * per, nodes * (n_fuels + 2)
        for name, value in (("n_nodes", nodes), ("n_fuels", n_fuels), ("n_v", nodes),
                            ("n_f", nodes * n_fuels), ("n_o", nodes), ("plants_per_delivery", per),
                            ("n_w", n_w), ("n_traded", n_traded), ("total", n_traded + n_w)):
            object.__setattr__(self, name, value)

    # ---- forward maps ------------------------------------------------
    def node(self, j: int, i: int) -> int:
        if not 0 <= i < self.grid.sizes[j]:
            raise GridError(f"trading index {i} out of range for delivery {j}")
        return self.grid.slices[j].start + i

    def v_index(self, j: int, i: int) -> int:
        return self.node(j, i)

    def f_index(self, j: int, i: int, fuel) -> int:
        l = fuel if isinstance(fuel, int) else self.fuels.index(fuel)
        return self.n_v + self.node(j, i) * self.n_fuels + l

    def o_index(self, j: int, i: int) -> int:
        return self.n_v + self.n_f + self.node(j, i)

    def w_index(self, j: int, fuel, r: int) -> int:
        l = fuel if isinstance(fuel, int) else self.fuels.index(fuel)
        if not 0 <= r < self.plant_counts[l]:
            raise GridError(f"plant index {r} out of range for fuel {self.fuels[l]}")
        within = sum(self.plant_counts[:l]) + r
        return self.n_traded + j * self.plants_per_delivery + within

    # ---- inverse map --------------------------------------------------
    def tuple_of(self, k: int) -> tuple:
        """Structured tuple for flat position ``k``.

        Returns ("V", j, i), ("F", j, i, fuel), ("O", j, i) or
        ("W", j, fuel, r).
        """
        if not 0 <= k < self.total:
            raise GridError(f"flat index {k} out of range")
        labels = self.grid.node_labels()
        if k < self.n_v:
            j, i = labels[k]
            return ("V", j, i)
        k -= self.n_v
        if k < self.n_f:
            j, i = labels[k // self.n_fuels]
            return ("F", j, i, self.fuels[k % self.n_fuels])
        k -= self.n_f
        if k < self.n_o:
            j, i = labels[k]
            return ("O", j, i)
        k -= self.n_o
        j, within = divmod(k, self.plants_per_delivery)
        l = 0
        while within >= self.plant_counts[l]:
            within -= self.plant_counts[l]
            l += 1
        return ("W", j, self.fuels[l], within)

    def index_of(self, label: tuple) -> int:
        kind = label[0]
        if kind == "V":
            return self.v_index(label[1], label[2])
        if kind == "F":
            return self.f_index(label[1], label[2], label[3])
        if kind == "O":
            return self.o_index(label[1], label[2])
        if kind == "W":
            return self.w_index(label[1], label[2], label[3])
        raise GridError(f"unknown variable kind {kind!r}")

    # ---- price-space helpers ------------------------------------------
    def price_discounts(self) -> np.ndarray:
        """Discount factors aligned with the (Pi, G, G_em) price layout."""
        d = self.grid.node_discounts()
        return np.concatenate([d, np.repeat(d, self.n_fuels), d])


def canonical_index(grid: TradingGrid, fuels=(), plant_counts=None) -> IndexMap:
    """Build the canonical IndexMap for the given grid and fuel/plant layout.

    With no fuels this is the consumer layout (V block only is meaningful).
    """
    fuels = tuple(sorted(fuels))
    if plant_counts is None:
        plant_counts = tuple(0 for _ in fuels)
    return IndexMap(grid, fuels, tuple(plant_counts))


def delivery_totals_matrix(grid: TradingGrid) -> np.ndarray:
    """(|J|, N) block-diagonal matrix of ones summing trades per delivery."""
    out = np.zeros((grid.n_deliveries, grid.n_contracts))
    for j, block in enumerate(grid.slices):
        out[j, block] = 1.0
    return out
