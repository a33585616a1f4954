"""Market scenario: players, plants, exogenous quotes, bounds, JSON schema.

A scenario is the complete description of one market instance.  Types are
immutable after construction; structural problems (wrong shapes, bad
shares) raise at construction, while economic preconditions (feasibility,
positive-definite covariance, adequate bounds) are the validator's job so
that broken files can still be loaded and reported on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .covariance import CovarianceBlocks, estimate_covariance
from .errors import EquitermError, ScenarioError
from .grid import TradingGrid

if TYPE_CHECKING:  # process loads only where an ensemble is parsed
    from .process import PathEnsemble

__all__ = [
    "PowerPlant",
    "Producer",
    "Consumer",
    "FuelTable",
    "Bounds",
    "ExogenousModel",
    "Scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
]

SCHEMA = "equiterm/1"


def _positive(value, name) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise ScenarioError(f"{name} must be finite and > 0, got {value!r}")
    return value


@dataclass(frozen=True)
class PowerPlant:
    """One dispatchable unit: fuel, size, ramp rates and fuel burn rate.

    ``efficiency`` is fuel units burned per MWh generated; ``ramp_down`` is
    the (non-positive) largest allowed decrease between deliveries.
    """

    fuel: str
    capacity: float
    ramp_up: float
    ramp_down: float
    efficiency: float
    name: str = ""

    def __post_init__(self):
        _positive(self.capacity, "capacity")
        _positive(self.efficiency, "efficiency")
        if not (self.ramp_down <= 0.0 <= self.ramp_up):
            raise ScenarioError("need ramp_down <= 0 <= ramp_up")

    def sort_key(self):
        return (self.fuel, self.efficiency, self.capacity, self.ramp_up,
                self.ramp_down, self.name)


@dataclass(frozen=True)
class Producer:
    """A generator maximizing mean-variance profit over its plant fleet."""

    risk_aversion: float
    plants: tuple[PowerPlant, ...]
    name: str = ""

    def __post_init__(self):
        _positive(self.risk_aversion, "risk_aversion")
        if not self.plants:
            raise ScenarioError("producer owns no plants")
        object.__setattr__(self, "plants", tuple(self.plants))

    def plants_by_fuel(self, fuels) -> dict[str, tuple[PowerPlant, ...]]:
        """Plants grouped per fuel in canonical (sorted) order."""
        grouped = {fuel: [] for fuel in fuels}
        for plant in self.plants:
            if plant.fuel not in grouped:
                raise ScenarioError(f"plant fuel {plant.fuel!r} not in fuel table")
            grouped[plant.fuel].append(plant)
        return {fuel: tuple(sorted(ps, key=PowerPlant.sort_key)) for fuel, ps in grouped.items()}


@dataclass(frozen=True)
class Consumer:
    """A retailer serving a fixed share of demand, mean-variance averse.

    ``retail_price`` shifts reported profit only, never the decisions.
    """

    risk_aversion: float
    demand_share: float
    retail_price: float = 0.0
    name: str = ""

    def __post_init__(self):
        _positive(self.risk_aversion, "risk_aversion")
        if not 0.0 <= self.demand_share <= 1.0:
            raise ScenarioError(f"demand_share must lie in [0, 1], got {self.demand_share}")
        if not math.isfinite(self.retail_price):
            raise ScenarioError("retail_price must be finite")


@dataclass(frozen=True)
class FuelTable:
    """Emission intensity per fuel, in emission units per MWh generated."""

    intensities: tuple[tuple[str, float], ...]

    def __init__(self, intensities):
        if hasattr(intensities, "items"):
            items = intensities.items()
        else:
            items = intensities
        pairs = tuple(sorted((str(f), float(g)) for f, g in items))
        for fuel, g in pairs:
            _positive(g, f"emission intensity of {fuel!r}")
        object.__setattr__(self, "intensities", pairs)

    @property
    def fuels(self) -> tuple[str, ...]:
        return tuple(f for f, _ in self.intensities)

    def intensity(self, fuel: str) -> float:
        for f, g in self.intensities:
            if f == fuel:
                return g
        raise ScenarioError(f"unknown fuel {fuel!r}")


@dataclass(frozen=True)
class Bounds:
    """Trading boxes for power (v_trade), fuel/emission (f_trade) positions
    and the price box (pi_max).

    Zero values construct (so the validator can report them) but fail
    validation: the strict-interior condition needs an open ball.
    """

    v_trade: float
    f_trade: float
    pi_max: float

    def __post_init__(self):
        for nm in ("v_trade", "f_trade", "pi_max"):
            v = float(getattr(self, nm))
            if not math.isfinite(v) or v < 0:
                raise ScenarioError(f"{nm} must be finite and >= 0")
            object.__setattr__(self, nm, v)


@dataclass(frozen=True)
class ExogenousModel:
    """Demand plus expected fuel/emission forward quotes, and the second-
    moment source: either explicit covariance blocks or a path ensemble
    (exactly one)."""

    demand: tuple[float, ...]
    fuel_forwards: tuple[tuple[str, tuple[tuple[float, ...], ...]], ...]
    emission_forwards: tuple[tuple[float, ...], ...]
    covariance: CovarianceBlocks | None = None
    ensemble: PathEnsemble | None = None

    def __init__(self, demand, fuel_forwards, emission_forwards, covariance=None,
                 ensemble=None):
        object.__setattr__(self, "demand", tuple(float(d) for d in demand))
        if hasattr(fuel_forwards, "items"):
            items = fuel_forwards.items()
        else:
            items = fuel_forwards
        object.__setattr__(
            self,
            "fuel_forwards",
            tuple(sorted((str(f), tuple(tuple(float(x) for x in row) for row in rows))
                         for f, rows in items)),
        )
        object.__setattr__(
            self,
            "emission_forwards",
            tuple(tuple(float(x) for x in row) for row in emission_forwards),
        )
        if (covariance is None) == (ensemble is None):
            raise ScenarioError("exactly one of covariance or ensemble must be given")
        object.__setattr__(self, "covariance", covariance)
        object.__setattr__(self, "ensemble", ensemble)
        for d in self.demand:
            if not math.isfinite(d):
                raise ScenarioError("demand must be finite")

    def fuel_names(self) -> tuple[str, ...]:
        return tuple(f for f, _ in self.fuel_forwards)

    def forwards_for(self, fuel: str):
        for f, rows in self.fuel_forwards:
            if f == fuel:
                return rows
        raise ScenarioError(f"no forwards for fuel {fuel!r}")

    def flat_fuel_forwards(self, grid: TradingGrid, fuels) -> np.ndarray:
        """Canonical (N*|L|,) vector of undiscounted fuel quotes."""
        out = np.empty((grid.n_contracts, len(fuels)))
        for l, fuel in enumerate(fuels):
            for block, row in zip(grid.slices, self.forwards_for(fuel)):
                out[block, l] = row
        return out.reshape(-1)

    def flat_emission_forwards(self, grid: TradingGrid) -> np.ndarray:
        out = np.empty(grid.n_contracts)
        for block, row in zip(grid.slices, self.emission_forwards):
            out[block] = row
        return out


@dataclass(frozen=True)
class Scenario:
    """One complete market instance over a trading grid."""

    grid: TradingGrid
    producers: tuple[Producer, ...]
    consumers: tuple[Consumer, ...]
    fuels: FuelTable
    exogenous: ExogenousModel
    bounds: Bounds
    # what depends on the scenario alone, computed on first use: the
    # covariance and the assembled player problems (assembly.assemble_all);
    # a dataclasses.replace copy starts empty instead of sharing the
    # original's (possibly stale) entries
    _derived: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_derived", {})
        object.__setattr__(self, "producers", self._named(self.producers, "producer"))
        object.__setattr__(self, "consumers", self._named(self.consumers, "consumer"))
        if not self.consumers:
            raise ScenarioError("at least one consumer required")
        share = math.fsum(c.demand_share for c in self.consumers)
        if abs(share - 1.0) > 1e-12:
            raise ScenarioError(f"consumer demand shares sum to {share!r}, expected 1")
        fuels = self.fuels.fuels
        for producer in self.producers:
            producer.plants_by_fuel(fuels)  # raises on unknown fuel
        exo = self.exogenous
        if len(exo.demand) != self.grid.n_deliveries:
            raise ScenarioError("demand length must match delivery count")
        if exo.fuel_names() != fuels:
            raise ScenarioError("fuel forwards must cover exactly the fuel table")
        for fuel in fuels:
            rows = exo.forwards_for(fuel)
            if tuple(len(r) for r in rows) != self.grid.sizes:
                raise ScenarioError(f"fuel forwards for {fuel!r} do not match the grid")
        if tuple(len(r) for r in exo.emission_forwards) != self.grid.sizes:
            raise ScenarioError("emission forwards do not match the grid")
        n = self.grid.n_contracts
        if exo.covariance is not None:
            if exo.covariance.q1.shape != (n, n):
                raise ScenarioError("covariance q1 does not match the contract count")
            if exo.covariance.q3.shape[0] != n * (len(fuels) + 1):
                raise ScenarioError("covariance q3 does not match fuels and grid")
        if exo.ensemble is not None:
            if exo.ensemble.grid != self.grid:
                raise ScenarioError("ensemble grid differs from the scenario grid")
            if exo.ensemble.fuels != fuels:
                raise ScenarioError("ensemble fuels differ from the fuel table")

    @staticmethod
    def _named(players, prefix):
        out = []
        for k, p in enumerate(players):
            out.append(p if p.name else replace(p, name=f"{prefix}{k + 1}"))
        names = [p.name for p in out]
        if len(set(names)) != len(names):
            raise ScenarioError(f"duplicate {prefix} names: {names}")
        return tuple(out)

    @property
    def fuel_names(self) -> tuple[str, ...]:
        return self.fuels.fuels

    @property
    def n_contracts(self) -> int:
        return self.grid.n_contracts

    def demand_vector(self) -> np.ndarray:
        return np.array(self.exogenous.demand, dtype=float)

    def covariance_blocks(self) -> CovarianceBlocks:
        """Resolve the second-moment source, estimating from paths if needed."""
        if "cov" not in self._derived:
            exo = self.exogenous
            self._derived["cov"] = (exo.covariance if exo.covariance is not None
                                    else estimate_covariance(exo.ensemble))
        return self._derived["cov"]

    def total_capacity(self, j: int) -> float:
        return sum(pl.capacity for p in self.producers for pl in p.plants)

    def marginal_costs(self) -> np.ndarray:
        """(deliveries, plants) expected marginal cost, plants in producer
        order: efficiency times the mean fuel forward plus intensity times
        the mean emission forward of the delivery, each mean one row sum over
        the delivery's block of quotes (``np.mean``'s value bit for bit)."""
        grid, exo, fuels = self.grid, self.exogenous, self.fuel_names
        quotes = np.vstack((exo.flat_fuel_forwards(grid, fuels).reshape(grid.n_contracts, -1).T,
                            exo.flat_emission_forwards(grid)))
        means = np.array([quotes[:, b].sum(axis=1) / n for b, n in zip(grid.slices, grid.sizes)])
        plants = [pl for p in self.producers for pl in p.plants]
        efficiency = np.array([pl.efficiency for pl in plants])
        intensity = np.array([self.fuels.intensity(pl.fuel) for pl in plants])
        return (efficiency * means[:, [fuels.index(pl.fuel) for pl in plants]]
                + intensity * means[:, -1:])


# ---------------------------------------------------------------------------
# JSON schema


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ScenarioError(f"missing or unsupported schema field (expected {SCHEMA!r})")
    try:
        grid = TradingGrid(
            deliveries=tuple(d["time"] for d in doc["grid"]["deliveries"]),
            trading_times=tuple(tuple(d["trading_times"]) for d in doc["grid"]["deliveries"]),
            interest_rate=float(doc["grid"].get("interest_rate", 0.0)),
        )
        fuels = FuelTable(doc["fuels"])
        producers = tuple(
            Producer(
                risk_aversion=p["risk_aversion"],
                plants=tuple(
                    PowerPlant(
                        fuel=pl["fuel"],
                        capacity=pl["capacity"],
                        ramp_up=pl["ramp_up"],
                        ramp_down=pl["ramp_down"],
                        efficiency=pl["efficiency"],
                        name=pl.get("name", ""),
                    )
                    for pl in p["plants"]
                ),
                name=p.get("name", ""),
            )
            for p in doc.get("producers", [])
        )
        consumers = tuple(
            Consumer(
                risk_aversion=c["risk_aversion"],
                demand_share=c["demand_share"],
                retail_price=c.get("retail_price", 0.0),
                name=c.get("name", ""),
            )
            for c in doc["consumers"]
        )
        exo = doc["exogenous"]
        covariance = ensemble = None
        if "covariance" in exo and "ensemble" in exo:
            raise ScenarioError("give either covariance blocks or an ensemble, not both")
        if "covariance" in exo:
            cov = exo["covariance"]
            covariance = CovarianceBlocks(
                np.array(cov["q1"], dtype=float),
                np.array(cov["q2"], dtype=float),
                np.array(cov["q3"], dtype=float),
            )
        elif "ensemble" in exo:
            from .process import ensemble_from_records
            ensemble = ensemble_from_records(grid, fuels.fuels, exo["ensemble"]["paths"])
        exogenous = ExogenousModel(
            demand=exo["demand"],
            fuel_forwards=exo["fuel_forwards"],
            emission_forwards=exo["emission_forwards"],
            covariance=covariance,
            ensemble=ensemble,
        )
        bounds = Bounds(
            v_trade=doc["bounds"]["v_trade"],
            f_trade=doc["bounds"]["f_trade"],
            pi_max=doc["bounds"]["pi_max"],
        )
    except EquitermError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ScenarioError(f"malformed scenario document: {exc}") from exc
    return Scenario(grid, producers, consumers, fuels, exogenous, bounds)


def scenario_to_dict(scenario: Scenario) -> dict:
    exo = scenario.exogenous
    exo_doc: dict = {
        "demand": list(exo.demand),
        "fuel_forwards": {f: [list(r) for r in rows] for f, rows in exo.fuel_forwards},
        "emission_forwards": [list(r) for r in exo.emission_forwards],
    }
    if exo.covariance is not None:
        exo_doc["covariance"] = {
            "q1": exo.covariance.q1.tolist(),
            "q2": exo.covariance.q2.tolist(),
            "q3": exo.covariance.q3.tolist(),
        }
    else:
        ens = exo.ensemble
        blocks = scenario.grid.slices
        paths = []
        for p in range(ens.n_paths):
            g = ens.g[p].reshape(scenario.grid.n_contracts, len(ens.fuels))
            paths.append({
                "weight": float(ens.weights[p]),
                "pi": [list(ens.pi[p, b]) for b in blocks],
                "g": {f: [list(g[b, l]) for b in blocks] for l, f in enumerate(ens.fuels)},
                "g_em": [list(ens.gem[p, b]) for b in blocks],
            })
        exo_doc["ensemble"] = {"paths": paths}
    return {
        "schema": SCHEMA,
        "grid": {
            "interest_rate": scenario.grid.interest_rate,
            "deliveries": [
                {"time": T, "trading_times": list(ts)}
                for T, ts in zip(scenario.grid.deliveries, scenario.grid.trading_times)
            ],
        },
        "fuels": {f: g for f, g in scenario.fuels.intensities},
        "producers": [
            {
                "name": p.name,
                "risk_aversion": p.risk_aversion,
                "plants": [
                    {
                        "name": pl.name,
                        "fuel": pl.fuel,
                        "capacity": pl.capacity,
                        "ramp_up": pl.ramp_up,
                        "ramp_down": pl.ramp_down,
                        "efficiency": pl.efficiency,
                    }
                    for pl in p.plants
                ],
            }
            for p in scenario.producers
        ],
        "consumers": [
            {
                "name": c.name,
                "risk_aversion": c.risk_aversion,
                "demand_share": c.demand_share,
                "retail_price": c.retail_price,
            }
            for c in scenario.consumers
        ],
        "exogenous": exo_doc,
        "bounds": {
            "v_trade": scenario.bounds.v_trade,
            "f_trade": scenario.bounds.f_trade,
            "pi_max": scenario.bounds.pi_max,
        },
    }


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))
