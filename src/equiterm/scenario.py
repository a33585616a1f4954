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
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .covariance import CovarianceBlocks, estimate_covariance
from .errors import EquitermError, ScenarioError, known_keys
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
_COVARIANCE = ("q1", "q2", "q3")  # the keys of a covariance block


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

    # first, as a record's JSON object lists its fields in order; keyword-only
    # so that it may precede fields without a default (so too in Producer and
    # Consumer)
    name: str = field(default="", kw_only=True)
    fuel: str
    capacity: float
    ramp_up: float
    ramp_down: float
    efficiency: float

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
    """A generator maximizing mean-variance profit over its plant fleet.

    Each plant is a PowerPlant or the JSON object of one.
    """

    name: str = field(default="", kw_only=True)
    risk_aversion: float
    plants: tuple[PowerPlant, ...]

    def __post_init__(self):
        _positive(self.risk_aversion, "risk_aversion")
        if not self.plants:
            raise ScenarioError("producer owns no plants")
        object.__setattr__(self, "plants", tuple(
            pl if isinstance(pl, PowerPlant) else PowerPlant(**pl) for pl in self.plants))

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

    name: str = field(default="", kw_only=True)
    risk_aversion: float
    demand_share: float
    retail_price: float = 0.0

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
        pairs = tuple(sorted((str(f), float(g)) for f, g in dict(intensities).items()))
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


def _rows(rows) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(x) for x in row) for row in rows)


@dataclass(frozen=True)
class ExogenousModel:
    """Demand plus expected fuel/emission forward quotes, and the second-
    moment source: either explicit covariance blocks or a path ensemble
    (exactly one).

    ``fuel_forwards`` maps each fuel, in sorted order, to its rows of quotes
    per delivery.
    """

    demand: tuple[float, ...]
    fuel_forwards: dict[str, tuple[tuple[float, ...], ...]]
    emission_forwards: tuple[tuple[float, ...], ...]
    covariance: CovarianceBlocks | None = None
    ensemble: PathEnsemble | None = None

    def __post_init__(self):
        object.__setattr__(self, "demand", tuple(float(d) for d in self.demand))
        object.__setattr__(self, "fuel_forwards", dict(sorted(
            (str(f), _rows(rows)) for f, rows in dict(self.fuel_forwards).items())))
        object.__setattr__(self, "emission_forwards", _rows(self.emission_forwards))
        if (self.covariance is None) == (self.ensemble is None):
            raise ScenarioError("exactly one of covariance or ensemble must be given")
        for d in self.demand:
            if not math.isfinite(d):
                raise ScenarioError("demand must be finite")
        quotes = [(f"fuel {f!r}", rows) for f, rows in self.fuel_forwards.items()]
        for what, rows in [*quotes, ("emission", self.emission_forwards)]:
            for j, row in enumerate(rows):
                if not all(map(math.isfinite, row)):
                    raise ScenarioError(f"{what} forwards must be finite (delivery {j})")

    def fuel_names(self) -> tuple[str, ...]:
        return tuple(self.fuel_forwards)

    def forwards_for(self, fuel: str):
        if fuel not in self.fuel_forwards:
            raise ScenarioError(f"no forwards for fuel {fuel!r}")
        return self.fuel_forwards[fuel]

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

    def total_capacity(self) -> float:
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
    """The scenario of a file's JSON document.  Each record is built from its
    own JSON object, whose keys are the record's fields; the objects shaped
    otherwise check their keys here."""
    known_keys(doc, ("schema", "grid", "fuels", "producers", "consumers", "exogenous",
                     "bounds"), "scenario document")
    if doc.get("schema") != SCHEMA:
        raise ScenarioError(f"missing or unsupported schema field (expected {SCHEMA!r})")
    try:
        grid_doc = known_keys(doc["grid"], ("deliveries", "interest_rate"), "grid")
        deliveries = [known_keys(d, ("time", "trading_times"), "delivery")
                      for d in grid_doc["deliveries"]]
        grid = TradingGrid(
            deliveries=tuple(d["time"] for d in deliveries),
            trading_times=tuple(tuple(d["trading_times"]) for d in deliveries),
            interest_rate=float(grid_doc.get("interest_rate", 0.0)),
        )
        fuels = FuelTable(doc["fuels"])
        producers = tuple(Producer(**p) for p in doc.get("producers", ()))
        consumers = tuple(Consumer(**c) for c in doc["consumers"])
        exo = doc["exogenous"]
        if "covariance" in exo and "ensemble" in exo:
            raise ScenarioError("give either covariance blocks or an ensemble, not both")
        moments = {}
        if "covariance" in exo:
            cov = known_keys(exo["covariance"], _COVARIANCE, "covariance")
            moments["covariance"] = CovarianceBlocks(
                *(np.array(cov[name], dtype=float) for name in _COVARIANCE))
        elif "ensemble" in exo:
            from .process import ensemble_from_records
            paths = known_keys(exo["ensemble"], ("paths",), "ensemble")["paths"]
            moments["ensemble"] = ensemble_from_records(grid, fuels.fuels, paths)
        exogenous = ExogenousModel(**{**exo, **moments})
        bounds = Bounds(**doc["bounds"])
    except EquitermError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ScenarioError(f"malformed scenario document: {exc}") from exc
    return Scenario(grid, producers, consumers, fuels, exogenous, bounds)


def _to_json(value):
    """A record as the JSON object of its fields in order (an absent moment
    source left out), tuples as lists, the covariance and the ensemble in
    their blocks' shapes."""
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
    if isinstance(value, CovarianceBlocks):
        return {name: getattr(value, name).tolist() for name in _COVARIANCE}
    if isinstance(value, (PowerPlant, Producer, Consumer, Bounds, ExogenousModel)):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)
                if getattr(value, f.name) is not None}
    if is_dataclass(value):  # the one other record a scenario holds: a path ensemble
        from .process import ensemble_to_records
        return {"paths": ensemble_to_records(value)}
    return value


def scenario_to_dict(scenario: Scenario) -> dict:
    grid = scenario.grid
    return {
        "schema": SCHEMA,
        "grid": {
            "interest_rate": grid.interest_rate,
            "deliveries": [{"time": T, "trading_times": list(ts)}
                           for T, ts in zip(grid.deliveries, grid.trading_times)],
        },
        "fuels": dict(scenario.fuels.intensities),
        "producers": _to_json(scenario.producers),
        "consumers": _to_json(scenario.consumers),
        "exogenous": _to_json(scenario.exogenous),
        "bounds": _to_json(scenario.bounds),
    }


def load_scenario(path, data: bytes | None = None) -> Scenario:
    """The scenario in the UTF-8 JSON file at ``path`` (no byte-order mark), or in its bytes."""
    try:
        doc = json.loads((Path(path).read_bytes() if data is None else data).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ScenarioError(f"not a UTF-8 JSON document: {exc}") from None
    return scenario_from_dict(doc)
