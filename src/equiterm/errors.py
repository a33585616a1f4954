"""Exception hierarchy shared across the library, and the key check of the
JSON objects of a scenario file."""


class EquitermError(Exception):
    """Base class for all library errors."""


class GridError(EquitermError, ValueError):
    """Malformed trading/delivery grid or index request."""


class ScenarioError(EquitermError, ValueError):
    """Malformed market scenario or scenario file."""


class CovarianceError(EquitermError, ValueError):
    """Covariance input violates the no-linear-dependence assumption."""


class EnsembleError(EquitermError, ValueError):
    """Malformed path ensemble or inadmissible drift."""


class InfeasibleError(EquitermError, RuntimeError):
    """A player's feasible set is empty (market setup assumption violated)."""


class NumericalError(EquitermError, RuntimeError):
    """A numerical routine failed to converge or hit a singular system."""


def known_keys(obj, keys, what: str) -> dict:
    """The JSON object ``obj`` of a scenario file, or a ScenarioError naming
    ``what`` when it is not an object, or naming its first key (in sorted
    order) that is not in ``keys``."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{what} must be a JSON object")
    unknown = sorted(obj.keys() - set(keys))
    if unknown:
        raise ScenarioError(f"unknown key {unknown[0]!r} in {what}")
    return obj
