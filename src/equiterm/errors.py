"""Exception hierarchy shared across the library."""


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

