"""Covariance blocks of the discounted (power, fuel, emission) price vector."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import CovarianceError

if TYPE_CHECKING:  # process loads only where an ensemble is estimated
    from .process import PathEnsemble

__all__ = ["CovarianceBlocks", "estimate_covariance"]

# ridge policy: lift eigenvalues to at least RIDGE_FLOOR
RIDGE_FLOOR = 1e-10
# relative spectral gap below which the matrix counts as exactly dependent
SINGULAR_REL = 1e-12


def _sym_frozen(a, name, tol=1e-9) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise CovarianceError(f"{name} must be square")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    if float(np.max(np.abs(a - a.T))) > tol * scale:
        raise CovarianceError(f"{name} must be symmetric")
    a = np.ascontiguousarray(0.5 * (a + a.T))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CovarianceBlocks:
    """The three blocks of the stacked covariance: power (q1), power-to-
    fuel+emission cross (q2), and fuel+emission (q3).

    All entries refer to the discounted price vector in canonical order;
    the stacked matrix must be symmetric positive definite (no price series
    may be an exact linear combination of the others).
    """

    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray
    ridge: float = 0.0
    _stacked: np.ndarray = field(init=False, repr=False, compare=False)
    _inverses: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("q1", "q2", "q3"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name), dtype=float))):
                raise CovarianceError(f"{name} has non-finite entries")
        q1 = _sym_frozen(self.q1, "q1")
        q3 = _sym_frozen(self.q3, "q3")
        q2 = np.ascontiguousarray(np.asarray(self.q2, dtype=float))
        n = q1.shape[0]
        m = q3.shape[0]
        if q2.shape != (n, m):
            raise CovarianceError(f"q2 must have shape ({n}, {m}), got {q2.shape}")
        if m % n != 0:
            raise CovarianceError("q3 width must be a multiple of the contract count")
        q2.flags.writeable = False
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "q3", q3)
        stacked = np.block([[q1, q2], [q2.T, q3]])
        stacked.flags.writeable = False
        object.__setattr__(self, "_stacked", stacked)
        object.__setattr__(self, "_inverses", {})

    @property
    def n_contracts(self) -> int:
        return self.q1.shape[0]

    @property
    def n_fuels(self) -> int:
        return self.q3.shape[0] // self.n_contracts - 1

    def stacked(self) -> np.ndarray:
        """Full covariance of the (power, fuel, emission) vector."""
        return self._stacked

    def stacked_inverse(self) -> np.ndarray | None:
        """Inverse of ``stacked()``; see ``_inverse``."""
        return self._inverse("stacked", self._stacked)

    def q1_inverse(self) -> np.ndarray | None:
        """Inverse of the power block ``q1``; see ``_inverse``."""
        return self._inverse("q1", self.q1)

    def _inverse(self, key: str, mat: np.ndarray) -> np.ndarray | None:
        """Inverse through the Cholesky factor, computed once and shared by
        every player of the scenario; None when the factorization fails."""
        if key not in self._inverses:
            try:
                l_inv = np.linalg.inv(np.linalg.cholesky(mat))
            except np.linalg.LinAlgError:
                inv = None
            else:
                inv = l_inv.T @ l_inv
                inv.flags.writeable = False
            self._inverses[key] = inv
        return self._inverses[key]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self._stacked)[0])

    def is_positive_definite(self) -> bool:
        return self.min_eigenvalue() > 0.0


def estimate_covariance(ensemble: PathEnsemble) -> CovarianceBlocks:
    """Weighted sample covariance of the discounted stacked price vector.

    The raw estimate is symmetrized and, when its smallest eigenvalue sits
    below the floor, lifted by a small ridge.  Exact linear dependence in
    the paths (the estimate is numerically singular relative to its scale)
    is rejected: such data violates the no-linear-dependence assumption and
    no regularization can fix it.
    """
    if ensemble.n_paths < 2:
        raise CovarianceError("need at least two paths to estimate a covariance")
    from .process import raw_covariance
    full = raw_covariance(ensemble)
    eigs = np.linalg.eigvalsh(full)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_max <= 0.0 or lam_min <= SINGULAR_REL * lam_max:
        raise CovarianceError(
            "path ensemble is linearly dependent (smallest eigenvalue "
            f"{lam_min:.3e} vs largest {lam_max:.3e}); the no-linear-dependence "
            "assumption fails"
        )
    ridge = max(0.0, RIDGE_FLOOR - lam_min)
    if ridge > 0.0:
        full = full + ridge * np.eye(full.shape[0])
    n = ensemble.grid.n_contracts
    return CovarianceBlocks(full[:n, :n], full[:n, n:], full[n:, n:], ridge=ridge)
