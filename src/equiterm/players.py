"""Per-player best responses, optimality residuals and price sensitivities.

``solve_qp`` maximizes a player's concave mean-variance objective at given
expected power prices.  Prices enter only the linear term, and every
player's curvature is lambda * Sigma with one Sigma per scenario, so the
traded block t = (V, F, O) is eliminated in closed form (condensed).  With
A = [A_t A_w] the equality rows and S = A_t Sigma^-1 A_t' / lambda,

    mu(W) = -S^-1 (a + A_t Sigma^-1 g_t / lambda) + S^-1 A_w W,
    t     = -Sigma^-1 (g_t + A_t' mu) / lambda,

with g_t affine in the prices pi, so [t; mu] is one affine map ``rec`` of
[1; pi; W], composed once per problem instance (``_Condensed``; Sigma^-1 is
factored once per scenario).  A producer is left with a QP over W alone,
Hessian A_w' S^-1 A_w, linear term -[r0 R1] [1; pi], only the ramp and
capacity rows.  It is a multiparametric QP: on a critical region, where a
set R of W rows is held active, W(pi) and eta_R(pi) are affine (Nocedal &
Wright, 16.2), by the range-space build when W is unique, else the
null-space build's minimum-norm W and eta (Patrinos & Sarimveis, Automatica
46, 2010).  Each instance keeps one region.

One walk serves every point (``_walk``): a primal-dual active-set step
(Hintermueller, Ito & Kunisch, SIAM J. Optim. 13, 2002) over stacked
critical regions, one per player, as in explicit-MPC point location
(Bemporad, Morari, Dua & Pistikopoulos, Automatica 38, 2002).  A point is
served where it certifies: finite, eta_R >= 0 up to the roundoff of its
solve (``STRICT_DUAL_TOL`` beyond it where W is not unique), every row of
the full problem within the engine's start tolerances, and the W rows tied
there exactly R (``_certificate``).  Otherwise a unique W moves on to
R' = {rows of R with eta > 0} + {W rows the point violates} + {W rows tied
at a certified point, a degenerate vertex}.  ``solve_fleet`` takes the
first step for every player of a market at once from its held selection
(the last point's strict rows, or cold, those tied at the feasible start
with a nonnegative multiplier): one product for every W and price part,
one for every held eta, one ``rec_w @ W`` per producer and one gathered
pass over the fleet's +1/-1 rows.  Each later step places only the members
that moved, by their own maps (``_place``), and certifies all of them in
one stacked pass (``_step``); a placed member's [t; mu] is the one product
``rec`` [1; pi; W], which rounds apart from the stack's sum, so each point
keeps the arithmetic of the step that serves it.  ``solve_qp_many`` is the
fleet of one.  A
walk ends when it names no rows (always where W is not unique) or a row set
it tried; the column is then solved alone, by the engine's W-QP seeded with
its first region's rows, and by the full QP where that point fails the full
rows: when a trading box binds, when Sigma or S has no factor (no map), or
when a warm start's strict row is not a W row.  The solutions of served
points are built from the record's arrays only when read (``FleetRecord``).
A served point's duals are the full problem's: t meets its stationarity rows
by construction, the W-QP's is the full one on the W columns, and the
trading boxes are slack, so their multipliers are zero.

Every point solved alone is finished in ``_solution``: its active set from
the slack and, at a degenerate vertex, the minimum-norm nonnegative
multipliers (``_canonical_duals``), so every path picks the same strict
rows and ``selection_id``.  The traded block of the optimum is unique; W
can sit on a flat face, so a second stage picks its minimum-norm W (skipped
where A_w or [A_w; B_s] pins W); the multipliers stay valid there.  The
objective and the KKT residuals are computed when first read, by
``kkt_residual`` itself.

``response_jacobian`` differentiates the optimal power trades at fixed
strict rows: dV/dpi = J_t - R1' dW/dpi with dW/dpi the region's price
columns where every strict row is a W row, else the full problem's
null-space projection Z (Z'HZ)^+ Z'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .assembly import PlayerProblem
from .errors import InfeasibleError, ScenarioError
from .qp import (STRICT_DUAL_TOL, _factor, interior_margin, row_tolerances, solve_qp_active_set,
                 start_violation)

__all__ = [
    "PlayerSolution",
    "ResidualReport",
    "ResponseJacobian",
    "solve_qp",
    "solve_qp_many",
    "kkt_residual",
    "best_response_volumes",
    "response_jacobian",
    "finite_difference_volumes",
]

FD_STEP = 1e-6  # price step of finite_difference_volumes
# smallest Cholesky pivot of S, H or a region's M, relative to the largest, that
# still counts as full rank; an exactly repeated row leaves a pivot near 1e-8
PIVOT_TOL = 1e-6


@dataclass(frozen=True)
class ResidualReport:
    """Max-norm KKT residuals of a candidate optimum."""

    stationarity: float
    primal_equality: float
    primal_inequality: float
    dual_feasibility: float
    complementarity: float

    @property
    def max_violation(self) -> float:
        return max(self.stationarity, self.primal_equality, self.primal_inequality,
                   self.dual_feasibility, self.complementarity)


@dataclass(frozen=True)
class PlayerSolution:
    """Primal/dual optimum of one player at fixed expected prices.

    The objective and the residuals are computed on first read, from
    ``problem`` and the stored point, so a caller that never reads them
    never pays for them.
    """

    prices: np.ndarray
    primal: np.ndarray
    eq_duals: np.ndarray
    ineq_duals: np.ndarray
    active_set: tuple[int, ...]
    problem: PlayerProblem = field(repr=False, compare=False)

    @cached_property
    def objective(self) -> float:
        return self.problem.objective(self.primal, self.prices)

    @cached_property
    def residuals(self) -> ResidualReport:
        return kkt_residual(self.problem, self)

    @property
    def kkt_residual(self) -> float:
        return self.residuals.max_violation

    @cached_property
    def _strict(self) -> tuple:  # split once, for the next warm start and the Jacobian
        return _strict_active(self)

    @property
    def volumes(self) -> np.ndarray:
        """Power trade block of the primal."""
        return self.primal[: self.prices.shape[0]]


@dataclass(frozen=True)
class ResponseJacobian:
    """One selection of dV/dpi with its active-set fingerprint."""

    matrix: np.ndarray
    selection_id: tuple[int, ...]
    on_boundary: bool


def _feasible_start(problem: PlayerProblem) -> np.ndarray:
    if problem.kind == "consumer":
        # spread each delivery's demand evenly over its trading times; the
        # box |V| <= v_trade holds for some split iff it holds for this one
        sizes = np.array(problem.index_map.grid.sizes)
        share = problem.eq_rhs / sizes
        vt = problem.ineq_rhs[0]
        over = np.flatnonzero(np.abs(share) > vt)
        if over.size:
            j = int(over[0])
            raise InfeasibleError(
                f"consumer {problem.name!r} has an empty feasible set: delivery {j} "
                f"needs {problem.eq_rhs[j]:g} over {sizes[j]} trading times with "
                f"v_trade {vt:g}"
            )
        return np.repeat(share, sizes)
    if not np.any(problem.eq_rhs):
        return np.zeros(problem.n_vars)  # shutting down is always feasible
    A, a, B, b = problem.eq_matrix, problem.eq_rhs, problem.ineq_matrix, problem.ineq_rhs
    margin, x, status = interior_margin(A, a, B, b)
    # judged by the engine's own start tolerances: a margin of -1e-15 on a
    # set with empty interior (pinned totals) is still a feasible start
    if margin is None or start_violation(A, a, B, b, x):
        cause = status if margin is None else f"margin {margin:.3e}"
        raise InfeasibleError(
            f"{problem.kind} {problem.name!r} has an empty feasible set: "
            f"phase-I LP reports {cause}"
        )
    return x


def _min_norm_production(problem: PlayerProblem, cond: _Condensed, x: np.ndarray) -> np.ndarray:
    """Second stage: minimum-norm W on the optimal face, (V, F, O) fixed."""
    n_t, n_w = cond.n_t, cond.a_w.shape[1]
    res = solve_qp_active_set(
        np.eye(n_w), np.zeros(n_w), cond.a_w,
        problem.eq_rhs - problem.eq_matrix[:, :n_t] @ x[:n_t],
        cond.b_w, problem.ineq_rhs[cond.w_rows], x[n_t:],
    )
    out = x.copy()
    out[n_t:] = res.x
    return out


def solve_qp(problem: PlayerProblem, expected_prices, warm_start=None) -> PlayerSolution:
    """Global maximizer of the player's objective at the given prices.

    ``warm_start`` is None or a previous PlayerSolution for the same
    problem (its primal stays feasible since constraints do not move with
    prices).  The one-column case of ``solve_qp_many``.
    """
    prices = np.asarray(expected_prices, dtype=float)
    return solve_qp_many(problem, prices.reshape(prices.shape + (1,)), warm_start)[0]


def solve_qp_many(problem: PlayerProblem, price_columns,
                  warm_start=None) -> tuple[PlayerSolution, ...]:
    """``solve_qp`` at every column of ``price_columns`` (prices x points),
    each column from the same ``warm_start``, so no column depends on
    another or on their order: the walk of a fleet of one from each column's
    first region (``_first_rows``), or the full QP where there is no map."""
    prices, p = _query(problem, price_columns)
    cond, m = _condensation(problem), p.shape[1]
    if cond.rec is None:  # no map
        return tuple(_solution(problem, prices[c], *_solve_full(
            problem, problem.merged_linear(prices[c]), warm_start)) for c in range(m))
    fleet = problem._derived.get("fleet_step")
    if fleet is None or fleet.members[0][2] is not cond:
        fleet = problem._derived["fleet_step"] = _Fleet((problem,))
    record, walks = FleetRecord(fleet.problems, problem._derived, prices, m), {}
    record.v, record.eta = np.zeros((fleet.n_v, m)), np.zeros((fleet.w_rows.size, m))
    state = (np.zeros(record.eta.shape), np.zeros(record.eta.shape, dtype=bool),
             np.zeros((fleet.eq_rhs.size, m)))
    for c, rows in enumerate(_first_rows(problem, cond, warm_start and warm_start._strict[0], p)
                             if cond.a_w.shape[1] else [()] * m):
        walks.setdefault(rows, []).append(c)  # None: a strict row is not a W row
    _walk(record, p, state, lambda k: warm_start, {0: walks})
    return tuple(map(record.solution, [0] * m, range(m)))


def _full_solve_qp(problem: PlayerProblem, expected_prices) -> PlayerSolution:
    """Cold ``solve_qp`` through the full QP only: the oracle of the condensed path."""
    prices, _ = _query(problem, np.reshape(expected_prices, (-1, 1)))
    g = problem.merged_linear(prices[0])
    return _solution(problem, prices[0], *_solve_full(problem, g, None))


def _query(problem: PlayerProblem, price_columns):
    """A read-only copy of the price columns with one row per point, and
    P = [1; pi] per column, what the condensed maps act on."""
    prices = np.asarray(price_columns, dtype=float)
    n_p = problem.n_prices
    if prices.ndim != 2 or prices.shape[0] != n_p:
        raise ScenarioError(f"expected {n_p} prices per point, got shape {prices.shape}")
    if not np.isfinite(prices).all():
        column = np.argmin(np.isfinite(prices).all(axis=0))
        raise ValueError(f"expected prices must be finite (column {column})")
    rows = prices.T.copy()
    rows.flags.writeable = False
    return rows, np.concatenate((np.ones((1, prices.shape[1])), prices))


def _solution(problem: PlayerProblem, prices, x, mu, eta, active) -> PlayerSolution:
    """The one finishing step of every solve: a point no region served
    (``active`` None) takes min-norm production unless W is unique or
    ``_pinned``, then its active set from the slack there and the canonical
    multipliers."""
    if active is None:
        cond = _condensation(problem)
        if problem.kind == "producer" and not cond.w_unique and not _pinned(cond, eta):
            x = _min_norm_production(problem, cond, x)
        active = _active_sets(cond, _rows(problem, cond, x)[1][:, None])[0]
        eta = _canonical_duals(cond, eta, active)
    return PlayerSolution(prices, x, mu, eta, active, problem)


def _pinned(cond: _Condensed, eta) -> bool:
    """Whether the W rows strict in ``eta`` pin W: [A_w; B_s] has full
    column rank by the engine's rank rule.  Every optimum keeps those rows
    tight and A_w W fixed, so the optimal face is one point."""
    strict = cond.b_w[eta[cond.w_rows] > STRICT_DUAL_TOL]
    return not _factor(np.vstack((cond.a_w, strict)), cond.a_w.shape[1])[0].shape[1]


def _canonical_duals(cond: _Condensed, eta, active):
    """``eta`` with the multipliers of the W rows tied in ``active`` replaced
    by the minimum-norm nonnegative ones with the same B_w' eta, where those
    rows are linearly dependent (a degenerate vertex, whose multipliers are
    not unique), so that every path picks the same selection.

    That is the QP min 1/2 |e|^2 s.t. B_T' e = B_T' eta_T, e >= 0 on the
    engine, from eta_T itself.  Any optimal W has the same multipliers, so
    the choice does not depend on which one was found.
    """
    w_rows, b_w, w_pos = cond.w_rows, cond.b_w, cond.w_pos
    tied = [w_pos[i] for i in active if i in w_pos]
    if len(tied) < 2 or np.linalg.matrix_rank(b_w[tied]) == len(tied):
        return eta
    b_t, rows, k = b_w[tied], w_rows[tied], len(tied)
    res = solve_qp_active_set(np.eye(k), np.zeros(k), b_t.T, b_t.T @ eta[rows],
                              -np.eye(k), np.zeros(k), eta[rows])
    out = eta.copy()
    out[rows] = res.x
    out[rows[list(res.working_set)]] = 0.0  # held at its bound
    return out


def _active_sets(cond: _Condensed, slack):
    """The active set of each column of ``slack`` (rows x points), read from
    one comparison with the instance's tolerances."""
    return [tuple(col.nonzero()[0].tolist()) for col in (slack <= cond.tols[1]).T]


def _start(problem: PlayerProblem, warm_start):
    """The player's usual start: a previous solution's primal and active
    set, or the instance's feasible point, found once and kept read-only
    (an empty feasible set raises each time)."""
    if warm_start is not None:
        return warm_start.primal.copy(), warm_start.active_set
    cache = problem._derived
    if "start" not in cache:
        x = _feasible_start(problem)
        x.flags.writeable = False
        cache["start"] = x
    return cache["start"], ()


def _solve_full(problem: PlayerProblem, g: np.ndarray, warm_start):
    """(x, mu, eta, active=None) of the full active-set QP from the player's usual start."""
    x0, seed = _start(problem, warm_start)
    res = solve_qp_active_set(
        problem.quadratic, g, problem.eq_matrix, problem.eq_rhs,
        problem.ineq_matrix, problem.ineq_rhs, x0,
        working_set=seed,
    )
    return res.x, res.eq_duals, res.ineq_duals, None


@dataclass(frozen=True)
class _Condensed:
    """The record of one player instance: its traded block t eliminated in
    closed form.

    With Sigma the unscaled covariance of t and A = [A_t A_w] the equality
    rows, S = A_t Sigma^-1 A_t' / lambda.  Production W enters only through
    the ramp and capacity rows (``w_rows`` of the full problem).  ``rec``
    maps [1; pi; W] to [t; mu] (module docstring), and ``w_lin`` = [r0 R1]
    to the W-QP's linear term -[r0 R1] [1; pi].  These, H, J_t and R1 are
    None when Sigma or S has no Cholesky factor (the full QP serves); the
    range-space terms every region shares are None unless W is unique.
    """

    n_t: int
    w_rows: np.ndarray
    w_pos: dict                    # full-problem row -> W-QP row
    a_w: np.ndarray                # A_w
    b_w: np.ndarray                # W block of the ramp and capacity rows
    tols: tuple                    # qp.row_tolerances of the full problem, inequalities a column
    w_tols: np.ndarray             # tols[1] at the W rows
    ineq_pairs: tuple | None       # per row, its +1 and -1 entries' columns (_entry_pairs)
    rec: np.ndarray | None = None  # [1; pi; W] -> [t; mu]
    hessian: np.ndarray | None = None  # H = A_w' S^-1 A_w, Hessian of the W-QP
    w_unique: bool = False         # A_w has full column rank (H is factored)
    jac_t: np.ndarray | None = None  # J_t = dV/dpi at fixed W
    r_1: np.ndarray | None = None  # R1, with R1' = -dV/dW
    w_lin: np.ndarray | None = None  # [r0 R1], the W-QP's negated linear term
    w_map: np.ndarray | None = None  # H^-1 [r0 R1], the unconstrained W
    h_inv_bt: np.ndarray | None = None  # H^-1 B_w'
    # the one critical region kept for this instance (see _region)
    region: list = field(init=False, default_factory=list, repr=False, compare=False)


@dataclass(frozen=True)
class _Region:
    """One critical region of the W-QP: its rows held active (a step of a
    region walk, or a solution's strict rows).

    ``coef`` maps [1, pi] to (W, eta of those rows), the minimum-norm ones
    where they are not unique, and ``eta_err`` maps [1, |pi|] to a bound on
    the roundoff of that eta.
    """

    rows: tuple[int, ...]          # full-problem rows (a strict set is a selection_id)
    pos: np.ndarray                # their W-QP rows
    held: np.ndarray               # W-QP rows x 1, True at pos
    coef: np.ndarray
    eta_err: np.ndarray


def _condensation(problem: PlayerProblem) -> _Condensed:
    """The instance's record, built on first use and kept."""
    cache = problem._derived
    if "condensed" not in cache:
        cache["condensed"] = _condense(problem)
    return cache["condensed"]


def _spd_inverse(matrix):
    """Inverse of a symmetric positive definite ``matrix`` by Cholesky; None
    when that fails or a pivot is below ``PIVOT_TOL`` of the largest."""
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(matrix))
    except np.linalg.LinAlgError:
        return None
    pivots = np.diag(l_inv)  # 1 / the factor's pivots
    if pivots.size and not pivots.min() > PIVOT_TOL * pivots.max():
        return None
    return l_inv.T @ l_inv


def _condense(problem: PlayerProblem) -> _Condensed:
    """The record of this instance: its W rows and row tolerances, and the
    maps from the factors of S, and of H when W is unique; no map when Sigma
    or S has no factor."""
    n_t, n_p = problem.n_vars - problem.index_map.n_w, problem.n_prices
    w_rows = np.flatnonzero(problem.ineq_matrix[:, n_t:].any(axis=1))
    a_w, b_w = problem.eq_matrix[:, n_t:], problem.ineq_matrix[w_rows, n_t:]
    eq_tol, ineq_tol = row_tolerances(problem.eq_rhs, problem.ineq_rhs)
    base = dict(n_t=n_t, w_rows=w_rows, w_pos={int(r): k for k, r in enumerate(w_rows)},
                a_w=a_w, b_w=b_w, tols=(eq_tol, ineq_tol[:, None]), w_tols=ineq_tol[w_rows, None],
                ineq_pairs=_entry_pairs(problem.ineq_matrix))
    cov_inv, lam, a_t = problem.cov_inverse, problem.risk_aversion, problem.eq_matrix[:, :n_t]
    m = None if cov_inv is None else a_t @ cov_inv
    s_inv = None if m is None else _spd_inverse(m @ a_t.T / lam)
    if s_inv is None or not s_inv.size:  # no factor, repeated equality rows, or none
        return _Condensed(**base)
    n_w = a_w.shape[1]
    hessian = a_w.T @ s_inv @ a_w
    d_mu = s_inv @ m[:, :n_p] / lam  # -dmu(0)/dpi
    r_1 = a_w.T @ d_mu
    jac_t = -(cov_inv[:n_p, :n_p] - m[:, :n_p].T @ d_mu) / lam
    g_t = problem.linear[:n_t]  # zero power slots
    mu_map = np.hstack(((-s_inv @ (problem.eq_rhs + m @ g_t / lam))[:, None], -d_mu, s_inv @ a_w))
    t_map = np.hstack(((cov_inv @ g_t)[:, None], cov_inv[:, :n_p], np.zeros((n_t, n_w))))
    w_lin = np.column_stack((-a_w.T @ mu_map[:, 0], r_1))
    # H is positive definite iff A_w has full column rank (an empty H is its
    # own inverse); then the min-norm QP has no free direction: it returns its start
    h_inv, w_map, h_inv_bt = _spd_inverse(hessian) if n_w else hessian, None, None
    if h_inv is not None:
        w_map, h_inv_bt = h_inv @ w_lin, h_inv @ b_w.T
    rec = np.vstack((-(t_map + m.T @ mu_map) / lam, mu_map))
    return _Condensed(**base, rec=rec, hessian=hessian, w_unique=h_inv is not None, jac_t=jac_t,
                      r_1=r_1, w_lin=w_lin, w_map=w_map, h_inv_bt=h_inv_bt)


def _entry_pairs(matrix):
    """Per row of ``matrix``, the columns of its +1 and its -1 entry, n (a zero
    appended to x) for none, so the row times x is their gathered difference
    (the dense value, up to a zero's sign); None if any row has other entries."""
    m, n = matrix.shape
    rows, cols = np.divmod(np.flatnonzero(matrix != 0.0), n)
    neg = (matrix[rows, cols] < 0.0).astype(int)
    if (np.abs(matrix[rows, cols]) != 1.0).any() or np.bincount(neg * m + rows).max(initial=0) > 1:
        return None
    pairs = np.full((2, m), n)
    pairs[neg, rows] = cols
    return tuple(pairs)


def _region(problem: PlayerProblem, cond: _Condensed, rows: tuple[int, ...]) -> _Region:
    """The region of the W rows ``rows``, from the instance's slot or built
    into it, replacing the one held there: a walk step's or a solution's.
    With [r0 R1] the W-QP's negated linear term (constant, per price), B_s
    the held rows and b_s their bounds, it is the range-space build where
    that factors, else the null-space build."""
    slot = cond.region
    if slot and slot[0].rows == rows:
        return slot[0]
    pos = np.array([cond.w_pos[i] for i in rows], dtype=int)
    held = np.zeros((cond.w_rows.size, 1), dtype=bool)
    held[pos] = True
    b_s, bound = cond.b_w[pos], problem.ineq_rhs[cond.w_rows[pos]]
    built = _range_space(cond, pos, b_s, bound) or _null_space(cond, b_s, bound)
    slot[:] = [_Region(rows, pos, held, *built)]
    return slot[0]


def _range_space(cond: _Condensed, pos, b_s, bound):
    """(coef, eta_err) by the range-space build (Nocedal & Wright, 16.2),
    with W0 = H^-1 [r0 R1] the unconstrained W:
    eta = M^-1 (B_s W0 - [b_s 0]) from one Cholesky factor of
    M = B_s H^-1 B_s', and W = W0 - H^-1 B_s' eta.  None when W is not
    unique (no factor of H) or M has no factor (the rows are dependent)."""
    if cond.w_map is None:
        return None
    if not pos.size:  # unconstrained: W0, and no multiplier
        return cond.w_map, cond.w_map[:0]
    hb = cond.h_inv_bt[:, pos]
    m_inv = _spd_inverse(b_s @ hb)
    if m_inv is None:
        return None
    rhs = b_s @ cond.w_map
    rhs[:, 0] -= bound
    eta = m_inv @ rhs
    # first-order roundoff of eta: eps per term summed, through |M^-1|
    terms = np.abs(b_s) @ np.abs(cond.w_map)
    terms[:, 0] += np.abs(bound)
    return (np.vstack((cond.w_map - hb @ eta, eta)),
            np.finfo(float).eps * (sum(hb.shape) + rhs.shape[1]) * (np.abs(m_inv) @ terms))


def _null_space(cond: _Condensed, b_s, bound):
    """(coef, eta_err) by the null-space build (Nocedal & Wright, 16.2) from
    one SVD of B_s, cut by the engine's rank rule (``qp._factor``):
    W = B_s^+ [b_s 0] + Z (Z'HZ)^+ Z' ([r0 R1] - H B_s^+ [b_s 0]), the
    minimum-norm W of the region, and the minimum-norm eta with
    B_s' eta = [r0 R1] - H W."""
    n_w = b_s.shape[1]
    z, solve = _factor(b_s, n_w)
    pinv_t = solve(np.eye(n_w))  # (B_s')^+, one row per held row
    w = np.zeros_like(cond.w_lin)
    w[:, 0] = pinv_t.T @ bound
    w += _projected(cond.hessian, z, cond.w_lin - cond.hessian @ w)
    eta = pinv_t @ (cond.w_lin - cond.hessian @ w)
    # first-order roundoff of eta: eps per term summed, through |(B_s')^+|
    terms = np.abs(cond.w_lin) + np.abs(cond.hessian) @ np.abs(w)
    return (np.vstack((w, eta)),
            np.finfo(float).eps * (sum(b_s.shape) + w.shape[1]) * (np.abs(pinv_t) @ terms))


def _solve_w_qp(problem: PlayerProblem, cond: _Condensed, p, x0, seed):
    """(x, mu, eta, active=None) of the point ``p`` = [1; pi] (one column)
    through the engine's W-QP from the full-problem point ``x0`` with the
    W-QP rows ``seed`` as its working set, [t; mu] = ``rec`` [1; pi; W], or
    None when it is not finite or fails the full rows (``_certificate``)."""
    res = solve_qp_active_set(
        cond.hessian, -cond.w_lin @ p[:, 0], np.zeros((0, cond.a_w.shape[1])), np.zeros(0),
        cond.b_w, problem.ineq_rhs[cond.w_rows], x0[cond.n_t:], working_set=seed,
    )
    t_mu = cond.rec @ np.concatenate((p, res.x[:, None]))
    x = np.concatenate((t_mu[: cond.n_t, 0], res.x))
    if not np.isfinite(x).all() or _certificate(
            cond.tols, *_rows(problem, cond, x[:, None]), p[:0], 0.0, cond.w_rows, False)[0].any():
        return None
    eta = np.zeros(problem.ineq_rhs.size)
    eta[cond.w_rows] = res.ineq_duals
    return x, t_mu[cond.n_t :, 0], eta, None


def _first_rows(problem: PlayerProblem, cond: _Condensed, strict, p):
    """Per column of ``p`` = [1; pi], the rows of the region its walk starts
    from: a warm start's ``strict`` rows (None when one is not a W row), or,
    cold (``strict`` None), the single-entry W rows tied at the instance's
    feasible start W0 whose multiplier from B_T' eta = [r0 R1] [1; pi] - H W0
    is nonnegative (a tied ramp row is not held).  [r0 R1] lies in range(H), so no rows
    held is the minimum-norm unconstrained W even where W is not unique."""
    if strict is not None:
        return [strict if all(i in cond.w_pos for i in strict) else None] * p.shape[1]
    cache = problem._derived
    if "cold" not in cache:
        w0 = _start(problem, None)[0][cond.n_t:]
        slack = problem.ineq_rhs[cond.w_rows] - cond.b_w @ w0
        # tied by the engine's own test, so it keeps every seeded row
        tied = (slack <= cond.w_tols[:, 0]) & (np.count_nonzero(cond.b_w, axis=1) == 1)
        grad = cond.w_lin - np.column_stack((cond.hessian @ w0, 0.0 * cond.r_1))
        cache["cold"] = cond.w_rows[tied], cond.b_w[tied] @ grad  # each eta times its entry squared
    rows, eta = cache["cold"]
    return [tuple(rows[hold].tolist()) for hold in (eta @ p >= 0.0).T]


def _certificate(tols, gap, slack, eta, floor, w_rows, held):
    """Per row, where finite condensed points (one per column) fail: a row of
    the full problem beyond its start tolerance (``tols``: the equalities',
    the inequalities' column) or an eta of the held rows below ``floor``
    (-eta_err, or ``STRICT_DUAL_TOL`` + eta_err where W is not unique); and
    where the W rows ``w_rows`` tied there differ from ``held``.  A point is
    served where neither holds: a walk step reads it per member and column."""
    eq_tol, ineq_tol = tols
    return (np.concatenate((np.abs(gap) > eq_tol, slack + ineq_tol < 0.0, eta < floor)),
            (slack.take(w_rows, axis=0) <= ineq_tol.take(w_rows, axis=0)) != held)


class _Fleet:
    """The stacked rows of a fleet, built once per scenario (once per problem for
    a fleet of one), and the stack of its held regions, once per selection.

    Members are the players with a map whose inequality rows are +1/-1 pairs
    (``_entry_pairs``), or a fleet of one's player, read by its dense rows.  A
    point is one vector per column, v: a zero, then each member's [mu; t; W],
    ``coef`` [1; pi] with each ``rec_w @ W`` added (``values``); inequality rows
    are gathered pairs of v, equality rows each member's product or the fold
    (``gap``).  A member whose W is not unique is held in the stack but placed
    by its own maps (``own``, stacked last), like a walk's later steps."""

    def __init__(self, problems):
        self.problems, self.key, self.mask = problems, None, None
        one, conds = len(problems) == 1, map(_condensation, problems)
        self.members = sorted(((k, p, c) for k, (p, c) in enumerate(zip(problems, conds))
                               if c.rec is not None and (c.ineq_pairs is not None or one)),
                              key=lambda member: not member[2].w_unique)  # own members last
        self.index = {k: i for i, (k, _, _) in enumerate(self.members)}
        self.n_stacked = sum(c.w_unique for _, _, c in self.members)
        self.own = set(range(self.n_stacked, len(self.members)))
        # each producer's capacity rows in a row of flags per point: members' as stacked
        order = [*self.index, *(k for k in range(len(problems)) if k not in self.index)]
        ends = np.cumsum([0] + [problems[k].ineq_rhs.size for k in order]).tolist()
        self.flag_at, self.n_flags = dict(zip(order, ends)), ends[-1]
        nd = problems[0].index_map.grid.n_deliveries
        self.table = np.concatenate([np.zeros((2, nd, 0), dtype=np.intp)] + [
            p.capacity_rows().reshape(2, nd, -1) + self.flag_at[k]
            for k, p in enumerate(problems) if p.kind == "producer"], axis=2)
        if not self.members:
            return
        conds, probs = [c for _, _, c in self.members], [p for _, p, _ in self.members]
        sizes = np.array([(p.eq_rhs.size, c.n_t, c.a_w.shape[1], p.ineq_rhs.size, c.w_rows.size)
                          for p, c in zip(probs, conds)]).T
        n_eq, n_t, n_w, n_in, n_wr = sizes
        at = np.zeros((sizes.shape[0], sizes.shape[1] + 1), dtype=int)
        np.cumsum(sizes, axis=1, out=at[:, 1:])  # where each member's block of each size starts
        block = 1 + at[0] + at[1] + at[2]  # each member's [mu; t; W] in v
        x_at, self.eq_at, self.in_at, self.w_at = block[:-1] + n_eq, at[0], at[3], at[4]
        self.pairs, self.dense = None, probs[0].ineq_matrix
        if conds[0].ineq_pairs is not None:  # local columns, then v's rows
            pairs = np.concatenate([c.ineq_pairs for c in conds], axis=1)
            self.pairs = np.where(pairs == np.repeat(n_t + n_w, n_in), 0,
                                  pairs + np.repeat(x_at, n_in))
        self.eq_rhs, self.ineq_rhs = (np.concatenate([getattr(p, name) for p in probs])[:, None]
                                      for name in ("eq_rhs", "ineq_rhs"))
        self.tols = (np.repeat([c.tols[0] for c in conds], n_eq)[:, None],
                     np.concatenate([c.tols[1] for c in conds]))
        self.w_rows = np.concatenate([c.w_rows for c in conds]) + np.repeat(self.in_at[:-1], n_wr)
        member = np.arange(len(conds))
        in_owner, self.w_owner = np.repeat(member, n_in), np.repeat(member, n_wr)
        # the member of each certificate row (equalities, inequalities, W rows'
        # eta), then, after the members, of each W row's tie
        self.owner = np.concatenate((np.repeat(member, n_eq), in_owner, self.w_owner,
                                     member.size + self.w_owner))
        width, self.n_v = 1 + problems[0].n_prices, block[-1]
        self.coef = np.zeros((block[self.n_stacked], width))  # v's rows up to the own members'
        self.spans, self.rec_w = [], []  # per member: v's rows of x, mu, [mu; t], W; its ineq rows
        rows = np.stack((block[:-1], x_at, n_t, n_w, self.in_at[:-1], self.in_at[1:]), 1).tolist()
        for (b, x, t, w, r0, r1), c in zip(rows, conds):
            if c.w_unique:
                self.coef[b : x + t] = np.concatenate((c.rec[t:, :width], c.rec[:t, :width]))
                self.rec_w.append(np.concatenate((c.rec[t:, width:], c.rec[:t, width:])))
            self.spans.append((slice(x, x + t + w), slice(b, x), slice(b, x + t),
                               slice(x + t, x + t + w), slice(r0, r1)))
        xs = dict(zip(self.index, x_at.tolist()))  # a non-member's volumes are its solutions'
        self.volumes = np.add.outer([xs.get(k, 0) for k in range(len(problems))], range(width - 1))
        self.empty = np.zeros(0, dtype=int), np.zeros((0, width)), np.zeros((0, width))
        self.regions, self.parts = [None] * member.size, [self.empty] * member.size

    def _stack(self, key):
        """Stack ``key``'s regions (per member, None where a strict row is not a W row),
        rewriting only the members whose rows change; ``mask`` is None if a region is."""
        for i, (rows, (_, problem, cond)) in enumerate(zip(key, self.members)):
            if self.key is not None and rows == self.key[i]:
                continue
            w_span, n_w = self.spans[i][3], cond.a_w.shape[1]
            region = self.regions[i] = None if rows is None or not n_w else _region(
                problem, cond, rows)
            if i < self.n_stacked:
                self.coef[w_span] = 0.0 if region is None else region.coef[:n_w]
            self.parts[i] = self.empty if region is None else (
                self.w_at[i] + region.pos, region.coef[n_w:], region.eta_err)
        at, eta, err = map(np.concatenate, zip(*self.parts[: self.n_stacked]))
        held = np.zeros((self.w_rows.size, 1), dtype=bool)
        held[np.concatenate([part[0] for part in self.parts])] = True
        self.key, self.held = key, (at, eta, err, held)
        self.mask, self.fold = held[:, 0] if None not in key else None, None
        self.unfolded = self.coef.shape[1]  # columns left to read before folding

    def values(self, p):
        """v at every column of ``p`` = [1; pi]: ``coef`` p, each ``rec_w @ W`` added,
        and zeros where the own members are placed."""
        v = self.coef @ p
        for (_, _, mu_t, w_span, _), rec_w, region in zip(self.spans, self.rec_w, self.regions):
            if region is not None:
                v[mu_t] += rec_w @ v[w_span]
        return np.concatenate((v, np.zeros((self.n_v - v.shape[0], p.shape[1])))) if self.own else v

    def gap(self, v, p):
        """Every member's A x - a at v: one product each until the selection has read as
        many columns as [1; pi] has rows, then one of the fold, the map of [1; pi] to it.
        Folding costs about what those products did: at most about twice the cheaper way."""
        if self.fold is not None:
            return self.fold @ p
        fresh, self.unfolded = self.unfolded > 0, self.unfolded - p.shape[1]
        e = p if fresh else np.eye(p.shape[0])  # this point, or the fold's map of [1; pi]
        x = v if fresh else self.values(e)
        gap = np.concatenate([problem.eq_matrix @ x[span[0]] for (_, problem, _), span
                              in zip(self.members, self.spans)]) - self.eq_rhs * e[:1]
        self.fold = None if fresh else gap
        return gap if fresh else gap @ p

    def slack(self, v):
        """b - Bx at v for every member's inequality rows, from the gathered pairs of v,
        or for a fleet of one without them, the dense product."""
        if self.pairs is None:
            return self.ineq_rhs - self.dense @ v[self.spans[0][0]]
        return self.ineq_rhs - (v.take(self.pairs[0], axis=0) - v.take(self.pairs[1], axis=0))


class FleetRecord:
    """A fleet's walk at every column of its prices, the memo of a point or batch: its
    stacked arrays (``v``, held rows' ``eta``, members' ``slack``) and, per player, the
    columns ``alone`` it was solved at outside the stack (the engine, the full QP, or a
    player the fleet does not serve), in ``sols``; other solutions are built when read."""

    def __init__(self, problems, cache, prices, m, sols=None):
        fleet = cache.get("fleet_step")
        if fleet is None or fleet.problems is not problems:
            fleet = cache["fleet_step"] = _Fleet(problems)
        self.fleet, self.prices, self.m, self.v, self.values = fleet, prices, m, None, {}
        self.cols = list(range(m))
        self.sols, self.served = sols or [None] * len(problems), False  # served: at held rows
        self.alone = dict.fromkeys(range(len(problems)), range(m))  # all, until the fleet serves

    @cached_property
    def _rows(self):
        """v, the inequality multipliers and the tight rows, one row per point."""
        etas = np.zeros((self.m, self.slack.shape[0]))
        etas[:, self.fleet.w_rows] = np.maximum(self.eta, 0.0).T
        return self.v.T.copy(), etas, (self.slack <= self.fleet.tols[1]).T

    def solution(self, k, c=0) -> PlayerSolution:
        """Player k's solution at column c, built from the arrays on first read."""
        if self.sols[k][c] is None:
            x_span, mu_span, _, _, in_span = self.fleet.spans[self.fleet.index[k]]
            vt, etas, tight = self._rows
            sol = self.sols[k][c] = _solution(
                self.fleet.problems[k], self.prices[c], vt[c, x_span], vt[c, mu_span],
                etas[c, in_span], tuple(tight[c, in_span].nonzero()[0].tolist()))
            if (k, c) in self.values:  # its objective, read first: the solution keeps it
                vars(sol)["objective"] = self.values[k, c]
        return self.sols[k][c]

    def objective(self, k, c=0) -> float:
        """Player k's optimal value at column c, without building its solution."""
        sol = self.sols[k][c]
        if sol is None and (k, c) not in self.values:
            self.values[k, c] = self.fleet.problems[k].objective(
                self._rows[0][c, self.fleet.spans[self.fleet.index[k]][0]], self.prices[c])
        return self.values[k, c] if sol is None else sol.objective

    def strict(self, k) -> tuple:
        """Player k's strict rows at the first column: the next point's held selection."""
        if self.sols[k][0] is not None:  # solved alone, or built (and split) already
            return self.sols[k][0]._strict[0]
        i = self.fleet.index[k]
        strong = self.eta[self.fleet.w_at[i] : self.fleet.w_at[i + 1], 0] > STRICT_DUAL_TOL
        return tuple(self.fleet.members[i][2].w_rows[strong].tolist())

    def jacobian(self, k) -> ResponseJacobian | None:
        """Player k's ``response_jacobian`` at the first column from the arrays, where
        the fleet served it (None where it was solved alone): its strict rows
        (``strict``), on a boundary where another row is tight."""
        if 0 in self.alone[k]:
            return None
        strict, rows = self.strict(k), self.fleet.spans[self.fleet.index[k]][4]
        tight = np.count_nonzero(self.slack[rows, 0] <= self.fleet.tols[1][rows, 0])
        return _jacobian(self.fleet.problems[k], strict, tight > len(strict))

    @cached_property
    def z(self):
        """Z at every column (prices x points, read-only): the players' volumes, one gather
        of v, summed in player order (``sum`` may pair terms); + 0.0 signs -0 as zeros would."""
        vols = self.v.take(self.fleet.volumes, axis=0) if self.v is not None else \
            np.empty((len(self.sols), self.fleet.problems[0].n_prices, self.m))
        if any(self.alone.values()):
            for k, cols in self.alone.items():
                for c in cols:
                    vols[k, :, c] = self.sols[k][c].volumes
        z = np.add.accumulate(vols)[-1] + 0.0
        z.flags.writeable = False
        return z

    @cached_property
    def bound_states(self) -> np.ndarray:
        """(columns, 2, deliveries, plants): is each plant of the fleet, producers
        in order, at its upper bound, at its lower: an active capacity row pins, a
        tight ramp row does not.  Solved columns read their active sets (slack alike)."""
        fleet, outside = self.fleet, any(self.alone.values())
        if self.v is not None and not outside:  # every player a member, served at every column
            return (self.slack <= fleet.tols[1]).T[:, fleet.table]
        flags = np.zeros((self.m, fleet.n_flags), dtype=bool)
        if self.v is not None:
            flags[:, : self.slack.shape[0]] = (self.slack <= fleet.tols[1]).T
        for k, cols in self.alone.items():
            at = fleet.flag_at[k]
            for c in cols:
                flags[c, at : at + fleet.problems[k].ineq_rhs.size] = False
                flags[c, at + np.array(self.sols[k][c].active_set, dtype=int)] = True
        return flags[:, fleet.table]


def solve_fleet(problems, price_columns, warm, cache) -> FleetRecord:
    """The record of every player at every column of ``price_columns`` (prices x
    points): every member's first step in one stacked pass from its held rows, the
    strict rows of ``warm`` (the point before, matched by its mask if it was served
    whole) or, cold, its cold start's at the first column, then the walk.  A player
    the fleet cannot serve (no map, rows other than +1/-1 pairs, a strict row that
    is not a W row), or every one where a value is not finite, keeps None in
    ``sols``: its caller solves it alone."""
    prices, p = _query(problems[0], price_columns)
    record = FleetRecord(problems, cache, prices, p.shape[1])
    fleet, m = record.fleet, p.shape[1]
    if not fleet.members or not m:  # no column to read cold rows at
        return record
    if warm is None or not warm.served or warm.fleet is not fleet or fleet.mask is None \
            or np.count_nonzero((warm.eta[:, 0] > STRICT_DUAL_TOL) != fleet.mask):
        key = tuple(_first_rows(problem, cond, warm and warm.strict(k), p[:, :1])[0]
                    if cond.a_w.shape[1] else () for k, problem, cond in fleet.members)
        if key != fleet.key:
            fleet._stack(key)
    at, eta_map, err, held = fleet.held
    v, eta, floor = fleet.values(p), np.zeros((held.shape[0], m)), np.zeros((held.shape[0], m))
    eta[at], floor[at] = eta_map @ p, -(err @ np.abs(p))  # zero where not held
    if not (np.isfinite(v).all() and np.isfinite(eta).all()):
        return record
    record.v, record.eta = v, eta
    state = (floor, np.repeat(held, m, axis=1) if fleet.own else held, fleet.gap(v, p))
    oks = {i: _place(record, p, state, i, fleet.regions[i], record.cols) for i in fleet.own
           if fleet.regions[i] is not None}
    fault, off = _certified(record, state)
    if fleet.mask is None or np.count_nonzero(fault) or np.count_nonzero(off) \
            or any(ok is not None for ok in oks.values()):
        groups = [(i, region, record.cols) for i, ((_, _, cond), region) in enumerate(
            zip(fleet.members, fleet.regions)) if region is not None or not cond.a_w.shape[1]]
        results = _judge(record, groups, fault, off, held, oks)
        state = state if fleet.own else (floor, np.repeat(held, m, axis=1), state[2])
        _walk(record, p, state, lambda k: warm and warm.solution(k), {}, zip(groups, results))
        return record
    record.served = True
    for k in fleet.index:
        record.alone[k], record.sols[k] = (), [None] * m
    return record


def _walk(record, p, state, start, pending, taken=()):
    """Walk on every column the steps ``taken`` ((member, region, columns),
    (served, moves)) did not serve and every row set ``pending`` (per member,
    rows -> columns): each step pops one row set per member, the last named
    first, and steps them together (``_place``, ``_step``).  Where a walk ends
    (no rows named, as where W is not unique, a row set tried, or None) the
    column is solved alone: by the engine's W-QP from ``start`` of the player,
    seeded with its first region's rows predicted active, then the full QP."""
    fleet, eta, m = record.fleet, record.eta, record.m
    exits, tried, seeds = {}, {}, {}
    taken = list(taken)
    for i in {*pending, *(group[0] for group, _ in taken)}:
        record.alone[fleet.members[i][0]], record.sols[fleet.members[i][0]] = (), [None] * m
    while True:
        for (i, region, cols), (served, moves) in taken:
            for c, ok, move in zip(cols, served, moves):
                if ok:
                    continue
                if (i, c) not in tried and region is not None:  # its first region
                    tried[i, c] = {region.rows}
                    seeds[i, c] = region.pos[eta[fleet.w_at[i] + region.pos, c] > 0.0].tolist()
                if move is None or move in tried[i, c]:
                    exits.setdefault(i, []).append(c)
                else:
                    tried[i, c].add(move)
                    pending.setdefault(i, {}).setdefault(move, []).append(c)
        groups = []
        for i, walks in pending.items():
            while walks:
                (rows, cols), (_, problem, cond) = walks.popitem(), fleet.members[i]
                if rows is not None:
                    region = _region(problem, cond, rows) if cond.a_w.shape[1] else None
                    groups.append((i, region, cols))
                    break
                exits.setdefault(i, []).extend(cols)
        if not groups:
            break
        oks = {group[0]: _place(record, p, state, *group) for group in groups}
        taken = zip(groups, _step(record, groups, state, oks))
    for i, cols in exits.items():
        k, problem, cond = fleet.members[i]
        warm_start, sols, record.alone[k] = start(k), record.sols[k], sorted(cols)
        x0 = _start(problem, warm_start)[0] if cond.a_w.shape[1] else None
        for c in record.alone[k]:
            point = (i, c) in seeds and _solve_w_qp(problem, cond, p[:, c : c + 1], x0, seeds[i, c])
            sols[c] = _solution(problem, record.prices[c], *(point or _solve_full(
                problem, problem.merged_linear(record.prices[c]), warm_start)))


def _place(record, p, state, i, region, cols):
    """Place member i at its columns ``cols`` of ``p`` = [1; pi] on ``region``
    (None: no W) by its own maps, (W, eta) = coef [1; pi], [t; mu] = ``rec`` [1;
    pi; W], and its held rows, floor and equality gap into ``state``.  Returns
    where the point is finite (None: everywhere); elsewhere its walk ends."""
    fleet, (floor, held, gap) = record.fleet, state
    (_, problem, cond), (x_span, mu_span, _, w_span, _) = fleet.members[i], fleet.spans[i]
    n_t, n_w, every = cond.n_t, cond.a_w.shape[1], cols == record.cols
    p_cols, at = (p, slice(None)) if every else (p[:, cols], cols)
    z = region.coef @ p_cols if n_w else p_cols[:0]
    t_mu = cond.rec @ (np.concatenate((p_cols, z[:n_w])) if n_w else p_cols)
    ok = None
    if not (np.isfinite(z).all() and np.isfinite(t_mu).all()):  # refused, and kept finite
        ok = np.isfinite(z).all(axis=0) & np.isfinite(t_mu).all(axis=0)
        z, t_mu = np.where(ok, z, 0.0), np.where(ok, t_mu, 0.0)
    v = record.v
    v[mu_span, at], v[w_span, at] = t_mu[n_t:], z[:n_w]
    v[x_span.start : w_span.start, at] = t_mu[:n_t]
    gap[fleet.eq_at[i] : fleet.eq_at[i + 1], at] = problem.eq_matrix @ (
        v[x_span] if every else v[x_span][:, cols]) - problem.eq_rhs[:, None]
    if n_w:
        err = region.eta_err @ np.abs(p_cols)  # zero where within the roundoff of its own solve
        block = np.zeros((2, cond.w_rows.size, z.shape[1]))  # eta, floor
        block[0, region.pos] = z[n_w:]
        block[1, region.pos] = -err if cond.w_unique else STRICT_DUAL_TOL + err
        own = slice(fleet.w_at[i], fleet.w_at[i + 1])
        record.eta[own, at], floor[own, at], held[own, at] = block[0], block[1], region.held
    return ok


def _certified(record, state):
    """Where the record's points fail (``_certificate``), its slack taken at v."""
    fleet, (floor, held, gap) = record.fleet, state
    record.slack = fleet.slack(record.v)
    return _certificate(fleet.tols, gap, record.slack, record.eta, floor, fleet.w_rows, held)


def _step(record, groups, state, oks):
    """A walk step of the groups (member, region, columns) placed, whose finite
    columns are ``oks`` (``_place``), in one stacked pass: per group, served and moves."""
    return _judge(record, groups, *_certified(record, state), state[1], oks)


def _judge(record, groups, fault, off, held, oks):
    """Per group (member, region, columns) of a step, whether each column is
    served (finite, certified, exactly the region's W rows tied), else its next
    rows: held rows with eta > 0, W rows violated and, at a degenerate vertex (a
    W row tied outside the region), the held and tied rows; None where the walk
    ends (no W, W not unique, a W or eta not finite)."""
    fleet, size = record.fleet, len(record.fleet.members)
    failed = np.zeros((2 * size, record.m), dtype=bool)  # per member and column: certificate, ties
    r, c = np.nonzero(np.concatenate((fault, off)))
    failed[fleet.owner[r], c] = True
    for i, _, cols in groups:
        if oks.get(i) is not None:
            failed[i, cols] |= ~oks[i]
    served, ahead, out = (~(failed[:size] | failed[size:])).tolist(), None, []
    for i, _, cols in groups:
        cond, ok = fleet.members[i][2], served[i]
        ok, moves = ok if cols == record.cols else [ok[c] for c in cols], [None] * len(cols)
        if cond.w_unique and cond.a_w.shape[1] and not all(ok):
            if ahead is None:
                ahead = ((record.slack.take(fleet.w_rows, axis=0)
                          + fleet.tols[1].take(fleet.w_rows, axis=0) < 0.0)
                         | (record.eta > 0.0) | ((off | held) & ~failed[fleet.w_owner]))
            own, finite = ahead[fleet.w_at[i] : fleet.w_at[i + 1]], oks.get(i)
            for j, c in enumerate(cols):
                if not ok[j] and (finite is None or finite[j]):
                    moves[j] = tuple(cond.w_rows[own[:, c]].tolist())
        out.append((ok, moves))
    return out


def _rows(problem: PlayerProblem, cond: _Condensed, x):
    """The full problem's equality gap Ax - a and slack b - Bx at x, one
    column per point when x has columns; Bx from ``cond.ineq_pairs`` in
    O(rows) where it has them, else the dense product."""
    a, b = problem.eq_rhs, problem.ineq_rhs
    if x.ndim == 2:
        a, b = a[:, None], b[:, None]
    if cond.ineq_pairs is None:
        bx = problem.ineq_matrix @ x
    else:
        (plus, minus), ext = cond.ineq_pairs, np.concatenate((x, np.zeros((1,) + x.shape[1:])))
        bx = ext.take(plus, axis=0) - ext.take(minus, axis=0)
    return problem.eq_matrix @ x - a, b - bx


def _residuals(problem, g, x, mu, eta, gap, slack) -> ResidualReport:
    grad = -g - problem.quadratic @ x
    stat = grad - problem.eq_matrix.T @ mu - problem.ineq_matrix.T @ eta
    return ResidualReport(
        stationarity=float(np.max(np.abs(stat), initial=0.0)),
        primal_equality=float(np.max(np.abs(gap), initial=0.0)),
        primal_inequality=float(max(0.0, -np.min(slack, initial=0.0))),
        dual_feasibility=float(max(0.0, -np.min(eta, initial=0.0))),
        complementarity=float(np.max(np.abs(eta * slack), initial=0.0)),
    )


def kkt_residual(problem: PlayerProblem, solution: PlayerSolution) -> ResidualReport:
    """Recompute the optimality residuals of a stored solution."""
    g, x = problem.merged_linear(solution.prices), solution.primal
    return _residuals(problem, g, x, solution.eq_duals, solution.ineq_duals,
                      *_rows(problem, _condensation(problem), x))


def best_response_volumes(problem: PlayerProblem, expected_prices) -> np.ndarray:
    """Unique optimal power trade vector at the given expected prices."""
    return solve_qp(problem, expected_prices).volumes


def _strict_active(solution):
    """Active rows with a multiplier above ``STRICT_DUAL_TOL`` (strict) and the rest."""
    active = np.array(solution.active_set, dtype=int)
    strong = solution.ineq_duals[active] > STRICT_DUAL_TOL
    return tuple(active[strong].tolist()), tuple(active[~strong].tolist())


def response_jacobian(problem: PlayerProblem, solution: PlayerSolution | None = None,
                      expected_prices=None) -> ResponseJacobian:
    """dV/dpi for the affine selection active at the query point."""
    if solution is None:
        if expected_prices is None:
            raise ValueError("need a solution or expected prices")
        solution = solve_qp(problem, expected_prices)
    return _jacobian(problem, *solution._strict)


def _jacobian(problem: PlayerProblem, strict, weak) -> ResponseJacobian:
    """dV/dpi with the ``strict`` rows held, on a boundary where ``weak`` ones are tight."""
    cond = _condensation(problem)
    if cond.rec is not None and all(i in cond.w_pos for i in strict):
        matrix = _condensed_jacobian(problem, cond, strict)
    else:
        matrix = _kkt_jacobian(problem, strict)
    return ResponseJacobian(matrix, strict, bool(weak))


def _condensed_jacobian(problem: PlayerProblem, cond: _Condensed, rows) -> np.ndarray:
    """dV/dpi = J_t - R1' dW/dpi with the W rows ``rows`` held: dW/dpi is the
    price columns of their region's map."""
    dw = _region(problem, cond, rows).coef[: cond.a_w.shape[1], 1:]
    return cond.jac_t - cond.r_1.T @ dw


def _kkt_jacobian(problem: PlayerProblem, strict) -> np.ndarray:
    """dV/dpi of the full problem with the equality and ``strict`` rows held:
    the projection of the price columns of -I with Hessian Q."""
    n_p = problem.n_prices
    rows = np.vstack([problem.eq_matrix, problem.ineq_matrix[list(strict)]])
    z = _factor(rows, problem.n_vars)[0]
    return -_projected(problem.quadratic, z, np.eye(problem.n_vars, n_p))[:n_p]


def _projected(hessian, z, rhs):
    """Z (Z'HZ)^+ Z' rhs for the null-space basis ``z`` of some rows: the
    minimum-norm minimizer of 1/2 x'Hx - rhs'x on those rows' null space,
    its rank cut by the engine's SVD rule."""
    return z @ _factor(z.T @ hessian @ z, z.shape[1])[1](z.T @ rhs)


def finite_difference_volumes(problem: PlayerProblem, expected_prices, direction) -> np.ndarray:
    """Central-difference directional derivative of the volume response."""
    prices = np.asarray(expected_prices, dtype=float)
    d = np.asarray(direction, dtype=float)
    up = best_response_volumes(problem, prices + FD_STEP * d)
    dn = best_response_volumes(problem, prices - FD_STEP * d)
    return (up - dn) / (2.0 * FD_STEP)
