"""Per-player best responses, optimality residuals and price sensitivities.

``solve_qp`` maximizes a player's concave mean-variance objective at given
expected power prices.  Prices enter only the linear term, and every
player's curvature is lambda * Sigma with one Sigma per scenario, so the
traded block t = (V, F, O) is eliminated in closed form (condensed).  With
A = [A_t A_w] the equality rows and S = A_t Sigma^-1 A_t' / lambda, the
equality multipliers are affine in production W,

    mu(W) = -S^-1 (a + A_t Sigma^-1 g_t / lambda) + S^-1 A_w W,
    t     = -Sigma^-1 (g_t + A_t' mu) / lambda,

with g_t the traded linear term, affine in the prices pi.  So [t; mu] is
one affine map of [1; pi; W], composed once per problem instance
(``_Condensed.rec``).  A consumer has no W, so its response is an affine
map of prices.  A producer is left with a QP over W alone, with Hessian
A_w' S^-1 A_w, linear term A_w' mu(0) = -[r0 R1] [1; pi] and only the
ramp and capacity rows, solved by the same active-set engine as the full
problem.  Sigma^-1 is factored once per scenario and shared by reference
(``PlayerProblem.cov_inverse``); S is factored once per problem instance,
from that instance's own rows, and a scenario assembles its problems once
(``assemble_all``), so that is also once per scenario.  The cold start is
likewise found once per instance and kept read-only.

The W-QP is a multiparametric QP in the prices: on a critical region,
where a fixed set R of strict rows (positive multiplier) is active, its
solution W(pi), eta_R(pi) is affine (Nocedal & Wright, 16.2).  When W is
unique (H positive definite) a region is built by the range-space method,
from one factor of H per instance and one |R| x |R| Cholesky factor.  Any
other region, where W is not unique or the rows of R are dependent, takes
the null-space method, cut by the engine's rank rule: the minimum-norm W
and eta_R of the region (Patrinos & Sarimveis, Automatica 46, 2010).  A
solve walks these regions, starting from the warm start's strict rows, or
from the W rows tied at the feasible start when it is cold.  It keeps a
region's point when that certifies (finite, eta_R >= 0 up to the roundoff
of its solve, and the full problem's start-point check passes, equalities
included) and the W rows tied there are exactly R.  Where W is not unique
eta_R must exceed ``STRICT_DUAL_TOL`` beyond that roundoff, so that R stays
tight across the optimal face.  Otherwise a unique W moves to R' = {rows
of R with eta > 0} + {W rows the predicted W violates}: the primal-dual
active-set step, a semismooth Newton step (Hintermueller, Ito & Kunisch,
SIAM J. Optim. 13, 2002).  The walk ends after finitely many row sets, and
the engine solves the W-QP instead, in three cases: R' was already tried,
W is not unique (it does not walk), or the certified point has a tied W
row outside R (a degenerate vertex).  The engine starts from the player's
usual start, seeded with the first region's rows whose multiplier it
predicts stays positive, or with the warm start's active W rows when a
strict row is not a W row.  The engine accepts any rows active at its
start, so the seed changes the path, not the answer.  Only W is mapped; t
and mu are recovered from it by ``rec``, one product per block of columns.
Each problem instance keeps one region, keyed by its rows, so memory stays
bounded on a long sweep.

Every point no region served (the engine's or the full QP's) is finished
in one place, ``_solution``, which reads its active set from the slack.
At a degenerate vertex the tied W rows are linearly dependent and their
multipliers are not unique; it then keeps the minimum-norm nonnegative
ones (``_canonical_duals``).  A region serves only nonnegative ones, and
its map gives the minimum-norm ones, so every path picks the same strict
rows, and so the same ``selection_id``.

``solve_qp_many`` solves one player at a block of price columns, all from
one warm start, and ``solve_qp`` is its one-column case.  The region, the
recovery of mu and t, the certificate and the active sets are one matrix
operation each over all columns on one region; a consumer's affine map
likewise.  Only a column whose walk ends is solved alone, by the engine
and then by the full QP.

The condensation drops the trading boxes.  The full active-set QP (also
the test oracle) runs instead, from the player's usual start, when a
Cholesky factor of Sigma or S fails (S is singular when equality rows
repeat, as in the pinned-totals oracle; the instance's record then has no
map), or when the recovered point is not finite or violates any row of
the full problem, equalities included, beyond the engine's start-point
tolerances: whenever a trading box binds.

An accepted point's duals are valid for the full problem: t meets its
stationarity rows by construction, the W-QP's stationarity
A_w' mu(W) + B_w' eta = 0 is the full one on the W columns, and the boxes
are slack, so their multipliers are zero.  One pass over the full
problem's rows, the equality gap Ax - a and the slack b - Bx, gives the
start-point check that accepts a condensed point and the active set.  On a
large problem Bx is read from each inequality row's entries, at most one +1
and one -1 in every ramp, capacity and box row: one difference of two
gathered terms of [x; 0], O(rows) per column, the dense product's value.  A
column is certified by whole-block comparisons, the W rows tied there
against the region's rows as one mask.  Only when the second stage below
moves W is the slack taken again, at the moved point.  The objective and
the KKT residuals are computed when first read, by ``kkt_residual``
itself, so a stored residual is its recomputation bit for bit and a caller
that never reads one never pays for it.

The traded block of the optimum is unique; W can sit on a flat face, so a
second stage picks the minimum-norm W on that face to make results
deterministic.  W carries no cost and no curvature, so the first stage's
multipliers stay valid there (a convex QP has the same multipliers at
every optimum).  The face keeps A_w W and every strict row fixed, so it is
a single point when A_w has full column rank (decided once per instance)
or when [A_w; B_s] does for the strict rows B_s of the point (the engine's
rank rule): the second stage would return its start, and it is skipped.

``response_jacobian`` differentiates the optimal power trades with respect
to expected prices while holding the strictly active constraints fixed:
one affine piece of the piecewise-affine response map.  When every
strict row is a W row it is dV/dpi = J_t - R1' dW/dpi, J_t the sensitivity
at fixed W, with dW/dpi the price columns of the region's map; otherwise
it is the null-space projection Z (Z'HZ)^+ Z' of the full problem.  It is
exact wherever Sigma is positive definite: flat directions move W alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .assembly import PlayerProblem
from .errors import InfeasibleError, ScenarioError
from .qp import (STRICT_DUAL_TOL, _factor, interior_margin, row_tolerances, row_violations,
                 solve_qp_active_set, start_violation)

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
GATHER_ENTRIES = 1 << 14  # fewest entries of B at which a gathered Bx beats the dense product


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
    another or on their order.

    The condensed arithmetic covers all columns on one region at once; a
    column whose region walk ends is solved alone, by the W-QP engine from
    the warm start and then by the full QP, which also solves every column
    of an instance without a map (``rec`` None).
    """
    prices, p = _query(problem, price_columns)
    cond = _condensation(problem)
    points = ([None] * p.shape[1] if cond.rec is None
              else _solve_condensed(problem, cond, p, warm_start))
    return tuple(
        _solution(problem, prices[c], *(point or _solve_full(
            problem, problem.merged_linear(prices[c]), warm_start)))
        for c, point in enumerate(points)
    )


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
    cond = _condensation(problem)
    if active is None:
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
    return [tuple(col.nonzero()[0].tolist()) for col in (slack <= cond.tols[1][:, None]).T]


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
    tols: tuple                    # qp.row_tolerances of the full problem
    w_tols: np.ndarray             # the W rows' column of tols[1]
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
    tols = row_tolerances(problem.eq_rhs, problem.ineq_rhs)
    big = problem.ineq_matrix.size >= GATHER_ENTRIES
    base = dict(n_t=n_t, w_rows=w_rows, w_pos={int(r): k for k, r in enumerate(w_rows)},
                a_w=a_w, b_w=b_w, tols=tols, w_tols=tols[1][w_rows, None],
                ineq_pairs=_entry_pairs(problem.ineq_matrix) if big else None)
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


def _solve_condensed(problem: PlayerProblem, cond: _Condensed, p: np.ndarray, warm_start):
    """Per column of ``p`` = [1; pi], (x, mu, eta, active) through the W-QP
    (active None where the engine solved it), or None where the point fails
    the full rows.

    Each column walks the W-QP's critical regions from the first one
    (``_first_rows``), and the columns on one region take their step
    together (``_serve``): a column is served where it certifies with
    exactly the region's W rows tied, else it moves to the rows ``_serve``
    names.  Where the walk ends (no rows named, as always where W is not
    unique, or a row set it tried before) the engine solves the column
    alone from the player's usual start, seeded with the first region's
    rows that it predicts stay active there, or with the warm start's
    active W rows when a strict row of the warm start is not a W row.
    """
    m, n_w = p.shape[1], cond.a_w.shape[1]
    if not n_w:
        empty = np.zeros((0, m))
        return _points(cond, *_recover(problem, cond, p, empty), empty)  # V is affine in pi
    x0, active = _start(problem, warm_start)
    first = _first_rows(problem, cond, x0, warm_start)
    points, engine, tried = [None] * m, [], {}  # tried: column -> row sets of its walk
    every = list(range(m))
    walks = {} if first is None else {first: every}
    seed = None  # the first region's rows and prediction, at every column
    while walks:
        rows, cols = walks.popitem()
        region = _region(problem, cond, rows)
        p_cols = p if cols == every else p[:, cols]  # a subset, or another order
        z = region.coef @ p_cols
        seed = seed or (region.pos, z[n_w:])
        served, moves = _serve(problem, cond, p_cols, region, z)
        for c, point, move in zip(cols, served, moves):
            points[c] = point
            if point is None:
                trail = tried.setdefault(c, {first})
                if move is None or move in trail:
                    engine.append(c)
                else:
                    trail.add(move)
                    walks.setdefault(move, []).append(c)
    for c in sorted(engine):
        start = (seed[0][seed[1][:, c] > 0.0].tolist() if seed is not None
                 else [cond.w_pos[i] for i in active if i in cond.w_pos])
        points[c] = _solve_w_qp(problem, cond, p[:, c : c + 1], x0, start)
    return points


def _solve_w_qp(problem: PlayerProblem, cond: _Condensed, p, x0, seed):
    """(x, mu, eta, active=None) of the point ``p`` = [1; pi] (one column)
    through the engine's W-QP from the full-problem point ``x0`` with the
    W-QP rows ``seed`` as its working set, or None when it fails the full rows."""
    res = solve_qp_active_set(
        cond.hessian, -cond.w_lin @ p[:, 0], np.zeros((0, cond.a_w.shape[1])), np.zeros(0),
        cond.b_w, problem.ineq_rhs[cond.w_rows], x0[cond.n_t:], working_set=seed,
    )
    point = _points(cond, *_recover(problem, cond, p, res.x[:, None]), res.ineq_duals[:, None])[0]
    return None if point is None else (*point[:3], None)


def _first_rows(problem: PlayerProblem, cond: _Condensed, x0, warm_start):
    """The rows of the region a walk starts from: a warm start's strict rows,
    or the W rows tied at the feasible start ``x0``; None when a strict row
    is not a W row."""
    if warm_start is None:
        slack = problem.ineq_rhs[cond.w_rows] - cond.b_w @ x0[cond.n_t:]
        # tied by the engine's own test, so it keeps every seeded row
        return tuple(cond.w_rows[slack <= cond.w_tols[:, 0]].tolist())
    rows, _ = warm_start._strict
    return rows if all(i in cond.w_pos for i in rows) else None


def _serve(problem: PlayerProblem, cond: _Condensed, p: np.ndarray, region: _Region, z):
    """One step of the walk at the prediction ``z`` = (W, eta of its rows) of
    ``region``, one column per column of ``p`` = [1; pi].

    Returns, per column, (x, mu, eta, active) where the point certifies
    (finite, eta >= -``eta_err``, or eta >= ``STRICT_DUAL_TOL`` + ``eta_err``
    where W is not unique, and every full-problem row within the start
    tolerances) and the W rows tied there are the region's rows, else None;
    and the rows of the next region, those of ``region`` whose multiplier
    is positive and the W rows the predicted W violates beyond tolerance,
    or None where the walk ends (W not unique, a point that is not finite,
    or one that certifies with a tied W row outside the region: a
    degenerate vertex).
    """
    m, n_w, w_rows = p.shape[1], cond.a_w.shape[1], cond.w_rows
    finite = np.isfinite(z).all(axis=0)
    if not finite.all():
        z = np.where(finite, z, 0.0)  # refused; keeps the products below finite
    w, eta_r = z[:n_w], z[n_w:]
    floor = 0.0
    if not cond.w_unique:  # a weak row need not stay tight across the optimal face
        floor = STRICT_DUAL_TOL + region.eta_err @ np.abs(p)
    elif (eta_r < 0.0).any():  # zero where within the roundoff of its own solve
        err = region.eta_err @ np.abs(p)
        eta_r = np.where(eta_r >= -err, np.maximum(eta_r, 0.0), eta_r)
    keep = finite & (eta_r >= floor).all(axis=0)
    eta_w = np.zeros((w_rows.size, m))
    eta_w[region.pos] = eta_r
    served = [None] * m
    if keep.any():
        x, mu, slack, ok = _recover(problem, cond, p, w)
        keep &= ok
        same = ((slack.take(w_rows, axis=0) <= cond.w_tols) == region.held).all(axis=0)
        served = _points(cond, x, mu, slack, keep & same, eta_w)
    moves = [None] * m
    if cond.w_unique and None in served:
        refused = [c for c in range(m) if finite[c] and not keep[c]]
        over = cond.b_w @ w[:, refused] - problem.ineq_rhs[w_rows, None] > cond.w_tols
        ahead = over | (eta_w[:, refused] > 0.0)
        for k, c in enumerate(refused):
            moves[c] = tuple(w_rows[ahead[:, k]].tolist())
    return served, moves


def _recover(problem: PlayerProblem, cond: _Condensed, p, w):
    """Per column of ``p`` = [1; pi] and ``w``: x and mu, [t; mu] one product
    ``rec`` [1; pi; W], the full problem's slack, and whether x is finite and
    within the start tolerances of every full-problem row."""
    t_mu = cond.rec @ (np.concatenate((p, w)) if w.shape[0] else p)
    x, mu = np.concatenate((t_mu[: cond.n_t], w)), t_mu[cond.n_t :]
    finite = np.isfinite(x).all(axis=0)
    if not finite.all():
        x = np.where(finite, x, 0.0)  # refused; keeps the row products finite
    gap, slack = _rows(problem, cond, x)
    eq_bad, ineq_bad = row_violations(cond.tols, gap, slack)
    return x, mu, slack, finite & ~(eq_bad | ineq_bad)


def _points(cond: _Condensed, x, mu, slack, keep, eta_w):
    """Per column, (x, mu, eta, active) where ``keep``, else None, eta ``eta_w`` on the W rows."""
    etas = np.zeros((x.shape[1], slack.shape[0]))
    etas[:, cond.w_rows] = eta_w.T
    xs, mus = x.T.copy(), mu.T.copy()  # one contiguous row per point
    active = _active_sets(cond, slack)
    return [(xs[c], mus[c], etas[c], active[c]) if keep[c] else None for c in range(x.shape[1])]


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
    strict, weak = solution._strict
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
