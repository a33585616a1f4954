"""Dense primal active-set solver for convex quadratic programs.

    min 1/2 x'Gx + g'x   s.t.   Ax = a,   Bx <= b

with G symmetric positive semidefinite.  Each iteration solves the
equality-constrained subproblem on the current working set through an
eigendecomposition of the reduced Hessian, which separates positive-
curvature directions from flat ones (the production block of a producer
carries no risk term).  Each working set is factored once: one SVD of its
rows gives the null-space basis Z and the minimum-norm multipliers, and
that SVD and the eigendecomposition of Z'GZ are kept until a row enters or
leaves.  A flat direction with negative slope is followed to the nearest
blocking constraint; the trading boxes keep every such ray finite.  Exact
working sets are the point of the method: downstream sensitivity analysis
differentiates the solution map piece by piece.
The phase-I LP of validation (``interior_margin``) is the case G = 0, run
only when its start does not already certify the margin cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NumericalError

__all__ = ["QPResult", "solve_qp_active_set", "start_violation", "row_tolerances",
           "row_violations", "interior_margin", "MARGIN_CAP"]

MARGIN_CAP = 1.0  # phase-I slack variable cap keeps the LP bounded
FEAS_TOL = 1e-8   # start-point and working-set tolerance, relative to max(1, |rhs|)
DUAL_TOL = 1e-11  # most negative multiplier kept, relative to the gradient scale


@dataclass(frozen=True)
class QPResult:
    x: np.ndarray
    eq_duals: np.ndarray
    ineq_duals: np.ndarray
    working_set: tuple[int, ...]
    iterations: int


def _factor(C: np.ndarray, n: int):
    """The null-space basis Z of the working-set rows C (rows x n) and the
    minimum-norm solution y of C'y = r (r a vector or columns) as a function
    of r, from one SVD C = U diag(s) V' cut at the rank ``lstsq(rcond=None)`` uses."""
    if C.shape[0] == 0:
        return np.eye(n), lambda r: np.zeros((0,) + np.shape(r)[1:])
    u, s, vt = np.linalg.svd(C, full_matrices=True)
    rank = int(np.sum(s > max(C.shape) * np.finfo(float).eps * s.max(initial=0.0)))
    u_r, s_r, vt_r = u[:, :rank], s[:rank], vt[:rank]
    return vt[rank:].T, lambda r: u_r @ ((vt_r @ r).T / s_r).T


def start_violation(A, a, B, b, x) -> str | None:
    """Name the constraint block ("equality" or "inequality") that ``x``
    violates beyond the start-point tolerances, or None if it is feasible."""
    eq_bad, ineq_bad = row_violations(row_tolerances(a, b), A @ x - a, b - B @ x)
    return "equality" if eq_bad else "inequality" if ineq_bad else None


def row_tolerances(a, b):
    """The start-point tolerances of Ax = a, Bx <= b: the largest |Ax - a|
    and, per row, the largest Bx - b allowed."""
    return (FEAS_TOL * max(1.0, float(np.max(np.abs(a), initial=0.0))),
            FEAS_TOL * np.maximum(1.0, np.abs(b)))


def row_violations(tols, gap, slack):
    """Whether the equality block and the inequality block are violated
    beyond ``tols`` (``row_tolerances``), from the gap Ax - a and the slack
    b - Bx; one flag per column when they hold one column per point."""
    eq_tol, ineq_tol = tols
    return (np.abs(gap).max(axis=0, initial=0.0) > eq_tol,
            (slack.T + ineq_tol).min(axis=-1, initial=np.inf) < 0.0)


def interior_margin(A, a, B, b, v0=None):
    """Phase-I LP, max t s.t. Av = a, Bv + t <= b, t <= ``MARGIN_CAP``, as the
    QP in (v, t) with G = 0 (formulation in validate.py).

    Starts at ``v0`` (default lstsq(A, a); validation passes each producer's
    dispatch start, ``validate._dispatch_start``) and t one below
    min(b - Bv0, cap), feasible whenever Av = a is consistent and v0
    satisfies it.  When the start (v0, cap) itself passes the engine's start
    check, every row keeps a slack of at least the cap, so (v0, cap) is
    optimal: that check runs on (A, B) directly, and the LP in (v, t) is
    built only when the engine must run.  Returns (margin, v, status);
    margin and v are None unless status is "ok": "infeasible" for
    inconsistent equalities, else a failure naming its cause.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m_eq, m_in = B.shape[1], A.shape[0], B.shape[0]
    if v0 is None:
        v0 = np.linalg.lstsq(A, a, rcond=None)[0] if m_eq else np.zeros(n)
    bv = B @ v0
    if not any(row_violations(row_tolerances(a, b), A @ v0 - a, b - (bv + MARGIN_CAP))):
        return MARGIN_CAP, v0, "ok"
    e_t = np.eye(1, n + 1, n)
    lp = (np.hstack([A, np.zeros((m_eq, 1))]), a,
          np.vstack([np.hstack([B, np.ones((m_in, 1))]), e_t]), np.append(b, MARGIN_CAP))
    t0 = min(float(np.min(b - bv, initial=MARGIN_CAP)), MARGIN_CAP) - 1.0
    try:
        res = solve_qp_active_set(np.zeros((n + 1, n + 1)), -e_t[0], *lp, np.append(v0, t0))
    except InfeasibleError:
        return None, None, "infeasible"
    except NumericalError as exc:
        return None, None, f"a numerical failure ({exc})"
    # the cap row binding at the optimum means the LP value is the cap itself
    margin = MARGIN_CAP if m_in in res.working_set else float(res.x[-1])
    return margin, res.x[:-1], "ok"


def solve_qp_active_set(
    G: np.ndarray,
    g: np.ndarray,
    A: np.ndarray,
    a: np.ndarray,
    B: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    working_set=(),
) -> QPResult:
    """Minimize from the feasible point ``x0``.

    ``working_set`` seeds the active inequalities (warm start); rows not
    actually active at ``x0`` are dropped silently.  Raises
    ``InfeasibleError`` when ``x0`` violates the constraints and
    ``NumericalError`` when the iteration or an unbounded ray gives out.
    """
    G = np.asarray(G, dtype=float)
    g = np.asarray(g, dtype=float)
    A = np.asarray(A, dtype=float).reshape(-1, G.shape[0])
    a = np.asarray(a, dtype=float).reshape(-1)
    B = np.asarray(B, dtype=float).reshape(-1, G.shape[0])
    b = np.asarray(b, dtype=float).reshape(-1)
    n, m_eq, m_in = G.shape[0], A.shape[0], B.shape[0]
    x = np.array(x0, dtype=float)

    act_tol = row_tolerances(a, b)[1]

    violated = start_violation(A, a, B, b, x)
    if violated:
        raise InfeasibleError(f"starting point violates the {violated} constraints")
    slack = b - B @ x

    work = list(dict.fromkeys(
        i for i in working_set if 0 <= i < m_in and slack[i] <= act_tol[i]
    ))

    max_iter = 50 * (n + m_in) + 200
    grad_scale = max(1.0, float(np.max(np.abs(g))) if g.size else 1.0)
    lin_tol = 1e-9 * grad_scale
    curved = bool(np.any(G))

    factored = None  # the working set that Z, multipliers, w and U belong to
    for it in range(max_iter):
        if work != factored:
            Z, multipliers = _factor(np.vstack([A, B[work]]), n)
            if curved and Z.shape[1]:
                H = Z.T @ G @ Z
                w, U = np.linalg.eigh(0.5 * (H + H.T))
            else:  # an LP: eigh of the zero reduced Hessian is (0, I) exactly
                w, U = np.zeros(Z.shape[1]), np.eye(Z.shape[1])
            factored = work.copy()
        grad = G @ x + g
        # the reduced gradient cannot be resolved below roundoff at the data
        # scale, so stationarity is relative to the gradient magnitude
        grad_scale = max(1.0, float(np.max(np.abs(grad), initial=0.0)))

        d = np.zeros(n)
        target = 1.0
        stationary = True
        if Z.shape[1]:
            cut = max(float(w[-1]), 1.0) * 1e-12
            pos = w > cut
            c_rot = U.T @ (Z.T @ grad)
            flat = c_rot.copy()
            flat[pos] = 0.0
            if float(np.max(np.abs(c_rot), initial=0.0)) <= 1e-12 * grad_scale:
                stationary = True
            elif float(np.max(np.abs(flat), initial=0.0)) > max(lin_tol, 1e-12 * grad_scale):
                # zero-curvature descent ray; a box must block it
                d = -Z @ (U @ flat)
                target = np.inf
                stationary = False
            else:
                step = np.zeros_like(c_rot)
                step[pos] = -c_rot[pos] / w[pos]
                d = Z @ (U @ step)
                target = 1.0
                stationary = float(np.max(np.abs(d), initial=0.0)) <= 1e-13 * max(1.0, float(np.max(np.abs(x))))

        if stationary:
            # stationary on the working set: check multipliers
            y = multipliers(-grad)
            mu, eta_w = y[:m_eq], y[m_eq:]
            if eta_w.size == 0 or float(eta_w.min()) >= -DUAL_TOL * grad_scale:
                eta = np.zeros(m_in)
                if work:
                    eta[work] = np.where(eta_w > 0.0, eta_w, 0.0)
                return QPResult(x, mu, eta, tuple(sorted(work)), it + 1)
            worst = int(np.argmin(eta_w))
            del work[worst]
            continue

        # ratio test against rows not in the working set
        alpha = target
        blocker = -1
        if m_in:
            Bd = B @ d
            slack = b - B @ x
            pos_tol = 1e-13 * max(1.0, float(np.max(np.abs(d))))
            in_work = np.zeros(m_in, dtype=bool)
            in_work[work] = True
            movable = ~in_work & (Bd > pos_tol)
            if np.any(movable):
                ratios = np.where(movable, np.maximum(slack, 0.0) / np.where(movable, Bd, 1.0), np.inf)
                i_best = int(np.argmin(ratios))
                if ratios[i_best] < alpha - 1e-15:
                    alpha = float(ratios[i_best])
                    blocker = i_best
        if not np.isfinite(alpha):
            raise NumericalError("descent ray is unbounded; feasible set not compact")
        x = x + alpha * d
        if blocker >= 0:
            work.append(blocker)

    raise NumericalError(f"active-set iteration limit {max_iter} exceeded")
