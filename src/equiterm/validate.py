"""Scenario validation: feasibility certificates and bound adequacy.

Every economic precondition of the equilibrium analysis becomes a runtime
check here: strictly interior feasible points per player (certified by a
phase-I linear program maximizing the worst constraint slack), joint
feasibility of market clearing at interior points, positive definiteness
of the covariance, and heuristic adequacy of the trading and price boxes
(the boxes must be loose enough never to bind at an equilibrium).
Failures are reported, never raised.

The phase-I LP, max t s.t. Av = a, Bv + t <= b, t <= MARGIN_CAP, is solved by
``qp.interior_margin``.  A start v0 with Av0 = a and a slack of at least the
cap on every row makes (v0, MARGIN_CAP) optimal, so the margin is certified
as exactly MARGIN_CAP without running anything.  Consumers and the joint LP
start at the min-norm solution of their equalities.  A producer's equalities
have a zero right-hand side, so theirs is v = 0, where every ``cap_lower``
row ties; a producer starts instead from its dispatch (``_dispatch_start``):
every plant at half its capacity, so W is constant and each ramp row keeps
its full ramp, and the min-norm traded block that balances it.  A start
short of the cap runs the LP on the player QPs' active-set engine as the QP
in (v, t) with G = 0, linear term -e_t, equality rows [A 0] and inequality
rows [B 1] plus the cap row.  With the cap row in the final working set the
LP value is the cap, reported as exactly MARGIN_CAP; otherwise the margin is
the engine's t.  Inconsistent equalities fail a check as "infeasible", an
engine failure (iteration limit, unbounded ray) with its cause.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import assemble_all
from .errors import CovarianceError, EquitermError
from .qp import FEAS_MARGIN, interior_margin, start_violation
from .scenario import Scenario

__all__ = ["CheckResult", "ValidationReport", "validate_scenario", "FEAS_MARGIN"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    message: str
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    feas_margin: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def as_dict(self) -> dict:
        return {"passed": self.passed, "checks": [dict(vars(c)) for c in self.checks],
                "feas_margin": self.feas_margin}


def _joint_blocks(scenario, problems):
    """(A, a, B, b) of all players stacked, the clearing rows last in A."""
    offsets = np.cumsum([0] + [p.n_vars for p in problems])

    def block_diagonal(mats):
        out = np.zeros((sum(m.shape[0] for m in mats), offsets[-1]))
        row = 0
        for k, m in enumerate(mats):
            out[row : row + m.shape[0], offsets[k] : offsets[k + 1]] = m
            row += m.shape[0]
        return out

    n_nodes = scenario.n_contracts
    clearing = np.zeros((n_nodes, offsets[-1]))
    for k in range(len(problems)):
        # the V block leads every player vector
        clearing[:, offsets[k] : offsets[k] + n_nodes] = np.eye(n_nodes)
    A = np.vstack([block_diagonal([p.eq_matrix for p in problems]), clearing])
    a = np.concatenate([p.eq_rhs for p in problems] + [np.zeros(n_nodes)])
    B = block_diagonal([p.ineq_matrix for p in problems])
    b = np.concatenate([p.ineq_rhs for p in problems])
    return A, a, B, b


def _dispatch_start(problem):
    """A box-interior start for a producer's phase-I LP, or None when it
    violates a row: every plant at half its ``cap_upper`` bound in every
    delivery (so each ramp row keeps its full ramp) and the min-norm traded
    block of A_t t = a - A_w W."""
    n_t = problem.index_map.n_traded
    A, a, B, b = problem.eq_matrix, problem.eq_rhs, problem.ineq_matrix, problem.ineq_rhs
    w = 0.5 * b[problem.capacity_rows()[0]]
    t = np.linalg.lstsq(A[:, :n_t], a - A[:, n_t:] @ w, rcond=None)[0]
    v = np.concatenate([t, w])
    return None if start_violation(A, a, B, b, v) else v


def _margin_check(name, label, margin, status, empty) -> CheckResult:
    """The check of one phase-I LP; ``empty`` explains an infeasible one."""
    if margin is None:
        cause = empty if status == "infeasible" else "strict feasibility is not certified"
        return CheckResult(name, False, f"phase-I LP reports {status}: {cause}")
    return CheckResult(name, margin >= FEAS_MARGIN,
                       f"{label} {margin:.3e} (need >= {FEAS_MARGIN:.0e})", {"margin": margin})


def validate_scenario(scenario: Scenario) -> ValidationReport:
    """Run all preconditions; returns a structured report, never raises."""
    checks: list[CheckResult] = []

    # covariance: symmetric positive definite, possibly estimated from paths
    try:
        blocks = scenario.covariance_blocks()
        lam_min = blocks.min_eigenvalue()
        checks.append(CheckResult(
            "covariance_pd",
            lam_min > 0.0,
            f"smallest eigenvalue of the stacked covariance is {lam_min:.3e}",
            {"min_eigenvalue": lam_min, "ridge": blocks.ridge},
        ))
    except (CovarianceError, EquitermError) as exc:
        blocks = None
        checks.append(CheckResult("covariance_pd", False, str(exc)))

    if not scenario.producers:
        checks.append(CheckResult(
            "has_producers", False,
            "no producers: demand cannot clear and price uniqueness fails",
        ))

    if blocks is not None:
        problems = assemble_all(scenario)
        for p in problems:
            start = _dispatch_start(p) if p.kind == "producer" else None
            margin, _, status = interior_margin(p.eq_matrix, p.eq_rhs, p.ineq_matrix,
                                                p.ineq_rhs, start)
            checks.append(_margin_check(
                f"strict_interior:{p.name}", "strict-interior margin", margin, status,
                "the player's feasible set has no interior point",
            ))
        # phase-I over all players at once with the clearing rows coupled in
        margin, _, status = interior_margin(*_joint_blocks(scenario, problems))
        checks.append(_margin_check(
            "joint_clearing", "joint clearing margin", margin, status,
            "no strictly interior point clears the market (feasibility assumption fails)",
        ))

    # crisp capacity-vs-demand message (subsumed by the joint LP)
    bad, cap = [], scenario.total_capacity()
    for j in range(scenario.grid.n_deliveries):
        D = scenario.exogenous.demand[j]
        if not 0.0 < D < cap:
            bad.append(f"delivery {j}: demand {D} outside (0, total capacity {cap})")
    checks.append(CheckResult(
        "demand_within_capacity",
        not bad,
        "; ".join(bad) if bad else "demand strictly inside (0, total capacity) everywhere",
    ))

    # bound adequacy heuristics: boxes should never bind at an equilibrium
    b = scenario.bounds
    for nm, val in (("v_trade", b.v_trade), ("f_trade", b.f_trade), ("pi_max", b.pi_max)):
        if val <= 0.0:
            checks.append(CheckResult(
                f"bound_positive:{nm}", False, f"{nm} must be strictly positive"))
    v_need = float(max(np.max(scenario.demand_vector(), initial=0.0), cap))
    v_floor = 2.0 * v_need
    checks.append(CheckResult(
        "bound_adequacy:v_trade",
        b.v_trade >= v_floor,
        f"v_trade {b.v_trade} vs heuristic floor {v_floor} "
        "(twice the largest demand or fleet capacity)",
        {"floor": v_floor},
    ))
    f_need = 0.0
    for fuel in scenario.fuel_names:
        f_need = max(f_need, sum(
            pl.efficiency * pl.capacity
            for p in scenario.producers for pl in p.plants if pl.fuel == fuel
        ))
    burn = sum(scenario.fuels.intensity(pl.fuel) * pl.capacity
               for p in scenario.producers for pl in p.plants)
    o_need = 0.0
    for _ in range(scenario.grid.n_deliveries):
        o_need += burn  # added per delivery, not multiplied, so the floor keeps its bits
    f_floor = 2.0 * max(f_need, o_need)
    checks.append(CheckResult(
        "bound_adequacy:f_trade",
        b.f_trade >= f_floor,
        f"f_trade {b.f_trade} vs heuristic floor {f_floor} "
        "(twice the worst fuel burn or horizon emissions)",
        {"floor": f_floor},
    ))
    mc_max = max(scenario.marginal_costs().ravel().tolist(), default=0.0)
    if blocks is not None and (scenario.producers or scenario.consumers):
        inv_tol = sum(1.0 / p.risk_aversion for p in scenario.producers)
        inv_tol += sum(1.0 / c.risk_aversion for c in scenario.consumers)
        lam_agg = 1.0 / inv_tol if inv_tol > 0 else 0.0
        sig_max = float(np.max(np.diag(blocks.q1))) if blocks.q1.size else 0.0
        pi_floor = 2.0 * (mc_max + lam_agg * sig_max * v_need)
        checks.append(CheckResult(
            "bound_adequacy:pi_max",
            b.pi_max >= pi_floor,
            f"pi_max {b.pi_max} vs heuristic floor {pi_floor} "
            "(twice marginal cost plus an aggregate risk premium allowance)",
            {"floor": pi_floor, "mc_max": mc_max},
        ))

    for producer in scenario.producers:
        grouped = producer.plants_by_fuel(scenario.fuel_names)
        empty = [f for f, ps in grouped.items() if not ps]
        if empty:
            checks.append(CheckResult(
                f"plantless_fuels:{producer.name}", True,
                f"no plants for {empty}; fuel trades in those fuels must net "
                "to zero each delivery",
            ))

    return ValidationReport(tuple(checks), FEAS_MARGIN)
