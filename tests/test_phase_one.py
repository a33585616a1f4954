"""Phase-I certificates on the active-set engine, checked against HiGHS.

The engine's LP (``qp.interior_margin``) must give the same status as
scipy's HiGHS on every LP that validation and the players build, and on
generated LPs with repeated rows, integer data and inconsistent equalities:
the same margin within 1e-9 * max(1, |margin|), at a point that attains it.
That covers both of its paths: a start that already reaches the cap is
certified without the engine, any other start runs the LP.
scipy is needed only here; the library never imports it.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import equiterm as eq
from equiterm import players, qp, validate
from equiterm.errors import InfeasibleError, NumericalError
from equiterm.grid import delivery_totals_matrix
from tests.corpus import (demand_exceeds_capacity, in_small_units, ladder, make_corpus,
                          zero_trade_bound)

linprog = pytest.importorskip("scipy.optimize").linprog

CORPUS = dict(make_corpus())
SMALL_UNITS = in_small_units(CORPUS["two_fuels"])
MARKETS = {**CORPUS, "demand_exceeds_capacity": demand_exceeds_capacity(),
           "zero_trade_bound": zero_trade_bound()}
LADDER = {f"ladder_{n}": ladder(n) for n in (12, 24, 48)}


def highs_margin(A, a, B, b):
    """The phase-I LP on HiGHS: (margin, status), status "ok" or "infeasible"."""
    n = B.shape[1]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(
        c,
        A_ub=np.hstack([B, np.ones((B.shape[0], 1))]) if B.shape[0] else None,
        b_ub=b if B.shape[0] else None,
        A_eq=np.hstack([A, np.zeros((A.shape[0], 1))]) if A.shape[0] else None,
        b_eq=a if A.shape[0] else None,
        bounds=[(None, None)] * n + [(None, qp.MARGIN_CAP)],
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return (float(res.x[-1]), "ok") if res.status == 0 else (None, "infeasible")


def assert_agrees_with_highs(A, a, B, b, v0=None):
    A, a, B, b = (np.asarray(x, dtype=float) for x in (A, a, B, b))
    margin, v, status = qp.interior_margin(A, a, B, b, v0)
    ref, ref_status = highs_margin(A, a, B, b)
    assert status == ref_status
    if ref is None:
        assert margin is None and v is None
        return None
    assert abs(margin - ref) <= 1e-9 * max(1.0, abs(ref))
    # v attains the margin: Av = a and every row keeps a slack of at least it
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)), float(np.max(np.abs(b), initial=0.0)))
    if A.shape[0]:
        assert float(np.max(np.abs(A @ v - a))) <= 1e-8 * scale
    if B.shape[0]:
        assert float(np.min(b - B @ v)) >= margin - 1e-8 * scale
    return margin


def validation_lps(scenario):
    """(name, A, a, B, b, start) of every LP ``validate_scenario`` solves, in order."""
    names = [f"strict_interior:{p.name}" for p in eq.assemble_all(scenario)] + ["joint_clearing"]
    seen = []

    def recording(A, a, B, b, v0=None):
        seen.append((A, a, B, b, v0))
        return qp.interior_margin(A, a, B, b, v0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validate, "interior_margin", recording)
        report = validate.validate_scenario(scenario)
    assert len(seen) == len(names)
    return report, [(nm, *lp) for nm, lp in zip(names, seen)]


@pytest.mark.parametrize("name", list(MARKETS))
def test_validation_lps_agree_with_highs(name):
    report, lps = validation_lps(MARKETS[name])
    checks = {c.name: c for c in report.checks}
    for check_name, A, a, B, b, v0 in lps:
        margin = assert_agrees_with_highs(A, a, B, b, v0)
        check = checks[check_name]
        assert check.data.get("margin") == margin
        if check.passed:
            # a certified interior point always reaches the cap, reported exactly
            assert margin == qp.MARGIN_CAP


@pytest.mark.parametrize("name", ["two_fuels", "tight_ramps", "three_producers"])
def test_pinned_totals_lps_agree_with_highs(name):
    # the volume rows repeat, and the totals sit on the edge of the set
    sc = CORPUS[name]
    prices = eq.merit_order_prices(sc)
    for prob in (eq.assemble_producer(p, sc) for p in sc.producers):
        totals = delivery_totals_matrix(sc.grid) @ eq.solve_qp(prob, prices).volumes
        extra = np.hstack([delivery_totals_matrix(sc.grid),
                           np.zeros((sc.grid.n_deliveries, prob.n_vars - prob.n_prices))])
        A = np.vstack([prob.eq_matrix, extra])
        a = np.concatenate([prob.eq_rhs, totals])
        assert_agrees_with_highs(A, a, prob.ineq_matrix, prob.ineq_rhs)
        restricted = replace(prob, eq_matrix=A, eq_rhs=a)
        x = players._feasible_start(restricted)
        assert qp.start_violation(A, a, prob.ineq_matrix, prob.ineq_rhs, x) is None


@st.composite
def phase_one_lps(draw):
    """Small integer LPs, with repeated rows and sometimes inconsistent equalities."""
    n = draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    m_eq = draw(st.integers(0, 3))
    m_in = draw(st.integers(0, 6))
    A = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=m_eq, max_size=m_eq)), dtype=float).reshape(m_eq, n)
    a = np.array(draw(st.lists(entries, min_size=m_eq, max_size=m_eq)), dtype=float)
    B = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=m_in, max_size=m_in)), dtype=float).reshape(m_in, n)
    b = np.array(draw(st.lists(entries, min_size=m_in, max_size=m_in)), dtype=float)
    if m_eq and draw(st.booleans()):
        # a repeated equality row, consistent or not
        k = draw(st.integers(0, m_eq - 1))
        A = np.vstack([A, A[k]])
        a = np.append(a, a[k] + draw(st.sampled_from([0.0, 0.0, 1.0])))
    if m_in and draw(st.booleans()):
        k = draw(st.integers(0, m_in - 1))
        B = np.vstack([B, B[k]])
        b = np.append(b, b[k])
    return A, a, B, b


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(phase_one_lps())
def test_generated_lps_agree_with_highs(lp):
    assert_agrees_with_highs(*lp)


def test_inconsistent_equalities_are_infeasible():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    margin, v, status = qp.interior_margin(A, np.array([1.0, 2.0]), np.eye(2), np.ones(2))
    assert (margin, v, status) == (None, None, "infeasible")


def engine_calls(monkeypatch):
    """A list that grows by one on every ``qp.solve_qp_active_set`` call."""
    calls = []
    solve = qp.solve_qp_active_set

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(qp, "solve_qp_active_set", counting)
    return calls


@pytest.mark.parametrize("name", list(CORPUS) + list(LADDER))
def test_validation_certifies_every_margin_without_the_engine(monkeypatch, name):
    calls = engine_calls(monkeypatch)
    report = validate.validate_scenario({**CORPUS, **LADDER}[name])
    assert report.passed
    assert not calls


@pytest.mark.parametrize("name", list(CORPUS) + list(LADDER))
def test_dispatch_start_is_feasible(name):
    sc = {**CORPUS, **LADDER}[name]
    for producer in sc.producers:
        prob = eq.assemble_producer(producer, sc)
        v = validate._dispatch_start(prob)
        assert v is not None
        lp = (prob.eq_matrix, prob.eq_rhs, prob.ineq_matrix, prob.ineq_rhs)
        assert qp.start_violation(*lp, v) is None


def test_start_short_of_the_cap_runs_the_lp(monkeypatch):
    # in thousandfold units no start keeps a slack of MARGIN_CAP on every row
    calls = engine_calls(monkeypatch)
    report, lps = validation_lps(SMALL_UNITS)
    assert len(calls) == len(lps)
    checks = {c.name: c for c in report.checks}
    for check_name, A, a, B, b, v0 in lps:
        margin = assert_agrees_with_highs(A, a, B, b, v0)
        assert 0.0 < margin < qp.MARGIN_CAP
        assert checks[check_name].passed and checks[check_name].data["margin"] == margin


@pytest.mark.parametrize("failure", ["active-set iteration limit 7 exceeded",
                                     "descent ray is unbounded; feasible set not compact"])
def test_engine_failure_fails_the_checks_without_raising(monkeypatch, failure):
    def broken(*args, **kwargs):
        raise NumericalError(failure)

    # every LP of the market in small units reaches the engine
    monkeypatch.setattr(qp, "solve_qp_active_set", broken)
    report = validate.validate_scenario(SMALL_UNITS)
    assert not report.passed
    lp_checks = [c for c in report.checks
                 if c.name.startswith("strict_interior:") or c.name == "joint_clearing"]
    assert lp_checks and all(not c.passed for c in lp_checks)
    assert all(failure in c.message for c in lp_checks)
    # the producer start uses the same LP and names the same cause
    prob = next(p for p in eq.assemble_all(SMALL_UNITS) if p.kind == "producer")
    restricted = replace(prob, eq_rhs=np.full(prob.eq_rhs.size, 1.0))
    with pytest.raises(InfeasibleError, match=failure):
        players._feasible_start(restricted)


def test_feasible_start_judged_by_engine_tolerance(monkeypatch):
    prob = next(p for p in eq.assemble_all(CORPUS["two_fuels"]) if p.kind == "producer")
    restricted = replace(prob, eq_rhs=np.full(prob.eq_rhs.size, 1.0))
    margin, x, _ = qp.interior_margin(restricted.eq_matrix, restricted.eq_rhs,
                                      restricted.ineq_matrix, restricted.ineq_rhs)
    assert margin is not None
    # a roundoff-negative margin at a feasible point still gives a start
    monkeypatch.setattr(players, "interior_margin", lambda *lp: (-2.6e-15, x, "ok"))
    assert players._feasible_start(restricted) is x
    # a point beyond the engine's tolerances does not
    far = x + 1e3
    monkeypatch.setattr(players, "interior_margin", lambda *lp: (-1e3, far, "ok"))
    with pytest.raises(InfeasibleError, match="margin"):
        players._feasible_start(restricted)
