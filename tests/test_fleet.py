"""The fleet step: one stacked pass that serves every player of a market
from its held selection, checked against each player's own solve."""

from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest

from equiterm import equilibrium, players
from equiterm.equilibrium import Market
from tests.corpus import ladder, make_corpus, portfolio

MARKETS = {**dict(make_corpus()), **{f"ladder{n}": (lambda n=n: ladder(n)) for n in (12, 24, 48)},
           "portfolio12": lambda: portfolio(12)}


def _scenario(name):
    built = MARKETS[name]
    return built() if callable(built) else built


def _centred(name):
    """A market whose memo is its equilibrium."""
    sc = _scenario(name)
    market = Market(sc)
    centre = equilibrium.solve_equilibrium(sc, market=market).prices
    market.solutions(centre)
    return market, centre


def _assert_same(sol, ref):
    """Same active set and selection; x, mu and eta within 1e-12 relative."""
    assert sol.active_set == ref.active_set
    assert sol._strict == ref._strict
    for got, want in ((sol.primal, ref.primal), (sol.eq_duals, ref.eq_duals),
                      (sol.ineq_duals, ref.ineq_duals)):
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def _assert_optimal(problem, sol):
    """The KKT residuals of the full problem, and the full QP's volumes."""
    scale = max(1.0, float(np.max(np.abs(sol.primal))))
    assert sol.kkt_residual <= 1e-8 * scale
    full = players._full_solve_qp(problem, sol.prices)
    np.testing.assert_allclose(sol.volumes, full.volumes, rtol=0, atol=1e-7 * scale)


@pytest.mark.parametrize("name", sorted(MARKETS))
def test_fleet_step_is_each_players_own_solve(name):
    market, centre = _centred(name)
    rng = np.random.default_rng(41)
    if name == "portfolio12":  # its producer's W is not unique: a member placed last
        fleet = market.scenario._derived["fleet_step"]
        assert [k for k, _, _ in fleet.members] == [1, 2, 0] and fleet.own == {2}
    for radius in (1e-3, 5e-2):
        spread = radius * max(1.0, float(np.max(np.abs(centre))))
        points = centre[:, None] + spread * rng.standard_normal((centre.size, 6))
        warm = market.solutions(centre)
        z, batch = market.excess_many(points)
        for c in range(points.shape[1]):
            total = np.zeros(market.n_prices)
            for problem, w, sol in zip(market.problems, warm, batch[c]):
                _assert_same(sol, players.solve_qp(problem, points[:, c], warm_start=w))
                total += sol.volumes
            assert z[:, c].tobytes() == total.tobytes()
        # one point after another, each from the one before
        before = centre
        for x in points.T:
            warm = market.solutions(before)
            sols = market.solutions(x)
            for problem, w, sol in zip(market.problems, warm, sols):
                _assert_same(sol, players.solve_qp(problem, x, warm_start=w))
                _assert_optimal(problem, sol)
            before = x


def _record(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records its first argument."""
    calls, inner = [], getattr(owner, name)

    def recording(first, *args, **kwargs):
        calls.append(first)
        return inner(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def _walked(monkeypatch):
    """Replace ``players._step`` by a wrapper that records the problem of every
    member a walk step after the fleet step steps."""
    walked, inner = [], players._step

    def recording(record, groups, *args):
        walked.extend(record.fleet.members[i][1] for i, _, _ in groups)
        return inner(record, groups, *args)

    monkeypatch.setattr(players, "_step", recording)
    return walked


def test_a_point_served_by_the_fleet_step_solves_no_player_alone(monkeypatch):
    market, centre = _centred("three_by_three")
    walks = _walked(monkeypatch)
    alone = _record(monkeypatch, equilibrium, "solve_qp")
    stacks = _record(monkeypatch, players._Fleet, "_stack")
    sols = market.solutions(centre * (1.0 + 1e-6))
    assert not walks and not alone and not stacks  # the equilibrium's selection holds
    for problem, sol in zip(market.problems, sols):
        _assert_optimal(problem, sol)


def test_the_selection_stack_is_rebuilt_once_per_selection_change(monkeypatch):
    market, centre = _centred("mixed_sizes")
    fleet = market.scenario._derived["fleet_step"]
    stacks, regions = [], _record(monkeypatch, players, "_region")

    def stack(self, key, _inner=players._Fleet._stack):
        before = len(regions)
        changed = [i for i, rows in enumerate(key) if rows != self.key[i]]
        _inner(self, key)
        stacks.append((changed, len(regions) - before))

    monkeypatch.setattr(players._Fleet, "_stack", stack)
    rng = np.random.default_rng(5)
    radius = 0.05 * float(np.max(np.abs(centre)))
    changes, key, before, folds = 0, fleet.key, centre, []
    for x in centre + radius * rng.standard_normal((40, centre.size)):
        warm = market.solutions(before)
        held = tuple(w._strict[0] if p.kind == "producer" else ()
                     for p, w in zip(market.problems, warm))
        changes += held != key
        key = held
        market.solutions(x)
        market.solutions(x)  # the memo: no evaluation, no stack
        folds.append((len(stacks), fleet.fold))
        before = x
    assert len(stacks) == changes > 0
    # only the members whose held rows changed build and write their region
    assert all(len(changed) == built for changed, built in stacks)
    assert [1, 1] in [[len(changed), built] for changed, built in stacks]
    # a held selection folds its equality gap at most once
    built = {}
    for epoch, fold in folds:
        if fold is not None:
            assert built.setdefault(epoch, fold) is fold
    assert built


@pytest.mark.parametrize("name", ["mixed_sizes", "tight_ramps", "ladder24"])
def test_the_folded_equality_gap_is_the_products_it_replaces_to_rounding(name):
    # the fold reorders the gap's arithmetic, (A E) p for A (E p), E the map of
    # [1; pi] to v: held to the rounding bound of both, 2 k eps (|A| |E| |p| + |a|)
    market, centre = _centred(name)
    fleet = market.scenario._derived["fleet_step"]
    fleet._stack(fleet.key)  # the held selection again: no fold, no column read
    points = centre * (1.0 + 1e-7 * np.arange(1.0, centre.size + 3.0))[:, None]
    for i, x in enumerate(points):  # one selection's points
        record = market.selection(x).record
        # folded once its products read as many columns as the fold has, 1 + n
        assert record.served and (fleet.fold is None) == (i <= centre.size)
    p = np.concatenate(([1.0], x))[:, None]
    e, got, start = fleet.values(np.eye(p.shape[0])), fleet.gap(record.v, p), 0
    for (_, problem, _), (x_span, *_) in zip(fleet.members, fleet.spans):
        a, rows = problem.eq_matrix, slice(start, start + problem.eq_rhs.size)
        want = a @ record.v[x_span] - problem.eq_rhs[:, None]
        bound = np.abs(a) @ np.abs(e[x_span]) @ np.abs(p) + np.abs(problem.eq_rhs)[:, None]
        k = a.shape[1] + p.shape[0]
        assert np.all(np.abs(got[rows] - want) <= 2 * k * np.finfo(float).eps * bound)
        start = rows.stop
    assert start == got.shape[0]


def _tie_points(name, count):
    """Up to ``count`` (market, centre, producer, row, prices): a point where the
    region of the equilibrium's strict rows still certifies (every held
    multiplier positive, every row within its tolerance) and ties one more
    W row, ``row``."""
    market, centre = _centred(name)
    out = []
    for problem, sol in zip(market.problems, market.solutions(centre)):
        cond = players._condensation(problem)
        strict = sol._strict[0]
        if problem.kind != "producer" or not cond.w_unique:
            continue
        region, n_w = players._region(problem, cond, strict), cond.a_w.shape[1]
        for j, row in enumerate(cond.w_rows.tolist()):
            slope = -(cond.b_w[j] @ region.coef[:n_w])  # the row's slack in [1; pi]
            if row in strict or not np.any(slope[1:]):
                continue
            s0 = problem.ineq_rhs[row] + slope @ np.concatenate(([1.0], centre))
            prices = centre - s0 / (slope[1:] @ slope[1:]) * slope[1:]
            p = np.concatenate(([1.0], prices))[:, None]
            z = region.coef @ p
            x = np.concatenate(((cond.rec @ np.concatenate((p, z[:n_w])))[: cond.n_t], z[:n_w]))
            slack = players._rows(problem, cond, x)[1][:, 0]
            loose = np.ones(slack.size, dtype=bool)
            loose[list(strict) + [row]] = False
            tol = cond.tols[1][:, 0]
            if (z[n_w:] > 1e-6).all() and (slack[loose] > tol[loose]).all() \
                    and abs(slack[row]) <= 1e-3 * tol[row]:
                out.append((market, centre, problem, row, prices))
                break
        if len(out) == count:
            break
    return out


@pytest.mark.parametrize("name", ["n2_two_deliveries", "two_fuels", "mixed_sizes"])
def test_a_point_that_ties_another_w_row_is_not_served_by_the_fleet_step(monkeypatch, name):
    found = _tie_points(name, 1)
    assert found
    market, centre, problem, row, prices = found[0]
    warm = market.solutions(centre)  # the memo
    walks = _walked(monkeypatch)
    sols = market.solutions(prices)
    # the region certifies there, but a degenerate vertex moves the walk on
    # to the rows tied there: the player is finished as its own solve would be
    assert problem.name in [p.name for p in walks]
    k = market.problems.index(problem)
    assert row in sols[k].active_set
    _assert_same(sols[k], players.solve_qp(problem, prices, warm_start=warm[k]))


def test_a_player_whose_rows_have_other_entries_is_solved_alone(monkeypatch):
    sc = _scenario("two_fuels")
    problems = equilibrium.assemble_all(sc)
    doubled = replace(problems[0], ineq_matrix=2.0 * problems[0].ineq_matrix,
                      ineq_rhs=2.0 * problems[0].ineq_rhs)
    sc._derived["problems"] = (doubled,) + problems[1:]
    market = Market(sc)
    alone = _record(monkeypatch, equilibrium, "solve_qp")
    prices = equilibrium.merit_order_prices(sc)
    sols = market.solutions(prices)
    assert alone == [doubled]  # its rows are not +1/-1 pairs; the others are served
    for problem, sol in zip(market.problems, sols):
        _assert_same(sol, players.solve_qp(problem, prices))


def test_the_memo_keeps_z_summed_in_player_order():
    market, centre = _centred("square_2x2")
    x = centre * 1.01
    z, sols = market.excess(x)
    total = np.zeros(market.n_prices)
    for sol in sols:
        total += sol.volumes
    assert z.tobytes() == total.tobytes() and not z.flags.writeable
    assert market.excess(x)[0] is z  # read again, not summed again
    sums = equilibrium.detect_saturation(market.scenario, prices=x, market=market).clearing_sums
    assert sums == tuple((equilibrium._totals(market.scenario) @ z).tolist())


# ---- the record of an evaluated point ------------------------------------------

def _consumers_only():
    sc = dict(make_corpus())["two_consumers"]
    return equilibrium.Scenario(sc.grid, (), sc.consumers, sc.fuels, sc.exogenous, sc.bounds)


RECORD_MARKETS = sorted(set(MARKETS) - {"ladder48"}) + ["consumers_only"]


def _record_market(name):
    """A market whose memo is its centre (the equilibrium, or zero prices
    where there is no producer), and that centre."""
    if name != "consumers_only":
        return _centred(name)
    market = Market(_consumers_only())
    centre = np.zeros(market.n_prices)
    market.selection(centre)
    return market, centre


def _states_of(market, sols):
    """(2, deliveries, plants) from the active sets of one solution per player."""
    nd = market.scenario.grid.n_deliveries
    return np.concatenate([np.zeros((2, nd, 0), dtype=bool)] + [
        np.isin(problem.capacity_rows().reshape(2, nd, -1), sol.active_set)
        for problem, sol in zip(market.problems, sols) if problem.kind == "producer"], axis=2)


def _eager(record, k, c):
    """Player k's solution at column c as the fleet step built each one when
    it served it: from one contiguous row per point of v and of the
    multipliers, its active set read column by column off the fleet's slack."""
    fleet = record.fleet
    x_span, mu_span, _, _, in_span = fleet.spans[fleet.index[k]]
    vt, etas = record.v.T.copy(), np.zeros((record.m, record.slack.shape[0]))
    etas[:, fleet.w_rows] = np.maximum(record.eta, 0.0).T
    col, row = np.nonzero((record.slack <= fleet.tols[1]).T)
    active = tuple(r - in_span.start for cc, r in zip(col.tolist(), row.tolist())
                   if cc == c and in_span.start <= r < in_span.stop)
    return players.PlayerSolution(record.prices[c], vt[c, x_span], vt[c, mu_span],
                                  etas[c, in_span], active, fleet.problems[k])


def _assert_bitwise(sol, ref):
    for got, want in ((sol.prices, ref.prices), (sol.primal, ref.primal),
                      (sol.eq_duals, ref.eq_duals), (sol.ineq_duals, ref.ineq_duals)):
        assert got.tobytes() == want.tobytes()
    assert sol.active_set == ref.active_set
    assert sol.objective.hex() == ref.objective.hex()
    assert [v.hex() for v in astuple(sol.residuals)] == [v.hex() for v in astuple(ref.residuals)]


def _records(market, centre, seed):
    """A batch record from the memo centre, then single-point records, each
    from the point before: (record, the warm record before it or None)."""
    rng = np.random.default_rng(seed)
    spread = 0.02 * max(1.0, float(np.max(np.abs(centre))))
    points = centre[:, None] + spread * rng.standard_normal((centre.size, 8))
    warm = market.selection(centre).record
    out = [(market._batch(points), warm)]
    for x in points.T:
        out.append((market.selection(x).record, warm))
        warm = out[-1][0]
    return out


@pytest.mark.parametrize("name", RECORD_MARKETS)
def test_record_bound_states_are_the_active_sets_of_its_solutions(name):
    market, centre = _record_market(name)
    served = 0
    for record, _ in _records(market, centre, 3):
        states = record.bound_states  # read before any solution is built
        assert states.shape[:2] == (record.m, 2)
        for c in range(record.m):
            sols = [record.solution(k, c) for k in range(len(market.problems))]
            np.testing.assert_array_equal(states[c], _states_of(market, sols))
        served += sum(len(cols) < record.m for cols in record.alone.values())
    assert served  # the fleet step served players, so the arrays were read


@pytest.mark.parametrize("name", RECORD_MARKETS)
def test_solutions_built_from_the_record_are_the_eager_ones_bit_for_bit(name):
    market, centre = _record_market(name)
    for record, warm in _records(market, centre, 4):
        objectives = {(k, c): record.objective(k, c) for k in range(len(market.problems))
                      for c in range(record.m)}
        strict = [record.strict(k) for k in range(len(market.problems))] if record.m == 1 else []
        z = np.zeros((record.m, market.n_prices)).T
        for k, cols in record.alone.items():
            for c in range(record.m):
                sol = record.solution(k, c)
                if c not in cols:
                    _assert_bitwise(sol, _eager(record, k, c))
                assert objectives[k, c].hex() == sol.objective.hex()
                z[:, c] += sol.volumes
        assert record.z.tobytes() == z.tobytes() and not record.z.flags.writeable
        # the next point's held selection is the strict rows of the solutions
        assert strict == [record.solution(k)._strict[0] for k in range(len(strict))]
        if warm is not None and record.m == 1:  # and each is the player's own solve
            for k, problem in enumerate(market.problems):
                _assert_same(record.solution(k), players.solve_qp(
                    problem, record.prices[0], warm_start=warm.solution(k)))


@pytest.mark.parametrize("name", sorted(set(MARKETS) - {"ladder48"}))
def test_a_sweep_block_builds_no_solution_for_a_player_the_fleet_step_served(monkeypatch, name):
    sc = _scenario(name)
    centre = equilibrium.solve_equilibrium(sc).prices
    key, built, alone = centre.tobytes(), Counter(), Counter()

    class Counting(players.PlayerSolution):
        def __init__(self, prices, *args):
            if prices.tobytes() != key:  # at the centre the Jacobian reads them
                built[id(args[-1])] += 1
            super().__init__(prices, *args)

    def outside(name):  # a column solved outside the stack: its solution and its warm start's
        def solve(problem, *args, _inner=getattr(players, name)):
            alone[id(problem)] += 2
            return _inner(problem, *args)
        monkeypatch.setattr(players, name, solve)

    monkeypatch.setattr(players, "PlayerSolution", Counting)
    outside("_solve_w_qp")
    outside("_solve_full")
    rng = np.random.default_rng(9)
    equilibrium.check_uniqueness(sc, prices=centre, n_samples=16, seed=int(rng.integers(1 << 31)))
    market = Market(sc)
    radius = 0.05 * max(1.0, float(np.max(np.abs(centre))))
    for x in centre + radius * rng.standard_normal((16, centre.size)):
        if not equilibrium.detect_saturation(sc, prices=x, market=market).saturated:
            market.excess(x)
    # a member is built only where it was solved alone: by the engine or the full QP
    members = [p for _, p, _ in sc._derived["fleet_step"].members]
    assert members
    assert {p.name: built[id(p)] for p in members if built[id(p)] > alone[id(p)]} == {}


# ---- the all-served exit against the general path ----------------------------

def _fresh(name):
    """A new instance of the market ``name``, sharing no cache with another."""
    if name == "consumers_only":
        return _consumers_only()
    built = MARKETS[name]
    return built() if callable(built) else dict(make_corpus())[name]


def _general_only(monkeypatch):
    """Every stack reads as missing a region: no mask check, no all-served exit."""
    def stack(self, key, _inner=players._Fleet._stack):
        _inner(self, key)
        self.mask = None

    monkeypatch.setattr(players._Fleet, "_stack", stack)


def _assert_same_record(got, want):
    for name in ("v", "eta", "slack"):
        a, b = getattr(got, name, None), getattr(want, name, None)
        assert (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes())
    assert {k: tuple(c) for k, c in got.alone.items()} == {k: tuple(c) for k, c in want.alone.items()}
    assert [[s is None for s in sols] for sols in got.sols] == \
        [[s is None for s in sols] for sols in want.sols]
    assert got.z.tobytes() == want.z.tobytes()
    assert got.bound_states.tobytes() == want.bound_states.tobytes()
    for k in range(len(got.sols)):
        for c in range(got.m):
            _assert_bitwise(got.solution(k, c), want.solution(k, c))


def _sweep(name, seed):
    """A fresh market at its centre, an 8-column batch and 16 points one after
    another, at radius 5%: each evaluation's record."""
    sc = _fresh(name)
    market = Market(sc)
    if sc.producers:
        centre = equilibrium.solve_equilibrium(sc, market=market).prices
    else:
        centre = np.zeros(market.n_prices)
    out = [market.selection(centre).record]
    rng = np.random.default_rng(seed)
    spread = 0.05 * max(1.0, float(np.max(np.abs(centre))))
    out.append(market._batch(centre[:, None] + spread * rng.standard_normal((centre.size, 8))))
    for x in centre + spread * rng.standard_normal((16, centre.size)):
        out.append(market.selection(x).record)
    return out


@pytest.mark.parametrize("name", sorted(MARKETS) + ["consumers_only"])
def test_the_all_served_exit_is_the_general_path_bit_for_bit(monkeypatch, name):
    keys = _record(monkeypatch, players.FleetRecord, "strict")
    fast = _sweep(name, 13)
    fast_keys = len(keys)
    _general_only(monkeypatch)
    general = _sweep(name, 13)
    for got, want in zip(fast, general):
        _assert_same_record(got, want)
    general_keys = len(keys) - fast_keys  # members with a W read warm's strict rows
    assert fast_keys < general_keys or not general_keys  # the mask check skipped some
    assert not any(record.served for record in general)


def _edge(name, tamper, monkeypatch=None):
    """Tamper with a fresh market's fleet at a served point y = 1.01 x its
    centre, then evaluate y again from the memo at the centre."""
    if monkeypatch is not None:
        _general_only(monkeypatch)
    sc = _fresh(name)
    market = Market(sc)
    centre = equilibrium.solve_equilibrium(sc, market=market).prices
    market.selection(centre)
    points = 1.01 * centre[:, None]
    probe = market._batch(points)
    tamper(market.scenario._derived["fleet_step"], probe)
    return market._batch(points)


def _at_tolerance(fleet, probe):
    """Set the tolerance of a held W row with a nonnegative slack, and of a
    W row that is not held, to their slack."""
    held = fleet.held[3][:, 0]
    slack = probe.slack[fleet.w_rows, 0]
    rows = [np.flatnonzero(held & (slack >= 0.0))[0], np.flatnonzero(~held)[0]]
    fleet.tols[1][fleet.w_rows[rows], 0] = slack[rows]


def _held_only_at_tolerance(fleet, probe):
    """Set the tolerance of a held W row with a nonnegative slack to its slack."""
    held = np.flatnonzero(fleet.held[3][:, 0] & (probe.slack[fleet.w_rows, 0] >= 0.0))[0]
    fleet.tols[1][fleet.w_rows[held], 0] = probe.slack[fleet.w_rows[held], 0]


def _eta_at_floor(fleet, probe):
    """Make the floor of the first held row its eta."""
    at, _, err, _ = fleet.held
    err[0] = 0.0
    err[0, 0] = -probe.eta[at[0], 0]  # floor = -(err @ |p|) = eta


@pytest.mark.parametrize("tamper, served", [
    (_held_only_at_tolerance, True), (_at_tolerance, False), (_eta_at_floor, True)])
def test_the_all_served_exit_at_its_edges(monkeypatch, tamper, served):
    record = _edge("tight_ramps", tamper)  # two rows held at its centre
    assert record.served is served
    general = _edge("tight_ramps", tamper, monkeypatch)
    _assert_same_record(record, general)


def test_a_column_that_is_not_finite_takes_no_exit(monkeypatch):
    results = []
    for patch in (None, monkeypatch):
        if patch is not None:
            _general_only(patch)
        sc = _fresh("tight_ramps")
        market = Market(sc)
        centre = equilibrium.solve_equilibrium(sc, market=market).prices
        market.selection(centre)
        points = np.column_stack((1.01 * centre, centre))
        points[0, 1] = 1e10
        market._batch(points[:, :1])  # stacks the centre's selection
        eta_map = market.scenario._derived["fleet_step"].held[1]
        eta_map[0] = 0.0
        eta_map[0, 1] = 1e300  # a held eta finite at 1.01 x the centre, not at 1e10
        with np.errstate(over="ignore"):
            results.append(market._batch(points))
    assert results[0].v is None and not results[0].served
    _assert_same_record(*results)


def test_a_warm_point_with_a_member_solved_alone_takes_no_mask_check(monkeypatch):
    market, centre, problem, row, prices = _tie_points("two_fuels", 1)[0]
    market.solutions(centre)
    warm = market.selection(prices).record  # the tie walks: not served whole
    assert not warm.served and warm.alone[market.problems.index(problem)]
    keys = _record(monkeypatch, players.FleetRecord, "strict")
    record = market.selection(prices * (1.0 + 1e-9)).record
    assert keys  # the held selection was read from warm's strict rows
    for k, problem in enumerate(market.problems):
        _assert_same(record.solution(k), players.solve_qp(
            problem, record.prices[0], warm_start=warm.solution(k)))


def test_a_stack_another_market_changed_is_restacked(monkeypatch):
    # two markets share the scenario's fleet: b's point stacks another
    # selection, so a's next point must compare its mask and stack its own
    sc = _fresh("mixed_sizes")
    a, b = Market(sc), Market(sc)
    centre = equilibrium.solve_equilibrium(sc, market=a).prices
    a.selection(centre)
    fleet = sc._derived["fleet_step"]
    held = fleet.key
    b.selection(0.5 * centre)
    b.selection(0.5 * centre * (1.0 + 1e-7))
    assert fleet.key != held
    walks = _walked(monkeypatch)
    record = a.selection(centre * (1.0 + 1e-7)).record
    assert fleet.key == held and record.served and not walks


def test_a_member_without_a_region_is_left_to_its_caller(monkeypatch):
    market, centre = _centred("two_fuels")
    fleet = market.scenario._derived["fleet_step"]
    k, problem, cond = next(member for member in fleet.members if member[2].a_w.shape[1])
    box = next(r for r in range(problem.ineq_rhs.size) if r not in cond.w_pos)
    warm = market.solutions(centre)
    strict = players.FleetRecord.strict
    monkeypatch.setattr(players.FleetRecord, "strict",
                        lambda self, j: (box,) if j == k else strict(self, j))
    fleet.mask = None  # the key is read from the strict rows
    x = centre * (1.0 + 1e-7)
    record = market.selection(x).record
    assert fleet.regions[fleet.index[k]] is None and not record.served
    assert record.alone[k] == range(1)
    for j, (problem, w) in enumerate(zip(market.problems, warm)):
        _assert_same(record.solution(j), players.solve_qp(problem, x, warm_start=w))


# ---- one serving path: the walk on the fleet's stack ---------------------------

def _walked_points(monkeypatch, sc):
    """Solve ``sc`` cold and return, per market evaluation, (prices, the warm
    record, the record, member -> walk steps placed after the fleet step) and
    the stacked walk steps (``_step`` calls) of the whole solve."""
    calls, steps, stacked = [], Counter(), []
    inner_fleet, inner_place, inner_step = players.solve_fleet, players._place, players._step

    def place(record, p, state, i, *rest):
        steps[i] += 1
        return inner_place(record, p, state, i, *rest)

    def step(*args):
        stacked.append(1)
        return inner_step(*args)

    def fleet(problems, prices, warm, cache):
        steps.clear()
        record = inner_fleet(problems, prices, warm, cache)
        calls.append((prices, warm, record, dict(steps)))
        return record

    with monkeypatch.context() as mp:
        mp.setattr(players, "_place", place)
        mp.setattr(players, "_step", step)
        mp.setattr(equilibrium, "solve_fleet", fleet)
        equilibrium.solve_equilibrium(sc)
    return calls, len(stacked)


def test_walking_members_are_their_fleet_of_one_bit_for_bit(monkeypatch):
    # ladder24's cold solve has a point where producer1 walks 4 steps after the
    # fleet step and producer3 2: both step together on the stack, and each is
    # the player's own walk (solve_qp_many, a fleet of one) from the same start
    sc = _scenario("ladder24")
    calls, _ = _walked_points(monkeypatch, sc)
    lengths = [{record.fleet.members[i][1].name: n for i, n in walked.items()}
               for _, _, record, walked in calls]
    assert {"producer1": 4, "producer3": 2} in lengths
    nd, compared = sc.grid.n_deliveries, 0
    for prices, warm, record, walked in calls:
        sols = [record.solution(k) for k in range(len(record.fleet.problems))]
        for i in walked:
            k, problem, _ = record.fleet.members[i]
            own = players.solve_qp_many(problem, prices, warm_start=warm and warm.solution(k))[0]
            _assert_bitwise(sols[k], own)
            assert sols[k]._strict == own._strict and record.strict(k) == own._strict[0]
            sols[k], compared = own, compared + 1
        total = np.zeros(sc.n_contracts)
        for sol in sols:
            total += sol.volumes
        assert record.z[:, 0].tobytes() == total.tobytes()
        states = np.concatenate([np.zeros((2, nd, 0), dtype=bool)] + [
            np.isin(problem.capacity_rows().reshape(2, nd, -1), sol.active_set)
            for problem, sol in zip(record.fleet.problems, sols) if problem.kind == "producer"],
            axis=2)
        assert record.bound_states[0].tobytes() == states.tobytes()
    assert compared >= 9


def test_cold_ladder_walks_step_every_member_together(monkeypatch):
    # the same member steps as one walk per player took (8 / 13 / 14), in at
    # most 4 / 8 / 7 stacked steps after the fleet step
    stacked, placed = [], []
    for n in (12, 24, 48):
        calls, steps = _walked_points(monkeypatch, _scenario(f"ladder{n}"))
        stacked.append(steps)
        placed.append(sum(n for *_, walked in calls for n in walked.values()))
    assert placed == [8, 13, 14]
    assert all(s <= cap for s, cap in zip(stacked, (4, 8, 7))), stacked


@pytest.mark.parametrize("name", ["twin_plants", "portfolio12"])
def test_a_non_unique_w_is_served_on_the_stack(monkeypatch, name):
    # its producer is a member placed by its own maps: no player of the market
    # is solved outside the fleet but by the engine or the full QP
    sc = _scenario(name)
    alone = _record(monkeypatch, equilibrium, "solve_qp")
    alone += _record(monkeypatch, equilibrium, "solve_qp_many")
    exits = _record(monkeypatch, players, "_solve_w_qp")
    result = equilibrium.solve_equilibrium(sc)
    equilibrium.check_uniqueness(sc, result, n_samples=16)
    fleet = sc._derived["fleet_step"]
    assert len(fleet.members) == len(fleet.problems) and fleet.own
    assert not alone and exits  # its engine runs stay
    k = fleet.members[min(fleet.own)][0]
    assert not players._condensation(fleet.problems[k]).w_unique


@pytest.mark.parametrize("name", ["ladder12", "ladder24", "three_by_three", "twin_plants"])
def test_newton_iterates_build_no_solution_the_fleet_served(monkeypatch, name):
    # each accepted iterate's sensitivities read the record: only the answer's
    # solutions, and those solved outside the stack, are built
    sc, built = _scenario(name), []

    class Counting(players.PlayerSolution):
        def __init__(self, prices, *args):
            built.append(prices.tobytes())
            super().__init__(prices, *args)

    monkeypatch.setattr(players, "PlayerSolution", Counting)
    outside = _record(monkeypatch, players, "_solve_w_qp")
    outside_full = _record(monkeypatch, players, "_solve_full")
    result = equilibrium.solve_equilibrium(sc)
    answer = result.prices.tobytes()
    assert result.iterations > 1
    # each column solved alone builds its solution, and at most its warm start's
    assert sum(key != answer for key in built) <= 2 * (len(outside) + len(outside_full))
    if name.startswith("ladder"):
        assert not outside and not outside_full and set(built) == {answer}
