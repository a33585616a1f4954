"""Deterministic scenario builders shared by the unit and acceptance tests."""

from dataclasses import replace

import numpy as np

import equiterm as eq


def spd_blocks(n_nodes, n_fuels, seed, scale=1.0):
    """Well-conditioned random covariance blocks of the right shape."""
    d = n_nodes * (n_fuels + 2)
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((d, d))
    S = (B @ B.T) / d + 0.4 * np.eye(d)
    S *= scale
    return eq.CovarianceBlocks(S[:n_nodes, :n_nodes], S[:n_nodes, n_nodes:],
                               S[n_nodes:, n_nodes:])


def _grid(sizes, start=1.0, spacing=1.0, r=0.0):
    deliveries = tuple(start + spacing * j for j in range(len(sizes)))
    trading = tuple(
        (T,) if m == 1 else tuple(np.linspace(T - 0.4, T, m))
        for T, m in zip(deliveries, sizes)
    )
    return eq.TradingGrid(deliveries, trading, r)


def _forwards(grid, base, drift_j=0.05, drift_i=0.01, flat=False):
    rows = []
    for j, m in enumerate(grid.sizes):
        if flat:
            rows.append(tuple(base for _ in range(m)))
        else:
            rows.append(tuple(base * (1 + drift_j * j + drift_i * i) for i in range(m)))
    return tuple(rows)


def build_scenario(*, seed, sizes, fuels, producers, consumers, demand_frac,
                   r=0.0, cov_scale=1.0, bound_factor=4.0, flat_forwards=False,
                   demand=None):
    """Assemble a validated-by-construction scenario.

    ``producers`` is a list of (risk_aversion, plant list) with plants given
    as (fuel, capacity, ramp_up, ramp_down, efficiency); ``consumers`` a
    list of (risk_aversion, demand_share, retail).  Demand defaults to a
    fraction of total capacity per delivery.
    """
    grid = _grid(sizes, r=r)
    fuel_table = eq.FuelTable(fuels)
    prods = tuple(
        eq.Producer(lam, tuple(eq.PowerPlant(f, cap, up, dn, c) for f, cap, up, dn, c in plants))
        for lam, plants in producers
    )
    cons = tuple(eq.Consumer(lam, share, retail) for lam, share, retail in consumers)
    total_cap = sum(pl.capacity for p in prods for pl in p.plants)
    if demand is None:
        fr = np.atleast_1d(np.asarray(demand_frac, dtype=float))
        if fr.size == 1:
            fr = np.full(len(sizes), fr[0])
        demand = tuple(float(total_cap * fr[j]) for j in range(len(sizes)))

    fuel_fwds = {}
    for k, fuel in enumerate(sorted(fuels)):
        fuel_fwds[fuel] = _forwards(grid, 2.5 + 0.7 * k, flat=flat_forwards)
    gem_fwds = _forwards(grid, 1.0, flat=flat_forwards)
    cov = spd_blocks(grid.n_contracts, len(fuels), seed, scale=cov_scale)
    exo = eq.ExogenousModel(demand, fuel_fwds, gem_fwds, covariance=cov)

    # bounds from the validator's heuristic floors, times a safety factor
    v_need = max(max(demand), total_cap)
    f_need = 0.0
    for fuel in fuels:
        f_need = max(f_need, sum(pl.efficiency * pl.capacity
                                 for p in prods for pl in p.plants if pl.fuel == fuel))
    o_need = len(sizes) * sum(fuel_table.intensity(pl.fuel) * pl.capacity
                              for p in prods for pl in p.plants)
    mc_max = 0.0
    for j in range(grid.n_deliveries):
        e_bar = float(np.mean(gem_fwds[j]))
        for p in prods:
            for pl in p.plants:
                g_bar = float(np.mean(fuel_fwds[pl.fuel][j]))
                mc_max = max(mc_max, pl.efficiency * g_bar + fuel_table.intensity(pl.fuel) * e_bar)
    inv_tol = sum(1.0 / p.risk_aversion for p in prods) + sum(1.0 / c.risk_aversion for c in cons)
    lam_agg = 1.0 / inv_tol
    lam_max = max([p.risk_aversion for p in prods] + [c.risk_aversion for c in cons])
    sig_max = float(np.max(np.diag(cov.stacked())))
    pi_floor = 2.0 * (mc_max + lam_agg * sig_max * v_need)
    pi_sat = mc_max + 6.0 * lam_max * sig_max * v_need  # enough to pin every plant
    bounds = eq.Bounds(
        v_trade=bound_factor * max(v_need, 1.0),
        f_trade=bound_factor * max(f_need, o_need, 1.0),
        pi_max=max(bound_factor / 2.0 * pi_floor, 1.2 * pi_sat),
    )
    return eq.Scenario(grid, prods, cons, fuel_table, exo, bounds)


# ---------------------------------------------------------------------------
# named desk instances for unit tests


def desk_identity():
    """Unit covariance, unit risk aversion, one delivery over two times."""
    grid = eq.TradingGrid((1.0,), ((0.5, 1.0),))
    cov = eq.CovarianceBlocks(np.eye(2), np.zeros((2, 4)), np.eye(4))
    exo = eq.ExogenousModel((5.0,), {"gas": ((3.0, 3.0),)}, ((1.0, 1.0),), covariance=cov)
    return eq.Scenario(
        grid,
        (eq.Producer(1.0, (eq.PowerPlant("gas", 10.0, 10.0, -10.0, 2.0),)),),
        (eq.Consumer(1.0, 1.0),),
        eq.FuelTable({"gas": 0.4}),
        exo,
        eq.Bounds(100.0, 500.0, 1000.0),
    )


def desk_n1(seed=11):
    return build_scenario(
        seed=seed, sizes=(1,), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
        consumers=[(1.0, 1.0, 0.0)],
        demand_frac=0.4, bound_factor=2.0,
    )


def demand_exceeds_capacity():
    """Demand 15 against 10 units of capacity: feasibility must fail."""
    grid = eq.TradingGrid((1.0,), ((1.0,),))
    cov = spd_blocks(1, 1, 5)
    exo = eq.ExogenousModel((15.0,), {"gas": ((3.0,),)}, ((1.0,),), covariance=cov)
    return eq.Scenario(
        grid,
        (eq.Producer(1.0, (eq.PowerPlant("gas", 10.0, 10.0, -10.0, 2.0),)),),
        (eq.Consumer(1.0, 1.0),),
        eq.FuelTable({"gas": 0.5}),
        exo,
        eq.Bounds(100.0, 500.0, 1000.0),
    )


def zero_trade_bound():
    sc = desk_n1()
    return eq.Scenario(sc.grid, sc.producers, sc.consumers, sc.fuels, sc.exogenous,
                       eq.Bounds(0.0, 500.0, 1000.0))


def in_small_units(sc, unit=1e-3):
    """``sc`` with every quantity (capacities, ramps, demand, trading boxes)
    counted in thousandfold units.  No row then has a slack of MARGIN_CAP at
    any phase-I start, so validation runs every LP on the engine."""
    producers = tuple(
        replace(p, plants=tuple(replace(pl, capacity=unit * pl.capacity, ramp_up=unit * pl.ramp_up,
                                        ramp_down=unit * pl.ramp_down) for pl in p.plants))
        for p in sc.producers
    )
    demand = tuple(unit * d for d in sc.exogenous.demand)
    return replace(sc, producers=producers, exogenous=replace(sc.exogenous, demand=demand),
                   bounds=replace(sc.bounds, v_trade=unit * sc.bounds.v_trade,
                                  f_trade=unit * sc.bounds.f_trade))


def two_stage_scenario(seed=0, lam_p=(1.3,), lam_c=(0.7,), demand=4.0, caps=(10.0,),
                       eps=0.01, r=0.0):
    """One delivery, two trading times; first-time quotes carry independent
    noise so the full covariance stays positive definite."""
    rng = np.random.default_rng(seed)
    grid = eq.TradingGrid((1.0,), ((0.5, 1.0),), r)
    B = rng.standard_normal((3, 3))
    S3 = (B @ B.T) / 3 + 0.4 * np.eye(3)  # t2 block of (power, fuel, emission)
    S = np.zeros((6, 6))
    idx2 = [1, 3, 5]
    idx1 = [0, 2, 4]
    for a in range(3):
        for b in range(3):
            S[idx2[a], idx2[b]] = S3[a, b]
        S[idx1[a], idx1[a]] = eps
    cov = eq.CovarianceBlocks(S[:2, :2], S[:2, 2:], S[2:, 2:])
    exo = eq.ExogenousModel((demand,), {"gas": ((3.0, 3.2),)}, ((1.0, 1.1),),
                            covariance=cov)
    prods = tuple(
        eq.Producer(lam, (eq.PowerPlant("gas", cap, cap, -cap, 2.0),))
        for lam, cap in zip(lam_p, caps)
    )
    shares = np.full(len(lam_c), 1.0 / len(lam_c))
    shares[-1] = 1.0 - shares[:-1].sum()
    cons = tuple(eq.Consumer(lam, float(s), 0.0) for lam, s in zip(lam_c, shares))
    return eq.Scenario(grid, prods, cons, eq.FuelTable({"gas": 0.5}), exo,
                       eq.Bounds(200.0, 800.0, 2000.0))


def ladder(n_contracts):
    """The benchmark ladder rung: N/2 deliveries x 2 trading times, coal and
    gas, 3 producers, 2 consumers."""
    return build_scenario(
        seed=n_contracts, sizes=(2,) * (n_contracts // 2), fuels={"coal": 0.9, "gas": 0.5},
        producers=[(1.0, [("coal", 9.0, 4.0, -4.0, 1.0)]),
                   (1.2, [("gas", 8.0, 8.0, -8.0, 2.0)]),
                   (1.5, [("gas", 6.0, 6.0, -6.0, 2.2)])],
        consumers=[(1.0, 0.6, 0.0), (1.2, 0.4, 0.0)], demand_frac=0.4)


def portfolio(n_contracts):
    """The ladder's grid, fuels and consumers with one producer that owns two
    coal and two gas plants, so its dispatch is not unique."""
    return build_scenario(
        seed=n_contracts, sizes=(2,) * (n_contracts // 2), fuels={"coal": 0.9, "gas": 0.5},
        producers=[(1.0, [("coal", 9.0, 4.0, -4.0, 1.0), ("coal", 5.0, 5.0, -5.0, 1.3),
                          ("gas", 8.0, 8.0, -8.0, 2.0), ("gas", 6.0, 6.0, -6.0, 2.2)])],
        consumers=[(1.0, 0.6, 0.0), (1.2, 0.4, 0.0)], demand_frac=0.4)


# ---------------------------------------------------------------------------
# acceptance corpora


def make_corpus():
    """At least 20 validated scenarios spanning the supported desk range."""
    P = lambda *plants: plants  # noqa: E731
    gas = {"gas": 0.5}
    two = {"coal": 0.9, "gas": 0.5}
    configs = [
        ("n1_single", dict(seed=11, sizes=(1,), fuels=gas,
                           producers=[(1.0, P(("gas", 10.0, 10.0, -10.0, 2.0)))],
                           consumers=[(1.0, 1.0, 0.0)], demand_frac=0.4)),
        ("n2_two_times", dict(seed=12, sizes=(2,), fuels=gas,
                              producers=[(1.2, P(("gas", 8.0, 8.0, -8.0, 1.8)))],
                              consumers=[(0.8, 1.0, 0.0)], demand_frac=0.5)),
        ("n2_two_deliveries", dict(seed=13, sizes=(1, 1), fuels=gas,
                                   producers=[(1.0, P(("gas", 9.0, 9.0, -9.0, 2.1)))],
                                   consumers=[(1.1, 1.0, 0.0)], demand_frac=(0.35, 0.55))),
        ("two_consumers", dict(seed=14, sizes=(2, 2), fuels=gas,
                               producers=[(0.9, P(("gas", 12.0, 12.0, -12.0, 2.0)))],
                               consumers=[(1.0, 0.6, 0.0), (2.0, 0.4, 30.0)],
                               demand_frac=(0.4, 0.6))),
        ("two_fuels", dict(seed=15, sizes=(2, 2), fuels=two,
                           producers=[(1.0, P(("gas", 7.0, 7.0, -7.0, 2.0))),
                                      (1.4, P(("coal", 9.0, 9.0, -9.0, 1.1)))],
                           consumers=[(0.7, 1.0, 0.0)], demand_frac=0.45)),
        ("square_2x2", dict(seed=16, sizes=(1, 1, 1), fuels=gas,
                            producers=[(1.0, P(("gas", 10.0, 10.0, -10.0, 2.0))),
                                       (2.0, P(("gas", 5.0, 5.0, -5.0, 2.4)))],
                            consumers=[(1.0, 0.5, 0.0), (1.5, 0.5, 0.0)],
                            demand_frac=(0.3, 0.5, 0.45))),
        ("twin_plants", dict(seed=17, sizes=(2, 1), fuels=gas,
                             producers=[(1.0, P(("gas", 6.0, 6.0, -6.0, 2.0),
                                                ("gas", 6.0, 6.0, -6.0, 2.0)))],
                             consumers=[(1.0, 1.0, 0.0)], demand_frac=(0.4, 0.5))),
        ("three_by_three", dict(seed=18, sizes=(2, 2), fuels=two,
                                producers=[(1.0, P(("gas", 6.0, 6.0, -6.0, 1.9))),
                                           (1.3, P(("coal", 8.0, 8.0, -8.0, 1.0))),
                                           (0.8, P(("gas", 5.0, 5.0, -5.0, 2.2)))],
                                consumers=[(1.0, 0.5, 0.0), (1.2, 0.3, 0.0), (0.9, 0.2, 0.0)],
                                demand_frac=(0.4, 0.5))),
        ("four_deliveries", dict(seed=19, sizes=(1, 1, 1, 1), fuels=gas,
                                 producers=[(1.0, P(("gas", 10.0, 10.0, -10.0, 2.0))),
                                            (1.6, P(("gas", 6.0, 6.0, -6.0, 2.3)))],
                                 consumers=[(1.0, 0.7, 0.0), (1.4, 0.3, 0.0)],
                                 demand_frac=(0.35, 0.45, 0.5, 0.4))),
        ("n8_long", dict(seed=20, sizes=(2, 2, 2, 2), fuels=gas,
                         producers=[(1.1, P(("gas", 11.0, 11.0, -11.0, 2.0)))],
                         consumers=[(0.9, 1.0, 0.0)], demand_frac=(0.4, 0.5, 0.45, 0.55))),
        ("n6_two_fuel", dict(seed=21, sizes=(2, 2, 2), fuels=two,
                             producers=[(1.0, P(("gas", 8.0, 8.0, -8.0, 2.0))),
                                        (1.2, P(("coal", 7.0, 7.0, -7.0, 1.2)))],
                             consumers=[(1.0, 1.0, 0.0)], demand_frac=0.45)),
        ("n3_three_consumers", dict(seed=22, sizes=(3,), fuels=gas,
                                    producers=[(1.0, P(("gas", 10.0, 10.0, -10.0, 2.0)))],
                                    consumers=[(1.0, 0.5, 0.0), (2.0, 0.3, 0.0),
                                               (0.5, 0.2, 0.0)], demand_frac=0.5)),
        ("n6_square", dict(seed=23, sizes=(3, 3), fuels=gas,
                           producers=[(1.0, P(("gas", 9.0, 9.0, -9.0, 2.0))),
                                      (1.5, P(("gas", 7.0, 7.0, -7.0, 2.2)))],
                           consumers=[(1.0, 0.6, 0.0), (1.1, 0.4, 0.0)],
                           demand_frac=(0.4, 0.5))),
        ("three_producers", dict(seed=24, sizes=(2,), fuels=gas,
                                 producers=[(1.0, P(("gas", 5.0, 5.0, -5.0, 2.0))),
                                            (1.5, P(("gas", 6.0, 6.0, -6.0, 1.8))),
                                            (0.7, P(("gas", 7.0, 7.0, -7.0, 2.3)))],
                                 consumers=[(1.0, 1.0, 0.0)], demand_frac=0.5)),
        ("discounted", dict(seed=25, sizes=(1, 2), fuels=gas, r=0.03,
                            producers=[(1.0, P(("gas", 10.0, 10.0, -10.0, 2.0)))],
                            consumers=[(1.0, 1.0, 0.0)], demand_frac=(0.4, 0.5))),
        ("discounted_more", dict(seed=26, sizes=(2, 2), fuels=gas, r=0.05,
                                 producers=[(1.0, P(("gas", 8.0, 8.0, -8.0, 2.0))),
                                            (1.2, P(("gas", 6.0, 6.0, -6.0, 2.1)))],
                                 consumers=[(1.0, 0.4, 0.0), (1.3, 0.35, 0.0),
                                            (0.9, 0.25, 0.0)], demand_frac=0.45)),
        ("tight_ramps", dict(seed=27, sizes=(2, 2), fuels=gas,
                             producers=[(1.0, P(("gas", 10.0, 3.0, -3.0, 2.0),
                                                ("gas", 6.0, 2.0, -2.0, 2.4))),
                                        (1.2, P(("gas", 8.0, 2.5, -2.5, 1.9)))],
                             consumers=[(1.0, 0.5, 0.0), (1.4, 0.5, 0.0)],
                             demand_frac=(0.42, 0.5))),
        ("risk_averse", dict(seed=28, sizes=(2,), fuels=gas,
                             producers=[(5.0, P(("gas", 10.0, 10.0, -10.0, 2.0)))],
                             consumers=[(5.0, 1.0, 0.0)], demand_frac=0.5)),
        ("risk_tolerant", dict(seed=29, sizes=(2,), fuels=gas,
                               producers=[(0.2, P(("gas", 10.0, 10.0, -10.0, 2.0)))],
                               consumers=[(0.2, 1.0, 0.0)], demand_frac=0.5)),
        ("small_cov", dict(seed=30, sizes=(2, 1), fuels=gas, cov_scale=0.3,
                           producers=[(1.0, P(("gas", 9.0, 9.0, -9.0, 2.0))),
                                      (1.1, P(("gas", 5.0, 5.0, -5.0, 2.2)))],
                           consumers=[(1.0, 0.6, 0.0), (1.0, 0.4, 0.0)],
                           demand_frac=(0.45, 0.5))),
        ("mixed_sizes", dict(seed=31, sizes=(1, 2, 1, 2), fuels=two,
                             producers=[(1.0, P(("gas", 8.0, 8.0, -8.0, 2.0))),
                                        (1.3, P(("coal", 7.0, 7.0, -7.0, 1.1))),
                                        (0.9, P(("gas", 5.0, 5.0, -5.0, 2.3)))],
                             consumers=[(1.0, 0.55, 0.0), (1.2, 0.45, 0.0)],
                             demand_frac=(0.4, 0.5, 0.45, 0.5))),
        ("n12_max", dict(seed=32, sizes=(3, 3, 3, 3), fuels=gas,
                         producers=[(1.0, P(("gas", 12.0, 12.0, -12.0, 2.0)))],
                         consumers=[(1.0, 1.0, 0.0)], demand_frac=(0.4, 0.5, 0.45, 0.55))),
        ("plantless_fuel", dict(seed=33, sizes=(2,), fuels=two,
                                producers=[(1.0, P(("gas", 10.0, 10.0, -10.0, 2.0)))],
                                consumers=[(1.0, 1.0, 0.0)], demand_frac=0.5)),
    ]
    return [(name, build_scenario(**kw)) for name, kw in configs]


def oracle_instances():
    """Tiny markets (N <= 2) for the brute-force cross-check."""
    return [
        ("bf_n1_a", build_scenario(
            seed=41, sizes=(1,), fuels={"gas": 0.5},
            producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
            consumers=[(1.0, 1.0, 0.0)], demand_frac=0.4, bound_factor=2.0)),
        ("bf_n1_b", build_scenario(
            seed=42, sizes=(1,), fuels={"gas": 0.5},
            producers=[(2.0, [("gas", 8.0, 8.0, -8.0, 1.7)])],
            consumers=[(0.6, 1.0, 0.0)], demand_frac=0.6, bound_factor=2.0)),
        ("bf_n2_times", build_scenario(
            seed=43, sizes=(2,), fuels={"gas": 0.5},
            producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
            consumers=[(1.0, 1.0, 0.0)], demand_frac=0.5, bound_factor=2.0)),
        ("bf_n2_deliveries", build_scenario(
            seed=44, sizes=(1, 1), fuels={"gas": 0.5},
            producers=[(1.3, [("gas", 9.0, 9.0, -9.0, 2.1)])],
            consumers=[(0.9, 1.0, 0.0)], demand_frac=(0.4, 0.55), bound_factor=2.0)),
    ]


def two_stage_instances():
    """Interior two-trading-time markets for the closed-form cross-check."""
    return [
        ("ts_base", two_stage_scenario(seed=1, lam_p=(1.3,), lam_c=(0.7,), demand=4.0)),
        ("ts_sym", two_stage_scenario(seed=2, lam_p=(2.0,), lam_c=(2.0,), demand=5.0)),
        ("ts_tolerant", two_stage_scenario(seed=3, lam_p=(0.4,), lam_c=(1.8,), demand=3.0)),
        ("ts_two_producers", two_stage_scenario(seed=4, lam_p=(1.0, 1.7), lam_c=(0.9,),
                                                demand=6.0, caps=(7.0, 7.0))),
        ("ts_two_consumers", two_stage_scenario(seed=5, lam_p=(1.1,), lam_c=(0.8, 1.6),
                                                demand=4.5)),
        ("ts_discounted", two_stage_scenario(seed=6, lam_p=(1.2,), lam_c=(1.0,),
                                             demand=4.0, r=0.04)),
        ("ts_noisier_t1", two_stage_scenario(seed=7, lam_p=(1.5,), lam_c=(0.6,),
                                             demand=5.0, eps=0.05)),
    ]


def merit_stack(plants, demand):
    """One delivery, one trading time, one gas producer with ``plants`` given
    as (capacity, efficiency); each plant's marginal cost is 3 * efficiency
    + 0.5 and the price box is pi_max = 50."""
    grid = eq.TradingGrid((1.0,), ((1.0,),))
    cov = spd_blocks(1, 1, 53)
    exo = eq.ExogenousModel((demand,), {"gas": ((3.0,),)}, ((1.0,),), covariance=cov)
    return eq.Scenario(
        grid,
        (eq.Producer(1.0, tuple(eq.PowerPlant("gas", cap, cap, -cap, eff)
                                for cap, eff in plants)),),
        (eq.Consumer(1.0, 1.0),),
        eq.FuelTable({"gas": 0.5}),
        exo,
        eq.Bounds(100.0, 500.0, 50.0),
    )


def mean_max_instances():
    """Flat-forward instances for the expectation-only oracle."""
    generic = build_scenario(
        seed=51, sizes=(1,), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.4, flat_forwards=True,
        bound_factor=3.0)
    multi = build_scenario(
        seed=52, sizes=(2, 1), fuels={"coal": 0.9, "gas": 0.5},
        producers=[(1.0, [("gas", 6.0, 6.0, -6.0, 2.0)]),
                   (1.2, [("coal", 8.0, 8.0, -8.0, 1.0)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.5, flat_forwards=True,
        bound_factor=3.0)
    # demand exactly at the cheap plant's capacity: a whole price interval clears
    price_tie = merit_stack([(4.0, 1.0), (6.0, 3.0)], 4.0)
    # demand strictly inside one plant: price pinned, dispatch interval free
    volume_tie = build_scenario(
        seed=54, sizes=(1,), fuels={"gas": 0.5},
        producers=[(1.0, [("gas", 10.0, 10.0, -10.0, 2.0)])],
        consumers=[(1.0, 1.0, 0.0)], demand_frac=0.37, flat_forwards=True,
        bound_factor=3.0)
    return {
        "generic": generic,
        "multi": multi,
        "price_interval": price_tie,
        "volume_interval": volume_tie,
    }
