"""The joint welfare QP: an exact equilibrium oracle at any market size.

Prices enter every player's QP only through its power block V, and the
market clears where the V blocks sum to zero.  So the equilibrium solves one
convex program, min sum_k g_k'x_k + 1/2 x_k'Q_k x_k over every player's rows
plus the clearing rows, with g_k the player's linear term at zero prices.
The multipliers of the clearing rows are the discounted equilibrium prices
(Samuelson, AER 1952; Takayama & Judge, 1971).  Brute force is exact only
to its grid and only up to 3 contracts; this oracle has neither limit.
"""

import numpy as np

from equiterm.assembly import assemble_all
from equiterm.qp import interior_margin, solve_qp_active_set
from equiterm.validate import _joint_blocks


def welfare_qp_prices(scenario) -> np.ndarray:
    """Discounted equilibrium prices from the joint welfare QP."""
    problems = assemble_all(scenario)
    A, a, B, b = _joint_blocks(scenario, problems)  # clearing rows last in A
    margin, x0, status = interior_margin(A, a, B, b)
    assert status == "ok" and margin >= 0.0, f"no clearing start point: {status}"
    n = x0.size
    G = np.zeros((n, n))
    g = np.zeros(n)
    pos = 0
    for p in problems:
        block = slice(pos, pos + p.n_vars)
        G[block, block] = p.quadratic
        g[block] = p.merged_linear(np.zeros(p.n_prices))
        pos += p.n_vars
    res = solve_qp_active_set(G, g, A, a, B, b, x0)
    return res.eq_duals[-scenario.n_contracts:]
