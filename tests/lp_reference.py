"""Reference implementations for the LP tests, independent of ``cbwk.lp``.

``brute_force_opt`` enumerates the vertices of the per-round allocation
program of a tiny instance; the LP tests and acceptance criterion 3 compare
``cbwk.lp`` against it.  ``tiled_empirical_opt`` is the two-stage empirical
program as the paper states it, one arm distribution per recorded context
set, over t0 copies of a fixed context set, solved by scipy's HiGHS;
``cbwk.twostage.empirical_opt`` must reach the same optimum with K variables.
"""

from itertools import combinations

import numpy as np
import pytest

from cbwk.errors import ConfigurationError, InfeasibleError


def brute_force_opt(rewards, costs, budget_rate: float, grid: int = 50) -> float:
    """Independent check of exact_opt_fixed_context for tiny instances.

    Enumerates every vertex of the feasible region (all choices of K-1 active
    constraints, solved against the simplex equality) plus a grid over the
    simplex, and returns the best feasible objective.
    """
    rewards = np.asarray(rewards, dtype=float)
    costs = np.atleast_2d(np.asarray(costs, dtype=float))
    K, d = rewards.size, costs.shape[1]
    if K > 3 or d > 2:
        raise ConfigurationError(f"brute force limited to K <= 3, d <= 2 (got K={K}, d={d})")

    # Inequality rows in p-space: -p_a <= 0 and costs.T p <= budget_rate.
    rows = np.vstack([-np.eye(K), costs.T])
    rhs = np.concatenate([np.zeros(K), np.full(d, float(budget_rate))])

    def feasible(p):
        return (rows @ p <= rhs + 1e-9).all()

    candidates = []
    for active in combinations(range(rows.shape[0]), K - 1):
        system = np.vstack([np.ones((1, K)), rows[list(active)]])
        target = np.concatenate([[1.0], rhs[list(active)]])
        try:
            p = np.linalg.solve(system, target)
        except np.linalg.LinAlgError:
            continue
        if feasible(p):
            candidates.append(p)
    if K == 1:
        p = np.ones(1)
        if feasible(p):
            candidates.append(p)

    # Safety-net grid over the simplex.
    ticks = np.linspace(0.0, 1.0, grid + 1)
    if K == 1:
        grid_pts = [np.ones(1)]
    elif K == 2:
        grid_pts = [np.array([t, 1 - t]) for t in ticks]
    else:
        grid_pts = [
            np.array([a, b, 1 - a - b]) for a in ticks for b in ticks if a + b <= 1 + 1e-12
        ]
    candidates.extend(p for p in grid_pts if feasible(p))

    if not candidates:
        raise InfeasibleError("no feasible point")
    return float(max(rewards @ p for p in candidates))


def tiled_empirical_opt(fits, phi, t0: int, budget_rate: float, m_val: float) -> float:
    """Empirical allocation program over t0 recorded copies of the context set ``phi``.

    ``fits`` has one batch stack per arm, the reward then the d costs.
    Variables are one distribution over arms per recorded context set; the
    budget rows are relaxed by twice the estimation radius.
    """
    context_sets = np.tile(np.asarray(phi, dtype=float), (t0, 1, 1))
    n_ctx, K = context_sets.shape[:2]
    d = fits.params.shape[1] - 1

    preds = fits.predict_matrix(context_sets.transpose(1, 0, 2))  # arm a at its t0 rows
    fhat = preds[:, :, 0].T
    ghat = preds[:, :, 1:].transpose(1, 0, 2)

    linprog = pytest.importorskip("scipy.optimize").linprog
    n_vars = n_ctx * K
    a_ub = ghat.reshape(n_vars, d).T / n_ctx
    b_ub = np.full(d, budget_rate + 2.0 * m_val)
    a_eq = np.kron(np.eye(n_ctx), np.ones((1, K)))  # one distribution per context set
    ref = linprog(-fhat.ravel() / n_ctx, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq,
                  b_eq=np.ones(n_ctx), bounds=(0, None), method="highs")
    if ref.status == 2:
        raise InfeasibleError("empirical allocation program infeasible")
    if ref.status != 0:
        raise RuntimeError(f"HiGHS returned status {ref.status}: {ref.message}")
    return float(-ref.fun)
