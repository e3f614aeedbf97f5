"""The static allocation program, solved exactly.

Every optimum this library needs is one linear program over K arms: maximize
sum_a p_a * r_a over the probability simplex, subject to sum_a p_a * g_aj <=
rate for every resource j.  It gives the regret benchmark, from the
environment's mean outcomes, and two-stage's empirical optimum, from batch
predictions with a widened rate.  A two-phase primal simplex (Bland's
anti-cycling rule) solves it to an exact vertex, which keeps the estimates
built on it easy to test; that is why it is hand-rolled rather than
delegated to an interior-point code.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InfeasibleError

PIVOT_TOL = 1e-9
MAX_PIVOTS = 10**6


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | pivot_limit
    value: float | None = None
    x: np.ndarray | None = None  # the arm mixture p
    iterations: int = 0


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Make ``col`` basic in ``row`` by Gauss-Jordan elimination.

    Only rows with a nonzero entry in the pivot column are updated; a budget
    row whose resource the entering arm does not consume is zero there.
    Subtracting 0 * pivot row would leave a skipped row's values unchanged, so
    the result can differ from a full update only in the sign of a zero
    (x - 0*y turns a -0.0 into +0.0).
    """
    tableau[row] /= tableau[row, col]
    colvals = tableau[:, col].copy()
    colvals[row] = 0.0
    rows = np.flatnonzero(colvals)
    tableau[rows] -= np.outer(colvals[rows], tableau[row])
    basis[row] = col


def _run_simplex(tableau, basis, ncols, iterations):
    """Minimize the objective row in place. Bland's rule throughout."""
    while True:
        reduced = tableau[-1, :ncols]
        entering = -1
        for j in range(ncols):
            if reduced[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal", iterations
        col = tableau[:-1, entering]
        rhs = tableau[:-1, -1]
        best_ratio, leaving = None, -1
        for i in range(col.size):
            if col[i] > PIVOT_TOL:
                ratio = rhs[i] / col[i]
                # Bland: break ratio ties by smallest basis index.
                if (
                    best_ratio is None
                    or ratio < best_ratio - PIVOT_TOL
                    or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[leaving])
                ):
                    best_ratio, leaving = ratio, i
        if leaving < 0:
            return "unbounded", iterations
        _pivot(tableau, basis, leaving, entering)
        iterations += 1
        if iterations > MAX_PIVOTS:
            return "pivot_limit", iterations


def solve_lp(outcomes: np.ndarray, budget_rate: float) -> LpSolution:
    """Two-phase simplex on the allocation program of a (K, 1+d) outcome matrix.

    The tableau's rows are the d budget rows, each with its slack, then the
    simplex row with the one artificial, then the objective.  The slacks keep
    the simplex row independent of the budget rows, so an artificial left
    basic at level 0 after phase one always has a nonzero entry to pivot on.
    ``budget_rate`` must be >= 0.
    """
    K, d = outcomes.shape[0], outcomes.shape[1] - 1
    art = K + d  # the artificial's column; the right-hand side is the last
    tableau = np.zeros((d + 2, art + 2))
    tableau[:d, :K] = outcomes[:, 1:].T
    tableau[:d, K:art] = np.eye(d)
    tableau[:d, -1] = budget_rate
    tableau[d, :K] = tableau[d, art] = tableau[d, -1] = 1.0
    basis = np.arange(K, art + 1)

    # Phase one: minimize the artificial, priced out of its row.
    tableau[-1, art] = 1.0
    tableau[-1] -= tableau[d]
    status, iterations = _run_simplex(tableau, basis, art + 1, 0)
    if status == "pivot_limit":
        return LpSolution(status="pivot_limit", iterations=iterations)
    if -tableau[-1, -1] > 1e-7:
        return LpSolution(status="infeasible", iterations=iterations)
    for i in np.flatnonzero(basis == art):  # drive a zero-level artificial out
        _pivot(tableau, basis, i, int(np.argmax(np.abs(tableau[i, :art]) > PIVOT_TOL)))

    # Phase two on the rewards (minimize -r.p); the artificial column is left
    # out of the pricing and never enters again.
    tableau[-1] = 0.0
    tableau[-1, :K] = -outcomes[:, 0]
    for i in range(d + 1):
        if basis[i] < K:
            tableau[-1] -= tableau[-1, basis[i]] * tableau[i]
    status, iterations = _run_simplex(tableau, basis, art, iterations)
    if status != "optimal":
        return LpSolution(status=status, iterations=iterations)
    x = np.zeros(art + 1)
    x[basis] = tableau[:-1, -1]
    return LpSolution(status="optimal", value=float(outcomes[:, 0] @ x[:K]), x=x[:K],
                      iterations=iterations)


def exact_opt_fixed_context(outcomes, budget_rate: float) -> float:
    """Per-round optimum of the static allocation over one fixed context.

    ``outcomes`` is (K, 1+d), each arm's [reward | costs] row: maximize
    sum_a p_a * outcomes[a, 0] over the probability simplex, subject to
    sum_a p_a * outcomes[a, 1 + j] <= budget_rate for every resource j.
    The outcomes must be finite and the rate finite and >= 0.
    """
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.ndim != 2 or outcomes.shape[1] < 2:
        raise ConfigurationError(
            f"outcomes has shape {outcomes.shape}, expected (K, 1+d) with d >= 1"
        )
    if not np.isfinite(outcomes).all():
        raise ConfigurationError("outcomes must be finite")
    budget_rate = float(budget_rate)
    if not (math.isfinite(budget_rate) and budget_rate >= 0):
        raise ConfigurationError(f"budget_rate must be finite and >= 0 (got {budget_rate})")
    sol = solve_lp(outcomes, budget_rate)
    if sol.status == "infeasible":
        raise InfeasibleError("no arm mixture satisfies the budget rate")
    if sol.status != "optimal":
        raise RuntimeError(f"LP solver returned status {sol.status}")
    return sol.value
