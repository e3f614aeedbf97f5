"""Small dense linear programming.

A two-phase primal simplex solver (Bland's anti-cycling rule) for the modest
problems this library generates: the per-round optimum of a fixed-context
environment and the empirical-optimum program built from exploration data.
Exact vertex solutions make the surrounding estimates easy to test, which is
why this is hand-rolled rather than delegated to an interior-point code.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InfeasibleError

PIVOT_TOL = 1e-9
MAX_PIVOTS = 10**6


@dataclass(frozen=True)
class LpProblem:
    """maximize c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0."""

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "c", c)
        for mat_name, rhs_name in (("a_ub", "b_ub"), ("a_eq", "b_eq")):
            mat, rhs = getattr(self, mat_name), getattr(self, rhs_name)
            if (mat is None) != (rhs is None):
                raise ConfigurationError(f"{mat_name} and {rhs_name} must be given together")
            if mat is None:
                continue
            mat = np.atleast_2d(np.asarray(mat, dtype=float))
            rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
            if mat.shape != (rhs.size, c.size):
                raise ConfigurationError(
                    f"{mat_name} has shape {mat.shape}, expected ({rhs.size}, {c.size})"
                )
            object.__setattr__(self, mat_name, mat)
            object.__setattr__(self, rhs_name, rhs)
        parts = [c]
        for arr in (self.a_ub, self.b_ub, self.a_eq, self.b_eq):
            if arr is not None:
                parts.append(arr.ravel())
        if not all(np.isfinite(p).all() for p in parts):
            raise ConfigurationError("LP data must be finite")

    @property
    def n(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded | pivot_limit
    value: float | None = None
    x: np.ndarray | None = None
    iterations: int = 0
    dual_ub: np.ndarray | None = None  # multipliers of the inequality rows


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Make ``col`` basic in ``row`` by Gauss-Jordan elimination.

    Only rows with a nonzero entry in the pivot column are updated; the
    empirical program's equality rows are almost all zero there.  Subtracting
    0 * pivot row would leave a skipped row's values unchanged, so the result
    can differ from a full update only in the sign of a zero (x - 0*y turns a
    -0.0 into +0.0).
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


def solve_lp(problem: LpProblem) -> LpSolution:
    """Two-phase primal simplex. Returns status, optimum, vertex, and duals."""
    n = problem.n
    a_ub = problem.a_ub if problem.a_ub is not None else np.zeros((0, n))
    b_ub = problem.b_ub if problem.b_ub is not None else np.zeros(0)
    a_eq = problem.a_eq if problem.a_eq is not None else np.zeros((0, n))
    b_eq = problem.b_eq if problem.b_eq is not None else np.zeros(0)
    mi, me = b_ub.size, b_eq.size
    m = mi + me

    # Rows: [A_ub | I_slack | artificials ; A_eq | 0 | artificials], RHS >= 0.
    rows = np.hstack([np.vstack([a_ub, a_eq]), np.vstack([np.eye(mi), np.zeros((me, mi))])])
    rhs = np.concatenate([b_ub, b_eq])
    flip = rhs < 0
    rows[flip] *= -1.0
    rhs = np.abs(rhs)

    # A flipped inequality's slack enters with coefficient -1, so every flipped
    # row and every equality row needs an artificial to seed the basis.
    needs_art = np.ones(m, dtype=bool)
    needs_art[:mi] = flip[:mi]
    art_rows = np.flatnonzero(needs_art)
    n_art = art_rows.size
    art_block = np.zeros((m, n_art))
    for k, i in enumerate(art_rows):
        art_block[i, k] = 1.0

    ncols = n + mi + n_art
    tableau = np.zeros((m + 1, ncols + 1))
    tableau[:m, : n + mi] = rows
    tableau[:m, n + mi : ncols] = art_block
    tableau[:m, -1] = rhs

    basis = np.empty(m, dtype=int)
    basis[:mi] = n + np.arange(mi)
    basis[art_rows] = n + mi + np.arange(n_art)

    iterations = 0
    if n_art:
        # Phase one: minimize the sum of artificials.
        tableau[-1, :] = 0.0
        tableau[-1, n + mi : ncols] = 1.0
        for i in art_rows:
            tableau[-1] -= tableau[i]
        status, iterations = _run_simplex(tableau, basis, ncols, iterations)
        if status == "pivot_limit":
            return LpSolution(status="pivot_limit", iterations=iterations)
        if -tableau[-1, -1] > 1e-7:
            return LpSolution(status="infeasible", iterations=iterations)
        # Drive leftover artificials out of the basis where possible.
        for i in range(m):
            if basis[i] >= n + mi:
                for j in range(n + mi):
                    if abs(tableau[i, j]) > PIVOT_TOL:
                        _pivot(tableau, basis, i, j)
                        break

    # Phase two on the original objective (minimize -c.x).
    ncols2 = n + mi
    tableau2 = np.delete(tableau, np.s_[n + mi : ncols], axis=1)
    degenerate = [i for i in range(m) if basis[i] >= ncols2]  # redundant rows
    if degenerate:
        tableau2 = np.delete(tableau2, degenerate, axis=0)
        basis = np.delete(basis, degenerate)
        m = basis.size
    tableau2[-1, :] = 0.0
    tableau2[-1, :n] = -problem.c
    for i in range(m):
        if basis[i] < n:
            tableau2[-1] -= tableau2[-1, basis[i]] * tableau2[i]
    status, iterations = _run_simplex(tableau2, basis, ncols2, iterations)
    if status != "optimal":
        return LpSolution(status=status, iterations=iterations)

    x = np.zeros(ncols2)
    x[basis] = tableau2[:-1, -1]
    # Reduced costs under the slack columns are the inequality multipliers.  A
    # row flipped for b < 0 negates both its slack column and its multiplier,
    # so the reduced cost needs no sign correction.
    dual_ub = tableau2[-1, n : n + mi].copy()
    return LpSolution(
        status="optimal",
        value=float(problem.c @ x[:n]),
        x=x[:n],
        iterations=iterations,
        dual_ub=dual_ub,
    )


def exact_opt_fixed_context(outcomes, budget_rate: float) -> float:
    """Per-round optimum of the static allocation over one fixed context.

    ``outcomes`` is (K, 1+d), each arm's [reward | costs] row: maximize
    sum_a p_a * outcomes[a, 0] over the probability simplex, subject to
    sum_a p_a * outcomes[a, 1 + j] <= budget_rate for every resource j.
    """
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.ndim != 2 or outcomes.shape[1] < 2:
        raise ConfigurationError(
            f"outcomes has shape {outcomes.shape}, expected (K, 1+d) with d >= 1"
        )
    K, n = outcomes.shape
    problem = LpProblem(
        c=outcomes[:, 0],
        a_ub=outcomes[:, 1:].T,
        b_ub=np.full(n - 1, float(budget_rate)),
        a_eq=np.ones((1, K)),
        b_eq=np.array([1.0]),
    )
    sol = solve_lp(problem)
    if sol.status == "infeasible":
        raise InfeasibleError("no arm mixture satisfies the budget rate")
    if sol.status != "optimal":
        raise RuntimeError(f"LP solver returned status {sol.status}")
    return sol.value

