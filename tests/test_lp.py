import numpy as np
import pytest

from cbwk.errors import ConfigurationError, InfeasibleError
from cbwk.lp import LpProblem, exact_opt_fixed_context, solve_lp
from lp_reference import brute_force_opt


def test_one_variable_lp():
    sol = solve_lp(LpProblem(c=[1.0], a_ub=[[1.0]], b_ub=[1.0]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)


def test_hand_instance_value():
    # max 0.9 p1 + 0.2 p2  s.t.  0.8 p1 + 0.1 p2 <= 0.45,  p on the simplex.
    sol = solve_lp(
        LpProblem(c=[0.9, 0.2], a_ub=[[0.8, 0.1]], b_ub=[0.45],
                  a_eq=[[1.0, 1.0]], b_eq=[1.0])
    )
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.55, abs=1e-9)
    assert np.allclose(sol.x, [0.5, 0.5], atol=1e-9)


def test_infeasible_detected():
    sol = solve_lp(LpProblem(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0]))
    assert sol.status == "infeasible"


def test_unbounded_detected():
    sol = solve_lp(LpProblem(c=[1.0], a_ub=[[-1.0]], b_ub=[0.0]))
    assert sol.status == "unbounded"


def test_solution_feasibility_and_slackness():
    rng = np.random.default_rng(7)
    solved = 0
    for _ in range(100):
        K, d = 3, 2
        c = rng.random(K)
        a_ub = rng.random((d, K))
        b_ub = rng.uniform(0.05, 1.0, d)
        problem = LpProblem(c=c, a_ub=a_ub, b_ub=b_ub,
                            a_eq=np.ones((1, K)), b_eq=[1.0])
        sol = solve_lp(problem)
        if sol.status != "optimal":
            assert sol.status == "infeasible"
            continue
        solved += 1
        assert (sol.x >= -1e-9).all()
        assert (a_ub @ sol.x <= b_ub + 1e-9).all()
        assert abs(sol.x.sum() - 1.0) <= 1e-9
        # complementary slackness: y_i * slack_i vanishes
        slack = b_ub - a_ub @ sol.x
        assert (np.abs(sol.dual_ub * slack) < 1e-7).all()
    assert solved >= 20


def test_lp_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(123)
    for i in range(1000):
        K = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        rewards = rng.random(K)
        costs = rng.random((K, d))
        rate = rng.uniform(0.05, 1.0)
        try:
            exact = exact_opt_fixed_context(np.column_stack([rewards, costs]), rate)
            brute = brute_force_opt(rewards, costs, rate)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                brute_force_opt(rewards, costs, rate)
            continue
        assert abs(exact - brute) <= 1e-6, f"instance {i}"


def test_weak_duality_spot_check():
    rng = np.random.default_rng(5)
    rewards = rng.random(3)
    costs = rng.random((3, 2))
    rate = 0.4
    value = exact_opt_fixed_context(np.column_stack([rewards, costs]), rate)
    for _ in range(100):
        lam = rng.uniform(0, 3, 2)
        bound = max(rewards[a] + lam @ (rate - costs[a]) for a in range(3))
        assert value <= bound + 1e-9


def test_objective_scaling():
    rng = np.random.default_rng(11)
    rewards = rng.random(3)
    costs = rng.random((3, 2))
    problem = LpProblem(c=rewards, a_ub=costs.T, b_ub=[0.5, 0.5],
                        a_eq=np.ones((1, 3)), b_eq=[1.0])
    base = solve_lp(problem)
    scaled = solve_lp(LpProblem(c=3.0 * rewards, a_ub=costs.T, b_ub=[0.5, 0.5],
                                a_eq=np.ones((1, 3)), b_eq=[1.0]))
    assert scaled.value == pytest.approx(3.0 * base.value, rel=1e-9)
    assert np.allclose(scaled.x, base.x, atol=1e-9)


def test_exact_opt_nonbinding_budget():
    outcomes = np.array([[0.9, 0.8], [0.2, 0.1]])  # per arm: [reward | cost]
    assert exact_opt_fixed_context(outcomes, 0.9) == pytest.approx(0.9, abs=1e-9)


def test_exact_opt_null_arm_only():
    # A single effective arm with zero reward and cost alongside an arm that
    # can never be played: all mass goes to the null arm.
    outcomes = np.array([[0.7, 2.0], [0.0, 0.0]])
    assert exact_opt_fixed_context(outcomes, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_exact_opt_hand_instance():
    value = exact_opt_fixed_context([[0.9, 0.8], [0.2, 0.1]], 0.45)
    assert value == pytest.approx(0.55, abs=1e-9)


def test_exact_opt_refuses_rows_without_costs():
    for outcomes in (np.array([0.9, 0.2]), np.array([[0.9], [0.2]])):  # (K,) and (K, 1)
        with pytest.raises(ConfigurationError, match=r"expected \(K, 1\+d\) with d >= 1"):
            exact_opt_fixed_context(outcomes, 0.5)


def test_brute_force_guards_and_degenerate_cases():
    with pytest.raises(ConfigurationError):
        brute_force_opt(np.ones(4), np.ones((4, 1)), 0.5)
    with pytest.raises(ConfigurationError):
        brute_force_opt(np.ones(2), np.ones((2, 3)), 0.5)
    # constant objective -> the constant
    assert brute_force_opt([0.4, 0.4], [[0.1], [0.2]], 0.5) == pytest.approx(0.4)
    with pytest.raises(InfeasibleError):
        brute_force_opt([1.0, 1.0], [[1.0], [1.0]], 0.3)


def test_lp_problem_validation():
    with pytest.raises(ConfigurationError):
        LpProblem(c=[1.0], a_ub=[[1.0, 2.0]], b_ub=[1.0])
    with pytest.raises(ConfigurationError):
        LpProblem(c=[np.inf])
    with pytest.raises(ConfigurationError):
        LpProblem(c=[1.0], a_ub=[[1.0]], b_ub=None)


def _differential_programs(rng):
    """(kind, program) pairs: random, degenerate, infeasible and unbounded."""
    def drawn(draw, n, mi, me):
        ub = (draw((mi, n)), draw(mi)) if mi else (None, None)
        eq = (draw((me, n)), draw(me)) if me else (None, None)
        return LpProblem(draw(n), *ub, *eq)

    def normal(size):
        return rng.normal(size=size)

    def small_int(size):
        return rng.integers(-2, 3, size=size).astype(float)

    for _ in range(150):  # mixed-sign real data: every status occurs
        n, mi, me = int(rng.integers(1, 7)), int(rng.integers(0, 5)), int(rng.integers(0, 3))
        yield "random", drawn(normal, n, mi, me)
    for _ in range(150):  # small integers: ties, zero right-hand sides, degenerate vertices
        n, mi, me = int(rng.integers(1, 7)), int(rng.integers(1, 6)), int(rng.integers(0, 3))
        yield "degenerate", drawn(small_int, n, mi, me)
    for K in (2, 3, 5):  # duplicated arms, a null arm and a repeated simplex row
        rewards = np.append(np.repeat(rng.random(K), 2), 0.0)
        costs = np.vstack([np.repeat(rng.random((K, 2)), 2, axis=0), np.zeros((1, 2))])
        yield "degenerate", LpProblem(rewards, costs.T, np.full(2, 0.3),
                                      np.ones((2, 2 * K + 1)), np.ones(2))
    for n in (2, 4):  # the simplex equality against a tighter mass cap
        yield "infeasible", LpProblem(rng.random(n), np.ones((1, n)), np.array([0.5]),
                                      np.ones((1, n)), np.array([1.0]))
        yield "infeasible", LpProblem(rng.random(n), -np.eye(n), -np.ones(n),
                                      np.ones((1, n)), np.array([1.0]))
    for n in (1, 3, 5):  # feasible at 0 with no row bounding a profitable direction
        yield "unbounded", LpProblem(np.abs(rng.normal(size=n)) + 0.1,
                                     -np.abs(rng.normal(size=(2, n))), np.ones(2))


def test_solve_lp_matches_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    highs_status = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    statuses = {}
    for i, (kind, problem) in enumerate(_differential_programs(np.random.default_rng(2024))):
        ours = solve_lp(problem)
        ref = linprog(-problem.c, A_ub=problem.a_ub, b_ub=problem.b_ub,
                      A_eq=problem.a_eq, b_eq=problem.b_eq, bounds=(0, None),
                      method="highs")
        assert ours.status == highs_status[ref.status], f"{kind} program {i}: {ref.message}"
        if ours.status == "optimal":
            assert ours.value == pytest.approx(-ref.fun, abs=1e-7 * (1 + abs(ref.fun))), \
                f"{kind} program {i}"
        statuses.setdefault(kind, set()).add(ours.status)
    every = {"optimal", "infeasible", "unbounded"}
    assert statuses == {"random": every, "degenerate": every,
                        "infeasible": {"infeasible"}, "unbounded": {"unbounded"}}
