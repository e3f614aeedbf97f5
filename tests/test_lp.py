import numpy as np
import pytest

from cbwk.errors import ConfigurationError, InfeasibleError
from cbwk.lp import exact_opt_fixed_context, solve_lp
from lp_reference import brute_force_opt


def test_one_variable_lp():
    # one arm, one resource: all mass on it when it fits the rate
    sol = solve_lp(np.array([[1.0, 0.5]]), 1.0)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)


def test_hand_instance_value():
    # max 0.9 p1 + 0.2 p2  s.t.  0.8 p1 + 0.1 p2 <= 0.45,  p on the simplex.
    sol = solve_lp(np.array([[0.9, 0.8], [0.2, 0.1]]), 0.45)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.55, abs=1e-9)
    assert np.allclose(sol.x, [0.5, 0.5], atol=1e-9)


def test_infeasible_detected():
    # every arm uses more of the resource than the rate allows
    sol = solve_lp(np.array([[1.0, 0.6], [0.5, 0.4]]), 0.3)
    assert sol.status == "infeasible"
    with pytest.raises(InfeasibleError):
        exact_opt_fixed_context(np.array([[1.0, 0.6], [0.5, 0.4]]), 0.3)


def test_solution_feasibility_and_slackness():
    # The vertex is feasible, and complementary slackness holds against the
    # duals HiGHS reports for the same program, which certifies it optimal.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(7)
    solved = 0
    for _ in range(100):
        K, d = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        outcomes = rng.random((K, 1 + d))
        rate = float(rng.uniform(0.05, 1.0))
        sol = solve_lp(outcomes, rate)
        if sol.status != "optimal":
            assert sol.status == "infeasible"
            continue
        solved += 1
        rewards, costs = outcomes[:, 0], outcomes[:, 1:]
        assert (sol.x >= -1e-9).all()
        assert (costs.T @ sol.x <= rate + 1e-9).all()
        assert abs(sol.x.sum() - 1.0) <= 1e-9
        assert sol.value == pytest.approx(rewards @ sol.x, abs=1e-12)
        ref = linprog(-rewards, A_ub=costs.T, b_ub=np.full(d, rate), A_eq=np.ones((1, K)),
                      b_eq=[1.0], bounds=(0, None), method="highs")
        y, mu = -ref.ineqlin.marginals, -ref.eqlin.marginals[0]
        assert (np.abs(y * (rate - costs.T @ sol.x)) < 1e-7).all()
        assert (np.abs(sol.x * (mu + costs @ y - rewards)) < 1e-7).all()
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
    base = solve_lp(np.column_stack([rewards, costs]), 0.5)
    scaled = solve_lp(np.column_stack([3.0 * rewards, costs]), 0.5)
    assert base.status == scaled.status == "optimal"
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


@pytest.mark.parametrize("bad, rate", [(0.1, -0.1), (0.1, -1e-300), (0.1, np.nan),
                                       (0.1, np.inf), (0.1, -np.inf), (np.nan, 0.5),
                                       (np.inf, 0.5), (-np.inf, 0.5)])
def test_exact_opt_refuses_non_finite_input_or_negative_rate(bad, rate):
    match = "outcomes must be finite" if rate == 0.5 else "budget_rate must be finite and >= 0"
    with pytest.raises(ConfigurationError, match=match):
        exact_opt_fixed_context([[0.9, 0.8], [0.2, bad]], rate)


def test_brute_force_guards_and_degenerate_cases():
    with pytest.raises(ConfigurationError):
        brute_force_opt(np.ones(4), np.ones((4, 1)), 0.5)
    with pytest.raises(ConfigurationError):
        brute_force_opt(np.ones(2), np.ones((2, 3)), 0.5)
    # constant objective -> the constant
    assert brute_force_opt([0.4, 0.4], [[0.1], [0.2]], 0.5) == pytest.approx(0.4)
    with pytest.raises(InfeasibleError):
        brute_force_opt([1.0, 1.0], [[1.0], [1.0]], 0.3)


def _allocation_programs(rng):
    """(kind, outcomes, rate): random, duplicated and tied arms, a null arm,
    rate 0 and programs no arm mixture satisfies."""
    def shape():
        return int(rng.integers(2, 13)), int(rng.integers(1, 6))

    for _ in range(150):  # signed predictions, as batch fits give: both statuses occur
        K, d = shape()
        yield "random", rng.normal(0.3, 0.5, size=(K, 1 + d)), float(rng.uniform(0.0, 1.0))
    for _ in range(60):  # each arm twice
        K, d = shape()
        yield "duplicated", np.repeat(rng.random((K, 1 + d)), 2, axis=0), \
            float(rng.uniform(0.05, 1.0))
    for _ in range(100):  # quarters: tied rewards and costs, degenerate vertices
        K, d = shape()
        yield "tied", rng.integers(0, 5, size=(K, 1 + d)) / 4, float(rng.integers(0, 5) / 4)
    for _ in range(60):  # a null arm keeps every rate feasible
        K, d = shape()
        outcomes = rng.random((K, 1 + d))
        outcomes[-1] = 0.0
        yield "null arm", outcomes, float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
    for _ in range(60):  # rate 0: feasible only through arms that cost nothing
        K, d = shape()
        outcomes = rng.random((K, 1 + d))
        free = rng.random(K) < 0.3
        outcomes[free, 1:] = 0.0
        yield "rate 0", outcomes, 0.0
    for _ in range(40):  # every arm costs more than the rate on resource 0
        K, d = shape()
        outcomes = rng.random((K, 1 + d))
        outcomes[:, 1] = rng.uniform(0.5, 1.0, K)
        yield "infeasible", outcomes, float(rng.uniform(0.0, 0.45))


def test_solve_lp_matches_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    highs_status = {0: "optimal", 2: "infeasible"}
    statuses = {}
    for i, (kind, outcomes, rate) in enumerate(_allocation_programs(np.random.default_rng(2024))):
        K, d = outcomes.shape[0], outcomes.shape[1] - 1
        ours = solve_lp(outcomes, rate)
        ref = linprog(-outcomes[:, 0], A_ub=outcomes[:, 1:].T, b_ub=np.full(d, rate),
                      A_eq=np.ones((1, K)), b_eq=[1.0], bounds=(0, None), method="highs")
        assert ours.status == highs_status[ref.status], f"{kind} program {i}: {ref.message}"
        if ours.status == "optimal":
            assert ours.value == pytest.approx(-ref.fun, abs=1e-7 * (1 + abs(ref.fun))), \
                f"{kind} program {i}"
        statuses.setdefault(kind, set()).add(ours.status)
    both = {"optimal", "infeasible"}
    assert statuses == {"random": both, "duplicated": both, "tied": both,
                        "null arm": {"optimal"}, "rate 0": both, "infeasible": {"infeasible"}}
