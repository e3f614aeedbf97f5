import math

import numpy as np
import pytest

from cbwk.core import ArmFeatures, EnvironmentSpec, ProblemInstance, make_fixed_linear_env
from cbwk.errors import ConfigurationError, InfeasibleError
from cbwk.lp import exact_opt_fixed_context
from cbwk.oracles import BatchPredictor, online_to_batch
from lp_reference import brute_force_opt, tiled_empirical_opt
from cbwk.twostage import (
    TwoStageConfig,
    empirical_opt,
    estimation_errors,
    explore,
    m_t0,
    phase_one,
    run_twostage,
    t0_default,
    z_estimate,
)


def test_t0_default_linear_hand_value():
    assert t0_default(m=5, d=4, K=3, T=10**4) == 157


def test_t0_default_unit_parameters():
    assert t0_default(m=1, d=1, K=1, T=100) == 10


def test_t0_default_guard():
    with pytest.raises(ConfigurationError):
        t0_default(m=50, d=40, K=10, T=100)


def _two_arm_env(cost_value=0.5, T=60, B=60.0, d=2, noise=0.0, null_arm=False):
    contexts = np.eye(2)
    if null_arm:
        contexts = np.array([[1.0, 0.0], [0.0, 0.0]])
    return EnvironmentSpec(
        instance=ProblemInstance(T=T, B=B, d=d, K=2),
        theta_reward=np.array([0.8, 0.4]),
        theta_cost=np.full((d, 2), cost_value),
        contexts=ArmFeatures(contexts, norm_bound=1.0),
        noise_variance=noise,
        null_arm=null_arm,
    )


def test_explore_counts():
    env = _two_arm_env()
    result = explore(env, 3, np.random.default_rng(0))
    assert not result.aborted
    assert result.arms.size == 9  # (K+1) * T0
    assert result.round_rewards.shape == (9,) and result.round_costs.shape == (9, 2)
    # arm a's samples are rounds a*t0 .. (a+1)*t0 - 1; noiseless, they are its means
    for a, reward in enumerate((0.8, 0.4)):
        rows = slice(3 * a, 3 * (a + 1))
        assert (result.arms[rows] == a).all()
        assert (result.round_rewards[rows] == reward).all()
        assert (result.round_costs[rows] == 0.5).all()
    assert ((0 <= result.arms[6:]) & (result.arms[6:] < 2)).all()  # the arbitrary pulls
    assert result.consumed == pytest.approx(result.round_costs.sum(axis=0), abs=1e-12)


def test_explore_null_arm_pulls_consume_nothing():
    env = _two_arm_env(null_arm=True)
    result = explore(env, 4, np.random.default_rng(1))
    tail = result.round_costs[8:]  # the arbitrary-pull block
    assert (tail == 0.0).all()
    assert (result.arms[8:] == 1).all()


def test_explore_abort_on_exhausted_budget():
    env = _two_arm_env(cost_value=1.0, T=20, B=6.0)
    result = explore(env, 3, np.random.default_rng(2))
    assert result.aborted
    assert result.arms.size == 5  # cumulative cost hits B-1 = 5 at round 5
    assert result.consumed.max() == pytest.approx(5.0, abs=1e-12)


def test_m_t0_hand_values():
    assert m_t0(4, 5, 1, 0.0, 0.0, math.e) == pytest.approx(1.0, abs=1e-12)
    expected = math.sqrt(3 * (0.01 + 4 * 0.01) + 4 * math.log(4e4) / 157)
    assert m_t0(157, 3, 4, 0.01, 0.01, 10**4) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.648, abs=1e-3)


def test_m_t0_log_term_halves_when_t0_doubles():
    lhs = m_t0(100, 1, 1, 0.0, 0.0, 50) ** 2
    rhs = m_t0(200, 1, 1, 0.0, 0.0, 50) ** 2
    assert rhs == pytest.approx(lhs / 2)


def test_estimation_errors_closed_forms():
    ef, eg = estimation_errors("glmtron", m=5, d=4, t0=100, T=1000)
    assert ef == pytest.approx(5 * math.log(100) * math.log(1000) / 100)
    assert eg == pytest.approx(4 * ef)
    ef, eg = estimation_errors("ogd", m=5, d=2, t0=100, T=1000)
    assert ef == pytest.approx(10 * math.log(1000) / 100)
    assert eg == pytest.approx(2 * ef)


def _constant_batch(value, dim=2):
    # identity-link predictor whose first-coordinate weight reproduces `value`
    params = np.zeros((1, dim))
    params[0, 0] = value
    return BatchPredictor(params, "identity")


E1_BOTH = np.array([[1.0, 0.0], [1.0, 0.0]])  # both arms see feature e1


def test_empirical_opt_hand_instance():
    fits = [[_constant_batch(0.9), _constant_batch(0.8)],
            [_constant_batch(0.2), _constant_batch(0.1)]]
    value = empirical_opt(fits, E1_BOTH, 0.45, 0.0)
    assert value == pytest.approx(0.55, abs=1e-9)


def test_empirical_opt_zero_costs_gives_max_reward():
    fits = [[_constant_batch(0.7), _constant_batch(0.0)],
            [_constant_batch(0.3), _constant_batch(0.0)]]
    value = empirical_opt(fits, E1_BOTH, 0.2, 0.0)
    assert value == pytest.approx(0.7, abs=1e-9)


def test_empirical_opt_constant_objective():
    fits = [[_constant_batch(0.4), _constant_batch(0.3)],
            [_constant_batch(0.4), _constant_batch(0.2)]]
    value = empirical_opt(fits, E1_BOTH, 0.5, 0.0)
    assert value == pytest.approx(0.4, abs=1e-9)


def test_empirical_opt_permutation_invariant():
    # relabelling the arms, with their fits and feature rows, leaves the optimum unchanged
    rng = np.random.default_rng(3)
    K, m, d = 4, 3, 2
    phi = rng.random((K, m)) / 2
    fits = [[BatchPredictor(rng.random((3, m)) / 2, "identity") for _ in range(1 + d)]
            for _ in range(K)]
    base = empirical_opt(fits, phi, 0.3, 0.05)
    perm = rng.permutation(K)
    shuffled = empirical_opt([fits[a] for a in perm], phi[perm], 0.3, 0.05)
    assert shuffled == pytest.approx(base, abs=1e-9)


def _random_empirical_instance(rng, null_arm):
    """Random batch fits over a random context set; a null arm is a zero feature row."""
    K, d, m = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(2, 6))
    link = "logistic" if rng.random() < 0.25 else "identity"
    phi = rng.random((K, m)) / math.sqrt(m)
    if null_arm:
        phi[-1] = 0.0
        link = "identity"  # its predictions are then exactly zero
    fits = [[BatchPredictor(rng.normal(size=(int(rng.integers(1, 5)), m)), link)
             for _ in range(1 + d)] for _ in range(K)]
    return fits, phi


def test_empirical_opt_matches_tiled_program_and_brute_force():
    # The program over t0 copies of the one context set and the vertex
    # enumeration of the K-variable program agree with empirical_opt.
    rng = np.random.default_rng(11)
    outcomes = {"optimal": 0, "infeasible": 0, "null": 0, "widened": 0}
    for i in range(240):
        null_arm = i % 3 == 0
        fits, phi = _random_empirical_instance(rng, null_arm)
        rate = float(rng.uniform(0.02, 0.9))
        m_val = 0.0 if i % 2 else float(rng.uniform(0.0, 0.3))
        outcomes["null"] += null_arm
        outcomes["widened"] += m_val > 0
        preds = np.array([[f.predict_matrix(phi[a])[0] for f in arm_fits]
                          for a, arm_fits in enumerate(fits)])
        try:
            want = brute_force_opt(preds[:, 0], preds[:, 1:], rate + 2.0 * m_val)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                empirical_opt(fits, phi, rate, m_val)
            for t0 in (1, 3, 17):
                with pytest.raises(InfeasibleError):
                    tiled_empirical_opt(fits, phi, t0, rate, m_val)
            outcomes["infeasible"] += 1
            continue
        got = empirical_opt(fits, phi, rate, m_val)
        assert got == pytest.approx(want, abs=1e-9)
        for t0 in (1, 3, 17):
            assert tiled_empirical_opt(fits, phi, t0, rate, m_val) == pytest.approx(got, abs=1e-9)
        outcomes["optimal"] += 1
    assert outcomes["optimal"] >= 150 and outcomes["infeasible"] >= 5
    assert outcomes["null"] >= 50 and outcomes["widened"] >= 50


def test_z_estimate_values():
    assert z_estimate(0.55, 0.05, 200, 100) == pytest.approx(1.2, abs=1e-12)
    assert z_estimate(0.7, 0.0, 300, 100) == pytest.approx(3 * 0.7)
    assert z_estimate(0.6, 0.3, 100, 100) <= 1.0


def test_run_twostage_degenerate_split():
    env = make_fixed_linear_env(10, 3, 4, 0.0, T=20, B=20)
    cfg = TwoStageConfig(t0=5)  # (K+1) * 5 = 20 = T: phase 2 is empty
    with pytest.warns(RuntimeWarning):
        trace = run_twostage(env, cfg, np.random.default_rng(4))
    assert trace.tau == 20
    opt = exact_opt_fixed_context(env.expected_rewards(), env.expected_costs(), 1.0)
    assert 20 * opt - trace.total_reward == pytest.approx(
        20 * opt - trace.rewards.sum(), abs=1e-9)
    assert np.isnan(trace.rhat).all()


def test_run_twostage_phase_boundaries():
    env = make_fixed_linear_env(10, 3, 4, 0.01, T=400, B=400)
    cfg = TwoStageConfig(t0=20)
    with pytest.warns(RuntimeWarning):
        trace = run_twostage(env, cfg, np.random.default_rng(5))
    n1 = 4 * 20
    assert trace.tau > n1
    assert np.isnan(trace.rhat[:n1]).all()
    assert np.isfinite(trace.rhat[n1:]).all()
    # phase-1 probabilities are one-hot on the pulled arm
    assert np.abs(trace.probs.sum(axis=1) - 1.0).max() <= 1e-12
    assert trace.dual_radius > 0


def test_run_twostage_aborts_cleanly_when_budget_tiny():
    env = _two_arm_env(cost_value=1.0, T=40, B=6.0)
    cfg = TwoStageConfig(t0=3)
    with pytest.warns(RuntimeWarning):
        trace = run_twostage(env, cfg, np.random.default_rng(6))
    assert trace.aborted_in_exploration
    assert trace.tau == 5
    assert trace.total_cost.max() < 6.0


def test_phase_one_datasets_and_estimates():
    env = make_fixed_linear_env(10, 3, 4, 0.01, T=2000, B=1000)
    p1 = phase_one(env, TwoStageConfig(), np.random.default_rng(7))
    assert not p1.aborted
    t0, expl = p1.t0, p1.exploration
    assert expl.arms.size == 4 * t0
    assert p1.opt_hat is not None and p1.z is not None
    assert p1.z == pytest.approx((2000 / 1000) * (p1.opt_hat + p1.m_val))
    # each arm's one pass over reward and costs fits every target as it would alone
    for a in range(3):
        rows = slice(a * t0, (a + 1) * t0)
        assert (expl.arms[rows] == a).all()
        assert len(p1.fits[a]) == 1 + 4
        features = np.tile(env.contexts.phi[a], (t0, 1))
        alone = online_to_batch("glmtron", features, expl.round_costs[rows, 1])
        assert (p1.fits[a][2].params == alone.params).all()


def test_radius_sandwich_quick():
    # 10-seed version of the radius check; the acceptance suite runs 50 seeds
    T, B = 2000, 1000
    env = make_fixed_linear_env(10, 3, 4, 0.01, T=T, B=B)
    opt = exact_opt_fixed_context(env.expected_rewards(), env.expected_costs(), B / T)
    lower = upper = 0
    for seed in range(10):
        p1 = phase_one(env, TwoStageConfig(), np.random.default_rng(seed))
        if p1.z >= T * opt / B:
            lower += 1
        if p1.z <= (6 * T * p1.m_val / B + 1) * (T * opt / B + 1):
            upper += 1
    assert lower >= 9
    assert upper >= 9


def test_twostage_config_validation():
    with pytest.raises(ConfigurationError):
        TwoStageConfig(t0=0)
    env = _two_arm_env(T=10, B=10.0)
    with pytest.raises(ConfigurationError):
        explore(env, 5, np.random.default_rng(0))  # (K+1)*5 > T
