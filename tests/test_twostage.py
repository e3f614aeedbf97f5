import math

import numpy as np
import pytest

from cbwk.core import ArmFeatures, EnvironmentSpec, ProblemInstance, make_fixed_linear_env
from cbwk.errors import ConfigurationError
from cbwk.lp import exact_opt_fixed_context
from cbwk.oracles import BatchPredictor, online_to_batch
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
    assert all(r.size == 3 for r in result.rewards)
    assert all(c.shape == (3, 2) for c in result.costs)
    assert result.context_sets.shape[0] == 3
    assert result.arms.size == 9  # (K+1) * T0
    assert (result.arms[:3] == 0).all() and (result.arms[3:6] == 1).all()


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


def test_empirical_opt_hand_instance():
    contexts = np.zeros((1, 2, 2))
    contexts[0, :, 0] = 1.0  # both arms see feature e1
    reward = [_constant_batch(0.9), _constant_batch(0.2)]
    cost = [[_constant_batch(0.8)], [_constant_batch(0.1)]]
    value = empirical_opt(reward, cost, contexts, 0.45, 0.0)
    assert value == pytest.approx(0.55, abs=1e-9)


def test_empirical_opt_zero_costs_gives_max_reward():
    contexts = np.zeros((3, 2, 2))
    contexts[:, :, 0] = 1.0
    reward = [_constant_batch(0.7), _constant_batch(0.3)]
    cost = [[_constant_batch(0.0)], [_constant_batch(0.0)]]
    value = empirical_opt(reward, cost, contexts, 0.2, 0.0)
    assert value == pytest.approx(0.7, abs=1e-9)


def test_empirical_opt_constant_objective():
    contexts = np.zeros((2, 2, 2))
    contexts[:, :, 0] = 1.0
    reward = [_constant_batch(0.4), _constant_batch(0.4)]
    cost = [[_constant_batch(0.3)], [_constant_batch(0.2)]]
    value = empirical_opt(reward, cost, contexts, 0.5, 0.0)
    assert value == pytest.approx(0.4, abs=1e-9)


def test_empirical_opt_permutation_invariant():
    rng = np.random.default_rng(3)
    n_ctx, K, m, d = 5, 2, 3, 1
    contexts = rng.random((n_ctx, K, m)) / 2
    reward = [BatchPredictor(rng.random((1, m)) / 2, "identity") for _ in range(K)]
    cost = [[BatchPredictor(rng.random((1, m)) / 2, "identity")] for _ in range(K)]
    base = empirical_opt(reward, cost, contexts, 0.3, 0.05)
    perm = rng.permutation(n_ctx)
    shuffled = empirical_opt(reward, cost, contexts[perm], 0.3, 0.05)
    assert shuffled == pytest.approx(base, abs=1e-9)


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
    assert all(r.size == p1.t0 for r in p1.exploration.rewards)
    assert p1.opt_hat is not None and p1.z is not None
    assert p1.z == pytest.approx((2000 / 1000) * (p1.opt_hat + p1.m_val))
    # each arm's one pass over reward and costs fits every target as it would alone
    expl = p1.exploration
    for a in range(3):
        assert expl.features[a].shape == (p1.t0, 10)
        assert len(p1.cost_predictors[a]) == 4
        alone = online_to_batch("glmtron", expl.features[a], expl.costs[a][:, 1])
        assert (p1.cost_predictors[a][1].params == alone.params).all()


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
