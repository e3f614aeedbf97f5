import math
from dataclasses import replace

import numpy as np
import pytest

from cbwk.core import (
    EnvironmentSpec,
    ProblemInstance,
    RunTrace,
    clipped_gaussian_mean,
    make_fixed_linear_env,
    make_glm_env,
    realized_regret,
    sample_outcome,
)
from cbwk.errors import ConfigurationError

HALF_PLUS_INV_SQRT2 = 0.5 + 1.0 / math.sqrt(2.0)  # 1.20710678...


def test_problem_instance_invariants():
    ProblemInstance(T=10, B=5, d=1, K=2)
    with pytest.raises(ConfigurationError):
        ProblemInstance(T=0, B=1, d=1, K=2)
    with pytest.raises(ConfigurationError):
        ProblemInstance(T=10, B=11, d=1, K=2)
    with pytest.raises(ConfigurationError):
        ProblemInstance(T=10, B=0.5, d=1, K=2)
    with pytest.raises(ConfigurationError):
        ProblemInstance(T=10, B=5, d=0, K=2)
    with pytest.raises(ConfigurationError):
        ProblemInstance(T=10, B=5, d=1, K=1)


def test_benchmark_env_expected_values():
    env = make_fixed_linear_env(10, 3, 4, 0.2, T=1000, B=1000)
    means = env.expected_outcomes()
    rewards, costs = means[:, 0], means[:, 1:]
    # arm 1: 1/2 + 1/sqrt(2); other arms 1/2
    assert rewards[0] == pytest.approx(HALF_PLUS_INV_SQRT2, abs=1e-12)
    assert rewards[1] == pytest.approx(0.5, abs=1e-12)
    assert rewards[2] == pytest.approx(0.5, abs=1e-12)
    # cost of arm 2 under the first cost parameter: 1/2 + 1/sqrt(2)
    assert costs[1, 0] == pytest.approx(HALF_PLUS_INV_SQRT2, abs=1e-12)
    assert costs[0, 0] == pytest.approx(0.5, abs=1e-12)
    # later cost coordinates are indicators: coordinate i hits arm i only
    assert costs[2, 2] == pytest.approx(1.0, abs=1e-12)
    assert costs[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert costs[1, 3] == pytest.approx(0.0, abs=1e-12)
    # context norms are sqrt(3/2)
    norms = np.linalg.norm(env.phi, axis=1)
    assert np.allclose(norms, math.sqrt(1.5), atol=1e-12)


def test_expected_outcomes_are_the_sampled_means():
    # the rows sample_outcome draws around, clipped in bounded mode; the null arm's row is 0
    plain = make_fixed_linear_env(10, 3, 4, 0.2, T=100, B=100)
    assert (plain.expected_outcomes() == plain.outcome_means).all()
    bounded = make_fixed_linear_env(10, 3, 4, 0.2, T=100, B=100, bounded=True, null_arm=True)
    rows = bounded.expected_outcomes()
    assert rows.shape == (3, 5)
    assert (rows[:2] == clipped_gaussian_mean(bounded.outcome_means[:2], 0.2)).all()
    assert (rows[-1] == 0.0).all() and clipped_gaussian_mean(0.0, 0.2) > 0.0
    glm = make_glm_env(ProblemInstance(T=100, B=50, d=2, K=3), np.full((3, 2), 0.5),
                       [[0.6, 0.0], [0.0, 0.6], [0.0, 0.0]])
    assert (glm.expected_outcomes() == glm.outcome_means).all()
    # a zero feature row still has mean sigma(0) = 1/2, which a null arm's draws never have
    assert (glm.outcome_means[-1] == 0.5).all()
    with pytest.raises(ConfigurationError, match="null_arm needs the identity link"):
        replace(glm, null_arm=True)


def test_benchmark_env_dimension_guards():
    with pytest.raises(ConfigurationError):
        make_fixed_linear_env(5, 3, 4, 0.2, T=100, B=100)
    with pytest.raises(ConfigurationError) as err:
        make_fixed_linear_env(10, 10, 4, 0.2, T=100, B=100)
    assert "K <= m-1" in str(err.value)
    with pytest.raises(ConfigurationError) as err:
        make_fixed_linear_env(10, 3, 10, 0.2, T=100, B=100)
    assert "d <= m-1" in str(err.value)
    with pytest.raises(ConfigurationError):
        make_fixed_linear_env(10, 3, 3, 0.2, T=100, B=100)
    with pytest.raises(ConfigurationError, match="noise_variance"):
        make_fixed_linear_env(10, 3, 4, float("nan"), T=100, B=100)
    with pytest.raises(ConfigurationError, match="K >= 2 violated"):
        make_fixed_linear_env(10, 1, 4, 0.2, T=100, B=100)
    with pytest.raises(ConfigurationError, match="1 <= B <= T violated"):
        make_fixed_linear_env(10, 3, 4, 0.2, T=100, B=101)


def test_environment_rejects_parameters_of_another_feature_width():
    env = make_fixed_linear_env(10, 3, 4, 0.2, T=100, B=100)
    with pytest.raises(ConfigurationError, match=r"expected \(1\+d, m\) = \(5, 8\)"):
        replace(env, phi=env.phi[:, :8])  # phi narrower than theta
    with pytest.raises(ConfigurationError, match=r"\(5, 9\), expected \(1\+d, m\) = \(5, 10\)"):
        replace(env, theta=env.theta[:, :9])


def test_environment_reports_wrong_d_and_wrong_k_together():
    env = make_fixed_linear_env(10, 3, 4, 0.2, T=100, B=100)
    with pytest.raises(ConfigurationError) as err:
        replace(env, theta=env.theta[:4], phi=env.phi[:2])  # d = 3 rows and K = 2 arms
    assert err.value.violations == [
        "theta has shape (4, 10), expected (1+d, m) = (5, 10)",
        "phi has 2 rows, expected K=3",
    ]


def test_glm_env_zero_parameter_means_half():
    inst = ProblemInstance(T=100, B=100, d=2, K=2)
    env = make_glm_env(inst, np.zeros((3, 3)), np.eye(3)[:2] * 0.9)
    assert env.expected_outcomes().shape == (2, 3)
    assert np.allclose(env.expected_outcomes(), 0.5)


def test_glm_env_logistic_mean():
    inst = ProblemInstance(T=100, B=100, d=1, K=2)
    contexts = np.array([[1.0, 0.0], [0.0, 1.0]])
    env = make_glm_env(inst, np.array([[1.0, 0.0], [0.0, 0.0]]), contexts)
    assert env.expected_outcomes()[0, 0] == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-9)
    assert env.expected_outcomes()[0, 0] == pytest.approx(0.73106, abs=1e-5)


def test_glm_env_rejects_large_parameters():
    inst = ProblemInstance(T=100, B=100, d=1, K=2)
    with pytest.raises(ConfigurationError, match="parameter row norm 1.5000 exceeds 1"):
        make_glm_env(inst, np.array([[1.5, 0.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(ConfigurationError, match="parameter row norm 1.2000 exceeds 1"):
        make_glm_env(inst, np.array([[0.0, 0.0], [0.0, 1.2]]), np.eye(2))  # a cost row


def test_glm_parameter_norm_is_reported_with_every_other_violation():
    # the unit-ball rule on theta is one more line of the environment's one report
    inst = ProblemInstance(T=100, B=100, d=1, K=2)
    with pytest.raises(ConfigurationError) as err:
        make_glm_env(inst, [[1.5, 0.0, 0.0], [0.0, 0.0, 0.0]], 0.5 * np.eye(3))
    assert err.value.violations == ["phi has 3 rows, expected K=2",
                                    "parameter row norm 1.5000 exceeds 1"]


def test_glm_outcomes_are_binary():
    inst = ProblemInstance(T=100, B=100, d=2, K=2)
    env = make_glm_env(inst, np.array([[0.5, 0.0], [0.3, 0.3], [0.3, 0.3]]), np.eye(2) * 0.8)
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = sample_outcome(env, 0, rng)
        assert y.shape == (3,)
        assert set(np.unique(y)) <= {0.0, 1.0}


def test_null_arm_outcomes_identically_zero():
    env = make_fixed_linear_env(10, 3, 4, 0.2, T=1000, B=1000,
                                bounded=True, null_arm=True)
    rng = np.random.default_rng(3)
    for _ in range(10**4):
        y = sample_outcome(env, 2, rng)
        assert y.shape == (5,) and (y == 0.0).all()


def test_zero_noise_matches_analytic_means():
    env = make_fixed_linear_env(10, 3, 4, 0.0, T=1000, B=1000)
    rng = np.random.default_rng(1)
    y = sample_outcome(env, 1, rng)  # [reward | costs]
    assert y[0] == pytest.approx(0.5, abs=1e-12)
    assert y[1] == pytest.approx(HALF_PLUS_INV_SQRT2, abs=1e-12)
    y = sample_outcome(env, 0, rng)
    assert y[1] == pytest.approx(0.5, abs=1e-12)


def test_arm_out_of_range():
    env = make_fixed_linear_env(10, 3, 4, 0.2, T=1000, B=1000)
    with pytest.raises(IndexError):
        sample_outcome(env, 3, np.random.default_rng(0))


def test_monte_carlo_mean_within_four_standard_errors():
    env = make_fixed_linear_env(10, 3, 4, 0.2, T=1000, B=1000)
    rng = np.random.default_rng(42)
    n = 10**5
    draws = np.array([sample_outcome(env, 0, rng)[0] for _ in range(n)])
    se = math.sqrt(0.2 / n)
    assert abs(draws.mean() - HALF_PLUS_INV_SQRT2) <= 4 * se


def test_bounded_mode_clips_and_adjusts_means():
    env = make_fixed_linear_env(10, 3, 4, 0.2, T=1000, B=1000, bounded=True)
    rng = np.random.default_rng(9)
    draws = np.array([sample_outcome(env, 0, rng)[0] for _ in range(2000)])
    assert draws.min() >= 0.0 and draws.max() <= 1.0
    # clipped-mean helper agrees with a direct Monte Carlo estimate
    mc = np.clip(np.random.default_rng(5).normal(HALF_PLUS_INV_SQRT2,
                                                 math.sqrt(0.2), 10**6), 0, 1).mean()
    assert clipped_gaussian_mean(np.array([HALF_PLUS_INV_SQRT2]), 0.2)[0] == \
        pytest.approx(mc, abs=2e-3)
    assert env.expected_outcomes()[0, 0] < HALF_PLUS_INV_SQRT2


def _two_arm_spec(phi, theta=np.zeros((2, 2)), **kwargs):
    return EnvironmentSpec(instance=ProblemInstance(T=10, B=5, d=1, K=2), theta=theta,
                           phi=phi, **kwargs)


def test_feature_norm_bound_enforced():
    with pytest.raises(ConfigurationError):
        _two_arm_spec(np.array([[2.0, 0.0], [0.0, 0.0]]), norm_bound=1.0)


def test_nan_parameters_are_rejected_by_name():
    theta = np.array([[0.5, 0.0], [float("nan"), 0.0]])
    with pytest.raises(ConfigurationError, match="theta must be finite"):
        _two_arm_spec(np.eye(2), theta)
    with pytest.raises(ConfigurationError, match="theta must be finite"):
        make_glm_env(ProblemInstance(T=100, B=100, d=1, K=2), theta, np.eye(2))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_features_are_rejected_by_name(bad):
    phi = np.array([[0.5, 0.0], [0.0, bad]])
    with pytest.raises(ConfigurationError, match="phi must be finite"):
        _two_arm_spec(phi)
    with pytest.raises(ConfigurationError, match="phi must be finite"):
        make_glm_env(ProblemInstance(T=100, B=100, d=1, K=2), np.zeros((2, 2)), phi)


@pytest.mark.parametrize("bound", [float("nan"), 0.0])
def test_norm_bound_must_be_positive(bound):
    with pytest.raises(ConfigurationError, match="norm_bound > 0 violated"):
        _two_arm_spec(np.eye(2) * 0.5, norm_bound=bound)


def test_environment_number_fields_are_type_checked():
    with pytest.raises(ConfigurationError, match="noise_variance must be a number"):
        _two_arm_spec(np.eye(2) * 0.5, noise_variance="0.2")  # not a TypeError


def test_environment_flags_are_type_checked():
    # a truthy string would otherwise build a null-arm environment
    with pytest.raises(ConfigurationError, match="null_arm must be True or False"):
        make_fixed_linear_env(10, 3, 4, 0.2, T=100, B=100, null_arm="no")
    with pytest.raises(ConfigurationError, match="bounded must be True or False"):
        _two_arm_spec(np.eye(2) * 0.5, bounded=1)


def test_null_arm_needs_zero_means():
    # the null arm draws exact zeros, so its means must be exact zeros too
    env = _two_arm_spec(np.array([[0.5, 0.0], [0.0, 0.0]]), np.full((2, 2), 0.5), null_arm=True)
    assert (env.outcome_means[-1] == 0.0).all()
    with pytest.raises(ConfigurationError, match="null_arm needs the identity link"):
        _two_arm_spec(np.eye(2) * 0.5, np.full((2, 2), 0.5), null_arm=True)


def test_phase_two_environment_keeps_features_and_means():
    # run_twostage hands phase 2 replace(env, instance=...): same features, new horizon
    env = make_fixed_linear_env(52, 10, 4, 0.2, T=2000, B=500, null_arm=True)
    inst = env.instance
    env2 = replace(env, instance=ProblemInstance(T=1000, B=200, d=inst.d, K=inst.K))
    assert env2.instance.T == 1000 and env2.norm_bound == env.norm_bound
    assert (env2.phi == env.phi).all() and (env2.span == env.span).all()
    assert (env2.outcome_means == env.outcome_means).all()


def test_span_keeps_the_columns_some_arm_uses():
    # fixed-linear arm a's context is e1/sqrt(2) + e_{a+1}; a null arm's row is zero
    plain = make_fixed_linear_env(52, 10, 4, 0.2, T=100, B=50)
    null = make_fixed_linear_env(52, 10, 4, 0.2, T=100, B=50, null_arm=True)
    assert (plain.span == plain.phi[:, :11]).all()
    assert (null.span == null.phi[:, :10]).all()
    assert (_two_arm_spec(np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.5]]), np.zeros((2, 3))).span
            == [[0.5, 0.0], [0.0, 0.5]]).all()
    assert not plain.span.flags.writeable


def test_span_keeps_every_column_of_dense_contexts():
    rng = np.random.default_rng(9)
    contexts = rng.normal(size=(3, 5))
    contexts /= np.linalg.norm(contexts, axis=1, keepdims=True) * 1.1
    env = make_glm_env(ProblemInstance(T=100, B=100, d=2, K=3), np.zeros((3, 5)), contexts)
    assert env.span.shape == (3, 5)
    assert (env.span == env.phi).all()


def _dummy_trace(total_reward, tau):
    z = np.zeros
    return RunTrace(arms=z(tau, dtype=int), outcomes=z((tau, 2)), probs=z((tau, 2)),
                    rhat=z((tau, 2)), lam=z((tau, 1)), tau=tau,
                    total_reward=total_reward, total_cost=z(1))


def test_realized_regret_arithmetic():
    assert realized_regret(_dummy_trace(500.0, 900), 0.55, 1000) == pytest.approx(50.0)
    assert realized_regret(_dummy_trace(0.0, 0), 0.55, 1000) == pytest.approx(550.0)
    assert realized_regret(_dummy_trace(550.0, 1000), 0.55, 1000) == pytest.approx(0.0)
