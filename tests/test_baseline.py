import numpy as np
import pytest

from cbwk.baseline import LinUcbConfig, run_linucb
from cbwk.core import ArmFeatures, EnvironmentSpec, ProblemInstance, make_fixed_linear_env


def test_zero_noise_converges_to_best_arm():
    env = make_fixed_linear_env(10, 3, 4, 0.0, T=3000, B=3000)
    trace = run_linucb(env, LinUcbConfig(), np.random.default_rng(0))
    assert trace.tau == 3000
    last = trace.arms[-300:]
    # arm 1 is the unique optimum (reward 1.21, all costs within budget rate)
    assert np.mean(last == 0) >= 0.9


def test_zero_confidence_is_greedy_and_locks_on():
    env = make_fixed_linear_env(10, 3, 4, 0.0, T=400, B=400)
    trace = run_linucb(env, LinUcbConfig(confidence_scale=0.0),
                       np.random.default_rng(1))
    # no optimism: rhat is the ridge mean fitted on the first `at` pulls, and
    # the pulled arm maximizes the Lagrangian score of the ridge means
    at = 50
    Phi = env.contexts.phi
    pulled = Phi[trace.arms[:at]]
    gram = np.eye(Phi.shape[1]) + pulled.T @ pulled
    means = Phi @ np.linalg.solve(gram, pulled.T @ trace.outcomes[:at])
    assert np.abs(trace.rhat[at] - means[:, 0]).max() <= 1e-9
    scores = means[:, 0] + (env.instance.budget_rate - means[:, 1:]) @ trace.lam[at]
    assert trace.arms[at] == np.argmax(scores)
    late = trace.arms[200:]
    assert np.unique(late).size == 1
    rerun = run_linucb(env, LinUcbConfig(confidence_scale=0.0),
                       np.random.default_rng(1))
    assert (rerun.arms == trace.arms).all()


def test_zero_costs_and_full_budget_run_to_horizon():
    contexts = np.eye(2)
    env = EnvironmentSpec(
        instance=ProblemInstance(T=60, B=60, d=1, K=2),
        theta=np.array([[0.9, 0.2], [0.0, 0.0]]),
        contexts=ArmFeatures(contexts, norm_bound=1.0),
        noise_variance=0.0,
    )
    trace = run_linucb(env, LinUcbConfig(), np.random.default_rng(2))
    assert trace.tau == 60
    assert not trace.stopped_early
    assert trace.total_cost[0] == pytest.approx(0.0, abs=1e-9)


def test_probabilities_are_one_hot():
    env = make_fixed_linear_env(10, 3, 4, 0.2, T=100, B=100)
    trace = run_linucb(env, LinUcbConfig(), np.random.default_rng(3))
    assert np.abs(trace.probs.sum(axis=1) - 1.0).max() <= 1e-12
    assert ((trace.probs == 0) | (trace.probs == 1)).all()
