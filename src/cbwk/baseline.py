"""LinUCB-with-knapsacks comparison baseline.

Ridge regression per target (reward plus each cost coordinate) with ellipsoid
confidence widths: the arm maximizing optimistic reward plus priced pessimistic
budget slack is pulled deterministically.  All targets are regressed on the
same pulled features, so they share one inverse Gram matrix and one set of
confidence widths.  Budget stopping and the dual update are shared with the
IGW policy.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import EnvironmentSpec, RunTrace, sample_outcome
from .dual import dual_init, dual_lambda, dual_update


@dataclass
class LinUcbConfig:
    confidence_scale: float = 1.0
    ridge: float = 1.0


def confidence_width(m: int, t: int, scale: float) -> float:
    """beta_t = scale * sqrt(m * log(1 + t))."""
    return scale * math.sqrt(m * math.log(1.0 + t))


def run_linucb(env: EnvironmentSpec, config: LinUcbConfig,
               rng: np.random.Generator) -> RunTrace:
    started = time.perf_counter()
    inst = env.instance
    T, B, d, K = inst.T, inst.B, inst.d, inst.K
    feats = env.features()
    Phi = feats.reward  # shared feature map in the linear environments
    m = Phi.shape[1]
    budget_rate = inst.budget_rate
    n_targets = 1 + d

    a_inv = np.eye(m) / config.ridge
    b_vec = np.zeros((n_targets, m))

    dual = dual_init(d, T / B, T)

    arms = np.empty(T, dtype=np.int64)
    rewards = np.empty(T)
    costs = np.empty((T, d))
    probs = np.zeros((T, K))
    rhat_log = np.empty((T, K))
    chat_log = np.empty((T, K, d))
    lam_log = np.empty((T, d))
    score_log = np.empty((T, K))

    cum_cost = np.zeros(d)
    total_reward = 0.0
    tau = T
    stopped_early = False
    exit_level = B - 1.0

    for t in range(T):
        theta_hat = np.einsum("ij,nj->ni", a_inv, b_vec)  # (n_targets, m)
        means = Phi @ theta_hat.T  # (K, n_targets)
        widths = np.sqrt(np.einsum("ki,ij,kj->k", Phi, a_inv, Phi))
        beta = confidence_width(m, t + 1, config.confidence_scale)
        ucb_reward = means[:, 0] + beta * widths
        lcb_cost = means[:, 1:] - beta * widths[:, None]
        lam = dual_lambda(dual)
        scores = ucb_reward + (budget_rate - lcb_cost) @ lam
        arm = int(np.argmax(scores))
        outcome = sample_outcome(env, feats, arm, rng)

        arms[t] = arm
        rewards[t] = outcome.reward
        costs[t] = outcome.cost
        probs[t, arm] = 1.0
        rhat_log[t] = ucb_reward
        chat_log[t] = lcb_cost
        lam_log[t] = lam
        score_log[t] = scores

        total_reward += outcome.reward
        cum_cost += outcome.cost

        phi = Phi[arm]
        q = a_inv @ phi
        a_inv -= q[:, None] * q / (1.0 + q @ phi)
        targets = np.concatenate([[outcome.reward], outcome.cost])
        b_vec += targets[:, None] * phi

        dual_update(dual, outcome.cost, budget_rate)

        if (cum_cost >= exit_level).any():
            tau = t + 1
            stopped_early = tau < T
            break

    return RunTrace(
        horizon=T,
        budget=B,
        arm_features=feats,
        arms=arms[:tau],
        rewards=rewards[:tau],
        costs=costs[:tau],
        probs=probs[:tau],
        rhat=rhat_log[:tau],
        chat=chat_log[:tau],
        lam=lam_log[:tau],
        scores=score_log[:tau],
        tau=tau,
        total_reward=total_reward,
        total_cost=cum_cost,
        duration_s=time.perf_counter() - started,
        stopped_early=stopped_early,
        dual_radius=T / B,
    )
