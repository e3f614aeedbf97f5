"""Budgeted contextual bandit policy: oracle scores, IGW sampling, dual prices.

Each round the policy predicts rewards and costs for every arm, combines them
into a price-penalized score, samples an arm with probability inversely
proportional to its score gap from the greedy arm, then feeds the realized
outcome back into the oracles and the dual update.  The run stops the first
round any resource's cumulative consumption reaches B - 1.  ``run_rounds`` is
that round; the LinUCB baseline runs it with its own estimator and chooser.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import EnvironmentSpec, RunTrace, sample_outcome
from .dual import DualState, dual_init, dual_lambda, dual_update
from .errors import raise_if_any, range_violations, type_violations
from .oracles import ORACLE_KINDS, make_vector_predictor, regret_bounds
# make_predictor is kept for perfbench/tracer.py, which patches it
from .oracles import make_predictor  # noqa: F401


@dataclass(frozen=True)
class PolicyConfig:
    """Knobs for one run; constructing one checks every field.

    ``gamma`` and ``z`` default to the learning rate derived from the oracle
    family's regret bounds and to T/B respectively.  ``bound_scale`` is the
    leading constant applied to those closed-form bounds.
    """

    oracle: str = "glmtron"
    gamma: float | None = None
    z: float | None = None
    bound_scale: float = 1.0

    def __post_init__(self):
        problems = type_violations(self) or range_violations(vars(self), (
            ("gamma", ">", 0), ("z", ">", 0), ("bound_scale", ">=", 0)))
        if self.oracle not in ORACLE_KINDS:
            problems.append(f"oracle must be {' or '.join(ORACLE_KINDS)} (got {self.oracle!r})")
        raise_if_any(problems)


def gamma_default(K: int, T: int, reg_r: float, reg_c: float, Z: float) -> float:
    """Learning rate sqrt(KT / (Reg_r(T) + (Z+1)^2 Reg_c(T) + 4 log(2T))), given the
    oracle family's regret bounds Reg_r(T) and Reg_c(T)."""
    denom = reg_r + (Z + 1.0) ** 2 * reg_c + 4.0 * math.log(2 * T)
    return math.sqrt(K * T / denom)


def lagrangian_scores(est: np.ndarray, lam: np.ndarray, budget_rate: float) -> np.ndarray:
    """Score each arm's (1+d) estimate row by its reward plus priced budget slack."""
    return est[:, 0] + (budget_rate - est[:, 1:]) @ lam


def igw_distribution(scores: np.ndarray, gamma: float) -> np.ndarray:
    """Inverse-gap-weighted distribution over arms.

    The greedy arm (ties to the lowest index) receives the leftover mass
    1 - sum of 1/(K + gamma * gap) over the others, which is always >= 1/K.
    It is computed on Python floats, term by term as the array formula; only
    the leftover sum may differ from NumPy's in the last bit.  A NaN or
    infinite score raises.
    """
    s = scores.tolist()
    K = len(s)
    top = max(s)
    best = s.index(top)
    p = [1.0 / (K + gamma * (top - x)) for x in s]
    p[best] = 0.0
    rest = sum(p)
    if not (math.isfinite(top) and math.isfinite(rest) and min(s) > -math.inf):
        raise ValueError(f"scores {s} are not all finite")
    p[best] = 1.0 - rest
    return np.array(p)


def _sample_arm(p: np.ndarray, rng: np.random.Generator) -> int:
    """The first arm whose cumulative probability reaches a uniform draw.

    ``accumulate`` adds left to right as ``np.add.accumulate`` does, and
    ``bisect_left`` is ``searchsorted``'s left side, so the arm is theirs.
    """
    r = rng.random()
    return min(bisect_left(list(accumulate(p.tolist())), r), p.size - 1)


def run_rounds(env: EnvironmentSpec, dual: DualState, estimate, choose, learn,
               rng: np.random.Generator, **summary) -> RunTrace:
    """The primal-dual round shared by every policy, run until T or B - 1.

    Each round ``estimate(t)`` gives every arm's [reward | costs] estimate
    row, (K, 1+d), the dual prices turn it into Lagrangian scores,
    ``choose(scores)`` picks an arm and its selection distribution, the
    outcome row y = [reward | costs] is sampled, ``learn(arm, y)`` updates
    the estimator and the dual takes its step.  The run stops the first round
    any resource's cumulative consumption reaches B - 1.  ``summary``
    (``gamma``, ``dual_radius``) is copied onto the trace.
    """
    inst = env.instance
    T, B, d, K = inst.T, inst.B, inst.d, inst.K
    budget_rate = inst.budget_rate

    arms = np.empty(T, dtype=np.int64)
    outcomes = np.empty((T, 1 + d))
    probs = np.empty((T, K))
    rhat_log = np.empty((T, K))
    lam_log = np.empty((T, d))

    cum_cost = [0.0] * d
    total_reward = 0.0
    tau = T
    exit_level = B - 1.0

    for t in range(T):
        est = estimate(t)
        lam = dual_lambda(dual)
        scores = lagrangian_scores(est, lam, budget_rate)
        arm, p = choose(scores)
        y = sample_outcome(env, arm, rng)
        cost = y[1:]

        arms[t] = arm
        outcomes[t] = y
        probs[t] = p
        rhat_log[t] = est[:, 0]
        lam_log[t] = lam

        reward, *costs = y.tolist()
        total_reward += reward
        cum_cost = [c + x for c, x in zip(cum_cost, costs)]

        learn(arm, y)
        dual_update(dual, cost, budget_rate)  # raises on a NaN or infinite cost

        if max(cum_cost) >= exit_level:  # some resource at B - 1
            tau = t + 1
            break

    return RunTrace(arms=arms[:tau], outcomes=outcomes[:tau], probs=probs[:tau],
                    rhat=rhat_log[:tau], lam=lam_log[:tau],
                    tau=tau, total_reward=total_reward, total_cost=np.array(cum_cost),
                    stopped_early=tau < T, **summary)


def run_squarecbwk(env: EnvironmentSpec, config: PolicyConfig,
                   rng: np.random.Generator) -> RunTrace:
    """Run the IGW policy for up to T rounds or until a budget nearly runs out.

    The reward and the d costs are learned by one (1+d)-row oracle stack,
    row 0 the reward and rows 1..d the costs, so all targets share one Gram
    matrix.  The stack learns on the context set's span (``EnvironmentSpec.span``);
    gamma is sized from the declared feature width m.  A round reuses the
    previous round's estimate while ``oracle.theta`` is the same array: every
    oracle step that moves the parameters must assign a new array, so the same
    array means the same parameters.  A pull of a zero-feature arm, such as
    the null arm, usually leaves the array in place, and the next round then
    makes no prediction.
    """
    inst = env.instance
    T, B, d, K = inst.T, inst.B, inst.d, inst.K
    m = env.phi.shape[1]
    phi = env.span

    Z = config.z if config.z is not None else T / B
    gamma = config.gamma if config.gamma is not None else gamma_default(
        K, T, *regret_bounds(config.oracle, m, d, T, config.bound_scale), Z)
    oracle = make_vector_predictor(config.oracle, 1 + d, phi.shape[1], link=env.link)
    samples = phi[:, None, :]  # arm a's row as the one stack's (1, r) sample
    predicted_from, est = None, None

    def estimate(t):
        nonlocal predicted_from, est
        if oracle.theta is not predicted_from:
            predicted_from = oracle.theta
            est = oracle.predict_matrix(phi)[0]
        return est

    def choose(scores):
        p = igw_distribution(scores, gamma)
        return _sample_arm(p, rng), p

    def learn(arm, y):
        oracle.update(samples[arm], y)

    return run_rounds(env, dual_init(d, Z, T), estimate, choose, learn, rng,
                      gamma=gamma, dual_radius=Z)
