"""Budgeted contextual bandit policy: oracle scores, IGW sampling, dual prices.

Each round the policy predicts rewards and costs for every arm, combines them
into a price-penalized score, samples an arm with probability inversely
proportional to its score gap from the greedy arm, then feeds the realized
outcome back into the oracles and the dual update.  The run stops the first
round any resource's cumulative consumption reaches B - 1.  ``run_rounds`` is
that round; each algorithm gives it one learner object, here ``SquareCbLearner``.
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


class SquareCbLearner:
    """SquareCBwK's run state: one (1+d)-row oracle stack on ``env.span``, and the IGW draw.

    ``estimate`` reuses the last estimate while ``oracle.theta`` is the same
    array, as every oracle step that moves the parameters assigns a new one.
    A zero-feature pull, such as the null arm's, usually keeps it: the next round predicts nothing.
    """

    def __init__(self, env: EnvironmentSpec, oracle: str, gamma: float, rng):
        self.phi, self.gamma, self._rng = env.span, gamma, rng
        self.oracle = make_vector_predictor(oracle, 1 + env.instance.d, self.phi.shape[1],
                                            link=env.link)
        self._predicted_from = self._est = None

    def estimate(self, t: int) -> np.ndarray:
        if self.oracle.theta is not self._predicted_from:
            self._predicted_from = self.oracle.theta
            self._est = self.oracle.predict_matrix(self.phi)[0]
        return self._est

    def choose(self, scores: np.ndarray):
        p = igw_distribution(scores, self.gamma)
        return _sample_arm(p, self._rng), p

    def learn(self, arm: int, y: np.ndarray) -> None:
        self.oracle.update(self.phi[arm:arm + 1], y)  # the one stack's (1, r) sample


def run_rounds(env: EnvironmentSpec, dual: DualState, learner,
               rng: np.random.Generator) -> RunTrace:
    """The primal-dual round shared by every policy, run until T or B - 1.

    Each round ``learner.estimate(t)`` gives every arm's [reward | costs]
    estimate row, (K, 1+d), the dual prices turn it into Lagrangian scores,
    ``learner.choose(scores)`` picks an arm and its selection distribution,
    the outcome row y = [reward | costs] is sampled, ``learner.learn(arm, y)``
    updates the estimator and the dual takes its step.  The run stops the
    first round any resource's cumulative consumption reaches B - 1.  The
    trace keeps the learner's ``gamma`` and the dual's radius ``Z``.
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
    exit_level = B - 1.0

    for t in range(T):
        est = learner.estimate(t)
        lam = dual_lambda(dual)
        scores = lagrangian_scores(est, lam, budget_rate)
        arm, p = learner.choose(scores)
        y = sample_outcome(env, arm, rng)

        arms[t] = arm
        outcomes[t] = y
        probs[t] = p
        rhat_log[t] = est[:, 0]
        lam_log[t] = lam

        reward, *costs = y.tolist()
        total_reward += reward
        cum_cost = [c + x for c, x in zip(cum_cost, costs)]

        learner.learn(arm, y)
        dual_update(dual, y[1:], budget_rate)  # raises on a NaN or infinite cost

        if max(cum_cost) >= exit_level:  # some resource at B - 1
            break
    tau = t + 1  # T >= 1, so the loop ran

    return RunTrace(arms=arms[:tau], outcomes=outcomes[:tau], probs=probs[:tau],
                    rhat=rhat_log[:tau], lam=lam_log[:tau],
                    tau=tau, total_reward=total_reward, total_cost=np.array(cum_cost),
                    stopped_early=tau < T, gamma=learner.gamma, dual_radius=dual.Z)


def run_squarecbwk(env: EnvironmentSpec, config: PolicyConfig,
                   rng: np.random.Generator) -> RunTrace:
    """The IGW policy until T or B - 1, with gamma sized from the declared width m."""
    inst = env.instance
    T, B, d, K = inst.T, inst.B, inst.d, inst.K
    Z = config.z if config.z is not None else T / B
    gamma = config.gamma if config.gamma is not None else gamma_default(
        K, T, *regret_bounds(config.oracle, env.phi.shape[1], d, T, config.bound_scale), Z)
    learner = SquareCbLearner(env, config.oracle, gamma, rng)
    return run_rounds(env, dual_init(d, Z, T), learner, rng)
