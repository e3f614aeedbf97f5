"""LinUCB-with-knapsacks comparison baseline.

Ridge regression per target (reward plus each cost coordinate) with ellipsoid
confidence widths: the arm maximizing optimistic reward plus priced optimistic
budget slack is pulled deterministically.  Optimism in the costs means their
lower confidence bound, the estimate minus the width (Agrawal & Devanur 2016).
All targets are regressed on the same pulled features, so they share one
inverse Gram matrix, kept by GLMtron's Sherman-Morrison update, and one set
of confidence widths.  The round itself (dual prices, Lagrangian scores,
budget stopping and the dual update) is the IGW policy's ``run_rounds``;
``LinUcbLearner`` holds LinUCB's own estimator and argmax chooser.
"""

import math
from dataclasses import dataclass

import numpy as np

# sample_outcome, dual_lambda and dual_update are kept for perfbench/tracer.py, which patches them
from .core import EnvironmentSpec, RunTrace, sample_outcome  # noqa: F401
from .dual import dual_init, dual_lambda, dual_update  # noqa: F401
from .errors import raise_if_any, range_violations, type_violations
from .oracles import sherman_morrison
from .policy import run_rounds

RIDGE = 1.0  # ridge regularizer: the Gram matrix starts at RIDGE * I


@dataclass(frozen=True)
class LinUcbConfig:
    """LinUCB's width multiplier; 0 is greedy.  Constructing one checks it."""

    confidence_scale: float = 1.0

    def __post_init__(self):
        raise_if_any(type_violations(self)
                     or range_violations(vars(self), (("confidence_scale", ">=", 0),)))


class LinUcbLearner:
    """LinUCB's run state on ``env.span``: the (1, r, r) inverse Gram stack ``a_inv`` and the
    (1+d, r) sum ``b`` of y x^T.  The pulls are one-hot, so ``gamma`` is NaN."""

    gamma = math.nan

    def __init__(self, env: EnvironmentSpec, config: LinUcbConfig):
        d, self.phi = env.d, env.span
        self.a_inv = np.eye(self.phi.shape[1])[None] / RIDGE
        self.b = np.zeros((1 + d, self.phi.shape[1]))
        self.m, self.scale = env.phi.shape[1], config.confidence_scale  # width at the declared m
        self._one_hot = np.eye(env.K)
        self._optimism = np.r_[1.0, np.full(d, -1.0)]  # up on the reward, down on the costs

    def estimate(self, t: int) -> np.ndarray:
        """Optimistic rows: ridge means plus beta_t = scale sqrt(m log(1 + t)) times each width."""
        Phi, a_inv = self.phi, self.a_inv[0]
        theta_hat = np.einsum("ij,nj->ni", a_inv, self.b)  # (1+d, r)
        means = Phi @ theta_hat.T  # (K, 1+d)
        widths = np.sqrt(np.einsum("ki,ij,kj->k", Phi, a_inv, Phi))
        beta = self.scale * math.sqrt(self.m * math.log(1.0 + (t + 1)))
        return means + (beta * widths)[:, None] * self._optimism

    def choose(self, scores: np.ndarray):
        arm = int(scores.argmax())
        return arm, self._one_hot[arm]

    def learn(self, arm: int, y: np.ndarray) -> None:
        sherman_morrison(self.a_inv, self.phi[arm:arm + 1])  # a ridge denominator is >= 1
        self.b += y[:, None] * self.phi[arm]


def run_linucb(env: EnvironmentSpec, config: LinUcbConfig, rng: np.random.Generator) -> RunTrace:
    learner = LinUcbLearner(env, config)
    return run_rounds(env, dual_init(env.d, env.T / env.B, env.T), learner, rng)
