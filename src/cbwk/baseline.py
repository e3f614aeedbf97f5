"""LinUCB-with-knapsacks comparison baseline.

Ridge regression per target (reward plus each cost coordinate) with ellipsoid
confidence widths: the arm maximizing optimistic reward plus priced optimistic
budget slack is pulled deterministically.  Optimism in the costs means their
lower confidence bound, the estimate minus the width (Agrawal & Devanur 2016).
All targets are regressed on the same pulled features, so they share one
inverse Gram matrix and one set of confidence widths.  The round itself (dual
prices, Lagrangian scores, budget stopping and the dual update) is the IGW
policy's ``run_rounds``; only the estimator and the argmax chooser are
LinUCB's own.
"""

import math
from dataclasses import dataclass

import numpy as np

# sample_outcome, dual_lambda and dual_update are kept for perfbench/tracer.py, which patches them
from .core import EnvironmentSpec, RunTrace, sample_outcome  # noqa: F401
from .dual import dual_init, dual_lambda, dual_update  # noqa: F401
from .errors import raise_if_any, range_violations, type_violations
from .policy import run_rounds

RIDGE = 1.0  # ridge regularizer: the Gram matrix starts at RIDGE * I


@dataclass(frozen=True)
class LinUcbConfig:
    """LinUCB's width multiplier; 0 is greedy.  Constructing one checks it."""

    confidence_scale: float = 1.0

    def __post_init__(self):
        raise_if_any(type_violations(self)
                     or range_violations(vars(self), (("confidence_scale", ">=", 0),)))


def confidence_width(m: int, t: int, scale: float) -> float:
    """beta_t = scale * sqrt(m * log(1 + t))."""
    return scale * math.sqrt(m * math.log(1.0 + t))


def run_linucb(env: EnvironmentSpec, config: LinUcbConfig,
               rng: np.random.Generator) -> RunTrace:
    inst = env.instance
    T, B, d, K = inst.T, inst.B, inst.d, inst.K
    m = env.contexts.phi.shape[1]  # the confidence width uses the declared width
    Phi = env.contexts.span  # the ridge estimates never leave these columns
    r = Phi.shape[1]

    a_inv = np.eye(r) / RIDGE
    b_vec = np.zeros((1 + d, r))
    one_hot = np.eye(K)
    optimism = np.r_[1.0, np.full(d, -1.0)]  # upper bound on the reward, lower on the costs

    def estimate(t):
        theta_hat = np.einsum("ij,nj->ni", a_inv, b_vec)  # (1+d, r)
        means = Phi @ theta_hat.T  # (K, 1+d)
        widths = np.sqrt(np.einsum("ki,ij,kj->k", Phi, a_inv, Phi))
        beta = confidence_width(m, t + 1, config.confidence_scale)
        return means + (beta * widths)[:, None] * optimism

    def choose(scores):
        arm = int(scores.argmax())
        return arm, one_hot[arm]

    def learn(arm, y):
        nonlocal a_inv, b_vec
        phi = Phi[arm]
        q = a_inv @ phi
        a_inv -= q[:, None] * q / (1.0 + q @ phi)
        b_vec += y[:, None] * phi

    return run_rounds(env, dual_init(d, T / B, T), estimate, choose, learn, rng,
                      dual_radius=T / B)
