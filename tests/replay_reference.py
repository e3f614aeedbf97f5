"""Replay of a SquareCBwK run from the paper's formulas, independent of the engine.

``replay_squarecbwk`` takes a ``RunTrace`` and re-derives every logged round
from the trace's own arms and outcomes.  It shares no code with
``cbwk.policy``, ``cbwk.dual`` or ``cbwk.oracles``, and none of their fast
paths: it learns at the full feature width m, not on the span; it takes a full
oracle step every round, null-arm pulls included, with A^{-1} from
``np.linalg.inv``; it predicts every round; and it keeps the dual's
exponentiated-gradient weights in their plain form.  Because it replays the
logged arms, it cannot diverge from the run, so a tolerance is enough.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

# The engine projects with 20 bisections on the multiplier mu, so after a
# projection its mu agrees with the exact root only to about 2^-20 (~1e-6)
# of the bracket [0, lambda_max (||v|| - 1)].  Since A >= I, a row moves by
# at most that much, and the estimates and IGW probabilities of later rounds
# with it; the GOLDEN cases show at most 5.4e-9.  Rounds before any
# projection, the dual prices and the stop agree to rounding: the prices and
# the stop depend only on the logged costs.
ESTIMATE_TOL = 1e-6  # rhat and probs, absolute
PRICE_TOL = 1e-9  # lam, gamma, Z and total_reward, relative


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class Replay:
    rhat: np.ndarray  # (tau, K)
    probs: np.ndarray  # (tau, K)
    lam: np.ndarray  # (tau, d)
    tau: int
    total_reward: float
    gamma: float
    Z: float


def default_gamma(oracle, m, d, K, T, Z, scale):
    """sqrt(KT / (Reg_r + (Z+1)^2 Reg_c + 4 log 2T)) with the oracle's regret bounds."""
    if oracle == "glmtron":
        reg_r = scale * m * max(1.0, math.log(T))
    else:
        reg_r = scale * math.sqrt(T)
    reg_c = d * reg_r
    return math.sqrt(K * T / (reg_r + (Z + 1.0) ** 2 * reg_c + 4.0 * math.log(2 * T)))


def project_a_norm(A, v):
    """argmin over ||w|| <= 1 of (w - v)^T A (w - v), solved to full precision.

    w(mu) = (A + mu I)^{-1} A v, and ||w(mu)|| = 1 has its root in
    [0, ||A||_F (||v|| - 1)], since the Frobenius norm bounds lambda_max.
    """
    eye = np.eye(A.shape[0])
    w = lambda mu: np.linalg.solve(A + mu * eye, A @ v)
    mu = brentq(lambda mu: np.linalg.norm(w(mu)) - 1.0, 0.0,
                np.linalg.norm(A) * (np.linalg.norm(v) - 1.0), xtol=1e-14, rtol=1e-15)
    return w(mu)


def replay_squarecbwk(env, config, trace) -> Replay:
    """Every round of ``trace`` recomputed from the paper's formulas."""
    inst = env.instance
    T, B, d, K = inst.T, inst.B, inst.d, inst.K
    phi = env.phi  # (K, m), the full width
    m = phi.shape[1]
    rate = B / T
    link = _sigmoid if env.link == "logistic" else (lambda z: z)

    Z = config.z if config.z is not None else T / B
    gamma = config.gamma if config.gamma is not None else default_gamma(
        config.oracle, m, d, K, T, Z, config.bound_scale)

    theta = np.zeros((1 + d, m))  # row 0 the reward, rows 1..d the costs
    A = np.eye(m)
    w = np.full(d + 1, 1.0 / (d + 1))  # dual weights on the d+1 simplex, the slack last
    eta = math.sqrt(math.log(d + 1) / T)

    # the B - 1 stop, from the logged costs
    spent = np.cumsum(trace.outcomes[:, 1:], axis=0)
    over = np.flatnonzero((spent >= B - 1.0).any(axis=1))
    tau = int(over[0]) + 1 if over.size else T

    n = trace.arms.size
    rhat, probs, lam = np.empty((n, K)), np.empty((n, K)), np.empty((n, d))
    for t in range(n):
        est = np.clip(link(phi @ theta.T), 0.0, 1.0)  # (K, 1+d)
        prices = Z * w[:d]
        scores = est[:, 0] + (rate - est[:, 1:]) @ prices
        best = int(np.argmax(scores))
        p = 1.0 / (K + gamma * (scores[best] - scores))
        p[best] = 0.0
        p[best] = 1.0 - p.sum()
        rhat[t], probs[t], lam[t] = est[:, 0], p, prices

        x, y = phi[trace.arms[t]], trace.outcomes[t]
        z = theta @ x
        if config.oracle == "ogd":  # step 1/sqrt(t) on the squared loss, then onto the unit ball
            grad = 2.0 * (link(z) - y)
            if env.link == "logistic":
                grad *= _sigmoid(z) * (1.0 - _sigmoid(z))
            theta = theta - np.outer(grad, x) / math.sqrt(t + 1)
            theta /= np.maximum(np.linalg.norm(theta, axis=1), 1.0)[:, None]
        else:  # GLMtron: residual step preconditioned by A^{-1}, projected in the A-norm
            A = A + np.outer(x, x)
            theta = theta - np.outer(link(z) - y, np.linalg.inv(A) @ x)
            theta = np.array([project_a_norm(A, row) if np.linalg.norm(row) > 1.0 else row
                              for row in theta])
        # exponentiated gradient: resource j sees gradient B/T - c_j, the slack 0
        w = w * np.exp(np.r_[-eta * (rate - y[1:]), 0.0])
        w /= w.sum()

    return Replay(rhat=rhat, probs=probs, lam=lam, tau=tau,
                  total_reward=float(trace.outcomes[:tau, 0].sum()), gamma=gamma, Z=Z)


def assert_replays(env, config, trace) -> Replay:
    """Raise AssertionError unless ``trace`` is what the paper's formulas give."""
    ref = replay_squarecbwk(env, config, trace)
    assert trace.tau == ref.tau == trace.arms.size, (trace.tau, ref.tau)
    assert trace.stopped_early == (ref.tau < env.instance.T)
    assert math.isclose(trace.gamma, ref.gamma, rel_tol=PRICE_TOL), (trace.gamma, ref.gamma)
    assert math.isclose(trace.dual_radius, ref.Z, rel_tol=PRICE_TOL), (trace.dual_radius, ref.Z)
    assert math.isclose(trace.total_reward, ref.total_reward, rel_tol=PRICE_TOL, abs_tol=1e-9)
    np.testing.assert_allclose(trace.lam, ref.lam, rtol=PRICE_TOL, atol=1e-12, err_msg="lam")
    np.testing.assert_allclose(trace.rhat, ref.rhat, rtol=0, atol=ESTIMATE_TOL, err_msg="rhat")
    np.testing.assert_allclose(trace.probs, ref.probs, rtol=0, atol=ESTIMATE_TOL, err_msg="probs")
    return ref
