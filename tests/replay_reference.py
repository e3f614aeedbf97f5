"""Replay of SquareCBwK and LinUCB runs from their formulas, independent of the engine.

``replay_squarecbwk`` and ``replay_linucb`` take a ``RunTrace`` and re-derive
every logged round from the trace's own arms and outcomes.  They share no
code with ``cbwk.policy``, ``cbwk.baseline``, ``cbwk.dual`` or
``cbwk.oracles``, and none of their fast paths: they learn at the full
feature width m, not on the span; SquareCBwK takes a full oracle step every
round, null-arm pulls included, with A^{-1} from ``np.linalg.inv``, and
LinUCB gets its ridge estimates and widths from ``np.linalg.solve``, with no
Sherman-Morrison update; both predict every round; and the dual's
exponentiated-gradient weights keep their plain form.  Because a replay
follows the logged arms, it cannot diverge from the run, so a tolerance is
enough.
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
# LinUCB needs no projection: its Sherman-Morrison inverse and these solves
# differ by rounding, which the GOLDEN cases show at most 1.3e-13.  Round 0
# ties every arm of equal norm, so the pulled arm is checked by its score.
LINUCB_TOL = 1e-9  # rhat and the scores, absolute


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
    scores: np.ndarray | None = None  # (tau, K) Lagrangian scores; LinUCB's only


def stop_round(trace, T, B) -> int:
    """The first round at which some resource's logged consumption reaches B - 1, else T."""
    spent = np.cumsum(trace.outcomes[:, 1:], axis=0)
    over = np.flatnonzero((spent >= B - 1.0).any(axis=1))
    return int(over[0]) + 1 if over.size else T


def dual_prices(costs, Z, T, B):
    """(n, d) prices before each of n rounds with the logged (n, d) costs.

    Exponentiated gradient on the d+1 simplex from the uniform point, eta =
    sqrt(log(d+1) / T): resource j sees gradient B/T - c_j, the slack 0.
    """
    n, d = costs.shape
    w = np.full(d + 1, 1.0 / (d + 1))  # the slack last
    eta = math.sqrt(math.log(d + 1) / T)
    lam = np.empty((n, d))
    for t in range(n):
        lam[t] = Z * w[:d]
        w = w * np.exp(np.r_[-eta * (B / T - costs[t]), 0.0])
        w /= w.sum()
    return lam


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
    lam = dual_prices(trace.outcomes[:, 1:], Z, T, B)

    n = trace.arms.size
    rhat, probs = np.empty((n, K)), np.empty((n, K))
    for t in range(n):
        est = np.clip(link(phi @ theta.T), 0.0, 1.0)  # (K, 1+d)
        scores = est[:, 0] + (rate - est[:, 1:]) @ lam[t]
        best = int(np.argmax(scores))
        p = 1.0 / (K + gamma * (scores[best] - scores))
        p[best] = 0.0
        p[best] = 1.0 - p.sum()
        rhat[t], probs[t] = est[:, 0], p

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

    return Replay(rhat=rhat, probs=probs, lam=lam, tau=stop_round(trace, T, B),
                  total_reward=float(trace.outcomes[:n, 0].sum()), gamma=gamma, Z=Z)


def replay_linucb(env, config, trace) -> Replay:
    """Every round of a LinUCB ``trace`` recomputed by ridge regression with widths.

    Ridge 1 over the pulls so far: A = I + sum x x^T and b = sum x y^T at the
    full width m.  Round t (from 1) scores arm a's optimistic row
    [reward + w | costs - w], with w = beta_t sqrt(phi_a^T A^{-1} phi_a) and
    beta_t = scale sqrt(m log(1 + t)), by its reward plus priced budget slack.
    """
    inst = env.instance
    T, B, d, K = inst.T, inst.B, inst.d, inst.K
    phi = env.phi  # (K, m), the full width
    m = phi.shape[1]
    Z = T / B
    lam = dual_prices(trace.outcomes[:, 1:], Z, T, B)
    optimism = np.r_[1.0, np.full(d, -1.0)]  # up on the reward, down on the costs

    A, b = np.eye(m), np.zeros((m, 1 + d))
    n = trace.arms.size
    rhat, scores = np.empty((n, K)), np.empty((n, K))
    for t in range(n):
        sol = np.linalg.solve(A, np.hstack([b, phi.T]))  # [theta_hat^T | A^{-1} phi^T]
        widths = np.sqrt(np.einsum("kj,jk->k", phi, sol[:, 1 + d:]))
        beta = config.confidence_scale * math.sqrt(m * math.log(1.0 + (t + 1)))
        est = phi @ sol[:, :1 + d] + beta * widths[:, None] * optimism  # (K, 1+d)
        rhat[t] = est[:, 0]
        scores[t] = est[:, 0] + (B / T - est[:, 1:]) @ lam[t]

        x = phi[trace.arms[t]]
        A = A + np.outer(x, x)
        b = b + np.outer(x, trace.outcomes[t])

    return Replay(rhat=rhat, probs=np.eye(K)[trace.arms], lam=lam, tau=stop_round(trace, T, B),
                  total_reward=float(trace.outcomes[:n, 0].sum()), gamma=math.nan, Z=Z,
                  scores=scores)


def _assert_common(env, trace, ref, rhat_tol):
    """The stop, the radius, the reward total, the prices and the reward estimates."""
    assert trace.tau == ref.tau == trace.arms.size, (trace.tau, ref.tau)
    assert trace.stopped_early == (ref.tau < env.instance.T)
    assert math.isclose(trace.dual_radius, ref.Z, rel_tol=PRICE_TOL), (trace.dual_radius, ref.Z)
    assert math.isclose(trace.total_reward, ref.total_reward, rel_tol=PRICE_TOL, abs_tol=1e-9)
    np.testing.assert_allclose(trace.lam, ref.lam, rtol=PRICE_TOL, atol=1e-12, err_msg="lam")
    np.testing.assert_allclose(trace.rhat, ref.rhat, rtol=0, atol=rhat_tol, err_msg="rhat")


def assert_replays(env, config, trace) -> Replay:
    """Raise AssertionError unless ``trace`` is what the paper's formulas give."""
    ref = replay_squarecbwk(env, config, trace)
    _assert_common(env, trace, ref, ESTIMATE_TOL)
    assert math.isclose(trace.gamma, ref.gamma, rel_tol=PRICE_TOL), (trace.gamma, ref.gamma)
    np.testing.assert_allclose(trace.probs, ref.probs, rtol=0, atol=ESTIMATE_TOL, err_msg="probs")
    return ref


def assert_linucb_replays(env, config, trace) -> Replay:
    """Raise AssertionError unless ``trace`` is LinUCB's: each logged arm scores the maximum."""
    ref = replay_linucb(env, config, trace)
    _assert_common(env, trace, ref, LINUCB_TOL)
    assert math.isnan(trace.gamma)
    assert (trace.probs == ref.probs).all(), "probs are not one-hot on the pulled arm"
    n = trace.arms.size
    shortfall = ref.scores.max(axis=1) - ref.scores[np.arange(n), trace.arms]
    assert shortfall.max() <= LINUCB_TOL, ("a pulled arm scores below the maximum",
                                            int(shortfall.argmax()), shortfall.max())
    return ref
