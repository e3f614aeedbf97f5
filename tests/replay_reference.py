"""Replay of SquareCBwK, LinUCB and two-stage runs from their formulas, independent of the engine.

``replay_squarecbwk``, ``replay_linucb`` and ``replay_phase_one`` take a
``RunTrace`` and re-derive every logged round from the trace's own arms and
outcomes; ``assert_twostage_replays`` checks a two-stage run as phase one
followed by SquareCBwK on the rest of the horizon and budget.  They share no
code with ``cbwk.policy``, ``cbwk.baseline``, ``cbwk.dual``, ``cbwk.oracles``,
``cbwk.twostage`` or ``cbwk.lp``, and none of their fast paths: they learn at the full
feature width m, not on the span; SquareCBwK takes a full oracle step every
round, null-arm pulls included, with A^{-1} from ``np.linalg.inv``, and
LinUCB gets its ridge estimates and widths from ``np.linalg.solve``, with no
Sherman-Morrison update; phase one fits each arm in its own loop and solves
its program with HiGHS; every replay predicts every round; and the dual's
exponentiated-gradient weights keep their plain form.  Because a replay
follows the logged arms, it cannot diverge from the run, so a tolerance is
enough.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from lp_reference import highs_opt

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
# Phase one's empirical optimum: GLMtron's averaged estimates carry the
# projection's error, and HiGHS and the simplex agree to about 1e-9.
OPT_TOL = 1e-6  # opt_hat absolute, z relative


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


def oracle_step(oracle, link_name, theta, A, t, x, y):
    """Step t (from 0) of the oracle on sample (x, y) at the full width: the new (theta, A)."""
    link = _sigmoid if link_name == "logistic" else (lambda z: z)
    z = theta @ x
    if oracle == "ogd":  # step 1/sqrt(t) on the squared loss, then onto the unit ball
        grad = 2.0 * (link(z) - y)
        if link_name == "logistic":
            grad *= _sigmoid(z) * (1.0 - _sigmoid(z))
        theta = theta - np.outer(grad, x) / math.sqrt(t + 1)
        return theta / np.maximum(np.linalg.norm(theta, axis=1), 1.0)[:, None], A
    # GLMtron: residual step preconditioned by A^{-1}, projected in the A-norm
    A = A + np.outer(x, x)
    theta = theta - np.outer(link(z) - y, np.linalg.inv(A) @ x)
    return np.array([project_a_norm(A, row) if np.linalg.norm(row) > 1.0 else row
                     for row in theta]), A


def replay_squarecbwk(env, config, trace, T=None, B=None) -> Replay:
    """Every round of ``trace`` recomputed from the paper's formulas.

    The horizon T and budget B default to the environment's.
    """
    T, B = T or env.T, B or env.B
    d, K = env.theta.shape[0] - 1, env.phi.shape[0]
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

        theta, A = oracle_step(config.oracle, env.link, theta, A, t,
                               phi[trace.arms[t]], trace.outcomes[t])

    return Replay(rhat=rhat, probs=probs, lam=lam, tau=stop_round(trace, T, B),
                  total_reward=float(trace.outcomes[:n, 0].sum()), gamma=gamma, Z=Z)


def replay_linucb(env, config, trace) -> Replay:
    """Every round of a LinUCB ``trace`` recomputed by ridge regression with widths.

    Ridge 1 over the pulls so far: A = I + sum x x^T and b = sum x y^T at the
    full width m.  Round t (from 1) scores arm a's optimistic row
    [reward + w | costs - w], with w = beta_t sqrt(phi_a^T A^{-1} phi_a) and
    beta_t = scale sqrt(m log(1 + t)), by its reward plus priced budget slack.
    """
    T, B = env.T, env.B
    d, K = env.theta.shape[0] - 1, env.phi.shape[0]
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


def _assert_common(trace, ref, T, rhat_tol):
    """The stop, the radius, the reward total, the prices and the reward estimates."""
    assert trace.tau == ref.tau == trace.arms.size, (trace.tau, ref.tau)
    assert trace.stopped_early == (ref.tau < T)
    assert math.isclose(trace.dual_radius, ref.Z, rel_tol=PRICE_TOL), (trace.dual_radius, ref.Z)
    assert math.isclose(trace.total_reward, ref.total_reward, rel_tol=PRICE_TOL, abs_tol=1e-9)
    np.testing.assert_allclose(trace.lam, ref.lam, rtol=PRICE_TOL, atol=1e-12, err_msg="lam")
    np.testing.assert_allclose(trace.rhat, ref.rhat, rtol=0, atol=rhat_tol, err_msg="rhat")


def assert_replays(env, config, trace, T=None, B=None) -> Replay:
    """Raise AssertionError unless ``trace`` is what the paper's formulas give."""
    ref = replay_squarecbwk(env, config, trace, T, B)
    _assert_common(trace, ref, T or env.T, ESTIMATE_TOL)
    assert math.isclose(trace.gamma, ref.gamma, rel_tol=PRICE_TOL), (trace.gamma, ref.gamma)
    np.testing.assert_allclose(trace.probs, ref.probs, rtol=0, atol=ESTIMATE_TOL, err_msg="probs")
    return ref


def assert_linucb_replays(env, config, trace) -> Replay:
    """Raise AssertionError unless ``trace`` is LinUCB's: each logged arm scores the maximum."""
    ref = replay_linucb(env, config, trace)
    _assert_common(trace, ref, env.T, LINUCB_TOL)
    assert math.isnan(trace.gamma)
    assert (trace.probs == ref.probs).all(), "probs are not one-hot on the pulled arm"
    n = trace.arms.size
    shortfall = ref.scores.max(axis=1) - ref.scores[np.arange(n), trace.arms]
    assert shortfall.max() <= LINUCB_TOL, ("a pulled arm scores below the maximum",
                                            int(shortfall.argmax()), shortfall.max())
    return ref


@dataclass
class PhaseOneReplay:
    t0: int
    rounds: int  # (K+1) t0, or the abort round
    aborted: bool
    m_val: float
    opt_hat: float | None = None  # None if aborted
    z: float | None = None


def replay_phase_one(env, cfg, trace) -> PhaseOneReplay:
    """Two-stage's phase one recomputed from the logged forced pulls.

    Arm a's dataset is rounds a*t0 .. (a+1)*t0 - 1.  Each arm is refitted on
    its own at the full width m by ``oracle_step``, and its estimate is the
    average of the clipped predictions, at its feature row, of the iterates
    taken before each sample.  The empirical optimum is HiGHS's, at the
    budget rate widened by twice the estimation radius M, and z = (T/B)(opt + M).
    """
    T, B = env.T, env.B
    phi = env.phi  # (K, m), the full width
    (K, m), d = phi.shape, env.theta.shape[0] - 1
    oracle = cfg.policy.oracle
    t0 = cfg.t0 or math.ceil((m * d) ** (1.0 / 3.0) * math.sqrt(T / K))

    # online regret bounds at t0 samples, times log T / t0; the cost bound is d times the reward's
    reg_r = m * max(1.0, math.log(t0)) if oracle == "glmtron" else math.sqrt(t0)
    err_f = cfg.err_scale * reg_r * math.log(T) / t0
    err_g = cfg.err_scale * d * reg_r * math.log(T) / t0
    m_val = math.sqrt(K * (err_f + d * err_g) + 4.0 * math.log(T * d) / t0)

    rounds = (K + 1) * t0
    spent = np.cumsum(trace.outcomes[:rounds, 1:], axis=0)
    over = np.flatnonzero((spent >= B - 1.0).any(axis=1))
    if over.size:
        return PhaseOneReplay(t0=t0, rounds=int(over[0]) + 1, aborted=True, m_val=m_val)

    link = _sigmoid if env.link == "logistic" else (lambda z: z)
    est = np.empty((K, 1 + d))  # arm a's averaged [reward | costs] estimate
    for a in range(K):
        theta, A, preds = np.zeros((1 + d, m)), np.eye(m), []
        for i in range(t0):
            preds.append(np.clip(link(theta @ phi[a]), 0.0, 1.0))
            theta, A = oracle_step(oracle, env.link, theta, A, i, phi[a],
                                   trace.outcomes[a * t0 + i])
        est[a] = np.mean(preds, axis=0)
    opt_hat = highs_opt(est[None, :, 0], est[None, :, 1:], B / T + 2.0 * m_val)
    return PhaseOneReplay(t0=t0, rounds=rounds, aborted=False, m_val=m_val,
                          opt_hat=opt_hat, z=(T / B) * (opt_hat + m_val))


def assert_twostage_replays(env, cfg, trace, p1) -> PhaseOneReplay:
    """Raise AssertionError unless ``trace`` is two-stage's and ``p1`` its phase one.

    Phase one's pulls, radius, empirical optimum and z are replayed by
    ``replay_phase_one``; the rounds after it are SquareCBwK's at
    T' = T - (K+1) t0 and B' = B - (K+1) t0, with phase one's z.
    """
    ref = replay_phase_one(env, cfg, trace)
    T, B, K = env.T, env.B, env.phi.shape[0]
    t0, n = ref.t0, ref.rounds
    assert p1.t0 == t0, (p1.t0, t0)
    assert math.isclose(p1.m_val, ref.m_val, rel_tol=PRICE_TOL), (p1.m_val, ref.m_val)

    forced = np.repeat(np.arange(K), t0)[:n]
    assert (trace.arms[:forced.size] == forced).all(), "forced pulls out of order"
    if env.null_arm:
        assert (trace.arms[forced.size:n] == K - 1).all(), "an arbitrary pull is not the null arm"
    assert (trace.probs[:n] == np.eye(K)[trace.arms[:n]]).all()
    assert np.isnan(trace.rhat[:n]).all() and np.isnan(trace.lam[:n]).all()
    assert math.isclose(trace.total_reward, float(trace.outcomes[:, 0].sum()),
                        rel_tol=PRICE_TOL, abs_tol=1e-9)

    assert trace.aborted_in_exploration == p1.exploration.aborted_in_exploration == ref.aborted
    if ref.aborted:
        assert trace.tau == n and trace.stopped_early and p1.opt_hat is None, trace.tau
        return ref
    assert math.isclose(p1.opt_hat, ref.opt_hat, rel_tol=0, abs_tol=OPT_TOL), \
        (p1.opt_hat, ref.opt_hat)
    assert math.isclose(p1.z, ref.z, rel_tol=OPT_TOL), (p1.z, ref.z)
    assert trace.dual_radius == p1.z
    if n == T:
        assert trace.tau == T
        return ref

    tail = replace(trace, **{f: getattr(trace, f)[n:]
                             for f in ("arms", "outcomes", "probs", "rhat", "lam")},
                   tau=trace.tau - n, total_reward=float(trace.outcomes[n:, 0].sum()))
    assert_replays(env, replace(cfg.policy, z=p1.z), tail, T=T - n, B=B - n)
    return ref
