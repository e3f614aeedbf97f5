import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cbwk import oracles
from cbwk.core import (EnvironmentSpec, make_fixed_linear_env, make_glm_env, sample_outcome,
                       sample_outcomes)
from cbwk.errors import ConfigurationError, InfeasibleError
from cbwk.lp import exact_opt_fixed_context
from cbwk.oracles import BatchPredictor, online_to_batch
from cbwk.policy import PolicyConfig, run_squarecbwk
from lp_reference import brute_force_opt, tiled_empirical_opt
from cbwk.twostage import (
    TwoStageConfig,
    empirical_opt,
    estimation_errors,
    explore,
    m_t0,
    phase_one,
    run_twostage,
    t0_default,
    z_estimate,
)


def test_t0_default_linear_hand_value():
    assert t0_default(m=5, d=4, K=3, T=10**4) == 157


def test_t0_default_unit_parameters():
    assert t0_default(m=1, d=1, K=1, T=100) == 10


def test_t0_default_guard():
    with pytest.raises(ConfigurationError):
        t0_default(m=50, d=40, K=10, T=100)


def _two_arm_env(cost_value=0.5, T=60, B=60.0, d=2, noise=0.0, null_arm=False):
    phi = np.eye(2)
    if null_arm:
        phi = np.array([[1.0, 0.0], [0.0, 0.0]])
    return EnvironmentSpec(
        theta=np.vstack([[0.8, 0.4], np.full((d, 2), cost_value)]),
        phi=phi,
        T=T,
        B=B,
        noise_variance=noise,
        null_arm=null_arm,
    )


def test_explore_counts():
    env = _two_arm_env()
    result = explore(env, 3, np.random.default_rng(0))
    assert not result.aborted_in_exploration and not result.stopped_early
    assert result.arms.size == 9  # (K+1) * T0
    assert result.rewards.shape == (9,) and result.costs.shape == (9, 2)
    # arm a's samples are rounds a*t0 .. (a+1)*t0 - 1; noiseless, they are its means
    for a, reward in enumerate((0.8, 0.4)):
        rows = slice(3 * a, 3 * (a + 1))
        assert (result.arms[rows] == a).all()
        assert (result.rewards[rows] == reward).all()
        assert (result.costs[rows] == 0.5).all()
    assert ((0 <= result.arms[6:]) & (result.arms[6:] < 2)).all()  # the arbitrary pulls
    assert result.total_cost == pytest.approx(result.costs.sum(axis=0), abs=1e-12)


def test_explore_null_arm_pulls_consume_nothing():
    env = _two_arm_env(null_arm=True)
    result = explore(env, 4, np.random.default_rng(1))
    tail = result.costs[8:]  # the arbitrary-pull block
    assert (tail == 0.0).all()
    assert (result.arms[8:] == 1).all()


def test_explore_abort_on_exhausted_budget():
    env = _two_arm_env(cost_value=1.0, T=20, B=6.0)
    result = explore(env, 3, np.random.default_rng(2))
    assert result.aborted_in_exploration and result.stopped_early
    assert result.arms.size == 5  # cumulative cost hits B-1 = 5 at round 5
    assert result.total_cost.max() == pytest.approx(5.0, abs=1e-12)


def _assert_trace_invariants(trace, K, d):
    """What every run_rounds trace satisfies: one distribution and one outcome per round."""
    tau = trace.tau
    assert tau == trace.arms.size == trace.rewards.size
    assert trace.outcomes.shape == (tau, 1 + d) and trace.lam.shape == (tau, d)
    assert trace.probs.shape == trace.rhat.shape == (tau, K)
    assert (trace.probs >= 0.0).all()
    assert np.abs(trace.probs.sum(axis=1) - 1.0).max() <= 1e-12
    assert (trace.probs[np.arange(tau), trace.arms] > 0.0).all()  # the pulled arm had mass
    assert trace.total_reward == pytest.approx(trace.rewards.sum(), abs=1e-9)
    assert trace.total_cost == pytest.approx(trace.costs.sum(axis=0), abs=1e-9)


def test_explore_trace_meets_the_run_rounds_invariants():
    env = make_fixed_linear_env(10, 3, 4, 0.2, T=400, B=200)
    _assert_trace_invariants(run_squarecbwk(env, PolicyConfig(), np.random.default_rng(3)),
                             3, 4)
    full = explore(env, 20, np.random.default_rng(3))
    _assert_trace_invariants(full, 3, 4)
    assert full.tau == 4 * 20
    assert (full.probs[np.arange(full.tau), full.arms] == 1.0).all()  # one-hot pulls
    assert np.isnan(full.rhat).all() and np.isnan(full.lam).all()
    aborted = explore(_two_arm_env(cost_value=1.0, T=20, B=6.0), 3, np.random.default_rng(2))
    _assert_trace_invariants(aborted, 2, 2)


def _explore_reference(env, t0, rng):
    """Phase one as a plain loop: one ``sample_outcome`` per round, the B - 1 test each round."""
    K, d, B = env.K, env.d, env.B
    arms, rows, consumed = [], [], np.zeros(d)
    for t in range((K + 1) * t0):
        if t < K * t0:
            arm = t // t0
        else:
            arm = K - 1 if env.null_arm else int(rng.integers(K))
        y = sample_outcome(env, arm, rng)
        arms.append(arm)
        rows.append(y)
        consumed += y[1:]
        if (consumed >= B - 1.0).any():
            return np.array(arms), np.array(rows), consumed, True
    return np.array(arms), np.array(rows), consumed, False


def _explore_envs(T, B):
    rng = np.random.default_rng(5)
    contexts = rng.normal(size=(3, 4))
    contexts /= np.linalg.norm(contexts, axis=1, keepdims=True) * 1.1
    theta = rng.normal(size=(3, 4))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True) * 1.2
    return {
        "replication": make_fixed_linear_env(10, 3, 4, 0.2, T=T, B=B),
        "bounded-null": make_fixed_linear_env(12, 5, 4, 0.2, T=T, B=B, bounded=True,
                                              null_arm=True),
        "logistic": make_glm_env(theta, contexts, T, B),
    }


def _assert_explore_is_the_loop(env, t0, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    trace = explore(env, t0, rng)
    arms, rows, consumed, aborted = _explore_reference(env, t0, ref_rng)
    assert np.array_equal(trace.arms, arms)
    assert trace.outcomes.tobytes() == rows.tobytes()
    assert trace.total_cost.tobytes() == consumed.tobytes()
    assert trace.total_reward == float(rows[:, 0].sum())
    assert trace.tau == arms.size
    assert trace.aborted_in_exploration == trace.stopped_early == aborted
    if not aborted:
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    return trace


@pytest.mark.parametrize("name", ["replication", "bounded-null", "logistic"])
def test_explore_is_bitwise_the_per_round_loop(name):
    t0 = 30
    env = _explore_envs(T=2000, B=2000)[name]
    full = _assert_explore_is_the_loop(env, t0, seed=7)
    K = env.K
    assert not full.aborted_in_exploration and full.tau == (K + 1) * t0
    spent = np.cumsum(full.costs, axis=0).max(axis=1)  # the binding resource's consumption
    # exit levels reached at a round inside the forced block, at its last round, at the
    # first and a middle arbitrary pull (which the null arm never spends on), and at the
    # last round; the stop may come earlier, where the consumption first reaches the level
    levels = {"forced": K * t0 // 2, "last forced": K * t0 - 1, "last": (K + 1) * t0 - 1}
    if not env.null_arm:
        levels.update({"first arbitrary": K * t0, "arbitrary": K * t0 + t0 // 2})
    for block, t in levels.items():
        cut = _assert_explore_is_the_loop(replace(env, B=spent[t] + 1.0), t0, seed=7)
        assert cut.aborted_in_exploration and cut.tau <= t + 1
        if block in ("forced", "arbitrary"):
            assert (cut.tau <= K * t0) == (block == "forced")


def test_sample_outcomes_draws_what_sample_outcome_draws():
    env = _explore_envs(T=2000, B=2000)["bounded-null"]
    arms = np.random.default_rng(0).integers(0, env.K, size=200)
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    got = sample_outcomes(env, arms, rng)
    want = np.array([sample_outcome(env, int(a), ref_rng) for a in arms])
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert (got[arms == env.K - 1] == 0.0).all()
    with pytest.raises(IndexError):
        sample_outcomes(env, [0, env.K], rng)


def test_m_t0_hand_values():
    assert m_t0(4, 5, 1, 0.0, 0.0, math.e) == pytest.approx(1.0, abs=1e-12)
    expected = math.sqrt(3 * (0.01 + 4 * 0.01) + 4 * math.log(4e4) / 157)
    assert m_t0(157, 3, 4, 0.01, 0.01, 10**4) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.648, abs=1e-3)


def test_m_t0_log_term_halves_when_t0_doubles():
    lhs = m_t0(100, 1, 1, 0.0, 0.0, 50) ** 2
    rhs = m_t0(200, 1, 1, 0.0, 0.0, 50) ** 2
    assert rhs == pytest.approx(lhs / 2)


def test_estimation_errors_closed_forms():
    ef, eg = estimation_errors("glmtron", m=5, d=4, t0=100, T=1000)
    assert ef == pytest.approx(5 * math.log(100) * math.log(1000) / 100)
    assert eg == pytest.approx(4 * ef)
    ef, eg = estimation_errors("ogd", m=5, d=2, t0=100, T=1000)
    assert ef == pytest.approx(10 * math.log(1000) / 100)
    assert eg == pytest.approx(2 * ef)


def _constant_fits(*arms, dim=2):
    # identity-link stacks, one per arm, whose first-coordinate weights reproduce each arm's values
    params = np.zeros((len(arms), len(arms[0]), 1, dim))
    params[:, :, 0, 0] = arms
    return BatchPredictor(params, "identity")


E1_BOTH = np.array([[1.0, 0.0], [1.0, 0.0]])  # both arms see feature e1


def test_empirical_opt_hand_instance():
    fits = _constant_fits((0.9, 0.8), (0.2, 0.1))
    value = empirical_opt(fits, E1_BOTH, 0.45, 0.0)
    assert value == pytest.approx(0.55, abs=1e-9)


def test_empirical_opt_zero_costs_gives_max_reward():
    fits = _constant_fits((0.7, 0.0), (0.3, 0.0))
    value = empirical_opt(fits, E1_BOTH, 0.2, 0.0)
    assert value == pytest.approx(0.7, abs=1e-9)


def test_empirical_opt_constant_objective():
    fits = _constant_fits((0.4, 0.3), (0.4, 0.2))
    value = empirical_opt(fits, E1_BOTH, 0.5, 0.0)
    assert value == pytest.approx(0.4, abs=1e-9)


def test_empirical_opt_permutation_invariant():
    # relabelling the arms, with their stacks and feature rows, leaves the optimum unchanged
    rng = np.random.default_rng(3)
    K, m, d = 4, 3, 2
    phi = rng.random((K, m)) / 2
    fits = BatchPredictor(rng.random((K, 1 + d, 3, m)) / 2, "identity")
    base = empirical_opt(fits, phi, 0.3, 0.05)
    perm = rng.permutation(K)
    shuffled = empirical_opt(BatchPredictor(fits.params[perm], "identity"), phi[perm], 0.3, 0.05)
    assert shuffled == pytest.approx(base, abs=1e-9)


def _random_empirical_instance(rng, null_arm):
    """Random batch stacks over a random context set; a null arm is a zero feature row."""
    K, d, m = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(2, 6))
    link = "logistic" if rng.random() < 0.25 else "identity"
    phi = rng.random((K, m)) / math.sqrt(m)
    if null_arm:
        phi[-1] = 0.0
        link = "identity"  # its predictions are then exactly zero
    fits = BatchPredictor(rng.normal(size=(K, 1 + d, int(rng.integers(1, 5)), m)), link)
    return fits, phi


def test_empirical_opt_matches_tiled_program_and_brute_force():
    # The program over t0 copies of the one context set and the vertex
    # enumeration of the K-variable program agree with empirical_opt.
    rng = np.random.default_rng(11)
    outcomes = {"optimal": 0, "infeasible": 0, "null": 0, "widened": 0}
    for i in range(240):
        null_arm = i % 3 == 0
        fits, phi = _random_empirical_instance(rng, null_arm)
        rate = float(rng.uniform(0.02, 0.9))
        m_val = 0.0 if i % 2 else float(rng.uniform(0.0, 0.3))
        outcomes["null"] += null_arm
        outcomes["widened"] += m_val > 0
        preds = fits.predict_matrix(phi[:, None])[:, 0]
        try:
            want = brute_force_opt(preds[:, 0], preds[:, 1:], rate + 2.0 * m_val)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                empirical_opt(fits, phi, rate, m_val)
            for t0 in (1, 3, 17):
                with pytest.raises(InfeasibleError):
                    tiled_empirical_opt(fits, phi, t0, rate, m_val)
            outcomes["infeasible"] += 1
            continue
        got = empirical_opt(fits, phi, rate, m_val)
        assert got == pytest.approx(want, abs=1e-9)
        for t0 in (1, 3, 17):
            assert tiled_empirical_opt(fits, phi, t0, rate, m_val) == pytest.approx(got, abs=1e-9)
        outcomes["optimal"] += 1
    assert outcomes["optimal"] >= 150 and outcomes["infeasible"] >= 5
    assert outcomes["null"] >= 50 and outcomes["widened"] >= 50


def test_z_estimate_values():
    assert z_estimate(0.55, 0.05, 200, 100) == pytest.approx(1.2, abs=1e-12)
    assert z_estimate(0.7, 0.0, 300, 100) == pytest.approx(3 * 0.7)
    assert z_estimate(0.6, 0.3, 100, 100) <= 1.0


def test_run_twostage_degenerate_split():
    env = make_fixed_linear_env(10, 3, 4, 0.0, T=20, B=20)
    cfg = TwoStageConfig(t0=5)  # (K+1) * 5 = 20 = T: phase 2 is empty
    with pytest.warns(RuntimeWarning):
        trace = run_twostage(env, cfg, np.random.default_rng(4))
    assert trace.tau == 20
    opt = exact_opt_fixed_context(env.expected_outcomes(), 1.0)
    assert 20 * opt - trace.total_reward == pytest.approx(
        20 * opt - trace.rewards.sum(), abs=1e-9)
    assert np.isnan(trace.rhat).all()
    assert trace.dual_radius > 0  # the phase-one Z, though no phase-2 round used it


def test_run_twostage_phase_boundaries():
    env = make_fixed_linear_env(10, 3, 4, 0.01, T=400, B=400)
    cfg = TwoStageConfig(t0=20)
    with pytest.warns(RuntimeWarning):
        trace = run_twostage(env, cfg, np.random.default_rng(5))
    n1 = 4 * 20
    assert trace.tau > n1
    assert np.isnan(trace.rhat[:n1]).all()
    assert np.isfinite(trace.rhat[n1:]).all()
    # phase-1 probabilities are one-hot on the pulled arm
    assert np.abs(trace.probs.sum(axis=1) - 1.0).max() <= 1e-12
    assert trace.dual_radius > 0


def test_run_twostage_aborts_cleanly_when_budget_tiny():
    env = _two_arm_env(cost_value=1.0, T=40, B=6.0)
    cfg = TwoStageConfig(t0=3)
    with pytest.warns(RuntimeWarning):
        trace = run_twostage(env, cfg, np.random.default_rng(6))
    assert trace.aborted_in_exploration
    assert trace.tau == 5
    assert trace.total_cost.max() < 6.0


def test_phase_one_datasets_and_estimates():
    env = make_fixed_linear_env(10, 3, 4, 0.01, T=2000, B=1000)
    p1 = phase_one(env, TwoStageConfig(), np.random.default_rng(7))
    assert not p1.exploration.aborted_in_exploration
    t0, expl = p1.t0, p1.exploration
    assert expl.arms.size == 4 * t0
    assert p1.opt_hat is not None and p1.z is not None
    assert p1.z == pytest.approx((2000 / 1000) * (p1.opt_hat + p1.m_val))
    # one stack per arm over the span's K+1 columns; each arm's stack, and
    # each target's row of it, is what a one-stack pass over its slice gives
    span = env.span
    assert span.shape == (3, 4) and p1.fits.params.shape == (3, 1 + 4, t0, 4)
    preds = np.empty((3, 1 + 4))
    for a in range(3):
        rows = slice(a * t0, (a + 1) * t0)
        assert (expl.arms[rows] == a).all()
        features = np.tile(span[a], (t0, 1, 1))  # one stack: (t0, 1, dim)
        alone = online_to_batch("glmtron", features, expl.costs[rows, 1][:, None, None])
        assert (p1.fits.params[a, 2] == alone.params[0, 0]).all()
        arm = online_to_batch("glmtron", features, expl.outcomes[rows][:, None])
        preds[a] = arm.predict_matrix(span[a][None, None])[0, 0]
    opt_hat = exact_opt_fixed_context(preds, 1000 / 2000 + 2.0 * p1.m_val)
    assert p1.opt_hat == pytest.approx(opt_hat, abs=1e-12)


def _adversarial_arm_streams(rng, K, M, dim, n):
    # mixed feature scales and large targets push iterates out of the ball;
    # one overflowing feature row in stack 1 forces a reinitialization
    scale = rng.choice([0.1, 1.0, 3.0], size=(M, K, 1))
    features = rng.normal(size=(M, K, dim)) * scale
    features[M // 2, 1] *= 1e170
    targets = rng.choice([-3.0, 0.0, 0.5, 1.0, 4.0], size=(M, K, n))
    return features, targets


@pytest.mark.parametrize("link", ["identity", "logistic"])
@pytest.mark.parametrize("kind", ["glmtron", "ogd"])
def test_stacked_fit_matches_one_stack_per_arm(kind, link, monkeypatch):
    """Phase one's K-stack online-to-batch pass against K one-stack passes."""
    projected, reinits = [], []
    project, reinitialize = oracles._project_a_norm, oracles.VectorPredictor._reinitialize

    def counting_project(A, v, norms):
        projected.append(len(v))
        return project(A, v, norms)

    def counting_reinitialize(self, stacks):
        reinits.append(int(np.count_nonzero(stacks)))
        return reinitialize(self, stacks)

    monkeypatch.setattr(oracles, "_project_a_norm", counting_project)
    monkeypatch.setattr(oracles.VectorPredictor, "_reinitialize", counting_reinitialize)
    K, M, dim, d = 4, 150, 5, 2
    rng = np.random.default_rng(12)
    features, targets = _adversarial_arm_streams(rng, K, M, dim, 1 + d)
    phi = rng.random((K, dim)) / math.sqrt(dim)
    probe = rng.normal(size=(6, dim))

    with np.errstate(over="ignore", invalid="ignore"):
        stacked = online_to_batch(kind, features, targets, link=link)
        alone = [online_to_batch(kind, features[:, a:a + 1], targets[:, a:a + 1], link=link)
                 for a in range(K)]
    if kind == "glmtron":
        assert sum(projected) > 0 and sum(reinits) > 0
    assert stacked.params.shape == (K, 1 + d, M, dim)
    shared = stacked.predict_matrix(np.broadcast_to(probe, (K,) + probe.shape))
    own = stacked.predict_matrix(phi[:, None])[:, 0]
    for a, fit in enumerate(alone):
        assert np.abs(shared[a] - fit.predict_matrix(probe[None])[0]).max() <= 1e-12
        assert np.abs(own[a] - fit.predict_matrix(phi[None, a:a + 1])[0, 0]).max() <= 1e-12
    rate = own[:, 1:].max(axis=1).min()  # the cheapest arm alone is just feasible
    for rate, m_val in ((rate, 0.0), (rate - 0.05, 0.05)):
        want = exact_opt_fixed_context(own, rate + 2.0 * m_val)
        assert empirical_opt(stacked, phi, rate, m_val) == pytest.approx(want, abs=1e-12)
        per_arm = np.array([fit.predict_matrix(phi[None, a:a + 1])[0, 0]
                            for a, fit in enumerate(alone)])
        want_alone = exact_opt_fixed_context(per_arm, rate + 2.0 * m_val)
        assert empirical_opt(stacked, phi, rate, m_val) == pytest.approx(want_alone, abs=1e-12)


@pytest.mark.parametrize("policy", [PolicyConfig(oracle="ogd", bound_scale=0.01),
                                    PolicyConfig(bound_scale=0.01),
                                    PolicyConfig(gamma=40.0),
                                    PolicyConfig(z=5.0, bound_scale=0.01)])
def test_run_twostage_is_phase_one_then_squarecbwk(policy):
    # One PolicyConfig drives both phases: phase one fits with its oracle, and
    # phase 2 is run_squarecbwk on the rest with z = Z, whatever policy.z says.
    T, B, K, d, m, t0 = 1200, 900.0, 3, 4, 10, 40
    env = make_fixed_linear_env(m, K, d, 0.1, T=T, B=B)
    cfg = TwoStageConfig(t0=t0, policy=policy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the precondition warning
        trace = run_twostage(env, cfg, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    p1 = phase_one(env, cfg, rng)
    n1 = (K + 1) * t0
    env2 = replace(env, T=T - n1, B=B - n1)
    tail = run_squarecbwk(env2, replace(policy, z=p1.z), rng)
    head = p1.exploration

    for f in ("arms", "rewards", "costs", "probs", "rhat", "lam"):
        joined = np.concatenate([getattr(head, f), getattr(tail, f)])
        assert np.array_equal(getattr(trace, f), joined, equal_nan=True), f
    assert trace.tau == head.tau + tail.tau > n1
    assert trace.total_reward == head.total_reward + tail.total_reward
    assert (trace.total_cost == head.total_cost + tail.total_cost).all()
    assert trace.dual_radius == p1.z and trace.gamma == tail.gamma
    if policy.gamma is not None:
        assert trace.gamma == policy.gamma

    # phase one sized its radius and fitted its arms with the policy's oracle
    err_f, err_g = estimation_errors(policy.oracle, m, d, t0, T)
    assert p1.m_val == m_t0(t0, K, d, err_f, err_g, T)
    rows = slice(0, t0)
    fit = online_to_batch(policy.oracle, np.tile(env.span[0], (t0, 1, 1)),
                          head.outcomes[rows][:, None])
    assert (p1.fits.params[0] == fit.params[0]).all()


def test_radius_sandwich_quick():
    # 10-seed version of the radius check; the acceptance suite runs 50 seeds
    T, B = 2000, 1000
    env = make_fixed_linear_env(10, 3, 4, 0.01, T=T, B=B)
    opt = exact_opt_fixed_context(env.expected_outcomes(), B / T)
    lower = upper = 0
    for seed in range(10):
        p1 = phase_one(env, TwoStageConfig(), np.random.default_rng(seed))
        if p1.z >= T * opt / B:
            lower += 1
        if p1.z <= (6 * T * p1.m_val / B + 1) * (T * opt / B + 1):
            upper += 1
    assert lower >= 9
    assert upper >= 9


def test_twostage_config_validation():
    with pytest.raises(ConfigurationError):
        TwoStageConfig(t0=0)
    env = _two_arm_env(T=10, B=10.0)
    with pytest.raises(ConfigurationError):
        explore(env, 5, np.random.default_rng(0))  # (K+1)*5 > T
