import math

import numpy as np
import pytest

from cbwk.baseline import LinUcbConfig, run_linucb
from cbwk.core import (
    ArmFeatures,
    EnvironmentSpec,
    ProblemInstance,
    make_fixed_linear_env,
    make_glm_env,
)
from cbwk import policy
from cbwk.errors import ConfigurationError
from cbwk.oracles import VectorPredictor
from cbwk.policy import (
    PolicyConfig,
    gamma_default,
    igw_distribution,
    lagrangian_scores,
    run_squarecbwk,
)


def _constant_cost_env(cost_value: float, T: int, B: float, d: int = 1,
                       reward: float = 0.5, noise: float = 0.0):
    """Two-arm linear environment where every arm costs cost_value per round."""
    contexts = np.eye(2)
    theta = np.full((1 + d, 2), cost_value)
    theta[0] = reward
    return EnvironmentSpec(
        instance=ProblemInstance(T=T, B=B, d=d, K=2),
        theta=theta,
        contexts=ArmFeatures(contexts, norm_bound=1.0),
        noise_variance=noise,
    )


def test_gamma_default_hand_value():
    reg = 5 * math.log(10**4)
    assert gamma_default(4, 10**4, reg, reg, 1.0) == pytest.approx(12.17, abs=0.01)


def test_gamma_default_vanishes_with_huge_rates():
    assert gamma_default(4, 10**4, 1e12, 1e12, 1.0) < 1e-3


def test_gamma_default_single_arm_positive():
    assert gamma_default(1, 100, 10.0, 10.0, 1.0) > 0
    assert np.allclose(igw_distribution(np.array([0.3]), 5.0), [1.0])


def test_lagrangian_scores_examples():
    est = np.array([[0.6, 0.9], [0.1, 0.2]])  # per arm: [reward | cost]
    rhat = est[:, 0]
    assert np.allclose(lagrangian_scores(est, np.zeros(1), 0.5), rhat)
    scores = lagrangian_scores(est, np.array([2.0]), 0.5)
    assert scores[0] == pytest.approx(0.6 + 2.0 * (0.5 - 0.9), abs=1e-12)  # -0.2
    balanced = lagrangian_scores(np.array([[0.6, 0.5], [0.1, 0.5]]), np.array([7.0]), 0.5)
    assert np.allclose(balanced, rhat)


def test_igw_uniform_at_zero_gamma():
    assert np.allclose(igw_distribution(np.array([0.9, 0.1, 0.4]), 0.0), [1 / 3] * 3)


def test_igw_hand_example():
    p = igw_distribution(np.array([1.0, 0.5, 0.0]), 4.0)
    assert p[1] == pytest.approx(0.2, abs=1e-12)
    assert p[2] == pytest.approx(1 / 7, abs=1e-12)
    assert p[0] == pytest.approx(23 / 35, abs=1e-12)


def test_igw_equal_scores_uniform():
    p = igw_distribution(np.full(5, 0.3), 100.0)
    assert np.allclose(p, 0.2)


def test_igw_shift_invariance_and_validity():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        scores = rng.normal(size=4) * rng.choice([0.1, 1.0, 10.0])
        gamma = rng.uniform(0, 100)
        p = igw_distribution(scores, gamma)
        assert (p >= 0).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        shifted = igw_distribution(scores + 3.7, gamma)
        assert np.allclose(p, shifted, atol=1e-12)


def test_igw_ties_break_to_lowest_index():
    p = igw_distribution(np.array([0.5, 0.5, 0.1]), 10.0)
    assert p[0] > p[1]  # arm 0 is greedy, arm 1 keeps the IGW mass


def test_exit_fires_at_budget_minus_one():
    # deterministic unit costs, B = 10: cumulative reaches B-1 = 9 at round 9
    env = _constant_cost_env(1.0, T=50, B=10.0)
    trace = run_squarecbwk(env, PolicyConfig(gamma=1.0), np.random.default_rng(0))
    assert trace.tau == 9
    assert trace.stopped_early
    assert trace.total_cost[0] == pytest.approx(9.0, abs=1e-12)


@pytest.mark.parametrize("alg", ["glmtron", "ogd", "linucb"])
def test_budget_stop_rule_bounded_mode(alg):
    # bounded outcomes cost at most 1 per round, so stopping at B-1 keeps
    # every resource under B
    env = make_fixed_linear_env(10, 3, 4, 0.2, T=600, B=300, bounded=True)
    stops = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        trace = (run_linucb(env, LinUcbConfig(), rng) if alg == "linucb"
                 else run_squarecbwk(env, PolicyConfig(oracle=alg), rng))
        # before the exit round every resource was strictly under B-1
        assert (trace.costs[:trace.tau - 1].sum(axis=0) < 299.0).all()
        assert trace.total_cost.max() < 300.0
        if trace.stopped_early:
            stops += 1
            assert (trace.costs.sum(axis=0) >= 299.0).any()
        else:
            assert trace.tau == 600
    assert stops > 0


def test_budget_never_binds_with_zero_costs():
    env = _constant_cost_env(0.0, T=40, B=40.0)
    trace = run_squarecbwk(env, PolicyConfig(gamma=1.0), np.random.default_rng(0))
    assert trace.tau == 40
    assert not trace.stopped_early


def test_null_arm_only_environment_runs_full_horizon():
    env = make_fixed_linear_env(10, 3, 4, 0.0, T=30, B=30, null_arm=True)
    theta = env.theta.copy()
    theta[1:] = 0.0  # zero costs, the benchmark's reward
    env = EnvironmentSpec(instance=env.instance, theta=theta, contexts=env.contexts,
                          noise_variance=0.0, null_arm=True)
    trace = run_squarecbwk(env, PolicyConfig(), np.random.default_rng(1))
    assert trace.tau == 30


def test_probabilities_valid_every_round():
    env = make_fixed_linear_env(10, 3, 4, 0.2, T=300, B=300)
    for gamma in (None, 0.5, 50.0):
        trace = run_squarecbwk(env, PolicyConfig(gamma=gamma),
                               np.random.default_rng(2))
        sums = trace.probs.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-12
        assert (trace.probs >= 0).all()


class _CountingVector(VectorPredictor):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.updates = []
        self.replaced = []  # per update: did it assign a new theta array
        self.predictions = 0

    def update(self, phi, y):
        self.updates.append((np.array(phi), np.array(y)))
        before = self.theta
        super().update(phi, y)
        self.replaced.append(self.theta is not before)

    def predict_matrix(self, phis):
        self.predictions += 1
        return super().predict_matrix(phis)


class _FreshVector(VectorPredictor):
    """Every update assigns a new theta array, so the policy predicts every round."""

    def update(self, phi, y):
        super().update(phi, y)
        self.theta = self.theta.copy()


@pytest.mark.parametrize("oracle", ["glmtron", "ogd"])
def test_estimate_is_reused_while_theta_is_unchanged(oracle, monkeypatch):
    # B = T/4 with a null arm: most rounds pull the null arm, whose zero
    # features leave every parameter row inside the unit ball where it was.
    env = make_fixed_linear_env(10, 3, 4, 0.2, T=600, B=150, null_arm=True)
    config = PolicyConfig(oracle=oracle, bound_scale=0.01)

    def run(cls):
        made = []
        monkeypatch.setattr(policy, "make_vector_predictor",
                            lambda *args, **kwargs: made.append(cls(*args, **kwargs)) or made[-1])
        return run_squarecbwk(env, config, np.random.default_rng(6)), made[0]

    trace, o = run(_CountingVector)
    null = trace.arms == env.instance.K - 1
    assert 0.5 * trace.tau < null.sum() < trace.tau
    replaced = np.array(o.replaced)
    assert replaced[~null].all()  # a pulled feature row always moves theta
    # an OGD row can round to just above norm 1; the next step renormalizes it
    assert replaced[null].sum() <= 0.1 * null.sum()
    # one prediction in round 0, then one after each update that replaced theta
    assert o.predictions == 1 + sum(o.replaced[:-1])
    fresh, _ = run(_FreshVector)
    for field in ("arms", "outcomes", "probs", "rhat", "lam"):
        assert (getattr(trace, field) == getattr(fresh, field)).all(), field
    assert trace.tau == fresh.tau


def test_oracle_feed_discipline(monkeypatch):
    env = make_fixed_linear_env(10, 3, 4, 0.2, T=120, B=60, bounded=True)
    made = []

    def counting(kind, d, dim, **kwargs):
        made.append(_CountingVector(kind, d, dim, **kwargs))
        return made[-1]

    monkeypatch.setattr(policy, "make_vector_predictor", counting)
    trace = run_squarecbwk(env, PolicyConfig(), np.random.default_rng(3))
    (oracle,) = made
    # the stack learns on the K+1 columns that some arm's context uses
    assert (oracle.d, oracle.dim) == (5, 4)
    assert (env.contexts.span == env.contexts.phi[:, :4]).all()
    # one update per round, including the exit round; each used the pulled
    # arm's features and the realized reward (row 0) and costs (rows 1..d)
    assert len(oracle.updates) == trace.tau
    for t, (phi, y) in enumerate(oracle.updates):
        phi, y = phi.ravel(), y.ravel()  # the one stack's sample
        assert (phi == env.contexts.span[trace.arms[t]]).all()
        assert (y == trace.outcomes[t]).all()


def test_high_gamma_with_perfect_predictions_is_greedy(monkeypatch):
    env = make_fixed_linear_env(10, 3, 4, 0.0, T=200, B=200)
    span = slice(0, 4)  # arm a's context is e1/sqrt(2) + e_{a+1}
    oracle = VectorPredictor("glmtron", 5, 4)
    oracle.theta[0] = env.theta[:, span]
    monkeypatch.setattr(policy, "make_vector_predictor", lambda *args, **kwargs: oracle)
    trace = run_squarecbwk(env, PolicyConfig(gamma=1e9), np.random.default_rng(4))
    # arm 1 dominates: reward 1.21 (clipped prediction 1.0) vs 0.5
    assert np.mean(trace.arms == 0) >= 0.99
    assert trace.probs[:, 0].min() >= 1 - 1e-8


def test_policy_config_validation():
    with pytest.raises(ConfigurationError):
        PolicyConfig(gamma=-1.0)
    with pytest.raises(ConfigurationError):
        PolicyConfig(z=0.0)


def test_policy_on_bernoulli_environment():
    inst = ProblemInstance(T=150, B=150, d=2, K=3)
    rng = np.random.default_rng(5)
    contexts = rng.normal(size=(3, 4))
    contexts /= np.linalg.norm(contexts, axis=1, keepdims=True) * 1.1
    theta_r = rng.normal(size=4)
    theta_r /= np.linalg.norm(theta_r) * 1.2
    theta_c = rng.normal(size=(2, 4))
    theta_c /= np.linalg.norm(theta_c, axis=1, keepdims=True) * 1.2
    env = make_glm_env(inst, np.vstack([theta_r, theta_c]), contexts)
    trace = run_squarecbwk(env, PolicyConfig(oracle="glmtron"),
                           np.random.default_rng(6))
    assert trace.tau <= 150
    assert set(np.unique(trace.rewards)) <= {0.0, 1.0}
    assert trace.total_cost.max() < 150.0


@pytest.mark.parametrize("oracle", ["glmtron", "ogd"])
def test_all_zero_contexts_learn_on_a_zero_width_span(oracle):
    # every context is 0, so the span has no columns and the stack is
    # VectorPredictor(oracle, 1+d, 0): it predicts sigma(0) = 0.5 throughout
    env = make_glm_env(ProblemInstance(T=100, B=100, d=2, K=3), np.full((3, 4), 0.5),
                       np.zeros((3, 4)))
    assert env.contexts.span.shape == (3, 0)
    trace = run_squarecbwk(env, PolicyConfig(oracle=oracle), np.random.default_rng(8))
    assert trace.tau == 100 and not trace.stopped_early
    assert (trace.rhat == 0.5).all()


def test_dual_radius_default_is_horizon_over_budget():
    env = make_fixed_linear_env(10, 3, 4, 0.2, T=100, B=50, bounded=True)
    trace = run_squarecbwk(env, PolicyConfig(), np.random.default_rng(7))
    assert trace.dual_radius == pytest.approx(2.0)


@pytest.mark.parametrize("bounded, B, total", [(False, 2000, 2117.171263757395),
                                               (True, 1000, 1500.555561406486)])
def test_ogd_traces_do_not_depend_on_m(bounded, B, total, recorded_on):
    # Arm a's context is e1/sqrt(2) + e_{a+1}, so the features, the true
    # parameters and every OGD iterate live in the first K+1 coordinates, and
    # neither OGD's step size nor gamma depends on m.  The whole trace is
    # therefore bitwise the same at every m: the m sweep cannot show OGD's
    # dependence on dimension.
    traces = []
    for m in (10, 26, 52, 101):
        env = make_fixed_linear_env(m, 3, 4, 0.2, T=2000, B=B, bounded=bounded, null_arm=bounded)
        traces.append(run_squarecbwk(env, PolicyConfig(oracle="ogd", bound_scale=0.01),
                                     np.random.default_rng(1000)))
    first = traces[0]
    assert first.total_reward == total, recorded_on
    for other in traces[1:]:
        assert (other.tau, other.total_reward, other.gamma) == (first.tau, first.total_reward,
                                                                 first.gamma)
        for field in ("arms", "rewards", "costs", "probs", "rhat", "lam", "total_cost"):
            assert getattr(other, field).tobytes() == getattr(first, field).tobytes(), field


@pytest.mark.parametrize("bounded, B", [(False, 2000), (True, 1000)])
def test_glmtron_traces_do_not_depend_on_m_at_fixed_gamma(bounded, B):
    # GLMtron learns on the context set's span, the first K+1 coordinates, so
    # at a fixed gamma m reaches the run through nothing else: the sweep over
    # m changes GLMtron's runs only through gamma_default's m.
    traces = []
    for m in (10, 26, 52, 101):
        env = make_fixed_linear_env(m, 3, 4, 0.2, T=2000, B=B, bounded=bounded, null_arm=bounded)
        traces.append(run_squarecbwk(env, PolicyConfig(oracle="glmtron", gamma=30.0),
                                     np.random.default_rng(1000)))
    first = traces[0]
    for other in traces[1:]:
        assert (other.tau, other.total_reward, other.gamma) == (first.tau, first.total_reward,
                                                                 first.gamma)
        for field in ("arms", "rewards", "costs", "probs", "rhat", "lam", "total_cost"):
            assert getattr(other, field).tobytes() == getattr(first, field).tobytes(), field


def _igw_reference(scores, gamma):
    """The IGW formula on NumPy arrays, as the policy computed it before."""
    K = scores.size
    best = int(scores.argmax())
    p = 1.0 / (K + gamma * (scores[best] - scores))
    p[best] = 0.0
    p[best] = 1.0 - np.add.reduce(p)
    return p


def test_igw_on_floats_matches_the_array_formula():
    rng = np.random.default_rng(40)
    for _ in range(20000):
        K = int(rng.integers(1, 13))
        scores = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=K)
        if K > 2 and rng.random() < 0.3:  # a tie for the top score
            i, j = rng.choice(K, size=2, replace=False)
            scores[j] = scores[i] = scores.max() + 1.0
        gamma = rng.choice([0.0, rng.uniform(0, 1e4)])
        got, want = igw_distribution(scores, gamma), _igw_reference(scores, gamma)
        assert got.shape == (K,) and got.dtype == float
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        greedy = int(np.flatnonzero(scores == scores.max())[0])  # ties go to the lowest index
        assert (got[np.arange(K) != greedy] == want[np.arange(K) != greedy]).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 2])
def test_igw_rejects_a_non_finite_score(bad, where):
    scores = np.array([0.3, 0.1, 0.2, 0.5])
    scores[where] = bad
    with pytest.raises(ValueError, match="not all finite"):
        igw_distribution(scores, 10.0)


class _FixedDraw:
    """A generator stand-in whose ``random()`` returns a chosen value."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


def test_sample_arm_matches_searchsorted_on_and_beside_the_boundaries():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(2000):
        K = int(rng.integers(1, 13))
        p = igw_distribution(rng.normal(size=K), rng.uniform(0, 100))
        if rng.random() < 0.5:
            p = rng.dirichlet(np.full(K, 0.5))  # also sums that fall short of 1
        cum = np.add.accumulate(p)
        draws = [0.0, np.nextafter(1.0, 0.0)]
        for c in cum:
            draws += [c, np.nextafter(c, 0.0), np.nextafter(c, 2.0)]
        for r in draws:
            if not 0.0 <= r < 1.0:
                continue
            want = min(int(cum.searchsorted(r)), K - 1)
            assert policy._sample_arm(p, _FixedDraw(float(r))) == want
            checked += 1
    assert checked > 20000


def test_a_non_finite_cost_stops_the_run(monkeypatch):
    env = make_fixed_linear_env(10, 3, 4, 0.2, T=200, B=100)
    draw = policy.sample_outcome

    def poisoned(env, arm, rng):
        y = draw(env, arm, rng)
        y[2] = np.nan
        return y

    monkeypatch.setattr(policy, "sample_outcome", poisoned)
    with pytest.raises(ValueError, match="not finite"):
        run_squarecbwk(env, PolicyConfig(), np.random.default_rng(0))
