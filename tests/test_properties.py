"""Property tests over generated inputs: IGW validity, the dual simplex, the
allocation LP's weak duality, the oracles' zero-feature step.

Examples are derandomized so every run checks the same inputs, and nothing is
written to a Hypothesis example database.
"""

import copy

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from cbwk.dual import dual_init, dual_update  # noqa: E402
from cbwk.lp import solve_lp  # noqa: E402
from cbwk.oracles import ORACLE_KINDS, VectorPredictor  # noqa: E402
from cbwk.policy import igw_distribution  # noqa: E402


def fixed(max_examples):
    return settings(max_examples=max_examples, deadline=None, derandomize=True,
                    database=None)


# Coefficients on a 0.1 grid: ties, zeros and degenerate vertices come up
# often, while no entry falls below the simplex pivot tolerance.
tenths = st.integers(-20, 20).map(lambda v: v / 10)


@fixed(300)
@given(scores=arrays(float, st.integers(2, 30),
                     elements=st.floats(-1e3, 1e3, allow_nan=False)),
       gamma=st.floats(0.0, 1e8))
def test_igw_is_a_distribution_with_greedy_mass(scores, gamma):
    K = scores.size
    p = igw_distribution(scores, gamma)
    assert p.shape == (K,)
    assert (p >= 0).all()
    assert abs(p.sum() - 1.0) <= 1e-12
    assert p[np.argmax(scores)] >= 1.0 / K - 1e-12


@fixed(100)
@given(d=st.integers(1, 6), Z=st.floats(0.01, 100.0), T=st.integers(1, 10**6),
       budget_rate=st.floats(0.0, 2.0), data=st.data())
def test_dual_update_stays_on_the_simplex(d, Z, T, budget_rate, data):
    state = dual_init(d, Z, T)
    costs = data.draw(arrays(float, (50, d), elements=st.floats(-1e3, 1e3)))
    for cost in costs:
        dual_update(state, cost, budget_rate)
        assert state.weights.shape == (d + 1,)
        assert (state.weights >= 0).all()
        assert abs(state.weights.sum() - 1.0) <= 1e-12


@fixed(300)
@given(outcomes=arrays(float, st.tuples(st.integers(1, 6), st.integers(2, 5)),
                       elements=tenths),
       rate=st.integers(0, 10).map(lambda v: v / 10), data=st.data())
def test_allocation_lp_vertex_is_feasible_and_below_every_lagrangian_bound(outcomes, rate,
                                                                          data):
    # Feasible and no better than max_a r_a + lam.(rate - g_a) for any lam >= 0
    # (weak duality); no worse than any arm that fits the rate alone.
    rewards, costs = outcomes[:, 0], outcomes[:, 1:]
    sol = solve_lp(outcomes, rate)
    fits_alone = (costs <= rate).all(axis=1)
    if sol.status == "infeasible":
        assert not fits_alone.any()
        return
    assert sol.status == "optimal"
    assert (sol.x >= -1e-9).all() and abs(sol.x.sum() - 1.0) <= 1e-9
    assert (costs.T @ sol.x <= rate + 1e-9).all()
    assert sol.value == pytest.approx(rewards @ sol.x, abs=1e-12)
    assert (sol.value >= rewards[fits_alone] - 1e-9).all()
    lam = data.draw(arrays(float, costs.shape[1], elements=st.floats(0.0, 10.0)))
    assert sol.value <= (rewards + (rate - costs) @ lam).max() + 1e-9


# Row scales at and one ulp either side of the unit ball's edge, where OGD's
# renormalization and GLMtron's projection switch on.
UNIT_EDGE = (1.0, float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 0.0)))
ORACLE_SHAPES = [(kind, link, stacks) for kind in ORACLE_KINDS
                 for link in ("identity", "logistic") for stacks in (1, 3)]


@st.composite
def zero_feature_samples(draw):
    """A warmed-up oracle with drawn parameter rows, maybe corrupted from outside,
    and the targets of one zero-feature sample."""
    kind, link, stacks = draw(st.sampled_from(ORACLE_SHAPES))
    d, dim = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    oracle = VectorPredictor(kind, d, dim, stacks=stacks, link=link)
    for _ in range(draw(st.integers(0, 4))):  # a Gram matrix and a step count of its own
        oracle.update(rng.normal(size=(stacks, dim)), rng.normal(size=(stacks, d)))
    theta = rng.normal(size=(stacks, d, dim))
    for s in range(stacks):
        for j in range(d):
            scale = draw(st.one_of(st.sampled_from(UNIT_EDGE), st.floats(0.0, 3.0)))
            if draw(st.booleans()):  # on an axis, so the row norm is the scale itself
                theta[s, j] = 0.0
                theta[s, j, draw(st.integers(0, dim - 1))] = draw(st.sampled_from((-1, 1))) * scale
            else:
                theta[s, j] *= scale / np.linalg.norm(theta[s, j])
    oracle.theta = theta

    def index(n):
        return draw(st.integers(0, n - 1))

    corrupt = draw(st.sampled_from(("none", "none", "theta")
                                   + (("A", "A_inv") if kind == "glmtron" else ())))
    if corrupt != "none":  # as a caller holding the arrays could
        bad = draw(st.sampled_from((np.nan, np.inf, -np.inf, 1e200)))
        row = index(d) if corrupt == "theta" else index(dim)
        getattr(oracle, corrupt)[index(stacks), row, index(dim)] = bad
    y = draw(arrays(float, (stacks, d), elements=st.floats(-2.0, 2.0)))
    if draw(st.sampled_from((False, False, True))):
        y[index(stacks), index(d)] = draw(st.sampled_from((np.nan, np.inf, -np.inf, 1e200, -1e308)))
    return oracle, y


def _same_bits(a, b) -> bool:
    """Bitwise equal, except that -0.0 meets +0.0: the full step adds a signed 0 to each entry."""
    return (np.asarray(a) + 0.0).tobytes() == (np.asarray(b) + 0.0).tobytes()


@fixed(400)
@given(sample=zero_feature_samples())
def test_zero_feature_update_matches_the_full_step(sample):
    oracle, y = sample
    full = copy.deepcopy(oracle)
    previous = oracle.theta
    kept = previous.copy()
    zeros = np.zeros((oracle.theta.shape[0], oracle.dim))
    with np.errstate(all="ignore"):
        oracle.update(zeros, y)
        full._step(zeros, y)
    assert _same_bits(oracle.theta, full.theta)
    assert (oracle.t, oracle.reinit_count) == (full.t, full.reinit_count)
    if oracle.kind == "glmtron":
        assert _same_bits(oracle.A, full.A) and _same_bits(oracle.A_inv, full.A_inv)
    assert kept.tobytes() == previous.tobytes()  # the step wrote into no earlier theta
    assert (oracle.theta[~np.isfinite(y)] == 0.0).all()  # a poisoned row restarts at 0
    assert np.isfinite(oracle.theta).all()
