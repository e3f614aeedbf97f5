"""Property tests over generated inputs: IGW validity, the dual simplex, LP duality.

Examples are derandomized so every run checks the same inputs, and nothing is
written to a Hypothesis example database.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from cbwk.dual import dual_init, dual_update  # noqa: E402
from cbwk.lp import LpProblem, solve_lp  # noqa: E402
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


@st.composite
def bounded_feasible_lps(draw):
    """max c.x s.t. A x <= b, x >= 0, feasible at a drawn x0 and bounded by sum x <= s."""
    n = draw(st.integers(1, 5))
    rows = draw(st.integers(0, 4))
    c = draw(arrays(float, n, elements=tenths))
    a = draw(arrays(float, (rows, n), elements=tenths))
    x0 = draw(arrays(float, n, elements=st.integers(0, 10).map(lambda v: v / 10)))
    slack = draw(arrays(float, rows, elements=st.integers(0, 10).map(lambda v: v / 10)))
    s = x0.sum() + draw(st.integers(0, 10)) / 10
    a_ub = np.vstack([a, np.ones((1, n))])
    b_ub = np.concatenate([a @ x0 + slack, [s]])  # rows may have b < 0
    return c, a_ub, b_ub


@fixed(300)
@given(lp=bounded_feasible_lps())
def test_lp_strong_duality_through_dual_ub(lp):
    c, a_ub, b_ub = lp
    sol = solve_lp(LpProblem(c=c, a_ub=a_ub, b_ub=b_ub))
    assert sol.status == "optimal"
    y = sol.dual_ub
    assert (y >= -1e-9).all()                        # dual feasible: y >= 0
    assert (a_ub.T @ y >= c - 1e-9).all()            # and A^T y >= c
    assert (a_ub @ sol.x <= b_ub + 1e-9).all() and (sol.x >= -1e-9).all()
    assert sol.value == pytest.approx(b_ub @ y, abs=1e-9)  # no duality gap
