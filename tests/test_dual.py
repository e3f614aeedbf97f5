import math

import numpy as np
import pytest

from cbwk.dual import DualState, dual_init, dual_lambda, dual_update
from cbwk.errors import ConfigurationError


def test_init_uniform():
    assert np.allclose(dual_init(1, 1.0, 10).weights, [0.5, 0.5])
    assert np.allclose(dual_init(3, 1.0, 10).weights, [0.25] * 4)


def test_init_eta_formula():
    state = dual_init(1, 1.0, 100)
    assert state.eta == pytest.approx(math.sqrt(math.log(2) / 100), abs=1e-12)
    assert state.eta == pytest.approx(0.08326, abs=1e-5)


def test_init_rejects_bad_inputs():
    # the run configs' wording; an infinite radius would give NaN prices
    for args, message in (((1, 0.0, 10), "Z > 0 violated (got 0.0)"),
                          ((1, 1.0, 0), "T >= 1 violated (got 0)"),
                          ((0, 1.0, 10), "d >= 1 violated (got 0)"),
                          ((1, math.inf, 10), "Z must be finite (got inf)")):
        with pytest.raises(ConfigurationError) as err:
            dual_init(*args)
        assert err.value.violations == [message]


def test_lambda_scaling_and_slack():
    state = dual_init(1, 2.0, 10)
    assert np.allclose(dual_lambda(state), [1.0])
    # a state is built from log-weights; -inf is a weight of exactly 0
    slack_only = DualState(logw=[-np.inf, -np.inf, 0.0], Z=5.0, eta=0.1)
    assert np.array_equal(slack_only.weights, [0.0, 0.0, 1.0])
    assert np.allclose(dual_lambda(slack_only), [0.0, 0.0])
    first_only = DualState(logw=[7.0, -np.inf, -np.inf], Z=3.0, eta=0.1)
    assert np.array_equal(first_only.weights, [1.0, 0.0, 0.0])
    assert np.allclose(dual_lambda(first_only), [3.0, 0.0])


def test_balanced_consumption_is_noop():
    state = dual_init(2, 1.0, 100)
    before = state.weights.copy()
    dual_update(state, np.full(2, 0.37), 0.37)
    assert np.allclose(state.weights, before, atol=1e-15)


def test_over_consumption_raises_price():
    state = dual_init(1, 1.0, 100)
    state.eta = 0.1
    dual_update(state, np.array([1.0]), 0.0)  # budget_rate - cost = -1
    assert state.weights[0] == pytest.approx(0.52497, abs=1e-5)
    assert state.weights[1] == pytest.approx(0.47503, abs=1e-5)


def test_under_consumption_lowers_price():
    state = dual_init(1, 1.0, 100)
    state.eta = 0.1
    dual_update(state, np.array([-1.0]), 0.0)  # budget_rate - cost = +1
    assert state.weights[0] == pytest.approx(0.47503, abs=1e-5)


def test_single_step_monotonicity():
    state = dual_init(3, 1.0, 100)
    dual_update(state, np.array([0.9, 0.1, 0.1]), 0.5)
    assert state.weights[0] > state.weights[1]
    assert np.isclose(state.weights[1], state.weights[2])
    assert state.weights[0] > 0.25


def test_simplex_preserved_over_many_updates():
    rng = np.random.default_rng(0)
    state = dual_init(4, 2.0, 10**6)
    costs = rng.uniform(-1.0, 2.0, size=(10**6, 4))
    for c in costs:
        dual_update(state, c, 0.5)
    assert (state.weights >= 0).all()
    assert abs(state.weights.sum() - 1.0) <= 1e-9
    lam = dual_lambda(state)
    assert (lam >= 0).all()
    assert lam.sum() <= state.Z + 1e-9


def test_update_shape_error():
    state = dual_init(2, 1.0, 10)
    with pytest.raises(ConfigurationError):
        dual_update(state, np.zeros(3), 0.5)


def test_oco_regret_bound_adversarial_streams():
    d, Z, T = 4, 2.0, 10**4
    bound = 5 * Z * math.sqrt(T * math.log(d + 1))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        state = dual_init(d, Z, T)
        thetas = rng.choice([-1.0, 1.0], size=(T, d))
        total = 0.0
        for t in range(T):
            total += thetas[t] @ dual_lambda(state)
            # loss vector theta equals budget_rate - cost with cost = -theta
            dual_update(state, -thetas[t], 0.0)
        best_fixed = min(0.0, Z * thetas.sum(axis=0).min())
        assert total - best_fixed <= bound


def _closed_form_weights(eta, grads):
    """Per prefix of the gradient stream: w proportional to exp(-eta * sum of gradients)."""
    logw = -eta * np.cumsum(grads, axis=0)
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    return w / w.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("stream", ["random", "underflow"])
def test_log_weight_update_matches_closed_form(stream):
    """10^4 updates track the closed-form EG weights to 1e-12 after every step.

    On the underflow stream resource 0 is refunded 20 units a round for the
    first half, so its log-weight falls more than 745 below the largest and
    its weight reads exactly 0 for thousands of rounds, as the closed form's
    does.  It then over-consumes by as much, and the weight comes back: the
    log-weight was kept, so 0 is not absorbing.  (Updating log(weights)
    instead would have pinned it at log(0) = -inf for good.)
    """
    n, d, rate = 10**4, 4, 0.5
    costs = np.random.default_rng(3).uniform(-1.0, 2.0, size=(n, d))
    if stream == "underflow":
        costs[:, 0] = np.where(np.arange(n) < n // 2, -20.0, 21.0)
    state = dual_init(d, 2.0, n)
    got = np.empty((n, d + 1))
    for t in range(n):
        dual_update(state, costs[t], rate)
        got[t] = state.weights
    grads = np.zeros((n, d + 1))
    grads[:, :-1] = rate - costs
    want = _closed_form_weights(state.eta, grads)
    assert np.abs(got - want).max() <= 1e-12
    assert state.t == n
    if stream == "underflow":
        zero = got[:, 0] == 0.0
        assert zero.sum() > 1000 and np.array_equal(zero, want[:, 0] == 0.0)
        assert got[-1, 0] > 0.1


def test_float_step_matches_the_array_formula():
    """10^5 steps: the log-weights are the array formula's bit for bit; the
    weights and prices, which use math.exp, are within 1e-12 relative."""
    n, d, Z, rate = 10**5, 4, 3.0, 0.4
    costs = np.random.default_rng(42).uniform(-1.0, 2.0, size=(n, d))
    state = dual_init(d, Z, 10**3)  # eta about 0.04: the weights roam the simplex
    logw = np.zeros(d + 1)
    worst = 0.0
    for c in costs:
        dual_update(state, c, rate)
        logw[:-1] += state.eta * (c - rate)
        logw -= np.maximum.reduce(logw)
        w = np.exp(logw)
        w /= np.add.reduce(w)
        assert state.logw == logw.tolist()
        got = np.concatenate([state.weights, dual_lambda(state)])
        want = np.concatenate([w, Z * w[:-1]])
        assert (want > 0.0).all()
        worst = max(worst, float((np.abs(got - want) / want).max()))
    assert worst <= 1e-12
    assert state.t == n


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cost_raises_and_leaves_the_state(bad):
    state = dual_init(3, 2.0, 100)
    dual_update(state, np.array([0.2, 0.9, 0.4]), 0.5)
    logw, lam = list(state.logw), dual_lambda(state).copy()
    with pytest.raises(ValueError, match="not finite"):
        dual_update(state, np.array([0.2, bad, 0.4]), 0.5)
    assert state.logw == logw and (dual_lambda(state) == lam).all() and state.t == 1
