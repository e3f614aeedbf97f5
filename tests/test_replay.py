"""SquareCBwK, LinUCB and two-stage runs re-derived round by round from their formulas.

The golden digests pin the engine's bits; this checks that those bits are
the algorithm.  Each of GOLDEN's SquareCBwK, LinUCB and two-stage cases is
run as it is there and replayed by ``replay_reference``, which learns at the
full width without the engine's fast paths (the span, the stacked
Sherman-Morrison inverse, the zero-feature step, estimate reuse, the
log-weight dual, phase one's stacked fit and its K-variable simplex).
"""

import numpy as np
import pytest

from cbwk.baseline import LinUcbConfig, run_linucb
from cbwk.policy import PolicyConfig, run_squarecbwk
from cbwk.twostage import TwoStageConfig, phase_one, run_twostage
from replay_reference import assert_linucb_replays, assert_replays, assert_twostage_replays
from test_kernel_golden import GOLDEN, _bounded_null, _logistic, _replication

# name -> (oracle, environment, seed), as in test_kernel_golden.CASES
SQUARECB_CASES = {
    "glmtron": ("glmtron", _replication, 11),
    "glmtron-stop": ("glmtron", lambda: _replication(B=150), 12),
    "ogd": ("ogd", lambda: _replication(B=300), 13),
    "bounded-null-glmtron": ("glmtron", _bounded_null, 17),
    "bounded-null-ogd": ("ogd", _bounded_null, 18),
    "logistic-glmtron": ("glmtron", _logistic, 21),
    "logistic-ogd": ("ogd", _logistic, 22),
}
# name -> (environment, seed), as in test_kernel_golden.CASES at confidence 2
LINUCB_CASES = {
    "linucb": (lambda: _replication(B=300), 14),
    "bounded-null-linucb": (_bounded_null, 19),
    "logistic-linucb": (_logistic, 23),
}

# name -> (oracle, environment, t0, seed), as in test_kernel_golden.CASES
TWOSTAGE_CASES = {
    "twostage-glmtron": ("glmtron", lambda: _replication(T=1200, B=600), None, 15),
    "twostage-ogd": ("ogd", lambda: _replication(T=1200, B=1200), None, 16),
    "bounded-null-twostage": ("glmtron", _bounded_null, 20, 20),
    "twostage-aborted": ("glmtron", lambda: _replication(T=400, B=20), 30, 24),
}


@pytest.mark.parametrize("name", sorted(SQUARECB_CASES))
def test_squarecbwk_run_replays_from_the_paper(name):
    oracle, env_fn, seed = SQUARECB_CASES[name]
    env, config = env_fn(), PolicyConfig(oracle=oracle, bound_scale=0.01)
    trace = run_squarecbwk(env, config, np.random.default_rng(seed))
    assert trace.tau == GOLDEN[name][1]  # the golden run, not another
    assert_replays(env, config, trace)


@pytest.mark.parametrize("name", sorted(LINUCB_CASES))
def test_linucb_run_replays_from_ridge_regression(name):
    env_fn, seed = LINUCB_CASES[name]
    env, config = env_fn(), LinUcbConfig(confidence_scale=2.0)
    trace = run_linucb(env, config, np.random.default_rng(seed))
    assert trace.tau == GOLDEN[name][1]
    assert_linucb_replays(env, config, trace)


@pytest.mark.filterwarnings("ignore:budget below the two-stage precondition:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(TWOSTAGE_CASES))
def test_twostage_run_replays_as_phase_one_then_squarecbwk(name):
    oracle, env_fn, t0, seed = TWOSTAGE_CASES[name]
    env = env_fn()
    cfg = TwoStageConfig(t0=t0, policy=PolicyConfig(oracle=oracle, bound_scale=0.01))
    trace = run_twostage(env, cfg, np.random.default_rng(seed))
    assert trace.tau == GOLDEN[name][1]
    p1 = phase_one(env, cfg, np.random.default_rng(seed))  # the run's own phase one
    assert_twostage_replays(env, cfg, trace, p1)
