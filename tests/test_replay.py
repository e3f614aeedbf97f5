"""SquareCBwK runs re-derived round by round from the paper's formulas.

The golden digests pin the engine's bits; this checks that those bits are
the algorithm.  Each of GOLDEN's SquareCBwK cases is run as it is there and
replayed by ``replay_reference``, which learns at the full width without
the engine's fast paths (the span, the stacked Sherman-Morrison inverse,
the zero-feature step, estimate reuse and the log-weight dual).
"""

import numpy as np
import pytest

from cbwk.policy import PolicyConfig, run_squarecbwk
from replay_reference import assert_replays
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


@pytest.mark.parametrize("name", sorted(SQUARECB_CASES))
def test_squarecbwk_run_replays_from_the_paper(name):
    oracle, env_fn, seed = SQUARECB_CASES[name]
    env, config = env_fn(), PolicyConfig(oracle=oracle, bound_scale=0.01)
    trace = run_squarecbwk(env, config, np.random.default_rng(seed))
    assert trace.tau == GOLDEN[name][1]  # the golden run, not another
    assert_replays(env, config, trace)
