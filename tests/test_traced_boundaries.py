"""The benchmark's tracer still sees every round of every policy.

``perfbench/tracer.py`` wraps module attributes such as
``cbwk.policy.igw_distribution``; the round engine must look them up when it
calls them.  A learner that bound one of them when it was defined would keep
calling the unwrapped function, and the traced benchmark would silently
report zero calls and zero self time for that layer.  This runs a small sweep
of SquareCBwK, LinUCB and two-stage under the tracer and counts the spans
against the rounds the runs report.
"""

import os
import sys
import warnings

import cbwk

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import tracer as tr  # noqa: E402

SWEEP = """
environment.family = fixed_linear
environment.m = 10
environment.K = 3
environment.d = 4
environment.T = 300
environment.B = T/2
environment.noise_variance = 0.2
algorithm.list = glmtron, linucb, twostage
algorithm.bound_scale = 0.01
sweep.param = T
sweep.values = 300
seeds.count = 1
seeds.base = 5
"""


def test_every_round_passes_the_traced_boundaries():
    tracer = tr.Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # two-stage's precondition warning
        with tr.install(tracer):
            result = cbwk.run_sweep(cbwk.parse_config(SWEEP), parallelism=1)
    assert [r.error for r in result.rows] == [None] * 3
    calls = {name: v["calls"] for name, v in tracer.totals().items()}
    squarecb, linucb = tracer.counts["policy.rounds"], tracer.counts["baseline.rounds"]
    taus = {r.algorithm: r.tau for r in result.rows}
    assert linucb == taus["linucb"]
    # glmtron's cell and two-stage's phase 2, which follows phase one's pulls
    assert taus["glmtron"] < squarecb < taus["glmtron"] + taus["twostage"]
    assert calls["policy.igw_distribution"] == calls["policy.sample_arm"] == squarecb
    assert calls["dual.update"] == calls["policy.lagrangian_scores"] == squarecb + linucb
    assert calls["oracles.make"] >= 1
