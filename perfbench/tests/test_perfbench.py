"""Tests of the benchmark itself: tracer hygiene, self-time accounting, checks.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

import cbwk  # noqa: E402
from cbwk import harness  # noqa: E402
from perfbench import tracer as tr  # noqa: E402
from perfbench.child import leftover_wrappers, row_record  # noqa: E402
from perfbench.run import SELF_SUM_TOLERANCE, Checks, check_sweep  # noqa: E402
from perfbench.workloads import PRECONDITION_WARNING, WORKLOADS, config_text  # noqa: E402

ALL_ALGORITHMS = """
environment.family = fixed_linear
environment.m = 10
environment.K = 3
environment.d = 4
environment.T = 600
environment.B = T/2
environment.noise_variance = 0.2
algorithm.list = glmtron, ogd, linucb, twostage
algorithm.bound_scale = 0.01
sweep.param = T
sweep.values = 600
seeds.count = 1
seeds.base = 11
"""


def _bindings():
    return {(id(owner), attr): vars(owner).get(attr) for owner, attr in tr.targets()}


def test_install_wraps_every_target_and_restores_it():
    before = _bindings()
    with tr.install(tr.Tracer()):
        assert all(tr.is_wrapped(getattr(owner, attr)) for owner, attr in tr.targets())
    assert _bindings() == before
    assert leftover_wrappers() == []


def test_restore_after_a_failing_sweep():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tr.install(tr.Tracer()):
            cbwk.run_sweep(cbwk.parse_config(ALL_ALGORITHMS), parallelism=1)
            raise ZeroDivisionError
    assert _bindings() == before
    assert leftover_wrappers() == []


@pytest.mark.parametrize("algorithm", ["glmtron", "ogd", "linucb", "twostage"])
def test_cell_self_times_sum_to_cell_wall_time(algorithm):
    config = cbwk.parse_config(ALL_ALGORITHMS)
    spec = {"config": config, "algorithm": algorithm, "value": 600, "seed": 11}
    tracer = tr.Tracer()
    with tr.install(tracer):
        started = time.perf_counter()
        row = harness._run_cell(spec)
        wall = time.perf_counter() - started
    assert row.error is None
    (span, traced_algorithm), = tracer.cells
    assert traced_algorithm == algorithm
    # Children are traced inside the cell, so self times cover it exactly once.
    assert len(tracer.name) > 100
    total = tracer.subtree_self_sum(span)
    assert abs(total - wall) <= SELF_SUM_TOLERANCE * wall
    assert abs(total * 1e3 - row.runtime_ms) <= SELF_SUM_TOLERANCE * row.runtime_ms
    assert (tracer.self_times() >= -1e-9).all()


@pytest.mark.filterwarnings(f"ignore:{PRECONDITION_WARNING}:RuntimeWarning")
def test_traced_sweep_matches_untraced_rows():
    config = cbwk.parse_config(ALL_ALGORITHMS)
    plain = cbwk.run_sweep(config, parallelism=1)
    tracer = tr.Tracer()
    with tr.install(tracer):
        traced = cbwk.run_sweep(config, parallelism=1)
    key = [(r.algorithm, r.seed, r.regret, r.tau, r.total_reward) for r in plain.rows]
    assert [(r.algorithm, r.seed, r.regret, r.tau, r.total_reward) for r in traced.rows] == key
    assert tracer.counts["lp.pivots"] > 0
    assert tracer.counts["harness.cells"] == 4
    assert tracer.counts["twostage.precondition_warnings"] == 1


@pytest.mark.filterwarnings(f"ignore:{PRECONDITION_WARNING}:RuntimeWarning")
def test_config_that_fails_every_cell_is_reported(tmp_path):
    """tight_budget without its null arm: the per-round optimum is infeasible."""
    workload = WORKLOADS["tight_budget"]
    seed = workload.default_seed()
    text = config_text(workload, seed).replace("environment.null_arm = true\n", "")
    text = text.replace("sweep.values = 8000,12000", "sweep.values = 1000")  # keeps it fast
    config = cbwk.parse_config(text)
    assert not config.null_arm
    result = cbwk.run_sweep(config, parallelism=1)
    csv = tmp_path / "results.csv"
    cbwk.write_csv(result, str(csv))
    checks = Checks()
    check_sweep([row_record(config, r) for r in result.rows], str(csv),
                [("twostage", 1000, seed), ("twostage", 1000, seed + 1)], None, checks, {})
    assert checks.attempted == len(result.rows) == 2
    assert checks.failed / checks.attempted == 1
    assert not checks.correct
    assert all("InfeasibleError" in r.error for r in result.rows)


def test_fingerprint_mismatch_fails_every_cell(tmp_path):
    workload = WORKLOADS["long_horizon"]
    rows = [["glmtron", 8000, 5, 1.0, 8000, 2.0, 1.0, None, 8000]]
    csv = tmp_path / "results.csv"
    csv.write_text("x\n")
    checks = Checks()
    check_sweep(rows, str(csv), [("glmtron", 8000, 5)], "0" * 64, checks, {})
    assert (checks.attempted, checks.failed, checks.correct) == (1, 1, False)
    assert workload.cells(5)[0] == ("glmtron", 8000, 5)
