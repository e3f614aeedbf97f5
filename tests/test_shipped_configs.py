"""Byte fingerprints of reduced sweeps of the four shipped configs.

Each ``configs/*.conf`` is run serially with ``twostage`` added, one seed
and the extremes of its grid (K in {5, 50}, m in {10, 101}, the T sweeps at
T = 1000), and the sha256 of its ``results.csv`` is compared with the value
recorded here.  A refactor must leave these bytes unchanged.  Like the golden
digests, they assume the BLAS core and CPU in ``conftest.RECORDED_ON``.
A one-cell tight-budget sweep, the two-stage policy at K = 10 with a null
arm and B = T/4, pins the path where phase one's empirical program binds and
the budget stop ends the run; the shipped configs run two-stage at B = T only.
A one-seed null-arm sweep of all four algorithms at B = T/4 pins the rounds
that pull an arm with zero features.
Run this file as a script to print the table for the cbwk on the path.
"""

import hashlib
import os
import tempfile
import warnings
from dataclasses import replace

import pytest

from cbwk.harness import parse_config, run_sweep, write_csv

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

# config file -> (reduced sweep values, sha256 of results.csv)
SHIPPED = {
    "sweep_k.conf": ((5, 50),
                     "e4f69e7ca430f6042f2a5bd709a2d8546eadad7a1cb4b116232181d90721471a"),
    "sweep_m.conf": ((10, 101),
                     "7bbb6177a8c2b3c06790420d31120021de54be82a263ef44a5340fa5d65ab6a3"),
    "sweep_t_large_dim.conf": ((1000,),
                               "75374b10df54f3bef803d51765554c32dcd3ed25b87b77a40c7ae104a3834400"),
    "sweep_t_small_dim.conf": ((1000,),
                               "02ee7508deaf7932937b3b734aeeb5f29b1c5fe9d92632ee05774a6f8a48388a"),
}

# The tight-budget cell: two-stage at m = 52, K = 10, null arm, B = T/4, T = 8000.
TIGHT_BUDGET = """
environment.family = fixed_linear
environment.m = 52
environment.K = 10
environment.d = 4
environment.T = 8000
environment.B = T/4
environment.noise_variance = 0.2
environment.null_arm = true
algorithm.list = twostage
algorithm.bound_scale = 0.01
seeds.count = 1
seeds.base = 4000
"""
TIGHT_BUDGET_SHA256 = "e923888970182848b03087604c96a85d40de4d7862046b722fd6334da3151e3c"

# A null arm in replication mode at B = T/4 for all four algorithms: many
# rounds pull the null arm, whose zero features take the oracles'
# zero-feature update.  LinUCB runs greedy (confidence 0), because with any
# width its optimism never picks the width-0 null arm; greedy, it pulls it in
# 1032 of 1989 rounds.  Recorded at commit 5b22b4c, before that
# update existed, so the shortcut must reproduce the full update's bytes.
NULL_ARM = """
environment.family = fixed_linear
environment.m = 10
environment.K = 3
environment.d = 4
environment.T = 2000
environment.B = T/4
environment.noise_variance = 0.2
environment.mode = replication
environment.null_arm = true
algorithm.list = glmtron, ogd, linucb, twostage
algorithm.bound_scale = 0.01
algorithm.confidence = 0.0
seeds.count = 1
seeds.base = 7
"""
NULL_ARM_SHA256 = "c07c5b22636d53626966218f95a88c12959f5364cd2f599f0ed1a525b0b50ef8"


def reduced_sweep_digest(name: str, directory: str) -> tuple[str, list]:
    """sha256 of the reduced sweep's CSV, and the errors of its failed cells."""
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        config = parse_config(fh.read())
    # replace() checks the reduced grid like any other config
    config = replace(config, algorithms=config.algorithms + ("twostage",), seeds_count=1,
                     sweep_values=SHIPPED[name][0])
    return sweep_digest(config, directory)


def sweep_digest(config, directory: str) -> tuple[str, list]:
    """sha256 of a serial sweep's CSV, and the errors of its failed cells."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the two-stage precondition warning
        result = run_sweep(config, parallelism=1)
    path = os.path.join(directory, "results.csv")
    write_csv(result, path)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return digest, [r.error for r in result.rows if r.error is not None]


def test_every_shipped_config_is_pinned():
    assert sorted(SHIPPED) == sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".conf"))


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_csv_bytes(name, tmp_path, recorded_on):
    digest, errors = reduced_sweep_digest(name, str(tmp_path))
    assert errors == []
    assert digest == SHIPPED[name][1], recorded_on


def test_tight_budget_twostage_csv_bytes(tmp_path, recorded_on):
    digest, errors = sweep_digest(parse_config(TIGHT_BUDGET), str(tmp_path))
    assert errors == []
    assert digest == TIGHT_BUDGET_SHA256, recorded_on


def test_null_arm_sweep_csv_bytes(tmp_path, recorded_on):
    digest, errors = sweep_digest(parse_config(NULL_ARM), str(tmp_path))
    assert errors == []
    assert digest == NULL_ARM_SHA256, recorded_on


def test_seeded_shipped_sweep_emits_no_runtime_warning():
    # GLMtron's step lets overflow run to inf and repairs it under its own
    # np.errstate; nothing else in a shipped sweep overflows or warns.
    with open(os.path.join(CONFIG_DIR, "sweep_t_large_dim.conf")) as fh:
        config = replace(parse_config(fh.read()), seeds_count=1, sweep_values=(1000,))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_sweep(config, parallelism=1)
    assert [r.error for r in result.rows] == [None] * len(result.rows)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(SHIPPED):
            digest, errors = reduced_sweep_digest(name, tmp)
            print(f'    "{name}": ({SHIPPED[name][0]!r}, "{digest}"),', errors or "")
        digest, errors = sweep_digest(parse_config(TIGHT_BUDGET), tmp)
        print(f'TIGHT_BUDGET_SHA256 = "{digest}"', errors or "")
        digest, errors = sweep_digest(parse_config(NULL_ARM), tmp)
        print(f'NULL_ARM_SHA256 = "{digest}"', errors or "")
