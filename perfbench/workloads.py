"""Benchmark workloads: which config each one runs and how it is overridden.

A workload is a shipped config document with a few keys replaced: the sweep
values, the seed count and ``seeds.base``, which the benchmark's ``--seed``
argument sets.  The overridden document goes through ``cbwk.parse_config``
like any user config, so it is validated by the package itself.

This module imports nothing from ``cbwk``; the benchmark's parent process
uses it without loading the package under test.
"""

import os
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SRC_DIR = os.path.join(ROOT, "src")

PRECONDITION_WARNING = "budget below the two-stage precondition"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # path relative to the repository root
    values: tuple  # sweep values; the config's sweep.param is kept
    seeds: int

    def config_path(self) -> str:
        return os.path.join(ROOT, self.config)

    def default_seed(self) -> int:
        return int(_read_keys(self.config_path())["seeds.base"])

    def cells(self, seed: int) -> list:
        """(algorithm, sweep value, cell seed) of every cell, in canonical order."""
        algorithms = [a.strip() for a in
                      _read_keys(self.config_path())["algorithm.list"].split(",")]
        grid = [(a, v) for a in algorithms if a for v in self.values
                for _ in range(self.seeds)]
        return [(a, v, seed + i) for i, (a, v) in enumerate(grid)]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# wide_arms is runnable but not listed in BENCHMARK.json: with inherited BLAS
# threads its sweep time varies several-fold between repetitions.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("long_horizon", "configs/sweep_t_small_dim.conf", (8000, 12000), 1),
        Workload("tight_budget", "perfbench/tight_budget.conf", (8000, 12000), 2),
        Workload("wide_arms", "configs/sweep_k.conf", (45, 50), 1),
    )
}


def _read_keys(path: str) -> dict:
    keys = {}
    with open(path) as fh:
        for line in fh:
            stripped = line.strip()
            if stripped and not stripped.startswith("#") and "=" in stripped:
                key, _, value = stripped.partition("=")
                keys[key.strip()] = value.strip()
    return keys


def config_text(workload: Workload, seed: int) -> str:
    """The workload's config document with its overrides applied."""
    overrides = {
        "sweep.values": ",".join(str(v) for v in workload.values),
        "seeds.count": str(workload.seeds),
        "seeds.base": str(seed),
    }
    lines = []
    with open(workload.config_path()) as fh:
        for line in fh.read().splitlines():
            key = line.partition("=")[0].strip() if "=" in line else None
            if key in overrides:
                line = f"{key} = {overrides.pop(key)}"
            lines.append(line)
    lines.extend(f"{key} = {value}" for key, value in overrides.items())
    return "\n".join(lines) + "\n"
