import ctypes
import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from cbwk import harness
from cbwk.baseline import LinUcbConfig
from cbwk.errors import ConfigurationError
from cbwk.harness import (
    CSV_HEADER,
    ExperimentConfig,
    SweepRow,
    parse_config,
    read_csv,
    render_plot,
    run_sweep,
    write_csv,
)
from cbwk.policy import PolicyConfig
from cbwk.twostage import TwoStageConfig

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

TINY_CONFIG = """
environment.family = fixed_linear
environment.m = 10
environment.K = 3
environment.d = 4
environment.T = 60
environment.B = T
environment.noise_variance = 0.2
environment.mode = bounded
algorithm.list = ogd, linucb
sweep.param = m
sweep.values = 10, 12
seeds.count = 2
seeds.base = 7
"""


def test_shipped_m_sweep_config_parses():
    with open(os.path.join(CONFIG_DIR, "sweep_m.conf")) as fh:
        config = parse_config(fh.read())
    assert config.sweep_param == "m"
    assert config.K == 3
    assert config.T == 2000
    assert config.sweep_values[0] == 10 and config.sweep_values[-1] == 101
    assert config.algorithms == ("glmtron", "ogd", "linucb")
    assert config.resolve_budget(2000) == 2000.0


def test_all_shipped_configs_parse():
    for name in os.listdir(CONFIG_DIR):
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            parse_config(fh.read())


REQUIRED_ONLY = """
environment.family = fixed_linear
environment.m = 10
environment.K = 3
environment.d = 4
environment.T = 100
environment.B = T/2
environment.noise_variance = 0.2
algorithm.list = ogd, twostage
seeds.count = 2
seeds.base = 7
"""


def test_required_keys_alone_take_the_dataclass_defaults():
    required = dict(family="fixed_linear", m=10, K=3, d=4, T=100, budget_spec="T/2",
                    noise_variance=0.2, algorithms=("ogd", "twostage"),
                    seeds_count=2, seeds_base=7)
    # an absent sweep runs the base horizon alone
    assert parse_config(REQUIRED_ONLY) == ExperimentConfig(**required, sweep_values=(100,))

    optional = ("environment.mode = bounded\nenvironment.null_arm = true\n"
                "output.dir = out\nalgorithm.gamma = 2.5\nalgorithm.z = 1.5\n"
                "algorithm.t0 = 3\nalgorithm.confidence = 0.5\n"
                "algorithm.bound_scale = 0.01\n"
                "algorithm.err_scale = 0.2\nalgorithm.twostage_oracle = ogd\n"
                "sweep.param = K\nsweep.values = 3, 4\n")
    policy = PolicyConfig(oracle="ogd", gamma=2.5, z=1.5, bound_scale=0.01)
    assert parse_config(REQUIRED_ONLY + optional) == ExperimentConfig(
        **required, mode="bounded", null_arm=True, output_dir="out",
        twostage=TwoStageConfig(t0=3, err_scale=0.2, policy=policy),
        linucb=LinUcbConfig(confidence_scale=0.5), sweep_param="K", sweep_values=(3, 4))


def test_an_invalid_experiment_config_cannot_be_built():
    config = parse_config(TINY_CONFIG)
    for change, message in (({"seeds_count": 0}, "seeds.count must be >= 1"),
                            ({"seeds_base": -3}, "seeds.base must be >= 0"),
                            ({"noise_variance": float("inf")}, "noise_variance must be finite"),
                            ({"sweep_param": "K", "sweep_values": (1, 3)},
                             "sweep value 1: K >= 2 violated"),
                            # every cell breaks it: reported once, without a prefix
                            ({"sweep_param": "K", "sweep_values": (1,)},
                             re.escape("K >= 2 violated (got 1)")),
                            ({"m": "10"}, "m must be an integer"),
                            ({"T": 60.0}, "T must be an integer"),
                            ({"seeds_count": True}, "seeds_count must be an integer"),
                            ({"noise_variance": "0.2"}, "noise_variance must be a number"),
                            ({"null_arm": "no"}, "null_arm must be True or False"),
                            # each repeat once, the repeated cells never run
                            ({"algorithms": ("ogd", "linucb", "ogd", "ogd")},
                             "^algorithm\\.list repeats 'ogd'$"),
                            ({"sweep_values": (10, 12, 10)}, "^sweep\\.values repeats 10$"),
                            ({"sweep_values": (10, 10.5)},
                             re.escape("sweep_values must be an integer (got 10.5)")),
                            # phase one's (K+1)*t0 rounds must fit in T, at a set t0
                            # or the default one (16 per arm at m = 10, 17 at m = 12)
                            ({"algorithms": ("ogd", "twostage"),
                              "twostage": TwoStageConfig(t0=50)},
                             re.escape("(K+1)*T0 = 200 exceeds T = 60")),
                            ({"algorithms": ("twostage",)},
                             re.escape("sweep value 12: (K+1)*T0 = 68 exceeds T = 60"))):
        with pytest.raises(ConfigurationError, match=message):
            replace(config, **change)
    assert replace(config, algorithms=("twostage",), T=72).T == 72  # 4 * 18 = 72 at m = 12


# (run config, field, config key, bad values): every rule a run config checks
# in its constructor, covering negatives, 0 where the rule is > 0, NaN, inf
# and an unknown oracle
_NAN, _INF = float("nan"), float("inf")
RUN_CONFIG_RULES = (
    (PolicyConfig, "gamma", "algorithm.gamma", (-1.0, 0.0, _NAN, _INF, -_INF)),
    (PolicyConfig, "z", "algorithm.z", (-1.0, 0.0, _NAN, _INF)),
    (PolicyConfig, "bound_scale", "algorithm.bound_scale", (-1.0, _NAN, _INF)),
    (PolicyConfig, "oracle", "algorithm.twostage_oracle", ("linucb", "sgd")),
    (TwoStageConfig, "t0", "algorithm.t0", (-1, 0)),
    (TwoStageConfig, "err_scale", "algorithm.err_scale", (-0.5, _NAN, _INF)),
    (LinUcbConfig, "confidence_scale", "algorithm.confidence", (-3.0, _NAN, _INF)),
)
# (run config, field, values of another type): a config file parses every
# value to its field's kind first, so only the constructors meet these
RUN_CONFIG_TYPES = (
    (PolicyConfig, "gamma", ("1", True)),
    (PolicyConfig, "z", ("2.0", False)),
    (PolicyConfig, "bound_scale", ("0.01",)),
    (TwoStageConfig, "t0", (2.5, 3.0, "3", True)),
    (TwoStageConfig, "err_scale", ("0.5",)),
    (LinUcbConfig, "confidence_scale", ("1", False)),
)


@pytest.mark.parametrize("config_type, name, key, value", [
    pytest.param(config_type, name, key, value, id=f"{key}={value}")
    for config_type, name, key, values in RUN_CONFIG_RULES for value in values] + [
    pytest.param(config_type, name, None, value, id=f"{name}={value!r}")
    for config_type, name, values in RUN_CONFIG_TYPES for value in values])
def test_one_validator_for_library_and_config_file(config_type, name, key, value):
    # the library constructor refuses the value, and the config file reports
    # the library's own violation under the key that sets the field; a value of
    # another type (no key) is refused as such
    with pytest.raises(ConfigurationError) as lib:
        config_type(**{name: value})
    (violation,) = lib.value.violations
    assert violation.startswith(f"{name} ")
    if key is None:
        assert violation == f"{name} must be {'an integer' if name == 't0' else 'a number'} " \
                            f"(got {value!r})"
        return
    with pytest.raises(ConfigurationError) as parsed:
        parse_config(TINY_CONFIG + f"\n{key} = {value}\n")
    assert parsed.value.violations == [key + violation[len(name):]]


def test_k_equals_m_rejected_with_named_constraint():
    bad = TINY_CONFIG.replace("environment.K = 3", "environment.K = 10")
    with pytest.raises(ConfigurationError) as err:
        parse_config(bad)
    assert "K <= m-1" in str(err.value)


def test_empty_document_lists_required_keys():
    with pytest.raises(ConfigurationError) as err:
        parse_config("")
    message = str(err.value)
    for key in ("environment.family", "environment.m", "algorithm.list",
                "seeds.count", "seeds.base"):
        assert key in message


def test_unknown_keys_rejected():
    with pytest.raises(ConfigurationError) as err:
        parse_config(TINY_CONFIG + "\nenvironment.shape = round\n")
    assert "unknown key: environment.shape" in str(err.value)


def test_all_violations_reported_together():
    bad = TINY_CONFIG.replace("environment.K = 3", "environment.K = 40")
    bad = bad.replace("environment.noise_variance = 0.2",
                      "environment.noise_variance = -1")
    with pytest.raises(ConfigurationError) as err:
        parse_config(bad)
    assert len(err.value.violations) >= 3  # K at both sweep values, the noise once


def test_only_the_sweep_cells_are_checked():
    # the swept parameter's base value is run by no cell, so it may break a rule
    swept_t = REQUIRED_ONLY.replace("environment.T = 100", "environment.T = 60")
    with pytest.raises(ConfigurationError, match=re.escape("(K+1)*T0 = 64 exceeds T = 60")):
        parse_config(swept_t)  # without a sweep, T = 60 is the one cell
    config = parse_config(swept_t + "sweep.param = T\nsweep.values = 1000\n")
    assert config.T == 60 and config.sweep_values == (1000,)
    one_arm = TINY_CONFIG.replace("environment.K = 3", "environment.K = 1")
    config = parse_config(one_arm.replace("sweep.param = m", "sweep.param = K")
                          .replace("sweep.values = 10, 12", "sweep.values = 3"))
    assert config.K == 1 and config.sweep_values == (3,)
    # a violation every cell shares is reported once, the others per sweep value
    bad = TINY_CONFIG.replace("environment.K = 3", "environment.K = 11")
    bad = bad.replace("environment.noise_variance = 0.2", "environment.noise_variance = -1")
    with pytest.raises(ConfigurationError) as err:
        parse_config(bad)
    assert err.value.violations == ["noise_variance >= 0 violated (got -1.0)",
                                    "sweep value 10: K <= m-1 violated (K=11, m=10)"]


def test_cli_opt_uses_the_base_values(tmp_path, capsys):
    from cbwk.cli import main

    swept = TINY_CONFIG.replace("sweep.param = m", "sweep.param = K") \
        .replace("sweep.values = 10, 12", "sweep.values = 3")
    cfg = tmp_path / "k1.conf"
    cfg.write_text(swept.replace("environment.K = 3", "environment.K = 1"))
    capsys.readouterr()
    assert main(["opt", str(cfg)]) == 1  # K = 1 is valid for the sweep, not for opt
    assert "config error: K >= 2 violated (got 1)" in capsys.readouterr().err
    cfg.write_text(TINY_CONFIG.replace("sweep.param = m", "sweep.param = T")
                   .replace("sweep.values = 10, 12", "sweep.values = 1000"))
    assert main(["opt", str(cfg)]) == 0
    out = capsys.readouterr().out
    opt = float(re.search(r"^OPT = (\S+)$", out, re.M).group(1))
    assert f"T * OPT = {60 * opt!r}" in out  # the base T = 60, not the swept 1000


def test_sweep_values_respect_constraints():
    bad = TINY_CONFIG.replace("sweep.values = 10, 12", "sweep.values = 10, 5")
    with pytest.raises(ConfigurationError) as err:
        parse_config(bad)
    assert "sweep value 5" in str(err.value)


def test_budget_specs():
    config = parse_config(TINY_CONFIG)
    assert config.resolve_budget(60) == 60.0
    half = parse_config(TINY_CONFIG.replace("environment.B = T",
                                            "environment.B = T/2"))
    assert half.resolve_budget(60) == 30.0
    fixed = parse_config(TINY_CONFIG.replace("environment.B = T",
                                             "environment.B = 45"))
    assert fixed.resolve_budget(60) == 45.0
    with pytest.raises(ConfigurationError, match="environment.B: cannot parse 'T/0'"):
        parse_config(TINY_CONFIG.replace("environment.B = T", "environment.B = T/0"))


def test_run_sweep_row_count_and_order():
    config = parse_config(TINY_CONFIG)
    result = run_sweep(config)
    assert len(result.rows) == 2 * 2 * 2  # algorithms x values x seeds
    # canonical order: algorithm, value, seed; seeds are base + cell index
    assert [r.algorithm for r in result.rows] == ["ogd"] * 4 + ["linucb"] * 4
    assert [r.seed for r in result.rows] == list(range(7, 15))
    assert all(r.error is None for r in result.rows)


def test_determinism_and_parallelism_invariance(tmp_path):
    config = parse_config(TINY_CONFIG)
    paths = []
    for i, parallelism in enumerate((1, 1, 2)):
        result = run_sweep(config, parallelism=parallelism)
        path = tmp_path / f"out{i}.csv"
        write_csv(result, str(path))
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]


def _openblas_libs():
    """(getter, setter) of the thread count of every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return []
    libs = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("scipy_openblas_", ""), ("openblas_", "")):
            getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if getter is not None:
                setter = getattr(lib, f"{prefix}set_num_threads{suffix}")
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                libs.append((getter, setter))
                break
    return libs


def _openblas_threads():
    return [get() for get, _ in _openblas_libs()]


needs_openblas = pytest.mark.skipif(not _openblas_libs(), reason="no OpenBLAS library is loaded")


def _threads_cell(spec):
    """Stands in for a sweep cell and reports the worker's OpenBLAS threads as tau."""
    (threads,) = set(_openblas_threads())
    return SweepRow(algorithm=spec["algorithm"], sweep_param="m",
                    sweep_value=spec["value"], seed=spec["seed"], regret=0.0,
                    tau=threads, total_reward=0.0)


@needs_openblas
def test_sweep_workers_run_one_blas_thread(monkeypatch):
    # forked workers inherit the patched module, so each cell runs the probe
    monkeypatch.setattr(harness, "_run_cell", _threads_cell)
    result = run_sweep(parse_config(TINY_CONFIG), parallelism=2)
    assert [r.tau for r in result.rows] == [1] * 8


@needs_openblas
def test_parallel_sweep_leaves_caller_blas_threads():
    libs = _openblas_libs()
    before = _openblas_threads()
    try:
        for _, set_threads in libs:
            set_threads(2)  # not 1, so a pin that leaked into the caller would show
        run_sweep(parse_config(TINY_CONFIG), parallelism=2)
        assert _openblas_threads() == [2] * len(libs)
    finally:
        for (_, set_threads), threads in zip(libs, before):
            set_threads(threads)


def _task_count_cell(spec):
    """Stands in for a sweep cell: runs a 52x52 eigh, the projection size of
    m = 52, then reports the worker's OS thread count as tau."""
    a = np.arange(52 * 52, dtype=float).reshape(52, 52)
    np.linalg.eigh(a + a.T)
    return SweepRow(algorithm=spec["algorithm"], sweep_param="m",
                    sweep_value=spec["value"], seed=spec["seed"], regret=0.0,
                    tau=len(os.listdir("/proc/self/task")), total_reward=0.0)


@needs_openblas
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc")
def test_sweep_workers_start_no_blas_server_thread(monkeypatch):
    # setting the count inside a forked worker would rebuild OpenBLAS's server thread
    monkeypatch.setattr(harness, "_run_cell", _task_count_cell)
    result = run_sweep(parse_config(TINY_CONFIG), parallelism=2)
    assert [r.tau for r in result.rows] == [1] * 8


def _exit_cell(spec):
    os._exit(3)


@needs_openblas
def test_broken_pool_restores_caller_blas_threads(monkeypatch):
    libs = _openblas_libs()
    before = _openblas_threads()
    monkeypatch.setattr(harness, "_run_cell", _exit_cell)
    try:
        for _, set_threads in libs:
            set_threads(2)  # not 1, so a pin left in place would show
        with pytest.raises(BrokenProcessPool):
            run_sweep(parse_config(TINY_CONFIG), parallelism=2)
        assert _openblas_threads() == [2] * len(libs)
    finally:
        for (_, set_threads), threads in zip(libs, before):
            set_threads(threads)


def test_csv_format(tmp_path):
    config = parse_config(TINY_CONFIG)
    result = run_sweep(config)
    path = tmp_path / "r.csv"
    write_csv(result, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(result.rows)
    first = lines[1].split(",")
    assert first[0] == "ogd" and first[1] == "m" and first[2] == "10"
    assert first[7] == "0"  # runtime column is deterministic


def test_read_csv_roundtrip(tmp_path):
    config = parse_config(TINY_CONFIG)
    result = run_sweep(config)
    path = tmp_path / "r.csv"
    write_csv(result, str(path))
    back = read_csv(str(path))
    assert len(back.rows) == len(result.rows)
    assert back.rows[3].regret == result.rows[3].regret
    assert back.aggregates == result.aggregates


def test_aggregates_match_independent_recomputation():
    config = parse_config(TINY_CONFIG)
    result = run_sweep(config)
    for alg, value, mean, std in result.aggregates:
        regrets = np.array([r.regret for r in result.rows
                            if r.algorithm == alg and r.sweep_value == value])
        assert mean == pytest.approx(regrets.mean(), abs=1e-12)
        assert std == pytest.approx(regrets.std(), abs=1e-12)


# B = 15 is a budget rate of 0.5 at T = 30, where the per-round optimum is
# feasible, and 0.25 at T = 60, where no arm mix meets it: valid configs whose
# cells at T = 60 fail at run time
INFEASIBLE_AT_60 = (TINY_CONFIG.replace("environment.B = T", "environment.B = 15")
                    .replace("sweep.param = m", "sweep.param = T")
                    .replace("sweep.values = 10, 12", "sweep.values = 30, 60"))


def test_cell_failures_recorded_per_row():
    config = parse_config(INFEASIBLE_AT_60)
    result = run_sweep(config)
    ok_rows = [r for r in result.rows if r.sweep_value == 30]
    failed_rows = [r for r in result.rows if r.sweep_value == 60]
    assert len(ok_rows) == len(failed_rows) == 4
    assert all(r.error is None for r in ok_rows)
    assert all(r.error is not None and r.error.startswith("InfeasibleError") for r in failed_rows)
    assert all(np.isnan(r.regret) for r in failed_rows)


def test_render_plot_single_cell(tmp_path):
    config = parse_config(TINY_CONFIG.replace("sweep.values = 10, 12",
                                              "sweep.values = 10")
                          .replace("seeds.count = 2", "seeds.count = 1")
                          .replace("algorithm.list = ogd, linucb",
                                   "algorithm.list = ogd"))
    result = run_sweep(config)
    path = tmp_path / "single.svg"
    render_plot(result, str(path))
    svg = path.read_text()
    assert svg.startswith("<svg")
    assert "circle" in svg


def test_render_plot_series(tmp_path):
    config = parse_config(TINY_CONFIG)
    result = run_sweep(config)
    path = tmp_path / "plot.svg"
    render_plot(result, str(path))
    svg = path.read_text()
    assert svg.count("polyline") == 2
    assert "ogd" in svg and "linucb" in svg
    # deterministic bytes
    path2 = tmp_path / "plot2.svg"
    render_plot(result, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def _write_tiny(tmp_path):
    cfg = tmp_path / "tiny.conf"
    cfg.write_text(TINY_CONFIG)
    return str(cfg)


def test_cli_run_and_plot(tmp_path):
    from cbwk.cli import main

    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out, "--seeds", "1"]) == 0
    csv_path = os.path.join(out, "results.csv")
    assert os.path.exists(csv_path)
    assert os.path.exists(os.path.join(out, "plot.svg"))
    assert main(["plot", csv_path, "--out", str(tmp_path / "re.svg")]) == 0
    assert os.path.exists(str(tmp_path / "re.svg"))


def test_cli_sweep_override(tmp_path):
    from cbwk.cli import main

    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out2")
    assert main(["sweep", cfg, "--param", "m", "--values", "10,11",
                 "--out", out, "--seeds", "1"]) == 0
    rows = read_csv(os.path.join(out, "results.csv")).rows
    assert sorted({r.sweep_value for r in rows}) == [10, 11]


def test_cli_opt_prints_value(tmp_path, capsys):
    from cbwk.cli import main

    cfg = _write_tiny(tmp_path)
    assert main(["opt", cfg]) == 0
    out = capsys.readouterr().out
    assert "OPT = " in out


def test_cli_exit_codes(tmp_path, capsys):
    from cbwk.cli import main

    bad = tmp_path / "bad.conf"
    bad.write_text("environment.family = fixed_linear\n")
    assert main(["run", str(bad)]) == 1
    missing_csv = str(tmp_path / "nope.csv")
    capsys.readouterr()
    assert main(["plot", missing_csv, "--out", str(tmp_path / "x.svg")]) == 1
    assert f"config error: cannot read CSV {missing_csv}: " in capsys.readouterr().err

    # an overridden sweep grid goes through the config validator: K = 1 is
    # rejected before any cell runs
    out = tmp_path / "k1"
    capsys.readouterr()
    assert main(["sweep", os.path.join(CONFIG_DIR, "sweep_m.conf"), "--param", "K",
                 "--values", "1", "--out", str(out)]) == 1
    assert "config error: K >= 2 violated (got 1)" in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", _write_tiny(tmp_path), "--seeds", "0"]) == 1

    # parallelism below 1 is refused before any cell runs, for run and sweep
    for parallelism in ("0", "-5"):
        out = tmp_path / f"p{parallelism}"
        capsys.readouterr()
        assert main(["run", _write_tiny(tmp_path), "--out", str(out),
                     "--parallelism", parallelism]) == 1
        assert main(["sweep", _write_tiny(tmp_path), "--param", "m", "--values", "10",
                     "--out", str(out), "--parallelism", parallelism]) == 1
        assert "parallelism must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    # out-of-range and non-finite numbers are refused before any cell runs;
    # run late, they fail every cell, run silently or draw NaN outcomes
    for key, value, message in (
            ("algorithm.bound_scale", "-1", "algorithm.bound_scale >= 0 violated"),
            ("algorithm.gamma", "-1", "algorithm.gamma > 0 violated"),
            ("algorithm.z", "0", "algorithm.z > 0 violated"),
            ("algorithm.t0", "0", "algorithm.t0 >= 1 violated"),
            ("algorithm.confidence", "-3", "algorithm.confidence >= 0 violated"),
            ("algorithm.err_scale", "-0.5", "algorithm.err_scale >= 0 violated"),
            ("algorithm.gamma", "nan", "algorithm.gamma > 0 violated"),
            ("algorithm.gamma", "inf", "algorithm.gamma must be finite (got inf)"),
            ("algorithm.z", "inf", "algorithm.z must be finite (got inf)"),
            ("algorithm.bound_scale", "inf", "algorithm.bound_scale must be finite (got inf)"),
            ("algorithm.confidence", "inf", "algorithm.confidence must be finite (got inf)"),
            ("environment.noise_variance", "nan", "noise_variance >= 0 violated (got nan)"),
            ("environment.noise_variance", "inf", "noise_variance must be finite (got inf)"),
            ("seeds.base", "-3", "seeds.base must be >= 0 (got -3)")):
        cfg = tmp_path / f"{key}{value}.conf"
        cfg.write_text("\n".join(line for line in TINY_CONFIG.splitlines()
                                 if not line.startswith(key + " ")) + f"\n{key} = {value}\n")
        out = tmp_path / f"{key}{value}"
        capsys.readouterr()
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
    # greedy LinUCB (confidence 0), unscaled bounds, exact error radii and one
    # pull per arm stay valid
    config = parse_config(TINY_CONFIG + "\nalgorithm.confidence = 0\nalgorithm.bound_scale = 0\n"
                          "algorithm.err_scale = 0\nalgorithm.t0 = 1\n")
    assert config.linucb.confidence_scale == 0.0 and config.twostage.policy.bound_scale == 0.0
    assert config.twostage.err_scale == 0.0 and config.twostage.t0 == 1

    # phase one's rounds must fit in T: an oversized t0 is refused before any cell runs
    oversized = tmp_path / "oversized.conf"
    oversized.write_text(TINY_CONFIG.replace("algorithm.list = ogd, linucb",
                                             "algorithm.list = ogd, twostage")
                         + "\nalgorithm.t0 = 50\n")
    out = tmp_path / "oversized"
    capsys.readouterr()
    assert main(["run", str(oversized), "--out", str(out)]) == 1
    assert "(K+1)*T0 = 200 exceeds T = 60" in capsys.readouterr().err
    assert not out.exists()

    # a sweep with failed cells still writes its CSV, but exits 2
    failing = tmp_path / "failing.conf"
    failing.write_text(INFEASIBLE_AT_60)
    out = tmp_path / "failing"
    assert main(["run", str(failing), "--out", str(out), "--seeds", "1"]) == 2
    assert "2 of 4 cells failed" in capsys.readouterr().err
    assert len(read_csv(str(out / "results.csv")).rows) == 4


def test_cli_unusable_output_dir_fails_before_any_cell(tmp_path, monkeypatch, capsys):
    from cbwk.cli import main

    calls = []
    run_cell = harness._run_cell
    monkeypatch.setattr(harness, "_run_cell", lambda spec: calls.append(spec) or run_cell(spec))
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    capsys.readouterr()
    assert main(["run", _write_tiny(tmp_path), "--out", str(blocker / "out"),
                 "--parallelism", "1"]) == 1
    assert calls == []
    assert "config error: output.dir: cannot create" in capsys.readouterr().err


def test_cli_plot_names_a_malformed_csv_line(tmp_path, capsys):
    from cbwk.cli import main

    good = "ogd,m,10,7,1.5,60,30.0,0"
    for bad, message in (("ogd,m,10,7,1.5", "line 3: expected 8 fields, got 5"),
                         ("ogd,m,ten,7,1.5,60,30.0,0", "line 3: invalid literal for int()")):
        path = tmp_path / "r.csv"
        path.write_text("\n".join([CSV_HEADER, good, bad]) + "\n")
        capsys.readouterr()
        assert main(["plot", str(path), "--out", str(tmp_path / "x.svg")]) == 1
        assert f"config error: {path} {message}" in capsys.readouterr().err


def test_a_repeated_algorithm_or_sweep_value_is_refused_before_any_cell(
        tmp_path, monkeypatch, capsys):
    from cbwk.cli import main

    calls = []
    run_cell = harness._run_cell
    monkeypatch.setattr(harness, "_run_cell", lambda spec: calls.append(spec) or run_cell(spec))
    repeated = tmp_path / "repeated.conf"
    repeated.write_text(TINY_CONFIG.replace("ogd, linucb", "ogd, ogd"))
    capsys.readouterr()
    assert main(["run", str(repeated), "--out", str(tmp_path / "a")]) == 1
    assert "config error: algorithm.list repeats 'ogd'" in capsys.readouterr().err
    assert main(["sweep", _write_tiny(tmp_path), "--param", "m", "--values", "10,10",
                 "--out", str(tmp_path / "b")]) == 1
    assert "config error: sweep.values repeats 10" in capsys.readouterr().err
    assert calls == []


def test_cli_entrypoint_subprocess(tmp_path):
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "sub")
    proc = subprocess.run(
        [sys.executable, "-m", "cbwk.cli", "run", cfg, "--out", out,
         "--seeds", "1", "--parallelism", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "results.csv"))
