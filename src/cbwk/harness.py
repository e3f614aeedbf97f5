"""Experiment harness: config files, seeded sweeps, CSV and SVG emission.

Configs are flat ``section.key = value`` documents (unknown keys rejected,
all violations reported together).  A sweep executes every (algorithm,
parameter value, seed) cell with seed = base seed + cell index, drawing each
cell's randomness from its own numpy PCG64 generator, so results are
bit-identical across repeated runs and across any level of parallelism.
The emitted CSV therefore contains no wall-clock data: the runtime_ms column
is fixed to 0 and measured runtimes stay on the in-memory result rows.
"""

import ctypes
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .baseline import LinUcbConfig, run_linucb
from .core import fixed_linear_violations, make_fixed_linear_env, realized_regret
from .errors import ConfigurationError
from .lp import exact_opt_fixed_context
from .policy import PolicyConfig, run_squarecbwk
from .twostage import TwoStageConfig, run_twostage

CSV_HEADER = "algorithm,sweep_param,sweep_value,seed,regret,tau,total_reward,runtime_ms"
KNOWN_ALGORITHMS = ("glmtron", "ogd", "linucb", "twostage")
RNG_NAME = "numpy PCG64"

_REQUIRED_KEYS = (
    "environment.family",
    "environment.m",
    "environment.K",
    "environment.d",
    "environment.T",
    "environment.B",
    "environment.noise_variance",
    "algorithm.list",
    "seeds.count",
    "seeds.base",
)
# optional key -> (ExperimentConfig field, type); an absent key keeps the field's default
_OPTIONAL_KEYS = {
    "environment.mode": ("mode", str),
    "environment.null_arm": ("null_arm", bool),
    "output.dir": ("output_dir", str),
    "algorithm.gamma": ("gamma", float),
    "algorithm.z": ("z", float),
    "algorithm.t0": ("t0", int),
    "algorithm.confidence": ("confidence", float),
    "algorithm.bound_scale": ("bound_scale", float),
    "algorithm.eta_scale": ("eta_scale", float),
    "algorithm.err_scale": ("err_scale", float),
    "algorithm.twostage_oracle": ("twostage_oracle", str),
}


# (field, comparison, bound) of each algorithm.* number; an unset gamma, z or
# t0 is skipped.  NaN breaks every bound.
_ALGORITHM_RANGES = (("gamma", ">", 0), ("z", ">", 0), ("t0", ">=", 1), ("eta_scale", ">", 0),
                     ("bound_scale", ">=", 0), ("err_scale", ">=", 0), ("confidence", ">=", 0))


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    m: int
    K: int
    d: int
    T: int
    budget_spec: str  # a number, "T", or "T/<number>"
    noise_variance: float
    mode: str = "replication"
    null_arm: bool = False
    algorithms: tuple = ("glmtron",)
    gamma: float | None = None
    z: float | None = None
    t0: int | None = None
    confidence: float = 1.0
    bound_scale: float = 1.0
    eta_scale: float = 1.0
    err_scale: float = 1.0
    twostage_oracle: str = "glmtron"
    sweep_param: str = "T"
    sweep_values: tuple = ()
    seeds_count: int = 10
    seeds_base: int = 0
    output_dir: str = "results"

    def resolve_budget(self, T: int) -> float:
        return _resolve_budget(self.budget_spec, T)

    def cell_params(self, value) -> dict:
        """Environment parameters with one sweep value applied."""
        params = {"m": self.m, "K": self.K, "d": self.d, "T": self.T}
        params[self.sweep_param] = int(value)
        params["B"] = self.resolve_budget(params["T"])
        return params

    def validate(self) -> None:
        """Raise ConfigurationError listing every constraint the config breaks.

        The environment constraints are checked for the base values and for
        every sweep value, so a sweep grid overridden after parsing is held to
        the same rules as one read from the file.
        """
        problems = []
        if self.family != "fixed_linear":
            problems.append(f"environment.family must be fixed_linear (got {self.family!r})")
        if self.mode not in ("replication", "bounded"):
            problems.append(f"environment.mode must be replication or bounded (got {self.mode!r})")
        for alg in self.algorithms:
            if alg not in KNOWN_ALGORITHMS:
                problems.append(f"unknown algorithm {alg!r} (known: {', '.join(KNOWN_ALGORITHMS)})")
        if not self.algorithms:
            problems.append("algorithm.list is empty")
        if self.twostage_oracle not in ("glmtron", "ogd"):
            problems.append("algorithm.twostage_oracle must be glmtron or ogd "
                            f"(got {self.twostage_oracle!r})")
        for key, op, lower in _ALGORITHM_RANGES:
            value = getattr(self, key)
            if value is not None and not (value > lower if op == ">" else value >= lower):
                problems.append(f"algorithm.{key} {op} {lower} violated (got {value})")
        if self.seeds_count < 1:
            problems.append(f"seeds.count must be >= 1 (got {self.seeds_count})")
        if self.sweep_param not in ("m", "K", "T"):
            problems.append(f"sweep.param must be one of m, K, T (got {self.sweep_param!r})")
        if not self.sweep_values:
            problems.append("sweep.values is empty")
        base = {"m": self.m, "K": self.K, "d": self.d, "T": self.T}
        problems += _environment_violations(base, self.budget_spec, "")
        if not self.noise_variance >= 0:  # NaN too
            problems.append(f"noise_variance >= 0 violated (got {self.noise_variance})")
        for v in self.sweep_values:
            problems += _environment_violations({**base, self.sweep_param: v},
                                                self.budget_spec, f"sweep value {v}: ")
        if problems:
            raise ConfigurationError(problems)


def _environment_violations(params: dict, budget_spec: str, tag: str) -> list:
    """Rules of the fixed-linear environment broken by one (m, K, d, T) and the budget."""
    try:
        B, problems = _resolve_budget(budget_spec, params["T"]), []
    except (ValueError, ZeroDivisionError):
        B, problems = None, [f"environment.B: cannot parse {budget_spec!r}"]
    return problems + fixed_linear_violations(params["m"], params["K"], params["d"],
                                              params["T"], B, tag)


def _resolve_budget(spec: str, T: int) -> float:
    spec = spec.strip()
    if spec == "T":
        return float(T)
    if spec.startswith("T/"):
        return T / float(spec[2:])
    return float(spec)


def _parse_scalar(raw: str, kind: type, key: str, problems: list):
    try:
        if kind is bool:
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        problems.append(f"{key}: cannot parse {raw!r} as {kind.__name__}")
        return None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document, reporting every violation."""
    problems = []
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in pairs:
            problems.append(f"line {lineno}: duplicate key {key}")
        pairs[key] = value

    known = {*_REQUIRED_KEYS, *_OPTIONAL_KEYS, "sweep.param", "sweep.values"}
    for key in pairs:
        if key not in known:
            problems.append(f"unknown key: {key}")
    for key in _REQUIRED_KEYS:
        if key not in pairs:
            problems.append(f"missing required key: {key}")
    if problems and any(p.startswith("missing required key") for p in problems):
        raise ConfigurationError(problems)

    kwargs = dict(
        family=pairs["environment.family"],
        m=_parse_scalar(pairs["environment.m"], int, "environment.m", problems),
        K=_parse_scalar(pairs["environment.K"], int, "environment.K", problems),
        d=_parse_scalar(pairs["environment.d"], int, "environment.d", problems),
        T=_parse_scalar(pairs["environment.T"], int, "environment.T", problems),
        budget_spec=pairs["environment.B"],
        noise_variance=_parse_scalar(pairs["environment.noise_variance"], float,
                                     "environment.noise_variance", problems),
        algorithms=tuple(a.strip() for a in pairs["algorithm.list"].split(",") if a.strip()),
        seeds_count=_parse_scalar(pairs["seeds.count"], int, "seeds.count", problems),
        seeds_base=_parse_scalar(pairs["seeds.base"], int, "seeds.base", problems),
    )
    for key, (name, kind) in _OPTIONAL_KEYS.items():
        if key in pairs:
            kwargs[name] = _parse_scalar(pairs[key], kind, key, problems)

    sweep_param = pairs.get("sweep.param")
    sweep_values_raw = pairs.get("sweep.values")
    if (sweep_param is None) != (sweep_values_raw is None):
        problems.append("sweep.param and sweep.values must be given together")
    if sweep_param is None:  # sweep the base horizon alone
        T = kwargs["T"]
        kwargs["sweep_values"] = (T,) if T is not None else ()
    else:
        kwargs["sweep_param"] = sweep_param
        kwargs["sweep_values"] = tuple(
            v for v in (
                _parse_scalar(x.strip(), int, "sweep.values", problems)
                for x in sweep_values_raw.split(",") if x.strip()
            ) if v is not None
        )

    if problems:
        raise ConfigurationError(problems)

    config = ExperimentConfig(**kwargs)
    config.validate()
    return config


@dataclass
class SweepRow:
    algorithm: str
    sweep_param: str
    sweep_value: int
    seed: int
    regret: float
    tau: int
    total_reward: float
    runtime_ms: float = 0.0  # measured; not emitted to the deterministic CSV
    error: str | None = None


@dataclass
class SweepResult:
    sweep_param: str
    rows: list
    aggregates: list = field(default_factory=list)  # (algorithm, value, mean, std)

    def recompute_aggregates(self) -> None:
        keys = []
        for row in self.rows:
            key = (row.algorithm, row.sweep_value)
            if key not in keys:
                keys.append(key)
        self.aggregates = []
        for alg, value in keys:
            regrets = np.array([r.regret for r in self.rows
                                if r.algorithm == alg and r.sweep_value == value])
            finite = regrets[np.isfinite(regrets)]
            if finite.size:
                self.aggregates.append((alg, value, float(finite.mean()),
                                        float(finite.std())))
            else:
                self.aggregates.append((alg, value, float("nan"), float("nan")))


def build_env(config: ExperimentConfig, value=None):
    params = config.cell_params(value if value is not None else
                                getattr(config, config.sweep_param))
    return make_fixed_linear_env(
        params["m"], params["K"], params["d"], config.noise_variance,
        params["T"], params["B"], bounded=(config.mode == "bounded"),
        null_arm=config.null_arm,
    )


def _run_cell(spec: dict) -> SweepRow:
    started = time.perf_counter()
    config: ExperimentConfig = spec["config"]
    alg, value, seed = spec["algorithm"], spec["value"], spec["seed"]
    try:
        env = build_env(config, value)
        rng = np.random.default_rng(seed)
        if alg == "linucb":
            trace = run_linucb(env, LinUcbConfig(confidence_scale=config.confidence), rng)
        else:
            twostage = alg == "twostage"
            policy = PolicyConfig(oracle=config.twostage_oracle if twostage else alg,
                                  gamma=config.gamma, z=None if twostage else config.z,
                                  bound_scale=config.bound_scale, eta_scale=config.eta_scale)
            if twostage:
                trace = run_twostage(env, TwoStageConfig(t0=config.t0, err_scale=config.err_scale,
                                                         policy=policy), rng)
            else:
                trace = run_squarecbwk(env, policy, rng)
        opt = exact_opt_fixed_context(env.expected_rewards(), env.expected_costs(),
                                      env.instance.budget_rate)
        regret = realized_regret(trace, opt, env.instance.T)
        return SweepRow(algorithm=alg, sweep_param=config.sweep_param,
                        sweep_value=int(value), seed=seed, regret=float(regret),
                        tau=int(trace.tau), total_reward=float(trace.total_reward),
                        runtime_ms=(time.perf_counter() - started) * 1e3)
    except Exception as exc:  # per-row failure, never fatal to the sweep
        return SweepRow(algorithm=alg, sweep_param=config.sweep_param,
                        sweep_value=int(value), seed=seed, regret=float("nan"),
                        tau=0, total_reward=float("nan"),
                        runtime_ms=(time.perf_counter() - started) * 1e3,
                        error=f"{type(exc).__name__}: {exc}")


def _one_blas_thread() -> None:
    """Pool initializer: run every OpenBLAS loaded in this worker on one thread.

    The sweep's cells are its unit of parallelism, so BLAS threads inside a
    worker only oversubscribe the cores.  A forked worker has numpy loaded
    already and no longer reads OPENBLAS_NUM_THREADS, so the count is set at
    run time through the library's own setter.  Without /proc or OpenBLAS
    this does nothing: an initializer that raises breaks the whole pool.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads", "openblas_set_num_threads"):
                setter = getattr(lib, name, None)
                if setter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    setter(1)
                    break
    except OSError:
        pass


def run_sweep(config: ExperimentConfig, parallelism: int = 1) -> SweepResult:
    """Execute every (algorithm, value, seed) cell; canonical row order.

    With ``parallelism`` > 1 the cells run in a process pool whose workers
    use one OpenBLAS thread each; the calling process is left as it is.
    """
    if parallelism < 1:
        raise ConfigurationError(f"parallelism must be >= 1 (got {parallelism})")
    specs = []
    index = 0
    for alg in config.algorithms:
        for value in config.sweep_values:
            for _ in range(config.seeds_count):
                specs.append({"config": config, "algorithm": alg, "value": value,
                              "seed": config.seeds_base + index})
                index += 1
    if parallelism == 1:
        rows = [_run_cell(s) for s in specs]
    else:
        with ProcessPoolExecutor(max_workers=parallelism,
                                 initializer=_one_blas_thread) as pool:
            rows = list(pool.map(_run_cell, specs, chunksize=1))
    result = SweepResult(sweep_param=config.sweep_param, rows=rows)
    result.recompute_aggregates()
    return result


def _fmt(x: float) -> str:
    return repr(float(x))


def write_csv(result: SweepResult, path: str) -> None:
    """Emit the result rows in the fixed column schema (byte-deterministic)."""
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(
            f"{r.algorithm},{r.sweep_param},{r.sweep_value},{r.seed},"
            f"{_fmt(r.regret)},{r.tau},{_fmt(r.total_reward)},0"
        )
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path: str) -> SweepResult:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigurationError(f"{path} does not start with the expected header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        rows.append(SweepRow(
            algorithm=parts[0], sweep_param=parts[1], sweep_value=int(parts[2]),
            seed=int(parts[3]), regret=float(parts[4]), tau=int(parts[5]),
            total_reward=float(parts[6]), runtime_ms=float(parts[7]),
        ))
    result = SweepResult(sweep_param=rows[0].sweep_param if rows else "T", rows=rows)
    result.recompute_aggregates()
    return result


_SERIES_COLORS = {
    "glmtron": "#1f77b4",
    "ogd": "#ff7f0e",
    "linucb": "#d62728",
    "twostage": "#2ca02c",
}
_PLOT_W, _PLOT_H = 640, 440
_ML, _MR, _MT, _MB = 70, 30, 20, 50


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def render_plot(result: SweepResult, path: str) -> None:
    """Write a self-contained SVG: one mean line and std band per algorithm."""
    if not result.rows:
        raise ConfigurationError("cannot plot an empty result")
    series = {}
    for alg, value, mean, std in result.aggregates:
        if math.isfinite(mean):
            series.setdefault(alg, []).append((value, mean, std))
    for pts in series.values():
        pts.sort()

    xs = [v for pts in series.values() for v, _, _ in pts] or [0.0, 1.0]
    ys = [m + s for pts in series.values() for _, m, s in pts]
    ys += [m - s for pts in series.values() for _, m, s in pts]
    ys = ys or [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    y_lo, y_hi = min(0.0, min(ys)), max(ys)
    if y_lo == y_hi:
        y_hi = y_lo + 1.0
    y_pad = 0.05 * (y_hi - y_lo)
    y_hi += y_pad

    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_PLOT_W - _ML - _MR)

    def sy(v):
        return _PLOT_H - _MB - (v - y_lo) / (y_hi - y_lo) * (_PLOT_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_PLOT_W} {_PLOT_H}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_PLOT_W}" height="{_PLOT_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_PLOT_H - _MB}" x2="{_PLOT_W - _MR}" '
        f'y2="{_PLOT_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_PLOT_H - _MB}" stroke="black"/>',
    ]
    for tv in _ticks(x_lo, x_hi):
        x = sx(tv)
        out.append(f'<line x1="{x:.2f}" y1="{_PLOT_H - _MB}" x2="{x:.2f}" '
                   f'y2="{_PLOT_H - _MB + 5}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{_PLOT_H - _MB + 18}" '
                   f'text-anchor="middle">{tv:.6g}</text>')
    for tv in _ticks(y_lo, y_hi):
        y = sy(tv)
        out.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
                   f'stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end">{tv:.6g}</text>')
    out.append(f'<text x="{(_ML + _PLOT_W - _MR) / 2:.2f}" y="{_PLOT_H - 12}" '
               f'text-anchor="middle">{result.sweep_param}</text>')
    out.append(f'<text x="16" y="{(_MT + _PLOT_H - _MB) / 2:.2f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {(_MT + _PLOT_H - _MB) / 2:.2f})">regret</text>')

    legend_y = _MT + 10
    for alg in sorted(series):
        pts = series[alg]
        color = _SERIES_COLORS.get(alg, "#555555")
        if len(pts) > 1:
            band = [(sx(v), sy(m + s)) for v, m, s in pts]
            band += [(sx(v), sy(m - s)) for v, m, s in reversed(pts)]
            band_str = " ".join(f"{x:.2f},{y:.2f}" for x, y in band)
            out.append(f'<polygon points="{band_str}" fill="{color}" '
                       f'fill-opacity="0.15" stroke="none"/>')
            line = " ".join(f"{sx(v):.2f},{sy(m):.2f}" for v, m, _ in pts)
            out.append(f'<polyline points="{line}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        for v, m, _ in pts:
            out.append(f'<circle cx="{sx(v):.2f}" cy="{sy(m):.2f}" r="2.5" '
                       f'fill="{color}"/>')
        out.append(f'<rect x="{_PLOT_W - 150}" y="{legend_y - 9}" width="12" '
                   f'height="12" fill="{color}"/>')
        out.append(f'<text x="{_PLOT_W - 133}" y="{legend_y + 2}">{alg}</text>')
        legend_y += 18
    out.append("</svg>")
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(out) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write plot to {path}: {exc}") from exc
