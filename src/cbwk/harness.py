"""Experiment harness: config files, seeded sweeps, CSV and SVG emission.

Configs are flat ``section.key = value`` documents (unknown keys rejected,
all violations reported together).  A sweep executes every (algorithm,
parameter value, seed) cell with seed = base seed + cell index, drawing each
cell's randomness from its own numpy PCG64 generator, so results are
bit-identical across repeated runs and across any level of parallelism.
The emitted CSV therefore contains no wall-clock data: the runtime_ms column
is fixed to 0 and measured runtimes stay on the in-memory result rows.
"""

import contextlib
import ctypes
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .baseline import LinUcbConfig, run_linucb
from .core import fixed_linear_violations, make_fixed_linear_env, realized_regret
from .errors import ConfigurationError, raise_if_any, type_violations
from .lp import exact_opt_fixed_context
from .policy import PolicyConfig, run_squarecbwk
from .twostage import TwoStageConfig, run_twostage

CSV_HEADER = "algorithm,sweep_param,sweep_value,seed,regret,tau,total_reward,runtime_ms"
KNOWN_ALGORITHMS = ("glmtron", "ogd", "linucb", "twostage")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: environment, algorithms and their run configs, grid and seeds.

    Constructing one checks every rule it breaks and reports them together,
    so a config that exists is valid.  The environment rules, and phase one's
    when two-stage runs, are checked at each sweep cell: the base values with
    the swept parameter set to one sweep value.  No cell runs the swept
    parameter's base value, so it is not checked.  A violation every cell
    shares is reported once, the others as ``sweep value v: ...``.
    ``twostage.policy`` is the one policy config: glmtron and ogd cells run it
    with their own oracle, and two-stage cells run it in phase 2 at the radius
    phase one estimates, whatever its z.
    """

    family: str
    m: int
    K: int
    d: int
    T: int
    budget_spec: str  # a number, "T", or "T/<number>"
    noise_variance: float
    algorithms: tuple
    seeds_count: int
    seeds_base: int
    mode: str = "replication"
    null_arm: bool = False
    twostage: TwoStageConfig = TwoStageConfig()
    linucb: LinUcbConfig = LinUcbConfig()
    sweep_param: str = "T"
    sweep_values: tuple[int, ...] = ()
    output_dir: str = "results"

    def __post_init__(self):
        raise_if_any(type_violations(self))
        problems = []
        if self.family != "fixed_linear":
            problems.append(f"environment.family must be fixed_linear (got {self.family!r})")
        if self.mode not in ("replication", "bounded"):
            problems.append(f"environment.mode must be replication or bounded (got {self.mode!r})")
        problems += [f"unknown algorithm {alg!r} (known: {', '.join(KNOWN_ALGORITHMS)})"
                     for alg in self.algorithms if alg not in KNOWN_ALGORITHMS]
        if not self.algorithms:
            problems.append("algorithm.list is empty")
        for key, values in (("algorithm.list", self.algorithms), ("sweep.values", self.sweep_values)):
            problems += [f"{key} repeats {v!r}" for v in dict.fromkeys(values) if values.count(v) > 1]
        if self.seeds_count < 1:
            problems.append(f"seeds.count must be >= 1 (got {self.seeds_count})")
        if self.seeds_base < 0:
            problems.append(f"seeds.base must be >= 0 (got {self.seeds_base})")
        if self.sweep_param not in ("m", "K", "T"):
            problems.append(f"sweep.param must be one of m, K, T (got {self.sweep_param!r})")
        if not self.sweep_values:
            problems.append("sweep.values is empty")
        base = {"m": self.m, "K": self.K, "d": self.d, "T": self.T}
        cells = [self._environment_violations({**base, self.sweep_param: v})
                 for v in self.sweep_values]
        shared = [p for p in cells[0] if all(p in cell for cell in cells)] if cells else []
        problems += shared
        for v, cell in zip(self.sweep_values, cells):
            problems += [f"sweep value {v}: {p}" for p in cell if p not in shared]
        raise_if_any(problems)

    def _environment_violations(self, params: dict) -> list:
        """Rules of the environment, and of phase one if two-stage runs, at one (m, K, d, T)."""
        try:
            B, problems = self.resolve_budget(params["T"]), []
        except (ValueError, ZeroDivisionError):
            B, problems = None, [f"environment.B: cannot parse {self.budget_spec!r}"]
        problems += fixed_linear_violations(params["m"], params["K"], params["d"],
                                            self.noise_variance, params["T"], B)
        if not problems and "twostage" in self.algorithms:
            try:
                self.twostage.resolve_t0(params["m"], params["d"], params["K"], params["T"])
            except ConfigurationError as exc:
                problems += exc.violations
        return problems

    def resolve_budget(self, T: int) -> float:
        spec = self.budget_spec.strip()
        if spec == "T":
            return float(T)
        if spec.startswith("T/"):
            return T / float(spec[2:])
        return float(spec)

    def cell_params(self, value) -> dict:
        """Environment parameters with one sweep value applied."""
        params = {"m": self.m, "K": self.K, "d": self.d, "T": self.T}
        params[self.sweep_param] = int(value)
        params["B"] = self.resolve_budget(params["T"])
        return params


# config key -> (owner, field, kind).  The owners are ExperimentConfig and the
# run configs it holds; each checks its own fields.  A key is required when
# its field has no default.  A list kind [k] is a comma-separated tuple of k.
_KEYS = {
    "environment.family": (ExperimentConfig, "family", str),
    "environment.m": (ExperimentConfig, "m", int),
    "environment.K": (ExperimentConfig, "K", int),
    "environment.d": (ExperimentConfig, "d", int),
    "environment.T": (ExperimentConfig, "T", int),
    "environment.B": (ExperimentConfig, "budget_spec", str),
    "environment.noise_variance": (ExperimentConfig, "noise_variance", float),
    "environment.mode": (ExperimentConfig, "mode", str),
    "environment.null_arm": (ExperimentConfig, "null_arm", bool),
    "algorithm.list": (ExperimentConfig, "algorithms", [str]),
    "algorithm.gamma": (PolicyConfig, "gamma", float),
    "algorithm.z": (PolicyConfig, "z", float),
    "algorithm.bound_scale": (PolicyConfig, "bound_scale", float),
    "algorithm.twostage_oracle": (PolicyConfig, "oracle", str),
    "algorithm.t0": (TwoStageConfig, "t0", int),
    "algorithm.err_scale": (TwoStageConfig, "err_scale", float),
    "algorithm.confidence": (LinUcbConfig, "confidence_scale", float),
    "sweep.param": (ExperimentConfig, "sweep_param", str),
    "sweep.values": (ExperimentConfig, "sweep_values", [int]),
    "seeds.count": (ExperimentConfig, "seeds_count", int),
    "seeds.base": (ExperimentConfig, "seeds_base", int),
    "output.dir": (ExperimentConfig, "output_dir", str),
}
_REQUIRED = tuple(key for key, (owner, name, _) in _KEYS.items()
                  if any(f.name == name and f.default is MISSING and f.default_factory is MISSING
                         for f in fields(owner)))


def _parse(raw: str, kind, key: str, problems: list):
    if isinstance(kind, list):
        items = (_parse(x.strip(), kind[0], key, problems) for x in raw.split(",") if x.strip())
        return tuple(v for v in items if v is not None)
    try:
        if kind is bool:
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        problems.append(f"{key}: cannot parse {raw!r} as {kind.__name__}")
        return None


def _build(owner: type, values: dict, problems: list, **held):
    """``owner`` from its parsed fields; if it breaks a rule, its violations join
    ``problems`` under their config keys and its defaults stand in."""
    try:
        return owner(**values[owner], **held)
    except ConfigurationError as exc:
        keys = {name: key for key, (o, name, _) in _KEYS.items() if o is owner}
        for violation in exc.violations:
            name, _, rule = violation.partition(" ")
            problems.append(f"{keys.get(name, name)} {rule}")
        return owner(**held)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config document into an ExperimentConfig, reporting every violation."""
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

    values = {owner: {} for owner, _, _ in _KEYS.values()}
    for key, raw in pairs.items():
        if key not in _KEYS:
            problems.append(f"unknown key: {key}")
            continue
        owner, name, kind = _KEYS[key]
        value = _parse(raw, kind, key, problems)
        if value is not None:
            values[owner][name] = value
    missing = [f"missing required key: {key}" for key in _REQUIRED if key not in pairs]
    if missing:
        raise ConfigurationError(problems + missing)
    experiment = values[ExperimentConfig]
    if ("sweep.param" in pairs) != ("sweep.values" in pairs):
        problems.append("sweep.param and sweep.values must be given together")
    elif "sweep.param" not in pairs and "T" in experiment:  # sweep the base horizon alone
        experiment["sweep_values"] = (experiment["T"],)
    raise_if_any(problems)

    policy = _build(PolicyConfig, values, problems)
    held = {"twostage": _build(TwoStageConfig, values, problems, policy=policy),
            "linucb": _build(LinUcbConfig, values, problems)}
    try:
        config = ExperimentConfig(**experiment, **held)
    except ConfigurationError as exc:
        problems += exc.violations
    raise_if_any(problems)
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

    @property
    def aggregates(self) -> list:
        """(algorithm, value, mean, std) of the finite regrets, in first-row order."""
        out = []
        for alg, value in dict.fromkeys((r.algorithm, r.sweep_value) for r in self.rows):
            regrets = np.array([r.regret for r in self.rows
                                if r.algorithm == alg and r.sweep_value == value])
            finite = regrets[np.isfinite(regrets)]
            stats = (float(finite.mean()), float(finite.std())) if finite.size else (math.nan,) * 2
            out.append((alg, value, *stats))
        return out


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
    row = SweepRow(algorithm=alg, sweep_param=config.sweep_param, sweep_value=int(value),
                   seed=seed, regret=float("nan"), tau=0, total_reward=float("nan"))
    try:
        env = build_env(config, value)
        rng = np.random.default_rng(seed)
        if alg == "linucb":
            trace = run_linucb(env, config.linucb, rng)
        elif alg == "twostage":
            trace = run_twostage(env, config.twostage, rng)
        else:
            trace = run_squarecbwk(env, replace(config.twostage.policy, oracle=alg), rng)
        opt = exact_opt_fixed_context(env.expected_outcomes(), env.budget_rate)
        regret = float(realized_regret(trace, opt, env.T))
        row.regret, row.tau, row.total_reward = regret, int(trace.tau), float(trace.total_reward)
    except Exception as exc:  # per-row failure, never fatal to the sweep
        row.error = f"{type(exc).__name__}: {exc}"
    row.runtime_ms = (time.perf_counter() - started) * 1e3
    return row


@contextlib.contextmanager
def _one_blas_thread():
    """Run every OpenBLAS loaded in this process on one thread inside the block.

    Each library not already at one thread is pinned on entry and gets its
    count back on exit, also when the block raises.  numpy has loaded them
    already and OPENBLAS_NUM_THREADS is not read again, so they are found
    through /proc/self/maps; without /proc or OpenBLAS this does nothing.
    """
    pinned = []
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                                   ("scipy_openblas_", ""), ("openblas_", "")):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                setter = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if getter is not None and setter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    threads = getter()
                    if threads != 1:
                        setter(1)
                        pinned.append((setter, threads))
                    break
    except OSError:
        pass
    try:
        yield
    finally:
        for setter, threads in pinned:
            setter(threads)


def check_parallelism(parallelism: int) -> None:
    if parallelism < 1:
        raise ConfigurationError(f"parallelism must be >= 1 (got {parallelism})")


def run_sweep(config: ExperimentConfig, parallelism: int = 1) -> SweepResult:
    """Execute every (algorithm, value, seed) cell; canonical row order.

    With ``parallelism`` > 1 the cells run in a process pool, and the calling
    process runs OpenBLAS on one thread while the pool lives.  The cells are
    the unit of parallelism, so BLAS threads would only oversubscribe the
    cores.  The workers inherit the count of 1 through fork, so the fork
    context is passed explicitly where the platform has it (Python 3.14 makes
    forkserver the POSIX default).  A fork shuts OpenBLAS's server thread
    down, and setting the count, even to 1, rebuilds it, spinning for about
    0.1 s of CPU before it sleeps: so nothing sets the count inside a worker.
    The caller's count is restored after the pool has joined, which rebuilds
    the caller's server thread once; restored earlier, that thread would spin
    beside the last cells.  If an earlier fork left the caller's server
    thread down, the pin itself rebuilds it.
    """
    check_parallelism(parallelism)
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
        context = (multiprocessing.get_context("fork")
                   if "fork" in multiprocessing.get_all_start_methods() else None)
        with _one_blas_thread(), ProcessPoolExecutor(max_workers=parallelism,
                                                     mp_context=context) as pool:
            rows = list(pool.map(_run_cell, specs, chunksize=1))
    return SweepResult(sweep_param=config.sweep_param, rows=rows)


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
    """The rows of a results CSV; an unreadable file or a malformed row is a ConfigurationError.

    Each malformed row is reported as ``<path> line N: ...``.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read CSV {path}: {exc}") from exc
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ConfigurationError(f"{path} does not start with the expected header")
    rows, problems, columns = [], [], CSV_HEADER.count(",") + 1
    for n, ln in lines[1:]:
        parts = ln.split(",")
        try:
            if len(parts) != columns:
                raise ValueError(f"expected {columns} fields, got {len(parts)}")
            rows.append(SweepRow(
                algorithm=parts[0], sweep_param=parts[1], sweep_value=int(parts[2]),
                seed=int(parts[3]), regret=float(parts[4]), tau=int(parts[5]),
                total_reward=float(parts[6]), runtime_ms=float(parts[7]),
            ))
        except ValueError as exc:
            problems.append(f"{path} line {n}: {exc}")
    raise_if_any(problems)
    return SweepResult(sweep_param=rows[0].sweep_param if rows else "T", rows=rows)


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
