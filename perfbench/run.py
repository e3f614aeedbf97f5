"""cbwk sweep benchmark.

    python3 perfbench/run.py --workload long_horizon --seed 3000 --seconds 55 --trace 0

With ``--trace 0`` it measures set-up time (``cbwk opt`` in a fresh
interpreter, several times) and then repeats the workload's sweep, each in a
fresh interpreter at parallelism = nproc, until ``--seconds`` are used up.
It prints the end-to-end metrics.  With ``--trace 1`` it runs one sweep, the
same cells serially without tracing and once more under the tracer, and
prints the per-layer metrics.  Every run checks every cell and the CSV bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are a readable summary and the machine context; the full record is written
to ``perfbench/out/``.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import machine  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    BENCH_DIR,
    OUT_DIR,
    PRECONDITION_WARNING,
    SRC_DIR,
    WORKLOADS,
)

MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SELF_SUM_TOLERANCE = 0.02  # traced self times vs the package's own cell clock
ALGORITHMS = ("glmtron", "ogd", "linucb", "twostage")
FINGERPRINTS = os.path.join(BENCH_DIR, "fingerprints.json")

E2E_UNITS = {"setup_s": "s", "sweep_s": "s", "rounds_per_s": "1/s", "round_us": "us",
             "peak_rss_mb": "MB"}


def child_env() -> dict:
    """The user's environment plus the checkout's src/ on the path.

    BLAS thread variables are passed through untouched.  The two-stage
    precondition warning is silenced in untraced sweeps; the traced run
    counts it instead.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    ignore = f"ignore:{PRECONDITION_WARNING}:RuntimeWarning"
    env["PYTHONWARNINGS"] = ",".join(p for p in (env.get("PYTHONWARNINGS"), ignore) if p)
    return env


class Checks:
    """Cells attempted and failed, with a message per failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message: str, cells: int = 0) -> None:
        self.failed += cells
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems


def measure_setup(workload, env, checks: Checks, deadline: float) -> float | None:
    """Wall time of ``cbwk opt <config>``: interpreter, import, parse, one exact LP."""
    cmd = [sys.executable, "-m", "cbwk.cli", "opt", workload.config_path()]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        checks.fail("cbwk opt timed out")
        return None
    elapsed = time.perf_counter() - started
    first = proc.stdout.splitlines()[0] if proc.stdout else ""
    try:
        value = float(first.partition("=")[2]) if first.startswith("OPT =") else math.nan
    except ValueError:
        value = math.nan
    if proc.returncode != 0 or not math.isfinite(value) or value <= 0:
        checks.fail(f"cbwk opt failed (exit {proc.returncode}): "
                    f"{(proc.stdout + proc.stderr).strip()[-300:]}")
        return None
    return elapsed


def run_child(mode, workload, seed, out_dir, env, deadline):
    """One child measurement; returns (result dict or None, TreeWatch, error text)."""
    os.makedirs(out_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), mode,
           "--workload", workload.name, "--seed", str(seed), "--out", out_dir]
    stderr_path = os.path.join(out_dir, "stderr.txt")
    try:
        code, watch = machine.run_watched(cmd, env, deadline - time.monotonic(), stderr_path)
    except subprocess.TimeoutExpired:
        return None, machine.TreeWatch(), "timed out"
    if code != 0:
        with open(stderr_path) as fh:
            return None, watch, f"exit {code}: {fh.read().strip()[-500:]}"
    with open(os.path.join(out_dir, "result.json")) as fh:
        return json.load(fh), watch, None


def bad_rows(rows: list, expected: list) -> dict:
    """Per failed cell index: what is wrong with it (error, bounds, grid position)."""
    bad = {i: "missing row" for i in range(len(rows), len(expected))}
    for i, (row, cell) in enumerate(zip(rows, expected)):
        alg, value, seed, regret, tau, reward, _, error, T = row
        label = f"{alg} value={value} seed={seed}"
        if (alg, value, seed) != tuple(cell):
            bad[i] = f"{label}: expected cell {cell}"
        elif error is not None:
            bad[i] = f"{label}: {error}"
        elif not (math.isfinite(regret) and math.isfinite(reward)):
            bad[i] = f"{label}: non-finite regret or reward"
        elif not 1 <= tau <= T:
            bad[i] = f"{label}: tau={tau} outside [1, {T}]"
    if len(rows) > len(expected):
        bad.update({i: "unexpected row" for i in range(len(expected), len(rows))})
    return bad


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def recorded_fingerprint(workload, seed):
    try:
        with open(FINGERPRINTS) as fh:
            return json.load(fh).get(workload.name, {}).get(str(seed))
    except FileNotFoundError:
        return None


def check_sweep(rows, csv_path, expected, fingerprint, checks: Checks, reference: dict) -> str:
    """Check one sweep's cells and CSV bytes; returns the CSV digest.

    A bad cell counts as one failure; a CSV that differs from the other
    repetitions or from the recorded fingerprint fails every cell.
    """
    checks.attempted += len(expected)
    bad = bad_rows(rows, expected)
    digest = sha256(csv_path)
    whole = []
    if reference.setdefault("sha", digest) != digest:
        whole.append("results.csv differs between repetitions")
    if fingerprint is not None and fingerprint != digest:
        whole.append(f"results.csv sha256 {digest} != recorded {fingerprint}")
    if bad or whole:
        failed = len(expected) if whole else len(bad)
        checks.fail("; ".join(whole + list(bad.values())[:5]), cells=failed)
    return digest


def median(values):
    return statistics.median(values) if values else math.nan


def per_algorithm_round_us(rows_lists: list) -> dict:
    """Per algorithm: (median over its cells of runtime_ms * 1000 / tau, cell count)."""
    out = {}
    for alg in ALGORITHMS:
        samples = [row[6] * 1e3 / row[4] for rows in rows_lists for row in rows
                   if row[0] == alg and row[4] > 0]
        out[alg] = (median(samples) if samples else 0.0, len(samples))
    return out


def run_untraced(workload, seed, budget_end, env, checks, record, run_dir, deadline):
    """Set-up samples and sweeps, interleaved so both span the whole run."""
    measure_setup(workload, env, checks, deadline)  # warms the page cache; not counted
    setup, sweeps, reference = [], [], {}
    while not checks.problems:
        record["host_probe_ms"].append(machine.host_probe_ms())
        sample = measure_setup(workload, env, checks, deadline)
        if sample is None:
            break
        setup.append(sample)
        rep_dir = os.path.join(run_dir, f"rep{len(sweeps)}")
        started = time.monotonic()
        result, watch, error = run_child("sweep", workload, seed, rep_dir, env, deadline)
        if error:
            checks.attempted += len(workload.cells(seed))
            checks.fail(f"sweep child failed: {error}", cells=len(workload.cells(seed)))
            break
        check_sweep(result["rows"], os.path.join(rep_dir, "pool", "results.csv"),
                    workload.cells(seed), recorded_fingerprint(workload, seed), checks,
                    reference)
        rows = result["rows"]
        taus = sum(r[4] for r in rows)
        sweeps.append({
            "sweep_s": result["sweep_s"],
            "rounds_per_s": taus / result["sweep_s"],
            "round_us": sum(r[6] for r in rows) * 1e3 / max(taus, 1),
            "peak_rss_mb": watch.peak_rss_mb,
            "worker_threads": watch.worker_threads,
            "rows": rows,
        })
        record["blas"] = result["blas"]
        step_s = time.monotonic() - started + sample
        if time.monotonic() + step_s > min(budget_end, deadline):
            break
    while not checks.problems and len(setup) < MIN_SETUP_SAMPLES:
        sample = measure_setup(workload, env, checks, deadline)
        if sample is not None:
            setup.append(sample)
    record["setup_samples"] = setup
    record["sweeps"] = sweeps
    record["csv_sha256"] = reference.get("sha")
    metrics = {"setup_s": (median(setup), len(setup))}
    for key in ("sweep_s", "rounds_per_s", "round_us", "peak_rss_mb"):
        metrics[key] = (median([s[key] for s in sweeps]), len(sweeps))
    record["worker_threads_max"] = max((s["worker_threads"] for s in sweeps), default=0)
    record["round_us_by_algorithm"] = per_algorithm_round_us([s["rows"] for s in sweeps])
    return metrics


def run_traced(workload, seed, env, checks, record, run_dir, deadline):
    record["host_probe_ms"].extend(machine.host_probe_ms() for _ in range(5))
    result, watch, error = run_child("traced", workload, seed, run_dir, env, deadline)
    cells = len(workload.cells(seed))
    if error:
        checks.attempted += 2 * cells
        checks.fail(f"traced child failed: {error}", cells=2 * cells)
        return {}
    digest = check_sweep(result["rows"], os.path.join(run_dir, "pool", "results.csv"),
                         workload.cells(seed), recorded_fingerprint(workload, seed), checks, {})
    checks.attempted += cells
    traced_problems = list(bad_rows(result["traced_rows"], workload.cells(seed)).values())
    if sha256(os.path.join(run_dir, "traced", "results.csv")) != digest:
        traced_problems.append("traced results.csv differs from the untraced one")
    if [r[:6] for r in result["serial_rows"]] != [r[:6] for r in result["rows"]]:
        traced_problems.append("serial rows differ from the pool rows")
    worst = max(result["self_sum_errors"], default=0.0)
    if worst > SELF_SUM_TOLERANCE:
        traced_problems.append(f"cell self times miss the cell clock by {worst:.1%}")
    if result["leftover_wrappers"]:
        traced_problems.append(f"wrappers left behind: {result['leftover_wrappers']}")
    if traced_problems:
        checks.fail("; ".join(traced_problems[:5]), cells=cells)
    record.update(blas=result["blas"], spans=result["spans"],
                  self_sum_errors=result["self_sum_errors"], csv_sha256=digest,
                  worker_threads_max=watch.worker_threads)
    layers = dict(result["layers"])
    rows = result["rows"]
    busy_s = sum(r[6] for r in rows) / 1e3
    layers["harness.pool_busy_ratio"] = busy_s / (result["parallelism"] * result["sweep_s"])
    for alg, (value, _) in per_algorithm_round_us([rows]).items():
        layers[f"round_us.{alg}"] = value
    layers["cell_fail_ratio"] = checks.failed / max(checks.attempted, 1)
    return layers


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.startswith("round_us."):
        return "us"
    if "ratio" in name or "share" in name:
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides seeds.base; default: the config's own")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    missing = [p for p in (os.path.join(SRC_DIR, "cbwk", "__init__.py"), workload.config_path())
               if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: cannot run, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    seed = workload.default_seed() if args.seed is None else args.seed
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    run_dir = os.path.join(OUT_DIR, f"{workload.name}-seed{seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)

    env = child_env()
    record = {"workload": workload.name, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "context": machine.context(), "host_probe_ms": []}
    ticks = machine.cpu_ticks()
    checks = Checks()
    if args.trace:
        layers = run_traced(workload, seed, env, checks, record, run_dir, deadline)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
    else:
        e2e = run_untraced(workload, seed, started + args.seconds, env, checks, record,
                           run_dir, deadline)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, (v, _) in e2e.items()}
        record["samples"] = {k: n for k, (_, n) in e2e.items()}
    record["context"].update(loadavg_end=machine.loadavg(),
                             cpu_steal_share=machine.steal_share(ticks, machine.cpu_ticks()),
                             blas=record.get("blas"),
                             worker_threads_max=record.get("worker_threads_max"),
                             host_probe_ms=median(record["host_probe_ms"]))
    fingerprint = recorded_fingerprint(workload, seed)
    record["fingerprint"] = ("not recorded for this seed" if fingerprint is None else
                             "match" if fingerprint == record.get("csv_sha256") else "mismatch")
    record.update(correct=checks.correct, attempted=checks.attempted, failed=checks.failed,
                  problems=checks.problems, metrics=metrics)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(f"{run_dir}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload.name} seed {seed} trace {args.trace}")
    print("context " + json.dumps(record["context"]))
    samples = record.get("samples", {})
    for name, m in metrics.items():
        n = f"  n={samples[name]}" if name in samples else ""
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{n}")
    for alg, (value, n) in record.get("round_us_by_algorithm", {}).items():
        if n:
            print(f"  {'round_us.' + alg:34s} {value:.6g} us  n={n}")
    ratio = checks.failed / max(checks.attempted, 1)
    print(f"  cell_fail_ratio {ratio:.6g}  fingerprint: {record['fingerprint']}  "
          f"correct: {checks.correct}")
    for problem in checks.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": checks.correct, "attempted": max(checks.attempted, 1),
                      "failed": checks.failed,
                      "metrics": {k: {"value": v["value"] if math.isfinite(v["value"])
                                      else None, "unit": v["unit"]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
