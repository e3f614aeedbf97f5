"""One benchmark measurement in a fresh interpreter, as a user would run a sweep.

    python3 perfbench/child.py sweep  --workload W --seed N --out DIR
    python3 perfbench/child.py traced --workload W --seed N --out DIR

``sweep`` parses the workload's config, runs ``cbwk.run_sweep`` at
parallelism = nproc and writes the CSV and SVG, timing all of it.
``traced`` does the same sweep, then the same cells serially in-process
without tracing and once more with the tracer installed.  Both write
``DIR/result.json``; the parent process checks it.  The package is imported
from ``src/`` of the checkout this file lives in, and nowhere else.
"""

import argparse
import ctypes
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.machine import nproc  # noqa: E402
from perfbench.workloads import SRC_DIR, WORKLOADS, config_text  # noqa: E402


def import_cbwk():
    import cbwk

    expected = os.path.join(SRC_DIR, "cbwk", "__init__.py")
    if os.path.realpath(cbwk.__file__) != os.path.realpath(expected):
        raise SystemExit(f"cbwk imported from {cbwk.__file__}, expected {expected}")
    return cbwk


def blas_info() -> dict:
    """BLAS library, version and the thread count it reports in this process."""
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["blas_threads_parent"] = getter()
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        info["blas_config"] = config().decode()
                    return info
    return info


def row_record(config, row) -> list:
    T = config.cell_params(row.sweep_value)["T"]
    return [row.algorithm, row.sweep_value, row.seed, row.regret, row.tau,
            row.total_reward, row.runtime_ms, row.error, T]


def sweep_once(cbwk, text: str, out_dir: str, parallelism: int):
    """Parse, sweep, write the CSV and SVG: the timed unit of the benchmark."""
    os.makedirs(out_dir, exist_ok=True)
    started = time.perf_counter()
    config = cbwk.parse_config(text)
    result = cbwk.run_sweep(config, parallelism=parallelism)
    cbwk.write_csv(result, os.path.join(out_dir, "results.csv"))
    cbwk.render_plot(result, os.path.join(out_dir, "plot.svg"))
    return config, result, time.perf_counter() - started


def traced_sweep(cbwk, text: str, out_dir: str):
    """Serial in-process sweep under the tracer; returns (config, result, tracer, timings)."""
    from perfbench import tracer as tr

    os.makedirs(out_dir, exist_ok=True)
    tracer = tr.Tracer()
    with tr.install(tracer):
        t0 = time.perf_counter()
        config = cbwk.parse_config(text)
        t1 = time.perf_counter()
        result = cbwk.run_sweep(config, parallelism=1)
        t2 = time.perf_counter()
        cbwk.write_csv(result, os.path.join(out_dir, "results.csv"))
        t3 = time.perf_counter()
        cbwk.render_plot(result, os.path.join(out_dir, "plot.svg"))
        t4 = time.perf_counter()
    timings = {"parse_config": t1 - t0, "write_csv": t3 - t2, "render_plot": t4 - t3}
    return config, result, tracer, timings


def layer_metrics(tracer, timings: dict, serial_cell_ms: float) -> dict:
    """Per-layer metrics from the spans and counters of one traced sweep."""
    totals = tracer.totals()
    counts = tracer.counts

    def self_ms(*names):
        return sum(totals[n]["self_ms"] for n in names if n in totals)

    def incl_ms(name):
        return totals[name]["ms"] if name in totals else 0.0

    def calls(name):
        return totals[name]["calls"] if name in totals else 0

    def ratio(num, den):
        return num / den if den else 0.0

    cells = counts.get("harness.cells", 0)
    traced_cell_ms = incl_ms("harness.run_cell")
    return {
        "oracles.project.self_ms": self_ms("oracles.project"),
        "oracles.project.calls": calls("oracles.project"),
        "oracles.project.rows": counts.get("oracles.project.rows", 0),
        "oracles.project_ratio": ratio(counts.get("oracles.project.rows", 0),
                                       counts.get("oracles.glmtron_row_updates", 0)),
        "oracles.update.self_ms": self_ms("oracles.update"),
        "oracles.update.calls": calls("oracles.update"),
        "oracles.predict.self_ms": self_ms("oracles.predict"),
        "oracles.predict.calls": calls("oracles.predict"),
        "oracles.reinit.count": sum(getattr(o, "reinit_count", 0) for o in tracer.oracles),
        "oracles.online_to_batch.self_ms": self_ms("oracles.online_to_batch"),
        "oracles.online_to_batch.samples": counts.get("oracles.online_to_batch.samples", 0),
        "baseline.run_linucb.self_ms": self_ms("baseline.run_linucb"),
        "baseline.rounds": counts.get("baseline.rounds", 0),
        "policy.run_squarecbwk.self_ms": self_ms("policy.run_squarecbwk"),
        "policy.scoring.self_ms": self_ms("policy.lagrangian_scores", "policy.igw_distribution"),
        "policy.sample_arm.self_ms": self_ms("policy.sample_arm"),
        "policy.rounds": counts.get("policy.rounds", 0),
        "dual.update.self_ms": self_ms("dual.update"),
        "dual.lambda.self_ms": self_ms("dual.lambda"),
        "dual.updates": calls("dual.update"),
        "core.sample_outcome.self_ms": self_ms("core.sample_outcome"),
        "core.sample_outcome.calls": calls("core.sample_outcome"),
        "twostage.explore.self_ms": self_ms("twostage.explore"),
        "twostage.phase_one.self_ms": self_ms("twostage.phase_one"),
        "twostage.empirical_opt.self_ms": self_ms("twostage.empirical_opt"),
        "twostage.exploration_share": ratio(incl_ms("twostage.phase_one"),
                                            incl_ms("twostage.run_twostage")),
        "twostage.precondition_warnings": counts.get("twostage.precondition_warnings", 0),
        "lp.solve_lp.self_ms": self_ms("lp.solve_lp"),
        "lp.solves": counts.get("lp.solves", 0),
        "lp.pivots": counts.get("lp.pivots", 0),
        "lp.pivots_per_cell": ratio(counts.get("lp.pivots", 0), cells),
        "harness.parse_config.ms": timings["parse_config"] * 1e3,
        "harness.write_csv.ms": timings["write_csv"] * 1e3,
        "harness.render_plot.ms": timings["render_plot"] * 1e3,
        "harness.run_cell.self_ms": self_ms("harness.run_cell"),
        "harness.cells": cells,
        "harness.cells_failed": counts.get("harness.cells_failed", 0),
        "trace.overhead_ratio": ratio(traced_cell_ms, serial_cell_ms),
    }


def self_sum_errors(tracer, rows) -> list:
    """Per traced cell: |sum of self times in its subtree - runtime_ms| / runtime_ms.

    ``runtime_ms`` is measured by the package inside the cell, so this
    compares the derived self times against an independent clock reading.
    """
    errors = []
    for (span, _), row in zip(tracer.cells, rows):
        total_ms = tracer.subtree_self_sum(span) * 1e3
        errors.append(abs(total_ms - row.runtime_ms) / max(row.runtime_ms, 1e-9))
    return errors


def leftover_wrappers() -> list:
    """Names of cbwk attributes that still hold a tracing wrapper."""
    from perfbench import tracer as tr

    left = []
    for name, module in list(sys.modules.items()):
        if name == "cbwk" or name.startswith("cbwk."):
            for attr, value in vars(module).items():
                if tr.is_wrapped(value):
                    left.append(f"{name}.{attr}")
                if isinstance(value, type):
                    left += [f"{name}.{attr}.{m}" for m, v in vars(value).items()
                             if tr.is_wrapped(v)]
    return left


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("sweep", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    cbwk = import_cbwk()
    text = config_text(WORKLOADS[args.workload], args.seed)
    workers = nproc()
    config, result, wall = sweep_once(cbwk, text, os.path.join(args.out, "pool"), workers)
    out = {
        "parallelism": workers,
        "sweep_s": wall,
        "rows": [row_record(config, r) for r in result.rows],
        "blas": blas_info(),
    }
    if args.mode == "traced":
        serial = cbwk.run_sweep(cbwk.parse_config(text), parallelism=1)
        serial_ms = sum(r.runtime_ms for r in serial.rows)
        config, traced, tracer, timings = traced_sweep(cbwk, text,
                                                       os.path.join(args.out, "traced"))
        out["serial_rows"] = [row_record(config, r) for r in serial.rows]
        out["traced_rows"] = [row_record(config, r) for r in traced.rows]
        out["layers"] = layer_metrics(tracer, timings, serial_ms)
        out["self_sum_errors"] = self_sum_errors(tracer, traced.rows)
        out["leftover_wrappers"] = leftover_wrappers()
        out["spans"] = len(tracer.name)
        tracer.save(os.path.join(args.out, "spans.npz"))
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
