"""Record the results.csv digests that the benchmark checks its sweeps against.

    python3 perfbench/fingerprint.py --workload long_horizon --seeds 0-20 --default

Runs one untraced sweep per seed, checks its cells, and stores the CSV's
sha256 in perfbench/fingerprints.json.  Re-record only after a deliberate
change of the CSV protocol, and say so where that change is recorded.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.run import (  # noqa: E402
    FINGERPRINTS,
    OUT_DIR,
    RUN_LIMIT_S,
    Checks,
    check_sweep,
    child_env,
    run_child,
)
from perfbench.workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default="", help="e.g. 0-20 or 1,5,9")
    parser.add_argument("--default", action="store_true", help="also the config's seeds.base")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    seeds = parse_seeds(args.seeds) if args.seeds else []
    if args.default:
        seeds.append(workload.default_seed())
    try:
        with open(FINGERPRINTS) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    env = child_env()
    for seed in seeds:
        out_dir = os.path.join(OUT_DIR, f"fingerprint-{workload.name}-{seed}")
        result, _, error = run_child("sweep", workload, seed, out_dir, env,
                                     time.monotonic() + RUN_LIMIT_S)
        if error:
            print(f"seed {seed}: {error}", file=sys.stderr)
            return 1
        checks = Checks()
        digest = check_sweep(result["rows"], os.path.join(out_dir, "pool", "results.csv"),
                             workload.cells(seed), None, checks, {})
        if not checks.correct:
            print(f"seed {seed}: {checks.problems}", file=sys.stderr)
            return 1
        table.setdefault(workload.name, {})[str(seed)] = digest
        print(f"{workload.name} seed {seed}: {digest}")
    with open(FINGERPRINTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
