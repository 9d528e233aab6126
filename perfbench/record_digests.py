"""Record reference output digests into perfbench/digests.json.

    python3 perfbench/record_digests.py --seeds 0-31
    python3 perfbench/record_digests.py --seeds 5 --workload cv-study

For each workload and seed this runs one set-up and every unit once,
untraced, and stores the combined digest of the canonical outputs under
this machine's platform key.  Run it only on code whose outputs are the
reference: the benchmark counts every later mismatch as a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run  # pins BLAS to one thread before numpy loads
from envinfo import platform_key


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    p = argparse.ArgumentParser(description="record benchmark output digests")
    p.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,4,9")
    p.add_argument("--workload", action="append", help="default: all workloads")
    args = p.parse_args()
    cli_module = run.import_cli()
    if cli_module is None:
        sys.exit(f"skillseq sources not found under {run.SRC}")
    key = platform_key()
    try:
        with open(run.DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {"platforms": {}}
    recorded = table["platforms"].setdefault(key, {})
    for name in args.workload or list(run.WORKLOADS):
        for seed in parse_seeds(args.seeds):
            bench = run.Bench(argparse.Namespace(workload=name, seed=seed, trace=0, seconds=0),
                              cli_module)
            try:
                bench.setup(reps=1, min_seconds=0.0)
                for unit in bench.workload.units():
                    bench.run_unit(unit, traced=False)
            finally:
                shutil.rmtree(bench.work, ignore_errors=True)
            problems = bench.problems + [q for _, _, r in bench.ops for q in r.problems]
            if problems:
                sys.exit(f"{name} seed {seed}: {problems[0]}")
            digest = bench.check_digests(key)["combined"]
            recorded.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", flush=True)
            with open(run.DIGESTS + ".tmp", "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(run.DIGESTS + ".tmp", run.DIGESTS)


if __name__ == "__main__":
    main()
