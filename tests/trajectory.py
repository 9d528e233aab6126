"""The benchmark's end-to-end metrics over many seeds, in one JSON file.

Run by hand from the repository root; pytest does not collect this file
(it is not named ``test_*.py``)::

    python tests/trajectory.py --out BENCH_<n>.json
    python tests/trajectory.py --out BENCH_<n>.json --baseline ../parent-checkout

For each seed, and each workload in turn, it runs ``python3
perfbench/run.py --workload <w> --seed <n> --seconds 30 --trace 0`` as a
child process, then reads the record that run leaves in
``.bench_results/<w>-seed<n>-trace0.json``.  Seeds run from 0: 5 per
workload and 10 on ``cv-study``, whose runs spread the most.  Per
workload the file holds each run's ``setup_s``, ``op_refms_p50``,
``op_refms_p90``, ``peak_rss_mb`` and ``wall_op_ms_p50``, their median,
quartiles and interquartile range, how many runs matched the recorded
output digest, and the operations attempted and failed.  It also names
the code that ran: the commit, a sha256 over ``src/skillseq/*.py`` (so
an uncommitted tree still names its code), the BLAS build and the
platform key.

With ``--baseline <checkout>`` every run of the tree pairs with the same
run of the other checkout, which runs second on even seeds and first on
odd ones and gets the same summary; each metric gets its paired ratios
(this tree over the baseline, seed by seed), their median and the number
of pairs in which this tree was lower.  The tool reads only the records:
it neither imports nor edits ``perfbench/``.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {"cv-study": 10, "score-batch": 5, "feedback-long": 5}
SECONDS = 30
RESULT_METRICS = ("setup_s", "op_refms_p50", "op_refms_p90", "peak_rss_mb")
DETAIL_METRICS = ("wall_op_ms_p50",)
METRICS = RESULT_METRICS + DETAIL_METRICS
ENVIRONMENT = ("git_commit", "blas_build", "blas_core", "platform_key", "python", "numpy",
               "nproc")


def source_sha256(root):
    """sha256 over each ``src/skillseq/*.py`` file's name, a NUL, its
    bytes and a NUL, in name order."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "skillseq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_once(root, workload, seed):
    """One benchmark run in ``root``: its record's metrics, digest status,
    counts and environment."""
    record = root / ".bench_results" / f"{workload}-seed{seed}-trace0.json"
    record.unlink(missing_ok=True)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0 or not record.exists():
        sys.exit(f"error: {' '.join(argv[1:])} in {root} exited {done.returncode}:\n"
                 f"{done.stderr[-2000:]}")
    rec = json.loads(record.read_text(encoding="utf-8"))
    values = {m: rec["result"]["metrics"][m]["value"] for m in RESULT_METRICS}
    values.update({m: rec["detail"][m] for m in DETAIL_METRICS})
    return {"values": values, "digest": rec["digest"]["status"],
            "attempted": rec["result"]["attempted"], "failed": rec["result"]["failed"],
            "environment": {k: rec["environment"][k] for k in ENVIRONMENT}}


def spread(values):
    """Median, quartiles (inclusive method) and interquartile range."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summary(root, runs):
    """The JSON block of one tree's runs (``{workload: [run, ...]}``)."""
    first = next(iter(runs.values()))[0]["environment"]
    out = {"source_sha256": source_sha256(root), **first, "workloads": {}}
    for workload, done in runs.items():
        for run in done:
            if run["environment"] != first:
                sys.exit(f"error: the environment changed between runs: {run['environment']}")
        statuses = [run["digest"] for run in done]
        out["workloads"][workload] = {
            "runs": len(done),
            "digest": {s: statuses.count(s) for s in sorted(set(statuses))},
            "attempted": sum(run["attempted"] for run in done),
            "failed": sum(run["failed"] for run in done),
            "metrics": {m: {**spread([run["values"][m] for run in done]),
                            "values": [run["values"][m] for run in done]}
                        for m in METRICS},
        }
    return out


def paired(runs, base_runs):
    """Per workload and metric: this tree's value over the baseline's,
    seed by seed, with their median and how many are below 1."""
    out = {}
    for workload, done in runs.items():
        out[workload] = {}
        for m in METRICS:
            ratios = [a["values"][m] / b["values"][m] for a, b in zip(done, base_runs[workload])]
            out[workload][m] = {"median_ratio": statistics.median(ratios),
                                "lower_in": sum(r < 1.0 for r in ratios), "ratios": ratios}
    return out


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="the JSON file to write")
    p.add_argument("--baseline", type=Path, help="a checkout to run alternately, seed for seed")
    args = p.parse_args(argv)
    trees = [ROOT] + ([args.baseline.resolve()] if args.baseline else [])
    runs = [{w: [] for w in SEEDS} for _ in trees]
    for seed in range(max(SEEDS.values())):
        for workload in (w for w, n in SEEDS.items() if seed < n):
            pairs = list(zip(trees, runs))
            for tree, done in pairs if seed % 2 == 0 else pairs[::-1]:
                run = run_once(tree, workload, seed)
                done[workload].append(run)
                print(f"{tree.name} {workload} seed {seed}: {run['digest']}, "
                      f"failed {run['failed']}, op_refms_p50 {run['values']['op_refms_p50']:.4g}",
                      flush=True)
    out = {"command": f"python tests/trajectory.py --out {args.out}", "seconds": SECONDS,
           **summary(ROOT, runs[0])}
    if args.baseline:
        out["baseline"] = summary(trees[1], runs[1])
        out["command"] += f" --baseline <checkout of {out['baseline']['git_commit'][:7]}>"
        out["paired"] = paired(runs[0], runs[1])
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
