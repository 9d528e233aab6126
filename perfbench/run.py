"""Benchmark entry point for skillseq.

    python3 perfbench/run.py --workload cv-study --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` and
driven in-process through ``skillseq.cli.dispatch``, single-threaded (BLAS
pinned to one thread, ``--jobs 1``).  Set-up builds the inputs from
``--seed`` several times and reports the median time.  The workload then
repeats its unit of work until the next unit would end past
``--seconds`` (but at least a minimum number of units), checks every
output and compares output digests with ``perfbench/digests.json``.

``--trace 0`` reports the end-to-end metrics, with set-up and unit times
read at reference speed (see ``speed.py``).  ``--trace 1`` runs every
unit twice, untraced then traced, and reports per-layer metrics from
the traced runs plus the tracing overhead.  The last stdout line is the
JSON result; the lines before it, and ``.bench_results/``, hold the
details (environment, per-command times, correctness guards, spans).
"""

from __future__ import annotations

import os
import sys

from envinfo import BLAS_THREAD_VARS

# BLAS reads these once, when numpy loads it.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
# The program's seed fallback must not leak into the benchmark.
os.environ.pop("SKILLSEQ_SEED", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from envinfo import environment  # noqa: E402
from layer_metrics import PER_LAYER, layer_metrics  # noqa: E402
from optable import OPTABLE_METRICS, op_table  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from workloads import WORKLOADS, Cli, combined_digest, tree_digest  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")
DIGESTS = os.path.join(HERE, "digests.json")
# Set-up repeats at least SETUP_REPS times and until SETUP_MIN_SECONDS have
# passed (at most SETUP_MAX_REPS), so a cheap set-up still yields a steady median.
SETUP_REPS = 3
SETUP_MAX_REPS = 40
SETUP_MIN_SECONDS = 2.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_cli():
    """skillseq.cli from the checkout's src/, or None when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "skillseq", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import skillseq.cli

    return skillseq.cli


def percentile(values, q):
    """Inclusive-method percentile (q in 1..99); a single value is itself."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_golden(key, workload, seed):
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get("platforms", {}).get(key, {}).get(workload, {}).get(str(seed))


class Bench:
    """One benchmark run: set-up, measured loop, checks, report."""

    def __init__(self, args, cli_module):
        self.args = args
        self.trace = bool(args.trace)
        self.rec = SpanRecorder() if self.trace else None
        self.speed = None if self.trace else SpeedSampler()
        self.workload = WORKLOADS[args.workload](Cli(cli_module), args.seed)
        self.work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
        self.ops = []          # (unit, traced, UnitResult)
        self.op_roots = []
        self.setup_roots = []
        self.setup_starts = []
        self.setup_times = []
        self.problems = []
        self.first_digest = {}

    @contextlib.contextmanager
    def _traced(self, enabled, name, roots):
        """Wrappers installed for the block, with one root span inside it."""
        if not enabled:
            yield
            return
        self.rec.install()
        try:
            with self.rec.span(name) as idx:
                roots.append(idx)
                yield
        finally:
            self.rec.uninstall()

    def setup(self, reps=SETUP_REPS, min_seconds=SETUP_MIN_SECONDS):
        digests = []
        for rep in range(SETUP_MAX_REPS):
            if rep >= reps and sum(self.setup_times) >= min_seconds:
                break
            target = os.path.join(self.work, f"setup{rep}")
            shutil.rmtree(target, ignore_errors=True)
            os.makedirs(target)
            t0 = time.perf_counter()
            with self._traced(self.trace, "bench.setup", self.setup_roots):
                self.workload.setup(target)
            self.setup_starts.append(t0)
            self.setup_times.append(time.perf_counter() - t0)
            digests.append(tree_digest(target))
        if len(set(digests)) != 1:
            self.problems.append("set-up is not deterministic: inputs differ between repeats")

    def run_unit(self, unit, traced):
        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)

        @contextlib.contextmanager
        def timer(result):
            """Times the unit's invocations; when traced, they form one root span."""
            with self._traced(traced, "bench.op", self.op_roots):
                result.start = time.perf_counter()
                try:
                    yield
                finally:
                    result.seconds = time.perf_counter() - result.start

        r = self.workload.run(unit, out, timer)
        if r.digest is not None:
            first = self.first_digest.setdefault(unit, r.digest)
            if r.digest != first:
                r.problems.append(f"{unit}: outputs differ from the first run of this unit")
        self.ops.append((unit, traced, r))

    def measure(self):
        units = self.workload.units()
        modes = (False, True) if self.trace else (False,)
        minimum = self.workload.min_units(self.trace)
        t0 = time.perf_counter()
        done = 0
        while True:
            unit = units[done % len(units)]
            for traced in modes:
                self.run_unit(unit, traced)
            done += 1
            elapsed = time.perf_counter() - t0
            if done >= minimum and elapsed * (done + 1) / done > self.args.seconds:
                break

    def check_digests(self, key):
        """Combined digest over every unit, against the recorded one."""
        if any(u not in self.first_digest for u in self.workload.units()):
            return {"status": "incomplete", "combined": None, "recorded": None}
        combined = combined_digest(self.first_digest.items())
        recorded = load_golden(key, self.args.workload, self.args.seed)
        if recorded is None:
            status = "not recorded for this seed and platform"
        elif recorded == combined:
            status = "match"
        else:
            status = "MISMATCH"
            self.problems.append(f"output digest {combined[:16]}... differs from the "
                                 f"recorded {recorded[:16]}...")
        return {"status": status, "combined": combined, "recorded": recorded}


def end_to_end(bench):
    """Set-up and unit times at reference speed (see speed.py), peak memory."""
    ref = bench.speed.reference_seconds
    setup = [ref(t0, t0 + dt) for t0, dt in zip(bench.setup_starts, bench.setup_times)]
    units = [ref(r.start, r.start + r.seconds) for _, traced, r in bench.ops if not traced]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_refms_p50": (statistics.median(units) * 1e3, "ref-ms"),
        "op_refms_p90": (percentile(units, 90) * 1e3, "ref-ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def wall_clock(bench):
    """The same timings as read off the wall clock, and the probes' cost."""
    secs = [r.seconds for _, traced, r in bench.ops if not traced]
    speed = bench.speed
    span = speed.at[-1] - speed.at[0] if len(speed.at) > 1 else float("nan")
    return {
        "wall_setup_s": statistics.median(bench.setup_times),
        "wall_op_ms_p50": statistics.median(secs) * 1e3,
        "wall_op_ms_p90": percentile(secs, 90) * 1e3,
        "probe_samples": len(speed.took),
        "probe_ms_median": statistics.median(speed.took) * 1e3,
        "probe_time_share": sum(speed.took) / span,
    }


def per_layer(bench):
    """Span metrics of the traced units, the op table and the overhead."""
    import skillseq.tensor as tz

    values = layer_metrics(bench.rec, bench.op_roots, bench.setup_roots)
    values.update(op_table(tz, bench.args.seed))
    # every unit ran twice, untraced then traced
    plain = sum(r.seconds for _, traced, r in bench.ops if not traced)
    traced = sum(r.seconds for _, traced, r in bench.ops if traced)
    values["trace.overhead_share"] = traced / plain - 1.0
    return {name: (values[name], unit) for name, unit in PER_LAYER + OPTABLE_METRICS}


def details(bench):
    """Per-command medians (seconds), throughputs and guards, for people."""
    w = bench.workload
    plain = [r for _, traced, r in bench.ops if not traced]
    out = {"units_measured": len(plain)}
    for part in sorted({p for r in plain for p in r.parts}):
        out[f"{part}_s"] = statistics.median(r.parts[part] for r in plain if part in r.parts)
    if w.name == "score-batch":
        trials = sum(w.batch_trials[u] for u, traced, _ in bench.ops if not traced)
        for part in ("predict", "cam"):
            seconds = sum(r.parts[part] for _, traced, r in bench.ops if not traced)
            out[f"{part}_trials_per_s"] = trials / seconds
    for guard in sorted({g for _, _, r in bench.ops for g in r.guards}):
        seen = {}
        for unit, _, r in bench.ops:
            seen.setdefault(unit, set()).add(r.guards.get(guard))
        if any(len(values) != 1 for values in seen.values()):
            out[guard] = f"NOT REPEATED: {sorted(map(str, set().union(*seen.values())))}"
        elif len(seen) == 1:
            out[guard] = seen.popitem()[1].pop()
        else:
            out[guard] = {unit: values.pop() for unit, values in sorted(seen.items())}
    return out


def write_spans(bench, path):
    rec = bench.rec
    np.savez_compressed(
        path, names=np.array(rec.names), name_id=np.array(rec.name_id, dtype=np.int64),
        parent=np.array(rec.parent, dtype=np.int64), start=np.array(rec.start),
        end=np.array(rec.end), work=np.array(rec.work),
        op_roots=np.array(bench.op_roots, dtype=np.int64),
        setup_roots=np.array(bench.setup_roots, dtype=np.int64))


def report(args, env, bench, digest, detail, result):
    """Result file under .bench_results/ and the `#` lines for people."""
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if bench.trace:
        write_spans(bench, stem + ".spans.npz")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_s_samples": bench.setup_times,
        "digest": digest, "detail": detail, "problems": bench.problems,
        "missing_spans": bench.rec.missing if bench.rec else [],
        "units": [{"unit": u, "traced": t, "seconds": r.seconds, "parts": r.parts,
                   "problems": r.problems, "digest": r.digest} for u, t, r in bench.ops],
        "result": result,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for key in ("python", "numpy", "scipy", "blas_build", "blas_core", "blas_threads",
                "nproc", "git_commit", "platform_key"):
        print(f"# env {key} = {env[key]}")
    print(f"# setup_s samples = {[round(t, 4) for t in bench.setup_times]}")
    for key, value in detail.items():
        print(f"# {key} = {value}")
    print(f"# digest {digest['status']}: {digest['combined']}")
    if bench.rec and bench.rec.missing:
        print(f"# missing spans (not in this program version): {bench.rec.missing}")
    for problem in bench.problems + [p for _, _, r in bench.ops for p in r.problems][:20]:
        print(f"# problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    cli_module = import_cli()
    if cli_module is None:
        print(f"error: skillseq sources not found under {SRC}", file=sys.stderr)
        return 2
    env = environment(ROOT)
    bench = Bench(args, cli_module)
    if bench.speed:
        bench.speed.start()
    try:
        try:
            bench.setup()
        except RuntimeError as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        bench.measure()
    finally:
        if bench.speed:
            bench.speed.stop()
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    digest = bench.check_digests(env["platform_key"])

    attempted = len(bench.ops)
    failed = sum(1 for _, _, r in bench.ops if r.problems)
    if digest["status"] == "MISMATCH":
        failed = attempted
    values = per_layer(bench) if bench.trace else end_to_end(bench)
    result = {
        "correct": failed == 0 and not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in values.items()},
    }
    detail = details(bench)
    detail["error_rate"] = failed / attempted
    if bench.speed:
        detail.update(wall_clock(bench))

    report(args, env, bench, digest, detail, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
