"""The three benchmark workloads, driven through ``skillseq.cli.dispatch``.

Each workload builds its inputs during set-up with the ``synth``
command (plus, for the scoring workloads, one small ``train-classifier``
run), then repeats a unit of user work.  A unit runs one or more CLI
invocations; its canonical outputs are hashed after the timed part.

- ``cv-study``: ``evaluate`` then ``validate-cam`` over a small
  leave-one-user-out study.  Training dominates.
- ``score-batch``: ``predict``, ``cam`` and ``trust`` over batches of
  short 1 Hz trials with a fixed bundle.  Forward passes and ingestion
  dominate; the tape and optimizer do nothing.
- ``feedback-long``: one client in a closed loop; per long 10 Hz trial it
  runs ``predict`` then ``cam --overlay-dir``.  Fixed per-invocation
  costs, longer sequences and SVG rendering dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field

__all__ = ["WORKLOADS", "UnitResult", "tree_digest", "combined_digest"]


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def combined_digest(items):
    """sha256 over sorted ``(name, digest)`` pairs."""
    h = hashlib.sha256()
    for name, digest in sorted(items):
        h.update(f"{name}\0{digest}\n".encode("utf-8"))
    return h.hexdigest()


def tree_digest(root, relpaths=None):
    """Combined digest of the given files under ``root`` (default: all)."""
    if relpaths is None:
        relpaths = []
        for dirpath, _, files in os.walk(root):
            for f in files:
                relpaths.append(os.path.relpath(os.path.join(dirpath, f), root))
    return combined_digest((rel, file_sha256(os.path.join(root, rel))) for rel in relpaths)


def kv_file(path):
    """``key = value`` lines of a canonical report as a dict."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition(" = ")
            if sep:
                out[key] = value
    return out


@dataclass
class UnitResult:
    """One unit of work: wall time, per-command times, checks, digest."""

    start: float = 0.0
    seconds: float = 0.0
    parts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    digest: str | None = None
    guards: dict = field(default_factory=dict)


class Cli:
    """Runs CLI invocations in-process with their output captured."""

    def __init__(self, cli_module):
        self.cli = cli_module

    def invoke(self, argv, result=None, part=None):
        """Run one invocation; returns True on exit status 0.

        Failures are appended to ``result.problems``; the time goes to
        ``result.parts[part]``.
        """
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.dispatch(argv)
            except Exception:  # a crash is a failed invocation, not a benchmark crash
                traceback.print_exc()
                rc = None
        dt = time.perf_counter() - t0
        if result is not None and part is not None:
            result.parts[part] = result.parts.get(part, 0.0) + dt
        if rc != 0:
            tail = err.getvalue().strip().splitlines()[-3:]
            message = f"{argv[0]} exited {rc}: {' | '.join(tail)}"
            if result is None:
                raise RuntimeError(message)
            result.problems.append(message)
            return False
        return True


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _synth(cli, out, seed, subjects, trials, **extra):
    argv = ["synth", "--out", out, "--seed", str(seed),
            "--n-subjects", str(subjects), "--trials-per-subject", str(trials)]
    for key, value in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    cli.invoke(argv)
    return os.path.join(out, "manifest.csv")


def _split_manifest(manifest, subdir, group_of):
    """Split ``manifest`` into one manifest per group of rows, written to
    ``subdir`` beside it; ``group_of(i, subject, index)`` names row i's group.
    Returns {group: manifest path}."""
    parts_dir = _fresh(os.path.join(os.path.dirname(manifest), subdir))
    with open(manifest, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    groups = {}
    for i, row in enumerate(rows):
        path, subject, index = row.split(",")
        groups.setdefault(group_of(i, subject, index), []).append(
            f"{os.path.join('..', path)},{subject},{index}")
    out = {}
    for name, lines in groups.items():
        out[name] = os.path.join(parts_dir, f"{name}.csv")
        with open(out[name], "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join([header, *lines]) + "\n")
    return out


# A small 1 Hz training set for the scoring workloads' bundle; its seed is
# offset so it never coincides with the scored trials.
TRAIN_SEED_OFFSET = 1_000_003
TRAIN_SET = dict(subjects=4, trials=10, pass_fraction=0.7)
TRAIN_EPOCHS = ("--dae-max-epochs", "2", "--clf-max-epochs", "5")


def _train_bundle(cli, work, seed):
    manifest = _synth(cli, os.path.join(work, "train"), seed + TRAIN_SEED_OFFSET,
                      TRAIN_SET["subjects"], TRAIN_SET["trials"],
                      pass_fraction=TRAIN_SET["pass_fraction"])
    out = os.path.join(work, "model")
    cli.invoke(["train-classifier", "--manifest", manifest, "--out", out,
                "--seed", str(seed), *TRAIN_EPOCHS])
    return os.path.join(out, "skill.skq")


class CvStudy:
    """``evaluate`` then ``validate-cam`` on a leave-one-user-out study."""

    name = "cv-study"
    SUBJECTS = 4
    TRIALS = 8
    PASS_FRACTION = 0.7   # keeps both classes in every fold's training side
    EPOCHS = ("--dae-max-epochs", "4", "--clf-max-epochs", "15")

    def __init__(self, cli, seed):
        self.cli = cli
        self.seed = seed
        self.n_trials = self.SUBJECTS * self.TRIALS

    def setup(self, work):
        self.manifest = _synth(self.cli, os.path.join(work, "data"), self.seed,
                               self.SUBJECTS, self.TRIALS, pass_fraction=self.PASS_FRACTION)

    def units(self):
        return ["study"]

    def min_units(self, traced):
        return 1 if traced else 2

    def run(self, unit, out, timer):
        r = UnitResult()
        run_dir = os.path.join(out, "run")
        study_dir = os.path.join(run_dir, "masking")
        with timer(r):
            ok = self.cli.invoke(["evaluate", "--manifest", self.manifest, "--out", run_dir,
                                  "--scheme", "louo", "--seed", str(self.seed), "--jobs", "1",
                                  *self.EPOCHS], r, "evaluate")
            if ok:
                self.cli.invoke(["validate-cam", "--run", run_dir, "--out", study_dir,
                                 "--jobs", "1"], r, "validate_cam")
        if r.problems:
            return r
        files = ["metrics.txt", "masking/cam_validation.txt", "masking/masked/metrics.txt"]
        for report in ("metrics.txt", "masking/masked/metrics.txt"):
            kv = kv_file(os.path.join(run_dir, report))
            statuses = {k: v for k, v in kv.items() if k.endswith(" status")}
            if len(statuses) != self.SUBJECTS:
                r.problems.append(f"{report}: {len(statuses)} folds, expected {self.SUBJECTS}")
            for key, status in sorted(statuses.items()):
                if status != "ok":
                    r.problems.append(f"{report}: {key} = {status}")
                fold = key.split()[1]
                prefix = os.path.dirname(report)
                for f in ("predictions.csv", "cams.csv", "bundle.skq"):
                    files.append(os.path.join(prefix, f"fold_{fold}", f))
            if report == "metrics.txt":
                r.guards["pooled_auc"] = kv.get("pooled auc")
        missing = [f for f in files if not os.path.exists(os.path.join(run_dir, f))]
        if missing:
            r.problems.append(f"missing outputs: {', '.join(missing)}")
            return r
        r.digest = tree_digest(run_dir, files)
        return r


class ScoreBatch:
    """``predict``, ``cam`` and ``trust`` over batches of 1 Hz trials."""

    name = "score-batch"
    SUBJECTS = 40
    TRIALS = 25
    # 20 consecutive slices of the manifest, 31, 33, ..., 69 trials: batch
    # sizes vary, so unit times spread smoothly instead of piling up on one
    # value per machine state.
    BATCH_SIZES = tuple(range(31, 70, 2))
    # 30% fail trials put both classes in every batch, which trust needs
    PASS_FRACTION = 0.7

    def __init__(self, cli, seed):
        self.cli = cli
        self.seed = seed
        self.n_trials = self.SUBJECTS * self.TRIALS
        assert sum(self.BATCH_SIZES) == self.n_trials
        names = [f"b{b:02d}" for b in range(len(self.BATCH_SIZES))]
        self.batch_trials = dict(zip(names, self.BATCH_SIZES))
        self.batch_of = [name for name, size in self.batch_trials.items() for _ in range(size)]

    def setup(self, work):
        manifest = _synth(self.cli, os.path.join(work, "batch"), self.seed,
                          self.SUBJECTS, self.TRIALS, pass_fraction=self.PASS_FRACTION)
        self.manifests = _split_manifest(
            manifest, "batches", lambda i, subject, index: self.batch_of[i])
        self.bundle = _train_bundle(self.cli, work, self.seed)

    def units(self):
        return sorted(self.manifests)

    def min_units(self, traced):
        return len(self.manifests)

    def run(self, unit, out, timer):
        r = UnitResult()
        manifest = self.manifests[unit]
        records = os.path.join(out, "records.csv")
        cams = os.path.join(out, "cams.csv")
        trust_dir = os.path.join(out, "trust")
        with timer(r):
            ok = self.cli.invoke(["predict", "--bundle", self.bundle, "--manifest",
                                  manifest, "--out", records], r, "predict")
            ok = self.cli.invoke(["cam", "--bundle", self.bundle, "--manifest",
                                  manifest, "--out", cams], r, "cam") and ok
            if ok:
                self.cli.invoke(["trust", "--records", records, "--out", trust_dir],
                                r, "trust")
        if r.problems:
            return r
        with open(records, encoding="utf-8") as fh:
            n_records = sum(1 for _ in fh) - 1
        expected = self.batch_trials[unit]
        if n_records != expected:
            r.problems.append(f"{unit}: records.csv has {n_records} rows, expected {expected}")
        report = kv_file(os.path.join(trust_dir, "trust.txt"))
        if report.get("n") != str(expected):
            r.problems.append(f"{unit}: trust.txt n = {report.get('n')}, expected {expected}")
        r.guards["nts"] = report.get("nts")
        r.digest = tree_digest(out, ["records.csv", "cams.csv", "trust/trust.txt"])
        return r


class FeedbackLong:
    """Closed loop, one client: per 10 Hz trial, ``predict`` then
    ``cam --overlay-dir`` on a one-trial manifest."""

    name = "feedback-long"
    SUBJECTS = 5
    TRIALS = 30
    RATE_HZ = 10
    # 20% long (fail) trials put the 90th latency percentile inside the long
    # group rather than on the edge between short and long trials.
    PASS_FRACTION = 0.8

    def __init__(self, cli, seed):
        self.cli = cli
        self.seed = seed
        self.n_trials = self.SUBJECTS * self.TRIALS

    def setup(self, work):
        manifest = _synth(self.cli, os.path.join(work, "long"), self.seed, self.SUBJECTS,
                          self.TRIALS, sample_rate_hz=self.RATE_HZ,
                          pass_fraction=self.PASS_FRACTION)
        self.manifests = _split_manifest(
            manifest, "single", lambda i, subject, index: f"{subject}_{int(index):03d}")
        self.bundle = _train_bundle(self.cli, work, self.seed)

    def units(self):
        return sorted(self.manifests)

    def min_units(self, traced):
        return len(self.manifests)

    def run(self, unit, out, timer):
        r = UnitResult()
        manifest = self.manifests[unit]
        records = os.path.join(out, "records.csv")
        cams = os.path.join(out, "cams.csv")
        overlays = os.path.join(out, "overlay")
        rate = str(self.RATE_HZ)
        with timer(r):
            ok = self.cli.invoke(["predict", "--bundle", self.bundle, "--manifest", manifest,
                                  "--out", records, "--target-hz", rate], r, "predict")
            if ok:
                self.cli.invoke(["cam", "--bundle", self.bundle, "--manifest", manifest,
                                 "--out", cams, "--target-hz", rate,
                                 "--overlay-dir", overlays], r, "cam")
        if r.problems:
            return r
        svg = os.path.join(overlays, f"{unit}.svg")
        if not os.path.exists(svg) or os.path.getsize(svg) == 0:
            r.problems.append(f"{unit}: no overlay written")
        r.digest = tree_digest(out, ["records.csv", "cams.csv"])
        return r


WORKLOADS = {w.name: w for w in (CvStudy, ScoreBatch, FeedbackLong)}
