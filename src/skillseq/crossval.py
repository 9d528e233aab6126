"""Cross-validated training runs and the masking study built on them.

A run takes a dataset plus RunSettings, trains one embedding + skill
model per fold (training data only: normalization statistics, class
weights, and validation splits never see the test side), and persists
everything needed to replay it: the resolved settings, the dataset
fingerprint, the fold roster, per-fold weights, predictions, and
activation maps.  Reports are canonical text, so a replay from the same
artifacts is byte-identical.

A fold passes downsampled trials only: ``train_dae`` fits the min-max
statistics on the fold's training trials, and the skill model applies
them to every trial it trains on or scores through
``model.normalize_for_model``, the one place a bundle's statistics are
applied.  The fold checks that the statistics name training trials only.

The masking study (validate_cams) reloads a finished run, attenuates
every trial with the activation map computed when that trial was in the
test fold, retrains under the identical roster and derived seeds, and
compares per-fold metrics with a one-sided signed-rank test.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .bundle import save_bundle
from .config import ConfigError, RunConfig, parse_scheme, read_run_cfg, write_run_cfg
from .data import dataset_fingerprint, load_manifest, read_text
from .explain import CamMap, mask_with_cams, predict_with_cams, read_cams_csv, write_cams_csv
from .folds import FoldAssignment, loso_folds, louo_folds, stratified_kfold
from .metrics import binary_metrics, roc_auc, spearman, wilcoxon_one_sided
from .model import actual_class, predict_many, prepare_dataset
from .records import read_records_csv, write_records_csv
from .reports import kv_line
from .training import train_classifier, train_dae

__all__ = [
    "FoldOutcome",
    "RunResult",
    "MaskingStudy",
    "run_cv",
    "validate_cams",
    "derive_fold_seed",
    "encoder_fingerprint",
    "metrics_report_text",
]

CLASSIFICATION_METRICS = ("accuracy", "auc", "sensitivity", "specificity")
REGRESSION_METRICS = ("spearman", "spearman_p")
# the masking study's metrics, in report order
MASKING_METRICS = ("accuracy", "sensitivity", "specificity", "auc")

SETTINGS_FILE = "run.cfg"
FOLDS_FILE = "folds.txt"
METRICS_FILE = "metrics.txt"
MASKING_FILE = "cam_validation.txt"


def derive_fold_seed(run_seed, fold_index, stage):
    """Per-fold training seed; stage 0 trains the embedding, 1 the head."""
    return ((run_seed + 1) * 1_000_003 + fold_index) * 2 + stage


@dataclass(frozen=True)
class FoldOutcome:
    name: str
    status: str
    records: tuple
    metrics: dict
    bundle: object
    dae_epochs: int = 0
    clf_epochs: int = 0
    encoder_sha256: str = ""
    cams: tuple = ()

    @property
    def ok(self):
        return self.status == "ok"


def encoder_fingerprint(bundle):
    """sha256 over the encoder group's parameter bytes, name-ordered."""
    h = hashlib.sha256()
    for name in sorted(bundle.weights):
        if name.startswith("encoder/"):
            h.update(name.encode("utf-8"))
            h.update(np.ascontiguousarray(bundle.weights[name], dtype="<f8").tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class RunResult:
    dataset_sha256: str
    outcomes: tuple
    metrics_text: str


def _build_assignment(stage2, settings):
    kind, k = parse_scheme(settings.scheme)
    trials = stage2.trials
    if kind == "stratified":
        return stratified_kfold([t.trial_id for t in trials], [t.class_label for t in trials],
                                k, settings.seed)
    if kind == "loso":
        return loso_folds(trials)
    return louo_folds(trials)


def _classification_metrics(records):
    actual = [r.actual for r in records]
    predicted = [r.predicted for r in records]
    bm = binary_metrics(actual, predicted)
    try:
        auc = roc_auc(
            np.array([r.confidences[0] for r in records]),
            np.array([a == 0 for a in actual]),
        )
    except ValueError:
        auc = None
    return {"accuracy": bm.accuracy, "auc": auc,
            "sensitivity": bm.sensitivity, "specificity": bm.specificity}


def _regression_metrics(records):
    true = [r.true_score for r in records]
    pred = [r.pred_score for r in records]
    try:
        rho, p = spearman(true, pred)
    except ValueError:
        return {"spearman": None, "spearman_p": None}
    return {"spearman": rho, "spearman_p": p}


def fold_metrics(mode, records):
    if not records:
        return {m: None for m in metric_names(mode)}
    if mode == "classification":
        return _classification_metrics(records)
    return _regression_metrics(records)


def metric_names(mode):
    return CLASSIFICATION_METRICS if mode == "classification" else REGRESSION_METRICS


def _fold_guard(settings, train_trials):
    if settings.mode == "classification":
        labels = {t.class_label for t in train_trials}
        if None in labels:
            return "failed: training trial without class label"
        if len(labels) < 2:
            return f"failed: single-class training data ({labels.pop()})"
    else:
        scores = [t.score for t in train_trials]
        if any(s is None for s in scores):
            return "failed: training trial without score"
        if len(set(scores)) < 2:
            return "failed: constant training scores"
    return None


def _run_fold(args):
    settings, fold_index, fold, train_trials, test_trials = args
    reason = _fold_guard(settings, train_trials)
    if reason is not None:
        return FoldOutcome(name=fold.name, status=reason, records=(),
                           metrics=None, bundle=None)
    try:
        dae_bundle, dae_hist = train_dae(train_trials, settings.dae,
                                         derive_fold_seed(settings.seed, fold_index, 0),
                                         settings.arch)
        skill, clf_hist = train_classifier(
            dae_bundle, train_trials, settings.clf,
            derive_fold_seed(settings.seed, fold_index, 1), settings.arch, settings.mode
        )
    except FloatingPointError as exc:
        raise FloatingPointError(f"fold {fold.name}: {exc}") from exc
    assert set(skill.minmax.source_ids) <= set(fold.train_ids)
    # one packed forward gives the records and, for classification, each
    # trial's map for its actual class (the predicted one when unknown)
    cams = ()
    if settings.mode == "classification":
        records, cams = predict_with_cams(skill, test_trials,
                                          [actual_class(skill, t) for t in test_trials])
    else:
        records = predict_many(skill, test_trials)
    records = tuple(records)
    return FoldOutcome(
        name=fold.name,
        status="ok",
        records=records,
        cams=tuple(cams),
        metrics=fold_metrics(settings.mode, records),
        bundle=skill,
        dae_epochs=len(dae_hist.train_loss),
        clf_epochs=len(clf_hist.train_loss),
        encoder_sha256=encoder_fingerprint(skill),
    )


def _aggregate_lines(mode, outcomes):
    lines = []
    for m in metric_names(mode):
        vals = [o.metrics[m] for o in outcomes if o.ok and o.metrics[m] is not None]
        lines.append(kv_line(f"aggregate {m} mean", float(np.mean(vals)) if vals else None))
        lines.append(kv_line(f"aggregate {m} std", float(np.std(vals)) if vals else None))
        lines.append(kv_line(f"aggregate {m} n_folds", len(vals)))
    pooled = [r for o in outcomes if o.ok for r in o.records]
    for m, v in fold_metrics(mode, tuple(pooled)).items():
        lines.append(kv_line(f"pooled {m}", v))
    lines.append(kv_line("pooled n", len(pooled)))
    return lines


def metrics_report_text(settings, dataset_sha, assignment, outcomes):
    """Canonical run report: header, per-fold block, aggregate block.

    Aggregate std is the population standard deviation over the folds
    that produced the metric; pooled lines recompute each metric over
    all out-of-fold predictions at once.
    """
    lines = [
        "report = metrics",
        kv_line("mode", settings.mode),
        kv_line("scheme", settings.scheme),
        kv_line("seed", settings.seed),
        kv_line("dataset_sha256", dataset_sha),
        kv_line("folds_sha256", assignment.fingerprint()),
        kv_line("n_folds", len(assignment.folds)),
    ]
    for o in outcomes:
        lines.append(kv_line(f"fold {o.name} status", o.status))
        if not o.ok:
            continue
        lines.append(kv_line(f"fold {o.name} n", len(o.records)))
        lines.append(kv_line(f"fold {o.name} dae_epochs", o.dae_epochs))
        lines.append(kv_line(f"fold {o.name} clf_epochs", o.clf_epochs))
        lines.append(kv_line(f"fold {o.name} encoder_sha256", o.encoder_sha256))
        for m in metric_names(settings.mode):
            lines.append(kv_line(f"fold {o.name} {m}", o.metrics[m]))
    lines.extend(_aggregate_lines(settings.mode, outcomes))
    return "\n".join(lines) + "\n"


def _persist_fold(out_dir, settings, fold, outcome):
    fold_dir = os.path.join(out_dir, f"fold_{fold.name}")
    os.makedirs(fold_dir, exist_ok=True)
    if not outcome.ok:
        return
    save_bundle(outcome.bundle, os.path.join(fold_dir, "bundle.skq"))
    write_records_csv(outcome.records, os.path.join(fold_dir, "predictions.csv"))
    if settings.mode == "classification":
        write_cams_csv(outcome.cams, os.path.join(fold_dir, "cams.csv"))


def _process_pool(workers):
    """A process pool of ``workers`` processes.  Imported on first use:
    ``concurrent.futures.process`` brings in ``multiprocessing``, which
    only ``--jobs`` > 1 needs."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(workers)


def run_cv(dataset, settings, out_dir=None, fold_assignment=None,
           manifest_path=None, jobs=1, progress=None):
    """Train and evaluate one model per fold; optionally persist the run.

    ``fold_assignment`` replays a fixed roster that tests every trial (the
    masking study depends on this); otherwise the roster comes from the
    settings' scheme and seed.  ``jobs`` > 1 trains folds in separate
    processes, at most one per fold, from the pool that ``_process_pool``
    makes; outputs are identical to the serial path.  A serial run (``jobs`` 1) trains in
    this process and never imports the process-pool machinery.
    """
    stage2 = prepare_dataset(dataset, settings.target_hz, manifest_path)
    by_id = {t.trial_id: t for t in stage2.trials}
    dataset_sha = dataset_fingerprint(dataset)
    assignment = fold_assignment or _build_assignment(stage2, settings)

    for f in assignment.folds:
        for tid in f.train_ids + f.test_ids:
            if tid not in by_id:
                raise ValueError(f"fold {f.name} references unknown trial {tid}")

    tasks = []
    for i, fold in enumerate(assignment.folds):
        train_trials = [by_id[t] for t in fold.train_ids]
        test_trials = [by_id[t] for t in fold.test_ids]
        tasks.append((settings, i, fold, train_trials, test_trials))

    # a pool's map submits every fold at once and yields outcomes in fold
    # order as they finish, so progress streams under --jobs N as well
    outcomes = []
    with _process_pool(min(jobs, len(tasks))) if jobs > 1 else nullcontext() as pool:
        for outcome in (pool.map if pool else map)(_run_fold, tasks):
            outcomes.append(outcome)
            if progress:
                progress(f"fold {outcome.name}: {outcome.status}")
    outcomes = tuple(outcomes)

    text = metrics_report_text(settings, dataset_sha, assignment, outcomes)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        manifest = os.path.abspath(manifest_path) if manifest_path is not None else None
        write_run_cfg(os.path.join(out_dir, SETTINGS_FILE),
                      RunConfig(settings, manifest=manifest, dataset_sha256=dataset_sha))
        with open(os.path.join(out_dir, FOLDS_FILE), "w", encoding="utf-8") as fh:
            fh.write(assignment.canonical_text())
        with open(os.path.join(out_dir, METRICS_FILE), "w", encoding="utf-8") as fh:
            fh.write(text)
        for fold, outcome in zip(assignment.folds, outcomes):
            _persist_fold(out_dir, settings, fold, outcome)
    return RunResult(dataset_sha256=dataset_sha, outcomes=outcomes, metrics_text=text)


@dataclass(frozen=True)
class MaskingStudy:
    """Paired before/after comparison for one finished run."""

    masked_sha256: str
    before: dict
    after: dict
    text: str


def _recorded_folds_sha256(metrics_path):
    """The ``folds_sha256`` that a run's metrics.txt records."""
    for line in read_text(metrics_path).split("\n"):
        key, _, value = line.partition(" = ")
        if key == "folds_sha256":
            return value
    raise ValueError(f"{metrics_path}: no folds_sha256 line")


def validate_cams(run_dir, out_dir=None, dataset=None, jobs=1, progress=None):
    """Masked-retraining study over a persisted classification run.

    Every trial is attenuated by the activation map recorded when it was
    in the test fold, the run is repeated under the identical roster and
    derived seeds, and each metric's per-fold before/after values enter
    a one-sided signed-rank test (masking should not hurt).  The dataset
    is reloaded from the recorded manifest unless passed in; either way
    its fingerprint must match the snapshot before anything trains, and
    the fingerprint of ``folds.txt`` the ``folds_sha256`` of the baseline
    ``metrics.txt`` (ConfigError otherwise).  A fold without baseline
    predictions (it failed its guard) has no maps: its test trials keep a
    neutral all-ones mask, and the report marks the fold as skipped.
    """
    cfg_path = os.path.join(run_dir, SETTINGS_FILE)
    run = read_run_cfg(cfg_path)
    settings = run.settings
    if settings.mode != "classification":
        raise ValueError(f"{cfg_path}: the masking study applies to classification runs, "
                         f"not {settings.mode}")
    if dataset is None:
        if run.manifest is None:
            raise ValueError(f"{cfg_path}: run snapshot records no manifest; "
                             "pass the dataset explicitly")
        if not os.path.isfile(run.manifest):
            raise ValueError(f"{cfg_path}: recorded manifest not found: {run.manifest}")
        dataset = load_manifest(run.manifest)
    actual_sha = dataset_fingerprint(dataset)
    if run.dataset_sha256 != actual_sha:
        raise ConfigError(
            f"dataset fingerprint {actual_sha} does not match the dataset_sha256 "
            f"{run.dataset_sha256} of {cfg_path}; refusing to pair folds"
        )

    folds_path = os.path.join(run_dir, FOLDS_FILE)
    text = read_text(folds_path)
    try:
        assignment = FoldAssignment.from_canonical_text(text)
    except ValueError as exc:
        raise ValueError(f"{folds_path}: {exc}") from None
    metrics_path = os.path.join(run_dir, METRICS_FILE)
    recorded = _recorded_folds_sha256(metrics_path)
    if assignment.fingerprint() != recorded:
        raise ConfigError(
            f"{folds_path} has fingerprint {assignment.fingerprint()}, but {metrics_path} "
            f"records folds_sha256 {recorded}; refusing to pair folds"
        )

    stage2 = prepare_dataset(dataset, settings.target_hz, run.manifest)
    frames = {t.trial_id: t.values.shape[0] for t in stage2.trials}
    before = {}
    cams = {}
    fold_names = tuple(f.name for f in assignment.folds)
    for fold in assignment.folds:
        fold_dir = os.path.join(run_dir, f"fold_{fold.name}")
        pred_path = os.path.join(fold_dir, "predictions.csv")
        if not os.path.exists(pred_path):
            before[fold.name] = None
            # a constant map has no contrast: intensity 1 everywhere
            cams.update((tid, CamMap.from_raw(tid, 0, np.zeros(frames[tid])))
                        for tid in fold.test_ids if tid in frames)
            continue
        _, records = read_records_csv(pred_path)
        if {r.trial_id for r in records} != set(fold.test_ids):
            raise ValueError(f"{pred_path}: predictions do not cover the test set "
                             f"of fold {fold.name}")
        before[fold.name] = fold_metrics("classification", tuple(records))
        cams_path = os.path.join(fold_dir, "cams.csv")
        fold_cams = read_cams_csv(cams_path)
        if set(fold_cams) != set(fold.test_ids):
            raise ValueError(f"{cams_path}: activation maps do not cover the test set "
                             f"of fold {fold.name}")
        for tid, cam in fold_cams.items():
            if len(cam) != frames.get(tid):
                raise ValueError(f"{cams_path}: {tid} has a map of {len(cam)} steps for "
                                 f"a trial of {frames.get(tid)} frames")
        cams.update(fold_cams)

    masked = mask_with_cams(stage2, cams)
    masked_out = os.path.join(out_dir, "masked") if out_dir else None
    masked_result = run_cv(masked, settings, out_dir=masked_out,
                           fold_assignment=assignment, jobs=jobs, progress=progress)

    after = {o.name: (o.metrics if o.ok else None) for o in masked_result.outcomes}

    lines = [
        "report = cam-validation",
        kv_line("baseline_dataset_sha256", actual_sha),
        kv_line("masked_dataset_sha256", masked_result.dataset_sha256),
        kv_line("folds_sha256", assignment.fingerprint()),
        kv_line("n_folds", len(fold_names)),
    ]
    # each fold's before and after value of each metric, taken once for its
    # report lines and, where both exist, the signed-rank test's pairs
    paired = {metric: ([], []) for metric in MASKING_METRICS}
    for name in fold_names:
        if before[name] is None:
            lines.append(kv_line(f"fold {name} status", "skipped: no baseline predictions"))
        fold_before, fold_after = before[name] or {}, after[name] or {}
        for metric in MASKING_METRICS:
            b, a = fold_before.get(metric), fold_after.get(metric)
            lines.append(kv_line(f"fold {name} {metric} before", b))
            lines.append(kv_line(f"fold {name} {metric} after", a))
            if b is not None and a is not None:
                paired[metric][0].append(b)
                paired[metric][1].append(a)
    for metric, (befores, afters) in paired.items():
        w = p = None
        note = ""
        if befores:
            try:
                w, p = wilcoxon_one_sided(befores, afters)
            except ValueError as exc:
                note = str(exc)
        lines.append(kv_line(f"metric {metric} n_pairs", len(befores)))
        for side, vals in (("before", befores), ("after", afters)):
            lines.append(kv_line(f"metric {metric} {side}_mean",
                                 float(np.mean(vals)) if vals else None))
        lines.append(kv_line(f"metric {metric} w", w))
        lines.append(kv_line(f"metric {metric} p", p))
        if note:
            lines.append(f"metric {metric} note = {note}")
    text = "\n".join(lines) + "\n"

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, MASKING_FILE), "w", encoding="utf-8") as fh:
            fh.write(text)

    return MaskingStudy(masked_sha256=masked_result.dataset_sha256, before=before,
                        after=after, text=text)
