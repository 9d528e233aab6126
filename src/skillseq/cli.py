"""Command-line front end for the full pipeline.

Subcommands: synth, ingest-check, train-dae, train-classifier,
evaluate, predict, cam, trust, validate-cam, gradcheck.

Exit codes:

- 0: success.
- 2: usage error.  Bad flags; unknown, duplicate or malformed config or
  run.cfg keys, or a run.cfg missing a key; invalid settings; a missing
  input file or directory (manifest, bundle, records, run); a dataset
  whose fingerprint differs from the run snapshot it is replayed from
  (``evaluate --config``) or studied against (``validate-cam``), or a
  ``folds.txt`` whose fingerprint differs from the run's ``metrics.txt``.
- 1: runtime failure, e.g. a malformed input file, a failed training or
  gradient check.

On any failure the last line of output is a single-line diagnostic of
the form ``error: usage: <message>`` or ``error: runtime: <message>``.

Every subcommand's help text, handler and options sit in one table
(``_COMMANDS``).  When the first argument names a subcommand, ``dispatch``
builds that subcommand's parser alone; anything else (help, an unknown
command, an option first) gets the whole tree, so top-level help and
error text are complete.  Help, usage and error output are byte-for-byte
those of a parser built whole.

Each setting is declared and bounded once, as a field of a settings
dataclass in ``config``, which gives its flag, its config-file key and
its run.cfg line.  Settings resolve as flags > config file > defaults,
with the SKILLSEQ_SEED environment variable as the weakest seed source;
every settings error names the key and where its value came from (file
and line, flag, environment variable or default).  The other numeric
flags are ``data.parser``s under a ``config.Bound``, which ``_checked``
adapts to argparse, so they state their bounds in the same words.  Run
directories are self-contained: the snapshot plus manifest reproduce
every report.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bundle import load_bundle, save_bundle
from .config import (
    RUN_KEYS,
    SYNTH_KEYS,
    Bound,
    ConfigError,
    add_key_flags,
    flag_values,
    read_config_file,
    resolve_run_config,
    resolve_synth_spec,
)
from .crossval import run_cv, validate_cams
from .data import dataset_fingerprint, finite, integer, load_manifest, parser
from .explain import predict_with_cams, write_cams_csv
from .gradcheck import run_gradcheck
from .model import actual_class, predict_many, prepare_dataset
from .modes import MODES, fold_metrics, training_fault
from .overlay import render_cam_overlay
from .records import read_records_csv, write_records_csv
from .reports import fmt9, kv_line, quoted
from .synth import write_synth_dataset
from .training import train_classifier, train_dae
from .trust import build_trust_report

__all__ = ["main", "dispatch"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# the run keys that predict and cam take as flags
_SCORING_KEYS = {"target_hz": RUN_KEYS["target_hz"]}


class UsageError(Exception):
    """Invocation problem: wrong flags, missing inputs, bad settings."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _fail(kind, message):
    flat = " ".join(str(message).split())
    print(f"error: {kind}: {flat}", file=sys.stderr)
    return EXIT_USAGE if kind == "usage" else EXIT_RUNTIME


def _require_file(path, what):
    if not os.path.exists(path):
        raise UsageError(f"{what} not found: {path}")


def _run_config(args):
    from_file = read_config_file(args.config, RUN_KEYS) if args.config else None
    run = resolve_run_config(from_file, flag_values(args, RUN_KEYS))
    if run.manifest is None:
        raise UsageError("no dataset manifest; pass --manifest or set it in the config")
    _require_file(run.manifest, "manifest")
    return run


def _load_verified(run):
    dataset = load_manifest(run.manifest)
    if run.dataset_sha256 is not None:
        actual = dataset_fingerprint(dataset)
        if actual != run.dataset_sha256:
            raise UsageError(
                f"dataset fingerprint {actual[:12]}... does not match the config "
                f"snapshot ({run.dataset_sha256[:12]}...)"
            )
    return dataset


def _training_set(args):
    """Run config plus the manifest's trials, downsampled for the model."""
    run = _run_config(args)
    if run.out is None:
        raise UsageError("no output directory; pass --out")
    return run, prepare_dataset(_load_verified(run), run.settings.target_hz,
                                run.manifest).trials


def _trained(run, trials, head, dae_bundle=None):
    """The last model trained on ``trials``, its manifest's, and its history:
    the autoencoder unless ``dae_bundle`` is given, then, when ``head``,
    the skill head.  A training set that ``modes.training_fault`` refuses
    is a runtime error naming the manifest, before anything trains."""
    settings = run.settings
    fault = training_fault(trials, settings.mode if head else None, minmax=dae_bundle is None)
    if fault is not None:
        raise ValueError(f"{run.manifest}: {fault}")
    if dae_bundle is None:
        dae_bundle, history = train_dae(trials, settings.dae, settings.seed, settings.arch)
    if not head:
        return dae_bundle, history
    return train_classifier(dae_bundle, trials, settings.clf, settings.seed, settings.arch,
                            settings.mode)


def _check_channels(bundle, bundle_path, trials, manifest):
    """A trial of ``manifest`` whose channels are not the ones the bundle
    was fit on is a runtime error naming the manifest, the trial and the
    bundle."""
    fit_on = bundle.minmax.channels
    for t in trials:
        if t.channels != fit_on:
            raise ValueError(f"{manifest}: channel mismatch: {t.trial_id} has {t.channels}, "
                             f"bundle {bundle_path} was fit on {fit_on}")


def _model_inputs(args, bundle):
    """Downsampled trials of --manifest at --target-hz, checked against the
    bundle's channels, plus the dataset they came from."""
    _require_file(args.manifest, "manifest")
    target_hz = resolve_run_config(from_flags=flag_values(args, _SCORING_KEYS),
                                   env={}).settings.target_hz
    dataset = load_manifest(args.manifest)
    trials = prepare_dataset(dataset, target_hz, args.manifest).trials
    _check_channels(bundle, args.bundle, trials, args.manifest)
    return dataset, trials


def _load_skill_bundle(args, what):
    _require_file(args.bundle, "bundle")
    bundle = load_bundle(args.bundle)
    if bundle.mode == "autoencoder":
        raise UsageError(f"{what} needs a classification or regression bundle, not {args.bundle}")
    return bundle


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_synth(args):
    from_file = read_config_file(args.spec, SYNTH_KEYS) if args.spec else None
    spec = resolve_synth_spec(from_file, flag_values(args, SYNTH_KEYS))
    manifest = write_synth_dataset(spec, args.out)
    print(kv_line("trials", spec.n_subjects * spec.trials_per_subject))
    print(kv_line("manifest", manifest))
    return EXIT_OK


def _cmd_ingest_check(args):
    _require_file(args.manifest, "manifest")
    ds = load_manifest(args.manifest)
    trials = ds.trials
    print(kv_line("trials", len(trials)))
    print(kv_line("subjects", len({t.subject_id for t in trials})))
    print(kv_line("channels", ",".join(trials[0].channels)))
    print(kv_line("labeled", sum(1 for t in trials if t.class_label is not None)))
    print(kv_line("scored", sum(1 for t in trials if t.score is not None)))
    print(kv_line("min_frames", min(t.values.shape[0] for t in trials)))
    print(kv_line("max_frames", max(t.values.shape[0] for t in trials)))
    print(kv_line("dataset_sha256", dataset_fingerprint(ds)))
    return EXIT_OK


def _cmd_train_dae(args):
    run, trials = _training_set(args)
    bundle, history = _trained(run, trials, head=False)
    os.makedirs(run.out, exist_ok=True)
    path = os.path.join(run.out, "dae.skq")
    save_bundle(bundle, path)
    print(kv_line("bundle", path))
    print(kv_line("epochs", len(history.train_loss)))
    print(kv_line("best_epoch", history.best_epoch))
    print(kv_line("best_val_loss", min(history.val_loss)))
    return EXIT_OK


def _cmd_train_classifier(args):
    run, trials = _training_set(args)
    dae_bundle = None
    if args.dae:
        _require_file(args.dae, "bundle")
        dae_bundle = load_bundle(args.dae)
        if dae_bundle.mode != "autoencoder":
            raise UsageError(f"--dae {args.dae} has mode '{dae_bundle.mode}', not autoencoder")
        _check_channels(dae_bundle, args.dae, trials, run.manifest)
    over = f" over the encoder of {args.dae}" if args.dae else ""
    try:
        bundle, history = _trained(run, trials, head=True, dae_bundle=dae_bundle)
    except FloatingPointError as exc:  # a head diverging over a given encoder names it
        raise FloatingPointError(f"{exc}{over}") from None
    os.makedirs(run.out, exist_ok=True)
    path = os.path.join(run.out, "skill.skq")
    save_bundle(bundle, path)
    print(kv_line("bundle", path))
    print(kv_line("mode", run.settings.mode))
    print(kv_line("epochs", len(history.train_loss)))
    print(kv_line("best_epoch", history.best_epoch))
    print(kv_line("best_val_loss", min(history.val_loss)))
    return EXIT_OK


def _cmd_evaluate(args):
    run = _run_config(args)
    result = run_cv(_load_verified(run), run.settings, out_dir=run.out,
                    manifest_path=run.manifest, jobs=args.jobs,
                    progress=print if args.verbose else None)
    if run.out is not None:
        print(kv_line("run", run.out))
        for line in result.metrics_text.splitlines():
            if line.startswith(("aggregate ", "pooled ")):
                print(line)
    else:
        print(result.metrics_text, end="")
    return EXIT_OK


def _cmd_predict(args):
    bundle = _load_skill_bundle(args, "predict")
    _, trials = _model_inputs(args, bundle)
    records = predict_many(bundle, trials)
    write_records_csv(records, args.out, classes=MODES[bundle.mode].units)
    print(kv_line("records", args.out))
    accuracy = fold_metrics(bundle.mode, records).get("accuracy")
    if accuracy is not None:
        print(kv_line("accuracy", accuracy))
    return EXIT_OK


def _resolve_target_class(raw, bundle):
    """The output unit ``--target-class`` names: a class name or an index
    of the bundle's outputs (two classes, or one regression unit)."""
    if raw is None:
        return None
    names = bundle.class_names or ()
    if raw in names:
        return names.index(raw)
    try:
        index = integer(raw)
    except ValueError:
        raise UsageError(
            f"--target-class {quoted(raw)} is neither a class name nor an index"
        ) from None
    n_out = len(names) or 1
    if not 0 <= index < n_out:
        choices = ", ".join([repr(n) for n in names] + [str(i) for i in range(n_out)])
        raise UsageError(f"--target-class {quoted(raw)} is out of range; "
                         f"choose one of: {choices}")
    return index


def _cmd_cam(args):
    bundle = _load_skill_bundle(args, "cam")
    dataset, trials = _model_inputs(args, bundle)
    override = _resolve_target_class(args.target_class, bundle)
    targets = [actual_class(bundle, t) if override is None else override for t in trials]
    _, cams = predict_with_cams(bundle, trials, targets)
    write_cams_csv(cams, args.out)
    print(kv_line("cams", args.out))
    if args.overlay_dir:
        os.makedirs(args.overlay_dir, exist_ok=True)
        for raw_trial, cam in zip(dataset.trials, cams):
            path = os.path.join(args.overlay_dir,
                                f"{raw_trial.subject_id}_{raw_trial.trial_index:03d}.svg")
            try:
                render_cam_overlay(raw_trial, cam, path)
            except ValueError as exc:
                raise ValueError(f"{args.manifest}: --overlay-dir: {exc}") from None
        print(kv_line("overlays", args.overlay_dir))
    return EXIT_OK


def _cmd_trust(args):
    _require_file(args.records, "records file")
    class_names, records = read_records_csv(args.records)
    usable = [r for r in records if r.confidences is not None]
    if not usable:
        raise UsageError(f"{args.records}: no classification records with confidences")
    try:
        report = build_trust_report(usable, alpha=args.alpha, beta=args.beta,
                                    class_names=class_names)
    except ValueError as exc:
        raise ValueError(f"{args.records}: {exc}") from None
    os.makedirs(args.out, exist_ok=True)
    lines = [
        "report = trust",
        kv_line("n", report.n),
        kv_line("alpha", report.alpha),
        kv_line("beta", report.beta),
    ]
    for z in sorted(report.t_m):
        name = report.class_names[z]
        lines.append(kv_line(f"class {name} count", report.class_counts[z]))
        lines.append(kv_line(f"class {name} trust", report.t_m[z]))
    lines.append(kv_line("nts", report.nts))
    lines.append(kv_line("mean_correct", report.mean_correct))
    lines.append(kv_line("mean_incorrect", report.mean_incorrect))
    text = "\n".join(lines) + "\n"
    path = os.path.join(args.out, "trust.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

    # each row is "<grid point>,%.9g": the grid is formatted once, and a
    # curve fills the rows with one % and goes out in one write
    rows = "grid,density\n" + "".join(f"{fmt9(g)},%.9g\n" for g in report.grid.tolist())
    for name, dens in report.curves.items():
        if dens is not None:
            cpath = os.path.join(args.out, f"density_{name}.csv")
            with open(cpath, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(rows % tuple(dens.tolist()))
    print(text, end="")
    print(kv_line("report", path))
    return EXIT_OK


def _cmd_validate_cam(args):
    if not os.path.isdir(args.run):
        raise UsageError(f"run directory not found: {args.run}")
    for needed in ("run.cfg", "folds.txt", "metrics.txt"):
        if not os.path.exists(os.path.join(args.run, needed)):
            raise UsageError(f"{args.run} is missing baseline artifact {needed}")
    study = validate_cams(args.run, out_dir=args.out, jobs=args.jobs,
                          progress=print if args.verbose else None)
    print(study.text, end="")
    return EXIT_OK


def _cmd_gradcheck(args):
    results = run_gradcheck(configs_per_op=args.configs, base_seed=args.seed)
    by_op = {}
    for r in results:
        by_op[r.operation] = max(by_op.get(r.operation, 0.0), r.max_error)
    for op in sorted(by_op):
        print(kv_line(f"max_rel_err {op}", by_op[op]))
    worst = max(results, key=lambda r: r.max_error)
    print(kv_line("checks", len(results)))
    print(kv_line("worst", worst.max_error))
    if not all(r.passed for r in results):
        bad = sorted({r.operation for r in results if not r.passed})
        raise RuntimeError(f"gradient check failed for: {', '.join(bad)}")
    print("status = pass")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _checked(parse, what, **bound):
    """An argparse ``type=``: a ``data.parser`` over ``parse`` whose value
    must keep the ``config.Bound``; a value it refuses is a usage error."""
    bound = Bound(**bound)
    parse = parser(parse, (bound.holds, f"{what} {bound.text}"))

    def check(raw):
        try:
            return parse(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return check


_EXPONENT = _checked(finite, "a finite number", above=0)
_COUNT = _checked(integer, "an integer", at_least=1)
_SEED = _checked(integer, "an integer", at_least=0)


def _opt(*names, **kwargs):
    return names, kwargs


_RUN_OPTS = (_opt("--config", help="run config file"), RUN_KEYS)
_JOBS_OPTS = (_opt("--jobs", type=_COUNT, default=1), _opt("--verbose", action="store_true"))
_SCORING_INPUTS = (_opt("--bundle", required=True), _opt("--manifest", required=True))

# name -> (help, handler, options); an option is an ``_opt`` or a key table
_COMMANDS = {
    "synth": ("generate a synthetic dataset", _cmd_synth, (
        _opt("--spec", help="generator config file"),
        _opt("--out", required=True, help="output directory"),
        SYNTH_KEYS)),
    "ingest-check": ("validate a dataset manifest", _cmd_ingest_check, (
        _opt("--manifest", required=True),)),
    "train-dae": ("train dae over a manifest", _cmd_train_dae, _RUN_OPTS),
    "train-classifier": ("train classifier over a manifest", _cmd_train_classifier,
                         _RUN_OPTS + (_opt("--dae", help="reuse a trained autoencoder bundle"),)),
    "evaluate": ("evaluate over a manifest", _cmd_evaluate, _RUN_OPTS + _JOBS_OPTS),
    "predict": ("score trials with a trained bundle", _cmd_predict, _SCORING_INPUTS + (
        _opt("--out", required=True, help="output records CSV"),
        _SCORING_KEYS)),
    "cam": ("per-timestep activation maps", _cmd_cam, _SCORING_INPUTS + (
        _opt("--out", required=True, help="output CSV"),
        _opt("--target-class", help="class name or output index"),
        _opt("--overlay-dir", help="also render one trajectory figure per trial"),
        _SCORING_KEYS)),
    "trust": ("trust report from prediction records", _cmd_trust, (
        _opt("--records", required=True, help="prediction records CSV"),
        _opt("--alpha", type=_EXPONENT, default=1.0,
             help="a correct answer at confidence C earns trust C**alpha"),
        _opt("--beta", type=_EXPONENT, default=1.0,
             help="a wrong answer at confidence C earns trust (1 - C)**beta"),
        _opt("--out", required=True))),
    "validate-cam": ("masked retraining study over a run", _cmd_validate_cam, (
        _opt("--run", required=True, help="baseline run directory"),
        _opt("--out")) + _JOBS_OPTS),
    "gradcheck": ("finite-difference gradient audit", _cmd_gradcheck, (
        _opt("--configs", type=_checked(integer, "an integer", at_least=1, at_most=1000),
             default=20),
        _opt("--seed", type=_SEED, default=0))),
}


def build_parser(command=None):
    """The argument parser: only ``command``'s subparser when it names one,
    else every subcommand.

    The top-level usage shows ``COMMAND``, not the list of choices, so a
    parser holding one subcommand prints that subcommand's help, usage
    and errors exactly as the whole tree would.
    """
    parser = _Parser(prog="skillseq",
                     description="Tool-motion skill scoring pipeline")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_text, handler, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=handler)
        for option in options:
            if isinstance(option, dict):
                add_key_flags(p, option)
            else:
                p.add_argument(*option[0], **option[1])
    return parser


def dispatch(argv):
    """Run one invocation; returns the process exit status."""
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required (see --help)")
        return args.func(args)
    except SystemExit as exc:          # argparse --help
        return int(exc.code or 0)
    except (UsageError, ConfigError) as exc:
        return _fail("usage", exc)
    except KeyboardInterrupt:
        raise
    except (ValueError, OSError, RuntimeError, FloatingPointError, KeyError,
            MemoryError) as exc:
        return _fail("runtime", exc)


def main(argv=None):
    sys.exit(dispatch(sys.argv[1:] if argv is None else list(argv)))
