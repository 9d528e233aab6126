"""Run and generator settings: one key table for flags, files and run.cfg.

``RUN_KEYS`` is the single declaration of every run key: its name, how
its text parses, and which part of ``RunSettings`` it fills.  From that
table come the ``--key`` flags of the run commands, the typed reading of
config files, and the writing and strict reading of a run directory's
``run.cfg`` snapshot.  ``SYNTH_KEYS`` plays the same part for the
synthetic generator's ``SynthSpec``.

Config files are UTF-8 text, one ``key = value`` per line; blank lines
and lines starting with ``#`` are ignored.  Values resolve with flag >
file > default precedence; the seed additionally falls back to the
SKILLSEQ_SEED environment variable before its built-in default, so a
shell can pin reproducibility without touching files or flags.  The
table only parses text; the dataclasses the values fill (``RunSettings``,
``DaeConfig``, ``HeadConfig``, ``ArchConfig``, ``SynthSpec``) validate
them.  Every diagnostic names the offending key and, for file input, the
file and line.

The head's loss is no key: ``training.HEAD_LOSS`` takes it from the
mode.  A ``clf_loss`` line of an older file reads only if it names it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .data import read_text
from .model import ArchConfig
from .reports import quoted
from .synth import SynthSpec
from .training import HEAD_LOSS, DaeConfig, HeadConfig

__all__ = [
    "ConfigError",
    "Key",
    "RUN_KEYS",
    "SYNTH_KEYS",
    "RunSettings",
    "RunConfig",
    "parse_scheme",
    "add_key_flags",
    "flag_values",
    "read_config_file",
    "resolve_run_config",
    "resolve_synth_spec",
    "write_run_cfg",
    "read_run_cfg",
    "SEED_ENV_VAR",
]

SEED_ENV_VAR = "SKILLSEQ_SEED"


class ConfigError(ValueError):
    """Bad configuration input; the message names key and location."""


def parse_scheme(token):
    """'stratified<k>' | 'loso' | 'louo' -> (kind, k or None)."""
    if token in ("loso", "louo"):
        return token, None
    if token.startswith("stratified"):
        tail = token[len("stratified"):]
        if tail.isdigit() and int(tail) >= 2:
            return "stratified", int(tail)
    raise ValueError(
        f"unrecognized scheme {quoted(token)} (expected stratified<k>, loso, or louo)"
    )


@dataclass(frozen=True)
class RunSettings:
    """Everything that determines a run besides the dataset itself."""

    mode: str = "classification"
    scheme: str = "stratified10"
    seed: int = 0
    dae: DaeConfig = field(default_factory=DaeConfig)
    clf: HeadConfig = field(default_factory=HeadConfig)
    target_hz: float = 1.0
    arch: ArchConfig = field(default_factory=ArchConfig)

    def __post_init__(self):
        if self.mode not in ("classification", "regression"):
            raise ValueError(f"mode must be classification or regression, got {quoted(self.mode)}")
        parse_scheme(self.scheme)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.target_hz <= 0:
            raise ValueError("target_hz must be > 0")


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings plus where the run reads and writes."""

    settings: RunSettings
    manifest: str | None = None
    out: str | None = None
    dataset_sha256: str | None = None


def _parse_int(raw):
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {quoted(raw)}") from None


def _parse_float(raw):
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {quoted(raw)}")
    return value


def _parse_sha256(raw):
    if len(raw) != 64 or raw.strip("0123456789abcdef"):
        raise ValueError(f"expected 64 lowercase hex digits, got {quoted(raw)}")
    return raw


def _parse_mode(raw):
    return {"classify": "classification", "regress": "regression"}.get(raw, raw)


def _parse_pair(raw):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected 'low,high', got {quoted(raw)}")
    return (_parse_float(parts[0]), _parse_float(parts[1]))


@dataclass(frozen=True)
class Key:
    """One settings key.

    ``parse`` turns the key's text into a value (ValueError on bad text).
    ``part`` says which field the key fills: "" the RunSettings field of
    the same name, "dae"/"clf"/"arch" the field of that sub-config named
    by the rest of the key, None the RunConfig field of the same name.
    ``flag`` keys get a ``--key-name`` flag.  ``snapshot`` says how
    run.cfg holds the key: "required", "optional", "never", or "dropped"
    (only older files hold it; ``value`` keeps its text and where it was read).
    """

    name: str
    parse: object = str
    part: str | None = ""
    flag: bool = True
    snapshot: str = "required"

    @property
    def attr(self):
        return self.name[len(self.part) + 1:] if self.part else self.name

    @property
    def option(self):
        return "--" + self.name.replace("_", "-")

    def text(self, value):
        """Canonical text of a value; floats keep every digit."""
        return repr(float(value)) if self.parse is _parse_float else str(value)

    def value(self, raw, where):
        if self.snapshot == "dropped":
            return raw, where
        try:
            return self.parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None


def _table(*keys):
    return {k.name: k for k in keys}


RUN_KEYS = _table(
    Key("manifest", part=None, snapshot="optional"),
    Key("out", part=None, snapshot="never"),
    Key("dataset_sha256", _parse_sha256, part=None, flag=False),
    Key("mode", _parse_mode),
    Key("scheme"),
    Key("seed", _parse_int),
    Key("target_hz", _parse_float),
    Key("dae_learning_rate", _parse_float, "dae"),
    Key("dae_max_epochs", _parse_int, "dae"),
    Key("dae_patience", _parse_int, "dae"),
    Key("dae_loss", str, "dae"),
    Key("dae_l2", _parse_float, "dae"),
    Key("dae_noise_sigma", _parse_float, "dae"),
    Key("dae_val_fraction", _parse_float, "dae"),
    Key("clf_learning_rate", _parse_float, "clf"),
    Key("clf_max_epochs", _parse_int, "clf"),
    Key("clf_patience", _parse_int, "clf"),
    Key("clf_l2", _parse_float, "clf"),
    Key("clf_val_fraction", _parse_float, "clf"),
    Key("clf_class_weighting", str, "clf"),
    Key("arch_enc_width", _parse_int, "arch"),
    Key("arch_emb_channels", _parse_int, "arch"),
    Key("arch_kernel_size", _parse_int, "arch"),
    Key("arch_reduction", _parse_int, "arch"),
    Key("arch_clf_width", _parse_int, "arch"),
    Key("arch_clf_dilation", _parse_int, "arch"),
    Key("clf_loss", flag=False, snapshot="dropped"),
)

SYNTH_KEYS = _table(
    Key("n_subjects", _parse_int),
    Key("trials_per_subject", _parse_int),
    Key("pass_fraction", _parse_float),
    Key("seed", _parse_int),
    Key("sample_rate_hz", _parse_float),
    Key("missing_fraction", _parse_float),
    Key("distractor_prob", _parse_float),
    Key("subject_bias", _parse_float),
    Key("pass_duration", _parse_pair),
    Key("fail_duration", _parse_pair),
    Key("pass_jitter", _parse_float),
    Key("fail_jitter", _parse_float),
)


def add_key_flags(parser, keys):
    """One ``--key-name V`` flag per flag key; unset flags stay None."""
    for key in keys.values():
        if key.flag:
            parser.add_argument(key.option, dest=key.name, metavar="V")


def flag_values(args, keys):
    """Typed values of the key flags that were given."""
    return {key.name: key.value(getattr(args, key.name), f"flag {key.option}")
            for key in keys.values()
            if key.flag and getattr(args, key.name, None) is not None}


def _read_pairs(path, keys):
    """key -> (typed value, line); duplicates, unknown keys, junk rejected."""
    try:
        text = read_text(path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    pairs = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{path} line {ln}"
        name, sep, raw = stripped.partition("=")
        name = name.strip()
        if not sep:
            raise ConfigError(f"{where}: expected 'key = value', got {quoted(stripped)}")
        if not name:
            raise ConfigError(f"{where}: empty key")
        if name in pairs:
            raise ConfigError(
                f"{where}: duplicate key '{name}' (first set on line {pairs[name][1]})"
            )
        if name not in keys:
            raise ConfigError(f"{where}: unknown key {quoted(name)}")
        pairs[name] = (keys[name].value(raw.strip(), f"{where}: key '{name}'"), ln)
    return pairs


def read_config_file(path, keys):
    """Typed ``{key: value}`` of a config file over the given key table."""
    return {name: value for name, (value, _) in _read_pairs(path, keys).items()}


def _layered(keys, from_file, from_flags, env):
    env = os.environ if env is None else env
    values = {}
    if env.get(SEED_ENV_VAR) is not None:
        values["seed"] = keys["seed"].value(env[SEED_ENV_VAR], f"environment {SEED_ENV_VAR}")
    values.update(from_file or {})
    values.update(from_flags or {})
    return values


def _run_config(values, prefix=""):
    """The RunConfig of typed key values (consumed; an older file's
    ``clf_loss`` must name the mode's loss); a ConfigError starts with ``prefix``."""
    head_loss = values.pop("clf_loss", None)
    parts = {None: {}, "": {}, "dae": {}, "clf": {}, "arch": {}}
    for name, value in values.items():
        key = RUN_KEYS[name]
        parts[key.part][key.attr] = value
    built = {}
    for part, make in (("dae", DaeConfig), ("clf", HeadConfig), ("arch", ArchConfig)):
        try:
            built[part] = make(**parts[part])
        except ValueError as exc:
            raise ConfigError(f"{prefix}{part} settings: {exc}") from None
    try:
        settings = RunSettings(**parts[""], **built)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None
    if head_loss is not None and head_loss[0] != HEAD_LOSS[settings.mode]:
        raise ConfigError(f"{head_loss[1]}: a {settings.mode} head trains on "
                          f"{HEAD_LOSS[settings.mode]} loss, not {quoted(head_loss[0])}")
    return RunConfig(settings, **parts[None])


def resolve_run_config(from_file=None, from_flags=None, env=None):
    """Resolve an evaluation run from typed file and flag values.

    Keys left unset take the defaults of the dataclasses they fill; the
    head's loss is ``training.HEAD_LOSS`` of the mode, no key.
    """
    return _run_config(_layered(RUN_KEYS, from_file, from_flags, env))


def resolve_synth_spec(from_file=None, from_flags=None, env=None):
    """Resolve a generator spec with the same precedence rules."""
    try:
        return SynthSpec(**_layered(SYNTH_KEYS, from_file, from_flags, env))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"generator settings: {exc}") from None


def write_run_cfg(path, run):
    """Write the run.cfg snapshot of a RunConfig: one sorted line per key
    with a value.  Fold-level seeds are derived, so only the run seed is
    recorded."""
    lines = []
    for key in [k for k in RUN_KEYS.values() if k.snapshot in ("required", "optional")]:
        if key.part is None:
            owner = run
        else:
            owner = getattr(run.settings, key.part) if key.part else run.settings
        value = getattr(owner, key.attr)
        if value is not None:
            lines.append(f"{key.name} = {key.text(value)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(sorted(lines)) + "\n")


def read_run_cfg(path):
    """Strictly read a run.cfg snapshot back into a RunConfig.

    Every required snapshot key must be present; keys run.cfg never
    holds are rejected like unknown ones.
    """
    pairs = _read_pairs(path, {n: k for n, k in RUN_KEYS.items() if k.snapshot != "never"})
    for key in RUN_KEYS.values():
        if key.snapshot == "required" and key.name not in pairs:
            raise ConfigError(f"{path}: run settings missing key '{key.name}'")
    return _run_config({name: value for name, (value, _) in pairs.items()}, f"{path}: ")
