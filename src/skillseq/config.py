"""Run and generator settings: one schema for flags, files and run.cfg.

Each setting is declared once, as a field of a settings dataclass
(``RunSettings`` with its parts ``DaeConfig``, ``HeadConfig`` and
``ArchConfig``; the generator's ``SynthSpec``) that states its default
and its bound: ``learning_rate: float = setting(0.001, above=0)``; the
``scheme`` bound is ``folds``'s grammar and its text.  One check enforces
every bound when a settings object is built, raising a ``SettingError``
that names the field; only rules across fields are written out.  The
key tables ``RUN_KEYS`` and ``SYNTH_KEYS`` come from the fields: key
``<part>_<field>`` (``dae_learning_rate``, or ``seed`` for a field of
the settings object itself), parsed as the default's type says.  Only
``manifest``, ``out``, ``dataset_sha256``, the ``classify``/``regress``
spellings of ``mode`` and the dropped ``clf_loss`` are written out.  The
tables give the ``--key`` flags, the typed reading of config files, and
the writing and strict reading of a run's ``run.cfg``.

Config files are UTF-8 text, one ``key = value`` per line; blank lines
and lines starting with ``#`` are ignored, and the rest are read by the
pair reader shared with trial-file headers, ``data.read_pairs``.  Values
resolve as flag > file > default; the seed falls back to the
SKILLSEQ_SEED environment variable before its default.  Each value
keeps its origin (``<file> line <n>``, ``flag --x``, ``environment
SKILLSEQ_SEED`` or ``default``), and every settings error names the key
and its origin, and the origin of each other key that a rule across
fields read.  The head's loss is no key: the mode's entry of
``modes.MODES`` fixes it, and an older file's ``clf_loss`` line reads
only if it names it.
"""

from __future__ import annotations

import operator
import os
from dataclasses import MISSING, dataclass, field, fields

from .data import finite, integer, parser, read_pairs, read_text
from .folds import SCHEME_RULE, parse_scheme
from .modes import MODES
from .reports import quoted

__all__ = ["ConfigError", "SettingError", "Bound", "setting", "DaeConfig",
           "HeadConfig", "ArchConfig", "RunSettings", "SynthSpec", "RunConfig", "Key",
           "RUN_KEYS", "SYNTH_KEYS", "add_key_flags", "flag_values",
           "read_config_file", "resolve_run_config", "resolve_synth_spec", "write_run_cfg",
           "read_run_cfg", "SEED_ENV_VAR"]

SEED_ENV_VAR = "SKILLSEQ_SEED"

class ConfigError(ValueError):
    """Bad configuration input; the message names the key and its origin."""


class SettingError(ValueError):
    """A settings value that breaks a rule.  ``names`` are the fields the
    rule read, the refused one first; ``problem`` says what is wrong."""

    def __init__(self, names, problem):
        super().__init__(f"{names[0]} {problem}")
        self.names, self.problem = names, problem


# a limit's Bound field, its sign, and its test
_LIMITS = (("above", ">", operator.gt), ("at_least", ">=", operator.ge),
           ("below", "<", operator.lt), ("at_most", "<=", operator.le))


@dataclass(frozen=True)
class Bound:
    """What a setting's value must be: within its limits (``above`` and
    ``below`` exclusive, ``at_least`` and ``at_most`` inclusive) and odd
    if ``odd``; one of ``among``; or passing ``rule``, a ``(test, text)``
    pair.  A tuple value is a low,high pair: low <= high, and each end
    keeps the bound."""

    above: float | None = None
    at_least: float | None = None
    below: float | None = None
    at_most: float | None = None
    odd: bool = False
    among: tuple = ()
    rule: tuple | None = None

    def holds(self, value):
        if isinstance(value, tuple):
            return len(value) == 2 and value[0] <= value[1] and all(map(self.holds, value))
        if self.among or self.rule:
            return value in self.among if self.among else self.rule[0](value)
        return (all(test(value, getattr(self, name)) for name, _, test in _LIMITS
                    if getattr(self, name) is not None)
                and (not self.odd or value % 2 == 1))

    @property
    def text(self):
        """The bound in words: '> 0', 'odd and >= 1', 'bce or mse', ..."""
        if self.among or self.rule:
            return " or ".join(self.among) if self.among else self.rule[1]
        return " and ".join(["odd"] * self.odd + [f"{sign} {getattr(self, name)}"
                                                  for name, sign, _ in _LIMITS
                                                  if getattr(self, name) is not None])


def setting(default, parse=None, **bound):
    """A settings field: its default and its ``Bound``.  Its key's text
    parses as the type of the default says, unless ``parse`` is given."""
    return field(default=default, metadata={"bound": Bound(**bound), "parse": parse})


class _Checked:
    """Base of the settings dataclasses: building one checks the bound of
    every field, raising SettingError for the first field that breaks it.
    The message shows a refused number or pair as written, text quoted."""

    def __post_init__(self):
        for f in fields(self):
            bound, value = f.metadata.get("bound"), getattr(self, f.name)
            if bound is not None and not bound.holds(value):
                want = f"low <= high, each {bound.text}" if isinstance(value, tuple) else bound.text
                shown = quoted(value) if isinstance(value, str) or len(str(value)) > 40 else value
                raise SettingError((f.name,), f"must be {want}, got {shown}")


@dataclass(frozen=True)
class DaeConfig(_Checked):
    """The denoising autoencoder's recipe."""

    learning_rate: float = setting(0.001, above=0)
    max_epochs: int = setting(100, at_least=1, at_most=10_000)
    patience: int = setting(4, at_least=1, at_most=10_000)
    loss: str = setting("bce", among=("bce", "mse"))
    l2: float = setting(1e-5, at_least=0)
    noise_sigma: float = setting(0.001, at_least=0)
    val_fraction: float = setting(0.1, above=0, below=0.5)


@dataclass(frozen=True)
class HeadConfig(_Checked):
    """The skill head's recipe over a frozen encoder; its mode fixes its loss."""

    learning_rate: float = setting(0.0002, above=0)
    max_epochs: int = setting(300, at_least=1, at_most=10_000)
    patience: int = setting(20, at_least=1, at_most=10_000)
    l2: float = setting(1e-5, at_least=0)
    val_fraction: float = setting(0.1, above=0, below=0.5)
    class_weighting: str = setting("balanced", among=("balanced", "none"))


@dataclass(frozen=True)
class ArchConfig(_Checked):
    """Width/shape knobs for the default architecture."""

    enc_width: int = setting(16, at_least=1)
    emb_channels: int = setting(8, at_least=1)
    kernel_size: int = setting(5, at_least=1, odd=True)
    reduction: int = setting(2, at_least=1)
    clf_width: int = setting(16, at_least=1)
    clf_dilation: int = setting(2, at_least=1)

    def __post_init__(self):
        super().__post_init__()
        for name in ("enc_width", "clf_width"):
            width = getattr(self, name)
            if width % self.reduction != 0:
                raise SettingError(("reduction", name),
                                   f"must divide {name} {width}, got {self.reduction}")


def _parse_mode(raw):
    return {"classify": "classification", "regress": "regression"}.get(raw, raw)


@dataclass(frozen=True)
class RunSettings(_Checked):
    """Everything that determines a run besides the dataset itself."""

    mode: str = setting("classification", _parse_mode, among=tuple(MODES))
    scheme: str = setting("stratified10", rule=(parse_scheme, SCHEME_RULE))
    seed: int = setting(0, at_least=0)
    target_hz: float = setting(1.0, above=0)
    dae: DaeConfig = field(default_factory=DaeConfig)
    clf: HeadConfig = field(default_factory=HeadConfig)
    arch: ArchConfig = field(default_factory=ArchConfig)


@dataclass(frozen=True)
class SynthSpec(_Checked):
    """Generator configuration; every field has a stable default."""

    n_subjects: int = setting(20, at_least=1, at_most=1000)
    trials_per_subject: int = setting(100, at_least=1, at_most=10_000)
    pass_fraction: float = setting(0.9, at_least=0, at_most=1)
    seed: int = setting(0, at_least=0)
    sample_rate_hz: float = setting(1.0, above=0)
    missing_fraction: float = setting(0.01, at_least=0, below=1)
    distractor_prob: float = setting(0.40, at_least=0, at_most=1)
    subject_bias: float = setting(1.0, at_least=0)
    pass_duration: tuple = setting((40.0, 95.0), above=0)
    fail_duration: tuple = setting((150.0, 210.0), above=0)
    pass_jitter: float = setting(2.5, at_least=0)
    fail_jitter: float = setting(12.0, at_least=0)


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings plus where the run reads and writes."""

    settings: RunSettings
    manifest: str | None = None
    out: str | None = None
    dataset_sha256: str | None = None


_parse_sha256 = parser(str, (lambda raw: len(raw) == 64 and not raw.strip("0123456789abcdef"),
                             "64 lowercase hex digits"))


def _parse_pair(raw):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected 'low,high', got {quoted(raw)}")
    return (finite(parts[0]), finite(parts[1]))


_PARSERS = {int: integer, float: finite, str: str, tuple: _parse_pair}


@dataclass(frozen=True)
class Key:
    """One settings key: ``parse`` turns its text into a value (ValueError
    on bad text); ``part`` names the part whose field it fills ("" the
    settings object's own, None the RunConfig's); a ``flag`` key gets a
    ``--key-name`` flag; ``snapshot`` says how run.cfg holds it:
    "required", "optional", "never", or "dropped" (older files only)."""

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
        return repr(float(value)) if self.parse is finite else str(value)

    def value(self, raw, origin):
        try:
            return self.parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{origin}: key '{self.name}': {exc}") from None


def _key_name(part, attr):
    return f"{part}_{attr}" if part else attr


def _keys(settings, part=""):
    """A key per field of a settings class, a part's fields in its place."""
    for f in fields(settings):
        if f.default_factory is not MISSING:
            yield from _keys(f.default_factory, f.name)
        else:
            yield Key(_key_name(part, f.name),
                      f.metadata["parse"] or _PARSERS[type(f.default)], part)


RUN_KEYS = {k.name: k for k in (
    Key("manifest", part=None, snapshot="optional"),
    Key("out", part=None, snapshot="never"),
    Key("dataset_sha256", _parse_sha256, part=None, flag=False),
    *_keys(RunSettings),
    Key("clf_loss", flag=False, snapshot="dropped"),
)}

SYNTH_KEYS = {k.name: k for k in _keys(SynthSpec)}


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


def read_config_file(path, keys):
    """``{key: (typed value, origin)}`` of a config file over the given key
    table, the origin ``<path> line <n>``: its lines other than blank and
    ``#`` ones, read by ``data.read_pairs``."""
    try:
        text = read_text(path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    lines = [(ln, line) for ln, line in enumerate(text.splitlines(), start=1)
             if line.strip() and not line.strip().startswith("#")]
    return read_pairs(lines, {name: key.parse for name, key in keys.items()}, path, ConfigError)


def _layered(keys, from_file, from_flags, env):
    """``{key: (value, origin)}``: flags over the file over the seed's
    environment variable."""
    env = os.environ if env is None else env
    values = {}
    if env.get(SEED_ENV_VAR) is not None:
        origin = f"environment {SEED_ENV_VAR}"
        values["seed"] = (keys["seed"].value(env[SEED_ENV_VAR], origin), origin)
    values.update(from_file or {})
    values.update({name: (value, f"flag {keys[name].option}")
                   for name, value in (from_flags or {}).items()})
    return values


def _refused(sourced, names, problem):
    """ConfigError for ``problem`` of the key ``names[0]``, naming where it
    and each other key the rule read were set."""
    first, *rest = [f"{sourced[n][1] if n in sourced else 'default'}: key '{n}'"
                    for n in names]
    return ConfigError(f"{first}: {problem}" + (f" ({'; '.join(rest)})" if rest else ""))


def _build(settings, sourced, part=""):
    """A ``settings`` object of the ``{key: (value, origin)}`` values of its
    fields, the rest at their defaults; a SettingError becomes a
    ConfigError naming each key it read and where that key was set."""
    given = {}
    for f in fields(settings):
        name = _key_name(part, f.name)
        if f.default_factory is not MISSING:
            given[f.name] = _build(f.default_factory, sourced, f.name)
        elif name in sourced:
            given[f.name] = sourced[name][0]
    try:
        return settings(**given)
    except SettingError as exc:
        raise _refused(sourced, [_key_name(part, n) for n in exc.names], exc.problem) from None


def _run_config(sourced):
    """The RunConfig of ``{key: (value, origin)}``; an older file's
    ``clf_loss`` must name the mode's loss."""
    settings = _build(RunSettings, sourced)
    head_loss, want = sourced.get("clf_loss", (None,))[0], MODES[settings.mode].loss
    if head_loss not in (None, want):
        raise _refused(sourced, ["clf_loss", "mode"], f"a {settings.mode} head trains on "
                       f"{want} loss, not {quoted(head_loss)}")
    return RunConfig(settings, **{name: value for name, (value, _) in sourced.items()
                                  if RUN_KEYS[name].part is None})


def resolve_run_config(from_file=None, from_flags=None, env=None):
    """Resolve an evaluation run from ``read_config_file``'s values and
    ``flag_values``' typed flag values.

    Keys left unset take the defaults of the dataclasses they fill; the
    head's loss is the mode's, no key.
    """
    return _run_config(_layered(RUN_KEYS, from_file, from_flags, env))


def resolve_synth_spec(from_file=None, from_flags=None, env=None):
    """Resolve a generator spec with the same precedence rules."""
    return _build(SynthSpec, _layered(SYNTH_KEYS, from_file, from_flags, env))


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
    pairs = read_config_file(path, {n: k for n, k in RUN_KEYS.items() if k.snapshot != "never"})
    for key in RUN_KEYS.values():
        if key.snapshot == "required" and key.name not in pairs:
            raise ConfigError(f"{path}: run settings missing key '{key.name}'")
    return _run_config(pairs)
