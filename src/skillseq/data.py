"""Trial containers, CSV ingestion, and the preprocessing chain.

A trial moves through explicit stages:

    RAW (0) -> FILLED (1) -> DOWNSAMPLED (2) -> NORMALIZED (3)

Gap filling replaces missing detections, downsampling reduces the frame
rate, min-max normalization maps each channel into [0, 1] using
statistics fitted on training trials only.  Every stage transition is
enforced so statistics can never leak across the fit/apply boundary.

Every CSV reader (trials, manifests, prediction records, activation
maps) reads its rows through one row reader, ``read_row``: a format is a
table of ``Column``s, each a name and a parse with its checks, and a bad
cell raises ``<file> line <n>, column '<c>': expected X, got '<cell>'``.
Every ``key = value`` text (config files, run.cfg, a trial file's
``# key=value`` headers) goes through one pair reader, ``read_pairs``,
over a ``{key: parse}`` table, and a bad value raises ``<file> line <n>:
key '<k>': expected X, got '<value>'``.  The parses are the same
``parser``s in both.

Trial files are read and written a whole data block at a time.  The
reader splits a block without quotes into cells in one pass, checks that
every row has the header's width, and converts all cells at once
(``_parse_block``).  Any other block, and every malformed one, goes to a
row-by-row ``csv.reader`` walk over ``read_row`` (``_walk_rows``), the
reference reading and the only place that reports a malformed block: it
reports the first faulty row in file order, and both readings give the
same values or the same error.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import operator
import os
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .reports import quoted

__all__ = [
    "RAW", "FILLED", "DOWNSAMPLED", "NORMALIZED",
    "PASS_FAIL",
    "Trial", "Dataset", "MinMaxStats", "ScoreStats",
    "TrialFormatError",
    "fill_gaps", "downsample",
    "fit_minmax", "apply_minmax",
    "fit_znorm", "apply_znorm", "invert_znorm",
    "one_hot", "class_weights",
    "parse_trial_csv", "parse_trial_text", "write_trial_csv",
    "load_manifest", "write_manifest", "dataset_fingerprint",
    "prepare_stage2",
]

RAW, FILLED, DOWNSAMPLED, NORMALIZED = 0, 1, 2, 3
_STAGE_NAMES = {0: "raw", 1: "filled", 2: "downsampled", 3: "normalized"}

PASS_FAIL = ("pass", "fail")


class TrialFormatError(ValueError):
    """Raised for malformed trial or manifest files."""


@dataclass
class Trial:
    """One recorded exercise: a (T, C) float64 value matrix plus labels.

    NaN cells mark missing detections; they are only legal before the
    FILLED stage.  ``score`` and ``class_label`` are None when the trial
    is unlabeled.  The rate and a score are finite, as a trial file
    must hold them.
    """

    subject_id: str
    trial_index: int
    sample_rate_hz: float
    channels: tuple
    values: np.ndarray
    score: float | None = None
    class_label: str | None = None
    stage: int = RAW

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D (T, C), got shape {self.values.shape}")
        if self.values.shape[1] != len(self.channels):
            raise ValueError(
                f"{len(self.channels)} channel names but {self.values.shape[1]} value columns"
            )
        if self.values.shape[0] < 1:
            raise ValueError("trial must contain at least one frame")
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ValueError(f"sample_rate_hz must be finite and > 0, got {self.sample_rate_hz}")
        if self.score is not None and not math.isfinite(self.score):
            raise ValueError(f"score must be finite or None, got {self.score}")
        if self.stage >= FILLED and np.isnan(self.values).any():
            raise ValueError(f"NaN values not allowed at stage {_STAGE_NAMES[self.stage]}")

    @property
    def trial_id(self):
        return f"{self.subject_id}:{self.trial_index}"


def _require_stage(trial, stage, op):
    if trial.stage != stage:
        raise ValueError(
            f"{op} requires a {_STAGE_NAMES[stage]} trial, "
            f"got {_STAGE_NAMES[trial.stage]} ({trial.trial_id})"
        )


def fill_gaps(trial):
    """Replace missing runs with constants; RAW -> FILLED.

    An interior gap becomes the mean of its two nearest observed
    neighbors; leading and trailing gaps copy the nearest observed value.
    A channel with no observed value at all is rejected.  Work per channel
    is one pass over its observed indices plus one step per gap.
    """
    _require_stage(trial, RAW, "fill_gaps")
    vals = trial.values.copy()
    for c, name in enumerate(trial.channels):
        col = vals[:, c]
        valid = np.flatnonzero(~np.isnan(col))
        if valid.size == 0:
            raise ValueError(f"channel '{name}' of {trial.trial_id} has no observed values")
        if valid.size == col.size:
            continue
        first, last = valid[0], valid[-1]
        col[:first] = col[first]
        col[last + 1:] = col[last]
        for g in np.flatnonzero(np.diff(valid) > 1).tolist():
            i, j = valid[g], valid[g + 1]
            col[i + 1:j] = 0.5 * (col[i] + col[j])
    return replace(trial, values=vals, stage=FILLED)


def downsample(trial, target_hz=1.0):
    """Keep every stride-th frame starting at frame 0; FILLED -> DOWNSAMPLED.

    stride = floor(rate/target + 0.5), so recorded rates that are near
    multiples of the target collapse to the intended integer stride.
    """
    _require_stage(trial, FILLED, "downsample")
    ratio = trial.sample_rate_hz / target_hz
    stride = int(math.floor(ratio + 0.5)) if math.isfinite(ratio) else None
    if stride is None or stride < 1:
        why = "not finite" if stride is None else "< 1"
        raise ValueError(f"{trial.trial_id}: cannot downsample {trial.sample_rate_hz} Hz "
                         f"to {target_hz} Hz (stride {why})")
    vals = trial.values[::stride].copy()
    return replace(
        trial,
        values=vals,
        sample_rate_hz=trial.sample_rate_hz / stride,
        stage=DOWNSAMPLED,
    )


def prepare_stage2(trial, target_hz=1.0):
    """fill_gaps + downsample convenience."""
    return downsample(fill_gaps(trial), target_hz=target_hz)


@dataclass(frozen=True)
class MinMaxStats:
    """Per-channel [min, max] fitted on a known set of trials.

    ``source_ids`` records provenance so leakage checks can verify that
    no evaluation trial contributed to the fit.
    """

    channels: tuple
    mins: np.ndarray
    maxs: np.ndarray
    source_ids: tuple

    def to_dict(self):
        return {
            "channels": list(self.channels),
            "mins": [float(v) for v in self.mins],
            "maxs": [float(v) for v in self.maxs],
            "source_ids": list(self.source_ids),
        }

    @staticmethod
    def from_dict(d):
        return MinMaxStats(
            channels=tuple(d["channels"]),
            mins=np.array(d["mins"], dtype=np.float64),
            maxs=np.array(d["maxs"], dtype=np.float64),
            source_ids=tuple(d["source_ids"]),
        )


def fit_minmax(trials):
    """Per-channel extrema over downsampled trials of one channel layout
    (``modes.training_fault`` refuses a channel of zero range first)."""
    channels = trials[0].channels
    mins = np.full(len(channels), np.inf)
    maxs = np.full(len(channels), -np.inf)
    ids = []
    for t in trials:
        _require_stage(t, DOWNSAMPLED, "fit_minmax")
        mins = np.minimum(mins, t.values.min(axis=0))
        maxs = np.maximum(maxs, t.values.max(axis=0))
        ids.append(t.trial_id)
    return MinMaxStats(channels=channels, mins=mins, maxs=maxs, source_ids=tuple(ids))


def apply_minmax(trial, stats):
    """Map values into [0, 1] with clamping; DOWNSAMPLED -> NORMALIZED."""
    _require_stage(trial, DOWNSAMPLED, "apply_minmax")
    if trial.channels != stats.channels:
        raise ValueError(
            f"channel mismatch: {trial.trial_id} has {trial.channels}, "
            f"stats fit on {stats.channels}"
        )
    rng = stats.maxs - stats.mins
    vals = np.clip((trial.values - stats.mins) / rng, 0.0, 1.0)
    return replace(trial, values=vals, stage=NORMALIZED)


@dataclass(frozen=True)
class ScoreStats:
    """Mean and population standard deviation of training scores."""

    mean: float
    std: float
    source_ids: tuple

    def to_dict(self):
        return {"mean": self.mean, "std": self.std, "source_ids": list(self.source_ids)}

    @staticmethod
    def from_dict(d):
        return ScoreStats(mean=float(d["mean"]), std=float(d["std"]),
                          source_ids=tuple(d["source_ids"]))


def fit_znorm(scores, ids=()):
    """Fit score statistics to two or more distinct scores; ``ids`` names their trials."""
    arr = np.array(scores, dtype=np.float64)
    return ScoreStats(mean=float(arr.mean()), std=float(arr.std(ddof=0)), source_ids=tuple(ids))


def apply_znorm(score, stats):
    return (score - stats.mean) / stats.std


def invert_znorm(z, stats):
    return z * stats.std + stats.mean


def one_hot(label, classes=PASS_FAIL):
    """Unit vector for a class name under the class order ``classes``."""
    if label not in classes:
        raise ValueError(f"unknown class '{label}'; expected one of {classes}")
    v = np.zeros(len(classes))
    v[classes.index(label)] = 1.0
    return v


def class_weights(labels, classes=PASS_FAIL):
    """Inverse-frequency weights: N / (K * N_class), keyed by class index,
    of labels that hold every class."""
    counts = [sum(1 for lb in labels if lb == c) for c in classes]
    n, k = len(labels), len(classes)
    return {i: n / (k * cnt) for i, cnt in enumerate(counts)}


# ---------------------------------------------------------------------------
# trial CSV format
# ---------------------------------------------------------------------------

def parse_trial_csv(path):
    """Parse one trial file.

    Format: ``# key=value`` comment headers (subject, trial, rate_hz,
    optional score and class, ``pass`` or ``fail``, with NA for absent),
    read by ``read_pairs`` under ``_HEADER``, then a ``t,<ch>,...``
    header row, then one row per frame.  Empty cells mark missing
    detections.  Errors carry the line number and the key or column name.
    """
    return parse_trial_text(read_text(path, TrialFormatError), origin=str(path))


def read_text(path, error=ValueError):
    """A file's UTF-8 text, newlines untranslated; undecodable bytes raise
    ``error`` naming the file, line and byte offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(
            f"{path} line {line}: not UTF-8 text (byte 0x{raw[exc.start]:02x} "
            f"at offset {exc.start}: {exc.reason})"
        ) from None


def parse_trial_text(text, origin="<string>"):
    lines = text.splitlines()
    header = []  # (line number, text after the '#') of each leading '#' line
    for line in lines:
        if not line.startswith("#"):
            break
        header.append((len(header) + 1, line[1:]))
    i = len(header)
    # {key: (value, where)}; score and class may be left out
    meta = {"score": (None, None), "class": (None, None),
            **read_pairs(header, _HEADER, origin, TrialFormatError)}
    for key in _HEADER:
        if key not in meta:
            raise TrialFormatError(f"{origin}: missing required header '# {key}='")

    block = None if '"' in text else _parse_block(lines[i:])
    channels, values = block or _walk_rows(lines, i, origin)

    try:
        return Trial(
            subject_id=meta["subject"][0],
            trial_index=meta["trial"][0],
            sample_rate_hz=meta["rate_hz"][0],
            channels=channels,
            values=values,
            score=meta["score"][0],
            class_label=meta["class"][0],
            stage=RAW,
        )
    except ValueError as e:
        raise TrialFormatError(f"{origin}: {e}")


def _walk_rows(lines, i, origin):
    """``(channels, values)`` of the column header row ``lines[i]`` and the
    data rows after it, read row by row through ``csv.reader``.  This is
    the reference reading and the one place that reports a malformed
    block, by line and column."""
    reader = csv.reader(io.StringIO("\n".join(lines[i:])))
    try:
        rows = list(reader)
    except csv.Error as exc:        # a field longer than csv.field_size_limit()
        raise TrialFormatError(f"{origin} line {i + reader.line_num}: {exc}") from None
    if not rows:
        raise TrialFormatError(f"{origin}: missing column header row")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "t":
        raise TrialFormatError(f"{origin} line {i + 1}: first column must be 't', "
                               f"got {quoted(header[0] if header else '')}")
    channels = tuple(header[1:])
    if len(channels) < 1:
        raise TrialFormatError(f"{origin}: no channel columns")
    seen = set()
    for name in channels:
        if name in seen:
            raise TrialFormatError(f"{origin} line {i + 1}: duplicate channel name {quoted(name)}")
        seen.add(name)

    columns = _trial_columns(channels)
    data = []  # every cell of every row, in order: one array is built at the end
    last_t = None
    for r, row in enumerate(rows[1:]):
        where = f"{origin} line {i + 2 + r}"
        if _blank(row):
            continue
        t_val, *cells = read_row(row, columns, where, TrialFormatError)
        if last_t is not None and t_val <= last_t:
            raise cell_fault(where, "t", f"timestamp {t_val} not increasing (previous {last_t})",
                             TrialFormatError)
        last_t = t_val
        data.extend(cells)
    if not data:
        raise TrialFormatError(f"{origin}: no data rows")
    return channels, np.array(data).reshape(-1, len(channels))


def _trial_columns(channels):
    """A trial's data-row table: only an empty cell is missing, not "nan"."""
    return (Column("t", integer), *(Column(ch, finite, empty=math.nan) for ch in channels))


def _parse_block(lines):
    """``(channels, values)`` of a column header row and its data rows,
    read in whole-block passes, or None to leave the block to ``_walk_rows``.

    The caller has ruled out quotes, so each row that ``csv.reader`` would
    give is ``line.split(",")``.  The result is exactly the row walk's.
    Anything else defers: an over-long line, a header the walk would
    reject, a blank or ragged row, a ``t`` that is not an increasing
    integer, a cell that is neither empty nor a number ``float()`` reads,
    or a non-finite number.
    """
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = [h.strip() for h in lines[0].split(",")]
    ncol, body = len(header), lines[1:]
    channels = tuple(header[1:])
    # each row on its own line: a total cell count alone would accept a
    # blank line followed by a line with one cell too many
    if (header[0] != "t" or ncol < 2 or len(set(channels)) != ncol - 1 or not body
            or set(map(str.count, body, repeat(","))) != {ncol - 1}):
        return None
    cells = ",".join(body).split(",")
    try:
        ts = list(map(int, cells[::ncol]))
    except ValueError:
        return None
    if not all(map(operator.lt, ts, ts[1:])):
        return None
    del cells[::ncol]
    missing = cells.count("")
    if missing:
        cells = [cell or "nan" for cell in cells]
    try:  # parses each str as float() does, bit for bit
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        return None
    if values.size - np.count_nonzero(np.isfinite(values)) != missing:
        return None
    return channels, values.reshape(-1, ncol - 1)


def csv_rows(path, error=ValueError):
    """``(line, row)`` of each row of the UTF-8 CSV file ``path``, ``line``
    the row's last.  Text that is not UTF-8, or a csv.Error such as a field
    longer than ``csv.field_size_limit()``, raises ``error`` naming the
    file and the line."""
    reader = csv.reader(io.StringIO(read_text(path, error), newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise error(f"{path} line {reader.line_num}: {exc}") from None


# ---------------------------------------------------------------------------
# the column schema: every CSV reader's cells, parsed and reported alike
# ---------------------------------------------------------------------------

def parser(convert, *checks):
    """A cell parser: ``convert(cell)``, which must pass each ``(ok,
    expected)`` check.  A cell that fails a check raises ValueError
    ``expected <its expected>, got <cell>``; one that ``convert`` refuses
    fails the first."""
    def parse(cell):
        try:
            value = convert(cell)
        except ValueError:
            value = None
        for ok, expected in checks:
            if value is None or not ok(value):
                raise ValueError(f"expected {expected}, got {quoted(cell)}")
        return value
    return parse


integer = parser(int, (lambda v: True, "an integer"))
number = parser(float, (lambda v: True, "a number"))  # reads "nan" and "inf" too
finite = parser(float, (math.isfinite, "a finite number"))
_REQUIRED = object()


@dataclass(frozen=True)
class Column:
    """One CSV column: its name, the ``parse`` of a cell, and what an empty
    or all-whitespace cell reads as, unparsed, if not the parse of it."""

    name: str
    parse: object = str
    empty: object = _REQUIRED


def cell_fault(where, column, problem, error=ValueError):
    """The error for one bad cell: ``<where>, column '<column>': <problem>``."""
    return error(f"{where}, column '{column}': {problem}")


def read_row(row, columns, where, error=ValueError):
    """The parsed cells of ``row`` under ``columns``.  A row of another
    width, or a cell its column refuses, raises ``error`` naming ``where``
    (``<file> line <n>``), and the column."""
    if len(row) != len(columns):
        raise error(f"{where}: expected {len(columns)} fields, got {len(row)}")
    values = []
    for col, cell in zip(columns, row):
        try:
            values.append(col.empty if col.empty is not _REQUIRED and not cell.strip()
                          else col.parse(cell))
        except ValueError as exc:
            raise cell_fault(where, col.name, exc, error) from None
    return values


def read_pairs(lines, parses, origin, error=ValueError):
    """``{key: (value, where)}`` of ``key = value`` texts, ``lines`` the
    ``(line number, text)`` pairs to read, each value parsed by its key's
    ``parses[key]`` and ``where`` ``<origin> line <n>``.  Text without
    '=', an empty, repeated or unknown key, or a value its parse refuses
    raises ``error`` naming ``where``."""
    pairs, first = {}, {}
    for ln, text in lines:
        where = f"{origin} line {ln}"
        text = text.strip()
        name, sep, raw = text.partition("=")
        name = name.strip()
        if not sep:
            raise error(f"{where}: expected 'key = value', got {quoted(text)}")
        if not name:
            raise error(f"{where}: empty key")
        if name in first:
            raise error(f"{where}: duplicate key '{name}' (first set on line {first[name]})")
        if name not in parses:
            raise error(f"{where}: unknown key {quoted(name)}")
        try:
            pairs[name] = (parses[name](raw.strip()), where)
        except ValueError as exc:
            raise error(f"{where}: key '{name}': {exc}") from None
        first[name] = ln
    return pairs


def _or_na(parse):
    """``parse``, with the text ``NA`` read as None."""
    return lambda raw: None if raw == "NA" else parse(raw)


# a trial file's headers; score and class may be left out, like NA
_HEADER = {
    "subject": parser(str, (lambda s: " = " not in s, "an id without ' = '")),
    "trial": integer,
    "rate_hz": finite,
    "score": _or_na(parser(float, (math.isfinite, "a finite number or NA"))),
    "class": _or_na(parser(str, (PASS_FAIL.__contains__, "pass, fail or NA"))),
}


def _blank(row):
    return len(row) == 0 or (len(row) == 1 and row[0].strip() == "")


def _unwritable(name, subject=False):
    """Why the parser would not read ``name``, a subject if ``subject``,
    back as written, or None."""
    if subject and " = " in name:
        return "' = '"
    if name != name.strip():
        return "leading or trailing whitespace"
    if "," in name or '"' in name:
        return "a ',' or '\"'"
    if len(f"{name}.".splitlines()) > 1:
        return "a line break"
    return None


# frames formatted per write: a long trial's text never sits in memory whole
_WRITE_FRAMES = 512


def write_trial_csv(trial, path):
    """Serialize a trial; exact inverse of parse_trial_csv for RAW trials.

    What the parser would not read back as written raises ValueError
    naming the trial, and nothing is written: a class label other than
    ``pass`` or ``fail``, an infinite cell (naming the frame), a subject
    that holds ' = ', and a subject or channel name that holds a ',', a
    '"' or a line break, or starts or ends with whitespace.
    """
    if trial.class_label not in (None, *PASS_FAIL):
        raise ValueError(f"{trial.trial_id}: cannot write class {trial.class_label!r}, "
                         "which is neither pass nor fail")
    names = [("subject", trial.subject_id)] + [("channel", ch) for ch in trial.channels]
    for field, name in names:
        reason = _unwritable(name, field == "subject")
        if reason:
            raise ValueError(f"{trial.trial_id}: cannot write {field} {name!r}, "
                             f"which holds {reason}")
    values = trial.values
    infinite = np.isinf(values)
    if infinite.any():
        t, c = np.argwhere(infinite)[0].tolist()
        raise ValueError(f"{trial.trial_id} frame {t}, channel '{trial.channels[c]}': "
                         f"cannot write non-finite value {float(values[t, c])!r}")
    head = [
        f"# subject={trial.subject_id}",
        f"# trial={trial.trial_index}",
        f"# rate_hz={trial.sample_rate_hz!r}",
        f"# score={'NA' if trial.score is None else repr(trial.score)}",
        f"# class={'NA' if trial.class_label is None else trial.class_label}",
        "t," + ",".join(trial.channels),
    ]
    width = values.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(head) + "\n")
        # one repr pass over each block's cells; a missing cell is written empty
        for first in range(0, values.shape[0], _WRITE_FRAMES):
            block = values[first:first + _WRITE_FRAMES]
            flat = block.ravel()
            cells = list(map(repr, flat.tolist()))
            for i in np.flatnonzero(np.isnan(flat)).tolist():
                cells[i] = ""
            fh.write("".join([f"{first + t}," + ",".join(cells[t * width:(t + 1) * width]) + "\n"
                              for t in range(block.shape[0])]))


# ---------------------------------------------------------------------------
# datasets and manifests
# ---------------------------------------------------------------------------

class Dataset:
    """A list of trials with uniform channel layout and unique ids."""

    def __init__(self, trials):
        trials = list(trials)
        if not trials:
            raise ValueError("dataset must contain at least one trial")
        channels = trials[0].channels
        seen = set()
        for t in trials:
            if t.channels != channels:
                raise ValueError(
                    f"channel mismatch: {t.trial_id} has {t.channels}, expected {channels}"
                )
            if t.trial_id in seen:
                raise ValueError(f"duplicate trial id {t.trial_id}")
            seen.add(t.trial_id)
        self.trials = trials
        self.channels = channels


_MANIFEST_COLUMNS = (Column("path", str.strip), Column("subject", str.strip),
                     Column("trial", integer))


def load_manifest(path):
    """Read a ``path,subject,trial`` manifest and parse every trial file.

    Relative paths resolve against the manifest's directory.  The
    subject/trial columns must agree with each file's own header.  A bad
    cell, a trial file that cannot be read or one that disagrees fails
    naming the manifest line and column (``read_row``), and a trial
    listed twice fails naming both manifest lines.
    """
    base = os.path.dirname(os.path.abspath(path))
    trials = []
    rows = list(csv_rows(path, TrialFormatError))
    if not rows or [h.strip() for h in rows[0][1]] != [col.name for col in _MANIFEST_COLUMNS]:
        raise TrialFormatError(f"{path}: manifest header must be 'path,subject,trial'")
    first_line = {}
    for line, row in rows[1:]:
        if _blank(row):
            continue
        where = f"{path} line {line}"
        cells = read_row(row, _MANIFEST_COLUMNS, where, TrialFormatError)
        full = os.path.join(base, cells[0])  # an absolute path replaces base
        try:
            trial = parse_trial_csv(full)
        except OSError as exc:
            raise cell_fault(where, "path", f"cannot read trial file {full}: "
                             f"{exc.strerror or exc}", TrialFormatError) from None
        for k, want in ((1, trial.subject_id), (2, trial.trial_index)):
            if cells[k] != want:
                raise cell_fault(where, _MANIFEST_COLUMNS[k].name, f"expected {quoted(want)} "
                                 f"from {full}, got {quoted(row[k].strip())}", TrialFormatError)
        if trial.trial_id in first_line:
            raise TrialFormatError(
                f"{where}: duplicate trial {trial.trial_id} "
                f"(first on line {first_line[trial.trial_id]})"
            )
        first_line[trial.trial_id] = line
        trials.append(trial)
    try:
        return Dataset(trials)
    except ValueError as exc:        # no trials, or channels that differ
        raise TrialFormatError(f"{path}: {exc}") from None


def write_manifest(rows, out_path):
    """Write a manifest of ``(trial file path, subject, trial index)`` rows."""
    base = os.path.dirname(os.path.abspath(out_path))
    lines = ["path,subject,trial"]
    for p, subject, index in rows:
        lines.append(f"{os.path.relpath(p, base)},{subject},{index}")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def dataset_fingerprint(dataset):
    """sha256 over a canonical serialization of every trial, order-free."""
    h = hashlib.sha256()
    for t in sorted(dataset.trials, key=lambda t: t.trial_id):
        head = (
            f"{t.subject_id}|{t.trial_index}|{t.sample_rate_hz!r}|"
            f"{','.join(t.channels)}|{t.score!r}|{t.class_label}|{t.stage}|"
        )
        h.update(head.encode("utf-8"))
        h.update(np.ascontiguousarray(t.values, dtype="<f8").tobytes())
    return h.hexdigest()
