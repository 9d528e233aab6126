"""Trial containers, CSV ingestion, and the preprocessing chain.

A trial moves through explicit stages:

    RAW (0) -> FILLED (1) -> DOWNSAMPLED (2) -> NORMALIZED (3)

Gap filling replaces missing detections, downsampling reduces the frame
rate, min-max normalization maps each channel into [0, 1] using
statistics fitted on training trials only.  Every stage transition is
enforced so statistics can never leak across the fit/apply boundary.

Trial files are read and written a whole data block at a time.  The
reader splits a block without quotes into cells in one pass, checks that
every row has the header's width, and converts all cells at once.  Any
other block, and every malformed one, goes to a row-by-row ``csv.reader``
walk.  The walk is the reference reading and the only place that
reports a malformed block: it converts each cell as it reaches it, so it
reports the first fault in file order, and both readings give the same
values or the same error.
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
    """Per-channel extrema over downsampled trials of one channel layout."""
    channels = trials[0].channels
    mins = np.full(len(channels), np.inf)
    maxs = np.full(len(channels), -np.inf)
    ids = []
    for t in trials:
        _require_stage(t, DOWNSAMPLED, "fit_minmax")
        mins = np.minimum(mins, t.values.min(axis=0))
        maxs = np.maximum(maxs, t.values.max(axis=0))
        ids.append(t.trial_id)
    for c, name in enumerate(channels):
        if not maxs[c] > mins[c]:
            raise ValueError(f"channel '{name}' is constant over the fit set (zero range)")
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
    """Fit score statistics to two or more scores; ``ids`` names their trials."""
    arr = np.array(scores, dtype=np.float64)
    std = float(arr.std(ddof=0))
    if std == 0.0:
        raise ValueError("scores are constant over the fit set (zero spread)")
    return ScoreStats(mean=float(arr.mean()), std=std, source_ids=tuple(ids))


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
    """Inverse-frequency weights: N / (K * N_class), keyed by class index."""
    counts = [sum(1 for lb in labels if lb == c) for c in classes]
    n, k = len(labels), len(classes)
    if any(cnt == 0 for cnt in counts):
        missing = [c for c, cnt in zip(classes, counts) if cnt == 0]
        raise ValueError(f"no samples for class(es) {missing}; cannot weight")
    return {i: n / (k * cnt) for i, cnt in enumerate(counts)}


# ---------------------------------------------------------------------------
# trial CSV format
# ---------------------------------------------------------------------------

_REQUIRED_HEADER_KEYS = ("subject", "trial", "rate_hz")
_HEADER_KEYS = _REQUIRED_HEADER_KEYS + ("score", "class")


def parse_trial_csv(path):
    """Parse one trial file.

    Format: ``# key=value`` comment headers (subject, trial, rate_hz,
    optional score/class with NA for absent), then a ``t,<ch>,...``
    header row, then one row per frame.  Empty cells mark missing
    detections.  Errors carry the line number and column name.

    A data block without quotes is read in whole-block passes
    (``_parse_block``); anything that path does not accept as plain,
    including every malformed block, is read by the ``csv.reader`` row
    walk (``_walk_rows``), which raises the error.
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
    meta = {}
    lines = text.splitlines()
    i = 0
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        if "=" not in body:
            raise TrialFormatError(f"{origin} line {i + 1}: header comment without '='")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _HEADER_KEYS:
            raise TrialFormatError(f"{origin} line {i + 1}: unknown header key {quoted(key)}")
        if key in meta:
            raise TrialFormatError(f"{origin} line {i + 1}: duplicate header key '{key}'")
        meta[key] = value
    else:
        i = len(lines)
    for key in _REQUIRED_HEADER_KEYS:
        if key not in meta:
            raise TrialFormatError(f"{origin}: missing required header '# {key}='")

    try:
        trial_index = int(meta["trial"])
    except ValueError:
        raise TrialFormatError(f"{origin}: trial must be an integer, got {quoted(meta['trial'])}")
    try:
        rate = float(meta["rate_hz"])
    except ValueError:
        rate = math.nan
    if not math.isfinite(rate):
        raise TrialFormatError(
            f"{origin}: rate_hz must be numeric and finite, got {quoted(meta['rate_hz'])}")

    score = None
    if meta.get("score", "NA") != "NA":
        try:
            score = float(meta["score"])
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise TrialFormatError(
                f"{origin}: score must be numeric and finite, or NA, got {quoted(meta['score'])}")
    label = None
    if meta.get("class", "NA") != "NA":
        label = meta["class"]

    block = None if '"' in text else _parse_block(lines[i:])
    channels, values = block or _walk_rows(lines, i, origin)

    try:
        return Trial(
            subject_id=meta["subject"],
            trial_index=trial_index,
            sample_rate_hz=rate,
            channels=channels,
            values=values,
            score=score,
            class_label=label,
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

    # every cell of every row, in order: one array is built at the end
    data = []
    last_t = None
    for r, row in enumerate(rows[1:]):
        lineno = i + 2 + r
        if _blank(row):
            continue
        if len(row) != len(header):
            raise TrialFormatError(
                f"{origin} line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            t_val = int(row[0])
        except ValueError:
            raise TrialFormatError(f"{origin} line {lineno}, column 't': "
                                   f"non-integer value {quoted(row[0])}")
        if last_t is not None and t_val <= last_t:
            raise TrialFormatError(
                f"{origin} line {lineno}, column 't': timestamp {t_val} not increasing (previous {last_t})"
            )
        last_t = t_val
        for channel, cell in zip(channels, row[1:]):
            # only an empty cell is missing; float() also reads "nan" and "inf"
            cell = cell.strip()
            if not cell:
                data.append(math.nan)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise TrialFormatError(f"{origin} line {lineno}, column '{channel}': "
                                       f"non-numeric value {quoted(cell)}") from None
            if not math.isfinite(value):
                raise TrialFormatError(f"{origin} line {lineno}, column '{channel}': "
                                       f"non-finite value {quoted(cell)}")
            data.append(value)
    if not data:
        raise TrialFormatError(f"{origin}: no data rows")
    return channels, np.array(data).reshape(-1, len(channels))


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


def csv_rows(reader, where, error=ValueError):
    """The rows of ``reader``.  A csv.Error, such as a field longer than
    ``csv.field_size_limit()``, raises ``error`` naming ``where`` and the
    line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise error(f"{where} line {reader.line_num}: {exc}") from None


def _blank(row):
    return len(row) == 0 or (len(row) == 1 and row[0].strip() == "")


def _unwritable(name):
    """Why the parser would not read ``name`` back as written, or None."""
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
    naming the trial, and nothing is written: an infinite cell (naming
    the frame), and a subject, class label or channel name that holds a
    ',', a '"' or a line break, starts or ends with whitespace, or, for a
    class label, is ``NA``, which marks a missing label.
    """
    names = [("subject", trial.subject_id)] + [("channel", ch) for ch in trial.channels]
    if trial.class_label is not None:
        if trial.class_label == "NA":
            raise ValueError(f"{trial.trial_id}: cannot write class 'NA', which "
                             f"reads back as no label")
        names.append(("class", trial.class_label))
    for field, name in names:
        reason = _unwritable(name)
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


def load_manifest(path):
    """Read a ``path,subject,trial`` manifest and parse every trial file.

    Relative paths resolve against the manifest's directory.  The
    subject/trial columns must agree with each file's own header.  A
    trial file that cannot be read fails naming the manifest line, and a
    trial listed twice fails naming both manifest lines.
    """
    base = os.path.dirname(os.path.abspath(path))
    trials = []
    reader = csv.reader(io.StringIO(read_text(path, TrialFormatError), newline=""))
    rows = list(csv_rows(reader, path, TrialFormatError))
    if not rows or [h.strip() for h in rows[0]] != ["path", "subject", "trial"]:
        raise TrialFormatError(f"{path}: manifest header must be 'path,subject,trial'")
    first_line = {}
    for line, row in enumerate(rows[1:], start=2):
        if _blank(row):
            continue
        if len(row) != 3:
            raise TrialFormatError(f"{path} line {line}: expected 3 fields, got {len(row)}")
        tpath, subject, tindex = row[0].strip(), row[1].strip(), row[2].strip()
        full = tpath if os.path.isabs(tpath) else os.path.join(base, tpath)
        try:
            trial = parse_trial_csv(full)
        except OSError as exc:
            raise TrialFormatError(
                f"{path} line {line}: cannot read trial file {full}: {exc.strerror or exc}"
            ) from None
        if trial.subject_id != subject or str(trial.trial_index) != tindex:
            raise TrialFormatError(
                f"{path} line {line}: manifest says {subject}:{tindex}, "
                f"{full} says {trial.trial_id}"
            )
        if trial.trial_id in first_line:
            raise TrialFormatError(
                f"{path} line {line}: duplicate trial {trial.trial_id} "
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
