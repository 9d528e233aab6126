"""Prediction records: the unit consumed by metrics and trust measures."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .data import PASS_FAIL, csv_rows, read_text
from .reports import quoted

__all__ = ["PredictionRecord", "write_records_csv", "read_records_csv"]


@dataclass(frozen=True)
class PredictionRecord:
    """One evaluated trial.

    Classification fills ``actual``/``predicted`` (class indices) and
    ``confidences``; regression fills ``true_score``/``pred_score``.
    """

    trial_id: str
    subject_id: str
    trial_index: int
    actual: int | None = None
    predicted: int | None = None
    confidences: tuple | None = None
    true_score: float | None = None
    pred_score: float | None = None

    def __post_init__(self):
        if self.confidences is not None:
            if self.predicted is None:
                raise ValueError("confidences without a predicted class")
            total = sum(self.confidences)
            if not abs(total - 1.0) < 1e-9:
                raise ValueError(f"confidences must sum to 1, got {total!r}")


def _opt(v):
    return "" if v is None else repr(v)


def write_records_csv(records, path, classes=PASS_FAIL):
    """Lossless (repr round-trip) CSV serialization."""
    conf_cols = [f"conf_{c}" for c in classes]
    header = ["trial_id", "subject", "trial", "actual", "predicted",
              *conf_cols, "true_score", "pred_score"]
    lines = [",".join(header)]
    for r in records:
        confs = ["" for _ in classes] if r.confidences is None \
            else [repr(float(c)) for c in r.confidences]
        row = [
            r.trial_id, r.subject_id, str(r.trial_index),
            "" if r.actual is None else str(r.actual),
            "" if r.predicted is None else str(r.predicted),
            *confs,
            _opt(r.true_score), _opt(r.pred_score),
        ]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _header_classes(header, path):
    """Class names encoded in the conf_* columns of a records header.  A
    name is non-empty, unique, printable and free of path separators,
    since it names report lines and density files."""
    middle = header[5:-2]
    if (header[:5] != ["trial_id", "subject", "trial", "actual", "predicted"]
            or header[-2:] != ["true_score", "pred_score"] or not middle
            or any(not col.startswith("conf_") for col in middle)):
        raise ValueError(f"{path}: unexpected records header {quoted(','.join(header))}")
    classes = tuple(col[len("conf_"):] for col in middle)
    for k, name in enumerate(classes):
        if not name or name in classes[:k] or not name.isprintable() or any(
                c in name for c in "/\\"):
            raise ValueError(f"{path}, column {quoted(middle[k])}: expected a unique, "
                             "non-empty, printable class name without '/' or '\\'")
    return classes


def read_records_csv(path):
    """``(class_names, records)`` of a records file; the class names come
    from its header.

    A malformed row, one with a confidence outside [0, 1] in any
    ``conf_*`` column, or one whose ``trial_id`` is not its ``subject`` and
    ``trial`` joined by a colon, raises ValueError naming the file, line
    and column; a repeated ``trial_id`` names the file and both lines.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    rows = csv_rows(reader, path)
    header = next(rows, None)
    if header is None:
        raise ValueError(f"{path}: empty records file")
    classes = _header_classes(header, path)
    records, first_line = [], {}
    for row in rows:
        if not row:
            continue
        line = reader.line_num
        record = _row_record(row, header, f"{path} line {line}")
        if record.trial_id in first_line:
            raise ValueError(f"{path} line {line}: duplicate trial_id "
                             f"{quoted(record.trial_id)} (first on line "
                             f"{first_line[record.trial_id]})")
        first_line[record.trial_id] = line
        records.append(record)
    return classes, records


def _row_record(row, header, where):
    """PredictionRecord of one records row; errors start with ``where``."""
    if len(row) != len(header):
        raise ValueError(f"{where}: expected {len(header)} fields, got {len(row)}")
    nc = len(header) - 7

    def cell(k, parse, *checks):
        """``parse`` of cell k, which must pass each ``(ok, expected)`` check."""
        try:
            value = parse(row[k])
        except ValueError:
            value = None
        for ok, expected in checks:
            if value is None or not ok(value):
                raise ValueError(f"{where}, column '{header[k]}': expected {expected}, "
                                 f"got {quoted(row[k])}")
        return value

    def optional(k, *check):
        return None if row[k] == "" else cell(k, *check)

    trial_index = cell(2, int, (lambda v: True, "an integer"))
    trial_id = f"{row[1]}:{trial_index}"
    if row[0] != trial_id:
        raise ValueError(f"{where}, column 'trial_id': expected {quoted(trial_id)} from "
                         f"columns 'subject' and 'trial', got {quoted(row[0])}")
    number = (float, (math.isfinite, "a finite number"))
    confidence = (*number, (lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"))
    index = (int, (lambda v: 0 <= v < nc, f"a class index from 0 to {nc - 1}"))
    fields = dict(
        trial_index=trial_index,
        actual=optional(3, *index),
        predicted=optional(4, *index),
        confidences=tuple(cell(5 + c, *confidence) for c in range(nc))
        if any(row[5:5 + nc]) else None,
        true_score=optional(5 + nc, *number),
        pred_score=optional(6 + nc, *number),
    )
    try:
        return PredictionRecord(trial_id=row[0], subject_id=row[1], **fields)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
