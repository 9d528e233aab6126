"""Prediction records: the unit consumed by metrics and trust measures."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import PASS_FAIL, Column, cell_fault, csv_rows, finite, integer, parser, read_row
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
    from its header.  Each row goes through ``data.read_row`` under the
    file's column table (``_columns``): a malformed row, a confidence
    outside [0, 1] in any ``conf_*`` column, or a ``trial_id`` other than
    ``<subject>:<trial>`` raises ValueError naming the file, line and
    column; a repeated ``trial_id`` names the file and both lines."""
    rows = csv_rows(path)
    _, header = next(rows, (0, None))
    if header is None:
        raise ValueError(f"{path}: empty records file")
    classes = _header_classes(header, path)
    scored, unscored = _columns(header, confidences=True), _columns(header, confidences=False)
    nc = len(classes)
    records, first_line = [], {}
    for line, row in rows:
        if not row:
            continue
        where = f"{path} line {line}"
        # the confidences are all given or all empty
        cells = read_row(row, scored if any(row[5:5 + nc]) else unscored, where)
        trial_id = f"{cells[1]}:{cells[2]}"
        if cells[0] != trial_id:
            raise cell_fault(where, "trial_id", f"expected {quoted(trial_id)} from columns "
                             f"'subject' and 'trial', got {quoted(row[0])}")
        if trial_id in first_line:
            raise ValueError(f"{where}: duplicate trial_id {quoted(trial_id)} "
                             f"(first on line {first_line[trial_id]})")
        first_line[trial_id] = line
        try:
            records.append(PredictionRecord(
                *cells[:5], confidences=None if cells[5] is None else tuple(cells[5:5 + nc]),
                true_score=cells[5 + nc], pred_score=cells[6 + nc]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return classes, records


def _columns(header, confidences):
    """The column table of a records file with this header; its ``conf_*``
    columns read as empty unless ``confidences``."""
    nc = len(header) - 7
    index = parser(int, (lambda v: 0 <= v < nc, f"a class index from 0 to {nc - 1}"))
    confidence = parser(float, (math.isfinite, "a finite number"),
                        (lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"))
    return (Column("trial_id"), Column("subject"), Column("trial", integer),
            Column("actual", index, None), Column("predicted", index, None),
            *(Column(name, confidence) if confidences else Column(name, str, None)
              for name in header[5:5 + nc]),
            Column("true_score", finite, None), Column("pred_score", finite, None))
