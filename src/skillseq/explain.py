"""Per-timestep activation maps and the masking they drive.

A map scores each timestep's contribution to one output unit: the
pre-pooling feature row dotted with that unit's dense weights.  Scores
are rescaled per trial to [0, 1] intensities; a trial with a constant
score profile carries no contrast and gets a neutral all-ones mask.

Maps are computed from downsampled trials, which the model normalizes
itself (``model.normalize_for_model``, the one place a bundle's min-max
statistics are applied), so a map has one entry per downsampled frame.
Masking multiplies a downsampled trial's channel values by the
intensities, timestep by timestep, so low-relevance segments are
attenuated before normalization ever sees them.

``predict_with_cams`` predicts and explains many trials from one packed
forward (``model.predict_many``); ``compute_cam`` is that batch path on
one trial.  A trial's map does not depend on its batch: a packed forward
runs every BLAS call and reduction per trial on the operands of a
one-trial forward, and each map's ``pre_gap @ w[:, c]`` runs per trial.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, csv_rows, read_text
from .model import predict_many
from .reports import quoted

__all__ = [
    "CamMap",
    "compute_cam",
    "predict_with_cams",
    "mask_trial",
    "mask_with_cams",
    "write_cams_csv",
    "read_cams_csv",
]


@dataclass(frozen=True)
class CamMap:
    """Relevance-over-time for one trial and one output unit."""

    trial_id: str
    class_index: int
    raw: np.ndarray
    intensity: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.raw, dtype=np.float64)
        inten = np.asarray(self.intensity, dtype=np.float64)
        if raw.ndim != 1 or raw.shape != inten.shape:
            raise ValueError("raw and intensity must be equal-length 1-D arrays")
        if raw.size == 0:
            raise ValueError("empty activation map")
        if not (np.isfinite(raw).all() and np.isfinite(inten).all()):
            raise ValueError(f"{self.trial_id}: non-finite activation map")
        if inten.min() < 0.0 or inten.max() > 1.0:
            raise ValueError(f"{self.trial_id}: intensities must lie in [0, 1]")
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "intensity", inten)

    def __len__(self):
        return self.raw.size

    @staticmethod
    def from_raw(trial_id, class_index, raw):
        raw = np.asarray(raw, dtype=np.float64)
        lo, hi = float(raw.min()), float(raw.max())
        if hi > lo:
            intensity = (raw - lo) / (hi - lo)
        else:
            intensity = np.ones_like(raw)
        return CamMap(trial_id=trial_id, class_index=int(class_index),
                      raw=raw, intensity=intensity)


def compute_cam(bundle, trial, target_class=None):
    """Activation map of a downsampled trial for one output unit.

    The map has one entry per timestep, so it also masks that trial.
    ``target_class`` defaults to the predicted class (regression models
    have a single unit, index 0).
    """
    return predict_with_cams(bundle, [trial], [target_class])[1][0]


def predict_with_cams(bundle, trials, target_classes=None):
    """Prediction records and activation maps of many downsampled trials,
    from one packed forward: ``(records, cams)``.

    ``target_classes[i]`` is trial i's output unit; None (or no list)
    takes the predicted class, as in ``compute_cam``.
    """
    records, pre_gaps = predict_many(bundle, trials, capture=True)
    if target_classes is None:
        target_classes = [None] * len(trials)
    w = bundle.head_kernel
    cams = []
    for rec, pre_gap, target in zip(records, pre_gaps, target_classes):
        if target is None:
            target = rec.predicted if bundle.mode == "classification" else 0
        cams.append(CamMap.from_raw(rec.trial_id, target, pre_gap @ w[:, target]))
    return records, cams


def mask_trial(trial, cam):
    """Attenuate a downsampled trial by its map's intensities, one per frame."""
    return replace(trial, values=trial.values * cam.intensity[:, None])


def mask_with_cams(dataset, cams):
    """Masked copy of a dataset; every trial needs a map in ``cams``."""
    missing = [t.trial_id for t in dataset.trials if t.trial_id not in cams]
    if missing:
        raise ValueError(f"no activation map for {len(missing)} trials, e.g. {missing[0]}")
    return Dataset([mask_trial(t, cams[t.trial_id]) for t in dataset.trials])


def write_cams_csv(cams, path):
    """Persist maps one row per timestep, sorted by trial then time.

    The file is UTF-8 ``csv.writer`` output (``\\r\\n`` rows, the trial id
    quoted where it needs it); each map goes out in one write, its
    ``trial_id,class_index`` prefix formatted once.
    """
    by_id = sorted(cams, key=lambda c: c.trial_id)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["trial_id", "class_index", "t", "raw", "intensity"])
        for cam in by_id:
            buf = io.StringIO()
            csv.writer(buf).writerow([cam.trial_id, cam.class_index])
            head = buf.getvalue()[:-2]   # without the row terminator
            fh.write("".join([f"{head},{t},{raw!r},{inten!r}\r\n" for t, (raw, inten)
                              in enumerate(zip(cam.raw.tolist(), cam.intensity.tolist()))]))


def read_cams_csv(path):
    """Inverse of write_cams_csv: mapping trial_id -> CamMap."""
    rows = {}
    r = csv.reader(io.StringIO(read_text(path), newline=""))
    lines = csv_rows(r, path)
    header = next(lines, None)
    if header != ["trial_id", "class_index", "t", "raw", "intensity"]:
        raise ValueError(f"{path}: unrecognized activation-map header "
                         f"{quoted(','.join(header or []))}")
    for row in lines:
        try:
            tid, ci, t, raw, inten = row
            entry = (int(t), int(ci), float(raw), float(inten))
        except ValueError:
            raise ValueError(f"{path} line {r.line_num}{_bad_cam_row(row)}") from None
        rows.setdefault(tid, []).append(entry)
    cams = {}
    for tid, entries in rows.items():
        entries.sort()
        ts = [e[0] for e in entries]
        if ts != list(range(len(ts))):
            raise ValueError(f"{path}: {tid} has non-contiguous timesteps")
        classes = {e[1] for e in entries}
        if len(classes) != 1:
            raise ValueError(f"{path}: {tid} mixes class indices")
        try:
            cams[tid] = CamMap(
                trial_id=tid,
                class_index=entries[0][1],
                raw=np.array([e[2] for e in entries]),
                intensity=np.array([e[3] for e in entries]),
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return cams


def _bad_cam_row(row):
    """What is wrong with a cams.csv row that failed to parse, as the tail
    of a ``<path> line <n>`` message."""
    if len(row) != 5:
        return f": expected 5 fields, got {len(row)}"
    for name, parse, cell in (("class_index", int, row[1]), ("t", int, row[2]),
                              ("raw", float, row[3]), ("intensity", float, row[4])):
        try:
            parse(cell)
        except ValueError:
            break
    kind = "an integer" if parse is int else "a number"
    return f", column '{name}': expected {kind}, got {quoted(cell)}"
