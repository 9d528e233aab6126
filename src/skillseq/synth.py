"""Synthetic tool-motion trials for a circular cutting exercise.

Two tools (scissors, grasper) move over a 640x480 px field.  The
scissors trace a circular cut with an approach and retreat; the grasper
repositions between hold points.  Competent executions are short and
smooth; poor executions are long, tremulous, and include stalls, though
a minority fail only mildly (sustained low-amplitude tremor).  Around
a third of trials in BOTH regimes contain a short "distractor" burst of
fail-scale tremor whose localized roughness pushes otherwise clean
trials toward the decision boundary.

Subjects carry persistent bias (speed, tremor scale, field offset), so
generalizing to an unseen subject is strictly harder than to unseen
trials of known subjects.

The outcome score is a deterministic function of the emitted trajectory
(duration and median second-difference roughness of the scissors path).
The pass/fail label is ``score >= CLASS_THRESHOLD``; regime parameters
keep the two score ranges disjoint, so regime counts and label counts
agree exactly.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import SynthSpec
from .data import Trial, RAW, write_trial_csv, write_manifest
from .seeding import make_rng, PURPOSE

__all__ = ["SynthSpec", "CLASS_THRESHOLD", "synth_subjects", "score_trajectory", "write_synth_dataset"]

CLASS_THRESHOLD = 145.0

CHANNELS = ("sx", "sy", "gx", "gy")

_FIELD_W, _FIELD_H = 640.0, 480.0
_CORNERS = ((60.0, 60.0), (580.0, 60.0), (60.0, 420.0), (580.0, 420.0))

# score = _SCORE_BASE - _TIME_W * duration_s - _ROUGH_W * trimmed median roughness
_SCORE_BASE = 240.0
_TIME_W = 0.45
_ROUGH_W = 2.2
_ROUGH_CAP = 60.0
_TRIM_FRACTION = 0.1


def score_trajectory(values, sample_rate_hz):
    """Deterministic outcome score of a complete (gap-free) trajectory.

    Duration is frames/rate.  Roughness is the median capped Euclidean
    norm of the scissors path's second difference, measured away from the
    approach/retreat ends (middle 80 percent of frames).  The median
    makes the score reflect sustained technique: transport spikes and
    brief distractor bursts do not move it, while regime-wide tremor
    does.
    """
    vals = np.asarray(values, dtype=np.float64)
    T = vals.shape[0]
    dur_s = T / sample_rate_hz
    skip = int(math.floor(_TRIM_FRACTION * T))
    mid = vals[skip:T - skip, 0:2]
    if mid.shape[0] >= 3:
        d2 = np.diff(mid, n=2, axis=0)
        r = np.sort(np.minimum(np.linalg.norm(d2, axis=1), _ROUGH_CAP))
        h = len(r) // 2
        # np.median written out, since it loads numpy.ma: the middle value
        # or the mean of the middle two; a NaN sorts last and is the median
        if np.isnan(r[-1]):
            rough = float(r[-1])
        else:
            rough = float(r[h] if len(r) % 2 else (r[h - 1] + r[h]) / 2)
    else:
        rough = 0.0
    return _SCORE_BASE - _TIME_W * dur_s - _ROUGH_W * rough


@dataclass(frozen=True)
class _SubjectBias:
    speed_mult: float
    jitter_mult: float
    dx: float
    dy: float
    radius_mult: float
    corner: tuple


def _subject_bias(spec, subj_idx):
    rng = make_rng(spec.seed, PURPOSE["synth"], subj_idx)
    b = spec.subject_bias
    return _SubjectBias(
        speed_mult=1.0 + b * rng.uniform(-0.10, 0.15),
        jitter_mult=1.0 + b * rng.uniform(-0.15, 0.25),
        dx=b * rng.uniform(-30.0, 30.0),
        dy=b * rng.uniform(-25.0, 25.0),
        radius_mult=1.0 + b * rng.uniform(-0.08, 0.08),
        corner=_CORNERS[int(rng.integers(0, 4))],
    )


@functools.lru_cache(maxsize=256)
def _smoothstep(n):
    """The ``n``-point 0-to-1 ease ramp, shared and read-only: a run asks
    for a few dozen lengths thousands of times (141 at 10 Hz)."""
    u = np.linspace(0.0, 1.0, n)
    ramp = u * u * (3.0 - 2.0 * u)
    ramp.flags.writeable = False
    return ramp


def _segment(p0, p1, n):
    s = _smoothstep(n)[:, None]
    return np.asarray(p0) + s * (np.asarray(p1) - np.asarray(p0))


def _trial_values(rng, regime, subj, spec):
    """Emit the complete (T, 4) trajectory for one trial."""
    # distractor trials fold a slice of the fail signature (tremor burst,
    # brief stalls, busy grasper) into an otherwise normal execution;
    # mild fails show sustained but low-amplitude tremor instead of the
    # full fail signature
    distract = rng.random() < spec.distractor_prob
    mild = rng.random() < 0.25 and regime == "fail"

    if regime == "pass":
        lo, hi = spec.pass_duration
    elif mild:
        lo, hi = 190.0, 210.0
    else:
        lo, hi = spec.fail_duration
    dur = rng.uniform(lo, hi) / subj.speed_mult
    T = max(16, int(round(dur * spec.sample_rate_hz)))

    n_app = max(5, int(round(0.11 * T)))
    n_ret = max(4, int(round(0.08 * T)))
    n_task = T - n_app - n_ret

    cx, cy = 320.0 + subj.dx, 240.0 + subj.dy
    radius = 110.0 * subj.radius_mult
    angle0 = rng.uniform(0.0, 2.0 * math.pi)
    # long executions go around again instead of sweeping slower, so the
    # per-frame pace carries no duration information
    laps = max(1, int(round(n_task / rng.uniform(30.0, 50.0))))

    # angular progress: stalls freeze the sweep without shortening it
    w = np.ones(n_task)
    if regime == "fail":
        stalls = (int(rng.integers(2, 5)), rng.uniform(0.15, 0.30))
    elif distract:
        stalls = (int(rng.integers(1, 3)), rng.uniform(0.10, 0.20))
    else:
        stalls = None
    if stalls is not None:
        n_stall, frac = stalls
        total = int(round(frac * n_task))
        lengths = np.maximum(1, rng.multinomial(total, np.full(n_stall, 1.0 / n_stall)))
        for ln in lengths:
            start = int(rng.integers(0, max(1, n_task - ln)))
            w[start:start + ln] = 0.0
    theta = angle0 + 2.0 * math.pi * laps * np.concatenate(([0.0], np.cumsum(w)[:-1])) / max(w.sum(), 1.0)
    task = np.stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)], axis=1)

    approach = _segment(subj.corner, task[0], n_app)
    ret_target = task[-1] + 0.6 * (np.asarray(subj.corner) - task[-1])
    retreat = _segment(task[-1], ret_target, n_ret)
    scissors = np.vstack([approach, task, retreat])

    # grasper: hold points with occasional repositioning moves
    busy = regime == "fail" or distract
    n_moves = int(rng.integers(4, 8)) if busy else int(rng.integers(1, 3))
    grasper = np.empty((T, 2))
    pos = np.asarray(subj.corner) + rng.uniform(-20.0, 20.0, size=2)
    starts = np.arange(n_app, max(n_app + 1, T - n_ret - 5))
    move_starts = np.sort(rng.choice(starts, size=min(n_moves, len(starts)), replace=False))
    t = 0
    for ms in move_starts:
        ms = int(ms)
        grasper[t:ms] = pos
        target = np.array([cx, cy]) + rng.uniform(-180.0, 180.0, size=2)
        n_mv = min(max(3, int(round(0.05 * T))), T - ms)
        grasper[ms:ms + n_mv] = _segment(pos, target, n_mv)
        pos = target
        t = ms + n_mv
    grasper[t:] = pos

    # tremor: the regime's jitter scale, damped while stalled
    if regime == "pass":
        j = spec.pass_jitter
    elif mild:
        j = rng.uniform(8.0, 10.0)
    else:
        j = spec.fail_jitter
    j *= subj.jitter_mult
    damp = np.ones(T)
    damp[n_app:n_app + n_task] = np.where(w > 0.0, 1.0, 0.35)
    scissors += rng.normal(0.0, 1.0, size=(T, 2)) * (j * damp)[:, None]
    grasper += rng.normal(0.0, 1.0, size=(T, 2)) * (0.6 * j * damp)[:, None]

    # distractor burst of fail-scale tremor over a contiguous window
    if distract:
        wlen = max(4, min(int(round(rng.uniform(0.18, 0.28) * T)), int(0.26 * T) - 4))
        start = n_app + int(rng.integers(0, max(1, n_task - wlen)))
        sigma = rng.uniform(12.0, 20.0) * subj.jitter_mult
        scissors[start:start + wlen] += rng.normal(0.0, sigma, size=(wlen, 2))

    vals = np.hstack([scissors, grasper])
    vals[:, 0::2] = np.clip(vals[:, 0::2], 0.0, _FIELD_W)
    vals[:, 1::2] = np.clip(vals[:, 1::2], 0.0, _FIELD_H)
    return vals


def _mask_missing(rng, vals, fraction):
    if fraction <= 0.0:
        return vals
    T = vals.shape[0]
    out = vals.copy()
    for tool_col in (0, 2):
        mask = rng.random(T) < fraction
        if mask.all():
            continue  # never blank an entire channel
        out[mask, tool_col:tool_col + 2] = np.nan
    return out


def synth_subjects(spec):
    """Yield each subject's RAW trials, one list per subject, in order;
    byte-identical per seed.

    Regime counts are exact: round(pass_fraction * N) trials draw from
    the pass regime.  Every emitted label is recomputed from the
    trajectory score; at moderate subject_bias (<= 2) the regimes' score
    ranges stay disjoint around CLASS_THRESHOLD, so label counts equal
    regime counts.  Extreme bias values trade that guarantee for larger
    subject effects.
    """
    n_total = spec.n_subjects * spec.trials_per_subject
    n_pass = int(round(spec.pass_fraction * n_total))
    regimes = np.array(["pass"] * n_pass + ["fail"] * (n_total - n_pass))
    make_rng(spec.seed, PURPOSE["synth"], 999983).shuffle(regimes)

    for si in range(spec.n_subjects):
        subj = _subject_bias(spec, si)
        sid = f"S{si + 1:02d}"
        trials = []
        for ti in range(spec.trials_per_subject):
            regime = str(regimes[si * spec.trials_per_subject + ti])
            rng = make_rng(spec.seed, PURPOSE["synth"], si, ti)
            vals = _trial_values(rng, regime, subj, spec)
            score = score_trajectory(vals, spec.sample_rate_hz)
            label = "pass" if score >= CLASS_THRESHOLD else "fail"
            observed = _mask_missing(rng, vals, spec.missing_fraction)
            trials.append(Trial(
                subject_id=sid,
                trial_index=ti,
                sample_rate_hz=spec.sample_rate_hz,
                channels=CHANNELS,
                values=observed,
                score=score,
                class_label=label,
                stage=RAW,
            ))
        yield trials


def write_synth_dataset(spec, out_dir):
    """Generate and persist trials plus a manifest, one subject at a time,
    so one subject's trials set the memory use; returns the manifest path."""
    trial_dir = os.path.join(out_dir, "trials")
    os.makedirs(trial_dir, exist_ok=True)
    rows = []
    for trials in synth_subjects(spec):
        for t in trials:
            p = os.path.join(trial_dir, f"{t.subject_id}_{t.trial_index:03d}.csv")
            write_trial_csv(t, p)
            rows.append((p, t.subject_id, t.trial_index))
        trials.clear()      # else the loop holds them while the next subject is built
    manifest = os.path.join(out_dir, "manifest.csv")
    write_manifest(rows, manifest)
    return manifest
