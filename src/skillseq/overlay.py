"""Trajectory heatmap figures: tool paths colored by activation intensity.

The figure is an SVG with a 640x480 trajectory canvas on top and a
horizontal intensity strip over time directly below it.  Channels are
consumed as consecutive (x, y) pairs, one pair per tool.  Each tool has
its own 256-step color ramp; a vertex at intensity v gets ramp color
``round(v * 255)``, interpolated linearly per RGB component between the
ramp's two documented endpoints.

Rendering is table-driven and takes one pass per column: every ramp's
256 colors (``_step_color`` of the integer step) and the strip's 256
greys are built once, at import; per-vertex steps, frame-to-map indices
and strip cells are computed as whole arrays (``np.rint`` rounds half to
even, as ``round`` does); and each
coordinate is formatted once, a column at a time, and shared by the
polyline and the vertex's circle.  The SVG bytes are those of the
per-vertex formulas.

Coordinates are written as ``"%.2f"`` with trailing zeros and the dot
stripped, but no float is formatted on the common path: for
``0 <= v <= 640``, ``p = v * 100.0`` lies within half an ulp of 64,000
(3.7e-12) of the exact ``100 * v``, so wherever ``|p - rint(p)|`` is
more than 1e-9 from 0.5, ``rint(p)`` is also the nearest integer to the
exact ``100 * v``, which is the correctly rounded hundredths that
``"%.2f"`` prints.  That integer ``h`` is written as the table entries
of ``h // 100`` (0..640) and ``h % 100`` (the stripped fraction).
Entries within 1e-9 of a half (exact ties included, which ``"%.2f"``
rounds to even), entries with the sign bit set (``-0.0`` prints ``-0``),
and entries above 640 are formatted as floats.
"""

from __future__ import annotations

import warnings

import numpy as np

from .data import RAW, fill_gaps

__all__ = ["render_cam_overlay", "tool_pairs", "RAMPS"]

CANVAS_W = 640.0
CANVAS_H = 480.0
STRIP_H = 30.0
STRIP_GAP = 20.0

# (low RGB, high RGB) endpoints; ramp k colors tool k.
RAMPS = (
    ((20, 44, 120), (245, 160, 30)),    # deep blue -> amber
    ((16, 96, 40), (230, 40, 160)),     # forest green -> magenta
    ((90, 90, 90), (250, 230, 40)),     # grey -> yellow
    ((70, 20, 110), (60, 220, 220)),    # violet -> cyan
)


def _step_color(lo, hi, q):
    rgb = [int(round(a + (b - a) * q / 255.0)) for a, b in zip(lo, hi)]
    return "#%02x%02x%02x" % tuple(rgb)


# color of step q on ramp k, and the strip's grey of level g
_RAMP_TABLES = tuple(np.array([_step_color(lo, hi, q) for q in range(256)], dtype=object)
                     for lo, hi in RAMPS)
_GREY_TABLE = np.array(["#%02x%02x%02x" % (g, g, g) for g in range(256)], dtype=object)


def _steps(v):
    """``round(v * 255)`` of every entry of ``v``, as table indices."""
    return np.rint(v * 255.0).astype(np.intp)


def _tool_name(x_name, y_name, index):
    for suffix in ("_x", "x"):
        if x_name.endswith(suffix):
            stem = x_name[: len(x_name) - len(suffix)]
            if y_name == stem + suffix.replace("x", "y"):
                return stem if stem else f"tool{index}"
    return f"tool{index}"


def tool_pairs(channels):
    """Group channel names into ((x_col, y_col, tool_name), ...)."""
    if len(channels) % 2 != 0:
        raise ValueError(
            f"need an even channel count to pair coordinates, got {len(channels)}"
        )
    pairs = []
    for k in range(0, len(channels), 2):
        pairs.append((k, k + 1, _tool_name(channels[k], channels[k + 1], k // 2)))
    return tuple(pairs)


def _cam_indices(n_frames, cam_len):
    """Map index of every raw frame: ``min(floor(i * cam_len / n_frames),
    cam_len - 1)``."""
    return np.minimum((np.arange(n_frames) * cam_len / n_frames).astype(np.intp),
                      cam_len - 1)


def _fmt(v):
    return f"{v:.2f}".rstrip("0").rstrip(".")


# _fmt's text of the whole part 0..640 and of the hundredths 0..99
_INT = np.array([str(i) for i in range(641)], dtype=object)
_FRAC = np.array([f"{f / 100:.2f}"[1:].rstrip("0").rstrip(".") for f in range(100)],
                 dtype=object)
_MAX_HUNDREDTHS = 100 * (len(_INT) - 1)


def _fmt_column(v):
    """``_fmt`` of every entry of the finite float64 array ``v``, as a list
    (see the module docstring)."""
    p = v * 100.0
    h = np.rint(p)
    rest = ~((np.abs(p - h) < 0.5 - 1e-9) & (h <= _MAX_HUNDREDTHS) & ~np.signbit(v))
    h[rest] = 0.0
    hi = h.astype(np.intp)
    out = _INT[hi // 100] + _FRAC[hi % 100]
    out[rest] = [_fmt(x) for x in v[rest].tolist()]
    return out.tolist()


def render_cam_overlay(trial_raw, cam, output_path):
    """Write an SVG overlay of ``trial_raw``'s tool paths shaded by the CamMap ``cam``.

    ``trial_raw`` supplies un-normalized coordinates in the original
    640x480 frame; values outside that frame are clamped to its edge and
    reported via a warning.  ``cam`` may be shorter than the raw trial
    (the usual case after downsampling); raw frame i reads intensity
    ``cam[floor(i * len(cam) / T_raw)]``.
    """
    if trial_raw.stage == RAW and np.isnan(trial_raw.values).any():
        trial_raw = fill_gaps(trial_raw)
    values = np.asarray(trial_raw.values, dtype=np.float64)
    n = values.shape[0]
    pairs = tool_pairs(trial_raw.channels)
    intensity = np.asarray(cam.intensity, dtype=np.float64)

    out_of_range = int(np.sum((values[:, [p[0] for p in pairs]] < 0)
                              | (values[:, [p[0] for p in pairs]] > CANVAS_W))
                       + np.sum((values[:, [p[1] for p in pairs]] < 0)
                                | (values[:, [p[1] for p in pairs]] > CANVAS_H)))
    if out_of_range:
        warnings.warn(
            f"trial {trial_raw.trial_id}: clamped {out_of_range} coordinate(s) "
            f"outside the 640x480 frame",
            stacklevel=2,
        )

    total_h = CANVAS_H + STRIP_GAP + STRIP_H
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(CANVAS_W)}" '
        f'height="{int(total_h)}" viewBox="0 0 {int(CANVAS_W)} {int(total_h)}">',
        f'<desc>trial={trial_raw.trial_id} class_index={cam.class_index}</desc>',
        f'<rect x="0" y="0" width="{int(CANVAS_W)}" height="{int(CANVAS_H)}" '
        'fill="white" stroke="#404040" stroke-width="1"/>',
    ]

    steps = _steps(np.clip(intensity, 0.0, 1.0))[_cam_indices(n, len(intensity))]
    for tool, (cx, cy, name) in enumerate(pairs):
        xs = _fmt_column(np.clip(values[:, cx], 0.0, CANVAS_W))
        ys = _fmt_column(np.clip(values[:, cy], 0.0, CANVAS_H))
        points = " ".join([f"{x},{y}" for x, y in zip(xs, ys)])
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#b0b0b0" '
            f'stroke-width="0.8"><title>{name}</title></polyline>'
        )
        colors = _RAMP_TABLES[tool % len(RAMPS)][steps].tolist()
        parts.extend([f'<circle cx="{x}" cy="{y}" r="2.2" fill="{c}"/>'
                      for x, y, c in zip(xs, ys, colors)])

    strip_y = CANVAS_H + STRIP_GAP
    seg_w = CANVAS_W / len(intensity)
    cell = f'y="{_fmt(strip_y)}" width="{_fmt(seg_w + 0.01)}" height="{_fmt(STRIP_H)}"'
    greys = _GREY_TABLE[_steps(1.0 - np.clip(intensity, 0.0, 1.0))].tolist()
    xs = _fmt_column(np.arange(len(intensity)) * seg_w)
    parts.extend([f'<rect x="{x}" {cell} fill="{g}"/>' for x, g in zip(xs, greys)])
    parts.append(
        f'<rect x="0" y="{_fmt(strip_y)}" width="{int(CANVAS_W)}" '
        f'height="{_fmt(STRIP_H)}" fill="none" stroke="#404040" stroke-width="1"/>'
    )
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    with open(output_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return output_path
