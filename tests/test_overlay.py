"""Overlay SVGs: golden bytes from literal trials.

The three trials below are built from literal numbers with exactly
rounded arithmetic only (no BLAS, no transcendental functions), so their
SVG bytes are the same on every platform.  Together they cover NaN runs
(leading, interior, trailing), coordinates outside the 640x480 frame, a
map shorter than the trial, one to three tools, channel names that do
and do not name a tool, and intensities on exact rounding ties
``(k + 0.5) / 255`` for both the vertex colour and the strip grey.  A
fourth trial holds ``-0.0`` coordinates and coordinates on or next to a
hundredths tie (``x.xx5``), where ``"%.2f"`` rounds half to even or the
binary value lies just below or above the tie.
"""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_trial
from skillseq.explain import CamMap
from skillseq.overlay import (
    _GREY_TABLE,
    _RAMP_TABLES,
    RAMPS,
    _cam_indices,
    _fmt_column,
    _steps,
    render_cam_overlay,
)

# k where (k + 0.5) / 255 * 255 == k + 0.5 exactly: vertex colour ties
COLOUR_TIES = [(k + 0.5) / 255.0 for k in range(255)
               if (k + 0.5) / 255.0 * 255.0 == k + 0.5]
# v where (1 - v) * 255 lands exactly on m + 0.5: strip grey ties
GREY_TIES = [1.0 - (m + 0.5) / 255.0 for m in range(255)
             if (1.0 - (1.0 - (m + 0.5) / 255.0)) * 255.0 == m + 0.5]


def _intensities(n, offset):
    pool = [0.0, 1.0, -0.0, 0.5, 0.25] + COLOUR_TIES[offset::7] + GREY_TIES[offset::5]
    return np.array([pool[(i * 3 + offset) % len(pool)] for i in range(n)])


def _cam(trial_id, n, offset, class_index=1):
    inten = _intensities(n, offset)
    return CamMap(trial_id=trial_id, class_index=class_index, raw=inten * 3.0 - 1.0,
                  intensity=inten)


def _trial_with_gaps():
    """Two tools, 40 frames, NaN runs at the start, inside and at the end."""
    n = 40
    i = np.arange(n, dtype=np.float64)
    values = np.stack([
        13.37 * i + 0.005,
        479.995 - 11.125 * i,
        320.0 + 0.125 * i,
        (i * 12.0) + 0.0049,
    ], axis=1)
    values[:3, 0] = np.nan
    values[10:14, 0] = np.nan
    values[37:, 0] = np.nan
    values[20, 3] = np.nan
    values[25:27, 1] = np.nan
    return make_trial(values, subject="S1", index=0, rate=10.0,
                      channels=("a_x", "a_y", "b_x", "b_y"))


def _trial_out_of_frame():
    """One unnamed tool, 25 frames, coordinates beyond every frame edge."""
    n = 25
    i = np.arange(n, dtype=np.float64)
    values = np.stack([30.5 * i - 40.0, 500.25 - 21.5 * i], axis=1)
    values[3, 0] = -0.0001
    values[4, 0] = 640.004
    return make_trial(values, subject="S2", index=7, rate=10.0, channels=("x", "y"))


def _trial_three_tools():
    """Three tools (one unnamed), 30 frames, a leading NaN run."""
    n = 30
    i = np.arange(n, dtype=np.float64)
    values = np.stack([
        5.0 + 20.75 * i, 7.5 + 15.0 * i,
        600.0 - 19.0 * i, 0.01 * i,
        1.115 * i, 2.225 * i,
    ], axis=1)
    values[:4, 5] = np.nan
    return make_trial(values, subject="S3", index=12, rate=30.0,
                      channels=("left_x", "left_y", "rightx", "righty", "p", "q"))


# x.xx5 coordinates: exact ties (odd multiples of 1/8) and decimal ones whose
# binary value lies just below or above the tie
HUNDREDTHS_TIES = [0.125, 0.375, 0.625, 0.875, 3.375, 100.125, 479.875, 639.875,
                   1.005, 2.675, 0.145, 10.005, 0.285, 1.115, 0.015, 479.995, 639.995]


def _trial_signed_zero_and_ties():
    """Two tools, 24 frames: -0.0, 5e-324, the frame edges and x.xx5 values."""
    edges = [-0.0, 0.0, 5e-324, 0.005, 0.01, 0.1, 123.456]
    x = np.array(HUNDREDTHS_TIES + edges)
    y = np.minimum(x[::-1], 480.0)
    values = np.stack([x, y, np.roll(x, 5), np.roll(y, 11)], axis=1)
    values[7, 1] = values[0, 3] = -0.0
    return make_trial(values, subject="S4", index=2, rate=10.0,
                      channels=("tip_x", "tip_y", "hook_x", "hook_y"))


GOLDEN_SVG = {
    "gaps": "5e0318ccc0de392d369e37dd3a3aa6dd0db44c8d1db81008abecd705150d8108",
    "out_of_frame": "e980de572a0c8c41f9ce257bfb8a8eebf5fde33848df178556dc40566dd03d66",
    "three_tools": "db8fe0b660b4bbd750a5c59fa11dd1403048f224ba3215ef9ebe614172d56ea3",
    "signed_zero_and_ties": "cb9d31a93d9ecba91b26ad6afb99aae6ef3bfadd0af71184cb60698140727c4c",
}


def _render(tmp_path, name, trial, cam_len, offset):
    path = tmp_path / f"{name}.svg"
    render_cam_overlay(trial, _cam(trial.trial_id, cam_len, offset), str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_tie_intensities_exist():
    assert len(COLOUR_TIES) > 20 and len(GREY_TIES) > 20


def test_overlay_with_gap_runs_is_byte_identical(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        digest = _render(tmp_path, "gaps", _trial_with_gaps(), 40, 0)
    assert digest == GOLDEN_SVG["gaps"]


def test_overlay_out_of_frame_warns_and_is_byte_identical(tmp_path):
    with pytest.warns(UserWarning, match=r"trial S2:7: clamped 8 coordinate\(s\) "
                                         r"outside the 640x480 frame"):
        digest = _render(tmp_path, "out_of_frame", _trial_out_of_frame(), 7, 1)
    assert digest == GOLDEN_SVG["out_of_frame"]


def test_overlay_three_tools_short_map_is_byte_identical(tmp_path):
    digest = _render(tmp_path, "three_tools", _trial_three_tools(), 11, 2)
    assert digest == GOLDEN_SVG["three_tools"]


def test_overlay_signed_zero_and_ties_is_byte_identical(tmp_path):
    # a 1,024-entry map puts the strip cells at i * 0.625: a tie at every odd i
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        digest = _render(tmp_path, "signed_zero_and_ties", _trial_signed_zero_and_ties(),
                         1024, 3)
    assert digest == GOLDEN_SVG["signed_zero_and_ties"]


# --- tables and indices against the per-vertex formulas ---


def vertex_colour(tool_index, intensity):
    """Oracle: one vertex's ramp colour, computed from its intensity."""
    lo, hi = RAMPS[tool_index % len(RAMPS)]
    q = int(round(float(np.clip(intensity, 0.0, 1.0)) * 255.0))
    rgb = [int(round(a + (b - a) * q / 255.0)) for a, b in zip(lo, hi)]
    return "#%02x%02x%02x" % tuple(rgb)


def strip_grey(intensity):
    """Oracle: one strip cell's grey."""
    grey = int(round((1.0 - float(np.clip(intensity, 0.0, 1.0))) * 255.0))
    return "#%02x%02x%02x" % (grey, grey, grey)


def cam_index(frame, n_frames, cam_len):
    """Oracle: the map entry that shades one raw frame."""
    return min(int(frame * cam_len / n_frames), cam_len - 1)


def test_tables_match_the_formulas_at_every_step():
    for k in range(len(RAMPS) + 1):
        for q in range(256):
            v = q / 255.0
            assert _RAMP_TABLES[k % len(RAMPS)][q] == vertex_colour(k, v)
    for g in range(256):
        assert _GREY_TABLE[g] == "#%02x%02x%02x" % (g, g, g)


intensities = st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(COLOUR_TIES + GREY_TIES)),
                       min_size=1, max_size=60)


@settings(max_examples=300, deadline=None)
@given(v=intensities, tool=st.integers(0, 7))
def test_tables_match_the_formulas_at_random_intensities(v, tool):
    v = np.array(v)
    clipped = np.clip(v, 0.0, 1.0)
    assert (_RAMP_TABLES[tool % len(RAMPS)][_steps(clipped)].tolist()
            == [vertex_colour(tool, x) for x in v])
    assert _GREY_TABLE[_steps(1.0 - clipped)].tolist() == [strip_grey(x) for x in v]


@settings(max_examples=200, deadline=None)
@given(n_frames=st.integers(1, 3000), cam_len=st.integers(1, 3000))
def test_cam_indices_match_the_per_frame_formula(n_frames, cam_len):
    assert (_cam_indices(n_frames, cam_len).tolist()
            == [cam_index(i, n_frames, cam_len) for i in range(n_frames)])


# --- coordinate text from integer hundredths against "%.2f" ---


def coordinate_text(v):
    """Oracle: one coordinate as the overlay writes it."""
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _assert_column_matches(v):
    v = np.asarray(v, dtype=np.float64)
    assert _fmt_column(v) == [coordinate_text(x) for x in v.tolist()]


def test_column_text_at_the_edges():
    _assert_column_matches([-0.0, 0.0, 640.0, 5e-324, -5e-324, 640.004, 1e300, 0.005, 0.5])


def test_column_text_at_every_hundredths_tie_and_its_neighbours():
    ties = (np.arange(64000) + 0.5) / 100.0
    _assert_column_matches(np.concatenate([ties, np.nextafter(ties, 0.0),
                                           np.nextafter(ties, 1000.0)]))


def test_column_text_next_to_the_ties_band():
    # values whose x100 lands within, on or just outside 1e-9 of a half
    halves = np.arange(0, 64000, 7) + 0.5
    offsets = np.array([-2e-9, -1e-9, -9e-10, -1e-10, 1e-10, 9e-10, 1e-9, 2e-9])
    _assert_column_matches(((halves[:, None] + offsets) / 100.0).ravel())


@settings(max_examples=300, deadline=None)
@given(v=st.lists(st.floats(0.0, 640.0), min_size=1, max_size=60))
def test_column_text_matches_the_formula_at_random_coordinates(v):
    _assert_column_matches(v)
