"""cams.csv: the joined writer's bytes and the reader's diagnostics."""

import csv
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from skillseq.explain import CamMap, read_cams_csv, write_cams_csv

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def per_row_csv(cams, path):
    """Oracle: one ``csv.writer.writerow`` per timestep."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trial_id", "class_index", "t", "raw", "intensity"])
        for cam in sorted(cams, key=lambda c: c.trial_id):
            for t in range(len(cam)):
                w.writerow([cam.trial_id, cam.class_index, t,
                            repr(float(cam.raw[t])), repr(float(cam.intensity[t]))])


trial_ids = st.text(st.sampled_from('S01:9 ,"x\r\n'), min_size=1, max_size=8)
# |raw| <= 1e300 keeps from_raw's max - min finite
finite = st.floats(-1e300, 1e300, allow_nan=False)


@st.composite
def cam_lists(draw):
    ids = draw(st.lists(trial_ids, min_size=1, max_size=5, unique=True))
    cams = []
    for tid in ids:
        raw = draw(st.lists(finite, min_size=1, max_size=30))
        cams.append(CamMap.from_raw(tid, draw(st.integers(0, 3)), raw))
    return cams


@settings(max_examples=150, deadline=None)
@given(cams=cam_lists())
def test_joined_writer_matches_one_writerow_per_timestep(cams, tmp_path_factory):
    root = tmp_path_factory.mktemp("cams")
    write_cams_csv(cams, root / "joined.csv")
    per_row_csv(cams, root / "rows.csv")
    assert (root / "joined.csv").read_bytes() == (root / "rows.csv").read_bytes()


def test_quoted_trial_ids_read_back(tmp_path):
    cams = [CamMap.from_raw(tid, 1, [0.5, -1.0, 2.0]) for tid in ('a,b', 'say "hi"', ' s ')]
    write_cams_csv(cams, tmp_path / "cams.csv")
    back = read_cams_csv(tmp_path / "cams.csv")
    assert sorted(back) == sorted(c.trial_id for c in cams)
    for cam in cams:
        assert back[cam.trial_id].raw.tobytes() == cam.raw.tobytes()


HEADER = "trial_id,class_index,t,raw,intensity\r\n"


@pytest.mark.parametrize("row, message", [
    ("S1:0,0,1,abc,0.5", " line 3, column 'raw': expected a number, got 'abc'"),
    ("S1:0,0,1,0.5", " line 3: expected 5 fields, got 4"),
    ("S1:0,0,1.0,0.5,0.5", " line 3, column 't': expected an integer, got '1.0'"),
    ("S1:0,x,1,0.5,0.5", " line 3, column 'class_index': expected an integer, got 'x'"),
    ("S1:0,0,1,0.5,nope", " line 3, column 'intensity': expected a number, got 'nope'"),
    ("S1:0,0,1,inf,0.5", ": S1:0: non-finite activation map (line 3)"),
    pytest.param("S1:0,0,1," + "a" * 100_000 + ",0.5",
                 f" line 3, column 'raw': expected a number, got {'a' * 40!r}... "
                 "(100,000 characters)", id="long-cell"),
    pytest.param("S1:0,0,1," + "1" * (csv.field_size_limit() + 1) + ",0.5",
                 f" line 3: field larger than field limit ({csv.field_size_limit()})",
                 id="oversized-field"),
])
def test_bad_cams_csv_names_path_and_line(tmp_path, row, message):
    path = tmp_path / "cams.csv"
    path.write_text(HEADER + "S1:0,0,0,0.0,0.0\r\n" + row + "\r\n", newline="")
    with pytest.raises(ValueError, match=re.escape(f"{path}{message}") + "$"):
        read_cams_csv(path)


@pytest.mark.parametrize("rows, message", [
    (["S1:0,0,1,0.5,0.5", "S1:0,0,3,0.5,0.5"], "S1:0 has non-contiguous timesteps (line 4)"),
    (["S1:0,0,1,0.5,0.5", "S1:0,0,1,0.5,0.5"], "S1:0 has non-contiguous timesteps (line 4)"),
    (["S1:0,0,1,0.5,0.5", "S1:0,1,2,0.5,0.5"], "S1:0 mixes class indices (line 4)"),
    (["S1:0,0,1,0.5,0.5", "S1:0,0,2,0.5,nan"], "S1:0: non-finite activation map (line 4)"),
    (["S1:0,0,1,0.5,0.5", "S1:0,0,2,0.5,1.5"],
     "S1:0: intensities must lie in [0, 1] (line 4)"),
    (["S1:0,0,2,0.5,-0.5", "S1:0,0,1,0.5,0.5"],
     "S1:0: intensities must lie in [0, 1] (line 3)"),
], ids=["gap", "repeat", "mixed-classes", "non-finite", "intensity-above-one",
        "intensity-below-zero-out-of-order"])
def test_a_map_breaking_a_rule_across_rows_names_its_first_bad_row(tmp_path, rows, message):
    path = tmp_path / "cams.csv"
    path.write_text(HEADER + "S1:0,0,0,0.0,0.0\r\n" + "".join(r + "\r\n" for r in rows),
                    newline="")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}") + "$"):
        read_cams_csv(path)


LONG_HEADER = "trial_id,class_index,t,raw," + "a" * 100_000


@pytest.mark.parametrize("header, echo", [
    ("", "''"),
    ("trial_id,class_index,t,raw", "'trial_id,class_index,t,raw'"),
    pytest.param(LONG_HEADER, f"{LONG_HEADER[:40]!r}... (100,027 characters)", id="long-header"),
])
def test_bad_cams_csv_header_is_echoed_bounded(tmp_path, header, echo):
    path = tmp_path / "cams.csv"
    path.write_text(header + "\r\n" if header else "", newline="")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: unrecognized activation-map header {echo}") + "$"):
        read_cams_csv(path)


C_LOCALE_ROUND_TRIP = r"""
import sys
from skillseq.explain import CamMap, read_cams_csv, write_cams_csv

path = sys.argv[1]
write_cams_csv([CamMap.from_raw("S\u00e9:1", 0, [0.5, -1.0, 2.0])], path)
back = read_cams_csv(path)
print(ascii(sorted(back)), back["S\u00e9:1"].raw.tolist())
"""


def test_non_ascii_trial_id_round_trips_under_the_c_locale(tmp_path):
    """cams.csv is UTF-8 whatever the locale's encoding is."""
    env = dict(os.environ, PYTHONPATH=SRC, LC_ALL="C", PYTHONUTF8="0")
    path = tmp_path / "cams.csv"
    proc = subprocess.run([sys.executable, "-c", C_LOCALE_ROUND_TRIP, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['S\\xe9:1'] [0.5, -1.0, 2.0]"
    assert path.read_bytes().splitlines()[1] == b"S\xc3\xa9:1,0,0,0.5,0.5"
