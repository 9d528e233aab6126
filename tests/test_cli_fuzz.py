"""Mutated input files through ``dispatch``.

Each example takes a valid records CSV, trial CSV, manifest, or a
finished run's ``run.cfg`` or ``folds.txt``, drops or duplicates a cell
or a row, truncates the file, replaces a cell with a bad value or with
one longer than ``csv.field_size_limit()``, or (in a manifest) a trial
path with one to a missing file, then runs the subcommand that reads it.
Whatever the mutation, the exit code is 0, 1 or 2, no exception escapes
``dispatch``, and every failure's last line of output names the mutated
file.
"""

import contextlib
import csv
import io
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from skillseq.cli import dispatch

BAD_CELLS = ("", "nan", "inf", "abc", "-1")

RECORDS = ("trial_id,subject,trial,actual,predicted,conf_pass,conf_fail,true_score,pred_score\n"
           "S1:0,S1,0,0,0,0.25,0.75,,\nS1:1,S1,1,1,0,0.375,0.625,,\n"
           "S1:2,S1,2,0,1,0.5,0.5,,\nS1:3,S1,3,1,1,0.625,0.375,,\n"
           "S1:4,S1,4,0,0,0.75,0.25,,\nS1:5,S1,5,1,0,0.875,0.125,,\n")

TRIAL = ("# subject=S1\n# trial=0\n# rate_hz=2\n# score=NA\n# class=pass\n"
         "t,x,y\n0,0.1,0.2\n1,,0.3\n2,0.4,0.5\n3,0.6,\n4,0.7,0.8\n")

MANIFEST = "path,subject,trial\ntrial0.csv,S1,0\ntrial1.csv,S1,1\ntrial2.csv,S1,2\n"


@st.composite
def mutations(draw, text, missing_path=None):
    """``text`` with one mutation; ``missing_path`` also allows pointing a
    row's first cell at that (absent) file."""
    lines = text.split("\n")
    kinds = ["drop-row", "dup-row", "drop-cell", "dup-cell", "replace-cell", "oversized-cell",
             "truncate"]
    if missing_path is not None:
        kinds.append("missing-file")
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    r = draw(st.integers(0, len(lines) - 1))
    if kind == "missing-file":
        lines[r] = ",".join([missing_path] + lines[r].split(",")[1:])
    elif kind == "drop-row":
        del lines[r]
    elif kind == "dup-row":
        lines.insert(r, lines[r])
    else:
        cells = lines[r].split(",")
        c = draw(st.integers(0, len(cells) - 1))
        if kind == "drop-cell":
            del cells[c]
        elif kind == "dup-cell":
            cells.insert(c, cells[c])
        elif kind == "oversized-cell":
            cells[c] = "1" * (csv.field_size_limit() + 1)
        else:
            cells[c] = draw(st.sampled_from(BAD_CELLS))
        lines[r] = ",".join(cells)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv, mutated):
    """``dispatch(argv)``, checking the exit code and the failure message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = dispatch([str(a) for a in argv])
    assert rc in (0, 1, 2)
    if rc != 0:
        assert str(mutated) in err.getvalue().strip().splitlines()[-1], err.getvalue()


def test_mutated_records_csv_fails_cleanly_under_trust(workdir):
    records = workdir / "records.csv"

    @settings(max_examples=150, deadline=None)
    @given(text=mutations(RECORDS))
    def check(text):
        records.write_text(text)
        run(["trust", "--records", records, "--out", workdir / "trust"], records)

    check()


def test_mutated_trial_csv_fails_cleanly_under_ingest_check(workdir):
    trial = workdir / "trial.csv"
    manifest = workdir / "manifest.csv"
    manifest.write_text("path,subject,trial\ntrial.csv,S1,0\n")

    @settings(max_examples=150, deadline=None)
    @given(text=mutations(TRIAL))
    def check(text):
        trial.write_text(text)
        run(["ingest-check", "--manifest", manifest], trial)

    check()


def test_mutated_manifest_fails_cleanly_under_ingest_check(workdir):
    root = workdir / "manifest"
    root.mkdir()
    for i in range(3):
        (root / f"trial{i}.csv").write_text(TRIAL.replace("# trial=0", f"# trial={i}"))
    manifest = root / "manifest.csv"

    @settings(max_examples=150, deadline=None)
    @given(text=mutations(MANIFEST, missing_path="no_such_trial.csv"))
    def check(text):
        manifest.write_text(text)
        run(["ingest-check", "--manifest", manifest], manifest)

    check()


@pytest.fixture(scope="module")
def finished_run(workdir):
    """A tiny finished classification run: 12 trials, three folds, one
    epoch per stage and two channels per layer."""
    data, run_dir = workdir / "run_data", workdir / "run"
    assert dispatch(["synth", "--out", str(data), "--seed", "11", "--n-subjects", "3",
                     "--trials-per-subject", "4", "--pass-fraction", "0.5"]) == 0
    assert dispatch(["evaluate", "--manifest", str(data / "manifest.csv"), "--out", str(run_dir),
                     "--scheme", "stratified3", "--dae-max-epochs", "1", "--clf-max-epochs", "1",
                     "--arch-enc-width", "2", "--arch-emb-channels", "2",
                     "--arch-clf-width", "2"]) == 0
    return run_dir


@pytest.mark.parametrize("name", ["run.cfg", "folds.txt", "fold_0/cams.csv",
                                  "fold_0/predictions.csv"])
def test_mutated_run_file_fails_cleanly_under_validate_cam(workdir, finished_run, name):
    run_dir = workdir / f"run_{name.replace('/', '_')}"
    shutil.copytree(finished_run, run_dir)
    path = run_dir / name
    text = path.read_text(encoding="utf-8")

    @settings(max_examples=150, deadline=None)
    @given(mutated=mutations(text))
    def check(mutated):
        path.write_text(mutated, encoding="utf-8")
        run(["validate-cam", "--run", run_dir, "--out", workdir / "study"], path)

    check()
