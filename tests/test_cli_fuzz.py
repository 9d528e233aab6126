"""Mutated input files through ``dispatch``.

Each example takes a valid records CSV, trial CSV, manifest, or a
finished run's ``run.cfg`` or ``folds.txt``, drops or duplicates a cell
or a row, truncates the file, replaces a cell with a bad value or with
one longer than ``csv.field_size_limit()``, or (in a manifest) a trial
path with one to a missing file, then runs the subcommand that reads it.
Whatever the mutation, the exit code is 0, 1 or 2, no exception escapes
``dispatch``, and every failure's last line of output names the mutated
file.

The table slice walks the column tables of the four CSV formats (trial,
manifest, records, ``cams.csv``): each column gets a bad cell in an
otherwise valid file, and the failure's last line names the file, the
line and the column.  Each header key of a trial file gets a bad value
the same way, and the failure names the file, the line and the key.

The flag slice gives each numeric flag (``--alpha``, ``--beta``,
``--jobs``, ``--configs``, ``--seed``, ``--target-hz``,
``--target-class``, ``--n-subjects``, ``--trials-per-subject``, and the
epoch and patience counts ``--dae-max-epochs``, ``--clf-max-epochs``,
``--dae-patience``, ``--clf-patience``) an empty, NaN, infinite,
overflowing, 400-digit and space-padded value: the run exits 0, or 2
naming the flag.  The counts that size a run (``--configs``,
``--n-subjects``, ``--trials-per-subject`` and the four epoch and
patience counts) are bounded above, so their 400-digit value exits 2,
and so does such a count in a config file, naming its line.

The bundle slice changes one field of a bundle's metadata, drops,
repeats or swaps a layer of a group (with its weights), sets one array
entry to NaN, an infinity or +-1e300, sets the first byte of an array
name to 0xff, or cuts the body short, writes the bundle with a valid
checksum, and runs ``predict`` and ``cam`` over a skill bundle or
``train-classifier --dae`` over an autoencoder bundle.  Besides the two
checks above, an exit 0 must come with finite outputs.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import struct
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skillseq import bundle as bundle_format, data, explain, records as records_format
from skillseq.bundle import load_bundle, save_bundle
from skillseq.cli import dispatch
from skillseq.data import read_row

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


# --- the column tables ---

# cells to try in each column; a column is walked with each cell that it
# refuses on its own (``read_row`` over that one cell)
CANDIDATE_CELLS = ("abc", "7", "inf", "")
# text columns refuse no cell on their own: a bad cell there disagrees with
# another column or with the trial file, and the message names both
TEXT_CELLS = {("records", "trial_id"): "S9:9", ("records", "subject"): "S9",
              ("manifest", "path"): "no_such_trial.csv", ("manifest", "subject"): "S9"}
# a cams.csv trial id is any text: a changed one moves its row to another
# map, which the contiguity check over all of a map's rows refuses
FREE_TEXT = {("cams", "trial_id")}


def refuses(column, cell):
    try:
        read_row([cell], (column,), "cell")
    except ValueError:
        return True
    return False


def walked_cells(fmt, columns, header):
    """``(column index, column name, bad cell)`` of every walked case."""
    assert [col.name for col in columns] == header
    for k, col in enumerate(columns):
        if (fmt, col.name) in TEXT_CELLS:
            yield k, col.name, TEXT_CELLS[fmt, col.name]
            continue
        cells = [cell for cell in CANDIDATE_CELLS if refuses(col, cell)]
        assert cells or (fmt, col.name) in FREE_TEXT, (fmt, col.name)
        yield from ((k, col.name, cell) for cell in cells)


def test_a_bad_cell_in_any_column_of_any_table_names_file_line_and_column(workdir,
                                                                          finished_run):
    """Each table's every column gets one bad cell in an otherwise valid
    file, read by the subcommand that reads that format."""
    root = workdir / "tables"
    root.mkdir()
    trial, manifest, records = root / "trial0.csv", root / "manifest.csv", root / "records.csv"
    trial.write_text(TRIAL)
    manifest.write_text("path,subject,trial\ntrial0.csv,S1,0\n")
    records.write_text(RECORDS)
    shutil.copytree(finished_run, workdir / "run_tables")
    cams = workdir / "run_tables" / "fold_0" / "cams.csv"
    ingest = ["ingest-check", "--manifest", manifest]
    formats = {  # format: (file, its table, header line, the line to spoil, argv)
        "trial": (trial, data._trial_columns(("x", "y")), 6, 8, ingest),
        "manifest": (manifest, data._MANIFEST_COLUMNS, 1, 2, ingest),
        "records": (records, records_format._columns(RECORDS.split("\n")[0].split(","), True),
                    1, 3, ["trust", "--records", records, "--out", workdir / "tables_trust"]),
        "cams": (cams, explain._CAM_COLUMNS, 1, 3,
                 ["validate-cam", "--run", workdir / "run_tables", "--out",
                  workdir / "tables_study"]),
    }
    walked, every = set(), set()
    for fmt, (path, columns, head, line, argv) in formats.items():
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        every.update((fmt, col.name) for col in columns)
        for k, name, cell in walked_cells(fmt, columns, lines[head - 1].split(",")):
            cells = lines[line - 1].split(",")
            cells[k] = cell
            path.write_text("\n".join(lines[:line - 1] + [",".join(cells)] + lines[line:]),
                            encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = dispatch([str(a) for a in argv])
            last = err.getvalue().strip().splitlines()[-1]
            assert rc == 1, (fmt, name, cell, last)
            assert last.startswith(f"error: runtime: {path} line {line}, column '"), (fmt, cell)
            assert f"'{name}'" in last, (fmt, name, cell, last)
            walked.add((fmt, name))
        path.write_text(text, encoding="utf-8")
    assert walked == every - FREE_TEXT


# a header value to try where no candidate cell is refused on its own
HEADER_TEXT = {"subject": "a = b"}


def test_a_bad_header_of_a_trial_file_names_file_line_and_key(workdir):
    """Each ``# key=value`` header of a trial file gets one bad value in an
    otherwise valid file, read by ``ingest-check``."""
    root = workdir / "headers"
    root.mkdir()
    trial, manifest = root / "trial0.csv", root / "manifest.csv"
    manifest.write_text("path,subject,trial\ntrial0.csv,S1,0\n")
    lines = TRIAL.split("\n")
    walked = set()
    for n, line in enumerate(lines[:5], start=1):
        key, _, _ = line[2:].partition("=")
        values = [v for v in CANDIDATE_CELLS if refuses(data.Column(key, data._HEADER[key]), v)]
        for value in values or [HEADER_TEXT[key]]:
            trial.write_text("\n".join(lines[:n - 1] + [f"# {key}={value}"] + lines[n:]))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = dispatch(["ingest-check", "--manifest", str(manifest)])
            last = err.getvalue().strip().splitlines()[-1]
            assert rc == 1, (key, value, last)
            assert last.startswith(f"error: runtime: {trial} line {n}: key '{key}': "), last
            walked.add(key)
    assert walked == set(data._HEADER)


# --- numeric flags ---

FLAG_VALUES = ("", "nan", "-inf", "1e400", "1" * 400, " 2 ")


def test_a_numeric_flag_parses_any_value_or_is_a_usage_error_naming_it(workdir, bundles):
    """Each numeric flag gets each value, joined to it with '=' so that a
    value starting with '-' reaches its parse.  The run exits 0, or 2
    naming the flag; an exit 0 leaves finite outputs.  A 400-digit count
    of checks, subjects, trials, epochs or patience is out of bounds."""
    records, trust_out = workdir / "flag_records.csv", workdir / "flag_trust"
    records.write_text(RECORDS)
    scoring = ["--bundle", bundles["classification"], "--manifest", bundles["manifest"]]
    tiny = {"--dae-max-epochs": "1", "--clf-max-epochs": "1", "--arch-enc-width": "2",
            "--arch-emb-channels": "2", "--arch-clf-width": "2"}

    def evaluate(flag):
        """A tiny evaluate run, without ``flag``'s value in ``tiny``."""
        return (["evaluate", "--manifest", bundles["manifest"], "--scheme", "stratified3",
                 *(a for key, value in tiny.items() if key != flag for a in (key, value))], [])

    predicted, cams = workdir / "flag_predict.csv", workdir / "flag_cams.csv"
    trust = (["trust", "--records", records, "--out", trust_out],
             [trust_out / "trust.txt", trust_out / "density_correct.csv"])
    commands = {  # flag: (argv without it, outputs)
        "--alpha": trust,
        "--beta": trust,
        **{flag: evaluate(flag) for flag in ("--jobs", "--dae-max-epochs", "--clf-max-epochs",
                                             "--dae-patience", "--clf-patience")},
        "--configs": (["gradcheck", "--seed", "0"], []),
        "--seed": (["gradcheck", "--configs", "1"], []),
        "--target-hz": (["predict", *scoring, "--out", predicted], [predicted]),
        "--target-class": (["cam", *scoring, "--out", cams], [cams]),
        "--n-subjects": (["synth", "--out", workdir / "flag_subjects",
                          "--trials-per-subject", "1"], []),
        "--trials-per-subject": (["synth", "--out", workdir / "flag_trials",
                                  "--n-subjects", "1"], []),
    }
    bounded = {"--configs", "--n-subjects", "--trials-per-subject", "--dae-max-epochs",
               "--clf-max-epochs", "--dae-patience", "--clf-patience"}
    for flag, (argv, outputs) in commands.items():
        for value in FLAG_VALUES:
            for path in outputs:
                path.unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = dispatch([str(a) for a in argv] + [f"{flag}={value}"])
            assert rc in (0, 2), (flag, value, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if rc == 2:
                assert flag in err.getvalue().strip().splitlines()[-1], (flag, value)
            else:
                assert_finite_outputs(outputs)
            if flag in bounded and value == "1" * 400:
                assert rc == 2, flag


@pytest.mark.parametrize("key", ["dae_max_epochs", "clf_max_epochs", "dae_patience",
                                 "clf_patience"])
def test_a_400_digit_count_in_a_config_file_names_its_line(workdir, bundles, key):
    """An epoch or patience count from a config file is bounded above as
    its flag is: exit 2, naming the file, the line and the key."""
    cfg = workdir / "counts.cfg"
    cfg.write_text(f"seed = 1\n{key} = {'1' * 400}\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = dispatch(["evaluate", "--manifest", str(bundles["manifest"]), "--config", str(cfg),
                       "--out", str(workdir / "counts_run")])
    assert rc == 2
    assert err.getvalue().strip().splitlines()[-1].startswith(
        f"error: usage: {cfg} line 2: key '{key}': must be >= 1 and <= 10000, got '111"), key
    assert not (workdir / "counts_run").exists()


# --- bundles ---

BAD_VALUES = (None, True, 0, -1, 1, 2, 7, 0.5, 1e300, -1e300, math.nan, math.inf, "", "x",
              "conv1d", "selu", "dense", "softmax", "autoencoder", "regression", [], {}, [1])


def write_bundle(path, meta, weights, bad_name=None, keep=None):
    """A bundle file, with a valid checksum, holding ``meta`` (any JSON
    value) and ``weights`` as they are; the name of array ``bad_name``, if
    given, starts with the byte 0xff, which is not UTF-8, and the body, if
    ``keep`` (a share in [0, 1)) is given, is cut to that share of its
    bytes."""
    with mock.patch.object(bundle_format, "_meta_dict", return_value=meta):
        save_bundle(SimpleNamespace(weights=weights), path)
    body = bytearray(path.read_bytes()[:-32])
    if bad_name is not None:
        name = bad_name.encode("utf-8")
        body[body.index(struct.pack("<H", len(name)) + name) + 2] = 0xff
    if keep is not None:
        del body[int(keep * len(body)):]
    path.write_bytes(bytes(body) + hashlib.sha256(body).digest())


def bundle_parts(path):
    """``(meta, weights)`` of a bundle file."""
    bundle = load_bundle(str(path))
    return bundle_format._meta_dict(bundle), bundle.weights


def _nodes(value, at=()):
    """The path of every value inside ``value``, containers included."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield at + (key,)
            yield from _nodes(value[key], at + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield at + (i,)
            yield from _nodes(item, at + (i,))


@st.composite
def field_mutations(draw, meta):
    """``meta`` with one field replaced by a bad or nearby value or
    deleted, or with an unknown key added to one object."""
    meta = json.loads(json.dumps(meta))
    at = draw(st.sampled_from(list(_nodes(meta))))
    *head, last = at
    owner = meta
    for key in head:
        owner = owner[key]
    kind = draw(st.sampled_from(["replace", "nearby", "delete", "add-key"]))
    value = owner[last]
    if kind == "delete":
        del owner[last]
    elif kind == "add-key" and isinstance(value, dict):
        value["bogus"] = draw(st.sampled_from(BAD_VALUES))
    elif kind == "nearby" and type(value) in (int, float):
        owner[last] = value + draw(st.sampled_from([-1, 1, 16]))
    else:
        owner[last] = draw(st.sampled_from(BAD_VALUES))
    return meta


@st.composite
def layer_mutations(draw, meta, weights):
    """``(meta, weights)`` with one layer of one group dropped, repeated
    or swapped with the next, its weights moving with it."""
    meta = json.loads(json.dumps(meta))
    group = draw(st.sampled_from(sorted(meta["groups"])))
    layers = meta["groups"][group]
    i = draw(st.integers(0, len(layers) - 1))
    order = list(range(len(layers)))
    kind = draw(st.sampled_from(["drop", "repeat", "swap"]))
    if kind == "drop":
        del order[i]
    elif kind == "repeat":
        order.insert(i, i)
    elif i + 1 < len(order):
        order[i], order[i + 1] = order[i + 1], order[i]
    meta["groups"][group] = [layers[j] for j in order]
    moved = {k: v for k, v in weights.items() if not k.startswith(f"{group}/")}
    for new, old in enumerate(order):
        prefix = f"{group}/{old}."
        moved.update({f"{group}/{new}.{k[len(prefix):]}": v for k, v in weights.items()
                      if k.startswith(prefix)})
    return meta, moved


@st.composite
def body_mutations(draw, meta, weights):
    """``(meta, weights, bad_name, keep)`` with one entry of one array set
    to NaN, an infinity or a huge finite value, with the first byte of one
    array's name set to 0xff (``bad_name``), or with the body cut short
    (``keep``)."""
    kind = draw(st.sampled_from(["entry", "name", "cut"]))
    if kind == "cut":
        return meta, weights, None, draw(st.floats(0, 1, exclude_max=True))
    name = draw(st.sampled_from(sorted(weights)))
    if kind == "name":
        return meta, weights, name, None
    array = weights[name].copy()
    array.flat[draw(st.integers(0, array.size - 1))] = draw(
        st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300]))
    return meta, {**weights, name: array}, None, None


def bundle_mutations(meta, weights):
    return (field_mutations(meta).map(lambda m: (m, weights))
            | layer_mutations(meta, weights) | body_mutations(meta, weights))


def assert_finite_outputs(paths):
    """Every number in the text outputs, and every weight of a bundle
    output, is finite."""
    for path in paths:
        if path.suffix == ".skq":
            for name, arr in load_bundle(str(path)).weights.items():
                assert np.all(np.isfinite(arr)), (path, name)
            continue
        for row in csv.reader(io.StringIO(path.read_text(encoding="utf-8"))):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (path, row)


@pytest.fixture(scope="module")
def bundles(workdir, finished_run):
    """A classification and a regression skill bundle and an autoencoder
    bundle, all with two channels per layer, plus their manifest."""
    manifest = workdir / "run_data" / "manifest.csv"
    tiny = ["--manifest", manifest, "--seed", "2", "--dae-max-epochs", "1",
            "--clf-max-epochs", "1", "--arch-enc-width", "2", "--arch-emb-channels", "2",
            "--arch-clf-width", "2"]
    assert run_quietly(["train-dae", "--out", workdir / "dae"] + tiny) == 0
    assert run_quietly(["train-classifier", "--mode", "regression", "--dae",
                        workdir / "dae" / "dae.skq", "--out", workdir / "regressor"] + tiny) == 0
    return {"classification": finished_run / "fold_0" / "bundle.skq",
            "regression": workdir / "regressor" / "skill.skq",
            "autoencoder": workdir / "dae" / "dae.skq", "manifest": manifest}


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return dispatch([str(a) for a in argv])


def run_bundle(argv, bundle, outputs):
    """``run``, plus: an exit 0 leaves finite outputs."""
    for path in outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = dispatch([str(a) for a in argv])
    assert rc in (0, 1, 2)
    if rc != 0:
        assert str(bundle) in err.getvalue().strip().splitlines()[-1], err.getvalue()
    else:
        assert_finite_outputs(outputs)


@pytest.mark.parametrize("mode", ["classification", "regression"])
def test_mutated_skill_bundle_fails_cleanly_under_predict_and_cam(workdir, bundles, mode):
    meta, weights = bundle_parts(bundles[mode])
    bundle, records, cams = (workdir / f"{mode}.skq", workdir / "records.csv",
                             workdir / "cams.csv")
    scoring = ["--bundle", bundle, "--manifest", bundles["manifest"]]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(mutated=bundle_mutations(meta, weights))
    def check(mutated):
        write_bundle(bundle, *mutated)
        run_bundle(["predict", *scoring, "--out", records], bundle, [records])
        run_bundle(["cam", *scoring, "--out", cams], bundle, [cams])

    check()


def test_mutated_autoencoder_bundle_fails_cleanly_under_train_classifier(workdir, bundles):
    meta, weights = bundle_parts(bundles["autoencoder"])
    bundle, out = workdir / "mutated_dae.skq", workdir / "skill"

    @settings(max_examples=180, deadline=None, derandomize=True, database=None)
    @given(mutated=bundle_mutations(meta, weights))
    def check(mutated):
        write_bundle(bundle, *mutated)
        run_bundle(["train-classifier", "--manifest", bundles["manifest"], "--dae", bundle,
                    "--out", out, "--clf-max-epochs", "1"], bundle, [out / "skill.skq"])

    check()


def test_a_head_diverging_over_a_given_encoder_names_its_bundle(workdir, bundles):
    """An encoder bias of 1e300 loads (it is finite) but saturates the head,
    whose loss is then not finite: the error names the encoder's bundle."""
    meta, weights = bundle_parts(bundles["autoencoder"])
    bias = weights["encoder/1.b"].copy()
    bias[0] = 1e300
    bundle = workdir / "saturating_dae.skq"
    write_bundle(bundle, meta, {**weights, "encoder/1.b": bias})
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = dispatch([str(a) for a in ["train-classifier", "--manifest", bundles["manifest"],
                                        "--dae", bundle, "--out", workdir / "saturated"]])
    assert rc == 1
    [line] = err.getvalue().splitlines()
    assert line.startswith("error: runtime: head: non-finite training loss at epoch 1 on trial ")
    assert line.endswith(f" over the encoder of {bundle}")
