"""The trial parser's block path against its row walk.

``parse_trial_text`` reads a plain data block in whole-block passes and
leaves anything unusual to the row walk, which is the reference reading
and the only error path.  For valid trial texts and mutations of them,
parsing with the block path must give what the walk alone gives: the
same values, NaN bits included, or the same TrialFormatError text.
"""

import csv
from itertools import accumulate
from unittest import mock

from hypothesis import given, settings, strategies as st

from skillseq import data

HEAD = "# subject=S1\n# trial=0\n# rate_hz=2\n# score=NA\n# class=pass\n"
N_HEAD = HEAD.count("\n")     # the column header row is line N_HEAD + 1
CHANNELS = ("x", "y", "sx", "sy", "gx", "gy")
FORMATS = (repr, "{:.17g}".format, "{:.3e}".format, "{:.6f}".format, " {!r}\t".format)
T_CELLS = ("+1", " 5 ", "1_0", "٣", "1.0", "", " ", "0x1")
NON_FINITE = ("nan", "inf", "-inf", "NaN", " Infinity ", "-nan")
BAD_CELLS = ("abc", "1\x00", "0x10", "1,5", "--1")
BLANK_CELLS = ("", " ", "\t", "  ")
LINE_BREAKS = ("\r\n", "\r", "\x0c")

cells = st.one_of(
    st.just(""),
    st.builds(lambda v, fmt: fmt(v), st.floats(-1e300, 1e300),
              st.sampled_from(FORMATS)),
    st.integers(-10**6, 10**6).map(str),
)


@st.composite
def data_rows(draw):
    """(channels, rows): each row is [t, cell, ...] with increasing t."""
    channels = draw(st.lists(st.sampled_from(CHANNELS), min_size=1, max_size=4, unique=True))
    steps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=25))
    ts = accumulate(steps, initial=draw(st.integers(-5, 5)))
    return channels, [[str(t)] + [draw(cells) for _ in channels] for t, _ in zip(ts, steps)]


def text_of(channels, rows, head=HEAD):
    return head + "\n".join([",".join(("t",) + tuple(channels))]
                            + [",".join(row) for row in rows]) + "\n"


def outcome(text):
    """What the parser gives for ``text``: the trial's fields or its error."""
    try:
        trial = data.parse_trial_text(text, origin="trial.csv")
    except data.TrialFormatError as exc:
        return str(exc)
    return trial.channels, trial.values.shape, trial.values.tobytes()


def walk_outcome(text):
    with mock.patch.object(data, "_parse_block", return_value=None):
        return outcome(text)


@settings(max_examples=200, deadline=None)
@given(data_rows())
def test_block_path_reads_valid_texts_as_the_row_walk_does(block):
    text = text_of(*block)
    assert data._parse_block(text.splitlines()[N_HEAD:]) is not None
    assert outcome(text) == walk_outcome(text)


@st.composite
def mutated_texts(draw):
    channels, rows = draw(data_rows())
    kind = draw(st.sampled_from((
        "quote-comment", "quote-header", "quote-cell", "stray-quote",
        "extra-cells-and-blank", "line-breaks", "one-line-break", "blank-cell", "t-cell",
        "non-finite", "t-repeat", "over-limit-cell", "over-limit-header", "bad-cell",
        "drop-cell", "dup-cell", "dup-channel", "no-channels")))
    r = draw(st.integers(0, len(rows) - 1))
    c = draw(st.integers(1, len(channels)))
    head = HEAD
    if kind == "quote-comment":
        head = HEAD.replace("subject=S1", 'subject="S1"')
    elif kind == "quote-header":
        channels[c - 1] = f'"{channels[c - 1]}"'
    elif kind == "quote-cell":
        rows[r][c] = f'"{rows[r][c]}"'
    elif kind == "stray-quote":
        k = draw(st.integers(0, len(rows[r][c])))
        rows[r][c] = rows[r][c][:k] + '"' + rows[r][c][k:]
    elif kind == "extra-cells-and-blank":
        # a line with one row's worth of extra cells, then a blank line: the
        # cell total is right and the extra cells read as a row with an
        # increasing t, so only a per-line check sees the misaligned rows
        rows[r] += [str(int(rows[r][0]) + 1)] + ["0.5"] * (len(channels) - 1)
        for row in rows[r + 1:]:
            row[0] = str(int(row[0]) + 1)
        rows.insert(r + 1, [""])
    elif kind == "blank-cell":
        rows[r][c] = draw(st.sampled_from(BLANK_CELLS))
    elif kind == "t-cell":
        rows[r][0] = draw(st.sampled_from(T_CELLS))
    elif kind == "non-finite":
        rows[r][c] = draw(st.sampled_from(NON_FINITE))
    elif kind == "t-repeat":
        rows[r][0] = rows[max(r - 1, 0)][0]
    elif kind == "over-limit-cell":    # a finite number, 0.0
        rows[r][c] = "0." + "0" * csv.field_size_limit()
    elif kind == "over-limit-header":
        channels[c - 1] = "x" * (csv.field_size_limit() + 1)
    elif kind == "bad-cell":
        rows[r][c] = draw(st.sampled_from(BAD_CELLS))
    elif kind == "drop-cell":
        del rows[r][c]
    elif kind == "dup-cell":
        rows[r].insert(c, rows[r][c])
    elif kind == "dup-channel":
        channels.append(channels[0])
        for row in rows:
            row.append(row[1])
    elif kind == "no-channels":
        channels, rows = [], [row[:1] for row in rows]
    text = text_of(channels, rows, head)
    if kind == "line-breaks":
        text = text.replace("\n", draw(st.sampled_from(LINE_BREAKS)))
    elif kind == "one-line-break":
        lines = text.split("\n")
        k = draw(st.integers(1, len(lines) - 1))
        text = "\n".join(lines[:k]) + draw(st.sampled_from(LINE_BREAKS)) + "\n".join(lines[k:])
    return text


@settings(max_examples=600, deadline=None)
@given(mutated_texts())
def test_block_path_and_row_walk_agree_on_mutated_texts(text):
    assert outcome(text) == walk_outcome(text)
