"""Golden CLI text: help, usage and error output must not change a byte.

Each case runs ``dispatch`` and hashes its exit code, stdout and stderr.
The help width is pinned with COLUMNS.  argparse's layout differs between
Python versions, so the digests are keyed by version and an unrecorded
version skips the check.
"""

import hashlib
import sys

import pytest

from skillseq.cli import dispatch

COMMANDS = ("synth", "ingest-check", "train-dae", "train-classifier", "evaluate",
            "predict", "cam", "trust", "validate-cam", "gradcheck")

CASES = {
    "--help": ["--help"],
    **{f"{c} --help": [c, "--help"] for c in COMMANDS},
    "predict --bogus": ["predict", "--bogus"],
    "predict <inputs> --bogus": ["predict", "--bundle", "b.skq", "--manifest", "m.csv",
                                 "--out", "r.csv", "--bogus"],
    "nope": ["nope"],
    "evaluate --arch-kernel-size 4": ["evaluate", "--arch-kernel-size", "4"],
    "-h predict": ["-h", "predict"],
    "--help predict": ["--help", "predict"],
    "-- predict": ["--", "predict"],
    "predict": ["predict"],
    "predict -h": ["predict", "-h"],
    "cam --bogus": ["cam", "--bogus"],
}

GOLDEN = {
    (3, 11): {
        "-- predict":
            "fa1c85c42c1cc6ebc645d5a611a9a74cf25e2995cf0aec52611d14b5e4a65c5f",
        "--help":
            "bc3584e68f981d4c3008d935adeedfa6b85fec164bcbd5bd30a2f0d837c99004",
        "--help predict":
            "bc3584e68f981d4c3008d935adeedfa6b85fec164bcbd5bd30a2f0d837c99004",
        "-h predict":
            "bc3584e68f981d4c3008d935adeedfa6b85fec164bcbd5bd30a2f0d837c99004",
        "cam --bogus":
            "8af72a776c80498101e2e66ce374d8098d20b57b0341bcb56d2fae9036cf2761",
        "cam --help":
            "252626804de85c5eccbc57804c0ee51d5961b3e247bb646ede9334048dd606c1",
        "evaluate --arch-kernel-size 4":
            "9aaf45839e0beb734381fa445070f8cb5dd3cc3df941284f1643abd59f56aedb",
        "evaluate --help":
            "5c19eb37e4f41efa7a9c042e787879d5cb61c205ebe181f8ae66fcc4d635f48d",
        "gradcheck --help":
            "e0fdcaa40bc67ef1eacfc5fdd6ae26ea5a7d56ef83470ace9aa26f573e44a0f1",
        "ingest-check --help":
            "df4283f09ba1881d07819341692f2f8597c60f368d6895a8befe120e4b569c36",
        "nope":
            "160c5ae376bf56a1c012fb0417e2d810804b1c0d817d02a18f3ab3cbaa33ca23",
        "predict":
            "b7e430147ea7ba4a6a76143946f98134e2b5ca74a6cde90dc71f7dd95eee5e77",
        "predict --bogus":
            "b7e430147ea7ba4a6a76143946f98134e2b5ca74a6cde90dc71f7dd95eee5e77",
        "predict --help":
            "bfe84dff577953aeae18eb25ff73b4e016293f5813c2af33a8ec8f0d71f8b1e1",
        "predict -h":
            "bfe84dff577953aeae18eb25ff73b4e016293f5813c2af33a8ec8f0d71f8b1e1",
        "predict <inputs> --bogus":
            "6f2a8c3f8ad71a39ea60dcc3f510bbe05b311d838bc2c86674197ae33fcc4248",
        "synth --help":
            "4b56b0bed7723b399b20824fcd23c6c08983bf012e6896ea52e2d861efe20f71",
        "train-classifier --help":
            "08b887d0f0ad8e0ca30f7433352ce610236377cd6c5136b59997412171ef4795",
        "train-dae --help":
            "3524753e442c3c1213245f0d8082754f79092e4f453f88286a74d33e18944437",
        "trust --help":
            "dd24c5cea3cc8cf9822eb3fe3cfea0d772f88f2a53b10bc3546fd789d0648ac4",
        "validate-cam --help":
            "b90e440edc2fea3cd31c8fecb1d3ce69770bbc4172558b44bce1c94cd1b06225",
    },
}


def _text_digest(argv, capsys):
    rc = dispatch(argv)
    out, err = capsys.readouterr()
    return hashlib.sha256(f"{rc}\n{out}\0{err}".encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_text_is_unchanged(case, capsys, monkeypatch):
    golden = GOLDEN.get(sys.version_info[:2])
    if golden is None:
        pytest.skip("no CLI text digests recorded for this Python version")
    monkeypatch.setenv("COLUMNS", "80")
    assert _text_digest(CASES[case], capsys) == golden[case]
