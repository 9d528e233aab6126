"""Reference-output bytes: a speed-up must not change any output byte.

The tiny run of ``test_config.py`` (3 subjects x 8 trials, ``stratified3``,
2 DAE and 3 head epochs, widths 8, seed 3) runs in a fresh interpreter
with BLAS pinned to one thread, as the benchmark runs it, and then the
CLI ``predict`` and ``cam`` commands score the whole tiny manifest with
fold 0's bundle.  The sha256 of the run's ``metrics.txt``, of every fold's
``predictions.csv``, ``cams.csv`` and ``bundle.skq`` and of the CLI's
``records.csv`` and ``cams.csv`` must equal the digests recorded for this
platform.  So must the digests of a tiny regression run (4 subjects x 6
trials, ``louo``, 2 DAE and 2 head epochs, widths 8, seed 3): its
``metrics.txt`` and every fold's ``predictions.csv`` and ``bundle.skq``.
So must the sha256 of each trial file and of the manifest
that the run's ``synth`` writes, and of the ``trust`` report and every
density curve for a fixed records file.  The trial writer's output for
cells that stress float formatting is pinned as literal bytes.
Floating-point bytes depend on the numpy/scipy versions, the OpenBLAS
kernel and the SIMD targets (``perfbench/envinfo.platform_key``), so an
unrecorded platform skips the check.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from skillseq.cli import dispatch
from skillseq.data import Trial, parse_trial_csv, write_trial_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")

SYNTH = ("synth", "--seed", "11", "--n-subjects", "3", "--trials-per-subject", "8",
         "--pass-fraction", "0.5")
EVALUATE = ("evaluate", "--seed", "3", "--scheme", "stratified3", "--dae-max-epochs", "2",
            "--clf-max-epochs", "3", "--arch-enc-width", "8", "--arch-clf-width", "8")
OUTPUTS = ("metrics.txt",) + tuple(
    f"fold_{k}/{name}" for k in range(3)
    for name in ("bundle.skq", "cams.csv", "predictions.csv"))
CLI_OUTPUTS = ("cli/records.csv", "cli/cams.csv")

# the tiny regression run: 4 subjects x 6 trials, one fold per subject
REGRESSION_SYNTH = ("synth", "--seed", "11", "--n-subjects", "4", "--trials-per-subject", "6")
REGRESSION_EVALUATE = ("evaluate", "--mode", "regression", "--scheme", "louo", "--seed", "3",
                       "--dae-max-epochs", "2", "--clf-max-epochs", "2",
                       "--arch-enc-width", "8", "--arch-clf-width", "8")
REGRESSION_OUTPUTS = ("metrics.txt",) + tuple(
    f"fold_S0{k}/{name}" for k in range(1, 5) for name in ("bundle.skq", "predictions.csv"))

GOLDEN = {
    "numpy 2.4.6; scipy 1.17.1; openblas SkylakeX; simd X86_V3,X86_V4,AVX512_ICL,AVX512_SPR": {
        "metrics.txt": "080d92ff1a84576b71afae69abfb0ce2e989f1920eb1ffdf29c2d2d798e404fb",
        "fold_0/bundle.skq": "3a21effa7e2cc2fa8c1cb9165ea578e837c557f4bfb7123f4a8de785df3dc249",
        "fold_0/cams.csv": "7d1af94db52da2e27253d13c0e4ce1c7efaaa0e043dba32550105f11f8a0374c",
        "fold_0/predictions.csv":
            "58147e9b53472348ba9ffdfbd7a699c3f09d8093d9f85ecbb4c2c790bbb40231",
        "fold_1/bundle.skq": "d1b54bf085d41c4944c6c3461e504c2fc298440012047dca89d57c834364a3d8",
        "fold_1/cams.csv": "1674d246c9a6542258855f9b0753052a83fcd897f9d472fb947d053dfb055246",
        "fold_1/predictions.csv":
            "0347ea1728be0cafb537e5699e5980af235a386bf4498cea769a92242e8394f3",
        "fold_2/bundle.skq": "840f0b17335fbb403b540a730e770a5f6be9a783e0c38c98aa6e89bc11019bc6",
        "fold_2/cams.csv": "fa3075c851d4baacd16ce13a09c2a77abad507a6f0097f5f3ca8eed17454b820",
        "fold_2/predictions.csv":
            "16dfda3da11faf0e57f777bee28dc02a83c62df96eda0e73834882a04044e6e8",
        "cli/records.csv": "280043efc3e837922a9d0f3def2f3fca4fb3024771d8d478afa2854808681590",
        "cli/cams.csv": "92bc427970f39ca71792d91c5c5f5f82137055458710192aeaab2fbc167badcf",
    },
}

REGRESSION_GOLDEN = {
    "numpy 2.4.6; scipy 1.17.1; openblas SkylakeX; simd X86_V3,X86_V4,AVX512_ICL,AVX512_SPR": {
        "metrics.txt": "3b12f4a47f01e5ccd6dfca5506c74ddc0395a4b8664a88f85b2dc76de3764ed1",
        "fold_S01/bundle.skq": "dcecbd725146d4c62ba119b557f3ce4fc59ec1819445f66133f6a25274498fbf",
        "fold_S01/predictions.csv":
            "29af667bb6c695f4cf931a00fecc0cc12fd5000229fbf48c813192e899aad64e",
        "fold_S02/bundle.skq": "2cedfdc0c2734148267d7b9abbf242073bdceab1d24bf12dc3091afeb52da22f",
        "fold_S02/predictions.csv":
            "d36ad23b4e20626b38255b5a7e1888b6e25bd87ae428cde29b499ebf3bcf322b",
        "fold_S03/bundle.skq": "f9e242afcf150d80ea7207a9277c141ef223db889183aca04e4e179eb5ff08b3",
        "fold_S03/predictions.csv":
            "7daa5a77a2854eaa4e73f323242ab28919d0a7e6f87a6feb2dc4520b3cc1e374",
        "fold_S04/bundle.skq": "8d3e056667a43e906a6fb6211500fea0cf9443d82736e6c42357924a1a6df7a9",
        "fold_S04/predictions.csv":
            "55fd241cc64621965a528f3fafeeb23a11446c23b3ff88050cae31bd5345ce5d",
    },
}

# sha256 of each file that ``SYNTH`` writes
SYNTH_GOLDEN = {
    "numpy 2.4.6; scipy 1.17.1; openblas SkylakeX; simd X86_V3,X86_V4,AVX512_ICL,AVX512_SPR": {
        "manifest.csv": "8c1e0be241c402fc972e8a0e1d3fb4843841f4d679616fb300d49c3b4c6b4883",
        "trials/S01_000.csv": "434973f18d2a8b36b6c2d1f2253f91e81bcba2b435c1f14b9e1acf2dca5969ea",
        "trials/S01_001.csv": "8ff81bb0dae06765418d217124242e2a64cb4cf80d4ebb0acd8de9319f6c21df",
        "trials/S01_002.csv": "120f425b03659b7608422938528ddee0b0fb330440e0c14552dce9813e5543bb",
        "trials/S01_003.csv": "482447035d55406669f3b695494ba95611f84973d7578a9167e3fffa2a608b8b",
        "trials/S01_004.csv": "fe88bb5480c6cc85fc6bfc560d6a74406f96e242a314ba15f52c5bfe24937186",
        "trials/S01_005.csv": "933c140b5eac2e5185e868623de526a64a17bf9bc0a4f31a96c0176f5ed5aadc",
        "trials/S01_006.csv": "8dd5f88b4c1d1b378ae3c14dd6ace8bb902c7ee867a884cc9ed743bdde9e0828",
        "trials/S01_007.csv": "cf55d568711efee9c424156aeda2752f0c5bdc8e2ea14391aaf749c94b967448",
        "trials/S02_000.csv": "20b91d8444a5f924a4cd2ff535705c3f01a47876c10ecf20739f3e5488672a13",
        "trials/S02_001.csv": "a3816ef41e6d4141225baffac8f6ea837e313664383611eb18eba52d4fe8ba49",
        "trials/S02_002.csv": "ead2d3f7f0a824d95dd65f406d5f364f208b664bca4ed046f8d245bd5e261ef5",
        "trials/S02_003.csv": "6aaafe9ec2620d57c4e50edb46688da3bb5a807e768683d8dbc48c02043a9b03",
        "trials/S02_004.csv": "2f03b27d707423b8d74669d4c00e1a505b1bb8a1c2cf53167e469e393f8218e4",
        "trials/S02_005.csv": "e72e3ea01bb874c7734b94b85702d4a1a0f7006a951a35fd29c3c798a7a250e4",
        "trials/S02_006.csv": "3a58c91f050d3a6ee2a9b8469e3c134cbe9c6acce6d839a0b5cbd1ecbf7d65fc",
        "trials/S02_007.csv": "4ab4911b89e8a274df05e85b352e9cf03a72c87811f53e30f6728fbc12aac276",
        "trials/S03_000.csv": "9b90b873c6134e6c805dc20c28d22fe5782fa9e5aa2a165d25439a3b6d5f2d3c",
        "trials/S03_001.csv": "cf4ffef2235126627a1d6ab0363c47bca6d80a69f1700b7607ac21d4e2ae9c4f",
        "trials/S03_002.csv": "4495b285b7042323206da31ed25d20c0cfae6af8cbb59ad0d551c47e9b728155",
        "trials/S03_003.csv": "fe96c01ddc3e7a4c5704b434e8111333dfc72dffe797d51a5033ec4f57672944",
        "trials/S03_004.csv": "72e94312e1ac73a0fd8705d7e45ac13878af245ba64d38103efe69bb4c01dcaf",
        "trials/S03_005.csv": "df75aff8376291f1bb0fae9733720eb8fc9b9423f5723329c45e24ccbc196749",
        "trials/S03_006.csv": "a6f643c99aa9a696febe65d5878a95e239bd4a2629fa26a20e4109eeb027bd96",
        "trials/S03_007.csv": "34511b63279a23dba1b4ed8f93961eda63afe664672f2d77a2f745a80da31fe7",
    },
}


# a records file in which each class has both correct and wrong predictions
TRUST_RECORDS = (
    "trial_id,subject,trial,actual,predicted,conf_pass,conf_fail,true_score,pred_score\n"
    "S1:0,S1,0,0,0,0.9,0.09999999999999998,,\n"
    "S1:1,S1,1,0,0,0.75,0.25,,\n"
    "S1:2,S1,2,0,1,0.375,0.625,,\n"
    "S1:3,S1,3,1,1,0.125,0.875,,\n"
    "S2:0,S2,0,1,0,0.5625,0.4375,,\n"
    "S2:1,S2,1,1,1,0.3,0.7,,\n"
    "S2:2,S2,2,0,0,0.6,0.4,,\n"
    "S2:3,S2,3,1,0,0.95,0.05000000000000004,,\n"
    "S3:0,S3,0,0,1,0.2,0.8,,\n"
    "S3:1,S3,1,1,1,0.01,0.99,,\n"
)

# sha256 of each file that ``trust`` writes for ``TRUST_RECORDS``
TRUST_GOLDEN = {
    "numpy 2.4.6; scipy 1.17.1; openblas SkylakeX; simd X86_V3,X86_V4,AVX512_ICL,AVX512_SPR": {
        "trust.txt": "73104c022314dc59cd30abc67b056c5ee88faa4f45771e9f31f58410c334fe82",
        "density_correct.csv":
            "1b0abd4b81e10865b27e5eeaf3cef385fd4a2ac2a79009bab523f7715d86a90f",
        "density_incorrect.csv":
            "4abc4999cf953b9391f89e220f0b227ba8c85ce4f631e68d94eba85bc2c633c8",
        "density_pass_correct.csv":
            "a1404417bfab96c0c9b5ea4ed94926912ec8a4f72ac0dade258b479eaa4278cf",
        "density_pass_incorrect.csv":
            "215b691787f92a0744db242da81412bda2da35acf02443cdf1c90c07dcdb82a7",
        "density_fail_correct.csv":
            "3b693ed35cb316f32dc5b88835f244bb6eb7186ccd04c295620c80a18654badb",
        "density_fail_incorrect.csv":
            "262936b6ca6873d4c950844c9800dc30fda05eba576a398983707f71b0439c0c",
    },
}


def _platform_key(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import envinfo
    return envinfo.platform_key()


def _skillseq(args, env):
    proc = subprocess.run([sys.executable, "-m", "skillseq", *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _pinned_env(src):
    """The environment of a ``skillseq`` run from ``src``: no seed from
    the environment, and BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SKILLSEQ_SEED", None)
    sys.path.insert(0, PERFBENCH)
    try:
        from envinfo import BLAS_THREAD_VARS
    finally:
        sys.path.remove(PERFBENCH)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def tiny_run_digests(src, work):
    """sha256 of each reference output of the tiny run, run from ``src``."""
    env = _pinned_env(src)
    data, run = os.path.join(work, "data"), os.path.join(work, "run")
    _skillseq(SYNTH + ("--out", data), env)
    _skillseq(EVALUATE + ("--manifest", os.path.join(data, "manifest.csv"), "--out", run),
              env)
    bundle = os.path.join(run, "fold_0", "bundle.skq")
    scored = os.path.join(run, "cli")
    os.makedirs(scored)
    for command, out in (("predict", "records.csv"), ("cam", "cams.csv")):
        _skillseq((command, "--bundle", bundle, "--manifest",
                   os.path.join(data, "manifest.csv"), "--out", os.path.join(scored, out)),
                  env)
    digests = {}
    for rel in OUTPUTS + CLI_OUTPUTS:
        with open(os.path.join(run, rel), "rb") as fh:
            digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def regression_run_digests(src, work):
    """sha256 of ``metrics.txt`` and of every fold's ``predictions.csv``
    and ``bundle.skq`` of the tiny regression run, run from ``src``."""
    env = _pinned_env(src)
    data, run = os.path.join(work, "data"), os.path.join(work, "run")
    _skillseq(REGRESSION_SYNTH + ("--out", data), env)
    _skillseq(REGRESSION_EVALUATE + ("--manifest", os.path.join(data, "manifest.csv"),
                                     "--out", run), env)
    digests = {}
    for rel in REGRESSION_OUTPUTS:
        with open(os.path.join(run, rel), "rb") as fh:
            digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_tiny_run_output_bytes_are_unchanged(tmp_path, monkeypatch):
    golden = GOLDEN.get(_platform_key(monkeypatch))
    if golden is None:
        pytest.skip("no reference digests recorded for this platform")
    assert tiny_run_digests(SRC, str(tmp_path)) == golden


def test_regression_run_output_bytes_are_unchanged(tmp_path, monkeypatch):
    golden = REGRESSION_GOLDEN.get(_platform_key(monkeypatch))
    if golden is None:
        pytest.skip("no reference digests recorded for this platform")
    assert regression_run_digests(SRC, str(tmp_path)) == golden


def _file_digests(root):
    """sha256 of every file under ``root``, keyed by its relative path."""
    digests = {}
    for parent, _, names in os.walk(root):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, root).replace(os.sep, "/")] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_synth_trial_files_and_manifest_are_unchanged(tmp_path, monkeypatch, capsys):
    """The tiny run's dataset: every trial file and the manifest that
    ``synth`` writes, byte for byte."""
    golden = SYNTH_GOLDEN.get(_platform_key(monkeypatch))
    if golden is None:
        pytest.skip("no reference digests recorded for this platform")
    assert dispatch([*SYNTH, "--out", str(tmp_path)]) == 0
    assert _file_digests(tmp_path) == golden


def test_trust_report_and_densities_are_unchanged(tmp_path, monkeypatch, capsys):
    golden = TRUST_GOLDEN.get(_platform_key(monkeypatch))
    if golden is None:
        pytest.skip("no reference digests recorded for this platform")
    records = tmp_path / "records.csv"
    records.write_text(TRUST_RECORDS)
    out = tmp_path / "trust"
    assert dispatch(["trust", "--records", str(records), "--out", str(out)]) == 0
    assert _file_digests(out) == golden


def test_trial_writer_output_bytes_are_unchanged(tmp_path):
    """NaN runs, signed zeros, subnormals and extremes, written and read back."""
    nan = np.nan
    values = np.array([
        [nan, -0.0, 1e300],
        [nan, nan, 5e-324],
        [nan, 0.1, -2.2250738585072014e-308],
        [1.0 / 3.0, nan, 123456789.125],
        [-1e-7, nan, 2.5e-310],
        [nan, nan, nan],
        [0.0, -1e300, 42.0],
    ])
    trial = Trial(subject_id="S7", trial_index=12, sample_rate_hz=10.0,
                  channels=("sx", "sy", "gx"), values=values, score=-0.0,
                  class_label="fail")
    path = tmp_path / "trial.csv"
    write_trial_csv(trial, path)
    assert path.read_bytes() == (
        b"# subject=S7\n# trial=12\n# rate_hz=10.0\n# score=-0.0\n# class=fail\n"
        b"t,sx,sy,gx\n"
        b"0,,-0.0,1e+300\n"
        b"1,,,5e-324\n"
        b"2,,0.1,-2.2250738585072014e-308\n"
        b"3,0.3333333333333333,,123456789.125\n"
        b"4,-1e-07,,2.5e-310\n"
        b"5,,,\n"
        b"6,0.0,-1e+300,42.0\n")
    assert parse_trial_csv(path).values.tobytes() == values.tobytes()
