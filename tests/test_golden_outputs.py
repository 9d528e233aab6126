"""Reference-output bytes: a speed-up must not change any output byte.

The tiny run of ``test_config.py`` (3 subjects x 8 trials, ``stratified3``,
2 DAE and 3 head epochs, widths 8, seed 3) runs in a fresh interpreter
with BLAS pinned to one thread, as the benchmark runs it, and then the
CLI ``predict`` and ``cam`` commands score the whole tiny manifest with
fold 0's bundle.  The sha256 of the run's ``metrics.txt``, of every fold's
``predictions.csv``, ``cams.csv`` and ``bundle.skq`` and of the CLI's
``records.csv`` and ``cams.csv`` must equal the digests recorded for this
platform.
Floating-point bytes depend on the numpy/scipy versions, the OpenBLAS
kernel and the SIMD targets (``perfbench/envinfo.platform_key``), so an
unrecorded platform skips the check.
"""

import hashlib
import os
import subprocess
import sys

import pytest

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


def _platform_key(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import envinfo
    return envinfo.platform_key()


def _skillseq(args, env):
    proc = subprocess.run([sys.executable, "-m", "skillseq", *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def tiny_run_digests(src, work):
    """sha256 of each reference output of the tiny run, run from ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SKILLSEQ_SEED", None)
    sys.path.insert(0, PERFBENCH)
    try:
        from envinfo import BLAS_THREAD_VARS
    finally:
        sys.path.remove(PERFBENCH)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
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


def test_tiny_run_output_bytes_are_unchanged(tmp_path, monkeypatch):
    golden = GOLDEN.get(_platform_key(monkeypatch))
    if golden is None:
        pytest.skip("no reference digests recorded for this platform")
    assert tiny_run_digests(SRC, str(tmp_path)) == golden
