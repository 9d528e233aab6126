"""What a ``skillseq`` process loads: scipy's statistics, numpy's
masked arrays and the process pool stay out of it.

``metrics`` imports scipy only inside its two large-sample p-value tails,
so a process that scores, explains, checks or evaluates a small study
never pays for ``scipy.stats`` (about 1.2 s and 65 MB at start-up).
``numpy.ma`` (about 1.25 MB resident and 7 ms of import) loads with
``np.median``, ``np.percentile``, ``np.quantile``, ``np.unique`` and
``np.isin``; ``synth`` and ``trust`` write their median and IQR out
instead.
``crossval`` imports ``concurrent.futures.process`` (and with it
``multiprocessing``, about 1.3 MB) only when ``--jobs`` > 1 asks for a
pool.  The checks run in a fresh interpreter so that this test session's
own imports do not count.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# the last line of each script: which process-pool modules it loaded
POOL_REPORT = ('print(sorted(m for m in ("multiprocessing", "concurrent.futures.process")\n'
               '             if m in sys.modules))\n')

SCRIPT = r"""
import os, sys
from skillseq.cli import dispatch

work = sys.argv[1]
data, run = os.path.join(work, "data"), os.path.join(work, "run")
manifest = os.path.join(data, "manifest.csv")
bundle = os.path.join(run, "fold_0", "bundle.skq")
records = os.path.join(work, "records.csv")
commands = [
    ["synth", "--seed", "11", "--n-subjects", "3", "--trials-per-subject", "8",
     "--pass-fraction", "0.5", "--out", data],
    ["evaluate", "--seed", "3", "--scheme", "stratified3", "--dae-max-epochs", "2",
     "--clf-max-epochs", "3", "--arch-enc-width", "8", "--arch-clf-width", "8",
     "--manifest", manifest, "--out", run],
    ["validate-cam", "--run", run, "--out", os.path.join(work, "study")],
    ["predict", "--bundle", bundle, "--manifest", manifest, "--out", records],
    ["cam", "--bundle", bundle, "--manifest", manifest, "--out",
     os.path.join(work, "cams.csv"), "--overlay-dir", os.path.join(work, "overlays")],
    ["trust", "--records", records, "--out", os.path.join(work, "trust")],
    ["ingest-check", "--manifest", manifest],
    ["train-dae", "--seed", "3", "--dae-max-epochs", "2", "--arch-enc-width", "8",
     "--manifest", manifest, "--out", os.path.join(work, "dae")],
    ["train-classifier", "--seed", "3", "--clf-max-epochs", "2", "--arch-clf-width", "8",
     "--dae", os.path.join(work, "dae", "dae.skq"), "--manifest", manifest,
     "--out", os.path.join(work, "clf")],
    ["gradcheck", "--configs", "1", "--seed", "0"],
]
masked_after = []
for argv in commands:
    rc = dispatch(argv)
    if rc != 0:
        sys.exit(f"{argv[0]} exited {rc}")
    if "numpy.ma" in sys.modules:
        masked_after.append(argv[0])
print(masked_after)
print(sorted(m for m in ("scipy.stats", "scipy.special") if m in sys.modules))
""" + POOL_REPORT


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("SKILLSEQ_SEED", None)
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The last three lines of the subcommand script: the commands after
    which ``numpy.ma`` was loaded, then the scipy statistics modules and
    the pool modules loaded after every command ran."""
    return _run(SCRIPT, str(tmp_path_factory.mktemp("work")))[-3:]


def test_subcommands_run_without_loading_numpy_masked_arrays(loaded):
    assert loaded[0] == "[]", loaded


def test_subcommands_run_without_loading_scipy_statistics(loaded):
    assert loaded[1] == "[]", loaded


def test_serial_subcommands_run_without_loading_the_process_pool(loaded):
    """``evaluate`` and ``validate-cam`` at ``--jobs 1`` train in-process."""
    assert loaded[2] == "[]", loaded


def test_importing_the_cli_loads_no_process_pool():
    assert _run("import sys\nimport skillseq.cli\n" + POOL_REPORT) == ["[]"]
