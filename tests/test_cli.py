"""CLI input checks: a missing input file is a usage error (exit 2)."""

import pytest

from skillseq.bundle import save_bundle
from skillseq.cli import dispatch


@pytest.fixture(scope="module")
def scoring_inputs(tmp_path_factory, small_classifier):
    root = tmp_path_factory.mktemp("scoring")
    bundle = root / "skill.skq"
    save_bundle(small_classifier[0], bundle)
    assert dispatch(["synth", "--out", str(root / "data"), "--seed", "2",
                     "--n-subjects", "1", "--trials-per-subject", "2"]) == 0
    return {"bundle": str(bundle), "manifest": str(root / "data" / "manifest.csv")}


def scoring_argv(command, paths, out):
    return [command, "--bundle", paths["bundle"], "--manifest", paths["manifest"],
            "--out", str(out)]


@pytest.mark.parametrize("command", ["predict", "cam"])
def test_scoring_inputs_are_usable(scoring_inputs, tmp_path, command):
    assert dispatch(scoring_argv(command, scoring_inputs, tmp_path / "out.csv")) == 0


@pytest.mark.parametrize("command", ["predict", "cam"])
@pytest.mark.parametrize("missing", ["bundle", "manifest"])
def test_missing_scoring_input_is_a_usage_error(scoring_inputs, tmp_path, capsys,
                                                command, missing):
    paths = dict(scoring_inputs, **{missing: str(tmp_path / f"no_such_{missing}")})
    rc = dispatch(scoring_argv(command, paths, tmp_path / "out.csv"))
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert rc == 2
    assert err == f"error: usage: {missing} not found: {paths[missing]}"
    assert not (tmp_path / "out.csv").exists()
