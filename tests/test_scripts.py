"""Smoke runs of the study scripts with tiny arguments."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

RUNS = {
    "convergence_study": (["--walks", "2", "--steps", "40"],
                          "transversality ratio floor"),
    "drift_study": (["--walks", "2", "--steps", "200"], "relative error"),
    "curve_pullback_study": (["--max-len", "3", "--seeds", "2"], "seed 2"),
}


def test_every_script_has_a_smoke_run():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_runs_with_tiny_arguments(name, capsys):
    spec = importlib.util.spec_from_file_location(
        f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    argv, expected = RUNS[name]
    assert module.main(argv) == 0
    assert expected in capsys.readouterr().out


def test_curve_study_closed_form_reads_the_reference_horizon(capsys):
    # a line through two base points of letter 0: the series ends after
    # its first row, whose closed form is still taken at the horizon L = 6
    spec = importlib.util.spec_from_file_location(
        "script_curve_pullback_study", SCRIPTS / "curve_pullback_study.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--max-len", "6", "--seeds", "1",
                        "--curve", "x + 4*y - 5*z"]) == 0
    row = capsys.readouterr().out.splitlines()[2].split()
    assert row[:4] == ["0", "1", "9.980450e-01", "9.980450e-01"]
