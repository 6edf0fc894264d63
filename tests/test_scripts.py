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
