"""The quick demos run end to end, so an API they use cannot be renamed or
removed without a failing test."""

import runpy
from dataclasses import replace
from pathlib import Path

import pytest

from rnalign.training import ExperimentConfig

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, expected", [
    ("benchmark_report.py", "sources: D1, D2 (608 pooled training samples)"
                            "  ->  target: D3 (96 evaluation samples)"),
    ("loss_geometry.py", "ratio loss       : 5.444444444444"),
], ids=["benchmark_report", "loss_geometry"])
def test_demo_runs(capsys, name, expected):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in capsys.readouterr().out


@pytest.mark.parametrize("name", ["training_walkthrough.py"])
def test_training_demo_loads(name):
    """The training demo takes minutes, so only its imports and
    module-level config run here, not ``main()``."""
    namespace = runpy.run_path(str(DEMOS / name), run_name="demo")
    assert callable(namespace["main"])
    assert isinstance(namespace["CONFIG"], ExperimentConfig)


@pytest.mark.parametrize("name, expected", [
    ("training_walkthrough.py", "results matrix: every source->target pair"),
], ids=["training_walkthrough"])
def test_training_demo_main_runs_at_30_iterations(capsys, name, expected):
    namespace = runpy.run_path(str(DEMOS / name), run_name="demo")
    main = namespace["main"]
    main.__globals__["CONFIG"] = replace(namespace["CONFIG"], iterations=30)
    main()
    assert expected in capsys.readouterr().out
