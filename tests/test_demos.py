"""Every demo script runs to completion and prints its walkthrough."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))

# a line a demo must print, where its output pins a value
EXPECTED = {"ideal_arithmetic.py": "I restricted to {x2, x3} = x2*x3\n"}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert EXPECTED.get(path.name, "") in out
