"""Each walk-through under demos/ runs to completion as a script."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert [path.name for path in DEMOS] == [
        "noisy_observations.py", "single_user_tradeoff.py", "two_encoder_alignment.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
