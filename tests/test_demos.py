"""Every script under demos/ runs to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kslab

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(kslab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=tmp_path,
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    if demo.stem == "02_module_families_and_perm":
        # PERM's schedule is the unique optimum on all four sequences
        assert out.stdout.count("optimal schedules: 1\n") == 4, out.stdout


def test_demos_are_found():
    # an empty glob would leave the parametrized test silently skipped
    assert DEMOS
