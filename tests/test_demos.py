"""Every script under demos/ runs to completion and prints what it did."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kslab

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout; every line the demos print is computed
# exactly, so any change in it is a change in the library's results
STDOUT_SHA256 = {
    "01_path_rounds_and_guessing_bound":
        "336cbb891e3ce8096838c503a0e6592d67f391fba3de5bcb11bae8dda321054d",
    "02_module_families_and_perm":
        "b8bc3441fa206190e34c28e3eead9ab9846e1ad0ac4365e1c2586abe97c1208b",
    "03_optimal_service_from_advice":
        "4165fe2a62b0725cbe8e00af0b4df1e75e66de0fd86ebe139acd38014445be15",
    "04_spanner_path_cover":
        "1d4246beafc85fee1ac1565d0baa2768430599a11ecdc757a8c7697bbb16860d",
}


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
    digest = hashlib.sha256(out.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[demo.stem], out.stdout


def test_demos_are_found():
    # an empty glob would leave the parametrized test silently skipped, and
    # a demo without a pinned digest would fail only by a KeyError
    assert [d.stem for d in DEMOS] == sorted(STDOUT_SHA256)
