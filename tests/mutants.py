"""Mutation table for the checks that guard a result.

Each entry deletes or weakens one check of `src/kslab` and names the tests
that must fail on it.  Run from anywhere, with pytest and hypothesis
installed:

    python tests/mutants.py

The named tests first run on an unchanged copy of `src/`, where they must
pass.  Then, for each entry, a fresh copy of `src/` gets the entry's
replacement and only its named tests run, with PYTHONPATH set to the copy;
a pytest exit status of 1 (tests failed) kills the mutant.  The run exits
with status 1 if a snippet does not occur exactly once in its file, if the
unchanged copy fails, or if a mutant survives.  pytest does not collect
this file, since its name does not start with `test_`.  Standard library
only.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # per pytest run; a hang counts as a surviving mutant


class Mutant(NamedTuple):
    name: str
    file: str  # under src/kslab
    snippet: str  # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


CLI = "tests/test_cli.py::"
OFFLINE = "tests/test_offline_solver.py::"
TREE = "tests/test_tree_decomp.py::"
LAZY = OFFLINE + "test_validate_lazy_schedule_raises_located"  # serve_order's cases

MUTANTS = [
    Mutant(
        "gpc cost == OPT",
        "cli.py",
        "run.online_cost == opt.total_cost, extra",
        "True, extra",
        (CLI + "test_gpc_run_fails_pass_unless_its_cost_is_opt",),
    ),
    Mutant(
        "spanner cost <= (q+r)*OPT",
        "cli.py",
        "ok = run.cost <= (system.q + system.r) * opt.total_cost",
        "ok = True",
        (CLI + "test_spanner_run_fails_pass_above_q_plus_r_times_opt",),
    ),
    Mutant(
        "bits_read <= bit_budget",
        "cli.py",
        "ok = ok and run.bits_read <= run.bit_budget",
        "ok = ok",
        (CLI + "test_run_fails_pass_past_its_bit_budget",),
    ),
    Mutant(
        "serve_order move order",
        "offline_solver.py",
        "if m.t != t:",
        "if False:",
        (LAZY + "[t-twice]", LAZY + "[t-missing]"),
    ),
    Mutant(
        "serve_order server",
        "offline_solver.py",
        "if not (isinstance(sid, int) and 0 <= sid < len(positions)):",
        "if False:",
        (LAZY + "[server]",),
    ),
    Mutant(
        "serve_order src",
        "offline_solver.py",
        "if positions[sid] != m.src:",
        "if False:",
        (LAZY + "[src]",),
    ),
    Mutant(
        "serve_order dst",
        "offline_solver.py",
        "if m.dst != y:",
        "if False:",
        (LAZY + "[dst]",),
    ),
    Mutant(
        "serve_order move cost",
        "offline_solver.py",
        "if m.cost != d:",
        "if False:",
        (LAZY + "[cost]",),
    ),
    Mutant(
        "serve_order missing move",
        "offline_solver.py",
        "if len(servers) < n:",
        "if False:",
        (LAZY + "[moves]",),
    ),
    Mutant(
        "serve_order surplus moves",
        "offline_solver.py",
        "if len(moves) > n:",
        "if False:",
        (LAZY + "[surplus]",),
    ),
    Mutant(
        "serve_order total",
        "offline_solver.py",
        "if total != schedule.total_cost:",
        "if False:",
        (LAZY + "[total_cost]",),
    ),
    Mutant(
        "flow decode cost",
        "offline_solver.py",
        "if cost != total:",
        "if False:",
        (OFFLINE + "test_flow_decode_checks_cost",),
    ),
    Mutant(
        "decomposition axiom 1 (coverage)",
        "tree_decomp.py",
        "if v not in holding:",
        "if False:",
        (TREE + "test_missing_vertex_reported",),
    ),
    Mutant(
        "decomposition axiom 2 (edges)",
        "tree_decomp.py",
        "if not any(b in bag_sets[i] for i in holding[a]):",
        "if False:",
        (TREE + "test_missing_edge_bag_reported",),
    ),
    Mutant(
        "decomposition axiom 3 (connectivity)",
        "tree_decomp.py",
        "if tops != 1:",
        "if False:",
        (TREE + "test_broken_connectivity_reported",),
    ),
    Mutant(
        "certify_system rejection",
        "spanner_cover.py",
        "if witness is not None:",
        "if False:",
        ("tests/test_spanner_cover.py::test_grid_single_bfs_tree_fails_1_0",),
    ),
    Mutant(
        "AdviceTape TapeExhausted",
        "advice_tape.py",
        "if end > self.bits_written:",
        "if False:",
        ("tests/test_advice_tape.py::test_read_past_end",),
    ),
    Mutant(
        "AdviceTape ValueTooWide",
        "advice_tape.py",
        "if value < 0 or value >> width:",
        "if value < 0:",
        ("tests/test_advice_tape.py::test_too_wide",),
    ),
    Mutant(
        # the walk stops at y outside the bag instead of raising
        "gpc NoIntersection",
        "gpc.py",
        "if z == y:\n                        raise NoIntersection(",
        "if z == y:\n                        break\n                        raise NoIntersection(",
        ("tests/test_typed_checks.py::test_no_intersection_names_bag_and_leg",),
    ),
]


def copy_src(dest: Path) -> Path:
    """A copy of src/ under dest, without byte-code caches; its path."""
    src = dest / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def pytest_status(src: Path, tests) -> int | None:
    """The exit status of pytest on the tests with kslab imported from src,
    None on a timeout.  No byte code is written, so an edited module is
    never read from a stale cache."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run(
        [sys.executable, "-c", "import kslab; print(kslab.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).is_relative_to(src):
        raise SystemExit(f"kslab imports from {where}, not from the copy {src}")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=REPO, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    failures = 0
    for m in MUTANTS:
        found = (REPO / "src" / "kslab" / m.file).read_text().count(m.snippet)
        if found != 1:
            print(f"stale entry {m.name!r}: its snippet occurs {found} times in {m.file}")
            failures += 1
    if failures:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        status = pytest_status(copy_src(Path(tmp)), [t for m in MUTANTS for t in m.tests])
    if status != 0:
        print(f"the named tests fail on the unchanged source (pytest status {status})")
        return 1
    killed = 0
    for m in MUTANTS:
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(Path(tmp))
            path = src / "kslab" / m.file
            path.write_text(path.read_text().replace(m.snippet, m.replacement))
            status = pytest_status(src, m.tests)
        verdict = {1: "killed", None: "timeout"}.get(status, f"pytest status {status}")
        killed += status == 1
        print(f"{verdict:9} {m.name} ({time.perf_counter() - started:.1f} s)")
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
