"""Tests of the benchmark itself: `python -m pytest bench`.

They sit outside the project's `testpaths`, so the tier-1 suite skips them.
Each workload runs here at a tiny size, against a reference recorded on
the spot.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import reference
import run

CLI = run.load_program()

TINY = {
    # N^k * n = 60^3 * 50 is over the DP guard, so OPT still takes the flow route
    "ktree-gpc": {"family": "random-ktree", "size": 60, "k": 3, "n": 50, "algo": "gpc"},
    "grid-spanner": {"family": "grid", "size": 4, "k": 2, "n": 20, "algo": "spanner"},
    "rounds-gpc": {"family": "path-rounds", "size": 5, "n": 70, "algo": "gpc"},
}


@pytest.fixture(scope="module")
def refs(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference") / "report.json"
    return {name: reference.make_reference(CLI, w, range(2), out) for name, w in TINY.items()}


def measure(name, ref, trace, tmp_path):
    return run.measure(CLI, TINY[name], ref, 1, 0, trace, tmp_path / "report.json")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_spec_prints_every_metric_with_its_unit(name, trace, refs, tmp_path, capsys):
    result = measure(name, refs[name], trace, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_SPECS
    expected = run.metric_units()["per_layer" if trace else "end_to_end"]
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == expected
    lines = capsys.readouterr().out.splitlines()
    for metric, unit in expected:
        assert any(
            line.startswith(metric + " ") and line.endswith(" " + unit) for line in lines
        ), metric
    if trace:
        flow = result["metrics"]["offline_solver.flow_route"]["value"]
        assert flow == (name == "ktree-gpc")


def test_wrong_reference_opt_cost_is_a_failure(refs, tmp_path):
    ref = json.loads(json.dumps(refs["grid-spanner"]))
    ref["0"]["opt_cost"] = str(int(ref["0"]["opt_cost"]) + 1)
    result = measure("grid-spanner", ref, False, tmp_path)
    assert result["failed"] > 0 and not result["correct"]


def test_changed_report_digest_is_counted_not_failed(refs, tmp_path):
    ref = json.loads(json.dumps(refs["rounds-gpc"]))
    ref["1"]["report_sha256"] = "0" * 64
    result = measure("rounds-gpc", ref, True, tmp_path)
    assert result["correct"]
    assert result["metrics"]["cli.report_digest_mismatches"]["value"] > 0


def test_host_speed_samples_during_a_call_and_restores_the_signal():
    import signal
    import time

    import host_speed

    speed = host_speed.HostSpeed()
    result, elapsed, scaled = speed.timed(lambda: time.sleep(0.2) or 7)
    assert result == 7
    assert len(speed.samples) > 2 * host_speed.BRACKET + 3
    assert 0 < elapsed < 0.3 and scaled > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rounds-gpc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
