"""Benchmark of `kslab run`: end-to-end numbers, or per-stage numbers traced.

    python3 bench/run.py --workload ktree-gpc --seed 1 --seconds 30 --trace 0

A closed loop with one client: each spec goes through
`kslab.cli.main(["run", ...])` in this process after the previous one has
returned.  The workload seed orders a fixed pool of spec seeds whose exact
`opt_cost` and report sha256 are recorded in `reference.json`; every report
is checked against them.  Spec times are scaled to the shared host's usual
speed (`host_speed.py`).  `--trace 1` runs each spec untraced and then
replays it stage by stage (`stages.py`) for the per-layer numbers.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
See README.md beside this file.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

from host_speed import KERNEL_REF_S, HostSpeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

# Why each workload exists is in README.md.
WORKLOADS = {
    "ktree-gpc": {"family": "random-ktree", "size": 250, "k": 3, "n": 300, "algo": "gpc"},
    "grid-spanner": {"family": "grid", "size": 16, "k": 2, "n": 150, "algo": "spanner"},
    "rounds-gpc": {"family": "path-rounds", "size": 5, "n": 14000, "algo": "gpc"},
}
MIN_SPECS = 3  # every run completes this many; per-layer counters come from them
SETUP_REPEATS = 10


def load_program():
    """Import `kslab.cli` from this checkout's `src/`, or exit nonzero."""
    if not (SRC / "kslab" / "cli.py").is_file():
        raise SystemExit(f"bench: no kslab sources at {SRC}")
    sys.path.insert(0, str(SRC))
    from kslab import cli

    if Path(cli.__file__).resolve().parent != SRC / "kslab":
        raise SystemExit(f"bench: imported kslab from {cli.__file__}, not {SRC}")
    return cli


def metric_units() -> dict[str, list[tuple[str, str]]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        key: [(m["name"], m["unit"]) for m in spec[key]]
        for key in ("end_to_end", "per_layer")
    }


def cli_argv(w: dict, seed: int, out: Path) -> list[str]:
    argv = ["run"]
    for key, value in w.items():
        argv += [f"--{key}", str(value)]
    return argv + ["--seed", str(seed), "--out", str(out)]


def run_cli(cli, w: dict, seed: int, out: Path, speed: HostSpeed | None = None):
    """One timed spec: the report's bytes (None if the run did not exit 0),
    its wall time and that time scaled to the host's usual speed."""

    def call():
        try:
            return cli.main(cli_argv(w, seed, out))
        except (Exception, SystemExit):
            traceback.print_exc()
            return None

    out.unlink(missing_ok=True)
    gc.collect()
    code, elapsed, scaled = (speed or HostSpeed()).timed(call)
    return (out.read_bytes() if code == 0 else None), elapsed, scaled


def report_results(data: bytes | None) -> dict | None:
    if data is None:
        return None
    try:
        return json.loads(data)["results"]
    except (ValueError, KeyError, TypeError):
        traceback.print_exc()
        return None


# A set-up sample is a child process, which may run on another core than
# this one, so the child samples the host's speed itself (host_speed.py)
# and prints its samples.
SETUP_CHILD = (
    "from host_speed import HostSpeed\n"
    "speed = HostSpeed()\n"
    "speed.timed(lambda: __import__('kslab.cli'))\n"
    "print(*speed.samples)\n"
)


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """Wall and scaled times of fresh interpreters, each until `import kslab.cli` returns.

    The child's kernel samples are taken out of its wall time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            env=env, cwd=ROOT, check=True, capture_output=True, text=True,
        )
        elapsed = perf_counter() - t0
        samples = [float(x) for x in child.stdout.split()]
        elapsed -= sum(samples)
        times.append((elapsed, elapsed * KERNEL_REF_S / median(samples)))
    return times


def matching_replay(w: dict, seed: int, results: dict):
    """The spec's traced replay, or None if it raised or disagrees with the report."""
    import stages

    try:
        tr = stages.replay(w, seed)
    except (Exception, SystemExit):
        traceback.print_exc()
        return None
    expected = {
        "opt_cost": str(results["opt_cost"]),
        "online_cost": str(results["online_cost"]),
        "bits_read": results["bits_read"],
    }
    return tr if tr.results == expected else None


def measure(cli, w: dict, ref: dict, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Run specs of workload `w` for `seconds`; return the benchmark's result object."""
    speed = HostSpeed()
    # half the set-up samples before the specs and half after, so that one
    # burst of load on the machine does not decide the median
    setup = [] if trace else measure_setup(SETUP_REPEATS // 2)
    order = random.Random(seed).sample(sorted(ref, key=int), len(ref))
    times, scaled, requests, traces = [], [], 0, []
    attempted = failed = mismatches = 0
    start = perf_counter()
    while attempted < MIN_SPECS or perf_counter() - start < seconds:
        spec_seed = order[attempted % len(order)]
        r = ref[spec_seed]
        attempted += 1
        data, elapsed, elapsed_scaled = run_cli(cli, w, int(spec_seed), out, speed)
        results = report_results(data)
        ok = (
            results is not None
            and results["pass"] is True
            and str(results["opt_cost"]) == r["opt_cost"]
        )
        if ok and trace:
            tr = matching_replay(w, int(spec_seed), results)
            ok = tr is not None
            if ok:
                traces.append((elapsed, len(data), tr))
        if not ok:
            failed += 1
            print(f"FAILED spec seed {spec_seed}", file=sys.stderr)
            continue
        times.append(elapsed)
        scaled.append(elapsed_scaled)
        requests += r["requests"]
        mismatches += hashlib.sha256(data).hexdigest() != r["report_sha256"]

    if not trace:
        setup += measure_setup(SETUP_REPEATS - len(setup))
    if not times:
        values = {}
    elif trace:
        values = traced_values(traces)
        values["cli.report_digest_mismatches"] = mismatches
    else:
        values = {
            "run_s": median(scaled),
            "requests_per_s": requests / sum(scaled),
            "setup_s": median(s for _, s in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            # the same times unscaled, and the host's speed while they ran
            "run_wall_s": median(times),
            "requests_per_wall_s": requests / sum(times),
            "setup_wall_s": median(t for t, _ in setup),
            "host_kernel_s": median(speed.samples),
        }
    key = "per_layer" if trace else "end_to_end"
    # when no spec passed, every metric reads 0 and the result is not correct
    metrics = {
        name: {"value": values[name] if times else 0.0, "unit": unit}
        for name, unit in metric_units()[key]
    }
    print_summary(w, seed, attempted, failed, mismatches, times, values, metrics)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_values(traces: list) -> dict:
    """Per-spec medians of stage times, by span and by role, and the first specs' counters."""
    import stages

    spans: dict[str, list[float]] = {}
    residual, overhead = [], []
    for run_s, _, tr in traces:
        per_spec: dict[str, float] = {}
        for name, t in tr.spans.items():
            for key in {name, stages.ROLES.get(name, name)}:
                per_spec[key] = per_spec.get(key, 0.0) + t
        for name, t in per_spec.items():
            spans.setdefault(name + "_s", []).append(t)
        stage_sum = sum(tr.spans.values())
        # what cmd_run does outside the replayed stages: argument parsing,
        # report building, JSON encoding and the file write
        residual.append(run_s - stage_sum)
        # traced total (replay + residual) minus untraced total (run_s)
        overhead.append(tr.wall_s - stage_sum)
    values = {name: median(ts) for name, ts in spans.items()}
    values["cli.residual_s"] = median(residual)
    values["trace_overhead_s"] = median(overhead)
    first = traces[:MIN_SPECS]
    for name in stages.COUNTERS:
        values[name] = median(tr.counters[name] for _, _, tr in first)
    values["cli.report_bytes"] = median(size for _, size, _ in first)
    return values


def print_summary(w, seed, attempted, failed, mismatches, times, values, metrics) -> None:
    """Human-readable lines before the JSON line."""
    import networkx

    spec = " ".join(f"--{key} {value}" for key, value in w.items())
    print(
        f"# kslab run {spec}  workload seed {seed}  "
        f"python {platform.python_version()}  networkx {networkx.__version__}"
    )
    if times:
        print(
            f"# wall time of one spec over {len(times)} specs: "
            f"min {min(times):.4f}  max {max(times):.4f}"
        )
    print(f"fail_ratio {failed / attempted:.4f} ratio ({failed}/{attempted} specs)")
    print(f"cli.report_digest_mismatches {mismatches} count")
    for name, value in sorted(values.items()):
        if name not in metrics:
            print(f"{name} {value:.6g}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cli = load_program()
    ref = json.loads(REFERENCE.read_text())[args.workload]
    work = BENCH / ".work"
    work.mkdir(exist_ok=True)
    result = measure(
        cli, WORKLOADS[args.workload], ref, args.seed, args.seconds,
        bool(args.trace), work / f"{args.workload}.json",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
