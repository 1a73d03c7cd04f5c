"""Record the results the benchmark checks every spec against.

    python3 bench/reference.py

For each workload and spec seed in the pool, run the spec through the CLI,
require that it passes, and record its exact `opt_cost`, the sha256 of its
report and its request count in `reference.json`.  Where both OPT routes
are feasible (grid-spanner), require that `opt_cost_dp` and `opt_cost_flow`
agree before recording.  The committed file is the baseline later code must
match: re-record only when a workload's definition changes.
"""
from __future__ import annotations

import hashlib
import json
import sys

import run

POOL = 40  # spec seeds 0..POOL-1 per workload
FLOW_CHECK_MAX_REQUESTS = 1000  # opt_cost_flow builds ~n^2/2 arcs


def opt_routes_agree(w: dict, seed: int) -> bool:
    """DP and flow give the same optimum, or only one route is feasible."""
    import stages
    from kslab.metric_core import all_pairs_shortest_paths
    from kslab.offline_solver import InstanceTooLarge, opt_cost_dp, opt_cost_flow

    g, init, sigma, _ = stages.build_instance(w, seed)
    if len(sigma) > FLOW_CHECK_MAX_REQUESTS:
        return True
    dm = all_pairs_shortest_paths(g)
    try:
        dp, _ = opt_cost_dp(g, init, sigma, dm)
    except InstanceTooLarge:
        return True
    flow, _ = opt_cost_flow(g, init, sigma, dm)
    return dp == flow


def make_reference(cli, w: dict, seeds, out) -> dict:
    ref = {}
    for seed in seeds:
        data, _, _ = run.run_cli(cli, w, seed, out)
        if data is None:
            raise SystemExit(f"spec seed {seed}: the run did not exit 0")
        report = json.loads(data)
        if report["results"]["pass"] is not True:
            raise SystemExit(f"spec seed {seed}: the report does not pass")
        if not opt_routes_agree(w, seed):
            raise SystemExit(f"spec seed {seed}: opt_cost_dp and opt_cost_flow differ")
        ref[str(seed)] = {
            "opt_cost": str(report["results"]["opt_cost"]),
            "report_sha256": hashlib.sha256(data).hexdigest(),
            "requests": len(report["instance"]["sequence"]),
        }
    return ref


def main() -> int:
    cli = run.load_program()
    work = run.BENCH / ".work"
    work.mkdir(exist_ok=True)
    ref = {}
    for name, w in run.WORKLOADS.items():
        ref[name] = make_reference(cli, w, range(POOL), work / "reference-run.json")
        print(f"{name}: {len(ref[name])} specs", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
