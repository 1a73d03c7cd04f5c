#!/usr/bin/env python3
"""Competitive service over a system of collective tree spanners.

Measure the stretch (q, r) a set of spanning trees actually certifies,
then reroute every optimal server leg through the best tree for that leg.
Each leg costs at most q*d + r, so the run stays within (q+r) times the
optimum; on a single exact tree (q=1, r=0) the run is exactly optimal.
Heavy-path ordinals address the parked least common ancestors in
O(log log N) bits per record.
"""
from kslab.instances import SplitMix64, grid_graph, random_distinct_vertices, random_requests
from kslab.metric_core import all_pairs_shortest_paths
from kslab.offline_solver import opt_cost_dp
from kslab.spanner_cover import (
    HeavyPathIndex,
    SpannerSystem,
    StretchClaimRejected,
    certify_system,
    generate_advice_spanner,
    measure_min_stretch,
    run_online_spanner,
    shortest_path_tree,
    spanner_bit_budget,
)

g = grid_graph(4, 4)
dm = all_pairs_shortest_paths(g)
trees = (shortest_path_tree(g, 0), shortest_path_tree(g, 15))

print("== measuring what two corner BFS trees certify on a 4x4 grid ==")
try:
    certify_system(g, dm, trees[:1], 1, 0)
    print("one tree, claim (1,0): ok")
except StretchClaimRejected as exc:
    print(f"one tree, claim (1,0): fails, "
          f"worst pair {exc.witness} off by {exc.excess}")
q, pair = measure_min_stretch(g, dm, SpannerSystem(trees=trees))
print(f"both trees: minimal q at r=0 is {q} (witness pair {pair})")
system = certify_system(g, dm, trees, q, 0)

print()
print("== 10 seeded runs against the exact optimum ==")
hp = [HeavyPathIndex(t) for t in system.trees]
rng = SplitMix64(1234)
for i in range(10):
    init = random_distinct_vertices(rng, 2, 16)
    sigma = random_requests(rng, 16, 16)
    opt_cost, opt_sched = opt_cost_dp(g, init, sigma, dm)
    tape = generate_advice_spanner(g, dm, system, init, sigma, opt_sched)
    tape.rewind()
    run = run_online_spanner(g, system, hp, init, sigma, tape)
    budget = spanner_bit_budget(system.mu, g.n, 2, len(sigma))
    print(
        f"run {i}: online {run.cost:>3} vs opt {opt_cost:>3} "
        f"(ratio {run.cost / opt_cost:.2f} <= q+r = {float(q):.0f}), "
        f"bits {run.bits_read}/{budget}"
        + (f", {run.suffix_bits} disambiguation bits" if run.suffix_bits else "")
    )

print()
print("== a single exact tree gives a 1-competitive run ==")
from kslab.instances import path_graph

gt = path_graph(9)
dmt = all_pairs_shortest_paths(gt)
tree = shortest_path_tree(gt, 0)
sys1 = certify_system(gt, dmt, (tree,), 1, 0)
hp1 = [HeavyPathIndex(tree)]
init = (0, 8)
sigma = random_requests(rng, 15, 9)
opt_cost, opt_sched = opt_cost_dp(gt, init, sigma, dmt)
tape = generate_advice_spanner(gt, dmt, sys1, init, sigma, opt_sched)
tape.rewind()
run = run_online_spanner(gt, sys1, hp1, init, sigma, tape)
print(f"path metric, mu=1: online {run.cost} == opt {opt_cost}; "
      f"{run.ambiguous_retrievals} retrievals needed the tie-break suffix")
