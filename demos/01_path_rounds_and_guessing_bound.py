#!/usr/bin/env python3
"""Round instances on a 5-vertex path and the advice lower bound.

Two servers start on vertices 2 and 4 (1-based labels).  Each round of
seven requests opens with vertex 3 and then commits to side 1 or side 5:
an algorithm that guesses the side pays 4 for the round, one that guesses
wrong pays at least 6.  Guessing round types is exactly binary string
guessing, which is what makes sublinear advice useless here.
"""
from fractions import Fraction
from itertools import product

from kslab.adversary import (
    PATH_ROUND_INIT,
    extract_round_guesses,
    path_round_sequence,
    sgkh_advice_bound,
    sgkh_bound_per_opt_cost,
    sgkh_bound_per_request,
)
from kslab.instances import path_graph
from kslab.metric_core import all_pairs_shortest_paths
from kslab.offline_solver import count_optimal_schedules, opt_cost_dp

g = path_graph(5)
dm = all_pairs_shortest_paths(g)

print("== one round, both types, exhaustive lazy 2-server play ==")
for round_type in "01":
    sigma = path_round_sequence(round_type, 5)
    costs = {0: [], 1: []}
    for choices in product((0, 1), repeat=7):
        pos = list(PATH_ROUND_INIT)
        first = choices[0]
        cost = 0
        for sid, r in zip(choices, sigma):
            cost += abs(pos[sid] - r)
            pos[sid] = r
        costs[first].append(cost)
    print(
        f"type {round_type}: first move by left server -> min "
        f"{min(costs[0])}, by right server -> min {min(costs[1])}"
    )

print()
print("== the offline optimum pays 4 per round and reads the types ==")
bits = "10110"
sigma = path_round_sequence(bits, 5)
opt_cost, schedule = opt_cost_dp(g, PATH_ROUND_INIT, sigma, dm)
print(f"round types {bits}: opt cost {opt_cost} = 4 * {len(bits)}")
print("guesses recovered from the optimal schedule:",
      extract_round_guesses(PATH_ROUND_INIT, schedule, len(bits)))

print()
print("== the one optimal schedule resets to {2, 4} at round boundaries ==")
sigma = path_round_sequence("10", 5)
_, count = count_optimal_schedules(g, PATH_ROUND_INIT, sigma, dm)
_, sched = opt_cost_dp(g, PATH_ROUND_INIT, sigma, dm)
pos = list(PATH_ROUND_INIT)
boundaries = []
for m in sched.moves:
    pos[m.server] = m.dst
    if m.t % 7 == 6:
        boundaries.append(tuple(sorted(pos)))
assert count == 1
assert all(b == tuple(sorted(PATH_ROUND_INIT)) for b in boundaries)
print(f"round types 10: {count} optimal schedule, back on {{2, 4}} after "
      f"each of its {len(boundaries)} rounds")
print("its moves:", sched.move_triples())

print()
print("== advice needed per sequence length n, by target ratio ==")
print("tau      bits(n=10^6)   per request   per unit of opt cost")
for tau in (Fraction(6, 5), Fraction(7, 6), Fraction(9, 8), Fraction(5, 4)):
    total = sgkh_advice_bound(tau, 10**6)
    print(
        f"{str(tau):6}  {total:12.1f}   {sgkh_bound_per_request(tau):.7f}"
        f"     {sgkh_bound_per_opt_cost(tau):.7f}"
    )
print("(the bound collapses to 0 at 5/4 and climbs to n/7 as tau -> 1)")
