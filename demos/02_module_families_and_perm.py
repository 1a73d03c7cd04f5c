#!/usr/bin/env python3
"""Unit/module graph families, PERM, and why optimal play is forced.

A gamma-module graph wires two subset gadgets back to back.  Valid request
sequences grow one subset element per step, so exactly one server motion
costs 1 per request; every rival motion pays double somewhere.  Counting
the DP's optimal paths confirms the optimum is unique, which is the engine
of the treewidth advice lower bound: each of the (gamma!)^(n/(2 gamma))
valid sequences needs its own advice string.
"""
from kslab.adversary import (
    count_valid_sequences,
    enumerate_round_sequences,
    gb_decomposition,
    gb_graph,
    module_graph,
    module_graph_decomposition,
    module_layout,
    perm_algorithm,
    perm_init,
    treewidth_advice_bound,
    unit_graph,
)
from kslab.offline_solver import count_optimal_schedules
from kslab.tree_decomp import verify_decomposition

print("== unit graph, gamma = 3 ==")
g, layout = unit_graph(3)
print(f"vertices: {g.n} = 3 elements + {2**3 - 1} proper subsets")
empty = layout.w_by_mask[0]
print(f"the empty-set vertex {empty} is adjacent to all elements:",
      [g.has_edge(u, empty) for u in layout.u_ids])

print()
print("== module graph, gamma = 2, all four single-round sequences ==")
mg = module_graph(2)
init = perm_init(2)
for seq in enumerate_round_sequences(2):
    sched = perm_algorithm(mg, seq, init)
    opt_cost, count = count_optimal_schedules(mg, init, list(seq.requests))
    print(
        f"requests {seq.requests}: PERM pays {sched.total_cost}, "
        f"opt {opt_cost}, optimal schedules: {count}"
    )

print()
print("== the decompositions behind the width claim ==")
td = module_graph_decomposition(2)
print(
    f"module gamma=2: {td.num_bags} bags, all of size "
    f"{len(td.bags[0])}, width {td.width}, verifies:",
    bool(verify_decomposition(mg, td)),
)
gb = gb_graph(2, 2)
tdg = gb_decomposition(2, 2)
print(
    f"two modules + source: N={gb.n}, width {tdg.width}, verifies:",
    bool(verify_decomposition(gb, tdg)),
)

print()
print("== counting forces the advice lower bound ==")
print("gamma=2, n=8:", count_valid_sequences(2, 8), "valid sequences")
print("gamma=3, n=12:", count_valid_sequences(3, 12))
exact, closed = treewidth_advice_bound(8, 1000)
print(f"width 8, n=1000: exact count log = {exact:.1f} bits; "
      f"closed form (n/2)(log a - 1.22) = {closed:.1f} bits")
