"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable.
"""
import json
import math
import time
from fractions import Fraction
from itertools import product

import pytest

from kslab.adversary import (
    PATH_ROUND_INIT,
    count_valid_sequences,
    enumerate_round_sequences,
    gb_decomposition,
    gb_graph,
    module_graph,
    module_graph_decomposition,
    path_round_sequence,
    perm_algorithm,
    perm_init,
    sgkh_advice_bound,
    sgkh_bound_per_opt_cost,
    sgkh_bound_per_request,
    treewidth_advice_bound,
    unit_graph,
)
from kslab.cli import main as cli_main
from kslab.gpc import generate_advice, gpc_bit_budget, run_online
from kslab.instances import (
    SplitMix64,
    grid_graph,
    path_graph,
    random_distinct_vertices,
    random_partial_ktree,
    random_requests,
)
from kslab.metric_core import Graph, all_pairs_shortest_paths
from kslab.offline_solver import count_optimal_schedules, opt_cost_dp
from kslab.spanner_cover import (
    HeavyPathIndex,
    SpannerSystem,
    certify_system,
    generate_advice_spanner,
    measure_min_stretch,
    run_online_spanner,
    shortest_path_tree,
    spanner_bit_budget,
)
from kslab.tree_decomp import (
    intersect_shortest_path,
    reduce_height,
    verify_decomposition,
)


def _report(num: int, started: float, text: str) -> None:
    print(f"\n[C{num}] PASS ({time.time() - started:.1f}s): {text}")


def test_c1_gpc_optimality_and_bit_budget():
    t0 = time.time()
    rng = SplitMix64(20260810)
    worst_bits = 0
    for i in range(200):
        n_vertices = 6 + rng.randrange(20)          # N <= 25
        width = 1 + rng.randrange(4)                # treewidth <= 4
        k = 1 + rng.randrange(3)                    # k <= 3
        g, td = random_partial_ktree(rng, n_vertices, width, max_weight=4)
        dm = all_pairs_shortest_paths(g)
        red = reduce_height(td, g.n)
        init = random_distinct_vertices(rng, k, g.n)
        sigma = random_requests(rng, 1 + rng.randrange(30), g.n)  # n <= 30
        opt_cost, opt_sched = opt_cost_dp(g, init, sigma, dm)
        tape = generate_advice(g, dm, red, init, sigma, opt_sched)
        tape.rewind()
        run = run_online(g, dm, red, init, sigma, tape)
        assert run.online_cost == opt_cost, f"instance {i}: not optimal"
        budget = gpc_bit_budget(red, k, len(sigma))
        assert run.bits_read <= budget, f"instance {i}: over budget"
        worst_bits = max(worst_bits, run.bits_read)
    _report(
        1,
        t0,
        "200 partial-k-tree instances served at exactly OPT cost; "
        f"bits always within (2n+k)(ceil(log(h+1))+ceil(log(w+1))), "
        f"max {worst_bits} bits",
    )


def test_c2_round_cost_dichotomy():
    t0 = time.time()
    g = path_graph(5)
    for round_type in "01":
        sigma = path_round_sequence(round_type, 5)
        by_first_move = {True: [], False: []}
        for choices in product((0, 1), repeat=7):
            pos = list(PATH_ROUND_INIT)
            first_left = choices[0] == 0  # server 0 starts left (vertex 1)
            cost = 0
            for sid, r in zip(choices, sigma):
                cost += abs(pos[sid] - r)
                pos[sid] = r
            by_first_move[first_left].append(cost)
        matched = round_type == "1"  # type 1 matches a left first move
        assert min(by_first_move[matched]) == 4
        assert min(by_first_move[not matched]) >= 6
    cost3, _ = opt_cost_dp(g, PATH_ROUND_INIT, path_round_sequence("101", 5))
    assert cost3 == 12
    _report(
        2,
        t0,
        "exhaustive lazy enumeration: matched first move costs 4, "
        "mismatched at least 6; three rounds cost 4m = 12",
    )


def test_c3_bound_function_theorem_values():
    t0 = time.time()
    n = 10**6
    assert sgkh_advice_bound(Fraction(5, 4), n) == 0.0
    # tau -> 1 limit approaches one bit per round, i.e. n/7
    assert abs(sgkh_advice_bound(1 + 1e-12, n) - n / 7) < 1.0
    # the published worked constants are the bound per unit of OPT cost
    # (OPT pays 4 per 7-request round); 6/5 reproduces to 1e-6
    assert abs(sgkh_bound_per_opt_cost(Fraction(6, 5)) - 0.007262) < 1e-6
    # 7/6 evaluates to 0.02042604...; the printed 0.020425 is off by
    # 1.04e-6 under the same normalization (frozen from a 40-digit check)
    assert abs(sgkh_bound_per_opt_cost(Fraction(7, 6)) - 0.0204260415) < 1e-9
    _report(
        3,
        t0,
        "0 at tau=5/4, n/7 in the tau->1 limit; published constants "
        "match per-OPT-cost normalization (0.007262 at 1e-6; the 7/6 "
        "constant's last digit is off in print, see as-stated xfail)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "criterion as stated is self-contradictory: with the theorem "
        "formula f(tau)*n/7 the per-request values are 0.0041499 and "
        "0.0116720, not 0.007262/0.020425; those constants equal f/4 "
        "(per unit of OPT cost), and even then the 7/6 value is "
        "0.0204260, off the printed 0.020425 by 1.04e-6"
    ),
)
def test_c3_published_constants_as_stated():
    assert abs(sgkh_bound_per_request(Fraction(6, 5)) - 0.007262) < 1e-6
    assert abs(sgkh_bound_per_request(Fraction(7, 6)) - 0.020425) < 1e-6


def test_c4_construction_fidelity():
    t0 = time.time()
    for gamma in (2, 3):
        g, _ = unit_graph(gamma)
        assert g.n == gamma + 2**gamma - 1
        mg = module_graph(gamma)
        td = module_graph_decomposition(gamma)
        assert verify_decomposition(mg, td)
        assert all(len(b) == 2 * gamma + 1 for b in td.bags)
        for m in (1, 2):
            gb = gb_graph(m, gamma)
            tdg = gb_decomposition(m, gamma)
            assert verify_decomposition(gb, tdg)
            assert tdg.width == 2 * gamma
    _report(
        4,
        t0,
        "unit graphs have gamma+2^gamma-1 vertices; module bags all have "
        "exactly 2*gamma+1 vertices; source-joined width equals 2*gamma",
    )


def test_c5_perm_optimality_and_uniqueness():
    t0 = time.time()
    g = module_graph(2)
    init = perm_init(2)
    rng = SplitMix64(55)
    checked = 0
    for rounds in (1, 2):
        for _ in range(4):
            perms = []
            for _ in range(rounds):
                p1 = list(range(2))
                p2 = list(range(2))
                rng.shuffle(p1)
                rng.shuffle(p2)
                perms.append(((tuple(p1), tuple(p2)),))
            from kslab.adversary import valid_sequence

            seq = valid_sequence(2, 1, tuple(perms))
            sched = perm_algorithm(g, seq, init)
            sigma = list(seq.requests)
            assert sched.total_cost == len(sigma)
            opt_cost, opt = opt_cost_dp(g, init, sigma)
            assert opt_cost == sched.total_cost
            count = count_optimal_schedules(g, init, sigma)
            assert count == (opt_cost, 1), "optimum must be unique"
            assert opt.move_triples() == sched.move_triples()
            checked += 1
    _report(
        5,
        t0,
        f"{checked} one- and two-round module instances: PERM cost equals "
        "sequence length equals OPT, and the DP counts exactly one optimal "
        "schedule (PERM's)",
    )


def test_c6_sequence_counting():
    t0 = time.time()
    seqs = {s.requests for s in enumerate_round_sequences(2)}
    assert len(seqs) == 4
    assert count_valid_sequences(2, 8) == 4  # (gamma!)^(n/(2 gamma)), n=8
    exact, closed = treewidth_advice_bound(8, 1000)
    assert abs(exact - (1000 / 8) * math.log2(24)) < 1e-9
    assert closed == (1000 / 2) * (math.log2(8) - 1.22)
    _report(
        6,
        t0,
        "gamma=2 single-round enumeration yields exactly 4 = (gamma!)^2 "
        "sequences; width-8 bound reports exact 573.12 and closed-form "
        "890.0 bits at n=1000",
    )


def test_c7_spanner_competitiveness():
    t0 = time.time()
    g = grid_graph(4, 4)
    dm = all_pairs_shortest_paths(g)
    trees = (shortest_path_tree(g, 0), shortest_path_tree(g, 15))
    q, _ = measure_min_stretch(g, dm, SpannerSystem(trees=trees))
    system = certify_system(g, dm, trees, q, 0)
    hp = [HeavyPathIndex(t) for t in system.trees]
    rng = SplitMix64(777)
    violations = 0
    for i in range(50):
        init = random_distinct_vertices(rng, 2, 16)
        sigma = random_requests(rng, 1 + rng.randrange(20), 16)  # n <= 20
        opt_cost, opt_sched = opt_cost_dp(g, init, sigma, dm)
        tape = generate_advice_spanner(g, dm, system, init, sigma, opt_sched)
        tape.rewind()
        run = run_online_spanner(g, system, hp, init, sigma, tape)
        if run.cost > (system.q + system.r) * opt_cost:
            violations += 1
        budget = spanner_bit_budget(system.mu, g.n, 2, len(sigma))
        assert run.bits_read <= budget, f"run {i}: {run.bits_read} > {budget}"
    assert violations == 0

    # mu = 1 on tree metrics: exact optimality
    rng = SplitMix64(778)
    from kslab.spanner_cover import spanning_tree_from_parent

    for case in range(12):
        if case == 0:
            gt = path_graph(9)
            parent = [None] + [v - 1 for v in range(1, 9)]
        else:
            n = 8 + rng.randrange(12)
            parent = [None]
            edges = []
            for v in range(1, n):
                p = rng.randrange(v)
                parent.append(p)
                edges.append((p, v, 1 + rng.randrange(3)))
            gt = Graph(n, edges)
        dmt = all_pairs_shortest_paths(gt)
        tree = spanning_tree_from_parent(gt, 0, parent)
        sys1 = certify_system(gt, dmt, (tree,), 1, 0)
        hp1 = [HeavyPathIndex(tree)]
        init = random_distinct_vertices(rng, 2, gt.n)
        sigma = random_requests(rng, 12, gt.n)
        opt_cost, opt_sched = opt_cost_dp(gt, init, sigma, dmt)
        tape = generate_advice_spanner(gt, dmt, sys1, init, sigma, opt_sched)
        tape.rewind()
        run = run_online_spanner(gt, sys1, hp1, init, sigma, tape)
        assert run.cost == opt_cost, f"tree case {case}: not exact"
    _report(
        7,
        t0,
        f"50 grid runs within (q+r)*OPT with q={system.q}, r=0, zero "
        "violations, bits within the log-log budget; 12 single-tree "
        "metrics served at exactly OPT",
    )


def test_c8_path_bag_intersection_property():
    t0 = time.time()
    rng = SplitMix64(888)
    done = 0
    while done < 100:
        g, td = random_partial_ktree(
            rng, 8 + rng.randrange(20), 1 + rng.randrange(4)
        )
        dm = all_pairs_shortest_paths(g)
        x = rng.randrange(g.n)
        y = rng.randrange(g.n)
        bx, by = td.representative_bag[x], td.representative_bag[y]
        anc = td.lca_bag(bx, by)
        path_bags = []
        b = bx
        while b != anc:
            path_bags.append(b)
            b = td.parent[b]
        path_bags.append(anc)
        tail = []
        b = by
        while b != anc:
            tail.append(b)
            b = td.parent[b]
        path_bags.extend(reversed(tail))
        bag = path_bags[rng.randrange(len(path_bags))]
        z = intersect_shortest_path(dm, td, x, y, bag)  # must not raise
        assert z in td.bags[bag]
        assert dm.dist[x][z] + dm.dist[z][y] == dm.dist[x][y]
        done += 1
    _report(
        8,
        t0,
        "100 (graph, decomposition, pair) triples: every bag on the tree "
        "path intersects the canonical shortest path",
    )


def test_c9_height_reduction():
    t0 = time.time()
    rng = SplitMix64(999)
    for i in range(200):
        n = 10 + rng.randrange(51)  # N <= 60
        width = 1 + rng.randrange(4)
        g, td = random_partial_ktree(rng, n, width)
        red = reduce_height(td, g.n)
        assert verify_decomposition(g, red), f"case {i}"
        assert red.width <= 3 * td.width + 2, f"case {i}: width"
        assert red.height <= 4 * math.ceil(math.log2(g.n)), f"case {i}: height"
    _report(
        9,
        t0,
        "200 random decompositions rebalanced: axioms hold, width within "
        "3a+2, height within 4*ceil(log2 N)",
    )


def test_c10_determinism(tmp_path):
    t0 = time.time()
    commands = [
        ["run", "--family", "random-ktree", "--size", "18", "--k", "2",
         "--n", "15", "--seed", "42", "--algo", "gpc"],
        ["run", "--family", "grid", "--size", "4", "--k", "2", "--n", "14",
         "--seed", "42", "--algo", "spanner"],
        ["run", "--family", "module", "--gamma", "2", "--rounds", "2",
         "--seed", "42", "--algo", "perm"],
        ["bounds", "--tau", "6/5,7/6,5/4", "--n", "1000000"],
    ]
    for idx, cmd in enumerate(commands):
        a = tmp_path / f"{idx}a.out"
        b = tmp_path / f"{idx}b.out"
        assert cli_main(cmd + ["--out", str(a)]) == 0
        assert cli_main(cmd + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"command {idx} not stable"
    _report(
        10,
        t0,
        "repeating four seeded commands produced byte-identical reports",
    )


# The advice sandwich on the gb family, 4 rounds, seed 1: (gamma, modules,
# the tape bits the run reads).  That is 10.31 bits per request at
# gamma = 2 and 14.44 beyond, against a lower bound below one bit.
ADVICE_SANDWICH = [(2, 1, 330), (3, 2, 1386), (4, 1, 924), (5, 2, 2310), (6, 2, 2772)]


@pytest.mark.parametrize("gamma,modules,bits", ADVICE_SANDWICH)
def test_gb_advice_between_lower_bound_and_budget(tmp_path, gamma, modules, bits):
    out = tmp_path / "report.json"
    argv = ["run", "--family", "gb", "--gamma", str(gamma), "--modules",
            str(modules), "--rounds", "4", "--seed", "1", "--algo", "gpc"]
    assert cli_main(argv + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    results = report["results"]
    n = len(report["instance"]["sequence"])
    assert results["pass"] is True
    assert results["online_cost"] == results["opt_cost"]
    lower, _ = treewidth_advice_bound(2 * gamma, n)
    assert lower <= results["bits_read"] == results["bit_budget"] == bits
    assert report["tape_bits"] == bits
