"""Exact-arithmetic paths that integer-weight suites never touch."""
import json
from fractions import Fraction

from kslab import metric_core
from kslab.cli import ALGOS, Instance, _canonical
from kslab.gpc import generate_advice, run_online
from kslab.instances import SplitMix64, random_distinct_vertices, random_requests
from kslab.metric_core import Graph, all_pairs_shortest_paths
from kslab.offline_solver import opt_cost_dp, opt_cost_flow
from kslab.spanner_cover import (
    HeavyPathIndex,
    certify_system,
    generate_advice_spanner,
    measure_min_stretch,
    run_online_spanner,
    shortest_path_tree,
    SpannerSystem,
)
from kslab.tree_decomp import reduce_height, verify_decomposition


def _fraction_graph(rng: SplitMix64, n: int):
    # random connected graph with weights in {1, 3/2, 2, 5/2, ..., 4}
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, 1 + Fraction(rng.randrange(7), 2)))
    for _ in range(n):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not any(
            {a, b} == {u, v} for a, b, _ in edges
        ):
            edges.append((u, v, 1 + Fraction(rng.randrange(7), 2)))
    return Graph(n, edges)


def test_distances_stay_exact_fractions():
    rng = SplitMix64(4242)
    g = _fraction_graph(rng, 12)
    dm = all_pairs_shortest_paths(g)
    kinds = {type(dm.dist[u][v]) for u in range(12) for v in range(12)}
    assert kinds <= {int, Fraction}
    for u in range(12):
        for v in range(12):
            assert dm.dist[u][v] * 2 == int(dm.dist[u][v] * 2)  # halves only


def test_flow_scaling_matches_dp_on_rational_weights():
    rng = SplitMix64(4243)
    for i in range(20):
        g = _fraction_graph(rng, 6 + rng.randrange(6))
        dm = all_pairs_shortest_paths(g)
        k = 1 + rng.randrange(2)
        init = random_distinct_vertices(rng, k, g.n)
        sigma = random_requests(rng, 1 + rng.randrange(10), g.n)
        c_dp, _ = opt_cost_dp(g, init, sigma, dm)
        c_fl, sched = opt_cost_flow(g, init, sigma, dm)
        assert c_dp == c_fl, f"instance {i}"
        assert sched.total_cost == c_fl


def test_flow_scale_reads_only_server_and_request_rows(monkeypatch):
    # the scale comes from the edge weights, so the flow computes the rows
    # of its servers and requests only, each once
    real = metric_core.single_source_distances
    sources = []

    def recorded(g, s):
        sources.append(s)
        return real(g, s)

    monkeypatch.setattr(metric_core, "single_source_distances", recorded)
    rng = SplitMix64(4247)
    g = _fraction_graph(rng, 40)
    init = random_distinct_vertices(rng, 2, g.n)
    sigma = random_requests(rng, 12, g.n)
    cost, sched = opt_cost_flow(g, init, sigma, all_pairs_shortest_paths(g))
    assert isinstance(cost, Fraction) and sched.total_cost == cost
    assert len(sources) == len(set(sources))
    assert set(sources) <= set(init) | set(sigma)


def test_flow_matches_dp_on_fraction_weights_with_int_distances():
    # each 5/2 chord is longer than the two unit edges beside it, so every
    # distance is an int although not every weight is: the flow scales its
    # costs by the weights' lcm denominator 2 all the same
    n = 11
    edges = [(v, v + 1, 1) for v in range(n - 1)]
    edges += [(v, v + 2, Fraction(5, 2)) for v in range(0, n - 2, 2)]
    g = Graph(n, edges)
    assert any(isinstance(w, Fraction) for _, _, w in g.edges)
    dm = all_pairs_shortest_paths(g)
    assert all(type(d) is int for v in range(g.n) for d in dm.dist[v])
    rng = SplitMix64(4245)
    for i in range(10):
        k = 1 + rng.randrange(3)
        init = random_distinct_vertices(rng, k, n)
        sigma = random_requests(rng, 1 + rng.randrange(12), n)
        c_dp, _ = opt_cost_dp(g, init, sigma, dm)
        c_fl, sched = opt_cost_flow(g, init, sigma, dm)
        assert c_dp == c_fl == sched.total_cost, f"instance {i}"
        assert type(c_fl) is int


def _rational_ktrees():
    """Ten partial 2-trees reweighted with halves, each with its
    decomposition, distances, servers, requests and OPT."""
    from kslab.instances import random_partial_ktree

    rng = SplitMix64(4244)
    for _ in range(10):
        n = 10 + rng.randrange(8)
        g_int, td = random_partial_ktree(rng, n, 2)
        # reweight the same edge set with halves
        edges = [
            (u, v, 1 + Fraction(rng.randrange(5), 2)) for u, v, _ in g_int.edges
        ]
        g = Graph(n, edges)
        dm = all_pairs_shortest_paths(g)
        init = random_distinct_vertices(rng, 2, n)
        sigma = random_requests(rng, 12, n)
        opt_c, opt_s = opt_cost_dp(g, init, sigma, dm)
        yield g, td, dm, init, sigma, opt_c, opt_s


def _rational_gpc_runs():
    for g, td, dm, init, sigma, opt_c, opt_s in _rational_ktrees():
        red = reduce_height(td, g.n)
        assert verify_decomposition(g, red)
        tape = generate_advice(g, dm, red, init, sigma, opt_s)
        tape.rewind()
        run = run_online(g, dm, red, init, sigma, tape)
        yield run, opt_c


def test_gpc_exact_on_rational_weights():
    for run, opt_c in _rational_gpc_runs():
        assert run.online_cost == opt_c
        assert isinstance(run.online_cost, (int, Fraction))


def _rational_spanner_runs():
    rng = SplitMix64(4245)
    g = _fraction_graph(rng, 14)
    dm = all_pairs_shortest_paths(g)
    trees = tuple(shortest_path_tree(g, r) for r in (0, 6, 13))
    q, _ = measure_min_stretch(g, dm, SpannerSystem(trees=trees))
    system = certify_system(g, dm, trees, q, 0)
    hp = [HeavyPathIndex(t) for t in system.trees]
    for _ in range(15):
        init = random_distinct_vertices(rng, 3, g.n)
        sigma = random_requests(rng, 15, g.n)
        opt_c, opt_s = opt_cost_dp(g, init, sigma, dm)
        tape = generate_advice_spanner(g, dm, system, init, sigma, opt_s)
        tape.rewind()
        run = run_online_spanner(g, system, hp, init, sigma, tape)
        yield run, opt_c, q, dm


def test_spanner_mu3_on_rational_weights():
    for run, opt_c, q, dm in _rational_spanner_runs():
        assert run.cost <= (q + 0) * opt_c
        for m in run.log:
            assert m.cost <= q * dm.dist[m.src][m.request]


def test_run_moves_are_already_jsonable():
    # the opt, gpc and spanner steps of `kslab run` spell their move lists
    # as JSON text that reads back as plain values and spells back
    # unchanged; opt's costs are num_to_json's (integral ones are ints),
    # gpc's and spanner's are str(cost).  The spanner trees are those
    # `kslab run --seed 3` roots.
    for algo in ("opt", "gpc", "spanner"):
        costs = []
        for g, td, dm, init, sigma, _, opt_s in _rational_ktrees():
            roots = random_distinct_vertices(SplitMix64(3 ^ 0xB0F5), 2, g.n)
            system = SpannerSystem(tuple(shortest_path_tree(g, r) for r in roots))
            inst = Instance(g, tuple(init), sigma, td, {}, system)
            extra = ALGOS[algo](inst, dm, opt_s)[2]
            text = (extra["schedule"] if algo == "opt" else extra)["moves"]
            moves = json.loads(text)
            assert _canonical(moves) == text + "\n"
            costs += [m["cost"] for m in moves]
        assert any("/" in c for c in costs if isinstance(c, str))  # Fractions occur
        if algo == "opt":
            assert any(type(c) is int for c in costs)
            assert all(type(c) is int or "/" in c for c in costs)
        else:
            assert all(isinstance(c, str) for c in costs)
