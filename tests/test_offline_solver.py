from fractions import Fraction
from heapq import heappop, heappush
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kslab.adversary import (
    PATH_ROUND_INIT,
    path_round_sequence,
    module_graph,
    perm_init,
    valid_sequence,
)
from kslab.instances import (
    SplitMix64,
    path_graph,
    random_distinct_vertices,
    random_partial_ktree,
    random_requests,
)
from kslab import offline_solver
from kslab.metric_core import Graph, all_pairs_shortest_paths
from kslab.offline_solver import (
    FlowDecodeError,
    InstanceTooLarge,
    InvalidSchedule,
    Move,
    Schedule,
    count_optimal_schedules,
    opt_cost_dp,
    opt_cost_flow,
    validate_lazy_schedule,
)


def test_empty_sequence():
    g = path_graph(5)
    assert opt_cost_dp(g, (1, 3), [])[0] == 0
    assert opt_cost_flow(g, (1, 3), [])[0] == 0


def test_single_round_costs_four():
    g = path_graph(5)
    cost, sched = opt_cost_dp(g, PATH_ROUND_INIT, path_round_sequence("1", 5))
    assert cost == 4
    dm = all_pairs_shortest_paths(g)
    validate_lazy_schedule(dm, PATH_ROUND_INIT, path_round_sequence("1", 5), sched)


def test_module_round_costs_4_gamma():
    g = module_graph(2)
    seq = valid_sequence(2, 1, (((((0, 1), (0, 1))),),))
    cost, _ = opt_cost_dp(g, perm_init(2), list(seq.requests))
    assert cost == 8  # 4 * gamma per round


def test_three_rounds_cost_4m():
    g = path_graph(5)
    sigma = path_round_sequence("101", 5)
    cost, _ = opt_cost_flow(g, PATH_ROUND_INIT, sigma)
    assert cost == 12


def test_guard():
    g = path_graph(20)
    with pytest.raises(InstanceTooLarge):
        opt_cost_dp(g, tuple(range(6)), list(range(20)) * 50)


def test_count_runs_under_the_dp_guard():
    g = path_graph(20)
    with pytest.raises(InstanceTooLarge, match="count_optimal_schedules"):
        count_optimal_schedules(g, tuple(range(6)), list(range(20)) * 50)


def test_all_schedules_single_server():
    g = path_graph(4)
    assert count_optimal_schedules(g, (0,), [2]) == (2, 1)


def test_all_schedules_symmetric_pair():
    # either server may serve the middle vertex at cost 1
    g = path_graph(5)
    dm = all_pairs_shortest_paths(g)
    assert count_optimal_schedules(g, (1, 3), [2], dm) == (1, 2)
    scheds = _oracle_all_schedules(g.n, dm.dist, (1, 3), [2])
    assert {s.move_triples() for s in scheds} == {((0, 1, 2),), ((0, 3, 2),)}


def test_flow_matches_dp_on_random_instances():
    rng = SplitMix64(404)
    for i in range(100):
        n_v = 5 + rng.randrange(8)  # N <= 12
        k = 1 + rng.randrange(3)
        g, _ = random_partial_ktree(rng, n_v, 1 + rng.randrange(3), max_weight=5)
        dm = all_pairs_shortest_paths(g)
        init = random_distinct_vertices(rng, k, g.n)
        sigma = random_requests(rng, 1 + rng.randrange(15), g.n)
        c_dp, s_dp = opt_cost_dp(g, init, sigma, dm)
        c_fl, s_fl = opt_cost_flow(g, init, sigma, dm)
        assert c_dp == c_fl, f"instance {i}: dp {c_dp} != flow {c_fl}"
        validate_lazy_schedule(dm, init, sigma, s_dp)
        validate_lazy_schedule(dm, init, sigma, s_fl)
        assert s_dp.total_cost == c_dp
        assert s_fl.total_cost == c_dp


def test_lazification_never_costs_more():
    # dropping parking moves and serving straight from the previous serve
    # position can only shorten a run (triangle inequality, per server)
    from kslab.gpc import generate_advice, run_online
    from kslab.tree_decomp import reduce_height

    rng = SplitMix64(606)
    for _ in range(15):
        g, td = random_partial_ktree(rng, 8 + rng.randrange(12), 2, max_weight=5)
        dm = all_pairs_shortest_paths(g)
        red = reduce_height(td, g.n)
        init = random_distinct_vertices(rng, 2, g.n)
        sigma = random_requests(rng, 15, g.n)
        opt_c, opt_s = opt_cost_dp(g, init, sigma, dm)
        tape = generate_advice(g, dm, red, init, sigma, opt_s)
        tape.rewind()
        run = run_online(g, dm, red, init, sigma, tape)
        validate_lazy_schedule(dm, init, sigma, opt_s)
        lazy_cost = opt_s.total_cost
        assert lazy_cost <= run.online_cost
        assert lazy_cost == opt_c  # relays sit on shortest paths: equality


def test_all_schedules_contains_dp_schedule_and_is_minimal():
    rng = SplitMix64(405)
    for _ in range(25):
        g, _ = random_partial_ktree(rng, 5 + rng.randrange(5), 2)
        dm = all_pairs_shortest_paths(g)
        init = random_distinct_vertices(rng, 2, g.n)
        sigma = random_requests(rng, 1 + rng.randrange(8), g.n)
        cost, sched = opt_cost_dp(g, init, sigma, dm)
        everything = _oracle_all_schedules(g.n, dm.dist, init, sigma)
        assert all(s.total_cost == cost for s in everything)
        assert sched.move_triples() in {s.move_triples() for s in everything}
        # enumerated schedules are pairwise distinct, and all of them counted
        triples = [s.move_triples() for s in everything]
        assert len(triples) == len(set(triples))
        assert count_optimal_schedules(g, init, sigma, dm) == (cost, len(triples))


def _tampered_flow(monkeypatch, tamper):
    real = offline_solver._flow_units

    def fake(init, sigma, rows, ends, big):
        cost, succ = real(init, sigma, rows, ends, big)
        return tamper(cost, succ)

    monkeypatch.setattr(offline_solver, "_flow_units", fake)


def test_flow_decode_checks_cost(monkeypatch):
    _tampered_flow(monkeypatch, lambda cost, succ: (cost + 1, succ))
    with pytest.raises(FlowDecodeError, match="schedule costs 3, flow costs 4"):
        opt_cost_flow(path_graph(5), (0, 4), [2, 3])


def test_flow_decode_checks_coverage(monkeypatch):
    ri_0 = 3  # node ids: S, the 2 server nodes, then request 0's in-node

    def drop_first_request(cost, succ):
        return cost, [None if v == ri_0 else v for v in succ]

    _tampered_flow(monkeypatch, drop_first_request)
    with pytest.raises(FlowDecodeError, match="cover request t=0"):
        opt_cost_flow(path_graph(5), (0, 4), [2, 3])


def _network_simplex_cost(dm, init, sigma):
    """OPT by networkx's network simplex on the node-split request graph,
    the request arcs' lower bound of 1 moved into node demands."""
    import networkx as nx

    k, n = len(init), len(sigma)
    if n == 0:
        return 0
    dist = dm.dist
    scale = lcm(*(d.denominator for v in range(dm.g.n) for d in dist[v]), 1)
    G = nx.DiGraph()
    G.add_node("S", demand=-k)
    G.add_node("T", demand=k)
    for i in range(k):
        G.add_edge("S", ("s", i), capacity=1, weight=0)
        G.add_edge(("s", i), "T", capacity=1, weight=0)
    for t in range(n):
        G.add_node(("ri", t), demand=1)
        G.add_node(("ro", t), demand=-1)
        G.add_edge(("ro", t), "T", capacity=1, weight=0)
        for i in range(k):
            w = dist[init[i]][sigma[t]] * scale
            G.add_edge(("s", i), ("ri", t), capacity=1, weight=int(w))
        for u in range(t + 1, n):
            w = dist[sigma[t]][sigma[u]] * scale
            G.add_edge(("ro", t), ("ri", u), capacity=1, weight=int(w))
    return Fraction(nx.network_simplex(G)[0], scale)


# A general min-cost flow on an explicit arc list: the oracle for the
# schedules of `opt_cost_flow`, which never builds its arcs.
def _min_cost_flow(n_nodes: int, arcs, k: int) -> tuple[int, list[int]]:
    """Exact min-cost flow of value k from node 0 to node n_nodes - 1.

    `arcs` holds (tail, head, cost) triples of capacity 1 with int costs,
    negative ones allowed.  Node ids must be a topological order (tail <
    head), every node must be reachable from node 0, and k arc-disjoint
    paths must reach the sink.  Returns the flow cost and each arc's flow
    (0 or 1) in the order of `arcs`.

    k successive shortest paths: one forward pass over the DAG gives exact
    shortest distances from node 0, which are feasible potentials, and the
    predecessor arcs it records are the first unit's shortest path, so unit
    1 needs no search.  Each later unit goes along a heap-Dijkstra shortest
    path in the (nonnegative) reduced costs of the residual network.  The
    pass keeps the first arc, in tail order, that reaches a node's
    distance, which is the arc that a Dijkstra from node 0 on these
    potentials would pick, since it settles every node at 0 in id order.
    """
    sink = n_nodes - 1
    to: list[int] = []  # arc e and its reverse e ^ 1
    cap: list[int] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for u, v, c in arcs:
        adj[u].append(len(to))
        to.append(v)
        cap.append(1)
        cost.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
        cost.append(-c)
    inf = float("inf")  # "not reached" sentinel; never enters a sum
    pot: list = [inf] * n_nodes
    pot[0] = 0
    prev = [0] * n_nodes
    for u in range(n_nodes):
        for e in adj[u]:
            if cap[e] and pot[u] + cost[e] < pot[to[e]]:
                pot[to[e]] = pot[u] + cost[e]
                prev[to[e]] = e
    for unit in range(k):
        if unit:
            dist: list = [inf] * n_nodes
            prev = [0] * n_nodes
            dist[0] = 0
            heap = [(0, 0)]
            while heap:
                d, u = heappop(heap)
                if d > dist[u]:
                    continue
                if u == sink:
                    break
                base = d + pot[u]
                for e in adj[u]:
                    if cap[e]:
                        v = to[e]
                        nd = base + cost[e] - pot[v]
                        if nd < dist[v]:
                            dist[v] = nd
                            prev[v] = e
                            heappush(heap, (nd, v))
            # Nodes left unsettled (or unreached) get the sink's distance,
            # which keeps every residual reduced cost nonnegative.
            reach = dist[sink]
            for v in range(n_nodes):
                pot[v] += dist[v] if dist[v] < reach else reach
        v = sink
        while v:
            e = prev[v]
            cap[e] -= 1
            cap[e ^ 1] += 1
            v = to[e ^ 1]
    flow = cap[1::2]
    return sum(c * f for (_, _, c), f in zip(arcs, flow)), flow


def _sparse_arcs(dist, init, sigma, scale):
    """The arc list and B of the pruned request DAG on opt_cost_flow's node
    ids: into ri_t one arc per server and one from the latest earlier
    request at each distinct vertex."""
    k, n = len(init), len(sigma)
    # Nodes: S = 0, s_i = 1 + i, ri_t = k + 1 + 2t, ro_t = ri_t + 1, T last.
    sink = k + 1 + 2 * n
    arcs = [(0, 1 + i, 0) for i in range(k)]
    arcs += [(1 + i, sink, 0) for i in range(k)]
    big = 1  # B: 1 + the sum over requests of the costliest arc into ri_t
    last: dict[int, int] = {}  # vertex -> its latest request so far, oldest first
    for t, r in enumerate(sigma):
        ri = k + 1 + 2 * t
        dr = dist[r]
        into = [int(dr[x] * scale) for x in init]
        into += [int(dr[y] * scale) for y in last]
        big += max(into)
        arcs += [(1 + i, ri, into[i]) for i in range(k)]
        arcs += [
            (k + 2 + 2 * u, ri, c) for u, c in zip(last.values(), into[k:])
        ]
        arcs.append((ri + 1, sink, 0))
        last.pop(r, None)
        last[r] = t
    arcs += [(k + 1 + 2 * t, k + 2 + 2 * t, -big) for t in range(n)]
    return arcs, big


def _dense_arcs(dist, init, sigma, scale):
    """The arc list and B of the full request DAG, an arc from every request
    to every later one: the network whose arcs `opt_cost_flow` prunes."""
    k, n = len(init), len(sigma)

    def w(x, y):
        return int(dist[x][y] * scale)

    sink = k + 1 + 2 * n
    big = 1 + sum(
        max(w(x, r) for x in (*init, *sigma[:t])) for t, r in enumerate(sigma)
    )
    arcs = [(0, 1 + i, 0) for i in range(k)] + [(1 + i, sink, 0) for i in range(k)]
    for t, r in enumerate(sigma):
        ri = k + 1 + 2 * t
        arcs += [(1 + i, ri, w(x, r)) for i, x in enumerate(init)]
        arcs += [(k + 2 + 2 * u, ri, w(sigma[u], r)) for u in range(t)]
        arcs += [(ri, ri + 1, -big), (ri + 1, sink, 0)]
    return arcs, big


def _arc_list_flow(dm, init, sigma, build, scale):
    """OPT and its schedule from `_min_cost_flow` on the arcs `build` makes,
    on opt_cost_flow's node ids."""
    k, n = len(init), len(sigma)
    dist = dm.dist
    arcs, big = build(dist, init, sigma, scale)
    sink = k + 1 + 2 * n
    cost, flow = _min_cost_flow(sink + 1, arcs, k)
    succ = {u: v for (u, v, _), f in zip(arcs, flow) if f}
    server_of = {}
    for i in range(k):
        v = succ[1 + i]
        while v != sink:
            t, is_ro = divmod(v - k - 1, 2)
            if not is_ro:
                server_of[t] = i
            v = succ[v]
    positions, moves = list(init), []
    for t, r in enumerate(sigma):
        i = server_of[t]
        src = positions[i]
        moves.append(Move(t=t, server=i, src=src, dst=r, cost=dist[src][r]))
        positions[i] = r
    total = Fraction(cost + n * big, scale)
    return total, Schedule(moves=moves, total_cost=total)


def _dense_flow_cost(dm, init, sigma):
    """OPT and its schedule from the min-cost flow on the full request DAG."""
    scale = lcm(*(d.denominator for v in range(dm.g.n) for d in dm.dist[v]), 1)
    return _arc_list_flow(dm, init, sigma, _dense_arcs, scale)


@st.composite
def _small_instances(draw, max_servers=3, max_requests=8):
    """Connected graphs on <= 7 vertices with weights in {1, 3/2, ..., 4},
    1..max_servers servers (init vertices may repeat) and up to
    max_requests requests (empty and occupied vertices included)."""
    n_v = draw(st.integers(2, 7))
    weight = st.integers(2, 8).map(lambda h: Fraction(h, 2))
    edges = {(draw(st.integers(0, v - 1)), v): draw(weight) for v in range(1, n_v)}
    vertex = st.integers(0, n_v - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=6)):
        if u < v:
            edges.setdefault((u, v), draw(weight))
    g = Graph(n_v, [(u, v, w) for (u, v), w in edges.items()])
    init = tuple(draw(st.lists(vertex, min_size=1, max_size=max_servers)))
    sigma = draw(st.lists(vertex, max_size=max_requests))
    return g, init, sigma


@settings(max_examples=150, deadline=None)
@given(_small_instances())
@example((path_graph(5), (2, 2, 0), [2, 0, 4, 2, 4, 0]))  # repeats, occupied
@example((Graph(3, [(0, 1, Fraction(3, 2)), (1, 2, 2)]), (1, 1), []))
def test_flow_matches_dp_and_network_simplex(instance):
    g, init, sigma = instance
    dm = all_pairs_shortest_paths(g)
    c_fl, s_fl = opt_cost_flow(g, init, sigma, dm)
    c_dp, _ = opt_cost_dp(g, init, sigma, dm)
    assert c_fl == c_dp == _network_simplex_cost(dm, init, sigma)
    validate_lazy_schedule(dm, init, sigma, s_fl)
    assert s_fl.total_cost == c_fl


@settings(max_examples=200, deadline=None)
@given(_small_instances(max_servers=4, max_requests=14))
@example((path_graph(5), (2, 2, 0), [2, 0, 4, 2, 4, 0, 0, 2, 4, 4]))
@example((path_graph(4), (3, 3, 3), [0, 3, 0, 3, 1, 0, 1, 3]))
def test_sparse_flow_matches_dense_flow_and_dp(instance):
    g, init, sigma = instance
    dm = all_pairs_shortest_paths(g)
    c_fl, s_fl = opt_cost_flow(g, init, sigma, dm)
    c_dense, s_dense = _dense_flow_cost(dm, init, sigma)
    assert c_fl == c_dense == opt_cost_dp(g, init, sigma, dm)[0]
    validate_lazy_schedule(dm, init, sigma, s_fl)
    validate_lazy_schedule(dm, init, sigma, s_dense)


@settings(max_examples=200, deadline=None)
@given(_small_instances(max_servers=4, max_requests=14))
@example((path_graph(5), (2, 2, 0), [2, 0, 4, 2, 4, 0, 0, 2, 4, 4]))
@example((path_graph(4), (3, 3, 3), [0, 3, 0, 3, 1, 0, 1, 3]))
def test_flow_schedule_matches_arc_list_oracle(instance):
    # the implicit network breaks ties by node id, as the arc-list solver
    # does on the same arcs, so its schedule is the same move for move
    g, init, sigma = instance
    dm = all_pairs_shortest_paths(g)
    _, sched = opt_cost_flow(g, init, sigma, dm)
    # opt_cost_flow's scale: the lcm of the edge weights' denominators
    scale = lcm(*(w.denominator for _, _, w in g.edges if isinstance(w, Fraction)), 1)
    _, oracle = _arc_list_flow(dm, init, sigma, _sparse_arcs, scale)
    assert _moves(sched) == _moves(oracle)


@pytest.mark.parametrize("n_v,k,n", [(60, 3, 60), (40, 4, 120)])
def test_flow_schedule_matches_arc_list_oracle_on_larger_instances(n_v, k, n):
    rng = SplitMix64(408 + n_v)
    g, _ = random_partial_ktree(rng, n_v, 3, max_weight=9)
    dm = all_pairs_shortest_paths(g)
    init = random_distinct_vertices(rng, k, g.n)
    sigma = random_requests(rng, n, g.n)
    _, sched = opt_cost_flow(g, init, sigma, dm)
    _, oracle = _arc_list_flow(dm, init, sigma, _sparse_arcs, 1)
    assert _moves(sched) == _moves(oracle)
    _assert_units_match_heap(g, init, sigma, dm)


# The all-heap `_flow_units`: unit 1 from a forward pass over the DAG and
# every later unit by heap Dijkstra, the +B reverse arcs and the branch
# for an uncovered request included.  The oracle for the closed-form
# first unit, the one-scan second unit and the Dijkstra without B arcs.
def _heap_flow_units(init, sigma, rows, ends, big) -> tuple[int, list]:
    """Min-cost flow of value k = len(init) on `opt_cost_flow`'s implicit
    network, given rows[t], the scaled metric row of sigma[t], the ranges
    `ends` and B = big.  Returns the flow cost and succ: succ[v] (pred[v])
    is the head (tail) of the arc out of (into) v that carries a unit, None
    if none does; S and T aside, a node carries at most one.

    Unit 1 follows the predecessors of one forward pass over the DAG in
    node order: exact distances from S, so feasible potentials, and the
    first arc to reach a node's distance is the one a Dijkstra from S on
    them would pick, as it settles every node at 0 in id order.  Units 2..k
    go along heap-Dijkstra shortest paths in the reduced costs.  The costs
    of the arcs from s_i and ro_t to the ri nodes are read off the rows
    into one list per node before the first pass, and both passes relax
    them in plain loops.  A heap entry is the one int nd << b | v, b the
    bit length of T's id, which orders as (nd, v) does, negative nd too.
    """
    k = len(init)
    ri0 = k + 1  # ri_t = ri0 + 2t, ro_t = ri_t + 1
    sink = ri0 + 2 * len(sigma)
    vert = [None, *init, *(y for y in sigma for _ in ("ri", "ro"))]  # node -> vertex
    succ: list = [None] * (sink + 1)
    pred: list = [None] * (sink + 1)
    # out_costs[u]: the costs of u's arcs to its ri nodes, in head order,
    # ri_0 .. ri_{n-1} from s_i and ri_{t+1} .. ri_{ends[t]} from ro_t
    out_costs: list = [None] * sink
    for u in range(1, ri0):
        out_costs[u] = [row[vert[u]] for row in rows]
    for t, row in enumerate(rows):
        out_costs[ri0 + 2 * t + 1] = [row[y] for y in sigma[t + 1:ends[t] + 1]]

    inf = float("inf")  # "not reached" sentinel; never enters a sum
    pot: list = [0] * ri0 + [inf] * (sink + 1 - ri0)  # S's arcs cost 0
    prev = [0] * (sink + 1)
    for u in range(1, sink):
        base = pot[u]
        costs = out_costs[u]
        if costs is None:  # ri_t: its one arc, to ro_t
            if base - big < pot[u + 1]:
                pot[u + 1] = base - big
                prev[u + 1] = u
            continue
        if base < pot[sink]:
            pot[sink] = base
            prev[sink] = u
        v = ri0 if u < ri0 else u + 1  # the first head; heads step by 2
        for c in costs:
            if base + c < pot[v]:
                pot[v] = base + c
                prev[v] = u
            v += 2
    shift = sink.bit_length()
    mask = (1 << shift) - 1
    cost = 0
    for unit in range(k):
        if unit:
            dist: list = [inf] * (sink + 1)
            dist[0] = 0
            heap = [0]
            while heap:
                key = heappop(heap)
                u = key & mask
                d = key >> shift
                if d > dist[u]:
                    continue
                if u == sink:
                    break
                base = d + pot[u]
                costs = out_costs[u]
                if costs is not None:
                    # s_i or ro_t: the ri nodes but succ[u], whose arc
                    # carries a unit, then T and ro_t's reverse arc
                    full = succ[u]
                    v = ri0 if u < ri0 else u + 1
                    for c in costs:
                        nd = base + c - pot[v]
                        if nd < dist[v] and v != full:
                            dist[v] = nd
                            prev[v] = u
                            heappush(heap, nd << shift | v)
                        v += 2
                    arcs = () if full == sink else ((sink, 0),)
                    p = pred[u] if u > ri0 else None
                    if p is not None:
                        arcs += ((p, big),)
                elif u:  # ri_t: the reverse arc to its tail, else to ro_t
                    p = pred[u]
                    if p is None:
                        arcs = ((u + 1, -big),)
                    else:
                        arcs = ((p, -rows[(u - ri0) >> 1][vert[p]]),)
                else:  # S: the servers that carry no unit yet
                    arcs = [(v, 0) for v in range(1, ri0) if succ[v] is None]
                for v, c in arcs:
                    nd = base + c - pot[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev[v] = u
                        heappush(heap, nd << shift | v)
            # Nodes left unsettled (or unreached) get the sink's distance,
            # which keeps every residual reduced cost nonnegative.
            reach = dist[sink]
            for v, dv in enumerate(dist):
                pot[v] += dv if dv < reach else reach
        cost += pot[sink]
        v = sink
        while v:
            u = prev[v]
            if u < v:  # a forward arc: it carries this unit
                succ[u] = v
                pred[v] = u
            else:  # the reverse of v -> u: that arc's unit is cancelled
                if succ[v] == u:
                    succ[v] = None
                if pred[u] == v:
                    pred[u] = None
            v = u
    return cost, succ


def _assert_units_match_heap(g, init, sigma, dm):
    """`_flow_units` returns the heap oracle's (cost, succ) on the
    arguments `opt_cost_flow` passes it."""
    seen = []
    real = offline_solver._flow_units

    def spy(*args):
        seen.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(offline_solver, "_flow_units", spy)
        opt_cost_flow(g, init, sigma, dm)
    scale = lcm(*(w.denominator for _, _, w in g.edges if isinstance(w, Fraction)), 1)
    for args in seen:  # none for an empty sigma
        assert real(*args) == _heap_flow_units(*args)
        assert args[4] == _sparse_arcs(dm.dist, init, sigma, scale)[1]  # B


@settings(max_examples=300, deadline=None)
@given(_small_instances(max_servers=4, max_requests=14))
@example((path_graph(5), (2, 2, 0), [2, 0, 4, 2, 4, 0, 0, 2, 4, 4]))  # repeated init
@example((path_graph(4), (0, 3, 1, 2), [3, 0]))  # k > n
@example((Graph(3, [(0, 1, Fraction(3, 2)), (1, 2, 2)]), (1, 1, 0), [0, 2, 1, 0, 2]))
@example((path_graph(3), (0, 2, 2, 0), [1, 0, 2, 1, 1, 0, 2, 1]))  # all ties
@example((path_graph(3), (1,), [1, 1]))  # B over the one server's vertex
def test_flow_units_match_the_heap_oracle(instance):
    g, init, sigma = instance
    _assert_units_match_heap(g, init, sigma, all_pairs_shortest_paths(g))


def test_first_two_units_push_nothing_onto_a_heap(monkeypatch):
    from kslab import cli

    pushes = []

    def counting(heap, key):
        pushes.append(key)
        heappush(heap, key)

    monkeypatch.setattr(offline_solver, "heappush", counting)
    rng = SplitMix64(409)
    g, _ = random_partial_ktree(rng, 40, 3, max_weight=9)
    sigma = random_requests(rng, 120, g.n)
    for k in (1, 2):
        opt_cost_flow(g, random_distinct_vertices(rng, k, g.n), sigma)
        assert pushes == [], f"k = {k}"
    # the ktree-gpc benchmark spec at seed 1: only unit 3 uses the heap
    args = cli.make_parser().parse_args(
        ["run", "--family", "random-ktree", "--size", "250", "--k", "3",
         "--n", "300", "--seed", "1", "--algo", "gpc"]
    )
    g, init, sigma = cli._build_instance(args)[:3]
    opt_cost_flow(g, init, sigma)
    assert 0 < len(pushes) < 8000


def test_flow_feeds_each_request_from_one_arc_per_vertex(monkeypatch):
    # ro_u feeds ri_t for u < t <= ends[u]: into ri_t go one arc per server
    # and one per distinct earlier requested vertex, from its latest request
    seen = []
    real = offline_solver._flow_units

    def spy(init, sigma, rows, ends, big):
        seen.append(ends)
        return real(init, sigma, rows, ends, big)

    monkeypatch.setattr(offline_solver, "_flow_units", spy)
    rng = SplitMix64(407)
    g, _ = random_partial_ktree(rng, 12, 2, max_weight=5)
    init = random_distinct_vertices(rng, 3, g.n)
    sigma = random_requests(rng, 80, g.n)
    k, n = len(init), len(sigma)
    opt_cost_flow(g, init, sigma)
    [ends] = seen
    for t in range(n):
        feeders = [u for u in range(t) if t <= ends[u]]
        latest = {y: u for u, y in enumerate(sigma[:t])}
        assert feeders == sorted(latest.values()), f"request {t}"
    # S -> s_i and s_i -> T per server, ri_t -> ro_t and ro_t -> T per
    # request, and the arcs into the requests
    arcs = 2 * k + 2 * n + k * n + sum(e - u for u, e in enumerate(ends))
    into = sum(k + len(set(sigma[:t])) for t in range(n))
    assert arcs == 2 * k + 2 * n + into
    assert into < k * n + n * (n - 1) // 2  # the full DAG's arcs into requests


def test_flow_on_a_long_path_round_sequence():
    # the instance of `kslab run --family path-rounds --size 5 --n 2000`
    # (seed 0): 1,995 requests on 5 vertices, where the full request DAG
    # would hold ~2 M arcs
    g = path_graph(5)
    sigma = path_round_sequence(SplitMix64(0).bit_string(2000 // 7), 5)
    dm = all_pairs_shortest_paths(g)
    cost, sched = opt_cost_flow(g, PATH_ROUND_INIT, sigma, dm)
    assert cost == opt_cost_dp(g, PATH_ROUND_INIT, sigma, dm)[0] == 1140
    validate_lazy_schedule(dm, PATH_ROUND_INIT, sigma, sched)


def test_dp_inserts_and_replaces_once_per_distinct_key(monkeypatch):
    # the instance of `kslab run --family path-rounds --size 5 --n 2000`:
    # k = 2, so every state's rest is (), and the forward pass has one
    # insertion to compute per request vertex; the back-trace replaces a
    # server once per distinct (configuration, request vertex, source)
    g = path_graph(5)
    sigma = path_round_sequence(SplitMix64(0).bit_string(2000 // 7), 5)
    inserts, replaces = [], []
    real_bisect, real_replace = offline_solver.bisect, offline_solver._replace_one
    monkeypatch.setattr(
        offline_solver, "bisect", lambda *a: inserts.append(a) or real_bisect(*a)
    )
    monkeypatch.setattr(
        offline_solver, "_replace_one",
        lambda *a: replaces.append(a) or real_replace(*a),
    )
    cost, sched = opt_cost_dp(g, PATH_ROUND_INIT, sigma)
    assert cost == 1140
    assert 0 < len(inserts) == len(set(inserts)) <= g.n
    assert 0 < len(replaces) == len(set(replaces))


# One case per lazy-schedule check: each raises InvalidSchedule naming
# the request index t (None for the schedule as a whole) and the field.
def _swap(sched, i, **fields):
    moves = list(sched.moves)
    moves[i] = moves[i]._replace(**fields)
    return Schedule(moves=moves, total_cost=sched.total_cost)


@pytest.mark.parametrize(
    "tamper,t,field",
    [
        (lambda s: Schedule(moves=s.moves[:-1], total_cost=s.total_cost), None, "moves"),
        (lambda s: _swap(s, 1, t=0), 0, "t"),
        (lambda s: _swap(s, 1, t=5), 1, "t"),
        (lambda s: _swap(s, 0, server=2), 0, "server"),
        (lambda s: _swap(s, 0, src=0), 0, "src"),
        (lambda s: _swap(s, 1, dst=1), 1, "dst"),
        (lambda s: _swap(s, 1, cost=5), 1, "cost"),
        (lambda s: Schedule(moves=s.moves, total_cost=s.total_cost + 1), None, "total_cost"),
    ],
    ids=["moves", "t-twice", "t-missing", "server", "src", "dst", "cost", "total_cost"],
)
def test_validate_lazy_schedule_raises_located(tamper, t, field):
    g = path_graph(5)
    dm = all_pairs_shortest_paths(g)
    init, sigma = (1, 3), [2, 4]
    _, sched = opt_cost_dp(g, init, sigma, dm)
    validate_lazy_schedule(dm, init, sigma, sched)
    with pytest.raises(InvalidSchedule) as err:
        validate_lazy_schedule(dm, init, sigma, tamper(sched))
    assert (err.value.t, err.value.field) == (t, field)
    where = field if t is None else f"t={t} {field}"
    assert str(err.value).startswith(f"{where}: ")


def _assign_server_ids(init, steps):
    """Turn (t, src, dst, cost) steps into Moves with concrete server ids.

    Configurations are multisets, so ties are broken toward the lowest
    server id currently at the source vertex.
    """
    positions = list(init)
    moves = []
    for t, src, dst, cost in steps:
        sid = positions.index(src)
        positions[sid] = dst
        moves.append(Move(t, sid, src, dst, cost))
    return moves


# The DP over whole sorted configurations that the (k-1)-server DP
# replaced, kept as the reference: each state stores its cost and its
# least (predecessor, source) pair.
def _oracle_layers(dist, init, sigma):
    layer = {tuple(sorted(init)): (0, None)}
    layers = [layer]
    for r in sigma:
        nxt = {}
        for conf, (cost, _) in layer.items():
            for src in set(conf):
                new_cost = cost + dist[src][r]
                lst = list(conf)
                lst.remove(src)
                lst.append(r)
                new_conf = tuple(sorted(lst))
                prev = nxt.get(new_conf)
                if (
                    prev is None
                    or new_cost < prev[0]
                    or (new_cost == prev[0] and (conf, src) < prev[1])
                ):
                    nxt[new_conf] = (new_cost, (conf, src))
        layer = nxt
        layers.append(layer)
    return layers


def _oracle_schedule(dist, init, sigma):
    layers = _oracle_layers(dist, init, sigma)
    last = layers[-1]
    conf = min(last, key=lambda c: (last[c][0], c))
    steps = []
    for t in range(len(sigma) - 1, -1, -1):
        _, (conf, src) = layers[t + 1][conf]
        steps.append((t, src, sigma[t], dist[src][sigma[t]]))
    steps.reverse()
    moves = _assign_server_ids(init, steps)
    return Schedule(moves=moves, total_cost=min(c for c, _ in last.values()))


def _oracle_all_schedules(n_vertices, dist, init, sigma):
    layers = _oracle_layers(dist, init, sigma)
    best = min(cost for cost, _ in layers[-1].values())
    found = []

    def backtrack(t, conf, cost, steps_rev):
        if t == 0:
            steps = [
                (i, src, sigma[i], dist[src][sigma[i]])
                for i, src in enumerate(reversed(steps_rev))
            ]
            moves = _assign_server_ids(init, steps)
            found.append(Schedule(moves=moves, total_cost=best))
            return
        r = sigma[t - 1]
        rest = list(conf)
        rest.remove(r)
        for src in range(n_vertices):
            prev_conf = tuple(sorted(rest + [src]))
            prev = layers[t - 1].get(prev_conf)
            if prev is not None and prev[0] + dist[src][r] == cost:
                steps_rev.append(src)
                backtrack(t - 1, prev_conf, prev[0], steps_rev)
                steps_rev.pop()

    for conf, (cost, _) in sorted(layers[-1].items()):
        if cost == best:
            backtrack(len(sigma), conf, cost, [])
    found.sort(key=lambda s: s.move_triples())
    return found


def _moves(schedule):
    return schedule.total_cost, [
        (m.t, m.server, m.src, m.dst, m.cost) for m in schedule.moves
    ]


# Instances on which a sweep of `_dp_layers` drops dominated states, each
# with three or more optimal schedules: k = 3 and k = 4 with co-located
# servers, on a path and on Fraction weights.
SWEPT = [
    (path_graph(5), (4, 2, 4), [0, 4, 2]),
    (path_graph(6), (5, 3, 0, 5), [4, 1, 0]),
    (
        Graph(5, [(0, 1, 3), (0, 3, 1), (1, 2, Fraction(3, 2)),
                  (1, 3, Fraction(3, 2)), (1, 4, Fraction(5, 2))]),
        (3, 0, 0),
        [4, 0, 1],
    ),
    (
        Graph(5, [(0, 1, 2), (0, 3, 2), (1, 2, Fraction(7, 2)),
                  (1, 4, Fraction(5, 2)), (3, 4, Fraction(5, 2))]),
        (3, 1, 3, 2),
        [4, 0, 2],
    ),
]


@pytest.mark.parametrize("instance", SWEPT, ids=["k3-path", "k4-path", "k3-frac", "k4-frac"])
def test_sweep_drops_states_on_the_examples(instance):
    # every configuration reachable after request t holds sigma[t-1], so
    # an unswept layer t holds as many states as the oracle's layer t
    g, init, sigma = instance
    dm = all_pairs_shortest_paths(g)
    swept = sum(len(layer) for _, layer, _ in offline_solver._dp_layers(dm.dist, init, sigma))
    assert swept < sum(map(len, _oracle_layers(dm.dist, init, sigma)))


def test_sweep_bounds_the_states_of_a_k3_grid_run():
    # `kslab run --family grid --size 6 --k 3 --n 150 --seed 1`: 70,091
    # states summed over the layers with no sweep
    from kslab import cli

    argv = "run --family grid --size 6 --k 3 --n 150 --seed 1".split()
    g, init, sigma = cli._build_instance(cli.make_parser().parse_args(argv))[:3]
    dm = all_pairs_shortest_paths(g)
    states = sum(len(layer) for _, layer, _ in offline_solver._dp_layers(dm.dist, init, sigma))
    assert states <= 10_000
    _, sched = opt_cost_dp(g, init, sigma, dm)
    assert _moves(sched) == _moves(_oracle_schedule(dm.dist, init, sigma))


@settings(max_examples=300, deadline=None)
@given(_small_instances(max_servers=4))
@example((path_graph(5), (2, 2, 0, 2), [2, 0, 4, 2, 4, 0]))  # repeats, occupied
@example((path_graph(5), (4, 0, 0, 3), [0, 0, 4, 1, 4]))
@example((Graph(3, [(0, 1, Fraction(3, 2)), (1, 2, 2)]), (1, 1), []))
@example(SWEPT[0])
@example(SWEPT[1])
@example(SWEPT[2])
@example(SWEPT[3])
def test_dp_matches_configuration_oracle(instance):
    g, init, sigma = instance
    dm = all_pairs_shortest_paths(g)
    cost, sched = opt_cost_dp(g, init, sigma, dm)
    oracle = _oracle_schedule(dm.dist, init, sigma)
    assert cost == oracle.total_cost
    assert _moves(sched) == _moves(oracle)


@settings(max_examples=300, deadline=None)
@given(_small_instances(max_servers=4))
@example((path_graph(5), (2, 2, 0, 2), [2, 0, 4, 2, 4, 0]))  # repeats, occupied
@example((path_graph(5), (4, 0, 0, 3), [0, 0, 4, 1, 4]))
@example((path_graph(3), (0, 0, 2), [1, 0, 2]))  # two servers on p_0 = 0
@example((Graph(3, [(0, 1, Fraction(3, 2)), (1, 2, 2)]), (1, 1), []))
@example(SWEPT[0])
@example(SWEPT[1])
@example(SWEPT[2])
@example(SWEPT[3])
def test_count_matches_configuration_oracle(instance):
    # the count is the number of distinct optimal (t, src, dst) schedules
    g, init, sigma = instance
    dm = all_pairs_shortest_paths(g)
    cost, count = count_optimal_schedules(g, init, sigma, dm)
    assert cost == opt_cost_dp(g, init, sigma, dm)[0]
    assert count == len(_oracle_all_schedules(g.n, dm.dist, init, sigma))


def test_count_stays_exact_past_2_64():
    # servers on the ends of the path 0-1-2; every round [1, 0, 2] costs 2,
    # and the optimal schedules of m rounds number a(m) = 2a(m-1) + a(m-2)
    g = path_graph(3)
    dm = all_pairs_shortest_paths(g)
    pell = [1, 2]
    while len(pell) <= 100:
        pell.append(2 * pell[-1] + pell[-2])
    assert pell[100] > 2**64
    for m in (0, 1, 2, 3, 10, 100):
        sigma = [1, 0, 2] * m
        assert count_optimal_schedules(g, (0, 2), sigma, dm) == (2 * m, pell[m])


@pytest.mark.parametrize(
    "solve", [opt_cost_dp, count_optimal_schedules, opt_cost_flow]
)
def test_dp_without_servers(solve):
    g = path_graph(3)
    with pytest.raises(ValueError, match="init: no servers to serve 2 requests"):
        solve(g, (), [0, 2])
    assert opt_cost_dp(g, (), [])[0] == 0


@pytest.mark.parametrize(
    "flags",
    [
        ["--family", "path-rounds", "--n", "40"],
        ["--family", "path-rounds", "--size", "7", "--n", "60"],
        ["--family", "module", "--gamma", "2", "--rounds", "3"],
        ["--family", "module", "--gamma", "3", "--rounds", "2"],
        ["--family", "gb", "--modules", "2", "--gamma", "2", "--rounds", "1"],
        ["--family", "random-ktree", "--size", "14", "--k", "3", "--n", "25"],
        ["--family", "random-ktree", "--size", "30", "--k", "2", "--n", "40"],
        ["--family", "grid", "--size", "4", "--k", "3", "--n", "25"],
    ],
    ids=lambda flags: "-".join(flags[1::2]),
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flow_matches_dp_on_every_family(flags, seed):
    # the instances `kslab run` builds: the flow's schedule is a lazy one of
    # the DP's exact cost
    from kslab import cli

    args = cli.make_parser().parse_args(["run", *flags, "--seed", str(seed)])
    g, init, sigma = cli._build_instance(args)[:3]
    dm = all_pairs_shortest_paths(g)
    c_dp, _ = opt_cost_dp(g, init, sigma, dm)
    c_fl, s_fl = opt_cost_flow(g, init, sigma, dm)
    assert c_fl == c_dp
    validate_lazy_schedule(dm, init, sigma, s_fl)
    assert s_fl.total_cost == c_dp
