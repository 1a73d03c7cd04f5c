import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab import spanner_cover
from kslab.advice_tape import AdviceTape
from kslab.instances import (
    SplitMix64,
    grid_graph,
    path_graph,
    random_distinct_vertices,
    random_partial_ktree,
    random_requests,
)
from kslab.metric_core import (
    Graph,
    GraphFormatError,
    all_pairs_shortest_paths,
    weight_scale,
)
from kslab.offline_solver import InvalidSchedule, Move, Schedule, opt_cost_dp
from kslab.spanner_cover import (
    HeavyPathIndex,
    NoLabeledServerOnRootPath,
    SpannerSystem,
    StretchClaimRejected,
    _Lanes,
    _best_tree_rows,
    _longest_tree_distance,
    _read_binding,
    certify_system,
    generate_advice_spanner,
    measure_min_stretch,
    run_online_spanner,
    shortest_path_tree,
    spanner_bit_budget,
    spanning_tree_from_parent,
    system_from_json,
)
from test_rational_weights import _fraction_graph


def _grid_system():
    g = grid_graph(4, 4)
    dm = all_pairs_shortest_paths(g)
    trees = (shortest_path_tree(g, 0), shortest_path_tree(g, 15))
    q, _ = measure_min_stretch(g, dm, SpannerSystem(trees=trees))
    return g, dm, certify_system(g, dm, trees, q, 0)


# ---------------------------------------------------------------------------
# Stretch verification.


def test_tree_is_its_own_spanner():
    g = path_graph(7)
    dm = all_pairs_shortest_paths(g)
    t = shortest_path_tree(g, 3)
    assert certify_system(g, dm, (t,), 1, 0).q == 1


def test_grid_single_bfs_tree_fails_1_0():
    g = grid_graph(4, 4)
    dm = all_pairs_shortest_paths(g)
    t = shortest_path_tree(g, 0)
    with pytest.raises(StretchClaimRejected) as info:
        certify_system(g, dm, (t,), 1, 0)
    x, y = info.value.witness
    assert info.value.excess > 0
    hp = HeavyPathIndex(t)
    assert hp.dist(x, y) - dm.dist[x][y] == info.value.excess


def test_measured_min_q_certifies():
    g, dm, system = _grid_system()
    assert isinstance(system.q, (int, Fraction))
    assert certify_system(g, dm, system.trees, system.q, 0).q == system.q
    # one notch tighter must fail
    with pytest.raises(StretchClaimRejected):
        certify_system(g, dm, system.trees, system.q - Fraction(1, 100), 0)


def test_certify_rejects_false_claim():
    g = grid_graph(3, 3)
    dm = all_pairs_shortest_paths(g)
    with pytest.raises(ValueError):
        certify_system(g, dm, (shortest_path_tree(g, 0),), 1, 0)


# ---------------------------------------------------------------------------
# The packed best-tree rows against per-pair heavy-path distances, and the
# stretch measure and check against a brute-force Fraction oracle.


def _random_spanning_tree(g, rng):
    """A spanning tree grown from a random root by random frontier edges."""
    root = rng.randrange(g.n)
    parent = [None] * g.n
    inside = {root}
    while len(inside) < g.n:
        frontier = sorted(
            (v, u) for u in inside for v, _ in g.adj[u] if v not in inside
        )
        v, u = frontier[rng.randrange(len(frontier))]
        parent[v] = u
        inside.add(v)
    return spanning_tree_from_parent(g, root, parent)


def _stretch_cases():
    """(graph, trees) with mu = 1, 2, 3 on grids, weighted trees, partial
    k-trees, half-integer graphs, weights of 2^40 and more (lanes wider than
    8 bytes) and 1- and 2-vertex graphs; trees alternate shortest-path and
    random."""
    rng = SplitMix64(5150)
    tree_parent = [None] + [rng.randrange(v) for v in range(1, 25)]
    huge_rng = SplitMix64(2**40)
    huge = random_partial_ktree(huge_rng, 14, 2)[0]
    huge_edges = [(u, v, 2**40 + huge_rng.randrange(2**41)) for u, v, _ in huge.edges]
    graphs = [
        grid_graph(4, 4),
        grid_graph(3, 7),
        Graph(25, [(p, v, 1 + rng.randrange(4)) for v, p in enumerate(tree_parent) if v]),
        random_partial_ktree(rng, 30, 3, max_weight=9)[0],
        random_partial_ktree(rng, 18, 2)[0],
        _fraction_graph(SplitMix64(4242), 12),
        _fraction_graph(SplitMix64(4243), 20),
        Graph(huge.n, huge_edges),
        Graph(1, []),
        Graph(2, [(0, 1, 3)]),
    ]
    for g in graphs:
        for mu in (1, 2, 3):
            yield g, tuple(
                _random_spanning_tree(g, rng) if i % 2
                else shortest_path_tree(g, rng.randrange(g.n))
                for i in range(mu)
            )


def _oracle_min_stretch(g, dm, trees):
    hps = [HeavyPathIndex(t) for t in trees]
    worst = (Fraction(1), None)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            ratio = Fraction(min(hp.dist(x, y) for hp in hps)) / dm.dist[x][y]
            if ratio > worst[0]:
                worst = (ratio, (x, y))
    return worst


def _oracle_tightest_r(g, dm, trees, q):
    """The smallest r with (q, r)-stretch: max over pairs of best - q*d."""
    hps = [HeavyPathIndex(t) for t in trees]
    return max(
        (min(hp.dist(x, y) for hp in hps) - q * dm.dist[x][y]
         for x in range(g.n) for y in range(x + 1, g.n)),
        default=0,  # a 1-vertex graph has no pair
    )


def _oracle_stretch_check(g, dm, trees, q, r):
    """(ok, excess, witness): the largest best - (q*d + r) > 0, first pair
    x < y on ties."""
    hps = [HeavyPathIndex(t) for t in trees]
    worst = None
    for x in range(g.n):
        for y in range(x + 1, g.n):
            best = min(hp.dist(x, y) for hp in hps)
            excess = Fraction(best) - (Fraction(q) * dm.dist[x][y] + Fraction(r))
            if excess > 0 and (worst is None or excess > worst[0]):
                worst = (excess, (x, y))
    return (True, None, None) if worst is None else (False, *worst)


def test_packed_best_tree_rows_match_heavy_path_distances():
    for g, trees in _stretch_cases():
        unit = weight_scale(g)
        longest = _longest_tree_distance(trees, unit)
        lanes = _Lanes(g.n, longest * longest)
        hps = [HeavyPathIndex(t) for t in trees]
        for x, row in enumerate(_best_tree_rows(trees, lanes, unit)):
            table = lanes.unpack(row)
            assert len(table) == g.n
            for y, d in enumerate(table):
                assert type(d) is int, (g, len(trees), x, y)
                best = min(hp.dist(x, y) for hp in hps)
                assert d == best * unit, (g, len(trees), x, y)


def test_lanes_keep_values_at_their_bound_apart():
    # values that fill every bit below the guard, in 1-, 2- and 8-byte lanes
    # and wider ones, still take minima and compare lane by lane
    for bound in (2**8 - 1, 2**16 - 1, 2**64 - 1, 2**100):
        lanes = _Lanes(4, bound)
        a, b = [bound, 0, bound, 1], [0, bound, bound, bound - 1]
        pa, pb = lanes.pack(a), lanes.pack(b)
        assert lanes.unpack(pa) == a
        assert lanes.unpack(lanes.minimum(pa, pb)) == [0, 0, bound, 1]
        assert lanes.any_greater(pa, pb, 0) and not lanes.any_greater(pa, pa, 0)
        # shifted past lane 0, where alone a exceeds b
        w = lanes.width
        assert not lanes.any_greater(pa >> w, pb >> w, w)
        assert lanes.any_greater(pb >> w, pa >> w, w)


def test_measure_and_verify_match_fraction_oracle():
    failing_with_r = 0
    for g, trees in _stretch_cases():
        dm = all_pairs_shortest_paths(g)
        system = SpannerSystem(trees=trees)
        q, witness = measure_min_stretch(g, dm, system)
        assert type(q) is Fraction
        assert (q, witness) == _oracle_min_stretch(g, dm, trees)
        claims = [(q, 0), (q - Fraction(1, 100), 0), (1, Fraction(1, 2)),
                  (Fraction(3, 2), 1), (q, -1), (q + 1, -1), (q, Fraction(-1, 2)),
                  (q + 1, Fraction(-3, 2)), (Fraction(1, 2), 0),
                  (Fraction(1, 2), 3), (q + Fraction(1, 10**30 + 7), 0),
                  (q - Fraction(1, 10**30 + 7), 0),
                  (q - Fraction(1, 10**30 + 7), Fraction(1, 3)),
                  (0, 0), (0, 10**6), (-1, 0), (Fraction(-3, 2), 10**13),
                  (-2**40, 2**90)]
        for cq in (Fraction(3, 2), Fraction(5, 4), 1, 0):
            # right at the edge: r passes, r - 1/7 fails by exactly 1/7
            r = _oracle_tightest_r(g, dm, trees, cq)
            claims += [(cq, r), (cq, r - Fraction(1, 7))]
        for cq, cr in claims:
            try:
                certify_system(g, dm, trees, cq, cr)
                got = (True, None, None)
            except StretchClaimRejected as exc:
                got = (False, exc.excess, exc.witness)
            expected = _oracle_stretch_check(g, dm, trees, cq, cr)
            assert got == expected, (g, cq, cr)
            failing_with_r += not got[0] and cr != 0
    assert failing_with_r > 0


def test_wide_claim_coefficients_are_cut_to_narrow_lanes(monkeypatch):
    # q = 7 - 10^-2200 and r = 1/(10^2200 + 1): the lane test's coefficients
    # have thousands of digits, but the lanes stay at most 8 bytes wide and
    # the flagged rows are decided exactly.  The comb tree stretches pair
    # (12, 13) of the 4x4 grid from 1 to 7.
    g = grid_graph(4, 4)
    dm = all_pairs_shortest_paths(g)
    trees = (shortest_path_tree(g, 0),)
    assert trees[0].parent == (None, 0, 1, 2, *range(12))
    widths = []

    class RecordedLanes(_Lanes):
        def __init__(self, n, bound):
            super().__init__(n, bound)
            widths.append(self.nbytes)

    monkeypatch.setattr(spanner_cover, "_Lanes", RecordedLanes)
    t = 10**2200
    q = 7 - Fraction(1, t)
    with pytest.raises(StretchClaimRejected) as info:
        certify_system(g, dm, trees, q, Fraction(1, t + 1))
    got = (False, info.value.excess, info.value.witness)
    assert got == _oracle_stretch_check(g, dm, trees, q, Fraction(1, t + 1))
    assert got == (False, Fraction(1, t * (t + 1)), (12, 13))
    # q + r = 7 exactly: the claim holds with no slack at (12, 13)
    assert _oracle_stretch_check(g, dm, trees, q, Fraction(1, t))[0]
    assert certify_system(g, dm, trees, q, Fraction(1, t)).q == q
    assert len(widths) == 2 and max(widths) <= 8


def test_stretch_ties_keep_the_first_pair():
    # BFS tree of the 2x3 grid from 0 drops edges (3, 4) and (4, 5): both
    # pairs stretch 1 -> 3, so they tie on ratio, and under (1, 1) on excess
    g = grid_graph(2, 3)
    dm = all_pairs_shortest_paths(g)
    system = SpannerSystem(trees=(shortest_path_tree(g, 0),))
    hp = HeavyPathIndex(system.trees[0])
    assert hp.dist(3, 4) == hp.dist(4, 5) == 3
    assert dm.dist[3][4] == dm.dist[4][5] == 1
    assert measure_min_stretch(g, dm, system) == (3, (3, 4))
    with pytest.raises(StretchClaimRejected) as info:
        certify_system(g, dm, system.trees, 1, 1)
    assert (info.value.excess, info.value.witness) == (1, (3, 4))
    assert str(info.value) == (
        "stretch certificate rejected: pair (3, 4) exceeds q*d+r by 1"
    )
    # the star at 3 drops (0, 1) and (0, 2), a tie within one row
    g = Graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 3, 1), (2, 3, 1)])
    dm = all_pairs_shortest_paths(g)
    star = spanning_tree_from_parent(g, 3, [3, 3, 3, None])
    assert measure_min_stretch(g, dm, SpannerSystem(trees=(star,))) == (2, (0, 1))
    with pytest.raises(StretchClaimRejected) as info:
        certify_system(g, dm, (star,), 1, 0)
    assert (info.value.excess, info.value.witness) == (1, (0, 1))


# ---------------------------------------------------------------------------
# Heavy paths.


def _root_path_segments(hp, v):
    """(head, exit) per heavy path crossed by root -> v, root first, the
    exit being the deepest path vertex inside that heavy path: the oracle
    for seg_ordinal and for the records' addressing."""
    segs = []
    u = v
    while u is not None:
        segs.append((hp.head[u], u))
        u = hp.parent[hp.head[u]]
    return segs[::-1]


def test_path_graph_single_heavy_path():
    t = shortest_path_tree(path_graph(10), 0)
    hp = HeavyPathIndex(t)
    assert all(hp.head[v] == 0 for v in range(10))
    assert all(len(_root_path_segments(hp, v)) == 1 for v in range(10))


def test_perfect_binary_tree_segments():
    # 31 vertices: any root path crosses at most ceil(log2 31) = 5 segments
    edges = [(i, 2 * i + 1, 1) for i in range(15)] + [
        (i, 2 * i + 2, 1) for i in range(15)
    ]
    g = Graph(31, edges)
    t = shortest_path_tree(g, 0)
    hp = HeavyPathIndex(t)
    assert max(len(_root_path_segments(hp, v)) for v in range(31)) <= 5


def test_random_tree_segment_bound():
    rng = SplitMix64(606)
    parent = [None]
    edges = []
    for v in range(1, 200):
        p = rng.randrange(v)
        parent.append(p)
        edges.append((p, v, 1))
    g = Graph(200, edges)
    t = spanning_tree_from_parent(g, 0, parent)
    hp = HeavyPathIndex(t)
    worst = max(len(_root_path_segments(hp, v)) for v in range(200))
    assert worst <= math.ceil(math.log2(200)) == 8


def test_heavy_path_lca_and_dist_match_naive():
    rng = SplitMix64(607)
    parent = [None]
    edges = []
    for v in range(1, 60):
        p = rng.randrange(v)
        parent.append(p)
        edges.append((p, v, 1 + rng.randrange(4)))
    g = Graph(60, edges)
    t = spanning_tree_from_parent(g, 0, parent)
    hp = HeavyPathIndex(t)
    dm = all_pairs_shortest_paths(g)  # the graph IS the tree
    for _ in range(300):
        u = rng.randrange(60)
        v = rng.randrange(60)
        assert hp.dist(u, v) == dm.dist[u][v]
        # naive LCA by ancestor sets
        anc = set()
        x = u
        while x is not None:
            anc.add(x)
            x = t.parent[x]
        x = v
        while x not in anc:
            x = t.parent[x]
        assert hp.lca(u, v) == x


def test_seg_ordinal_is_path_independent():
    rng = SplitMix64(608)
    parent = [None]
    edges = []
    for v in range(1, 80):
        p = rng.randrange(v)
        parent.append(p)
        edges.append((p, v, 1))
    t = spanning_tree_from_parent(Graph(80, edges), 0, parent)
    hp = HeavyPathIndex(t)
    for y in range(80):
        segs = _root_path_segments(hp, y)
        # the ordinal of each crossed heavy path equals its index here
        for idx, (head, exit_v) in enumerate(segs):
            assert hp.seg_ordinal[head] == idx
            assert hp.seg_ordinal[exit_v] == idx
            assert hp.head[exit_v] == head


@st.composite
def _random_trees(draw):
    """A random unit-weight spanning tree on shuffled ids, rooted at ids[0]."""
    n = draw(st.integers(1, 60))
    ids = draw(st.permutations(range(n)))
    parent = [None] * n
    for i in range(1, n):
        parent[ids[i]] = ids[draw(st.integers(0, i - 1))]
    edges = [(v, p, 1) for v, p in enumerate(parent) if p is not None]
    return spanning_tree_from_parent(Graph(n, edges), ids[0], parent)


@settings(max_examples=200, deadline=None)
@given(_random_trees())
def test_seg_ordinal_counts_the_heavy_paths_above(tree):
    # set in the index's own walk, it matches the per-vertex chain walk
    hp = HeavyPathIndex(tree)
    for v in range(tree.n):
        assert hp.seg_ordinal[v] + 1 == len(_root_path_segments(hp, v))


@settings(max_examples=100, deadline=None)
@given(_random_trees(), st.integers(0, 1))
def test_read_binding_climbs_to_the_named_ordinal(tree, w_mu):
    # a record (0, s) read at v names the s-th heavy path of v's root path;
    # an s the field can hold past v's last heavy path names none
    hp = HeavyPathIndex(tree)
    for v in range(tree.n):
        segs = _root_path_segments(hp, v)
        width = math.ceil(math.log2(len(segs)))
        for s in range(1 << width):
            tape = AdviceTape()
            tape.write_uint(0, w_mu)
            tape.write_uint(s, width)
            tape.rewind()
            if s < len(segs):
                got = _read_binding(tape, [hp], w_mu, v, "record")
                assert got == (0, *segs[s])
            else:
                with pytest.raises(NoLabeledServerOnRootPath) as info:
                    _read_binding(tape, [hp], w_mu, v, "record")
                assert str(info.value) == f"record: segment {s} beyond root path of {v}"


# ---------------------------------------------------------------------------
# Online runs.


def test_empty_sequence_costs_nothing():
    g, dm, system = _grid_system()
    hp = [HeavyPathIndex(t) for t in system.trees]
    cost, sched = opt_cost_dp(g, (0, 5), [], dm)
    tape = generate_advice_spanner(g, dm, system, (0, 5), [], sched)
    tape.rewind()
    run = run_online_spanner(g, system, hp, (0, 5), [], tape)
    assert run.cost == 0
    assert run.bits_read == tape.bits_written


def test_single_request_single_server():
    g, dm, system = _grid_system()
    hp = [HeavyPathIndex(t) for t in system.trees]
    cost, sched = opt_cost_dp(g, (0,), [15], dm)
    tape = generate_advice_spanner(g, dm, system, (0,), [15], sched)
    tape.rewind()
    run = run_online_spanner(g, system, hp, (0,), [15], tape)
    assert run.cost <= system.q * cost
    assert len(run.log) == 1


def test_bad_server_id_names_request():
    g, dm, system = _grid_system()
    bad = Schedule(moves=[Move(t=0, server=5, src=0, dst=15, cost=6)], total_cost=6)
    with pytest.raises(InvalidSchedule) as err:
        generate_advice_spanner(g, dm, system, (0, 5), [15], bad)
    assert (err.value.t, err.value.field) == (0, "server")


def test_grid_suite_within_q_plus_r():
    g, dm, system = _grid_system()
    hp = [HeavyPathIndex(t) for t in system.trees]
    rng = SplitMix64(808)
    for i in range(50):
        init = random_distinct_vertices(rng, 2, 16)
        sigma = random_requests(rng, 5 + rng.randrange(16), 16)
        opt_c, opt_s = opt_cost_dp(g, init, sigma, dm)
        tape = generate_advice_spanner(g, dm, system, init, sigma, opt_s)
        tape.rewind()
        run = run_online_spanner(g, system, hp, init, sigma, tape)
        assert run.cost <= (system.q + system.r) * opt_c, f"run {i}"
        assert run.bits_read <= spanner_bit_budget(2, 16, 2, len(sigma))
        # per-leg stretch, move by move
        for m in run.log:
            if m.src != m.request:
                assert m.cost <= system.q * dm.dist[m.src][m.request] + system.r


def test_mu1_tree_metric_is_exactly_optimal():
    # single heavy path everywhere: the disambiguation suffix is what keeps
    # retrievals sound here
    g = path_graph(9)
    dm = all_pairs_shortest_paths(g)
    t = shortest_path_tree(g, 0)
    system = certify_system(g, dm, (t,), 1, 0)
    hp = [HeavyPathIndex(t)]
    rng = SplitMix64(809)
    ambiguous_total = 0
    for i in range(30):
        init = random_distinct_vertices(rng, 2, 9)
        sigma = random_requests(rng, 12, 9)
        opt_c, opt_s = opt_cost_dp(g, init, sigma, dm)
        tape = generate_advice_spanner(g, dm, system, init, sigma, opt_s)
        tape.rewind()
        run = run_online_spanner(g, system, hp, init, sigma, tape)
        assert run.cost == opt_c, f"run {i}"
        assert run.bits_read <= spanner_bit_budget(1, 9, 2, 12)
        ambiguous_total += run.ambiguous_retrievals
    assert ambiguous_total > 0  # the suffix path is genuinely exercised


def test_mu1_random_tree_metrics():
    rng = SplitMix64(810)
    for _ in range(10):
        parent = [None]
        edges = []
        n = 10 + rng.randrange(10)
        for v in range(1, n):
            p = rng.randrange(v)
            parent.append(p)
            edges.append((p, v, 1 + rng.randrange(3)))
        g = Graph(n, edges)
        dm = all_pairs_shortest_paths(g)
        t = spanning_tree_from_parent(g, 0, parent)
        system = certify_system(g, dm, (t,), 1, 0)
        hp = [HeavyPathIndex(t)]
        init = random_distinct_vertices(rng, 2, n)
        sigma = random_requests(rng, 15, n)
        opt_c, opt_s = opt_cost_dp(g, init, sigma, dm)
        tape = generate_advice_spanner(g, dm, system, init, sigma, opt_s)
        tape.rewind()
        run = run_online_spanner(g, system, hp, init, sigma, tape)
        assert run.cost == opt_c


def test_label_discipline_logged():
    g, dm, system = _grid_system()
    hp = [HeavyPathIndex(t) for t in system.trees]
    rng = SplitMix64(811)
    init = random_distinct_vertices(rng, 2, 16)
    sigma = random_requests(rng, 18, 16)
    _, opt_s = opt_cost_dp(g, init, sigma, dm)
    tape = generate_advice_spanner(g, dm, system, init, sigma, opt_s)
    tape.rewind()
    run = run_online_spanner(g, system, hp, init, sigma, tape)
    # every move names the tree it traveled through; relays stay in range
    for m in run.log:
        assert 0 <= m.tree < system.mu
        assert 0 <= m.relay < g.n


def test_truncated_tape_raises():
    from kslab.advice_tape import TapeExhausted

    g, dm, system = _grid_system()
    hp = [HeavyPathIndex(t) for t in system.trees]
    init = (0, 5)
    sigma = [7, 11]
    _, opt_s = opt_cost_dp(g, init, sigma, dm)
    tape = generate_advice_spanner(g, dm, system, init, sigma, opt_s)
    hexstr, nbits = tape.to_hex()
    clipped = AdviceTape.from_hex(hexstr, nbits - 1)
    with pytest.raises(TapeExhausted):
        run_online_spanner(g, system, hp, init, sigma, clipped)


# ---------------------------------------------------------------------------
# Serialization.


def test_system_json_round_trip():
    g, _, system = _grid_system()
    text = json.dumps(system.to_json())
    again = system_from_json(g, text)
    assert again.mu == 2
    assert again.q == system.q and again.r == system.r


def test_system_json_rejects_bad_stretch():
    # loading keeps the claim; certifying it against the metric rejects it
    g = grid_graph(4, 4)
    sys1 = SpannerSystem(trees=(shortest_path_tree(g, 0),), q=1, r=0)
    loaded = system_from_json(g, json.dumps(sys1.to_json()))
    assert (loaded.q, loaded.r) == (1, 0)
    with pytest.raises(StretchClaimRejected):
        certify_system(g, all_pairs_shortest_paths(g), loaded.trees, loaded.q, loaded.r)


def test_system_json_rejects_non_tree_edges():
    g = grid_graph(3, 3)
    obj = {
        "mu": 1,
        "q": None,
        "r": None,
        "trees": [{"root": 0, "parent": [None, 0, 1, 0, 8, 4, 3, 6, 7]}],
    }
    with pytest.raises(ValueError):
        system_from_json(g, json.dumps(obj))


@pytest.mark.parametrize(
    "obj,where",
    [
        ({"trees": [{"root": 0}], "q": 1, "r": 0}, r"^trees\[0\]\.parent: missing field"),
        ({"trees": [{"parent": [None] * 9}]}, r"^trees\[0\]\.root: missing field"),
        ({"q": 1, "r": 0}, r"^trees: missing field"),
        ({"trees": {"root": 0}}, r"^trees: expected a list"),
        ({"trees": []}, r"^trees: a spanner system needs at least one tree$"),
        ({"trees": [7]}, r"^trees\[0\]: expected a JSON object"),
        ({"trees": [{"root": 0, "parent": 3}]}, r"^trees\[0\]\.parent: expected a list"),
        ({"trees": [{"root": "0", "parent": [None] * 9}]}, r"^trees\[0\]: root '0' out of range"),
        ([1, 2], r"^top level: expected a JSON object"),
        ({"mu": 2, "trees": [{"root": 0, "parent": [None, 0, 1, 0, 1, 2, 3, 4, 5]}]},
         r"^mu: 2 but 1 trees given"),
        # 1 and 2 are each other's parent, so neither hangs off the root
        ({"trees": [{"root": 0, "parent": [None, 2, 1, 0, 3, 4, 3, 6, 7]}]},
         r"^trees\[0\]: parent links contain a cycle$"),
        # a leg that stays put has d = 0 and a budget of r
        ({"trees": [{"root": 0, "parent": [None, 0, 1, 0, 1, 2, 3, 4, 5]}],
          "q": 8, "r": -1}, r"^r: must be at least 0, got -1$"),
    ],
    ids=["parent", "root", "trees", "trees-type", "trees-empty", "tree-type", "parent-type",
         "root-type", "top-level", "mu", "cycle", "negative-r"],
)
def test_system_json_errors_name_the_field(obj, where):
    g = grid_graph(3, 3)
    with pytest.raises(GraphFormatError, match=where):
        system_from_json(g, json.dumps(obj))


def test_system_json_syntax_error_names_line():
    g = grid_graph(3, 3)
    with pytest.raises(GraphFormatError, match="^line 2: "):
        system_from_json(g, '{"trees":\n [,]}')
