from fractions import Fraction
from heapq import heappop, heappush
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kslab.metric_core import (
    DisconnectedGraph,
    Graph,
    GraphError,
    GraphFormatError,
    InconsistentMetric,
    NonPositiveWeight,
    SelfLoop,
    all_pairs_shortest_paths,
    graph_from_json,
    graph_to_json,
    num_from_json,
    num_to_json,
)
from kslab.adversary import gb_graph, module_graph, module_layout, unit_graph
from kslab.instances import SplitMix64, grid_graph, path_graph, random_partial_ktree
from kslab import metric_core
from kslab.cli import main
from kslab.spanner_cover import shortest_path_tree
from test_rational_weights import _fraction_graph


def test_path_construction():
    g = path_graph(5)
    assert g.n == 5 and g.m == 4


def test_missing_vertex_rejected():
    with pytest.raises(DisconnectedGraph):
        Graph(3, [(0, 1, 1)])


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        Graph(2, [(0, 0, 1), (0, 1, 1)])


def test_subunit_weight_rejected():
    with pytest.raises(NonPositiveWeight):
        Graph(2, [(0, 1, 0)])
    with pytest.raises(NonPositiveWeight):
        Graph(2, [(0, 1, Fraction(1, 2))])


@pytest.mark.parametrize(
    "edge", [(True, 0, 1), (0, True, 1), (0, 2, 1), (-1, 1, 1), (0.0, 1, 1)]
)
def test_bad_edge_endpoint_rejected(edge):
    with pytest.raises(GraphError, match=r"must be ints in \[0, 2\)"):
        Graph(2, [edge])


def test_bool_vertex_count_rejected():
    with pytest.raises(GraphError, match="vertex count"):
        Graph(True, [])


def test_duplicate_edge_rejected():
    with pytest.raises(Exception):
        Graph(2, [(0, 1, 1), (1, 0, 2)])


def test_unit_graph_vertex_count():
    # gamma + 2^gamma - 1 vertices; for gamma=3 that is 10
    g, layout = unit_graph(3)
    assert g.n == 10
    empty = layout.w_by_mask[0]
    for u in layout.u_ids:
        assert g.has_edge(u, empty)


def next_hop_path(dm, x, y) -> list[int]:
    """The vertices from x to y along dm.next_hop, both ends included."""
    path = [x]
    while path[-1] != y:
        path.append(dm.next_hop(path[-1], y))
    return path


def test_p5_distance():
    dm = all_pairs_shortest_paths(path_graph(5))
    assert dm.dist[0][4] == 4
    assert dm.dist[1][3] == 2
    assert dm.next_hop(1, 3) == 2


def _bfs_dist(g, src):
    # independent oracle for unit-weight graphs
    from collections import deque

    dist = {src: 0}
    dq = deque([src])
    while dq:
        u = dq.popleft()
        for v, _ in g.adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                dq.append(v)
    return dist


def test_module_graph_u1_distance_matches_bfs():
    g = module_graph(2)
    ml = module_layout(2)
    dm = all_pairs_shortest_paths(g)
    u1a, u1b = ml.side1.u_ids
    oracle = _bfs_dist(g, u1a)
    assert dm.dist[u1a][u1b] == oracle[u1b] == 2
    for v in range(g.n):
        assert dm.dist[u1a][v] == oracle[v]


def test_zero_length_path():
    dm = all_pairs_shortest_paths(path_graph(3))
    assert dm.next_hop(1, 1) == 1
    assert next_hop_path(dm, 1, 1) == [1]


def test_p5_explicit_path():
    dm = all_pairs_shortest_paths(path_graph(5))
    assert next_hop_path(dm, 0, 3) == [0, 1, 2, 3]


def test_grid_corner_path_weight():
    g = grid_graph(3, 3)
    dm = all_pairs_shortest_paths(g)
    path = next_hop_path(dm, 0, 8)
    assert path[0] == 0 and path[-1] == 8
    total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
    assert total == dm.dist[0][8] == 4


def test_triangle_inequality_exhaustive():
    rng = SplitMix64(11)
    sizes = [50, *(8 + rng.randrange(20) for _ in range(4))]
    for n in sizes:
        g, _ = random_partial_ktree(rng, n, 3, max_weight=7)
        dm = all_pairs_shortest_paths(g)
        n = g.n
        for u in range(n):
            for v in range(n):
                assert dm.dist[u][v] == dm.dist[v][u]
                for w in range(n):
                    assert dm.dist[u][w] <= dm.dist[u][v] + dm.dist[v][w]
            assert dm.dist[u][u] == 0
        for u, v, w in g.edges:
            assert dm.dist[u][v] <= w


def test_random_pairs_path_weight_matches_dist():
    rng = SplitMix64(12)
    checked = 0
    while checked < 1000:
        g, _ = random_partial_ktree(rng, 6 + rng.randrange(25), 3, max_weight=9)
        dm = all_pairs_shortest_paths(g)
        for _ in range(50):
            x = rng.randrange(g.n)
            y = rng.randrange(g.n)
            path = next_hop_path(dm, x, y)
            total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
            assert total == dm.dist[x][y]
            checked += 1


def test_lexicographic_tie_break():
    # two equal-cost routes 0-1-3 and 0-2-3: the smaller first hop wins
    g = Graph(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
    dm = all_pairs_shortest_paths(g)
    assert next_hop_path(dm, 0, 3) == [0, 1, 3]


def test_json_round_trip_and_errors():
    g = Graph(3, [(0, 1, Fraction(3, 2)), (1, 2, 2)])
    g2 = graph_from_json(graph_to_json(g))
    assert g2.edges == g.edges
    with pytest.raises(GraphFormatError, match=r"edges\[1\]"):
        graph_from_json('{"n": 3, "edges": [[0, 1, 1], [1, 2]]}')
    with pytest.raises(GraphFormatError):
        graph_from_json('{"n": 3, "edges": [[0, 1, 1]]}')  # disconnected
    for n in ('"x"', "0", "true", "2.0"):
        with pytest.raises(GraphFormatError, match="^n: vertex count must be a positive"):
            graph_from_json('{"n": %s, "edges": []}' % n)


def test_exact_number_codec():
    for x in (0, 7, Fraction(15, 2)):
        assert num_from_json(num_to_json(x), "x") == x
    assert num_to_json(Fraction(8, 2)) == 4
    assert num_from_json("8/2", "x") == 4 and type(num_from_json("8/2", "x")) is int
    for bad in (1.5, None, True, "x/2", "1/0"):
        with pytest.raises(GraphFormatError, match=r"moves\[3\]\.cost"):
            num_from_json(bad, "moves[3].cost")


def test_exponent_strings_are_not_numbers():
    # "1e99999999" would have Fraction build a power of ten of that size
    for bad in ("1e3", "2E-1", "1.5e0"):
        with pytest.raises(GraphFormatError, match="^w: bad number"):
            num_from_json(bad, "w")


def test_too_few_edges_fail_before_anything_is_sized_by_n():
    # so {"n": 10**12, "edges": []} allocates nothing per vertex
    with pytest.raises(DisconnectedGraph, match="4 vertices need at least 3 edges"):
        Graph(4, [(0, 1, 1)])


def _floyd_warshall(g):
    """Test oracle: O(N^3) distances and the smallest next hop on a shortest path."""
    n = g.n
    dist = [[None] * n for _ in range(n)]
    for u in range(n):
        dist[u][u] = 0
    for u, v, w in g.edges:
        dist[u][v] = dist[v][u] = w
    for k in range(n):
        dk = dist[k]
        for di in dist:
            dik = di[k]
            if dik is None:
                continue
            for j in range(n):
                if dk[j] is not None and (di[j] is None or dik + dk[j] < di[j]):
                    di[j] = dik + dk[j]
    next_hop = [
        [
            u if u == v
            else min(x for x, w in g.adj[u] if w + dist[x][v] == dist[u][v])
            for v in range(n)
        ]
        for u in range(n)
    ]
    return dist, next_hop


def _oracle_graphs():
    rng = SplitMix64(2024)
    for _ in range(8):
        n = 8 + rng.randrange(40)
        yield random_partial_ktree(rng, n, 1 + rng.randrange(4), max_weight=9)[0]
    for rows, cols in ((1, 7), (3, 3), (4, 6), (7, 7)):
        yield grid_graph(rows, cols)  # many tied shortest paths
    rng = SplitMix64(4242)
    for n in (6, 12, 20, 30):
        yield _fraction_graph(rng, n)  # half-integer weights


def test_dijkstra_matches_floyd_warshall_oracle():
    for g in _oracle_graphs():
        dist, next_hop = _floyd_warshall(g)
        dm = all_pairs_shortest_paths(g)
        n = g.n
        assert [dm.dist[v] for v in range(n)] == dist, g
        assert [[dm.next_hop(u, v) for v in range(n)] for u in range(n)] == next_hop, g


def test_shortest_path_tree_parents_match_oracle():
    for g in _oracle_graphs():
        dist, _ = _floyd_warshall(g)
        for root in range(0, g.n, 3):
            d = dist[root]
            expected = tuple(
                None if v == root
                else min(u for u, w in g.adj[v] if d[u] + w == d[v])
                for v in range(g.n)
            )
            assert shortest_path_tree(g, root).parent == expected, (g, root)


def test_next_hop_without_shortest_path_raises(monkeypatch):
    g = grid_graph(2, 2)
    real = metric_core.single_source_distances

    def doubled(g, s):
        return [2 * d for d in real(g, s)]

    monkeypatch.setattr(metric_core, "single_source_distances", doubled)
    dm = all_pairs_shortest_paths(g)  # rows, and the check, wait for a read
    with pytest.raises(InconsistentMetric, match="no neighbour of 0 .* to 3"):
        dm.next_hop(0, 3)
    with pytest.raises(InconsistentMetric, match="no neighbour of 0 .* to 3"):
        next_hop_path(dm, 0, 3)


def _heap_dijkstra(g, s):
    """Test oracle: Dijkstra over a heap of (distance, vertex) pairs."""
    dist = [None] * g.n
    dist[s] = 0
    done = [False] * g.n
    heap = [(0, s)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in g.adj[u]:
            nd = d + w
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                heappush(heap, (nd, v))
    return dist


@st.composite
def _connected_graphs(draw):
    """A random spanning tree plus extra edges, with all weights 1 (the
    breadth-first rows), int weights 1..max or Fraction weights >= 1 in
    steps of 1/2 or 1/3."""
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["ones", "int3", "int1000", "half", "third"]))

    def weight():
        if kind == "ones":
            return 1
        if kind == "int3":
            return draw(st.integers(1, 3))
        if kind == "int1000":
            return draw(st.integers(1, 1000))
        den = 2 if kind == "half" else 3
        return Fraction(draw(st.integers(den, 4 * den)), den)

    edges = {}
    for v in range(1, n):
        edges[(draw(st.integers(0, v - 1)), v)] = weight()
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), weight())
    return Graph(n, [(u, v, w) for (u, v), w in edges.items()])


@settings(max_examples=150, deadline=None)
@given(_connected_graphs())
def test_level_dijkstra_matches_heap_dijkstra(g):
    # both row paths: breadth-first levels on all-ones graphs, level
    # Dijkstra on the others
    for s in range(g.n):
        assert metric_core.single_source_distances(g, s) == _heap_dijkstra(g, s)


def test_hop_counts_are_not_distances_under_other_weights():
    # d(0, 2) is 2, via 1; a hop count would give 1 along the weight-3 edge
    g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 3)])
    assert not g.unit_weights
    assert metric_core.single_source_distances(g, 0) == [0, 1, 2]
    assert metric_core.single_source_distances(g, 2) == [2, 1, 0]
    assert Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]).unit_weights


class _HeapUsed(Exception):
    pass


def _no_heap(*args):
    raise _HeapUsed


@pytest.mark.parametrize("family", ["path-rounds", "module", "gb", "random-ktree", "grid"])
def test_generated_family_rows_use_no_heap(family, monkeypatch, tmp_path):
    # every generated family has unit weights, so every row is a BFS
    monkeypatch.setattr(metric_core, "heappush", _no_heap)
    out = tmp_path / "r.json"
    argv = ["run", "--family", family, "--algo", "spanner", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["results"]["pass"] is True


def test_weighted_graph_rows_use_the_heap(monkeypatch, tmp_path):
    # the triangle above: one server at 0 serving 2 then 0 pays 2 + 2
    pushes = []
    monkeypatch.setattr(
        metric_core, "heappush", lambda *a: pushes.append(a) or heappush(*a)
    )
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(
        json.dumps({"n": 3, "edges": [[0, 1, 1], [1, 2, 1], [0, 2, 3]]})
    )
    (tmp_path / "i.json").write_text(
        json.dumps({"init_config": [0], "sequence": [2, 0]})
    )
    argv = ["run", "--graph", "g.json", "--instance", "i.json", "--out", "r.json"]
    assert main(argv) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["results"]["opt_cost"] == 4
    assert [m["cost"] for m in report["extra"]["schedule"]["moves"]] == [2, 2]
    assert pushes


def test_gpc_run_reads_only_server_and_request_rows(monkeypatch, tmp_path):
    real = metric_core.single_source_distances
    sources = []

    def recorded(g, s):
        sources.append(s)
        return real(g, s)

    monkeypatch.setattr(metric_core, "single_source_distances", recorded)
    out = tmp_path / "r.json"
    argv = [
        "run", "--family", "random-ktree", "--size", "80", "--k", "3",
        "--n", "25", "--seed", "5", "--algo", "gpc", "--out", str(out),
    ]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert report["results"]["pass"] is True
    needed = set(report["instance"]["init_config"]) | set(
        report["instance"]["sequence"]
    )
    assert sources and len(sources) == len(set(sources))  # each row once
    assert set(sources) <= needed


def _star(n):
    return Graph(n, [(0, v, 1) for v in range(1, n)])


@st.composite
def _unit_graphs(draw, max_n=600):
    """A unit-weight graph: a random connected one (a random recursive tree,
    each vertex under a random earlier one, plus chords) or one of every
    generated family.  Sizes come from the seeded stream, uniform up to
    max_n, so about half the graphs have more vertices than a block."""
    kind = draw(st.sampled_from(["random", "path", "grid", "ktree", "unit", "module", "gb"]))
    rng = SplitMix64(draw(st.integers(0, 2**64 - 1)))
    n = 1 + rng.randrange(max_n)
    if kind == "random":
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(rng.randrange(n)):
            u, v = sorted((rng.randrange(n), rng.randrange(n)))
            if u != v:
                edges.add((u, v))
        return Graph(n, [(u, v, 1) for u, v in edges])
    if kind == "path":
        return path_graph(n)
    if kind == "grid":
        side = 1 + rng.randrange(int(max_n**0.5))
        return grid_graph(side, max(1, n // side))
    if kind == "ktree":
        width = 1 + rng.randrange(4)
        return random_partial_ktree(rng, max(n, width + 1), width)[0]
    if kind == "unit":
        return unit_graph(2 + rng.randrange(8))[0]  # up to 520 vertices
    if kind == "module":
        return module_graph(2 + rng.randrange(7))  # up to 526
    return gb_graph(1 + rng.randrange(3), 2 + rng.randrange(5))  # up to 415


@st.composite
def _row_requests(draw):
    """A unit-weight graph, the vertices whose rows are read first, and a
    source list for `compute_rows`, duplicates included, of a size on
    either side of the block boundary when the graph has the vertices."""
    g = draw(_unit_graphs())
    vertex = st.integers(0, g.n - 1)
    read = draw(st.lists(vertex, max_size=8))
    size = draw(st.sampled_from([0, 1, 17, 255, 256, 257, 300, 512, 513, 700]))
    start = draw(vertex)  # size consecutive ids from start, wrapping past g.n
    sources = [(start + i) % g.n for i in range(size)]
    return g, read, sources + draw(st.lists(vertex, max_size=20))


@settings(max_examples=60, deadline=None)
@given(_row_requests())
@example((path_graph(600), [], list(range(600))))  # ecc >= 300: every row a BFS
@example((_star(600), [7], [*range(600), 3, 3]))  # ecc 1 from the centre: batches
@example((grid_graph(24, 24), [], list(range(576))))  # every row, ecc 46: per-row
def test_compute_rows_match_breadth_first_rows(case):
    g, read, sources = case
    dm = all_pairs_shortest_paths(g)
    before = {v: dm.dist[v] for v in read}
    real = metric_core.multi_source_distances

    def checked(g, block):
        rows = real(g, block)
        # the rule's block has >= 8*ecc sources and distances <= 2*ecc
        assert 4 * max(map(max, rows)) <= len(block) <= metric_core.BLOCK
        return rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric_core, "multi_source_distances", checked)
        dm.compute_rows(sources)
    assert set(dm.dist) <= {*read, *sources}  # the rest wait for their read
    assert all(dm.dist[v] is row for v, row in before.items())  # kept, not redone
    for v in {*read, *sources}:  # a row is a read-only sequence of ints
        assert list(dm.dist[v]) == metric_core.single_source_distances(g, v), v


@settings(max_examples=60, deadline=None)
@given(_unit_graphs(max_n=256), st.data())
def test_multi_source_rows_match_breadth_first_rows(g, data):
    # on at most 256 vertices every distance fits a byte lane
    sources = data.draw(st.lists(st.integers(0, g.n - 1), max_size=metric_core.BLOCK))
    rows = metric_core.multi_source_distances(g, sources)
    assert all(type(row) is bytes for row in rows)
    assert [list(row) for row in rows] == [
        metric_core.single_source_distances(g, s) for s in sources
    ]


def test_compute_rows_batches_only_a_large_block_on_unit_weights(monkeypatch):
    blocks = []
    real = metric_core.multi_source_distances
    monkeypatch.setattr(
        metric_core, "multi_source_distances", lambda g, b: blocks.append(len(b)) or real(g, b)
    )
    # from the centre ecc is 1: 599 more rows make 2 full blocks and 87 left,
    # which is above 8*ecc
    all_pairs_shortest_paths(_star(600)).compute_rows(range(600))
    assert blocks == [256, 256, 87]
    blocks.clear()
    # from a leaf ecc is 2: a tail of 16 rows is 8*ecc, one of 15 below it
    all_pairs_shortest_paths(_star(530)).compute_rows(range(1, 530))
    assert blocks == [256, 256, 16]
    blocks.clear()
    all_pairs_shortest_paths(_star(529)).compute_rows(range(1, 529))
    assert blocks == [256, 256]
    blocks.clear()
    # ecc 30 from a corner of the 16x16 grid: its other 255 rows are one block
    all_pairs_shortest_paths(grid_graph(16, 16)).compute_rows(range(256))
    assert blocks == [255]
    blocks.clear()
    all_pairs_shortest_paths(path_graph(600)).compute_rows(range(600))
    grid = grid_graph(24, 24)  # ecc 46 from a corner: 368 rows would be needed
    all_pairs_shortest_paths(grid).compute_rows(range(576))
    weighted = Graph(300, [(0, v, 2) for v in range(1, 300)])
    dm = all_pairs_shortest_paths(weighted)
    dm.compute_rows(range(300))
    assert blocks == [] and not dm.dist  # weighted rows wait for their read
