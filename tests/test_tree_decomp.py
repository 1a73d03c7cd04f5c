import ast
import gc
import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab import tree_decomp
from kslab.adversary import (
    gb_decomposition,
    gb_graph,
    module_graph,
    module_graph_decomposition,
)
from kslab.instances import (
    SplitMix64,
    path_decomposition,
    path_graph,
    random_partial_ktree,
)
from kslab.metric_core import Graph, GraphFormatError, all_pairs_shortest_paths
from kslab.tree_decomp import (
    TreeDecomposition,
    _centroid,
    _components,
    _path_splitter,
    _rooted,
    _simplify,
    intersect_shortest_path,
    reduce_height,
    rooted_walk,
    verify_decomposition,
)


def test_p5_path_decomposition_verifies():
    td = path_decomposition(5)
    check = verify_decomposition(path_graph(5), td)
    assert check
    assert td.width == 1


def test_missing_edge_bag_reported():
    # drop the {1,2} bag: edge (1,2) is inside no bag
    td = TreeDecomposition([(0, 1), (2, 3), (3, 4)], [None, 0, 1], 0)
    check = verify_decomposition(path_graph(5), td)
    assert not check
    assert check.axiom == 2
    assert check.witness == (1, 2)


def test_broken_connectivity_reported():
    # vertex 0 appears in two bags separated by one without it
    td = TreeDecomposition([(0, 1), (1, 2), (0, 2)], [None, 0, 1], 0)
    g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    check = verify_decomposition(g, td)
    assert not check
    assert check.axiom == 3
    assert check.witness == 0


def test_missing_vertex_reported():
    td = TreeDecomposition([(0, 1), (1, 2)], [None, 0], 0)
    check = verify_decomposition(path_graph(4), td)
    assert not check
    assert check.axiom == 1
    assert check.witness == 3


def _full_scan_verify(g, td):
    """Test oracle: the three axioms, each edge checked against every bag."""
    covered = set()
    for bag in td.bags:
        for v in bag:
            if not (0 <= v < g.n):
                return tree_decomp.DecompositionCheck(
                    False, 1, v, f"bag vertex {v} outside the graph"
                )
        covered.update(bag)
    for v in range(g.n):
        if v not in covered:
            return tree_decomp.DecompositionCheck(
                False, 1, v, f"vertex {v} not covered by any bag"
            )
    bag_sets = [set(b) for b in td.bags]
    for u, v, _ in g.edges:
        if not any(u in b and v in b for b in bag_sets):
            return tree_decomp.DecompositionCheck(
                False, 2, (u, v), f"edge ({u}, {v}) inside no bag"
            )
    holding = {}
    for i, b in enumerate(td.bags):
        for v in b:
            holding.setdefault(v, []).append(i)
    adj = [[] for _ in range(td.num_bags)]
    for i, p in enumerate(td.parent):
        if p is not None:
            adj[i].append(p)
            adj[p].append(i)
    for v, nodes in holding.items():
        node_set = set(nodes)
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in node_set and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(node_set):
            return tree_decomp.DecompositionCheck(
                False, 3, v, f"bags containing vertex {v} are not connected in the tree"
            )
    return tree_decomp.DecompositionCheck(True, message="all three axioms hold")


def _corrupted_decompositions():
    """Random partial k-tree decompositions with one vertex dropped from
    every bag that covers an edge, or from a single bag, or from one bag
    whose parent and a child both hold it (which splits its subtree)."""
    rng = SplitMix64(77)
    for _ in range(120):
        g, td = random_partial_ktree(rng, 5 + rng.randrange(40), 1 + rng.randrange(4))
        bags = [list(b) for b in td.bags]
        if rng.randrange(2):
            u, v, _ = g.edges[rng.randrange(g.m)]
            drop = (u, v)[rng.randrange(2)]
            hit = [i for i, b in enumerate(bags) if u in b and v in b]
        else:
            hit = [rng.randrange(len(bags))]
            drop = bags[hit[0]][rng.randrange(len(bags[hit[0]]))]
        for i in hit:
            bags[i].remove(drop)
        yield g, TreeDecomposition(bags, td.parent, td.root)
    rng = SplitMix64(78)
    for _ in range(120):
        g, td = random_partial_ktree(rng, 5 + rng.randrange(40), 1 + rng.randrange(4))
        parent = td.parent
        interior = sorted(
            (p, v)
            for i, p in enumerate(parent)
            if p is not None and parent[p] is not None
            for v in set(td.bags[i]) & set(td.bags[p]) & set(td.bags[parent[p]])
        )
        if interior:
            p, v = interior[rng.randrange(len(interior))]
            bags = [list(b) for b in td.bags]
            bags[p].remove(v)
            yield g, TreeDecomposition(bags, parent, td.root)


def test_edge_coverage_matches_full_scan_on_corrupted_decompositions():
    axioms = []
    for g, td in _corrupted_decompositions():
        check = verify_decomposition(g, td)
        assert check == _full_scan_verify(g, td), (g, td.bags)
        axioms.append(check.axiom)
    assert axioms.count(2) >= 40  # most corruptions break edge coverage
    # 78 today: 13 from the first two kinds and 65 of the 113 interior
    # drops (the other 48 uncover an edge first)
    assert axioms.count(3) >= 60


@settings(deadline=None, max_examples=150)
@given(
    st.integers(0, 2**32),
    st.integers(5, 60),
    st.integers(1, 4),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_one_dropped_bag_vertex_matches_full_scan(seed, n, k, pick_bag, pick_vertex):
    # the edge axiom scans the shorter of the two endpoints' bag lists; the
    # verdict, witness and message are those of checking every bag
    g, td = random_partial_ktree(SplitMix64(seed), n, k)
    bags = [list(b) for b in td.bags]
    bag = bags[pick_bag % len(bags)]
    bag.remove(bag[pick_vertex % len(bag)])
    td = TreeDecomposition(bags, td.parent, td.root)
    assert verify_decomposition(g, td) == _full_scan_verify(g, td)


def test_reduce_height_p64():
    td = path_decomposition(64)
    assert td.width == 1 and td.height == 62
    red = reduce_height(td, 64)
    assert verify_decomposition(path_graph(64), red)
    assert red.width <= 5  # 3*alpha + 2 with alpha = 1
    assert red.height <= 4 * math.ceil(math.log2(64))


def test_reduce_height_single_bag():
    td = TreeDecomposition([(0, 1, 2)], [None], 0)
    red = reduce_height(td, 3)
    assert red.height == 0
    assert set(red.bags[0]) == {0, 1, 2}


def test_reduce_height_random_partial_2_trees():
    rng = SplitMix64(77)
    for _ in range(40):
        n = 20 + rng.randrange(31)
        g, td = random_partial_ktree(rng, n, 2)
        red = reduce_height(td, n)
        assert verify_decomposition(g, red)
        assert red.width <= 3 * td.width + 2 <= 8
        assert red.height <= 4 * math.ceil(math.log2(n))


def test_reduce_height_frees_its_work_on_return():
    # no reference cycle holds the working sets until a full collection
    td = path_decomposition(64)
    gc.collect()
    gc.disable()
    try:
        reduce_height(td, 64)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _piece_of(walk):
    """The walked piece's bags and tree adjacency, read off the walk's
    parent map (the root is its own parent)."""
    order, parent, _ = walk
    adj = {u: set() for u in order}
    for u in order[1:]:
        adj[u].add(parent[u])
        adj[parent[u]].add(u)
    return set(order), adj


def _oracle_centroid(walk):
    """The quadratic search: remove each bag and measure what is left."""
    nodes, adj = _piece_of(walk)
    best = None
    for c in sorted(nodes):
        worst = max((len(x) for x in _oracle_components(nodes, adj, c)), default=0)
        if best is None or (worst, c) < best:
            best = (worst, c)
    return best[1]


@st.composite
def _tree_pieces(draw):
    """A random tree on shuffled ids and a connected piece of it."""
    n = draw(st.integers(1, 40))
    ids = draw(st.permutations(range(n)))
    adj = [set() for _ in range(n)]
    for i in range(1, n):
        p = draw(st.integers(0, i - 1))
        adj[ids[i]].add(ids[p])
        adj[ids[p]].add(ids[i])
    keep = draw(st.sets(st.integers(0, n - 1)))
    start = draw(st.integers(0, n - 1))
    piece = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v in keep and v not in piece:
                piece.add(v)
                stack.append(v)
    return adj, piece


def _oracle_components(nodes, adj, removed):
    """One depth-first search per unseen bag, in ascending bag order."""
    comps = []
    seen = {removed}
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v in nodes and v != removed and v not in comp:
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
        seen |= comp
    return comps


def _walk_from(nodes, adj, root):
    """_rooted(nodes, adj, root), checked to span the piece with its own
    tree edges, so an oracle may read the piece off it."""
    walk = _rooted(nodes, adj, root)
    assert walk[0][0] == root
    assert _piece_of(walk) == (nodes, {u: adj[u] & nodes for u in nodes})
    return walk


@settings(max_examples=300, deadline=None)
@given(_tree_pieces(), st.data())
def test_components_match_search_oracle(tree_piece, data):
    # read off one rooted pass from any root, in order of their least bag
    adj, piece = tree_piece
    walk = _walk_from(piece, adj, data.draw(st.sampled_from(sorted(piece))))
    for c in piece:
        assert _components(walk, c) == _oracle_components(piece, adj, c)


@settings(max_examples=300, deadline=None)
@given(_tree_pieces(), st.data())
def test_centroid_matches_quadratic_oracle(tree_piece, data):
    # the answer does not depend on where the piece is rooted
    adj, piece = tree_piece
    for nodes in (set(range(len(adj))), piece):
        walk = _walk_from(nodes, adj, data.draw(st.sampled_from(sorted(nodes))))
        assert _centroid(walk) == _oracle_centroid(walk)


def test_centroid_ties_take_the_least_bag():
    # a path of four bags has two centroids; a star's hub wins although
    # it has the largest id
    path = [{1}, {0, 2}, {1, 3}, {2}]
    assert _centroid(_rooted({0, 1, 2, 3}, path, 0)) == 1
    star = [{3}, {3}, {3}, {0, 1, 2}]
    assert _centroid(_rooted({0, 1, 2, 3}, star, 0)) == 3


def _oracle_path_splitter(walk, a2):
    """The quadratic search: one component search per bag on the path from
    the walk's root a1 to a2."""
    nodes, adj = _piece_of(walk)
    a1 = walk[0][0]
    prev = {a1: a1}
    stack = [a1]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v in nodes and v not in prev:
                prev[v] = u
                stack.append(v)
    path = [a2]
    while path[-1] != a1:
        path.append(prev[path[-1]])
    best = None
    for x in path:
        comps = _oracle_components(nodes, adj, x)
        side1 = next((len(c) for c in comps if a1 in c), 0)
        side2 = next((len(c) for c in comps if a2 in c), 0)
        if best is None or (max(side1, side2), x) < best:
            best = (max(side1, side2), x)
    return best[1]


def _oracle_simplify(td):
    """The restart scan: after each contraction, look again from bag 0."""
    bags = [set(b) for b in td.bags]
    adj = [set() for b in bags]
    for i, p in enumerate(td.parent):
        if p is not None:
            adj[i].add(p)
            adj[p].add(i)
    alive = set(range(len(bags)))
    changed = True
    while changed and len(alive) > 1:
        changed = False
        for i in sorted(alive):
            for j in sorted(adj[i]):
                if bags[i] <= bags[j]:
                    for x in adj[i]:
                        if x != j:
                            adj[x].discard(i)
                            adj[x].add(j)
                            adj[j].add(x)
                    adj[j].discard(i)
                    adj[i].clear()
                    alive.discard(i)
                    changed = True
                    break
            if changed:
                break
    idx = {old: new for new, old in enumerate(sorted(alive))}
    new_bags = [bags[old] for old in sorted(alive)]
    new_adj = [set() for _ in new_bags]
    for old in sorted(alive):
        for nb in adj[old]:
            new_adj[idx[old]].add(idx[nb])
    return new_bags, new_adj


@settings(max_examples=300, deadline=None)
@given(_tree_pieces(), st.data())
def test_path_splitter_matches_quadratic_oracle(tree_piece, data):
    adj, piece = tree_piece
    for nodes in (set(range(len(adj))), piece):
        if len(nodes) > 1:
            a1, a2 = data.draw(st.lists(st.sampled_from(sorted(nodes)),
                                        min_size=2, max_size=2, unique=True))
            walk = _walk_from(nodes, adj, a1)
            assert _path_splitter(walk, a2) == _oracle_path_splitter(walk, a2)


def _hung_path(m):
    """Bags (i, i+1) for i < m, with a one-vertex bag (i,) hung off each."""
    bags = [(i, i + 1) for i in range(m)] + [(i,) for i in range(m)]
    parent = [None] + list(range(m - 1)) + list(range(m))
    return TreeDecomposition(bags, parent, 0)


def _random_bag_tree(randint, n, universe=6):
    """A bag tree on shuffled ids in which about half the bags are drawn
    inside their parent's bag, so many are subsets of a neighbor;
    randint(lo, hi) draws from lo..hi inclusive."""
    ids = list(range(n))
    for i in range(n - 1, 0, -1):
        j = randint(0, i)
        ids[i], ids[j] = ids[j], ids[i]
    bags, parent = [()] * n, [None] * n
    for i in range(n):
        p = randint(0, i - 1) if i else None
        pool = bags[ids[p]] if p is not None and randint(0, 1) else range(universe + 1)
        bag = {v for v in pool if randint(0, 1)} or {min(pool)}
        bags[ids[i]] = tuple(bag)
        parent[ids[i]] = None if p is None else ids[p]
    return TreeDecomposition(bags, parent, ids[0])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.randoms(use_true_random=False))
def test_simplify_matches_restart_scan(n, rnd):
    td = _random_bag_tree(rnd.randint, n)
    assert _simplify(td) == _oracle_simplify(td)


def test_reduce_height_matches_oracle_driven_run(monkeypatch):
    rng = SplitMix64(78)
    tds = [random_partial_ktree(rng, 10 + rng.randrange(140), 1 + i % 4)[1]
           for i in range(16)]
    tds += [path_decomposition(300), _hung_path(150), gb_decomposition(2, 3),
            module_graph_decomposition(3)]
    tds += [_random_bag_tree(rng.randint, 20 + rng.randrange(100), universe=12)
            for _ in range(8)]
    fast = [reduce_height(td, 0).to_json() for td in tds]
    monkeypatch.setattr(tree_decomp, "_centroid", _oracle_centroid)
    monkeypatch.setattr(tree_decomp, "_path_splitter", _oracle_path_splitter)
    monkeypatch.setattr(
        tree_decomp, "_components",
        lambda walk, c: _oracle_components(*_piece_of(walk), c),
    )
    monkeypatch.setattr(tree_decomp, "_simplify", _oracle_simplify)
    assert fast == [reduce_height(td, 0).to_json() for td in tds]


def test_reduce_height_roots_each_piece_once_per_split(monkeypatch):
    # a split turns a piece of three or more bags into an output bag with
    # children; the split choice and the components share one rooted pass
    roots = []
    real_rooted = tree_decomp._rooted

    def counted(nodes, adj, root):
        roots.append(root)
        return real_rooted(nodes, adj, root)

    monkeypatch.setattr(tree_decomp, "_rooted", counted)
    for td in (path_decomposition(300), gb_decomposition(2, 3),
               random_partial_ktree(SplitMix64(1), 250, 3)[1]):
        roots.clear()
        red = reduce_height(td, 0)
        splits = len({p for p in red.parent if p is not None})
        assert splits > 0 and len(roots) == splits


def test_tree_decomp_imports_only_metric_core():
    # no graph family is known here; function-level imports count too
    tree = ast.parse(Path(tree_decomp.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            package = "kslab" if node.level else None
            module = ".".join(filter(None, (package, node.module)))
            if module == "kslab":  # from . import x, from kslab import x
                imported |= {f"kslab.{alias.name}" for alias in node.names}
            else:
                imported.add(module)
    assert {m for m in imported if m.split(".")[0] == "kslab"} == {
        "kslab.metric_core"
    }


# sha256 of the canonical JSON of reduce_height(td).to_json(), recorded with
# the splitter that searched components once per path bag and the subset
# contraction that rescanned from bag 0 after every step; the hung bags
# contract into the path, so both reduce to the same bytes
@pytest.mark.parametrize(
    "make,digest",
    [
        (lambda: path_decomposition(2000),
         "ad1439278fe5f12b46e2066e744c5fe67dd434939b6148dc9dffd48d3b277088"),
        (lambda: _hung_path(1999),
         "ad1439278fe5f12b46e2066e744c5fe67dd434939b6148dc9dffd48d3b277088"),
    ],
    ids=["path-2000", "hung-path-3998"],
)
def test_long_path_reductions_are_pinned(make, digest):
    red = reduce_height(make(), 2000)
    text = json.dumps(red.to_json(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _star(leaves: int) -> TreeDecomposition:
    """Hub bag (0, 1) with leaf bags (0, i) hung off it."""
    bags = [(0, 1)] + [(0, i) for i in range(2, leaves + 2)]
    return TreeDecomposition(bags, [None] + [0] * leaves, 0)


def test_star_reduction_is_pinned():
    # recorded when each component's start was min() of the bags left over
    red = reduce_height(_star(2000), 2002)
    text = json.dumps(red.to_json(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "54e795954b63a4b69b398934454518a8f6fcc668856ebd7d82f24adef63488c4"
    )


def test_lca_against_naive_walk():
    rng = SplitMix64(501)
    # random rooted bag tree; bag contents are irrelevant to LCA queries
    parent = [None]
    for i in range(1, 120):
        parent.append(rng.randrange(i))
    bags = [(i,) for i in range(120)]
    td = TreeDecomposition(bags, parent, 0)

    def naive(i, j):
        anc = set()
        while i is not None:
            anc.add(i)
            i = td.parent[i]
        while j not in anc:
            j = td.parent[j]
        return j

    for _ in range(500):
        i = rng.randrange(120)
        j = rng.randrange(120)
        assert td.lca_bag(i, j) == naive(i, j)
    assert td.lca_bag(7, 7) == 7
    sib = [b for b in range(1, 120) if td.parent[b] == td.parent[1]]
    if len(sib) > 1:
        assert td.lca_bag(sib[0], sib[1]) == td.parent[sib[0]]


def test_intersect_trivial_cases():
    g = path_graph(5)
    dm = all_pairs_shortest_paths(g)
    td = path_decomposition(5)
    assert intersect_shortest_path(dm, td, 2, 2, td.representative_bag[2]) == 2
    mid = intersect_shortest_path(dm, td, 0, 4, 2)  # bag {2,3}
    assert mid in (2, 3)


def test_intersect_never_fails_on_tree_path_bags():
    rng = SplitMix64(502)
    done = 0
    while done < 100:
        g, td = random_partial_ktree(rng, 8 + rng.randrange(18), 1 + rng.randrange(4))
        dm = all_pairs_shortest_paths(g)
        for _ in range(4):
            x = rng.randrange(g.n)
            y = rng.randrange(g.n)
            bx, by = td.representative_bag[x], td.representative_bag[y]
            anc = td.lca_bag(bx, by)
            # walk the tree path between the representative bags
            path_bags = []
            b = bx
            while b != anc:
                path_bags.append(b)
                b = td.parent[b]
            path_bags.append(anc)
            b = by
            tail = []
            while b != anc:
                tail.append(b)
                b = td.parent[b]
            path_bags.extend(reversed(tail))
            bag = path_bags[rng.randrange(len(path_bags))]
            z = intersect_shortest_path(dm, td, x, y, bag)
            assert z in td.bags[bag]
            assert dm.dist[x][z] + dm.dist[z][y] == dm.dist[x][y]
            done += 1


def test_module_decomposition_gamma2():
    td = module_graph_decomposition(2)
    g = module_graph(2)
    assert verify_decomposition(g, td)
    assert td.num_bags == 8  # 2 * 2^gamma
    assert all(len(b) == 5 for b in td.bags)  # 2*gamma + 1 vertices each
    assert td.width == 4


def test_module_decomposition_gamma3():
    td = module_graph_decomposition(3)
    g = module_graph(3)
    assert verify_decomposition(g, td)
    assert td.num_bags == 16
    assert all(len(b) == 7 for b in td.bags)
    assert td.width == 6


def test_gb_decomposition():
    for m, gamma in ((1, 2), (2, 2), (2, 3)):
        g = gb_graph(m, gamma)
        td = gb_decomposition(m, gamma)
        assert verify_decomposition(g, td)
        assert td.width == 2 * gamma
        # the two-vertex source bags are present, one per module
        source = g.n - 1
        small = [b for b in td.bags if len(b) == 2 and source in b]
        assert len(small) == m


def test_json_round_trip():
    td = module_graph_decomposition(2)
    again = TreeDecomposition.from_json(json.dumps(td.to_json()))
    assert again.bags == td.bags
    assert again.parent == td.parent
    assert again.root == td.root


@pytest.mark.parametrize(
    "text,error",
    [
        ('{"bags": [[0]], "root": 0}', r"^parent: missing field"),
        ('{"parent": [null], "root": 0}', r"^bags: missing field"),
        ('{"bags": [[0]], "parent": [null]}', r"^root: missing field"),
        ("[]", r"^top level: expected a JSON object"),
        ('{"bags": [[0]], ', r"^line 1: "),
        ('{"bags": [], "parent": [], "root": 0}', r"^bags: expected a non-empty"),
        ('{"bags": [0], "parent": [null], "root": 0}', r"^bags\[0\]: expected a list"),
        ('{"bags": [[0], [true]], "parent": [null, 0], "root": 0}', r"^bags\[1\]\[0\]: bad vertex True"),
        ('{"bags": [[0]], "parent": [null, 0], "root": 0}', r"^parent: expected a list of 1 entries"),
        ('{"bags": [[0], [1]], "parent": [null, "0"], "root": 0}', r"^parent\[1\]: '0' is not a bag id"),
        ('{"bags": [[0]], "parent": [null], "root": 3}', r"^root: 3 is not a bag id"),
        ('{"bags": [[0], [1]], "parent": [null, null], "root": 0}', r"^parent: bag 1 has invalid parent"),
        ('{"bags": [[0], [1]], "parent": [1, null], "root": 0}', r"^parent: root must have parent None$"),
        ('{"bags": [[0], [1], [2]], "parent": [null, 2, 1], "root": 0}',
         r"^parent: parent links do not form a single rooted tree$"),
    ],
)
def test_json_errors_are_located(text, error):
    with pytest.raises(GraphFormatError, match=error):
        TreeDecomposition.from_json(text)


# ---------------------------------------------------------------------------
# Rooted walks of parent arrays.


@st.composite
def _parent_arrays(draw):
    """A random tree on shuffled ids, then up to two links redrawn at random
    (to None, to the node itself or into a cycle), and the tree's root."""
    n = draw(st.integers(1, 30))
    ids = draw(st.permutations(range(n)))
    parent = [None] * n
    for i in range(1, n):
        parent[ids[i]] = ids[draw(st.integers(0, i - 1))]
    for _ in range(draw(st.integers(0, 2))):
        parent[draw(st.integers(0, n - 1))] = draw(st.none() | st.integers(0, n - 1))
    return parent, ids[0]


def _naive_subtree(parent, root, u):
    """u and everything below it, by recursion over a full child scan; the
    root's own link is ignored."""
    kids = [v for v in range(len(parent)) if v != root and parent[v] == u]
    return [u] + [x for c in kids for x in _naive_subtree(parent, root, c)]


def _naive_depth(parent, root, v):
    """Links from v up to root, or -1 if v does not hang from root."""
    steps = 0
    while v != root:
        v = parent[v]
        steps += 1
        if v is None or steps > len(parent):
            return -1
    return steps


@settings(max_examples=300, deadline=None)
@given(_parent_arrays())
def test_rooted_walk_matches_naive_recursion(case):
    parent, root = case
    n = len(parent)
    order, children, depth, size = rooted_walk(parent, root)
    assert order[0] == root
    assert sorted(order) == sorted(_naive_subtree(parent, root, root))
    pos = {u: i for i, u in enumerate(order)}
    for u in range(n):
        assert children[u] == [
            v for v in range(n) if v != root and parent[v] == u
        ]
        assert depth[u] == _naive_depth(parent, root, u)
        if u in pos:
            below = _naive_subtree(parent, root, u)
            assert size[u] == len(below)
            assert sorted(order[pos[u]:pos[u] + size[u]]) == sorted(below)
        else:
            assert size[u] == 0
    assert (len(order) < n) == any(
        _naive_depth(parent, root, v) < 0 for v in range(n)
    )
