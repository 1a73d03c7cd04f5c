"""Tree decompositions: axiom verification, exact treewidth for tiny
graphs, logarithmic height restriction, ancestor/LCA addressing, and the
explicit decompositions of the unit/module graph families.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .metric_core import (
    DistanceMatrix,
    Graph,
    GraphFormatError,
    is_vertex,
    json_field,
    parse_json,
    shortest_path_vertices,
)
from .offline_solver import InstanceTooLarge
from . import adversary


class NoIntersection(RuntimeError):
    """A bag on the tree path missed the shortest path: decomposition bug."""


class HeightReductionFault(RuntimeError):
    """A split broke an invariant that bounds the reduced width or height."""


def rooted_walk(parent, root: int):
    """(order, children, depth, size) of the tree hanging from root.

    parent[v] is the node above v or None, and names a node in range; the
    root's own link is ignored.  order is a preorder of the nodes reached from
    root in which the subtree of v is the slice of size[v] entries starting
    at v; children[v] lists v's children in ascending order.  A node on or
    below a parent cycle is never reached, so len(order) < len(parent)
    exactly when some node does not hang from root; such a node keeps
    depth -1 and size 0.
    """
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p is not None and v != root:
            children[p].append(v)
    order = []
    depth = [-1] * n
    depth[root] = 0
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for c in children[u]:
            depth[c] = depth[u] + 1
        stack.extend(children[u])
    size = [0] * n
    for u in reversed(order):
        size[u] += 1
        if u != root:
            size[parent[u]] += size[u]
    return order, children, depth, size


class TreeDecomposition:
    """Rooted bag tree.

    bags[i] is a sorted vertex tuple; parent[i] is a bag index or None for
    the root.  Bag ordering for in-bag indices is ascending vertex id, and
    the representative bag of a vertex is the lowest-index bag containing
    it.
    """

    def __init__(self, bags, parent, root: int):
        self.bags: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(set(b))) for b in bags
        )
        self.parent: tuple[int | None, ...] = tuple(parent)
        self.root = root
        b = len(self.bags)
        if len(self.parent) != b or not (0 <= root < b):
            raise ValueError("parent array and root must match the bag list")
        if self.parent[root] is not None:
            raise ValueError("root must have parent None")
        for i, p in enumerate(self.parent):
            if i != root and (p is None or not (0 <= p < b)):
                raise ValueError(f"bag {i} has invalid parent {p!r}")
        order, _, depth, _ = rooted_walk(self.parent, root)
        if len(order) != b:
            raise ValueError("parent links do not form a single rooted tree")
        self.depth: tuple[int, ...] = tuple(depth)
        rep: dict[int, int] = {}
        for i, bag in enumerate(self.bags):
            for v in bag:
                rep.setdefault(v, i)
        self.representative_bag: dict[int, int] = rep

    @property
    def num_bags(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    @property
    def height(self) -> int:
        return max(self.depth)

    # -- ancestors by parent walks ------------------------------------------
    # The online algorithm only queries height-reduced decompositions, so
    # every walk is short.

    def ancestor_at_depth(self, bag_idx: int, d: int) -> int:
        """The unique ancestor of bag_idx at depth d (d <= its depth)."""
        if not (0 <= d <= self.depth[bag_idx]):
            raise ValueError(
                f"depth {d} not on the root path of bag {bag_idx}"
            )
        for _ in range(self.depth[bag_idx] - d):
            bag_idx = self.parent[bag_idx]
        return bag_idx

    def lca_bag(self, i: int, j: int) -> int:
        """Deepest common ancestor of two bags."""
        parent, depth = self.parent, self.depth
        while depth[i] > depth[j]:
            i = parent[i]
        while depth[j] > depth[i]:
            j = parent[j]
        while i != j:
            i, j = parent[i], parent[j]
        return i

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "bags": [list(b) for b in self.bags],
            "parent": [p for p in self.parent],
        }

    @classmethod
    def from_json(cls, obj) -> "TreeDecomposition":
        """Load {"bags", "parent", "root"} from JSON text or a parsed object.

        A missing or mistyped field raises GraphFormatError naming it, as in
        "bags[2][0]" or "parent"; bag vertices are checked against a graph
        by verify_decomposition, not here.
        """
        if isinstance(obj, str):
            obj = parse_json(obj)
        bags = json_field(obj, "bags")
        parent = json_field(obj, "parent")
        root = json_field(obj, "root")
        if not isinstance(bags, list) or not bags:
            raise GraphFormatError("bags", "expected a non-empty list of bags")
        for i, bag in enumerate(bags):
            if not isinstance(bag, list):
                raise GraphFormatError(f"bags[{i}]", "expected a list of vertices")
            for j, v in enumerate(bag):
                if not (isinstance(v, int) and not isinstance(v, bool) and v >= 0):
                    raise GraphFormatError(f"bags[{i}][{j}]", f"bad vertex {v!r}")
        b = len(bags)
        if not isinstance(parent, list) or len(parent) != b:
            raise GraphFormatError("parent", f"expected a list of {b} entries")
        for i, p in enumerate(parent):
            if p is not None and not is_vertex(p, b):
                raise GraphFormatError(f"parent[{i}]", f"{p!r} is not a bag id in 0..{b - 1}")
        if not is_vertex(root, b):
            raise GraphFormatError("root", f"{root!r} is not a bag id in 0..{b - 1}")
        try:
            return cls(bags, parent, root)
        except ValueError as exc:
            raise GraphFormatError("parent", str(exc)) from exc

    def __repr__(self) -> str:
        return (
            f"TreeDecomposition(bags={self.num_bags}, width={self.width}, "
            f"height={self.height})"
        )


@dataclass
class DecompositionCheck:
    ok: bool
    axiom: int | None = None
    witness: object = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_decomposition(g: Graph, td: TreeDecomposition) -> DecompositionCheck:
    """Check the three axioms; reports the first violation with a witness."""
    covered: set[int] = set()
    for bag in td.bags:
        for v in bag:
            if not (0 <= v < g.n):
                return DecompositionCheck(
                    False, 1, v, f"bag vertex {v} outside the graph"
                )
        covered.update(bag)
    for v in range(g.n):
        if v not in covered:
            return DecompositionCheck(
                False, 1, v, f"vertex {v} not covered by any bag"
            )
    holding: dict[int, list[int]] = {}
    for i, b in enumerate(td.bags):
        for v in b:
            holding.setdefault(v, []).append(i)
    bag_sets = [set(b) for b in td.bags]
    for u, v, _ in g.edges:  # every bag holding both is one that holds u
        if not any(v in bag_sets[i] for i in holding[u]):
            return DecompositionCheck(
                False, 2, (u, v), f"edge ({u}, {v}) inside no bag"
            )
    # Connectivity: the bags holding v form a subtree exactly when one of
    # them, the top, has no parent that also holds v.
    parent = td.parent
    for v, nodes in holding.items():
        tops = sum(
            1 for i in nodes if parent[i] is None or v not in bag_sets[parent[i]]
        )
        if tops != 1:
            return DecompositionCheck(
                False,
                3,
                v,
                f"bags containing vertex {v} are not connected in the tree",
            )
    return DecompositionCheck(True, message="all three axioms hold")


# ---------------------------------------------------------------------------
# Exact treewidth by dynamic programming over eliminated vertex sets.


def _boundary_size(adj_masks, elim: int, v: int) -> int:
    """Neighbors of v outside elim, reachable through eliminated vertices."""
    comp = 1 << v
    frontier = comp
    boundary = 0
    while frontier:
        reach = 0
        f = frontier
        while f:
            u = (f & -f).bit_length() - 1
            f &= f - 1
            reach |= adj_masks[u]
        reach &= ~comp
        boundary |= reach & ~elim
        frontier = reach & elim
        comp |= reach
    return bin(boundary).count("1")


def exact_treewidth(g: Graph) -> tuple[int, TreeDecomposition]:
    """Minimum width over all elimination orderings, with a witness.

    Memoized over eliminated subsets, so only graphs with N <= 20 are
    admitted.  The returned decomposition always verifies.
    """
    n = g.n
    if n > 20:
        raise InstanceTooLarge(f"exact treewidth guarded to N <= 20, got {n}")
    adj_masks = [0] * n
    for u, v, _ in g.edges:
        adj_masks[u] |= 1 << v
        adj_masks[v] |= 1 << u
    full = (1 << n) - 1
    memo: dict[int, int] = {0: -1}
    choice: dict[int, int] = {}

    def best(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        result = n  # upper sentinel
        pick = -1
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            rest = mask & ~(1 << v)
            cand = max(best(rest), _boundary_size(adj_masks, rest, v))
            if cand < result:
                result = cand
                pick = v
        memo[mask] = result
        choice[mask] = pick
        return result

    width = best(full)  # recursion depth <= n + 1, n <= 20 by the guard

    # Recover the elimination order (choice picks the last-eliminated).
    rev = []
    mask = full
    while mask:
        v = choice[mask]
        rev.append(v)
        mask &= ~(1 << v)
    order = rev[::-1]

    # Build bags from the order; parent = bag of the earliest-eliminated
    # neighbor at elimination time.
    pos = {v: i for i, v in enumerate(order)}
    work = [set() for _ in range(n)]
    for u, v, _ in g.edges:
        work[u].add(v)
        work[v].add(u)
    bags = []
    seps = []
    for v in order:
        c = sorted(work[v])
        bags.append(sorted(c + [v]))
        seps.append(c)
        for a in c:
            for b in c:
                if a != b:
                    work[a].add(b)
            work[a].discard(v)
    parent: list[int | None] = [None] * n
    for i in range(n):
        if seps[i]:
            parent[i] = min(pos[u] for u in seps[i])
        elif i < n - 1:
            parent[i] = i + 1  # cannot happen on connected graphs
    td = TreeDecomposition(bags, parent, root=n - 1)
    return width, td


# ---------------------------------------------------------------------------
# Height restriction.
#
# Recursive splitting of the bag tree.  Each recursion step roots the
# result at the union of the chosen split bag and up to two anchor bags
# (the bags facing already-processed parts), so new bags merge at most
# three old ones: width <= 3*alpha + 2.  With at most one anchor the split
# bag is a centroid; with two anchors it is chosen on the anchor-to-anchor
# path so that both anchor-side components halve.  Either choice reads
# one rooted pass over the piece (breadth-first order, parents, subtree
# sizes), so finding a split costs time linear in its piece.  Every two
# levels the component size halves, giving height <= 2*log2(bags) + O(1),
# and bags are first pruned to at most N+1 by contracting subset bags.
# Nothing here enforces the 4*ceil(log2 N) bound;
# tests/test_tree_decomp.py checks it.


def _simplify(td: TreeDecomposition) -> tuple[list[set[int]], list[set[int]]]:
    """Contract bags that are subsets of a neighbor; returns (bags, adj).

    Each step contracts the least bag that is a subset of a neighbor into
    the least such neighbor.  Bags never change, so a contraction can only
    make candidates of the merged bag and of the contracted bag's other
    neighbors; just those go back on the min-heap of bags to examine.
    """
    bags = [set(b) for b in td.bags]
    adj: list[set[int]] = [set() for b in bags]
    for i, p in enumerate(td.parent):
        if p is not None:
            adj[i].add(p)
            adj[p].add(i)
    alive = [True] * len(bags)
    todo = list(range(len(bags)))  # sorted, hence already a heap
    while todo:
        i = heapq.heappop(todo)
        if not alive[i]:
            continue
        j = min((j for j in adj[i] if bags[i] <= bags[j]), default=None)
        if j is None:
            continue
        for x in adj[i] - {j}:
            adj[x].discard(i)
            adj[x].add(j)
            adj[j].add(x)
            heapq.heappush(todo, x)
        adj[j].discard(i)
        adj[i].clear()
        alive[i] = False
        heapq.heappush(todo, j)
    kept = [i for i in range(len(bags)) if alive[i]]
    idx = {old: new for new, old in enumerate(kept)}
    return [bags[i] for i in kept], [{idx[nb] for nb in adj[i]} for i in kept]


def _components(nodes: set[int], adj, removed: int) -> list[set[int]]:
    """The components of nodes minus removed, in order of their least bag."""
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


def _rooted(nodes: set[int], adj, root: int):
    """Breadth-first order, parents and subtree sizes of the connected
    piece rooted at root; the root is its own parent."""
    parent = {root: root}
    order = [root]
    for u in order:  # breadth-first; order grows as the loop runs
        for v in adj[u]:
            if v in nodes and v not in parent:
                parent[v] = u
                order.append(v)
    size = dict.fromkeys(order, 1)
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    return order, parent, size


def _centroid(nodes: set[int], adj) -> int:
    """The bag of the connected piece whose removal leaves the smallest
    largest component, least id on ties.

    Rooted at min(nodes): removing c leaves its child subtrees and the
    rest of the piece, |nodes| - size[c] bags.
    """
    order, parent, size = _rooted(nodes, adj, min(nodes))
    heaviest_child = dict.fromkeys(order, 0)
    for u in order[1:]:
        p = parent[u]
        heaviest_child[p] = max(heaviest_child[p], size[u])
    return min(
        (max(heaviest_child[c], len(nodes) - size[c]), c) for c in order
    )[1]


def _path_splitter(nodes: set[int], adj, a1: int, a2: int) -> int:
    """The bag on the a1-a2 path whose removal leaves the smaller largest
    anchor side, least id on ties.

    Rooted at a1: removing x leaves |nodes| - size[x] bags on a1's side
    and the subtree of x's child toward a2 on a2's side.
    """
    _, parent, size = _rooted(nodes, adj, a1)
    best = (len(nodes) - size[a2], a2)
    x = a2
    while x != a1:
        child, x = x, parent[x]
        best = min(best, (max(len(nodes) - size[x], size[child]), x))
    return best[1]


def reduce_height(td: TreeDecomposition, n_vertices: int) -> TreeDecomposition:
    """Rebalance a decomposition to logarithmic height, width <= 3a+2."""
    bags, adj = _simplify(td)
    out_bags: list[set[int]] = []
    out_parent: list[int | None] = []

    def build(nodes: set[int], anchors: tuple[int, ...]) -> int:
        if len(nodes) <= 2:
            merged: set[int] = set()
            for i in nodes:
                merged |= bags[i]
            out_bags.append(merged)
            out_parent.append(None)
            return len(out_bags) - 1
        if len(anchors) <= 1:
            c = _centroid(nodes, adj)
        else:
            c = _path_splitter(nodes, adj, anchors[0], anchors[1])
        merged = set(bags[c])
        for a in anchors:
            merged |= bags[a]
        out_bags.append(merged)
        out_parent.append(None)
        r_idx = len(out_bags) - 1
        for comp in _components(nodes, adj, c):
            held = set(anchors) & comp
            sub_anchors = tuple(sorted({next(iter(adj[c] & comp))} | held))
            if len(sub_anchors) > 2:
                raise HeightReductionFault(
                    f"splitting at bag {c} leaves a component with anchors "
                    f"{sub_anchors}; at most 2 allowed"
                )
            # an anchor side above half the piece breaks the height bound
            if len(anchors) == 2 and held and len(comp) > len(nodes) // 2:
                raise HeightReductionFault(
                    f"splitting at bag {c} leaves {len(comp)} of {len(nodes)} "
                    f"bags on one side of anchors ({anchors[0]}, {anchors[1]}); "
                    f"at most {len(nodes) // 2} allowed"
                )
            out_parent[build(comp, sub_anchors)] = r_idx
        return r_idx

    root = build(set(range(len(bags))), ())
    return TreeDecomposition(out_bags, out_parent, root)


# ---------------------------------------------------------------------------
# Path/bag intersection (the addressing primitive of the online algorithm).


def intersect_shortest_path(
    dm: DistanceMatrix,
    td: TreeDecomposition,
    x: int,
    y: int,
    bag_idx: int,
) -> int:
    """First vertex of the canonical shortest x-y path inside the bag.

    For any bag on the tree path between bags holding x and y, such a
    vertex exists; NoIntersection therefore signals a broken decomposition
    and aborts the run.
    """
    bag = set(td.bags[bag_idx])
    for v in shortest_path_vertices(dm, x, y):
        if v in bag:
            return v
    raise NoIntersection(
        f"bag {bag_idx} misses every vertex of the shortest {x}-{y} path"
    )


# ---------------------------------------------------------------------------
# Explicit decompositions for the module families.


def _module_bags(ml) -> list[list[int]]:
    """2 * 2^gamma full bags: every element vertex plus one subset vertex.

    Each side contributes one bag per proper subset in (size, mask) order
    plus a duplicate of its empty-set bag, rounding the count up to a full
    power of two per side; duplicates sit next to their originals so
    subtree connectivity is preserved.
    """
    core = list(ml.side1.u_ids) + list(ml.side2.u_ids)
    bags = []
    for side in ml.sides():
        side_bags = [sorted(core + [w]) for w in side.w_ids]
        side_bags.append(side_bags[0])
        bags.extend(side_bags)
    return bags


def _module_parent(gamma: int) -> list[int | None]:
    """Chain the full bags of one module; duplicates hang off the empty-set bags."""
    s = (1 << gamma) - 1
    parent: list[int | None] = [None] * (2 * s + 2)
    for i in range(1, s):
        parent[i] = i - 1
    parent[s] = 0  # side-1 duplicate
    parent[s + 1] = s - 1  # side-2 chain joins the end of side 1
    for i in range(s + 2, 2 * s + 1):
        parent[i] = i - 1
    parent[2 * s + 1] = s + 1  # side-2 duplicate
    return parent


def module_graph_decomposition(gamma: int) -> TreeDecomposition:
    """Width-2*gamma decomposition of the module graph, 2*2^gamma bags."""
    ml = adversary.module_layout(gamma)
    return TreeDecomposition(_module_bags(ml), _module_parent(gamma), root=0)


def gb_decomposition(m: int, gamma: int) -> TreeDecomposition:
    """Width-2*gamma decomposition of the source-joined graph.

    Each module keeps its own chain of full bags; a two-vertex bag
    {source, selected vertex} fronts every module, and these source bags
    form their own chain so the source stays connected.
    """
    gb = adversary.gb_layout(m, gamma)
    per_module = 2 * ((1 << gamma) - 1) + 2
    module_parent = _module_parent(gamma)
    bags: list[list[int]] = []
    parent: list[int | None] = []
    for i, ml in enumerate(gb.modules):
        base = len(bags)  # index of this module's source bag
        bags.append(sorted((gb.source, gb.selected(i))))
        parent.append(None if i == 0 else base - (per_module + 1))
        for j, bag in enumerate(_module_bags(ml)):
            bags.append(bag)
            p = module_parent[j]
            parent.append(base if p is None else base + 1 + p)
    return TreeDecomposition(bags, parent, root=0)
