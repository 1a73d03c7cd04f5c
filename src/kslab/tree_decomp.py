"""Tree decompositions: axiom verification, logarithmic height
restriction, and ancestor/LCA addressing; a graph's edges are read here,
never its metric."""
from __future__ import annotations

import heapq
from typing import NamedTuple

from .metric_core import Graph, GraphFormatError, is_vertex, json_field, parse_json


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
    # The advice oracle only queries height-reduced decompositions, so every
    # walk is short.

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
    def from_json(cls, text: str) -> "TreeDecomposition":
        """Load {"bags", "parent", "root"} from JSON text.

        A missing or mistyped field raises GraphFormatError naming it, as in
        "bags[2][0]" or "parent"; bag vertices are checked against a graph
        by verify_decomposition, not here.
        """
        obj = parse_json(text)
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


class DecompositionCheck(NamedTuple):
    """The verdict on a decomposition: true exactly when `ok` is (as a
    plain tuple of four fields it would always be true)."""

    ok: bool
    axiom: int | None = None
    witness: object = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_decomposition(g: Graph, td: TreeDecomposition) -> DecompositionCheck:
    """Check the three axioms; reports the first violation with a witness."""
    holding: dict[int, list[int]] = {}  # vertex -> the bags holding it
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < g.n):
                return DecompositionCheck(
                    False, 1, v, f"bag vertex {v} outside the graph"
                )
            holding.setdefault(v, []).append(i)
    for v in range(g.n):
        if v not in holding:
            return DecompositionCheck(
                False, 1, v, f"vertex {v} not covered by any bag"
            )
    bag_sets = [set(b) for b in td.bags]
    for u, v, _ in g.edges:  # a bag holding both is in either's bag list
        a, b = (u, v) if len(holding[u]) <= len(holding[v]) else (v, u)
        if not any(b in bag_sets[i] for i in holding[a]):
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
# Height restriction.
#
# Recursive splitting of the bag tree.  Each recursion step roots the
# result at the union of the chosen split bag and up to two anchor bags
# (the bags facing already-processed parts), so new bags merge at most
# three old ones: width <= 3*alpha + 2.  With at most one anchor the split
# bag is a centroid; with two anchors it is chosen on the anchor-to-anchor
# path so that both anchor-side components halve.  Either choice, and the
# components the split leaves, read one rooted pass over the piece
# (preorder, parents, subtree sizes), rooted at the first anchor when there
# are two and at the least bag otherwise, so a split costs time linear in
# its piece.  Every two levels the component size halves, giving
# height <= 2*log2(bags) + O(1), and bags are first pruned to at most N+1
# by contracting subset bags.  Nothing here enforces the 4*ceil(log2 N)
# bound; tests/test_tree_decomp.py checks it.


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


def _rooted(nodes: set[int], adj, root: int):
    """Preorder, parents and subtree sizes of the connected piece rooted at
    root; the root is its own parent, and the subtree of v is the slice of
    size[v] entries of the preorder that starts at v."""
    parent = {root: root}
    order = []
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for v in adj[u]:
            if v in nodes and v not in parent:
                parent[v] = u
                stack.append(v)
    size = dict.fromkeys(order, 1)
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    return order, parent, size


def _components(walk, removed: int) -> list[set[int]]:
    """The components the walked piece leaves without removed, in order of
    their least bag: the subtree slice of each child of removed, plus the
    rest of the preorder unless removed is the root."""
    order, _, size = walk
    start = order.index(removed)
    end = start + size[removed]
    comps = [set(order[:start] + order[end:])] if start else []
    i = start + 1
    while i < end:
        comps.append(set(order[i:i + size[order[i]]]))
        i += size[order[i]]
    return sorted(comps, key=min)


def _centroid(walk) -> int:
    """The bag of the walked piece whose removal leaves the smallest
    largest component, least id on ties.

    Removing c leaves its child subtrees and the rest of the piece,
    len(order) - size[c] bags.
    """
    order, parent, size = walk
    heaviest_child = dict.fromkeys(order, 0)
    for u in order[1:]:
        p = parent[u]
        heaviest_child[p] = max(heaviest_child[p], size[u])
    return min(
        (max(heaviest_child[c], len(order) - size[c]), c) for c in order
    )[1]


def _path_splitter(walk, a2: int) -> int:
    """The bag on the path from the walk's root a1 to a2 whose removal
    leaves the smaller largest anchor side, least id on ties.

    Removing x leaves len(order) - size[x] bags on a1's side and the
    subtree of x's child toward a2 on a2's side.
    """
    order, parent, size = walk
    a1, n = order[0], len(order)
    best = (n - size[a2], a2)
    x = a2
    while x != a1:
        child, x = x, parent[x]
        best = min(best, (max(n - size[x], size[child]), x))
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
            walk = _rooted(nodes, adj, min(nodes))
            c = _centroid(walk)
        else:
            walk = _rooted(nodes, adj, anchors[0])
            c = _path_splitter(walk, anchors[1])
        merged = set(bags[c])
        for a in anchors:
            merged |= bags[a]
        out_bags.append(merged)
        out_parent.append(None)
        r_idx = len(out_bags) - 1
        for comp in _components(walk, c):
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
    # build's closure holds build itself: a reference cycle that would keep
    # every working set alive until the next full garbage collection
    del build
    return TreeDecomposition(out_bags, out_parent, root)

