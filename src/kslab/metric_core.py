"""Weighted graphs, exact shortest-path metrics, and their next hops.

Distances are kept exact: integer weights give integer distances, Fraction
weights give Fraction distances.  Floats are rejected so that cost-equality
checks elsewhere never need tolerances.

The metric is a dict of rows, the distances from one source, that computes
a row on its first read and keeps it; a run that reads only the rows of its
servers and requests computes no others.  On a graph whose every weight is
1 (every generated family) a row is one breadth-first search, O(N + M) with
no heap; any other weight takes a Dijkstra run over levels, O(M log N).
A solver that names the rows it will read up front has them computed in
blocks on unit weights: one bit-parallel breadth-first pass gives the rows
of up to 256 sources, a byte lane each, when the block is large against
the graph's eccentricity (`DistanceMatrix.compute_rows`).  A row is a
read-only sequence of ints or Fractions, indexed by vertex: a pass gives
`bytes` rows, a BFS or Dijkstra run a list.
The next hop from u toward y is the smallest neighbour of u on some
shortest path, read off the row of y; walking next hops from x visits the
lexicographically smallest shortest x-y path, and no path is ever built.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from heapq import heappop, heappush
import json
from math import lcm

Weight = int | Fraction
Row = Sequence[Weight]  # the distances from one source, indexed by vertex


class GraphError(ValueError):
    """Base class for graph construction and parsing errors."""


class SelfLoop(GraphError):
    pass


class NonPositiveWeight(GraphError):
    """Edge weight below the unit minimum (weights must be >= 1)."""


class DisconnectedGraph(GraphError):
    pass


class InconsistentMetric(RuntimeError):
    """Distances that no shortest path realises: a fault in the metric code."""


class GraphFormatError(GraphError):
    """Malformed external input; the message starts with its location: an
    index (graph JSON) or a field of an instance, decomposition or spanner
    file.
    """

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")


def exact(x: Weight) -> Weight:
    """x in the one form of an exact number: an int when it is integral,
    else the Fraction.  Weights, parsed numbers and optima all take it."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _check_weight(w) -> Weight:
    if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
        raise GraphError(f"weight {w!r} must be an int or Fraction")
    if w < 1:
        raise NonPositiveWeight(f"weight {w} is below 1")
    return exact(w)


class Graph:
    """Connected undirected graph on vertices 0..n-1 with weights >= 1.

    Immutable after construction; each undirected edge is stored once with
    u < v.
    """

    def __init__(self, n: int, edges):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise GraphError(f"vertex count must be a positive int, got {n!r}")
        seen: dict[tuple[int, int], Weight] = {}
        for u, v, w in edges:
            if not (is_vertex(u, n) and is_vertex(v, n)):
                raise GraphError(
                    f"edge endpoints ({u!r}, {v!r}) must be ints in [0, {n})"
                )
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            w = _check_weight(w)
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen[key] = w
        if len(seen) < n - 1:  # checked before anything is sized by n
            raise DisconnectedGraph(
                f"{n} vertices need at least {n - 1} edges, got {len(seen)}"
            )
        self.n = n
        self.edges: tuple[tuple[int, int, Weight], ...] = tuple(
            (u, v, seen[(u, v)]) for (u, v) in sorted(seen)
        )
        adj: list[list[tuple[int, Weight]]] = [[] for _ in range(n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        self.adj: tuple[tuple[tuple[int, Weight], ...], ...] = tuple(
            tuple(sorted(a)) for a in adj
        )
        # the neighbour ids alone, in the same order, for breadth-first walks
        self.nbrs: tuple[tuple[int, ...], ...] = tuple(
            tuple(v for v, _ in a) for a in self.adj
        )
        # every weight is 1: distances are hop counts, a row is one BFS
        self.unit_weights = all(w == 1 for _, _, w in self.edges)
        self._require_connected()

    def _require_connected(self) -> None:
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in self.nbrs[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        if count != self.n:
            missing = seen.index(False)
            raise DisconnectedGraph(
                f"vertex {missing} not reachable from vertex 0"
            )

    def weight(self, u: int, v: int) -> Weight:
        for x, w in self.adj[u]:
            if x == v:
                return w
        raise KeyError(f"no edge ({u}, {v})")

    def has_edge(self, u: int, v: int) -> bool:
        return any(x == v for x, _ in self.adj[u])

    @property
    def m(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class _Rows(dict[int, Row]):
    """rows[v]: the distances from v, computed on a miss and kept."""

    def __init__(self, g: Graph):
        super().__init__()
        self.g = g

    def __missing__(self, v: int) -> Row:
        row = self[v] = single_source_distances(self.g, v)
        return row


BLOCK = 256  # sources per bit-parallel pass: one byte lane each


class DistanceMatrix:
    """Exact all-pairs distances and their next hops.

    dist[u][v] is d(u, v); dist is a dict holding the rows computed so far,
    so it is indexed, not iterated.  A row is computed on its first read, or
    ahead of it, in blocks, by `compute_rows`.  A row is only read: a
    block's rows are `bytes`, the others lists.  Tie-breaking: `next_hop`
    walks the lexicographically smallest of the equal-length shortest
    paths, which makes every downstream run reproducible.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.dist = _Rows(g)

    def compute_rows(self, vertices) -> None:
        """Compute the rows of `vertices` that are not kept yet, before they
        are read.

        Only unit weights take a shortcut.  The first missing row is one
        BFS; its largest entry, ecc, bounds every distance of the graph by
        2*ecc (through that source).  Then each block of up to BLOCK of the
        other missing rows comes from one `multi_source_distances` pass,
        while the block has at least 8*ecc sources.  The pass costs a
        big-int step per adjacency entry per level, and there are at most
        2*ecc levels, where the block's rows by BFS cost a Python step per
        adjacency entry per source.  Measured on partial 3-trees and on
        grids with ecc read from a corner or the centre, a block of 8*ecc
        was 1.4-2.5 times faster by pass, where one of 4*ecc could lose
        (0.88 times on a 32x32 grid from its centre).  The rule needs
        ecc <= 32, so every distance is at most 64 and fits the pass's one
        byte lane.  Rows left over, and every row of a weighted graph, are
        computed on first read.  The rows hold equal values either way; a
        block's are `bytes`.
        """
        rows = self.dist
        todo = [v for v in dict.fromkeys(vertices) if v not in rows]
        if not (todo and self.g.unit_weights):
            return
        ecc = max(rows[todo[0]])
        for i in range(1, len(todo), BLOCK):
            block = todo[i:i + BLOCK]
            if len(block) < 8 * ecc:
                break
            rows.update(zip(block, multi_source_distances(self.g, block)))

    def next_hop(self, u: int, y: int) -> int:
        """The smallest neighbour x of u with w(u, x) + d(x, y) == d(u, y),
        read off the row of y (d is symmetric); u itself when u == y."""
        if u == y:
            return u
        dy = self.dist[y]
        d = dy[u]
        for x, w in self.g.adj[u]:  # adj is sorted by vertex id
            if w + dy[x] == d:
                return x
        raise InconsistentMetric(
            f"no neighbour of {u} lies on a shortest path to {y}"
        )


def weight_scale(g: Graph) -> int:
    """The lcm of g's edge weights' denominators (1 when every weight is an
    int): every distance of g is a sum of edge weights, so times this scale
    it is an exact int."""
    return lcm(*(w.denominator for _, _, w in g.edges if isinstance(w, Fraction)), 1)


def single_source_distances(g: Graph, s: int) -> list[Weight]:
    """Exact distances from s to every vertex.

    When every weight is 1 they are hop counts: breadth-first levels over
    the neighbour ids `g.nbrs`, where `frontier` holds the vertices at
    distance d - 1 and a vertex takes the first level that reaches it.
    Otherwise Dijkstra by distance levels: the heap holds each distinct
    tentative distance once, and level[d] the vertices reached at d.  Weights are >= 1, so scanning level d never adds
    to it; a vertex whose distance dropped below the level it was filed
    under is stale there and skipped.  None marks a vertex not reached yet;
    connectivity is a Graph invariant, so none survives.
    """
    dist: list[Weight | None] = [None] * g.n
    dist[s] = 0
    if g.unit_weights:
        nbrs = g.nbrs
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in nbrs[u]:
                    if dist[v] is None:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        return dist
    adj = g.adj
    heap: list[Weight] = [0]
    level: dict[Weight, list[int]] = {0: [s]}
    while heap:
        d = heappop(heap)
        for u in level.pop(d):
            if dist[u] != d:
                continue
            for v, w in adj[u]:
                nd = d + w
                dv = dist[v]
                if dv is None or nd < dv:
                    dist[v] = nd
                    bucket = level.get(nd)
                    if bucket is None:
                        level[nd] = [v]
                        heappush(heap, nd)
                    else:
                        bucket.append(v)
    return dist


def multi_source_distances(g: Graph, sources) -> list[bytes]:
    """The rows of up to BLOCK sources on a unit-weight graph whose distances
    are all below 256, from one bit-parallel breadth-first pass (Then et
    al., "The More the Merrier", PVLDB 2014).

    Each vertex v holds ints with one byte lane per source, lane i from bit
    8i up.  unseen[v] has lane i's low bit set until source i reaches v, and
    frontier[v] the lanes that reached v at the last level.  Level d ORs
    the frontier lanes of each waiting vertex's neighbours, keeps the ones
    still unseen and adds d times them to acc[v], so lane i of acc[v] ends
    as d(source i, v) without a carry.  Column v is acc[v]'s bytes, and
    row i, a `bytes` object, every m-th byte, from byte i, of the columns
    laid end to end.
    """
    n = g.n
    m = len(sources)
    nbrs = g.nbrs
    unseen = [int.from_bytes(b"\1" * m, "little")] * n
    frontier = [0] * n
    for i, s in enumerate(sources):
        unseen[s] ^= 1 << 8 * i
        frontier[s] |= 1 << 8 * i
    acc = [0] * n
    waiting = [v for v in range(n) if unseen[v]]
    d = 0
    while waiting:
        d += 1
        reached = [0] * n
        left = []
        for v in waiting:
            lanes = 0
            for u in nbrs[v]:
                lanes |= frontier[u]
            new = lanes & unseen[v]
            if new:
                reached[v] = new
                acc[v] += d * new
                unseen[v] ^= new
            if unseen[v]:
                left.append(v)
        frontier = reached
        waiting = left
    cols = b"".join([a.to_bytes(m, "little") for a in acc])
    return [cols[i::m] for i in range(m)]


def all_pairs_shortest_paths(g: Graph) -> DistanceMatrix:
    """The exact metric of g; each row is one BFS or Dijkstra run on first
    read, unless `compute_rows` computes it ahead, in a block."""
    return DistanceMatrix(g)


# ---------------------------------------------------------------------------
# External formats.
#
# Exact numbers in JSON: an int, or a "p/q" string in lowest terms with q > 1.
# Graph: {"n": N, "edges": [[u, v, w], ...]}.


def num_to_json(x):
    """An exact number as JSON: int-valued ones as ints, others as "p/q".

    Anything that is not a Fraction (ints, None) passes through unchanged.
    """
    x = exact(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def num_from_json(x, location: str) -> Weight:
    """The exact number an int or a "p/q" string stands for.

    Strings are read by `Fraction`, so "3" and "1.5" pass too, but not
    exponent forms: "1e99999999" would have Fraction build its power of
    ten.  Integral values come back as ints; anything else raises
    GraphFormatError naming `location`.
    """
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and "e" not in x.lower():
        try:
            f = Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            return exact(f)
    raise GraphFormatError(location, f"bad number {x!r}")


def parse_json(text: str):
    """External JSON text as a Python object; a syntax error names its line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"line {exc.lineno}", exc.msg) from exc
    except (ValueError, RecursionError) as exc:
        # an int past Python's digit limit, or nesting past the stack
        raise GraphFormatError("top level", str(exc)) from exc


def json_field(obj, key: str, where: str = ""):
    """obj[key] of an external JSON object, or GraphFormatError naming it.

    `where` locates obj itself, as in "trees[0]"; "" is the top level.
    """
    if not isinstance(obj, dict):
        raise GraphFormatError(where or "top level", "expected a JSON object")
    if key not in obj:
        raise GraphFormatError(f"{where}.{key}" if where else key, "missing field")
    return obj[key]


def is_vertex(v, n: int) -> bool:
    """Whether v is a vertex id of a graph on 0..n-1 (bools are not)."""
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


def graph_from_json(text: str) -> Graph:
    obj = parse_json(text)
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphFormatError("top level", "expected {'n': ..., 'edges': [...]}")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise GraphFormatError("n", f"vertex count must be a positive int, got {n!r}")
    if not isinstance(obj["edges"], list):
        raise GraphFormatError("edges", "expected a list of [u, v, w]")
    edges = []
    for i, e in enumerate(obj["edges"]):
        if not isinstance(e, list) or len(e) != 3:
            raise GraphFormatError(f"edges[{i}]", "expected [u, v, w]")
        edges.append((e[0], e[1], num_from_json(e[2], f"edges[{i}]")))
    try:
        return Graph(n, edges)
    except GraphError as exc:
        raise GraphFormatError("edges", str(exc)) from exc


def graph_to_json(g: Graph) -> str:
    return json.dumps(
        {"n": g.n, "edges": [[u, v, num_to_json(w)] for u, v, w in g.edges]},
        sort_keys=True,
    )
