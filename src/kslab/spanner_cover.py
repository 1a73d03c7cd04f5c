"""PathCover over a system of collective tree spanners.

Every leg x -> y of an optimal server trajectory is rerouted through a
spanning tree certified to preserve d_G(x, y), so each leg costs at most
q * d_G + r <= (q + r) * d_G once edge weights are at least 1 and
r >= 0 (a leg that stays put costs 0), and the whole run costs at most
(q + r) times the offline optimum.

Addressing uses heavy-path decomposition: any root-to-vertex path crosses
at most ceil(log2 N) heavy paths, and all vertices of one heavy path share
its ordinal seg_ordinal along those paths.  Between serves a server is
bound to (tree label, head of the heavy path of its leg's tree LCA).  A
record read at vertex v holds the label and seg_ordinal[head], in the
ceil_log2(seg_ordinal[v] + 1) <= ceil(log2 ceil(log2 N)) bits that v's
root path needs; the LCA lies on the root paths of both leg endpoints, so
both of the leg's records can name it.  The reader climbs from v by
parent[head] to the named ordinal, reaching the head and the exit of v's
root path from that heavy path; the exit lies on the leg's tree path, so
no relay detour ever costs extra.

Two servers can end up bound to the same (tree, heavy path); a label
alone cannot split them, and guessing wrecks the cost guarantee (on a
path-shaped tree there is only one heavy path, so with two servers every
retrieval would be a coin flip).  Retrieval records therefore append a
disambiguation suffix of ceil(log2 c) bits exactly when c > 1 bound
candidates collide.  Oracle and decoder both know c (the decode is
deterministic), so record widths never drift, and the oracle prefers
certified trees that avoid collisions, keeping suffixes rare.

Both stretch functions share one scan over packed rows: one int per
vertex row, with a fixed-width lane per vertex and a guard bit atop each
lane.  Each tree's row of v is its parent's row plus w(v), less 2·w(v) on
v's subtree mask; the best-tree row is a guard-bit lane minimum over the
trees, and a row's test b·s > m·d + c against its packed metric row is one
guard-bit lane compare, so a row costs a handful of big-int operations.
Distances are scaled by the lcm of the weights' denominators, so every
lane is an exact int, and only a row with a flagged lane is unpacked.
measure_min_stretch tests each row against the largest ratio so far, so
its smallest q certifies (q, 0); certify_system tests a claimed (q, r) on
coefficients cut to 32 bits and decides each pair of a flagged row exactly
on ints, naming the pair of largest excess.  Only q and that excess are
Fractions, and reports do not change.
"""
from __future__ import annotations

from decimal import Context
from functools import cached_property
from fractions import Fraction
from struct import Struct
from typing import NamedTuple

from .advice_tape import AdviceTape
from .gpc import ceil_log2
from .metric_core import (
    DistanceMatrix,
    Graph,
    GraphFormatError,
    Weight,
    is_vertex,
    json_field,
    num_from_json,
    num_to_json,
    parse_json,
    single_source_distances,
    weight_scale,
)
from .offline_solver import Schedule, serve_order
from .tree_decomp import rooted_walk


class NoLabeledServerOnRootPath(RuntimeError):
    """No server with the decoded label (and suffix) sits on the decoded
    heavy path, or the label names no tree of the system."""


class UncertifiedLeg(RuntimeError):
    """No tree of the system keeps leg x -> y within q*d+r, so the system's
    (q, r) certificate does not hold.  t is the request whose record picks
    the leg's tree (None: an initial record)."""

    def __init__(self, t: int | None, sid: int, x: int, y: int):
        where = f"initial record {sid}" if t is None else f"t={t}"
        super().__init__(f"{where}: no tree keeps leg {x}->{y} within q*d+r")
        self.t = t
        self.pair = (x, y)


class RelayOffTreePath(RuntimeError):
    """A retrieval's relay is not on the tree path it should shortcut, so the
    move would cost more than the tree distance: oracle and decoder disagree."""

    def __init__(self, t: int, tree: int, src: int, y: int, relay: int):
        super().__init__(
            f"t={t}: relay {relay} is off tree {tree}'s path {src}->{y}"
        )
        self.t = t
        self.pair = (src, y)
        self.relay = relay


class SpanningTree:
    """Rooted spanning tree; edge_weight[v] is the weight of (v, parent[v]).

    `paths` is built from the fields on first read and kept, so they are
    not to be reassigned."""

    def __init__(
        self,
        root: int,
        parent: tuple[int | None, ...],
        edge_weight: tuple[Weight | None, ...],
    ):
        self.root = root
        self.parent = parent
        self.edge_weight = edge_weight

    @property
    def n(self) -> int:
        return len(self.parent)

    @cached_property
    def paths(self) -> HeavyPathIndex:
        """The tree's heavy-path index, built on first read and kept."""
        return HeavyPathIndex(self)


def spanning_tree_from_parent(g: Graph, root: int, parent) -> SpanningTree:
    """Validate a parent array into a SpanningTree over g's edges."""
    parent = tuple(parent)
    if len(parent) != g.n:
        raise ValueError(f"parent array must have length {g.n}")
    if not is_vertex(root, g.n):
        raise ValueError(f"root {root!r} out of range")
    if parent[root] is not None:
        raise ValueError("root must have parent None")
    weights: list[Weight | None] = [None] * g.n
    for v, p in enumerate(parent):
        if v == root:
            continue
        if not is_vertex(p, g.n):
            raise ValueError(f"vertex {v} has invalid parent {p!r}")
        if not g.has_edge(v, p):
            raise ValueError(f"tree edge ({v}, {p}) is not a graph edge")
        weights[v] = g.weight(v, p)
    tree = SpanningTree(root=root, parent=parent, edge_weight=tuple(weights))
    # every other vertex has one parent, so the walk down from the root
    # misses a vertex exactly when parent links close a cycle
    if len(tree.paths.order) != g.n:
        raise ValueError("parent links contain a cycle")
    return tree


def shortest_path_tree(g: Graph, root: int) -> SpanningTree:
    """Deterministic shortest-path spanning tree (lowest-id parent on ties).

    On unit-weight graphs this is a plain breadth-first tree.
    """
    dist = single_source_distances(g, root)
    parent: list[int | None] = [None] * g.n
    for v in range(g.n):
        if v == root:
            continue
        parent[v] = min(
            u for u, w in g.adj[v] if dist[u] + w == dist[v]
        )
    return spanning_tree_from_parent(g, root, parent)


class HeavyPathIndex:
    """Heavy-path decomposition of one rooted tree.

    head[v] is the top vertex of v's heavy path and seg_ordinal[v] that
    path's index along any root path through v; any root-to-v path crosses
    at most ceil(log2 N) heavy paths.  `order` and `depth` are the tree's
    rooted_walk: `order` is a preorder, so every vertex comes after its
    parent.
    """

    def __init__(self, tree: SpanningTree):
        n = tree.n
        parent = tree.parent
        order, children, depth, size = rooted_walk(parent, tree.root)
        heavy: list[int | None] = [None] * n
        for u in range(n):
            if children[u]:
                heavy[u] = min(
                    children[u], key=lambda c: (-size[c], c)
                )
        head = list(range(n))
        seg_ordinal = [0] * n
        depw: list[Weight] = [0] * n
        for u in order[1:]:
            p = parent[u]
            depw[u] = depw[p] + tree.edge_weight[u]
            if heavy[p] == u:
                head[u], seg_ordinal[u] = head[p], seg_ordinal[p]
            else:
                seg_ordinal[u] = seg_ordinal[p] + 1
        self.parent = parent
        self.order = order
        self.head = head
        self.seg_ordinal = seg_ordinal
        self.depth = depth
        self.weighted_depth = depw

    def lca(self, u: int, v: int) -> int:
        head, parent, depth = self.head, self.parent, self.depth
        while head[u] != head[v]:
            if depth[head[u]] >= depth[head[v]]:
                u = parent[head[u]]
            else:
                v = parent[head[v]]
        return u if depth[u] <= depth[v] else v

    def dist(self, u: int, v: int, a: int | None = None) -> Weight:
        """The tree distance of u and v; a is their LCA, if already found."""
        if a is None:
            a = self.lca(u, v)
        return (
            self.weighted_depth[u]
            + self.weighted_depth[v]
            - 2 * self.weighted_depth[a]
        )


# ---------------------------------------------------------------------------
# Spanner systems and stretch verification.


class SpannerSystem:
    """Spanning trees and a (q, r) stretch for them (None: no claim yet).

    certify_system returns a checked (q, r), and (q, 0) holds for the q that
    measure_min_stretch returns; system_from_json returns a file's claim
    unchecked."""

    __slots__ = ("trees", "q", "r")

    def __init__(
        self,
        trees: tuple[SpanningTree, ...],
        q: Weight | None = None,
        r: Weight | None = None,
    ):
        self.trees = trees
        self.q = q
        self.r = r

    @property
    def mu(self) -> int:
        return len(self.trees)

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "q": num_to_json(self.q),
            "r": num_to_json(self.r),
            "trees": [
                {"root": t.root, "parent": list(t.parent)} for t in self.trees
            ],
        }


class StretchClaimRejected(ValueError):
    """A claimed (q, r) fails: `witness` is the pair x < y whose best tree
    distance exceeds q*d + r the most, and `excess` is by how much, exact
    (the message rounds it to 4 digits only if str() cannot spell it)."""

    def __init__(self, witness: tuple[int, int], excess: Fraction):
        try:
            spelled = str(excess)
        except ValueError:  # past the interpreter's int-to-str digit limit
            n, d = excess.numerator, excess.denominator
            spelled = f"about {Context(prec=4).divide(n, d)}"
        super().__init__(
            f"stretch certificate rejected: pair {witness} exceeds q*d+r by {spelled}"
        )
        self.witness = witness
        self.excess = excess


# struct codes of the lane sizes that pack in one C call, by bytes.
_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class _Lanes:
    """Rows of N ints >= 0 packed into one int each (SIMD within a
    register): lane u, the `width` bits from bit u*width up, holds the
    row's value at vertex u, and the lane's top bit is a guard that a
    packed row keeps 0.  Lanes are whole bytes, wide enough for `bound`
    below the guard; lanes of 1, 2, 4 or 8 bytes pack and unpack in one
    `struct` call."""

    def __init__(self, n: int, bound: int):
        need = bound.bit_length() // 8 + 1
        self.nbytes = min((b for b in _LANE_CODES if b >= need), default=need)
        self.width = 8 * self.nbytes
        code = _LANE_CODES.get(self.nbytes)
        self.layout = None if code is None else Struct(f"<{n}{code}")
        self.n = n
        self.ones = self.pack([1] * n)
        self.guards = self.ones << (self.width - 1)

    def pack(self, values) -> int:
        if self.layout is None:
            data = b"".join(v.to_bytes(self.nbytes, "little") for v in values)
        else:
            data = self.layout.pack(*values)
        return int.from_bytes(data, "little")

    def unpack(self, row: int) -> list[int]:
        data = row.to_bytes(self.n * self.nbytes, "little")
        if self.layout is not None:
            return list(self.layout.unpack(data))
        m = self.nbytes
        return [
            int.from_bytes(data[i : i + m], "little") for i in range(0, len(data), m)
        ]

    def minimum(self, a: int, b: int) -> int:
        """The lane-wise minimum of packed rows a and b."""
        # a lane of (a | guards) - b keeps its guard exactly where a >= b
        a_ge_b = ((a | self.guards) - b) & self.guards
        take_b = a_ge_b - (a_ge_b >> (self.width - 1))  # those lanes' value bits
        return a ^ ((a ^ b) & take_b)

    def any_greater(self, lhs: int, rhs: int, shift: int) -> bool:
        """Whether a lane of lhs exceeds that of rhs, both packed rows
        shifted down by `shift` bits."""
        guards = self.guards >> shift
        return ((rhs | guards) - lhs) & guards != guards


def _longest_tree_distance(trees: tuple[SpanningTree, ...], unit: int) -> int:
    """A bound on every tree distance times unit, and so on every metric
    distance too: twice the largest weighted depth."""
    if not trees:
        raise ValueError("a spanner system needs at least one tree")
    return 2 * max(int(max(t.paths.weighted_depth) * unit) for t in trees)


def _best_tree_rows(
    trees: tuple[SpanningTree, ...], lanes: _Lanes, unit: int
) -> list[int]:
    """best[v] packs the minimum over the trees of their v-u distances
    times unit, for u = 0..N-1, exact.

    A tree's root row packs its weighted depths.  The row of any other v is
    its parent's row plus w(v) on every lane, less 2·w(v) on the lanes of
    v's subtree, whose mask is summed bottom-up.  No lane ever goes below 0,
    so no borrow crosses lanes, and a row costs a few big-int operations.
    """
    best: list[int] | None = None
    for tree in trees:
        hp = tree.paths
        parent, width = hp.parent, lanes.width
        subtree = [1 << (v * width) for v in range(lanes.n)]
        for v in reversed(hp.order[1:]):
            subtree[parent[v]] += subtree[v]
        rows = [0] * lanes.n
        rows[tree.root] = lanes.pack(int(d * unit) for d in hp.weighted_depth)
        for v in hp.order[1:]:
            w = int(tree.edge_weight[v] * unit)
            rows[v] = rows[parent[v]] + w * lanes.ones - 2 * w * subtree[v]
        best = rows if best is None else list(map(lanes.minimum, best, rows))
    return best


def _flagged_rows(g: Graph, dm: DistanceMatrix, trees, bound, coefs):
    """(x, dx, bx) for each row x with a pair y > x where b·s > m·d + c,
    b = bx[y] and d = dx[y] being row x's best-tree and metric distances
    times g's weight scale, ints.  coefs() gives the ints (s > 0, m, c),
    read afresh for each row; bound(longest) caps either side of the lane
    test, given a cap on every scaled distance.  A negative term of the
    test moves to the other side, so that no lane goes below 0.
    """
    unit = weight_scale(g)
    lanes = _Lanes(g.n, bound(_longest_tree_distance(trees, unit)))
    for x, bx in enumerate(_best_tree_rows(trees, lanes, unit)):
        dx = dm.dist[x] if unit == 1 else [int(d * unit) for d in dm.dist[x]]
        s, m, c = coefs()
        above = (x + 1) * lanes.width
        lhs, rhs = (bx >> above) * s, 0
        for term, coef in ((lanes.pack(dx), m), (lanes.ones, c)):
            if coef > 0:
                rhs += (term >> above) * coef
            elif coef < 0:
                lhs += (term >> above) * -coef
        if lanes.any_greater(lhs, rhs, above):
            yield x, dx, lanes.unpack(bx)


def measure_min_stretch(
    g: Graph, dm: DistanceMatrix, system: SpannerSystem
) -> tuple[Fraction, tuple[int, int] | None]:
    """Smallest q with (q, 0)-stretch, as an exact ratio, with the first pair
    x < y that attains it (None: q is 1).  q is the largest best/d_G over
    all pairs, at least 1, so the trees certify (q, 0) by construction.

    Ratios are compared by cross-multiplying scaled distances: a row is
    scanned only if it has a ratio above num/den, the largest so far.
    """
    num, den, witness = 1, 1, None
    # num and den are scaled distances, so a lane holds at most longest²
    rows = _flagged_rows(
        g, dm, system.trees, lambda longest: longest * longest,
        lambda: (den, num, 0),
    )
    for x, dx, bx in rows:
        for y in range(x + 1, g.n):
            if bx[y] * den > num * dx[y]:
                num, den, witness = bx[y], dx[y], (x, y)
    return Fraction(num, den), witness


def certify_system(
    g: Graph, dm: DistanceMatrix, trees, q, r
) -> SpannerSystem:
    """trees with their (q, r) claim if best <= q*d_G + r on every pair;
    otherwise StretchClaimRejected names the pair x < y of largest excess
    (the first one on ties).

    With q = qn/qd, r = rn/rd and distances times g's weight scale u, the
    test is b·qd·rd <= qn·rd·d + rn·qd·u, exact on ints.  For the lane test
    coefficients wider than 32 bits are cut to 32, the left one rounded up
    and the right ones down, so lanes stay narrow and a flagged row holds
    every violating pair, perhaps more.  A pair's excess is its test's
    difference over qd·rd·u, a Fraction built only for the worst pair.
    """
    trees = tuple(trees)
    unit = weight_scale(g)
    scale, slope = q.denominator * r.denominator, q.numerator * r.denominator
    offset = r.numerator * q.denominator * unit
    cut = max(0, max(abs(c).bit_length() for c in (scale, slope, offset)) - 32)
    lane = (-(-scale >> cut), slope >> cut, offset >> cut)
    rows = _flagged_rows(
        g, dm, trees,
        lambda longest: longest * (lane[0] + abs(lane[1])) + abs(lane[2]),
        lambda: lane,
    )
    worst, witness = 0, None
    for x, dx, bx in rows:
        for y in range(x + 1, g.n):
            excess = bx[y] * scale - slope * dx[y] - offset
            if excess > worst:
                worst, witness = excess, (x, y)
    if witness is not None:
        raise StretchClaimRejected(witness, Fraction(worst, scale * unit))
    return SpannerSystem(trees=trees, q=q, r=r)


def system_from_json(g: Graph, text: str) -> SpannerSystem:
    """Parse a spanner system of g and the (q, r) claim it carries, if any.

    The claim is returned unchecked but for r >= 0: certify_system checks it
    against g's metric.  Malformed JSON, a bad tree or r < 0 raises
    GraphFormatError naming the field, as in "trees[0].parent".
    """
    obj = parse_json(text)
    raw = json_field(obj, "trees")
    if not isinstance(raw, list):
        raise GraphFormatError("trees", "expected a list of trees")
    if not raw:
        raise GraphFormatError("trees", "a spanner system needs at least one tree")
    trees = []
    for i, t in enumerate(raw):
        where = f"trees[{i}]"
        root = json_field(t, "root", where)
        parent = json_field(t, "parent", where)
        if not isinstance(parent, list):
            raise GraphFormatError(f"{where}.parent", "expected a list")
        try:
            trees.append(spanning_tree_from_parent(g, root, parent))
        except ValueError as exc:
            raise GraphFormatError(where, str(exc)) from exc
    mu = obj.get("mu")
    if mu is not None and (type(mu) is not int or mu != len(trees)):
        raise GraphFormatError("mu", f"{mu!r} but {len(trees)} trees given")
    if obj.get("q") is None or obj.get("r") is None:
        return SpannerSystem(trees=tuple(trees))
    q, r = num_from_json(obj["q"], "q"), num_from_json(obj["r"], "r")
    if r < 0:
        raise GraphFormatError("r", f"must be at least 0, got {r}")
    return SpannerSystem(trees=tuple(trees), q=q, r=r)


# ---------------------------------------------------------------------------
# Advice generation and the labeled-server online run.


def spanner_widths(mu: int, n_vertices: int) -> tuple[int, int]:
    """(tree-label bits, segment-ordinal bits)."""
    seg_bound = max(1, ceil_log2(n_vertices))
    return ceil_log2(mu), ceil_log2(seg_bound)


def spanner_bit_budget(mu: int, n_vertices: int, k: int, n: int) -> int:
    w_mu, w_seg = spanner_widths(mu, n_vertices)
    return n * (2 * w_mu + 2 * w_seg) + k * (w_mu + w_seg)


def _write_binding(
    tape: AdviceTape, hps: list, w_mu: int, p: int, head: int, ref: int
) -> None:
    """Record tree p and the ordinal of head's heavy path, which lies on
    ref's root path, in the bits that path's seg_ordinal[ref]+1 heavy paths
    need."""
    hp = hps[p]
    tape.write_uint(p, w_mu)
    tape.write_uint(hp.seg_ordinal[head], ceil_log2(hp.seg_ordinal[ref] + 1))


def _read_binding(
    tape: AdviceTape, hps: list, w_mu: int, v: int, where: str
) -> tuple[int, int, int]:
    """(tree p, head, exit) of the heavy path a record names on v's root
    path in tree p; a label or ordinal that names none raises."""
    p = tape.read_uint(w_mu)
    if p >= len(hps):
        raise NoLabeledServerOnRootPath(f"{where}: label {p} but {len(hps)} trees")
    hp = hps[p]
    s = tape.read_uint(ceil_log2(hp.seg_ordinal[v] + 1))
    if s > hp.seg_ordinal[v]:
        raise NoLabeledServerOnRootPath(
            f"{where}: segment {s} beyond root path of {v}"
        )
    # climb to the named heavy path; the exit is where the climb enters it
    u = v
    while hp.seg_ordinal[u] > s:
        u = hp.parent[hp.head[u]]
    return p, hp.head[u], u


def _pick_leg_tree(
    hps, system: SpannerSystem, dm, bindings, sid: int, x: int, y: int, t
) -> tuple[int, int]:
    """(tree, anchor head) for leg x -> y, dodging binding collisions.

    Any tree within the certified stretch for this pair keeps the
    competitive bound; among those, prefer one whose (tree, head) binding
    is not already live on another server, then the lowest index.  t is
    the request whose record this is (None: server sid's initial record).
    """
    budget = system.q * dm.dist[x][y] + system.r
    admissible = []
    for p, hp in enumerate(hps):
        a = hp.lca(x, y)
        if hp.dist(x, y, a) <= budget:
            admissible.append((p, hp.head[a]))
    if not admissible:
        raise UncertifiedLeg(t, sid, x, y)
    taken = {b for i, b in enumerate(bindings) if i != sid}
    for p, head in admissible:
        if (p, head) not in taken:
            return p, head
    return admissible[0]


def generate_advice_spanner(
    g: Graph,
    dm: DistanceMatrix,
    system: SpannerSystem,
    init,
    sigma,
    opt: Schedule,
) -> AdviceTape:
    """Encode, per trajectory leg, a certified tree and the LCA's heavy path.

    Each request record holds the retrieval pair for the leg ending here
    (plus a disambiguation suffix when several servers share the binding)
    and the parking pair for the leg leaving here; k initial records bind
    each server to the tree of its first leg.  Unused servers and final
    legs bind to the server's own heavy path, which costs nothing.

    The decode is deterministic, so the oracle mirrors it move for move to
    know each retrieval's candidate count.
    """
    if system.q is None or system.r is None:
        raise ValueError("spanner system must carry a certified (q, r)")
    hps = [t.paths for t in system.trees]
    w_mu, _ = spanner_widths(system.mu, g.n)
    tape = AdviceTape()
    servers, first, after = serve_order(init, sigma, opt)
    bindings: list[tuple[int, int]] = [(-1, -1)] * len(init)

    def bind(sid: int, x: int, u: int | None, p: int, t: int | None) -> None:
        """Bind server sid, standing at x, for its leg to request u and
        write the record; with no leg (u None) it stays on tree p's heavy
        path through x.  t is the request whose record this is."""
        if u is None:
            head = hps[p].head[x]
        else:
            y = sigma[u]
            p, head = _pick_leg_tree(hps, system, dm, bindings, sid, x, y, t)
        bindings[sid] = (p, head)
        _write_binding(tape, hps, w_mu, p, head, x)

    for i, (x0, u) in enumerate(zip(init, first)):
        bind(i, x0, u, 0, None)
    for t, (y, sid) in enumerate(zip(sigma, servers)):
        # the binding's head is that of the leg's LCA, on y's root path too
        p, head = bindings[sid]
        _write_binding(tape, hps, w_mu, p, head, y)
        holders = [i for i, b in enumerate(bindings) if b == (p, head)]
        if len(holders) > 1:
            tape.write_uint(holders.index(sid), ceil_log2(len(holders)))
        bind(sid, y, after[t], p, t)
    return tape


class SpannerMove(NamedTuple):
    t: int
    request: int
    server: int
    tree: int
    src: int
    relay: int
    cost: Weight


class SpannerRun(NamedTuple):
    cost: Weight
    bits_read: int
    log: list[SpannerMove]
    labels: list[int]
    bit_budget: int
    ambiguous_retrievals: int = 0
    suffix_bits: int = 0


def run_online_spanner(
    g: Graph,
    system: SpannerSystem,
    hp: list[HeavyPathIndex],
    init,
    sigma,
    tape: AdviceTape,
) -> SpannerRun:
    """Serve sigma with labeled servers moving along the advised trees.

    sigma is taken one request at a time, so any iterable serves, and the
    tape is read only as far as the requests served so far.

    A server is retrieved only through the tree its label names.  The
    decoded heavy path selects the servers bound to it; when several are
    bound, a suffix names the intended one.  The binding's relay vertex is
    the exit of the request's root path from that heavy path; it lies on
    the leg's tree path, so the move costs exactly the tree distance.
    """
    w_mu, _ = spanner_widths(system.mu, g.n)
    k = len(init)
    positions = list(init)
    bindings: list[tuple[int, int]] = [(-1, -1)] * k
    ambiguous = 0
    suffix_bits = 0
    for i in range(k):
        where = f"initial record {i}"
        bindings[i] = _read_binding(tape, hp, w_mu, positions[i], where)[:2]
    cost = 0
    log: list[SpannerMove] = []
    for t, y in enumerate(sigma):
        p, head, relay = _read_binding(tape, hp, w_mu, y, f"request {t}")
        candidates = [i for i in range(k) if bindings[i] == (p, head)]
        if not candidates:
            raise NoLabeledServerOnRootPath(
                f"request {t}: no label-{p} server on heavy path {head}"
            )
        if len(candidates) > 1:
            ambiguous += 1
            width = ceil_log2(len(candidates))
            suffix_bits += width
            pick = tape.read_uint(width)
            if pick >= len(candidates):
                raise NoLabeledServerOnRootPath(
                    f"request {t}: suffix {pick} beyond the {len(candidates)} "
                    f"label-{p} servers on heavy path {head}"
                )
            sid = candidates[pick]
        else:
            sid = candidates[0]
        src = positions[sid]
        move_cost = hp[p].dist(src, y)
        # the relay sits on the tree path, so routing through it is free
        if hp[p].dist(src, relay) + hp[p].dist(relay, y) != move_cost:
            raise RelayOffTreePath(t, p, src, y, relay)
        cost += move_cost
        positions[sid] = y
        where = f"request {t} parking"
        bindings[sid] = _read_binding(tape, hp, w_mu, y, where)[:2]
        log.append(
            SpannerMove(
                t=t,
                request=y,
                server=sid,
                tree=p,
                src=src,
                relay=relay,
                cost=move_cost,
            )
        )
    return SpannerRun(
        cost=cost,
        bits_read=tape.bits_read,
        log=log,
        labels=[b[0] for b in bindings],
        bit_budget=spanner_bit_budget(system.mu, g.n, k, len(log)),
        ambiguous_retrievals=ambiguous,
        suffix_bits=suffix_bits,
    )
