"""PathCover over a system of collective tree spanners.

Every leg x -> y of an optimal server trajectory is rerouted through a
spanning tree certified to preserve d_G(x, y), so each leg costs at most
q * d_G + r <= (q + r) * d_G once edge weights are at least 1, and the
whole run costs at most (q + r) times the offline optimum.

Addressing uses heavy-path decomposition: any root-to-vertex path crosses
at most ceil(log2 N) heavy paths, so naming the heavy path of a leg's
tree LCA takes ceil(log2 ceil(log2 N)) bits, and that ordinal is the same
along the root paths of both leg endpoints.  Between serves a server is
bound to (tree label, heavy-path head); the vertex the binding stands for
is the exit of the upcoming request's root path from that heavy path,
which lies on the leg's tree path, so no relay detour ever costs extra.

Two servers can end up bound to the same (tree, heavy path); a label
alone cannot split them, and guessing wrecks the cost guarantee (on a
path-shaped tree there is only one heavy path, so with two servers every
retrieval would be a coin flip).  Retrieval records therefore append a
disambiguation suffix of ceil(log2 c) bits exactly when c > 1 bound
candidates collide.  Oracle and decoder both know c (the decode is
deterministic), so record widths never drift, and the oracle prefers
certified trees that avoid collisions, keeping suffixes rare.

Certifying a system costs one exact best-tree distance table, O(μN²) in
ints/Fractions (each tree's row of v is its parent's row shifted by w(v);
the table keeps the element-wise minimum over the trees), and one pass over
the N(N-1)/2 pairs: the pass that measures the smallest q certifies it,
and a claimed (q, r) takes the pass that checks it.  Both compare by
cross-multiplying, so only q and a violating pair's excess are Fractions.
"""
from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from operator import itemgetter
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
    at most ceil(log2 N) heavy paths.  `order`, `depth` and `size` are
    the tree's rooted_walk: the subtree of v is the slice of `size[v]`
    vertices of `order` that starts at v.
    """

    def __init__(self, tree: SpanningTree):
        self.tree = tree
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
        self.size = size
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

    def dist(self, u: int, v: int) -> Weight:
        a = self.lca(u, v)
        return (
            self.weighted_depth[u]
            + self.weighted_depth[v]
            - 2 * self.weighted_depth[a]
        )

    def segments_on_root_path(self, v: int) -> list[tuple[int, int]]:
        """(head, exit) per heavy path crossed by root -> v, root first.

        The exit is the deepest path vertex inside that heavy path.
        """
        segs = []
        u = v
        while True:
            segs.append((self.head[u], u))
            p = self.parent[self.head[u]]
            if p is None:
                break
            u = p
        segs.reverse()
        return segs


# ---------------------------------------------------------------------------
# Spanner systems and stretch verification.


class SpannerSystem:
    """Spanning trees and a (q, r) stretch for them (None: no claim yet).

    certify_system and certify_min_stretch return a certified (q, r);
    system_from_json returns a file's claim unchecked."""

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
    distance exceeds q*d + r the most, and `excess` is by how much."""

    def __init__(self, witness: tuple[int, int], excess: Weight):
        super().__init__(
            f"stretch certificate rejected: pair {witness} exceeds q*d+r by {excess}"
        )
        self.witness = witness
        self.excess = excess


def _tree_distance_rows(hp: HeavyPathIndex):
    """Yield (v, row) for every vertex v of hp's tree, row[u] being the exact
    tree distance between v and u; O(N²) in all.

    In preorder every subtree is one contiguous slice, so the row of v is
    its parent's row plus w(v), less 2·w(v) on v's own subtree.  A row is
    kept on a stack while its vertex has children left to derive; in
    preorder the top of that stack is v's parent, so at most one row per
    tree level is held at a time.
    """
    order, parent, weight = hp.order, hp.parent, hp.tree.edge_weight
    pos = [0] * len(order)
    for i, u in enumerate(order):
        pos[u] = i
    # itemgetter of one index returns the item itself, not a 1-tuple
    to_vertex_order = itemgetter(*pos) if len(order) > 1 else tuple
    row = [hp.weighted_depth[u] for u in order]
    pending = []
    for v in order:
        p = parent[v]
        if p is not None:
            up, w, a = pending[-1], weight[v], pos[v]
            b = a + hp.size[v]
            if b == pos[p] + hp.size[p]:  # v is p's last child
                pending.pop()
            row = (
                [x + w for x in up[:a]]
                + [x - w for x in up[a:b]]
                + [x + w for x in up[b:]]
            )
        if hp.size[v] > 1:
            pending.append(row)
        yield v, to_vertex_order(row)


def _best_tree_table(trees: tuple[SpanningTree, ...]) -> list:
    """best[x][y] = min over the trees of their x-y distance, exact.

    O(μN²) time; besides the table only a few rows per tree are held.
    """
    if not trees:
        raise ValueError("a spanner system needs at least one tree")
    best: list = [None] * trees[0].n
    for tree in trees:
        for v, row in _tree_distance_rows(tree.paths):
            if best[v] is not None:
                row = [a if a <= b else b for a, b in zip(best[v], row)]
            best[v] = row
    return best


def _max_ratio(best, dm: DistanceMatrix) -> tuple[Fraction, tuple[int, int] | None]:
    """The largest best/d_G over pairs x < y, at least 1, with the first pair
    that attains it; ratios are compared by cross-multiplying."""
    num, den, witness = 1, 1, None
    for x, (bx, dx) in enumerate(zip(best, dm.dist)):
        for y in range(x + 1, len(bx)):
            b, d = bx[y], dx[y]
            if b * den > num * d:
                num, den, witness = b, d, (x, y)
    return Fraction(num, den), witness


def _certified(trees: tuple, best, dm: DistanceMatrix, q, r) -> SpannerSystem:
    """trees with their (q, r) claim if best <= q*d_G + r on every pair;
    otherwise StretchClaimRejected names the pair x < y of largest excess
    (the first one on ties).

    With q = qn/qd and r = rn/rd the test is b·qd·rd <= qn·rd·d + rn·qd, so
    only a violating pair pays for its exact excess.
    """
    q_num, q_den = q.numerator, q.denominator
    r_num, r_den = r.numerator, r.denominator
    scale, slope, offset = q_den * r_den, q_num * r_den, r_num * q_den
    worst = None
    for x, (bx, dx) in enumerate(zip(best, dm.dist)):
        for y in range(x + 1, len(bx)):
            b, d = bx[y], dx[y]
            if b * scale > slope * d + offset:
                excess = b - (q * d + r)
                if worst is None or excess > worst[0]:
                    worst = (excess, (x, y))
    if worst is not None:
        excess, witness = worst
        raise StretchClaimRejected(witness, excess)
    return SpannerSystem(trees=trees, q=q, r=r)


def measure_min_stretch(
    g: Graph, dm: DistanceMatrix, system: SpannerSystem
) -> tuple[Fraction, tuple[int, int] | None]:
    """Smallest q with (q, 0)-stretch, as an exact ratio, with its witness."""
    return _max_ratio(_best_tree_table(system.trees), dm)


def certify_system(
    g: Graph, dm: DistanceMatrix, trees, q, r
) -> SpannerSystem:
    """Bundle trees with a verified (q, r) certificate or raise."""
    trees = tuple(trees)
    return _certified(trees, _best_tree_table(trees), dm, q, r)


def certify_min_stretch(dm: DistanceMatrix, trees) -> SpannerSystem:
    """Certify trees at their smallest (q, 0)-stretch: q is the largest
    best/d_G over all pairs, so every pair holds by construction."""
    trees = tuple(trees)
    q, _ = _max_ratio(_best_tree_table(trees), dm)
    return SpannerSystem(trees=trees, q=q, r=0)


def system_from_json(g: Graph, text: str) -> SpannerSystem:
    """Parse a spanner system of g and the (q, r) claim it carries, if any.

    The claim is returned unchecked: certify_system checks it against g's
    metric.  Malformed JSON or a bad tree raises GraphFormatError naming the
    field, as in "trees[0].parent".
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


def _suffix_width(c: int) -> int:
    return ceil_log2(c) if c > 1 else 0


def _write_binding(
    tape: AdviceTape, hps: list, w_mu: int, p: int, v: int, ref: int
) -> None:
    """Record tree p and the ordinal of v's heavy path on ref's root path,
    in the bits that path's seg_ordinal[ref]+1 heavy paths need."""
    hp = hps[p]
    tape.write_uint(p, w_mu)
    tape.write_uint(hp.seg_ordinal[v], ceil_log2(hp.seg_ordinal[ref] + 1))


def _read_binding(
    tape: AdviceTape, hps: list, w_mu: int, v: int, where: str
) -> tuple[int, int, int]:
    """(tree p, head, exit) of the heavy path a record names on v's root
    path in tree p; a label or ordinal that names none raises."""
    p = tape.read_uint(w_mu)
    if p >= len(hps):
        raise NoLabeledServerOnRootPath(f"{where}: label {p} but {len(hps)} trees")
    segs = hps[p].segments_on_root_path(v)
    s = tape.read_uint(ceil_log2(len(segs)))
    if s >= len(segs):
        raise NoLabeledServerOnRootPath(
            f"{where}: segment {s} beyond root path of {v}"
        )
    return (p, *segs[s])


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
        if hp.dist(x, y) <= budget:
            admissible.append((p, hp.head[hp.lca(x, y)]))
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
            head, v = hps[p].head[x], x
        else:
            y = sigma[u]
            p, head = _pick_leg_tree(hps, system, dm, bindings, sid, x, y, t)
            v = hps[p].lca(x, y)
        bindings[sid] = (p, head)
        _write_binding(tape, hps, w_mu, p, v, x)

    for i, (x0, u) in enumerate(zip(init, first)):
        bind(i, x0, u, 0, None)
    positions = list(init)
    for t, (y, sid) in enumerate(zip(sigma, servers)):
        p, head = bindings[sid]
        _write_binding(tape, hps, w_mu, p, hps[p].lca(positions[sid], y), y)
        holders = [i for i, b in enumerate(bindings) if b == (p, head)]
        if len(holders) > 1:
            tape.write_uint(holders.index(sid), _suffix_width(len(holders)))
        positions[sid] = y
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
            width = _suffix_width(len(candidates))
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
        bit_budget=spanner_bit_budget(system.mu, g.n, k, len(sigma)),
        ambiguous_retrievals=ambiguous,
        suffix_bits=suffix_bits,
    )
