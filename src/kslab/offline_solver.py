"""Exact offline k-server optimum.

Two independent routes are provided: a dynamic program over server
configurations (the oracle for everything else), and a min-cost flow of
value k on the request DAG that scales past the DP guard.  After each
request one server stands on it (Koutsoupias and Papadimitriou, J. ACM
1995), so a DP state is the multiset of the other k-1 servers: a layer
holds at most C(N+k-2, k-1) states, only a state whose winning move did
not start on the previous request keeps a back-pointer, and ties go to
the least source vertex.  Each state also keeps its number of
cost-minimal ways in, so the one forward pass gives both OPT and the
number of optimal schedules.  Costs in a layer are relative to a running
base that takes the cost of serving from the previous request, which
every state pays; each sorted insertion of the previous request into a
state is computed once and kept.  The flow network is never stored: its
at most k + min(t, N) arcs into request t (from the servers, and from
the latest earlier request at each vertex) are read off the request
sequence and the metric rows of the requested vertices into one cost
list per node, once per solve.  It is solved by k successive shortest
paths (the first from one pass over the DAG, the rest by heap Dijkstra
on reduced costs over the forward arcs and the reverses of the few that
carry flow) in exact ints, with no graph library.  Its heap keys are
single ints that order as (distance, node), so ties go by node id, and
its cost is read off the potentials.  Both emit lazy schedules: exactly
one server moves per request, directly to the requested vertex.
"""
from __future__ import annotations

from fractions import Fraction
from bisect import bisect, insort
from heapq import heappop, heappush
from math import comb, lcm
from typing import NamedTuple

from .metric_core import DistanceMatrix, Graph, all_pairs_shortest_paths


class InstanceTooLarge(ValueError):
    """An exact solver's size guard tripped before any work was done."""


class FlowDecodeError(RuntimeError):
    """The min-cost flow does not decode into a lazy schedule of its cost."""


class InvalidSchedule(ValueError):
    """A schedule breaks a lazy-schedule invariant at request t (None: the
    schedule as a whole) in the named field."""

    def __init__(self, t: int | None, field: str, message: str):
        self.t = t
        self.field = field
        where = field if t is None else f"t={t} {field}"
        super().__init__(f"{where}: {message}")


DP_GUARD = 10**7


class Move(NamedTuple):
    """One entry of a lazy schedule: server moves src -> dst, the vertex
    requested at step t.  A named tuple: immutable, hashable and cheap to
    build, one per request; `_replace` gives a changed copy."""

    t: int
    server: int
    src: int
    dst: int
    cost: int | Fraction


class Schedule:
    """A lazy schedule and its cost.  `optimal_count` is the number of
    distinct optimal (t, src, dst) schedules, when the solver that found
    this one counted them on the way (the DP does), else None."""

    __slots__ = ("moves", "total_cost", "optimal_count")

    def __init__(
        self,
        moves: list[Move],
        total_cost: int | Fraction,
        optimal_count: int | None = None,
    ):
        self.moves = moves
        self.total_cost = total_cost
        self.optimal_count = optimal_count

    def move_triples(self) -> tuple[tuple[int, int, int], ...]:
        """(t, src, dst) view: schedule identity modulo server relabeling."""
        return tuple((m.t, m.src, m.dst) for m in self.moves)


def serve_order(
    init, sigma, schedule: Schedule
) -> tuple[list[int], list[int | None], list[int | None]]:
    """Walk a lazy schedule once in request order.

    Returns (servers, first, after): servers[t] serves request t, first[i]
    is the first request server i serves and after[t] the next request
    servers[t] serves (None: there is none).  Raises InvalidSchedule at the
    first request t that has no move ("t"), names no server ("server"), or
    whose move does not start where its server stands ("src") or does not
    end on the request ("dst").
    """
    by_t = {m.t: m for m in schedule.moves}
    positions = list(init)
    servers = []
    for t, y in enumerate(sigma):
        m = by_t.get(t)
        if m is None:
            raise InvalidSchedule(t, "t", "no move serves this request")
        sid = m.server
        if not (isinstance(sid, int) and 0 <= sid < len(positions)):
            raise InvalidSchedule(t, "server", f"no server {sid!r}")
        if positions[sid] != m.src:
            raise InvalidSchedule(
                t, "src", f"server {sid} is at {positions[sid]}, not {m.src}"
            )
        if m.dst != y:
            raise InvalidSchedule(
                t, "dst", f"server {sid} reaches {m.dst}, request is {y}"
            )
        positions[sid] = y
        servers.append(sid)
    first: list[int | None] = [None] * len(positions)
    after: list[int | None] = [None] * len(servers)
    for t in range(len(servers) - 1, -1, -1):
        after[t] = first[servers[t]]
        first[servers[t]] = t
    return servers, first, after


def validate_lazy_schedule(
    dm: DistanceMatrix, init, sigma, schedule: Schedule
) -> None:
    """Check the lazy-schedule invariants; raise InvalidSchedule if one fails."""
    n = len(sigma)
    if len(schedule.moves) != n:
        raise InvalidSchedule(
            None, "moves", f"{len(schedule.moves)} moves for {n} requests"
        )
    by_t: dict[int, Move] = {}
    for m in schedule.moves:
        if m.t in by_t:
            raise InvalidSchedule(m.t, "t", "two moves serve this request")
        by_t[m.t] = m
    serve_order(init, sigma, schedule)
    total = 0
    for t in range(n):
        m = by_t[t]
        d = dm.dist[m.src][m.dst]
        if m.cost != d:
            raise InvalidSchedule(t, "cost", f"{m.cost} != d({m.src}, {m.dst}) = {d}")
        total += m.cost
    if total != schedule.total_cost:
        raise InvalidSchedule(
            None, "total_cost", f"{schedule.total_cost} != sum of move costs {total}"
        )


def _guard(what: str, formula: str, size: int):
    if size > DP_GUARD:
        raise InstanceTooLarge(
            f"{what}: {formula} = {size} exceeds the guard {DP_GUARD}"
        )


def _replace_one(conf: tuple, out: int, into: int) -> tuple:
    """The sorted tuple `conf` with one copy of `out` replaced by `into`."""
    rest = list(conf)
    rest.remove(out)
    insort(rest, into)
    return tuple(rest)


def _dp_layers(dist, init, sigma):
    """Forward pass of the DP; yields (base, layer, moved) for t = 0..n.

    After request t-1 a server stands on p_t = sigma[t-1] (p_0 =
    min(init)), so a state is the sorted tuple R of the other k-1 servers,
    and base + layer[R][0] is the least cost of serving sigma[:t] and
    ending at R + (p_t,); layer[R][1] is the number of (t, src, dst)
    schedules of sigma[:t] that do so at that cost.  Serving sigma[t] from
    p_t keeps R and adds d(p_t, sigma[t]) to every state, so that step goes
    into `base` and each layer starts as a copy of the last; serving it
    from some s != p_t in R gives R - s + p_t at d(s, sigma[t]) minus the
    step.  Every state shares the offset, so comparisons, ties and ways
    are those of the absolute costs.  A source that repeats in R is one
    move, so it counts once, and paths through the states are in bijection
    with schedules.  The configurations a state R' of layer t+1 comes from
    are R' + (s,) over its sources s, which grow with s, so a cost tie
    goes to the least source, which is also the least predecessor
    configuration; moved[R'] holds the winning source where it is not p_t
    (moved is empty for t = 0).  Each configuration's distinct (s, R - s)
    pairs are computed the first time it is expanded, and each R - s with
    p inserted the first time p is inserted into it, and both are kept.
    """
    if not init and sigma:
        raise ValueError(f"init: no servers to serve {len(sigma)} requests")
    p = min(init, default=None)
    base = 0
    layer = {tuple(sorted(init))[1:]: (0, 1)}
    sources: dict[tuple, list] = {}  # conf -> its distinct (s, conf - s)
    inserts: dict[int, dict] = {}  # p -> {rest: rest + (p,), sorted}
    rows = {r: dist[r] for r in set(sigma)}  # d(s, r) == d(r, s)
    yield base, layer, {}
    for r in sigma:
        dr = rows[r]
        step = dr[p]
        base += step
        nxt = layer.copy()
        moved: dict[tuple, int] = {}
        into = inserts.get(p)
        if into is None:
            into = inserts[p] = {}
        for conf, (cost, ways) in layer.items():
            pairs = sources.get(conf)
            if pairs is None:
                pairs = sources[conf] = [
                    (s, conf[:i] + conf[i + 1:])
                    for i, s in enumerate(conf)
                    if not (i and conf[i - 1] == s)
                ]
            cost -= step
            for s, rest in pairs:
                if s == p:  # the same move as serving from p_t
                    continue
                new_cost = cost + dr[s]
                new_conf = into.get(rest)
                if new_conf is None:
                    j = bisect(rest, p)
                    new_conf = into[rest] = rest[:j] + (p,) + rest[j:]
                best = nxt.get(new_conf)
                if best is None or new_cost < best[0]:
                    nxt[new_conf] = (new_cost, ways)
                    moved[new_conf] = s
                elif new_cost == best[0]:
                    nxt[new_conf] = (new_cost, best[1] + ways)
                    if s < moved.get(new_conf, p):
                        moved[new_conf] = s
        layer = nxt
        p = r
        yield base, layer, moved


def _optimum(base, layer) -> tuple[int | Fraction, int, tuple]:
    """OPT read off a last DP layer: base plus the least relative cost (an
    int when it is integral), the sum of `ways` over the states that reach
    it, which is the number of optimal schedules, and the least of them."""
    least = min(cost for cost, _ in layer.values())
    best = [(conf, ways) for conf, (cost, ways) in layer.items() if cost == least]
    opt = base + least
    if isinstance(opt, Fraction) and opt.denominator == 1:
        opt = int(opt)
    return opt, sum(ways for _, ways in best), min(best)[0]


def opt_cost_dp(
    g: Graph, init, sigma, dm: DistanceMatrix | None = None
) -> tuple[int | Fraction, Schedule]:
    """Provably minimal offline cost via DP over server configurations.

    Returns one optimal lazy schedule (deterministic tie-breaking: the
    least source vertex at every state, and the least final state), with
    the number of optimal schedules, read off the same pass, as its
    `optimal_count`.
    """
    # the route guard: N^k*n, not the DP's real work, picks which solver's
    # optimal schedule a run reports
    _guard("opt_cost_dp", "N^k*n", g.n ** len(init) * max(len(sigma), 1))
    if dm is None:
        dm = all_pairs_shortest_paths(g)
    dist = dm.dist
    back = []  # back[t]: the sparse back-pointers into layer t
    for base, layer, moved in _dp_layers(dist, init, sigma):
        back.append(moved)
    best_cost, count, conf = _optimum(base, layer)
    # Back-trace one optimal chain of sources, then give each move the
    # lowest id of the servers at its source, walking forward.
    n = len(sigma)
    srcs = [0] * n
    replaced: dict[tuple, tuple] = {}  # (conf, p, src) -> _replace_one(...)
    for t in range(n - 1, -1, -1):
        p = sigma[t - 1] if t else min(init)
        src = srcs[t] = back[t + 1].get(conf, p)
        if src != p:
            key = (conf, p, src)
            conf = replaced.get(key)
            if conf is None:
                conf = replaced[key] = _replace_one(*key)
    rows = {src: dist[src] for src in set(srcs)}
    positions = list(init)
    moves = []
    new = tuple.__new__  # a Move without NamedTuple's Python-level __new__
    for t, (src, dst) in enumerate(zip(srcs, sigma)):
        sid = positions.index(src)
        positions[sid] = dst
        moves.append(new(Move, (t, sid, src, dst, rows[src][dst])))
    return best_cost, Schedule(moves, best_cost, optimal_count=count)


def count_optimal_schedules(
    g: Graph, init, sigma, dm: DistanceMatrix | None = None
) -> tuple[int | Fraction, int]:
    """OPT and the number of distinct optimal (t, src, dst) schedules.

    Both are read off the last layer of `_dp_layers`, as `opt_cost_dp`
    does for its `optimal_count`; this pass is for a schedule that came
    from the flow.  Guarded on the DP's real work: C(N+k-2, k-1) states a
    layer, times n layers.
    """
    k = len(init)
    states = comb(g.n + k - 2, k - 1) if k else 1
    _guard("count_optimal_schedules", "C(N+k-2,k-1)*n", states * max(len(sigma), 1))
    if dm is None:
        dm = all_pairs_shortest_paths(g)
    for base, layer, _ in _dp_layers(dm.dist, init, sigma):
        pass
    best_cost, count, _ = _optimum(base, layer)
    return best_cost, count


def _flow_units(init, sigma, rows, ends, big) -> tuple[int, list]:
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


def opt_cost_flow(
    g: Graph, init, sigma, dm: DistanceMatrix | None = None
) -> tuple[int | Fraction, Schedule]:
    """Offline optimum as a min-cost flow of value k on the request DAG.

    Node S feeds one node s_i per server; request t is split into ri_t ->
    ro_t, an arc of cost -B; a server's unit runs s_i -> ri_t -> ro_t ->
    ri_u -> ... -> T and pays d(init_i, sigma_t), d(sigma_t, sigma_u), ...
    on the way (Chrobak, Karloff, Payne, Vishwanathan 1991).  B exceeds the
    positive cost of any flow, so a min-cost flow covers every request and
    OPT = flow cost + n*B.  Distances are scaled by the lcm of the edge
    weights' denominators (1 when every weight is an int); each distance is
    a sum of edge weights, so every scaled cost is an exact int.

    The arcs into ri_t come only from the k server nodes and from ro_u for
    u the latest earlier request at each distinct vertex: at most
    k + min(t, N) of them, where the full DAG has k + t.  This loses no
    optimum, by an exchange argument.  Say a server S serves u at vertex a
    and next serves w, and u < u' < w is the next request at a, served by
    another server S' coming from src'.  Let S serve u' at cost 0 and take
    over the rest of S''s route; S' goes from src' to sigma_w and then on
    as S did.  It pays d(src', sigma_w) <= d(src', a) + d(a, sigma_w), so
    the cost does not rise.  Done at the least skipped u', the exchange
    leaves no arc that skips a request at or before u', so at most n
    exchanges turn an optimum into one whose every arc is kept.

    No arc list is stored: ro_u feeds ri_t for u < t <= ends[u], the next
    request at sigma_u (n - 1 if none), and costs are read off the requests'
    scaled rows, once per solve.  A node's residual arcs are s_i: T, ri_0 ..
    ri_{n-1}; ri_t: the reverse to its tail, else ro_t; ro_t: T, ri_{t+1}
    .. ri_{ends[t]}, the reverse to ri_t.  Their heads are distinct, so the
    order a node relaxes them in does not matter and node ids alone break
    ties, as in an arc-list solver on the same node ids: nodes are scanned,
    or popped at equal distance, in id order, and a node keeps the first
    tail that reaches its distance.  The
    flow cost, the sum of the units' path costs (pot[T] after each), is
    checked against the cost of the decoded schedule.
    """
    if dm is None:
        dm = all_pairs_shortest_paths(g)
    k = len(init)
    n = len(sigma)
    if n == 0:
        return 0, Schedule(moves=[], total_cost=0)
    if k == 0:
        raise ValueError(f"init: no servers to serve {n} requests")
    dist = dm.dist
    scale = lcm(
        *(w.denominator for _, _, w in g.edges if isinstance(w, Fraction)), 1
    )
    scaled = {r: dist[r] for r in set(sigma)}  # a row per requested vertex
    if scale > 1:
        scaled = {r: [int(x * scale) for x in row] for r, row in scaled.items()}
    rows = [scaled[r] for r in sigma]
    # Nodes: S = 0, s_i = 1 + i, ri_t = k + 1 + 2t, ro_t = ri_t + 1, T last.
    sink = k + 1 + 2 * n
    big = 1  # B: 1 + the sum over requests of the costliest arc into ri_t
    ends = [n - 1] * n  # ro_u feeds ri_t for u < t <= ends[u]
    last: dict[int, int] = {}  # vertex -> its latest request so far
    for t, (r, row) in enumerate(zip(sigma, rows)):
        big += max(map(row.__getitem__, (*init, *last)))
        if r in last:
            ends[last[r]] = t
        last[r] = t
    flow_cost, succ = _flow_units(init, sigma, rows, ends, big)
    total = Fraction(flow_cost + n * big, scale)
    total = int(total) if total.denominator == 1 else total

    # Each server's unit: s_i -> ri_t -> ro_t -> ri_u -> ... -> T.
    serve_t: dict[int, int] = {}
    for i in range(k):
        v = succ[1 + i]
        while v is not None and v != sink:
            t, is_ro = divmod(v - k - 1, 2)
            if not is_ro:
                serve_t[t] = i
            v = succ[v]
    if len(serve_t) != n:
        missed = min(set(range(n)) - serve_t.keys())
        raise FlowDecodeError(f"flow failed to cover request t={missed}")
    positions = list(init)
    moves = []
    for t in range(n):
        sid = serve_t[t]
        src = positions[sid]
        moves.append(Move(t, sid, src, sigma[t], dist[src][sigma[t]]))
        positions[sid] = sigma[t]
    cost = sum(m.cost for m in moves)
    if cost != total:
        raise FlowDecodeError(f"schedule costs {cost}, flow costs {total}")
    return total, Schedule(moves=moves, total_cost=total)
