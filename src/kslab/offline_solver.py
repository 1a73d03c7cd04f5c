"""Exact offline k-server optimum.

Two independent routes are provided: a dynamic program over server
configurations (the oracle for everything else, and the basis for
counting the optimal schedules), and a min-cost flow of value k on the
request DAG that scales past the DP guard.  After each request one server
stands on it (Koutsoupias and Papadimitriou, J. ACM 1995), so a DP state
is the multiset of the other k-1 servers: a layer holds at most
C(N+k-2, k-1) states, only a state whose winning move did not start on
the previous request keeps a back-pointer, and ties go to the least
source vertex.  Counting the optimal schedules keeps (least cost, number
of cost-minimal ways in) per state instead.  The flow network keeps at
most k + min(t, N) arcs into request t (from the servers, and from the
latest earlier request at each vertex), so O(n * (k + N)) arcs for n
requests.  It is solved by k successive shortest paths (the first from
one pass over the DAG, the rest by heap Dijkstra on reduced costs), over
plain index arrays and exact ints, with no graph library.  Both emit lazy
schedules: exactly one server moves per request, directly to the
requested vertex.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from bisect import bisect, insort
from heapq import heappop, heappush
from math import lcm

from .metric_core import (
    DistanceMatrix,
    Graph,
    GraphFormatError,
    all_pairs_shortest_paths,
    json_field,
    num_from_json,
    num_to_json,
)


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


@dataclass(frozen=True)
class Move:
    """One entry of a lazy schedule: server moves src -> dst, the vertex
    requested at step t."""

    t: int
    server: int
    src: int
    dst: int
    cost: int | Fraction

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "server": self.server,
            "from": self.src,
            "to": self.dst,
            "cost": num_to_json(self.cost),
        }


@dataclass
class Schedule:
    moves: list[Move]
    total_cost: int | Fraction

    def to_json(self) -> dict:
        return {
            "total_cost": num_to_json(self.total_cost),
            "moves": [m.to_json() for m in self.moves],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Schedule":
        """The schedule `to_json` wrote; a missing field or a bad number
        raises GraphFormatError naming it, as in "moves[2].server"."""
        raw = json_field(obj, "moves")
        if not isinstance(raw, list):
            raise GraphFormatError("moves", "expected a list of moves")
        moves = []
        for i, m in enumerate(raw):
            where = f"moves[{i}]"
            moves.append(
                Move(
                    t=json_field(m, "t", where),
                    server=json_field(m, "server", where),
                    src=json_field(m, "from", where),
                    dst=json_field(m, "to", where),
                    cost=num_from_json(json_field(m, "cost", where), f"{where}.cost"),
                )
            )
        total = num_from_json(json_field(obj, "total_cost"), "total_cost")
        return cls(moves=moves, total_cost=total)

    def move_triples(self) -> tuple[tuple[int, int, int], ...]:
        """(t, src, dst) view: schedule identity modulo server relabeling."""
        return tuple((m.t, m.src, m.dst) for m in self.moves)


def replay_cost(dm: DistanceMatrix, schedule: Schedule):
    """Recompute the schedule's cost from the metric; sanity oracle."""
    return sum(dm.dist[m.src][m.dst] for m in schedule.moves)


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


def _guard(n_vertices: int, k: int, n_requests: int, what: str):
    size = (n_vertices**k) * max(n_requests, 1)
    if size > DP_GUARD:
        raise InstanceTooLarge(
            f"{what}: N^k*n = {size} exceeds the guard {DP_GUARD}"
        )


def _assign_server_ids(init, steps):
    """Turn (t, src, dst) steps into Moves with concrete server ids.

    Configurations are multisets, so ties are broken toward the lowest
    server id currently at the source vertex.
    """
    positions = list(init)
    moves = []
    for t, src, dst, cost in steps:
        sid = positions.index(src)
        positions[sid] = dst
        moves.append(Move(t=t, server=sid, src=src, dst=dst, cost=cost))
    return moves


def _replace_one(conf: tuple, out: int, into: int) -> tuple:
    """The sorted tuple `conf` with one copy of `out` replaced by `into`."""
    rest = list(conf)
    rest.remove(out)
    insort(rest, into)
    return tuple(rest)


def _dp_layers(dist, init, sigma):
    """Forward pass of the DP; yields (layer, moved) for t = 0..n.

    After request t-1 a server stands on p_t = sigma[t-1] (p_0 =
    min(init)), so a state is the sorted tuple R of the other k-1 servers,
    and layer[R] is the least cost of serving sigma[:t] and ending at
    R + (p_t,).  Serving sigma[t] from p_t keeps R; serving it from some
    s != p_t in R gives R - s + p_t.  The configurations a state R' of
    layer t+1 comes from are R' + (s,) over its sources s, which grow with
    s, so a tie goes to the least source, which is also the least
    predecessor configuration; moved[R'] holds the winning source where it
    is not p_t (moved is empty for t = 0).
    """
    if not init and sigma:
        raise ValueError(f"init: no servers to serve {len(sigma)} requests")
    p = min(init, default=None)
    layer = {tuple(sorted(init))[1:]: 0}
    yield layer, {}
    for r in sigma:
        dr = dist[r]  # d(s, r) == d(r, s): one row per request
        step = dr[p]
        nxt = {conf: cost + step for conf, cost in layer.items()}
        moved: dict[tuple, int] = {}
        for conf, cost in layer.items():
            for i, s in enumerate(conf):
                if s == p:  # the same move as serving from p_t
                    continue
                new_cost = cost + dr[s]
                rest = conf[:i] + conf[i + 1:]
                j = bisect(rest, p)
                new_conf = rest[:j] + (p,) + rest[j:]
                best = nxt.get(new_conf)
                if (
                    best is None
                    or new_cost < best
                    or (new_cost == best and s < moved.get(new_conf, p))
                ):
                    nxt[new_conf] = new_cost
                    moved[new_conf] = s
        layer = nxt
        p = r
        yield layer, moved


def opt_cost_dp(
    g: Graph, init, sigma, dm: DistanceMatrix | None = None
) -> tuple[int | Fraction, Schedule]:
    """Provably minimal offline cost via DP over server configurations.

    Returns one optimal lazy schedule (deterministic tie-breaking: the
    least source vertex at every state, and the least final state).
    """
    _guard(g.n, len(init), len(sigma), "opt_cost_dp")
    if dm is None:
        dm = all_pairs_shortest_paths(g)
    dist = dm.dist
    back = []  # back[t]: the sparse back-pointers into layer t
    for layer, moved in _dp_layers(dist, init, sigma):
        back.append(moved)
    conf = min(layer, key=lambda c: (layer[c], c))
    best_cost = layer[conf]
    # Back-trace one optimal chain of (src -> request) steps.
    steps = []
    for t in range(len(sigma) - 1, -1, -1):
        p = sigma[t - 1] if t else min(init)
        src = back[t + 1].get(conf, p)
        if src != p:
            conf = _replace_one(conf, p, src)
        steps.append((t, src, sigma[t], dist[src][sigma[t]]))
    steps.reverse()
    schedule = Schedule(moves=_assign_server_ids(init, steps), total_cost=best_cost)
    return best_cost, schedule


def count_optimal_schedules(
    g: Graph, init, sigma, dm: DistanceMatrix | None = None
) -> tuple[int | Fraction, int]:
    """OPT and the number of distinct optimal (t, src, dst) schedules.

    One forward pass over the states of `_dp_layers`, each holding (least
    cost, number of cost-minimal ways in).  A move counts once per distinct
    source, and a source equal to p_t is the move from p_t, so paths through
    the states are in bijection with schedules.
    """
    _guard(g.n, len(init), len(sigma), "count_optimal_schedules")
    if not init and sigma:
        raise ValueError(f"init: no servers to serve {len(sigma)} requests")
    if dm is None:
        dm = all_pairs_shortest_paths(g)
    dist = dm.dist
    p = min(init, default=None)
    layer = {tuple(sorted(init))[1:]: (0, 1)}
    for r in sigma:
        dr = dist[r]
        step = dr[p]
        nxt = {conf: (cost + step, ways) for conf, (cost, ways) in layer.items()}
        for conf, (cost, ways) in layer.items():
            for s in set(conf) - {p}:
                new_cost = cost + dr[s]
                new_conf = _replace_one(conf, s, p)
                best = nxt.get(new_conf)
                if best is None or new_cost < best[0]:
                    nxt[new_conf] = (new_cost, ways)
                elif new_cost == best[0]:
                    nxt[new_conf] = (new_cost, best[1] + ways)
        layer = nxt
        p = r
    best_cost = min(cost for cost, _ in layer.values())
    return best_cost, sum(ways for cost, ways in layer.values() if cost == best_cost)


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
    flow_cost, flow = _min_cost_flow(sink + 1, arcs, k)
    total = Fraction(flow_cost + n * big, scale)
    total = int(total) if total.denominator == 1 else total

    # Each server's unit: s_i -> ri_t -> ro_t -> ri_u -> ... -> T.
    succ = {u: v for (u, v, _), f in zip(arcs, flow) if f}
    serve_t: dict[int, int] = {}
    for i in range(k):
        v = succ.get(1 + i)
        while v is not None and v != sink:
            t, is_ro = divmod(v - k - 1, 2)
            if not is_ro:
                serve_t[t] = i
            v = succ.get(v)
    if len(serve_t) != n:
        missed = min(set(range(n)) - serve_t.keys())
        raise FlowDecodeError(f"flow failed to cover request t={missed}")
    positions = list(init)
    moves = []
    for t in range(n):
        sid = serve_t[t]
        src = positions[sid]
        moves.append(
            Move(t=t, server=sid, src=src, dst=sigma[t], cost=dist[src][sigma[t]])
        )
        positions[sid] = sigma[t]
    cost = sum(m.cost for m in moves)
    if cost != total:
        raise FlowDecodeError(f"schedule costs {cost}, flow costs {total}")
    return total, Schedule(moves=moves, total_cost=total)
