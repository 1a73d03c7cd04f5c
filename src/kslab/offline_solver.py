"""Exact offline k-server optimum.

Two independent routes are provided: a dynamic program over server
configurations (the oracle for everything else, and the basis for
enumerating all optimal schedules), and a min-cost-flow formulation that
scales past the DP guard.  Both emit lazy schedules: exactly one server
moves per request, directly to the requested vertex.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import networkx as nx

from .metric_core import (
    DistanceMatrix,
    Graph,
    all_pairs_shortest_paths,
    num_from_json,
    num_to_json,
)


class InstanceTooLarge(ValueError):
    """An exact solver's size guard tripped before any work was done."""


class FlowDecodeError(RuntimeError):
    """The min-cost flow does not decode into a lazy schedule of its cost."""


DP_GUARD = 10**7
ENUM_GUARD = 10**6


@dataclass(frozen=True)
class Move:
    """One schedule entry.

    For lazy offline schedules `dst` is the requested vertex and `via` is
    None.  Online replays reuse the same record with `via` = the request
    vertex visited en route and `dst` = the subsequent parking vertex.
    Initial relocations carry t = -1.
    """

    t: int
    server: int
    src: int
    dst: int
    cost: int | Fraction
    via: int | None = None

    def to_json(self) -> dict:
        obj = {
            "t": self.t,
            "server": self.server,
            "from": self.src,
            "to": self.dst,
            "cost": num_to_json(self.cost),
        }
        if self.via is not None:
            obj["via"] = self.via
        return obj


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
        moves = [
            Move(
                t=m["t"],
                server=m["server"],
                src=m["from"],
                dst=m["to"],
                cost=num_from_json(m["cost"], f"moves[{i}].cost"),
                via=m.get("via"),
            )
            for i, m in enumerate(obj["moves"])
        ]
        total = num_from_json(obj["total_cost"], "total_cost")
        return cls(moves=moves, total_cost=total)

    def move_triples(self) -> tuple[tuple[int, int, int], ...]:
        """(t, src, dst) view: schedule identity modulo server relabeling."""
        return tuple((m.t, m.src, m.dst) for m in self.moves)


def replay_cost(dm: DistanceMatrix, schedule: Schedule):
    """Recompute the schedule's cost from the metric; sanity oracle."""
    total = 0
    for m in schedule.moves:
        if m.via is None:
            total += dm.dist[m.src][m.dst]
        else:
            total += dm.dist[m.src][m.via] + dm.dist[m.via][m.dst]
    return total


def validate_lazy_schedule(
    dm: DistanceMatrix, init, sigma, schedule: Schedule
) -> None:
    """Assert the lazy-schedule invariants; raises AssertionError on a bug."""
    positions = list(init)
    by_t = {m.t: m for m in schedule.moves}
    assert len(schedule.moves) == len(sigma), "one move per request expected"
    total = 0
    for t, r in enumerate(sigma):
        m = by_t[t]
        assert m.via is None
        assert positions[m.server] == m.src, "server not at claimed source"
        assert m.dst == r, "lazy move must end on the request"
        assert m.cost == dm.dist[m.src][m.dst], "cost != metric distance"
        positions[m.server] = m.dst
        total += m.cost
    assert total == schedule.total_cost


def _guard(n_vertices: int, k: int, n_requests: int, limit: int, what: str):
    size = (n_vertices**k) * max(n_requests, 1)
    if size > limit:
        raise InstanceTooLarge(
            f"{what}: N^k*n = {size} exceeds the guard {limit}"
        )


def _assign_server_ids(init, steps):
    """Turn (t, src, dst) steps into Moves with concrete server ids.

    Configurations are multisets, so ties are broken toward the lowest
    server id currently at the source vertex.
    """
    positions = list(init)
    moves = []
    for t, src, dst, cost in steps:
        sid = min(i for i, p in enumerate(positions) if p == src)
        positions[sid] = dst
        moves.append(Move(t=t, server=sid, src=src, dst=dst, cost=cost))
    return moves


def _dp_layers(dist, init, sigma) -> list[dict[tuple, tuple]]:
    """Forward pass of the DP over sorted configurations.

    layers[t][config] = (least cost of serving sigma[:t] and ending in
    config, (prev_config, src_vertex)); ties go to the lexicographically
    smallest predecessor/source.
    """
    layer: dict[tuple, tuple] = {tuple(sorted(init)): (0, None)}
    layers = [layer]
    for r in sigma:
        nxt: dict[tuple, tuple] = {}
        for conf, (cost, _) in layer.items():
            for src in set(conf):
                step = dist[src][r]
                new_cost = cost + step
                lst = list(conf)
                lst.remove(src)
                lst.append(r)
                new_conf = tuple(sorted(lst))
                prev = nxt.get(new_conf)
                if (
                    prev is None
                    or new_cost < prev[0]
                    or (new_cost == prev[0] and (conf, src) < prev[1])
                ):
                    nxt[new_conf] = (new_cost, (conf, src))
        layer = nxt
        layers.append(layer)
    return layers


def opt_cost_dp(
    g: Graph, init, sigma, dm: DistanceMatrix | None = None
) -> tuple[int | Fraction, Schedule]:
    """Provably minimal offline cost via DP over sorted configurations.

    Returns one optimal lazy schedule (deterministic tie-breaking: the
    lexicographically smallest predecessor/source at every state).
    """
    _guard(g.n, len(init), len(sigma), DP_GUARD, "opt_cost_dp")
    if dm is None:
        dm = all_pairs_shortest_paths(g)
    dist = dm.dist
    layers = _dp_layers(dist, init, sigma)
    last = layers[-1]
    best_conf = min(last, key=lambda c: (last[c][0], c))
    best_cost = last[best_conf][0]
    # Back-trace one optimal chain of (src -> request) steps.
    steps = []
    conf = best_conf
    for t in range(len(sigma) - 1, -1, -1):
        _, (conf, src) = layers[t + 1][conf]
        steps.append((t, src, sigma[t], dist[src][sigma[t]]))
    steps.reverse()
    schedule = Schedule(moves=_assign_server_ids(init, steps), total_cost=best_cost)
    return best_cost, schedule


def opt_all_schedules(
    g: Graph, init, sigma, dm: DistanceMatrix | None = None
) -> list[Schedule]:
    """Exhaustively enumerate every cost-minimal lazy schedule.

    Schedules are distinguished by their (t, src, dst) move sequences;
    relabeling servers that share a vertex does not create a new schedule.
    """
    _guard(g.n, len(init), len(sigma), ENUM_GUARD, "opt_all_schedules")
    if dm is None:
        dm = all_pairs_shortest_paths(g)
    dist = dm.dist
    layers = _dp_layers(dist, init, sigma)
    best_cost = min(cost for cost, _ in layers[-1].values())
    finals = sorted(c for c, (cost, _) in layers[-1].items() if cost == best_cost)

    schedules: list[Schedule] = []

    def backtrack(t: int, conf: tuple, cost: int, steps_rev: list) -> None:
        if t == 0:
            steps = [
                (i, src, sigma[i], dist[src][sigma[i]])
                for i, src in enumerate(reversed(steps_rev))
            ]
            schedules.append(
                Schedule(
                    moves=_assign_server_ids(init, steps), total_cost=best_cost
                )
            )
            return
        r = sigma[t - 1]
        lst0 = list(conf)
        lst0.remove(r)  # the request vertex is occupied after serving it
        for src in range(g.n):  # any vertex the server may have come from
            prev_conf = tuple(sorted(lst0 + [src]))
            prev = layers[t - 1].get(prev_conf)
            if prev is not None and prev[0] + dist[src][r] == cost:
                steps_rev.append(src)
                backtrack(t - 1, prev_conf, prev[0], steps_rev)
                steps_rev.pop()

    for final in finals:
        backtrack(len(sigma), final, best_cost, [])
    # Distinct by construction; sort for a stable order.
    schedules.sort(key=lambda s: s.move_triples())
    return schedules


def opt_cost_flow(
    g: Graph, init, sigma, dm: DistanceMatrix | None = None
) -> tuple[int | Fraction, Schedule]:
    """Offline optimum via min-cost flow (node-split request gadgets).

    Forcing one unit through every request is done with the standard
    lower-bound-to-demand transformation, which keeps all arc costs
    nonnegative.  Costs are scaled to integers when distances are rational.
    """
    if dm is None:
        dm = all_pairs_shortest_paths(g)
    k = len(init)
    n = len(sigma)
    if n == 0:
        return 0, Schedule(moves=[], total_cost=0)
    dist = dm.dist
    scale = lcm(
        *(
            d.denominator
            for row in dist
            for d in row
            if isinstance(d, Fraction)
        ),
        1,
    )

    def c(x):
        v = x * scale
        return int(v)

    G = nx.DiGraph()
    G.add_node("S", demand=-k)
    G.add_node("T", demand=k)
    for i in range(k):
        G.add_edge("S", ("s", i), capacity=1, weight=0)
        G.add_edge(("s", i), "T", capacity=1, weight=0)
    for t in range(n):
        # request edge with lower bound 1: shifted into node demands
        G.add_node(("ri", t), demand=1)
        G.add_node(("ro", t), demand=-1)
        G.add_edge(("ro", t), "T", capacity=1, weight=0)
        for i in range(k):
            G.add_edge(
                ("s", i), ("ri", t), capacity=1, weight=c(dist[init[i]][sigma[t]])
            )
        for u in range(t + 1, n):
            G.add_edge(
                ("ro", t), ("ri", u), capacity=1, weight=c(dist[sigma[t]][sigma[u]])
            )
    flow_cost, flow = nx.network_simplex(G)
    total = Fraction(flow_cost, scale)
    total = int(total) if total.denominator == 1 else total

    # Reconstruct per-server request chains from the flow.
    serve_t: dict[int, int] = {}
    nxt_req: dict[int, int | None] = {}
    first_req: dict[int, int | None] = {}
    for i in range(k):
        first_req[i] = None
        for t in range(n):
            if flow[("s", i)].get(("ri", t), 0):
                first_req[i] = t
                break
    for t in range(n):
        nxt_req[t] = None
        for u in range(t + 1, n):
            if flow[("ro", t)].get(("ri", u), 0):
                nxt_req[t] = u
                break
    for i in range(k):
        t = first_req[i]
        while t is not None:
            serve_t[t] = i
            t = nxt_req[t]
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
