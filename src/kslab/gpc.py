"""Graph-Path-Cover: optimal online service from tape advice.

The oracle replays an optimal lazy schedule and, for every leg x -> y of a
server's trajectory, picks a relay vertex z that lies both on the
canonical shortest x-y path and in the least-common-ancestor bag of the
representative bags of x and y.  The online side parks each server on its
relay between serves, so every leg costs d(x,z) + d(z,y) = d(x,y) and the
total equals the offline optimum exactly.

Every record is one (bag depth, in-bag index) address: depth identifies
the ancestor bag of the current request's representative bag, the index a
vertex inside it.  Widths are ceil(log2(h+1)) and ceil(log2(width+1)); a
tape holds k initial records plus two records per request, read eagerly in
server-id order and request order.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .advice_tape import AdviceTape
from .metric_core import DistanceMatrix, Graph
from .offline_solver import InvalidSchedule, Schedule
from .tree_decomp import TreeDecomposition, intersect_shortest_path


class NoServerAtAddress(RuntimeError):
    """Decoded address holds no server: oracle/decoder mismatch (a bug)."""


def ceil_log2(x: int) -> int:
    """Bits needed to index x distinct values; 0 when x <= 1."""
    if x < 1:
        raise ValueError(f"need a positive count, got {x}")
    return (x - 1).bit_length()


def address_widths(td: TreeDecomposition) -> tuple[int, int]:
    """(depth bits, in-bag index bits): depths span 0..h, indices 0..width."""
    return ceil_log2(td.height + 1), ceil_log2(td.width + 1)


def gpc_bit_budget(td: TreeDecomposition, k: int, n: int) -> int:
    """(2n + k) * (ceil(log2(h+1)) + ceil(log2(width+1))) tape bits."""
    w_h, w_b = address_widths(td)
    return (2 * n + k) * (w_h + w_b)


def gpc_bit_budget_nominal(td: TreeDecomposition, k: int, n: int) -> int:
    """The looser ceil(log h) + ceil(log width) accounting.

    Bags hold width+1 vertices and depths run 0..h, so this undercounts by
    up to one bit per field; reported alongside the exact budget rather
    than silently replacing it.
    """
    w_h = ceil_log2(max(1, td.height))
    w_b = ceil_log2(max(1, td.width))
    return (2 * n + k) * (w_h + w_b)


def server_trajectories(init, sigma, opt: Schedule) -> list[list[int]]:
    """Per-server vertex trajectories [start, served, served, ...]."""
    trajectories = [[x] for x in init]
    for m in sorted(opt.moves, key=lambda m: m.t):
        if trajectories[m.server][-1] != m.src:
            raise ValueError(
                f"schedule move {m} does not continue server {m.server}'s "
                f"trajectory at {trajectories[m.server][-1]}"
            )
        trajectories[m.server].append(m.dst)
    return trajectories


def check_leg_end(t: int, y: int, sid: int, reached: int) -> None:
    """Raise InvalidSchedule unless server sid, serving request t at y,
    reaches y on its trajectory; a move that ends elsewhere fails here."""
    if reached != y:
        raise InvalidSchedule(
            t, "dst", f"server {sid} reaches {reached}, request is {y}"
        )


def request_servers(opt: Schedule, n: int) -> list[int]:
    """The server id of the move serving each request 0..n-1; raise
    InvalidSchedule at the first request that no move serves."""
    serving = {m.t: m.server for m in opt.moves}
    servers = [serving.get(t) for t in range(n)]
    if None in servers:
        t = servers.index(None)
        raise InvalidSchedule(t, "t", "no move serves this request")
    return servers


@dataclass
class GpcMove:
    t: int
    request: int
    server: int
    retrieved_from: int
    parked_at: int
    cost: int | Fraction
    candidates_at_address: int


@dataclass
class GpcRun:
    online_cost: int | Fraction
    bits_read: int
    log: list[GpcMove]
    bit_budget: int
    h: int
    width: int
    k: int
    n: int

    def to_json(self) -> dict:
        return {
            "online_cost": str(self.online_cost),
            "bits_read": self.bits_read,
            "bit_budget": self.bit_budget,
            "params": {"h": self.h, "width": self.width, "k": self.k, "n": self.n},
            "moves": [
                {
                    "t": m.t,
                    "request": m.request,
                    "server": m.server,
                    "from": m.retrieved_from,
                    "parked_at": m.parked_at,
                    "cost": str(m.cost),
                }
                for m in self.log
            ],
        }


def _write_address(
    tape: AdviceTape, td: TreeDecomposition, widths, bag_idx: int, v: int
) -> None:
    w_h, w_b = widths
    tape.write_uint(td.depth[bag_idx], w_h)
    tape.write_uint(td.bags[bag_idx].index(v), w_b)


def _read_address(
    tape: AdviceTape, td: TreeDecomposition, widths, ref_vertex: int
) -> int:
    """Resolve (depth, index) against the reference vertex's root path."""
    w_h, w_b = widths
    depth = tape.read_uint(w_h)
    idx = tape.read_uint(w_b)
    ref_bag = td.representative_bag[ref_vertex]
    if depth > td.depth[ref_bag]:
        raise NoServerAtAddress(
            f"depth {depth} above no ancestor of bag {ref_bag}"
        )
    bag = td.ancestor_at_depth(ref_bag, depth)
    if idx >= len(td.bags[bag]):
        raise NoServerAtAddress(f"index {idx} outside bag {bag}")
    return td.bags[bag][idx]


def generate_advice(
    g: Graph,
    dm: DistanceMatrix,
    td: TreeDecomposition,
    init,
    sigma,
    opt: Schedule,
) -> AdviceTape:
    """Encode parking relays for an optimal lazy schedule.

    Servers the optimum never touches park in place; the final leg of each
    trajectory parks on the request itself, keeping the record format
    uniform (and the extra moves free).
    """
    widths = address_widths(td)
    tape = AdviceTape()
    trajectories = server_trajectories(init, sigma, opt)
    rep = td.representative_bag

    def relay(x: int, y: int) -> tuple[int, int]:
        """(bag, vertex) for the parking relay of leg x -> y."""
        if x == y:
            return rep[x], x
        z_bag = td.lca_bag(rep[x], rep[y])
        return z_bag, intersect_shortest_path(dm, td, x, y, z_bag)

    # Initial records, in server-id order; untouched servers park in place.
    last_address: list[tuple[int, int]] = []
    for i, x0 in enumerate(init):
        if len(trajectories[i]) > 1:
            last_address.append(relay(x0, trajectories[i][1]))
        else:
            last_address.append((rep[x0], x0))
        _write_address(tape, td, widths, *last_address[i])

    # Two records per request: retrieval relay, then next parking relay.
    servers = request_servers(opt, len(sigma))
    progress = [0] * len(init)  # position within each trajectory
    for t, (y, sid) in enumerate(zip(sigma, servers)):
        bag, z = last_address[sid]
        _write_address(tape, td, widths, bag, z)  # where the server sits
        progress[sid] += 1
        traj = trajectories[sid]
        check_leg_end(t, y, sid, traj[progress[sid]])
        if progress[sid] + 1 < len(traj):
            nxt = relay(y, traj[progress[sid] + 1])
        else:
            nxt = (rep[y], y)
        last_address[sid] = nxt
        _write_address(tape, td, widths, nxt[0], nxt[1])
    return tape


def run_online(
    g: Graph,
    dm: DistanceMatrix,
    td: TreeDecomposition,
    init,
    sigma,
    tape: AdviceTape,
) -> GpcRun:
    """Serve sigma by reading the tape; cost equals the offline optimum."""
    widths = address_widths(td)
    k = len(init)
    positions = list(init)
    cost = 0
    # Initial parking moves, read eagerly in server-id order.
    for i in range(k):
        z0 = _read_address(tape, td, widths, positions[i])
        cost += dm.dist[positions[i]][z0]
        positions[i] = z0
    log: list[GpcMove] = []
    for t, y in enumerate(sigma):
        z1 = _read_address(tape, td, widths, y)
        holders = [i for i, p in enumerate(positions) if p == z1]
        if not holders:
            raise NoServerAtAddress(
                f"request {t}: no server parked at decoded vertex {z1}"
            )
        sid = holders[0]
        serve_cost = dm.dist[z1][y]
        positions[sid] = y
        z2 = _read_address(tape, td, widths, y)
        park_cost = dm.dist[y][z2]
        positions[sid] = z2
        cost += serve_cost + park_cost
        log.append(
            GpcMove(
                t=t,
                request=y,
                server=sid,
                retrieved_from=z1,
                parked_at=z2,
                cost=serve_cost + park_cost,
                candidates_at_address=len(holders),
            )
        )
    return GpcRun(
        online_cost=cost,
        bits_read=tape.bits_read,
        log=log,
        bit_budget=gpc_bit_budget(td, k, len(sigma)),
        h=td.height,
        width=td.width,
        k=k,
        n=len(sigma),
    )
