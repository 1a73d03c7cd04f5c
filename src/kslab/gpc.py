"""Graph-Path-Cover: optimal online service from tape advice.

The oracle walks an optimal lazy schedule once (offline_solver.serve_order,
which also checks it) and, for every leg x -> y of a server's trajectory,
picks a relay vertex z that lies both on the canonical shortest x-y path
and in the least-common-ancestor bag of the representative bags of x and
y.  The online side parks each server on its relay between serves, so
every leg costs d(x,z) + d(z,y) = d(x,y) and the total equals the offline
optimum exactly.

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
from .offline_solver import Schedule, serve_order
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

    def moves_json(self) -> list[dict]:
        """The moves as the report spells them: ints and str costs."""
        return [
            {
                "t": m.t,
                "request": m.request,
                "server": m.server,
                "from": m.retrieved_from,
                "parked_at": m.parked_at,
                "cost": str(m.cost),
            }
            for m in self.log
        ]


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
    servers, first, after = serve_order(init, sigma, opt)
    rep = td.representative_bag

    def relay(x: int, u: int | None) -> tuple[int, int]:
        """(bag, vertex) where a server at x parks until it serves request
        u: a relay on the shortest x-sigma[u] path (None: x itself)."""
        y = x if u is None else sigma[u]
        if x == y:
            return rep[x], x
        z_bag = td.lca_bag(rep[x], rep[y])
        return z_bag, intersect_shortest_path(dm, td, x, y, z_bag)

    # Initial records, in server-id order; untouched servers park in place.
    parked = [relay(x0, u) for x0, u in zip(init, first)]
    for address in parked:
        _write_address(tape, td, widths, *address)
    # Two records per request: retrieval relay, then next parking relay.
    for t, (y, sid) in enumerate(zip(sigma, servers)):
        _write_address(tape, td, widths, *parked[sid])
        parked[sid] = relay(y, after[t])
        _write_address(tape, td, widths, *parked[sid])
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
        dy = dm.dist[y]  # a relay forces no row of its own
        serve_cost = dy[z1]
        positions[sid] = y
        z2 = _read_address(tape, td, widths, y)
        park_cost = dy[z2]
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
    )
