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
vertex inside it.  Field widths are w_h = ceil(log2(h+1)) and w_b =
ceil(log2(width+1)), and a record is one uint of w_h + w_b bits holding
depth << w_b | index: bit for bit the depth field followed by the index
field.  A tape holds k initial records plus two records per request, in
server-id order and request order.  The oracle computes each distinct
leg's relay once.  The online side takes sigma one request at a time and
reads the tape through `AdviceTape.uints`, so `bits_read` counts the
records consumed and each record's error is raised in record order.  It
walks each reference vertex's root path once, the first time that vertex
is a reference, and keeps the path's bags, so a record resolves by two
list indexes; the typed errors are built only when a record fails.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

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


class GpcMove(NamedTuple):
    t: int
    request: int
    server: int
    retrieved_from: int
    parked_at: int
    cost: int | Fraction
    candidates_at_address: int


class GpcRun(NamedTuple):
    online_cost: int | Fraction
    bits_read: int
    log: list[GpcMove]
    bit_budget: int


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
    w_h, w_b = address_widths(td)
    tape = AdviceTape()
    servers, first, after = serve_order(init, sigma, opt)
    rep, depth, bags = td.representative_bag, td.depth, td.bags
    records: dict[tuple[int, int], int] = {}  # (x, y) -> its relay's record

    def relay(x: int, u: int | None) -> int:
        """The record of the vertex where a server at x parks until it
        serves request u: a relay on the shortest x-sigma[u] path (None: x
        itself), in the least-common-ancestor bag of x's and sigma[u]'s."""
        y = x if u is None else sigma[u]
        record = records.get((x, y))
        if record is None:
            if x == y:
                bag, z = rep[x], x
            else:
                bag = td.lca_bag(rep[x], rep[y])
                z = intersect_shortest_path(dm, td, x, y, bag)
            record = records[x, y] = depth[bag] << w_b | bags[bag].index(z)
        return record

    # Initial records, in server-id order; untouched servers park in place.
    parked = [relay(x0, u) for x0, u in zip(init, first)]
    for record in parked:
        tape.write_uint(record, w_h + w_b)
    # Two records per request: retrieval relay, then next parking relay.
    for t, (y, sid) in enumerate(zip(sigma, servers)):
        tape.write_uint(parked[sid], w_h + w_b)
        parked[sid] = relay(y, after[t])
        tape.write_uint(parked[sid], w_h + w_b)
    return tape


def _root_path(td: TreeDecomposition, v: int) -> list[int]:
    """The bags from the root down to v's representative bag."""
    path = []
    bag = td.representative_bag[v]
    while bag is not None:
        path.append(bag)
        bag = td.parent[bag]
    path.reverse()
    return path


def _bad_address(td: TreeDecomposition, v: int, record: int, w_b: int):
    """The error for a record that names no vertex of v's root path."""
    path = _root_path(td, v)
    depth, idx = record >> w_b, record & ((1 << w_b) - 1)
    if depth >= len(path):
        return NoServerAtAddress(f"depth {depth} above no ancestor of bag {path[-1]}")
    return NoServerAtAddress(f"index {idx} outside bag {path[depth]}")


def run_online(
    g: Graph,
    dm: DistanceMatrix,
    td: TreeDecomposition,
    init,
    sigma,
    tape: AdviceTape,
) -> GpcRun:
    """Serve sigma by reading the tape; cost equals the offline optimum.

    sigma is taken one request at a time, so any iterable serves, and the
    tape is read only as far as the requests served so far.  A record's
    reference vertex is the server's own for an initial record and the
    request for the other two."""
    w_h, w_b = address_widths(td)
    width, mask = w_h + w_b, (1 << w_b) - 1
    bags = td.bags
    refs: dict[int, tuple] = {}  # vertex -> (its root path's bags, its row)

    def ref(v: int) -> tuple:
        refs[v] = found = ([bags[b] for b in _root_path(td, v)], dm.dist[v])
        return found

    read = tape.uints(width).__next__
    positions = list(init)
    cost = 0
    # Initial parking moves, in server-id order.  A record outside the
    # path or its bag is an IndexError, turned into the typed error only
    # then.
    for i, x in enumerate(init):
        path, dx = refs.get(x) or ref(x)
        record = read()
        try:
            positions[i] = z0 = path[record >> w_b][record & mask]
        except IndexError:
            raise _bad_address(td, x, record, w_b) from None
        cost += dx[z0]
    log: list[GpcMove] = []
    new = tuple.__new__  # a GpcMove without NamedTuple's Python-level __new__
    for t, y in enumerate(sigma):
        path, dy = refs.get(y) or ref(y)  # a relay forces no row of its own
        record = read()
        try:
            z1 = path[record >> w_b][record & mask]
        except IndexError:
            raise _bad_address(td, y, record, w_b) from None
        holders = positions.count(z1)
        if not holders:
            raise NoServerAtAddress(
                f"request {t}: no server parked at decoded vertex {z1}"
            )
        sid = positions.index(z1)
        record = read()
        try:
            positions[sid] = z2 = path[record >> w_b][record & mask]
        except IndexError:
            raise _bad_address(td, y, record, w_b) from None
        move_cost = dy[z1] + dy[z2]
        cost += move_cost
        log.append(new(GpcMove, (t, y, sid, z1, z2, move_cost, holders)))
    return GpcRun(
        online_cost=cost,
        bits_read=tape.bits_read,
        log=log,
        bit_budget=gpc_bit_budget(td, len(init), len(log)),
    )
