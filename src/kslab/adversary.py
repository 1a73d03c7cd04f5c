"""Lower-bound machinery: path rounds, guessing-bound evaluators, the
unit/module/source-joined graph families and their explicit tree
decompositions, valid sequences, and PERM.

Vertex ids are 0-based throughout.  The classic path round is written on
1-based path labels (3, 1|5, 3, 2, 4, 2, 4) and shifted down by one, so
request lists index directly into a path graph.
"""
from __future__ import annotations

import math
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .metric_core import Graph
from .offline_solver import Move, Schedule
from .tree_decomp import TreeDecomposition


class PathTooShort(ValueError):
    pass


class TauOutOfRange(ValueError):
    pass


class BadPermutation(ValueError):
    pass


class InvalidSequence(ValueError):
    pass


# ---------------------------------------------------------------------------
# Path rounds and the string-guessing bound.

# One round on 1-based path labels; the second request picks side 1 or 5.
_ROUND_LABELS = {"0": (3, 1, 3, 2, 4, 2, 4), "1": (3, 5, 3, 2, 4, 2, 4)}
ROUND_LENGTH = 7

# Servers start on path labels 2 and 4, i.e. vertex ids 1 and 3.
PATH_ROUND_INIT = (1, 3)


def _check_bits(bits: str) -> str:
    if not isinstance(bits, str) or not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"round types must be a nonempty 0/1 string, got {bits!r}")
    return bits


def path_round_sequence(bits: str, n_path: int) -> list[int]:
    """Request list of len(bits) rounds on a path of n_path vertices."""
    _check_bits(bits)
    if n_path < 5:
        raise PathTooShort(f"rounds need a path of size >= 5, got {n_path}")
    out: list[int] = []
    for b in bits:
        out.extend(label - 1 for label in _ROUND_LABELS[b])
    return out


def sgkh_bits_per_round(tau) -> float:
    """Advice needed per round to beat ratio tau, from the guessing bound.

    1 + (2t-2)log2(2t-2) + (3-2t)log2(3-2t) for 1 < tau <= 5/4; the value
    is 0 at tau = 5/4 and tends to 1 as tau -> 1.
    """
    tau = Fraction(tau)
    if not (1 < tau <= Fraction(5, 4)):
        raise TauOutOfRange(f"tau must be in (1, 5/4], got {tau}")
    a = float(2 * tau - 2)
    b = float(3 - 2 * tau)
    term = lambda p: 0.0 if p == 0.0 else p * math.log2(p)
    return 1.0 + term(a) + term(b)


def sgkh_advice_bound(tau, n: int) -> float:
    """Bits of advice required on sequences of length n (n/7 rounds)."""
    return sgkh_bits_per_round(tau) * n / 7.0


def sgkh_bound_per_request(tau) -> float:
    return sgkh_bits_per_round(tau) / 7.0


def sgkh_bound_per_opt_cost(tau) -> float:
    """Bound normalized by the offline cost (4 per round) instead of length."""
    return sgkh_bits_per_round(tau) / 4.0


def extract_round_guesses(init, schedule: Schedule, m: int) -> str:
    """Replay a lazy schedule on a round instance and read off its guesses.

    The guess for a round is 0 when the round's first request is served by
    the right server (the greater-positioned one), 1 otherwise.
    """
    positions = list(init)
    guesses = []
    by_t = {mv.t: mv for mv in schedule.moves}
    for t in range(m * ROUND_LENGTH):
        mv = by_t[t]
        if t % ROUND_LENGTH == 0:
            right = max(positions)
            guesses.append("0" if mv.src == right else "1")
        positions[mv.server] = mv.dst
    return "".join(guesses)


# ---------------------------------------------------------------------------
# Unit graphs, module graphs, the source-joined family, and their tree
# decompositions.
#
# Fixed labeling: within a unit, element vertices come first (ascending),
# then one vertex per proper subset ordered by (size, bitmask).  A module
# is side 1 followed by side 2; the source-joined graph is the modules in
# order followed by the single source vertex.


def _proper_subsets(gamma: int) -> list[int]:
    masks = [m for m in range(1 << gamma) if m != (1 << gamma) - 1]
    masks.sort(key=lambda m: (bin(m).count("1"), m))
    return masks


class UnitLayout(NamedTuple):
    gamma: int
    u_ids: tuple[int, ...]              # element vertices, ascending
    w_ids: tuple[int, ...]              # subset vertices, (size, mask) order
    mask_of: dict[int, int]             # subset vertex id -> element bitmask
    w_by_mask: dict[int, int]           # element bitmask -> subset vertex id


def _unit_layout(gamma: int, offset: int) -> UnitLayout:
    u_ids = tuple(range(offset, offset + gamma))
    masks = _proper_subsets(gamma)
    w_ids = tuple(range(offset + gamma, offset + gamma + len(masks)))
    return UnitLayout(
        gamma=gamma,
        u_ids=u_ids,
        w_ids=w_ids,
        mask_of={w: m for w, m in zip(w_ids, masks)},
        w_by_mask={m: w for w, m in zip(w_ids, masks)},
    )


def _unit_edges(layout: UnitLayout) -> list[tuple[int, int, int]]:
    edges = []
    for w in layout.w_ids:
        mask = layout.mask_of[w]
        for e, u in enumerate(layout.u_ids):
            if not (mask >> e) & 1:  # u not in Set(w)
                edges.append((u, w, 1))
    return edges


def unit_size(gamma: int) -> int:
    return gamma + (1 << gamma) - 1


def unit_graph(gamma: int) -> tuple[Graph, UnitLayout]:
    """Bipartite gadget: gamma elements vs. all proper subsets."""
    if gamma < 2:
        raise ValueError("gamma must be >= 2")
    layout = _unit_layout(gamma, 0)
    return Graph(unit_size(gamma), _unit_edges(layout)), layout


class ModuleLayout(NamedTuple):
    gamma: int
    side1: UnitLayout
    side2: UnitLayout

    @property
    def n(self) -> int:
        return 2 * unit_size(self.gamma)

    def sides(self) -> tuple[UnitLayout, UnitLayout]:
        return (self.side1, self.side2)


def module_layout(gamma: int, offset: int = 0) -> ModuleLayout:
    if gamma < 2:
        raise ValueError("gamma must be >= 2")
    size = unit_size(gamma)
    return ModuleLayout(
        gamma=gamma,
        side1=_unit_layout(gamma, offset),
        side2=_unit_layout(gamma, offset + size),
    )


def _module_edges(ml: ModuleLayout) -> list[tuple[int, int, int]]:
    edges = _unit_edges(ml.side1) + _unit_edges(ml.side2)
    # Size-i subset vertices of one side attach to the (i+1)'th element
    # vertex of the other side.
    for here, there in ((ml.side1, ml.side2), (ml.side2, ml.side1)):
        for w in here.w_ids:
            size = bin(here.mask_of[w]).count("1")
            edges.append((w, there.u_ids[size], 1))
    return edges


def module_graph(gamma: int) -> Graph:
    """Two unit graphs wired back to back; all edge weights 1."""
    ml = module_layout(gamma)
    return Graph(ml.n, _module_edges(ml))


class GbLayout(NamedTuple):
    gamma: int
    m: int
    modules: tuple[ModuleLayout, ...]
    source: int

    @property
    def n(self) -> int:
        return self.source + 1

    def selected(self, i: int) -> int:
        # First element vertex of side 1 under the fixed labeling.
        return self.modules[i].side1.u_ids[0]

    def all_u1(self) -> tuple[int, ...]:
        out: list[int] = []
        for ml in self.modules:
            out.extend(ml.side1.u_ids)
        return tuple(out)


def gb_layout(m: int, gamma: int) -> GbLayout:
    if m < 1:
        raise ValueError("m must be >= 1")
    size = 2 * unit_size(gamma)
    modules = tuple(module_layout(gamma, i * size) for i in range(m))
    return GbLayout(gamma=gamma, m=m, modules=modules, source=m * size)


def gb_graph(m: int, gamma: int) -> Graph:
    """m modules joined through a common source vertex; unit weights."""
    gb = gb_layout(m, gamma)
    edges: list[tuple[int, int, int]] = []
    for ml in gb.modules:
        edges.extend(_module_edges(ml))
    for i in range(m):
        edges.append((gb.source, gb.selected(i), 1))
    return Graph(gb.n, edges)


def _module_bags(ml: ModuleLayout) -> list[list[int]]:
    """2 * 2^gamma full bags: every element vertex plus one subset vertex.

    Each side contributes one bag per proper subset in (size, mask) order
    plus a duplicate of its empty-set bag, rounding the count up to a full
    power of two per side; duplicates sit next to their originals so
    subtree connectivity is preserved.
    """
    core = list(ml.side1.u_ids) + list(ml.side2.u_ids)
    bags = []
    for side in ml.sides():
        side_bags = [sorted(core + [w]) for w in side.w_ids]
        side_bags.append(side_bags[0])
        bags.extend(side_bags)
    return bags


def _module_parent(gamma: int) -> list[int | None]:
    """Chain the full bags of one module; duplicates hang off the empty-set bags."""
    s = (1 << gamma) - 1
    parent: list[int | None] = [None] * (2 * s + 2)
    for i in range(1, s):
        parent[i] = i - 1
    parent[s] = 0  # side-1 duplicate
    parent[s + 1] = s - 1  # side-2 chain joins the end of side 1
    for i in range(s + 2, 2 * s + 1):
        parent[i] = i - 1
    parent[2 * s + 1] = s + 1  # side-2 duplicate
    return parent


def module_graph_decomposition(gamma: int) -> TreeDecomposition:
    """Width-2*gamma decomposition of the module graph, 2*2^gamma bags."""
    ml = module_layout(gamma)
    return TreeDecomposition(_module_bags(ml), _module_parent(gamma), root=0)


def gb_decomposition(m: int, gamma: int) -> TreeDecomposition:
    """Width-2*gamma decomposition of the source-joined graph.

    Each module keeps its own chain of full bags; a two-vertex bag
    {source, selected vertex} fronts every module, and these source bags
    form their own chain so the source stays connected.
    """
    gb = gb_layout(m, gamma)
    per_module = 2 * ((1 << gamma) - 1) + 2
    module_parent = _module_parent(gamma)
    bags: list[list[int]] = []
    parent: list[int | None] = []
    for i, ml in enumerate(gb.modules):
        base = len(bags)  # index of this module's source bag
        bags.append(sorted((gb.source, gb.selected(i))))
        parent.append(None if i == 0 else base - (per_module + 1))
        for j, bag in enumerate(_module_bags(ml)):
            bags.append(bag)
            p = module_parent[j]
            parent.append(base if p is None else base + 1 + p)
    return TreeDecomposition(bags, parent, root=0)


# ---------------------------------------------------------------------------
# Valid sequences and PERM.


class ValidSequence(NamedTuple):
    """Round-structured request sequence over a module family.

    perms[r][i] = (pi1, pi2): the side-1 and side-2 element orders for
    module i in round r, each a permutation of range(gamma).
    """

    gamma: int
    m: int
    rounds: int
    perms: tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], ...]
    requests: tuple[int, ...]


def _check_perm(p, gamma: int) -> tuple[int, ...]:
    p = tuple(p)
    if sorted(p) != list(range(gamma)):
        raise BadPermutation(f"{p!r} is not a permutation of range({gamma})")
    return p


def _mask_prefix(perm: tuple[int, ...], j: int) -> int:
    mask = 0
    for e in perm[:j]:
        mask |= 1 << e
    return mask


def _round_schema(modules, round_perms, gamma: int):
    """Yield (request, source) for each request of one round, in order.

    The round is side-1 subset chains interleaved across modules, all side-2
    element vertices in ascending order, side-2 chains, then all side-1
    element vertices.  PERM serves a subset request from the element vertex
    its chain removes next, and an element request from the adjacent subset
    vertex of the other side's chain.
    """
    for a, b in ((0, 1), (1, 0)):
        chains = [
            (ml.sides()[a], ml.sides()[b], pair[a])
            for ml, pair in zip(modules, round_perms)
        ]
        for j in range(gamma):
            for here, _, p in chains:
                yield here.w_by_mask[_mask_prefix(p, j)], here.u_ids[p[j]]
        for j in range(gamma):
            for here, there, p in chains:
                yield there.u_ids[j], here.w_by_mask[_mask_prefix(p, j)]


def valid_sequence(gamma: int, m: int, perms) -> ValidSequence:
    """Assemble the round schema from per-round, per-module permutations.

    Each round follows `_round_schema`; its length is 4*gamma*m.
    """
    modules = gb_layout(m, gamma).modules
    norm = tuple(
        tuple(
            (_check_perm(p1, gamma), _check_perm(p2, gamma))
            for (p1, p2) in round_perms
        )
        for round_perms in perms
    )
    if any(len(r) != m for r in norm):
        raise BadPermutation(f"each round needs {m} permutation pairs")
    requests = [
        req
        for round_perms in norm
        for req, _ in _round_schema(modules, round_perms, gamma)
    ]
    return ValidSequence(
        gamma=gamma, m=m, rounds=len(norm), perms=norm, requests=tuple(requests)
    )


def perm_init(gamma: int, m: int = 1) -> tuple[int, ...]:
    """Canonical start: one server on every side-1 element vertex."""
    return gb_layout(m, gamma).all_u1()


def perm_algorithm(g: Graph, seq: ValidSequence, init) -> Schedule:
    """Serve a valid sequence at cost one per request.

    Subset requests are served by the element server the chain removes
    next; element requests by the single adjacent occupied subset vertex.
    Servers never leave their module.
    """
    gamma, m = seq.gamma, seq.m
    modules = gb_layout(m, gamma).modules
    expected_init = perm_init(gamma, m)
    if tuple(sorted(init)) != tuple(sorted(expected_init)):
        raise InvalidSequence(
            f"init must place one server per side-1 element vertex "
            f"{expected_init}, got {tuple(init)}"
        )
    where = {v: i for i, v in enumerate(init)}
    moves: list[Move] = []
    for round_perms in seq.perms:
        for req, src in _round_schema(modules, round_perms, gamma):
            t = len(moves)
            if seq.requests[t] != req:
                raise InvalidSequence(
                    f"request {t} is {seq.requests[t]}, schema says {req}"
                )
            if src not in where:
                raise InvalidSequence(f"no server at {src} for request {t}")
            if not g.has_edge(src, req):
                raise InvalidSequence(f"({src}, {req}) is not an edge; wrong graph?")
            sid = where.pop(src)
            where[req] = sid
            moves.append(Move(t=t, server=sid, src=src, dst=req, cost=1))
    return Schedule(moves=moves, total_cost=len(moves))


# ---------------------------------------------------------------------------
# Counting and the treewidth advice bound.


def count_valid_sequences(gamma: int, n: int) -> int:
    """(gamma!)^(n/(2*gamma)) valid sequences of length n, exactly."""
    if n % (2 * gamma):
        raise ValueError(f"n = {n} is not a multiple of 2*gamma = {2 * gamma}")
    return factorial(gamma) ** (n // (2 * gamma))


def treewidth_advice_bound(alpha: int, n: int) -> tuple[float, float]:
    """(exact_bits, closed_form_bits) for width-alpha instances.

    exact_bits  = (n/(2*gamma)) * log2(gamma!) with gamma = alpha/2, the
                  log of the sequence count, summed as log2(2) + ... +
                  log2(gamma) so no gamma! is built;
    closed_form = (n/2) * (log2(alpha) - 1.22), the published rounding.
    Both are reported; they differ and no side is adjudicated here.
    """
    if alpha < 4 or alpha % 2:
        raise ValueError(f"alpha must be an even integer >= 4, got {alpha}")
    gamma = alpha // 2
    exact = (n / (2 * gamma)) * math.fsum(math.log2(i) for i in range(2, gamma + 1))
    closed = (n / 2) * (math.log2(alpha) - 1.22)
    return exact, closed


def enumerate_round_sequences(gamma: int, m: int = 1):
    """All single-round valid sequences; (gamma!)^(2m) of them."""
    from itertools import permutations, product

    perms = list(permutations(range(gamma)))
    for combo in product(product(perms, perms), repeat=m):
        yield valid_sequence(gamma, m, (tuple(combo),))
