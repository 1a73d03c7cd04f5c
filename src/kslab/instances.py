"""Seeded instance generators for experiments and test suites.

All randomness flows through SplitMix64 so a seed fully determines every
generated instance, independent of Python's hash randomization or stdlib
RNG changes.  Generator draws are documented per function; `u64 % n` maps
draws to ranges (the modulo bias is irrelevant at these sizes and keeps
the recipe trivial to reproduce in any language).
"""
from __future__ import annotations

from .metric_core import Graph
from .tree_decomp import TreeDecomposition


class SplitMix64:
    """64-bit splitmix generator: state += 0x9E3779B97F4A7C15 per draw."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.randrange(hi - lo + 1)

    def shuffle(self, lst: list) -> None:
        for i in range(len(lst) - 1, 0, -1):
            j = self.randrange(i + 1)
            lst[i], lst[j] = lst[j], lst[i]

    def bit_string(self, m: int) -> str:
        return "".join("01"[self.randrange(2)] for _ in range(m))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1, 1) for i in range(n - 1)])


def path_decomposition(n: int) -> TreeDecomposition:
    """The natural width-1 chain of {i, i+1} bags (height n-2)."""
    if n == 1:
        return TreeDecomposition([(0,)], [None], 0)
    bags = [(i, i + 1) for i in range(n - 1)]
    parent = [None] + [i - 1 for i in range(1, n - 1)]
    return TreeDecomposition(bags, parent, 0)


def grid_graph(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, 1))
            if r + 1 < rows:
                edges.append((v, v + cols, 1))
    return Graph(rows * cols, edges)


def random_partial_ktree(
    rng: SplitMix64,
    n: int,
    k: int,
    max_weight: int = 1,
    drop_prob_percent: int = 30,
) -> tuple[Graph, TreeDecomposition]:
    """Random connected subgraph of a random k-tree, with its width-k bags.

    Construction: seed clique on k+1 vertices; each later vertex joins a
    random bag minus one random member.  Edges are then visited in a
    shuffled order and dropped with the given percent probability when the
    graph stays connected.  The construction bags remain a valid
    decomposition of any subgraph, so (Graph, TreeDecomposition) always
    verifies with width <= k.

    That drop rule is reverse-delete, and it is computed as Kruskal's
    union-find in the opposite order: join every edge whose coin says keep,
    then walk the drawn edges backwards and keep those that join two
    components.  Both give the one greedy forest for that order.
    """
    if n < k + 1:
        raise ValueError(f"need n >= k+1, got n={n}, k={k}")
    bags: list[tuple[int, ...]] = [tuple(range(k + 1))]
    parent: list[int | None] = [None]
    edges: set[tuple[int, int]] = set()
    for u in range(k + 1):
        for v in range(u + 1, k + 1):
            edges.add((u, v))
    for v in range(k + 1, n):
        b = rng.randrange(len(bags))
        bag = list(bags[b])
        del bag[rng.randrange(len(bag))]
        for u in bag:
            edges.add((min(u, v), max(u, v)))
        bags.append(tuple(sorted(bag + [v])))
        parent.append(b)

    comp = list(range(n))

    def find(x: int) -> int:
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    order = sorted(edges)
    rng.shuffle(order)
    drawn = []
    for u, v in order:
        if rng.randrange(100) < drop_prob_percent:
            drawn.append((u, v))
        else:
            comp[find(u)] = find(v)
    for u, v in reversed(drawn):
        ru, rv = find(u), find(v)
        if ru == rv:
            edges.discard((u, v))
        else:
            comp[ru] = rv

    weighted = [
        (u, v, 1 if max_weight <= 1 else rng.randint(1, max_weight))
        for u, v in sorted(edges)
    ]
    g = Graph(n, weighted)
    td = TreeDecomposition(bags, parent, 0)
    return g, td


def random_requests(rng: SplitMix64, count: int, n_vertices: int) -> list[int]:
    return [rng.randrange(n_vertices) for _ in range(count)]


def random_distinct_vertices(
    rng: SplitMix64, k: int, n_vertices: int
) -> tuple[int, ...]:
    pool = list(range(n_vertices))
    rng.shuffle(pool)
    return tuple(pool[:k])
