"""Traced replay of one `kslab run` spec, stage by stage, from outside.

The replay calls each layer's public functions in the order `cli.cmd_run`
calls them and times every call, so the per-layer numbers need no tracing
inside `src/`.  Each layer call appears exactly once in this file: when a
signature changes, one line changes.  The caller compares the replay's
results with the CLI report of the same spec, so a replay that drifts from
the CLI pipeline shows up as a failed spec, not as wrong timings.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from kslab import adversary
from kslab.gpc import generate_advice, gpc_bit_budget, run_online
from kslab.instances import (
    SplitMix64,
    grid_graph,
    path_decomposition,
    path_graph,
    random_distinct_vertices,
    random_partial_ktree,
    random_requests,
)
from kslab.metric_core import all_pairs_shortest_paths
from kslab.offline_solver import InstanceTooLarge, opt_cost_dp, opt_cost_flow
from kslab.spanner_cover import (
    HeavyPathIndex,
    SpannerSystem,
    certify_system,
    generate_advice_spanner,
    measure_min_stretch,
    run_online_spanner,
    shortest_path_tree,
    spanner_bit_budget,
)
from kslab.tree_decomp import reduce_height, verify_decomposition

# Which role each algorithm-specific span plays.  The benchmark reports
# roles, so every per-layer time is measured on every workload.
ROLES = {
    "tree_decomp.verify": "online_alg.structure",
    "tree_decomp.reduce_height": "online_alg.structure",
    "spanner_cover.trees": "online_alg.structure",
    "spanner_cover.stretch": "online_alg.structure",
    "spanner_cover.certify": "online_alg.structure",
    "spanner_cover.heavy_paths": "online_alg.structure",
    "gpc.advice": "online_alg.advice",
    "spanner_cover.advice": "online_alg.advice",
    "gpc.online": "online_alg.online",
    "spanner_cover.online": "online_alg.online",
}

# Work counters; a counter the workload's algorithm does not touch stays 0.
COUNTERS = (
    "metric_core.apsp_rows",
    "offline_solver.flow_route",
    "offline_solver.flow_arcs",
    "tree_decomp.width_in",
    "tree_decomp.width_out",
    "tree_decomp.height_in",
    "tree_decomp.height_out",
    "spanner_cover.stretch_pair_evals",
    "online_alg.ambiguous_retrievals",
    "spanner_cover.suffix_bits",
    "advice_tape.bits_written",
    "advice_tape.bits_read",
)


class ReplayError(RuntimeError):
    """The replay's own checks failed."""


@dataclass
class Trace:
    spans: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    results: dict = field(default_factory=dict)
    wall_s: float = 0.0

    @contextmanager
    def span(self, name: str):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.spans[name] = perf_counter() - t0


def build_instance(w: dict, seed: int):
    """Same generator calls, in the same order, as the CLI for `w`'s family."""
    rng = SplitMix64(seed)
    td = None
    if w["family"] == "path-rounds":
        bits = rng.bit_string(max(1, w["n"] // 7))
        g = path_graph(w["size"])
        sigma = adversary.path_round_sequence(bits, w["size"])
        init = adversary.PATH_ROUND_INIT
        td = path_decomposition(w["size"])
    elif w["family"] == "random-ktree":
        g, td = random_partial_ktree(rng, w["size"], min(4, max(1, w["k"])))
        init = random_distinct_vertices(rng, w["k"], g.n)
        sigma = random_requests(rng, w["n"], g.n)
    elif w["family"] == "grid":
        g = grid_graph(w["size"], w["size"])
        init = random_distinct_vertices(rng, w["k"], g.n)
        sigma = random_requests(rng, w["n"], g.n)
    else:
        raise ValueError(f"no replay for family {w['family']!r}")
    return g, tuple(init), list(sigma), td


def _num(x) -> str:
    """An exact cost as the report spells it: "7" or "15/2"."""
    return str(Fraction(x))


def _gpc(tr: Trace, g, dm, init, sigma, td, sched, opt) -> None:
    with tr.span("tree_decomp.verify"):
        check = verify_decomposition(g, td)
    if not check:
        raise ReplayError(f"decomposition invalid: {check.message}")
    with tr.span("tree_decomp.reduce_height"):
        red = reduce_height(td, g.n)
    with tr.span("gpc.advice"):
        tape = generate_advice(g, dm, red, init, sigma, sched)
    tape.rewind()
    with tr.span("gpc.online"):
        run = run_online(g, dm, red, init, sigma, tape)
    with tr.span("advice_tape.to_hex"):
        tape.to_hex()
    budget = gpc_bit_budget(red, len(init), len(sigma))
    if not (run.online_cost == opt and run.bits_read <= budget):
        raise ReplayError("gpc run failed its cost or budget check")
    tr.counters.update({
        "tree_decomp.width_in": td.width,
        "tree_decomp.height_in": td.height,
        "tree_decomp.width_out": red.width,
        "tree_decomp.height_out": red.height,
        "advice_tape.bits_written": tape.bits_written,
        "advice_tape.bits_read": run.bits_read,
        "online_alg.ambiguous_retrievals": sum(
            m.candidates_at_address > 1 for m in run.log
        ),
    })
    tr.results.update(online_cost=_num(run.online_cost), bits_read=run.bits_read)


def _spanner(tr: Trace, g, dm, init, sigma, sched, opt, seed: int) -> None:
    # the CLI's spanner roots: two distinct vertices from the seed ^ 0xB0F5 stream
    roots = random_distinct_vertices(SplitMix64(seed ^ 0xB0F5), 2, g.n)
    with tr.span("spanner_cover.trees"):
        trees = tuple(shortest_path_tree(g, r) for r in roots)
    with tr.span("spanner_cover.stretch"):
        q, _ = measure_min_stretch(g, dm, SpannerSystem(trees=trees))
    with tr.span("spanner_cover.certify"):
        system = certify_system(g, dm, trees, q, 0)
    with tr.span("spanner_cover.heavy_paths"):
        hp = [HeavyPathIndex(t) for t in system.trees]
    with tr.span("spanner_cover.advice"):
        tape = generate_advice_spanner(g, dm, system, init, sigma, sched)
    tape.rewind()
    with tr.span("spanner_cover.online"):
        run = run_online_spanner(g, system, hp, init, sigma, tape)
    with tr.span("advice_tape.to_hex"):
        tape.to_hex()
    budget = spanner_bit_budget(system.mu, g.n, len(init), len(sigma))
    if not (run.cost <= (system.q + system.r) * opt and run.bits_read <= budget):
        raise ReplayError("spanner run failed its cost or budget check")
    tr.counters.update({
        "advice_tape.bits_written": tape.bits_written,
        "advice_tape.bits_read": run.bits_read,
        "online_alg.ambiguous_retrievals": run.ambiguous_retrievals,
        "spanner_cover.suffix_bits": run.suffix_bits,
        # measure_min_stretch and certify_system each visit every vertex pair
        "spanner_cover.stretch_pair_evals": g.n * (g.n - 1),
    })
    tr.results.update(online_cost=_num(run.cost), bits_read=run.bits_read)


def replay(w: dict, seed: int) -> Trace:
    """Run workload `w`'s pipeline for one spec seed, timing every stage."""
    tr = Trace()
    t0 = perf_counter()
    with tr.span("instances.build"):
        g, init, sigma, td = build_instance(w, seed)
    with tr.span("metric_core.apsp"):
        dm = all_pairs_shortest_paths(g)
    with tr.span("offline_solver.opt"):
        try:
            opt, sched = opt_cost_dp(g, init, sigma, dm)
            flow = False
        except InstanceTooLarge:
            opt, sched = opt_cost_flow(g, init, sigma, dm)
            flow = True
    k, n = len(init), len(sigma)
    tr.counters.update({
        "metric_core.apsp_rows": g.n,  # the dense matrix computes every row
        "offline_solver.flow_route": int(flow),
        # arcs opt_cost_flow builds: source/sink per server, one sink arc
        # per request, server-to-request and request-to-later-request arcs
        "offline_solver.flow_arcs": (2 * k + n + k * n + n * (n - 1) // 2) * flow,
    })
    tr.results["opt_cost"] = _num(opt)
    if w["algo"] == "gpc":
        _gpc(tr, g, dm, init, sigma, td, sched, opt)
    elif w["algo"] == "spanner":
        _spanner(tr, g, dm, init, sigma, sched, opt, seed)
    else:
        raise ValueError(f"no replay for algo {w['algo']!r}")
    tr.wall_s = perf_counter() - t0
    return tr
