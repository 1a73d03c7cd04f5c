"""Corrupted advice tapes: flipped or truncated bits fed to both decoders.

Every case ends in a typed error or in a completed run; a completed run is
a real service of the requests, so it costs at least OPT, and it reads no
more bits than the tape holds.  Whether it also passes its cost or budget
check is for that check to say.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab.advice_tape import AdviceTape, TapeError
from kslab.gpc import NoServerAtAddress, generate_advice, run_online
from kslab.instances import (
    SplitMix64,
    grid_graph,
    path_graph,
    random_distinct_vertices,
    random_partial_ktree,
    random_requests,
)
from kslab.metric_core import Graph, all_pairs_shortest_paths
from kslab.offline_solver import opt_cost_dp
from kslab.spanner_cover import (
    HeavyPathIndex,
    NoLabeledServerOnRootPath,
    RelayOffTreePath,
    SpannerSystem,
    generate_advice_spanner,
    measure_min_stretch,
    run_online_spanner,
    shortest_path_tree,
)
from kslab.tree_decomp import reduce_height


def _bits(tape: AdviceTape) -> list[int]:
    tape.rewind()
    return [tape.read_uint(1) for _ in range(tape.bits_written)]


def _corrupt(bits: list[int], flips: list[int], keep: int) -> AdviceTape:
    """The tape of `bits` with the bits at `flips` flipped, then cut to its
    first `keep` bits."""
    bits = list(bits)
    for i in flips:
        bits[i] ^= 1
    tape = AdviceTape()
    for b in bits[:keep]:
        tape.write_uint(b, 1)
    return tape


def _gpc_case():
    rng = SplitMix64(1701)
    g, td = random_partial_ktree(rng, 14, 2, max_weight=4)
    dm = all_pairs_shortest_paths(g)
    red = reduce_height(td, g.n)
    init = random_distinct_vertices(rng, 3, g.n)
    sigma = random_requests(rng, 12, g.n)
    opt, sched = opt_cost_dp(g, init, sigma, dm)
    tape = generate_advice(g, dm, red, init, sigma, sched)
    return (g, dm, red, init, sigma), opt, _bits(tape)


def _spanner_case(g, roots, k, seed):
    rng = SplitMix64(seed)
    dm = all_pairs_shortest_paths(g)
    trees = tuple(shortest_path_tree(g, r) for r in roots)
    q, _ = measure_min_stretch(g, dm, SpannerSystem(trees))
    system = SpannerSystem(trees, q, 0)
    hp = [HeavyPathIndex(t) for t in system.trees]
    init = random_distinct_vertices(rng, k, g.n)
    sigma = random_requests(rng, 12, g.n)
    opt, sched = opt_cost_dp(g, init, sigma, dm)
    tape = generate_advice_spanner(g, dm, system, init, sigma, sched)
    return (g, system, hp, init, sigma), opt, _bits(tape)


GPC = _gpc_case()
# three trees: a 2-bit label can name a fourth, which does not exist
SPANNER_GRID = _spanner_case(grid_graph(4, 4), (0, 6, 15), 3, 1702)
# one tree, so several servers share a binding and a suffix picks one
SPANNER_PATH = _spanner_case(path_graph(9), (0,), 3, 1703)
# a binary tree of 7 vertices: the root path of 6 crosses the heavy paths
# of 0, 2 and 6, so a 2-bit segment field can name a fourth
BINARY_TREE = Graph(7, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (1, 4, 1), (2, 5, 1), (2, 6, 1)])
SPANNER_TREE = _spanner_case(BINARY_TREE, (0,), 2, 1704)


def _draw_corrupt(data, bits) -> AdviceTape:
    """Up to 4 flipped bits, and in about half the cases a cut tape."""
    n = len(bits)
    flips = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    keep = data.draw(st.one_of(st.just(n), st.integers(0, n)))
    return _corrupt(bits, flips, keep)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupt_gpc_tape_fails_typed_or_serves(data):
    args, opt, bits = GPC
    tape = _draw_corrupt(data, bits)
    try:
        run = run_online(*args, tape)
    except (TapeError, NoServerAtAddress):
        return
    assert run.online_cost >= opt
    assert run.bits_read <= tape.bits_written


@pytest.mark.parametrize("spanner", [SPANNER_GRID, SPANNER_PATH], ids=["grid", "path"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupt_spanner_tape_fails_typed_or_serves(spanner, data):
    args, opt, bits = spanner
    tape = _draw_corrupt(data, bits)
    try:
        run = run_online_spanner(*args, tape)
    except (TapeError, NoLabeledServerOnRootPath, RelayOffTreePath):
        return
    assert run.cost >= opt
    assert run.bits_read <= tape.bits_written


@pytest.mark.parametrize(
    "spanner,flip,message",
    [
        (SPANNER_GRID, 71, "request 11: label 3 but 3 trees"),
        (SPANNER_PATH, 0, "request 0: suffix 3 beyond the 3 label-0 servers"),
        (SPANNER_TREE, 3, "request 2: segment 3 beyond root path of 6"),
    ],
    ids=["label", "suffix", "segment"],
)
def test_spanner_field_past_its_range_is_typed(spanner, flip, message):
    # a 2-bit field can name a fourth tree of three, a fourth server of
    # three sharing a binding, or a fourth heavy path of three
    args, _, bits = spanner
    with pytest.raises(NoLabeledServerOnRootPath, match=message):
        run_online_spanner(*args, _corrupt(bits, [flip], len(bits)))
