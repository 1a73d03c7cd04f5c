import pytest

from kslab import gpc
from kslab.adversary import (
    PATH_ROUND_INIT,
    module_graph,
    module_graph_decomposition,
    path_round_sequence,
    perm_init,
    valid_sequence,
)
from kslab.advice_tape import AdviceTape, TapeExhausted
from kslab.gpc import (
    NoServerAtAddress,
    address_widths,
    ceil_log2,
    generate_advice,
    gpc_bit_budget,
    run_online,
)
from kslab.instances import (
    SplitMix64,
    path_decomposition,
    path_graph,
    random_distinct_vertices,
    random_partial_ktree,
    random_requests,
)
from kslab.metric_core import all_pairs_shortest_paths
from kslab.offline_solver import (
    InvalidSchedule,
    Move,
    Schedule,
    opt_cost_dp,
    serve_order,
    validate_lazy_schedule,
)
from kslab.tree_decomp import TreeDecomposition, reduce_height


def test_ceil_log2():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


def test_empty_sequence_tape_is_initial_records_only():
    g = path_graph(5)
    dm = all_pairs_shortest_paths(g)
    td = path_decomposition(5)
    cost, sched = opt_cost_dp(g, (1, 3), [], dm)
    tape = generate_advice(g, dm, td, (1, 3), [], sched)
    w_h, w_b = address_widths(td)
    assert tape.bits_written == 2 * (w_h + w_b)
    tape.rewind()
    run = run_online(g, dm, td, (1, 3), [], tape)
    # untouched servers park in place, so the initial moves cost nothing
    assert run.online_cost == 0
    assert run.bits_read == tape.bits_written


def test_p5_single_server():
    g = path_graph(5)
    dm = all_pairs_shortest_paths(g)
    td = path_decomposition(5)
    cost, sched = opt_cost_dp(g, (0,), [4], dm)
    assert cost == 4
    tape = generate_advice(g, dm, td, (0,), [4], sched)
    tape.rewind()
    run = run_online(g, dm, td, (0,), [4], tape)
    assert run.online_cost == 4
    # the relay the tape names lies on the 0-4 path (everything does on P5)
    assert run.log[0].retrieved_from in range(5)


def test_module_round_replay():
    g = module_graph(2)
    dm = all_pairs_shortest_paths(g)
    td = reduce_height(module_graph_decomposition(2), g.n)
    init = perm_init(2)
    seq = list(valid_sequence(2, 1, ((((0, 1), (1, 0)),),)).requests)
    cost, sched = opt_cost_dp(g, init, seq, dm)
    assert cost == 8
    tape = generate_advice(g, dm, td, init, seq, sched)
    tape.rewind()
    run = run_online(g, dm, td, init, seq, tape)
    assert run.online_cost == 8


def test_trajectories_reject_inconsistent_schedule():
    broken = Schedule(moves=[Move(t=0, server=0, src=2, dst=3, cost=1)], total_cost=1)
    with pytest.raises(InvalidSchedule) as err:
        serve_order((0,), [3], broken)
    assert (err.value.t, err.value.field) == (0, "src")


def test_bad_server_id_names_request():
    g = path_graph(5)
    dm = all_pairs_shortest_paths(g)
    bad = Schedule(moves=[Move(t=0, server=5, src=0, dst=4, cost=4)], total_cost=4)
    with pytest.raises(InvalidSchedule) as err:
        generate_advice(g, dm, path_decomposition(5), (0, 2), [4], bad)
    assert (err.value.t, err.value.field) == (0, "server")


def test_corrupt_tape_raises_address_error():
    g = path_graph(5)
    dm = all_pairs_shortest_paths(g)
    td = path_decomposition(5)
    cost, sched = opt_cost_dp(g, (0,), [4], dm)
    tape = generate_advice(g, dm, td, (0,), [4], sched)
    w_h, w_b = address_widths(td)
    bad = AdviceTape()
    # point the initial record at a depth below the representative bag
    bad.write_uint((1 << w_h) - 1, w_h)
    bad.write_uint(0, w_b)
    for _ in range(2):
        bad.write_uint(0, w_h + w_b)
    with pytest.raises(NoServerAtAddress):
        run_online(g, dm, td, (0,), [4], bad)


# A path of 5 in bags {i, i+1} (depths 0..3, 2 index bits, 1 of them used),
# and a path of 4 in bags {0, 1, 2} <- {2, 3} (depths 0..1, indices 0..3).
PATH5 = (path_graph(5), path_decomposition(5))
TWO_BAGS = (path_graph(4), TreeDecomposition([[0, 1, 2], [2, 3]], [None, 0], 0))
# (graph and decomposition, init, sigma, the tape's (depth, index) records,
# the message); each tape goes wrong at its last record
BAD_ADDRESSES = [
    (PATH5, (0,), [4], [(3, 0)], "depth 3 above no ancestor of bag 0"),
    (TWO_BAGS, (3,), [], [(1, 3)], "index 3 outside bag 1"),
    (TWO_BAGS, (0,), [3], [(0, 0), (0, 0), (1, 2)], "index 2 outside bag 1"),
    (TWO_BAGS, (0,), [0], [(0, 0), (1, 0)], "depth 1 above no ancestor of bag 0"),
    (PATH5, (0,), [4], [(0, 0), (3, 1)],
     "request 0: no server parked at decoded vertex 4"),
]


@pytest.mark.parametrize(
    "graph_td,init,sigma,records,message", BAD_ADDRESSES,
    ids=["depth", "index", "parking-index", "request-depth", "no-server"],
)
def test_bad_address_error_names_the_address(graph_td, init, sigma, records, message):
    g, td = graph_td
    w_h, w_b = address_widths(td)
    tape = AdviceTape()
    for depth, idx in records:
        tape.write_uint(depth, w_h)
        tape.write_uint(idx, w_b)
    with pytest.raises(NoServerAtAddress) as err:
        run_online(g, all_pairs_shortest_paths(g), td, init, sigma, tape)
    assert str(err.value) == message


def test_random_suite_cost_equals_opt_and_bits_within_budget():
    rng = SplitMix64(9001)
    collisions = 0
    for i in range(80):
        n_v = 8 + rng.randrange(18)
        g, td = random_partial_ktree(rng, n_v, 1 + rng.randrange(4), max_weight=4)
        dm = all_pairs_shortest_paths(g)
        red = reduce_height(td, g.n)
        k = 1 + rng.randrange(3)
        init = random_distinct_vertices(rng, k, g.n)
        sigma = random_requests(rng, 1 + rng.randrange(30), g.n)
        opt_c, opt_s = opt_cost_dp(g, init, sigma, dm)
        tape = generate_advice(g, dm, red, init, sigma, opt_s)
        written = tape.bits_written
        tape.rewind()
        run = run_online(g, dm, red, init, sigma, tape)
        assert run.online_cost == opt_c, f"instance {i}"
        budget = gpc_bit_budget(red, k, len(sigma))
        assert run.bits_read == written == budget
        w_h, w_b = address_widths(red)
        assert budget == (2 * len(sigma) + k) * (w_h + w_b)
        # every decoded address holds a server; co-parked servers are
        # interchangeable (same vertex), so >1 candidate stays sound
        assert all(m.candidates_at_address >= 1 for m in run.log)
        collisions += sum(1 for m in run.log if m.candidates_at_address > 1)
    # collisions occur but are rare; record the fact that they exist
    assert collisions < 100


def test_per_move_relay_identity():
    # parking on a shortest-path relay never loses distance:
    # d(x, z) + d(z, y) == d(x, y) for every leg, asserted move by move
    rng = SplitMix64(31)
    g, td = random_partial_ktree(rng, 18, 3, max_weight=3)
    dm = all_pairs_shortest_paths(g)
    red = reduce_height(td, g.n)
    init = random_distinct_vertices(rng, 3, g.n)
    sigma = random_requests(rng, 25, g.n)
    opt_c, opt_s = opt_cost_dp(g, init, sigma, dm)
    tape = generate_advice(g, dm, red, init, sigma, opt_s)
    tape.rewind()
    run = run_online(g, dm, red, init, sigma, tape)
    assert run.online_cost == opt_c
    prev_vertex = {i: v for i, v in enumerate(init)}
    serving = {m.t: m.server for m in opt_s.moves}
    for move in run.log:
        # track legs in the offline schedule's frame: decoder ids may swap
        # when two servers share a vertex, but the decoded relay is the
        # one written for the offline server's leg
        sid = serving[move.t]
        x, y, z = prev_vertex[sid], move.request, move.retrieved_from
        assert dm.dist[x][z] + dm.dist[z][y] == dm.dist[x][y]
        prev_vertex[sid] = y
    validate_lazy_schedule(dm, init, sigma, opt_s)
    assert opt_s.total_cost == opt_c == run.online_cost


def _path_rounds_case():
    sigma = path_round_sequence("1011001110", 5)
    return path_graph(5), path_decomposition(5), PATH_ROUND_INIT, sigma


def _ktree_case():
    rng = SplitMix64(77)
    g, td = random_partial_ktree(rng, 30, 3, max_weight=3)
    init = random_distinct_vertices(rng, 3, g.n)
    return g, td, init, random_requests(rng, 60, g.n)


WORK_CASES = pytest.mark.parametrize(
    "case", [_path_rounds_case, _ktree_case], ids=["path-rounds", "ktree"]
)


@WORK_CASES
def test_one_tape_record_per_address(case, monkeypatch):
    # each (depth, index) address is one write of w_h + w_b bits, and a
    # whole tape is read back in one block of all its records
    g, td, init, sigma = case()
    dm = all_pairs_shortest_paths(g)
    red = reduce_height(td, g.n)
    cost, sched = opt_cost_dp(g, init, sigma, dm)
    calls = {"write_uint": [], "read_uint": [], "read_uints": []}
    for name in calls:

        def recording(self, *args, _name=name, _real=getattr(AdviceTape, name)):
            calls[_name].append(args)
            return _real(self, *args)

        monkeypatch.setattr(AdviceTape, name, recording)
    tape = generate_advice(g, dm, red, init, sigma, sched)
    tape.rewind()
    run = run_online(g, dm, red, init, sigma, tape)
    records = 2 * len(sigma) + len(init)
    w_h, w_b = address_widths(red)
    assert len(calls["write_uint"]) == records
    assert calls["read_uints"] == [(records, w_h + w_b)]
    assert calls["read_uint"] == []
    assert run.online_cost == cost
    assert run.bits_read == tape.bits_written == records * (w_h + w_b)


def _rounds_tape_bits():
    """The path-rounds case, its reduced decomposition and its tape's bits
    as a string of binary digits."""
    g, td, init, sigma = _path_rounds_case()
    dm = all_pairs_shortest_paths(g)
    red = reduce_height(td, g.n)
    _, sched = opt_cost_dp(g, init, sigma, dm)
    hexstr, nbits = generate_advice(g, dm, red, init, sigma, sched).to_hex()
    bits = format(int(hexstr, 16), f"0{len(hexstr) * 4}b")[:nbits]
    return g, dm, red, init, sigma, bits


def _tape_of(bits: str) -> AdviceTape:
    tape = AdviceTape()
    for bit in bits:
        tape.write_uint(int(bit), 1)
    return tape


# (record j the tape is cut inside, bits of it left, a record i < j
# corrupted or None); the case has k = 2 initial records and 70 requests,
# so 142 records: 0-1 initial, then a retrieval and a parking per request
CUT_TAPES = [
    (0, 1, None), (1, 2, None), (2, 1, None), (3, 2, None), (141, 1, None),
    (1, 1, 0), (2, 2, 1), (3, 1, 2), (141, 2, 3), (141, 1, 140),
]


@pytest.mark.parametrize("j,left,i", CUT_TAPES)
def test_cut_tape_fails_at_its_first_bad_record(j, left, i):
    # a short tape raises TapeExhausted at its first missing record, unless
    # an earlier record names no vertex: then that record's error wins
    g, dm, red, init, sigma, bits = _rounds_tape_bits()
    w_h, w_b = address_widths(red)
    w = w_h + w_b
    assert len(bits) == (2 * len(sigma) + len(init)) * w
    if i is not None:
        # depth 0, index 3: the root bag (1, 2) holds no index 3
        bits = bits[:i * w] + format(3, f"0{w}b") + bits[(i + 1) * w:]
    tape = _tape_of(bits[:j * w + left])
    if i is None:
        with pytest.raises(TapeExhausted) as err:
            run_online(g, dm, red, init, sigma, tape)
        assert str(err.value) == (
            f"read of {w} bits at cursor {j * w} exceeds {j * w + left} written bits"
        )
    else:
        with pytest.raises(NoServerAtAddress) as err:
            run_online(g, dm, red, init, sigma, tape)
        assert str(err.value) == "index 3 outside bag 0"


@WORK_CASES
def test_relay_search_runs_once_per_distinct_leg(case, monkeypatch):
    g, td, init, sigma = case()
    dm = all_pairs_shortest_paths(g)
    red = reduce_height(td, g.n)
    _, sched = opt_cost_dp(g, init, sigma, dm)
    searched = []
    real = gpc.intersect_shortest_path

    def recording(dm, td, x, y, bag_idx):
        searched.append((x, y))
        return real(dm, td, x, y, bag_idx)

    monkeypatch.setattr(gpc, "intersect_shortest_path", recording)
    generate_advice(g, dm, red, init, sigma, sched)
    servers, first, after = serve_order(init, sigma, sched)
    legs = [(x, sigma[u]) for x, u in zip(init, first) if u is not None]
    legs += [(y, sigma[u]) for y, u in zip(sigma, after) if u is not None]
    distinct = {(x, y) for x, y in legs if x != y}
    assert len(distinct) < len(legs)  # some leg repeats
    assert sorted(searched) == sorted(distinct)
