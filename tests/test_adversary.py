from fractions import Fraction
from itertools import permutations, product
from math import factorial, log2

import pytest

from kslab.adversary import (
    PATH_ROUND_INIT,
    BadPermutation,
    InvalidSequence,
    PathTooShort,
    TauOutOfRange,
    count_valid_sequences,
    enumerate_round_sequences,
    extract_round_guesses,
    gb_graph,
    gb_layout,
    module_graph,
    module_layout,
    path_round_sequence,
    perm_algorithm,
    perm_init,
    sgkh_advice_bound,
    sgkh_bits_per_round,
    sgkh_bound_per_opt_cost,
    sgkh_bound_per_request,
    treewidth_advice_bound,
    unit_graph,
    valid_sequence,
)
from kslab.instances import path_graph
from kslab.metric_core import all_pairs_shortest_paths
from kslab.offline_solver import count_optimal_schedules, opt_cost_dp, opt_cost_flow


# ---------------------------------------------------------------------------
# Path rounds.


def test_round_type_1():
    # classic labels (3,5,3,2,4,2,4), shifted to 0-based ids
    assert path_round_sequence("1", 5) == [2, 4, 2, 1, 3, 1, 3]


def test_round_type_0():
    assert path_round_sequence("0", 5) == [2, 0, 2, 1, 3, 1, 3]


def test_round_needs_path_of_5():
    with pytest.raises(PathTooShort):
        path_round_sequence("1", 4)


def test_two_rounds_cost_eight():
    g = path_graph(5)
    dm = all_pairs_shortest_paths(g)
    cost, _ = opt_cost_dp(g, PATH_ROUND_INIT, path_round_sequence("10", 5), dm)
    assert cost == 8


def _lazy_round_costs(first_serves_left: bool, round_type: str):
    """Exhaustive lazy 2-server costs for one round, split by first move."""
    sigma = path_round_sequence(round_type, 5)
    best = None
    for choices in product((0, 1), repeat=len(sigma)):
        pos = list(PATH_ROUND_INIT)
        left_id = 0 if pos[0] < pos[1] else 1
        if (choices[0] == left_id) != first_serves_left:
            continue
        cost = 0
        for sid, r in zip(choices, sigma):
            cost += abs(pos[sid] - r)
            pos[sid] = r
        best = cost if best is None else min(best, cost)
    return best


def test_round_cost_dichotomy_type1():
    # type 1: serving the first request with the left server is the match
    assert _lazy_round_costs(first_serves_left=True, round_type="1") == 4
    assert _lazy_round_costs(first_serves_left=False, round_type="1") >= 6


def test_round_cost_dichotomy_type0():
    assert _lazy_round_costs(first_serves_left=False, round_type="0") == 4
    assert _lazy_round_costs(first_serves_left=True, round_type="0") >= 6


def test_round_boundary_normalization():
    # the optimal lazy schedule is unique and returns to {2,4} at every
    # round boundary
    g = path_graph(5)
    dm = all_pairs_shortest_paths(g)
    for bits in ["".join(b) for b in product("01", repeat=3)]:
        sigma = path_round_sequence(bits, 5)
        cost, sched = opt_cost_dp(g, PATH_ROUND_INIT, sigma, dm)
        assert count_optimal_schedules(g, PATH_ROUND_INIT, sigma, dm) == (cost, 1), bits
        pos = list(PATH_ROUND_INIT)
        for m in sched.moves:
            pos[m.server] = m.dst
            if m.t % 7 == 6:
                assert sorted(pos) == sorted(PATH_ROUND_INIT), (bits, m.t)


def test_guess_extraction_on_optimal_schedule():
    g = path_graph(5)
    bits = "1101"
    sigma = path_round_sequence(bits, 5)
    cost, sched = opt_cost_dp(g, PATH_ROUND_INIT, sigma, all_pairs_shortest_paths(g))
    assert cost == 4 * len(bits)
    # an optimal schedule guesses every round type correctly
    assert extract_round_guesses(PATH_ROUND_INIT, sched, len(bits)) == bits


# ---------------------------------------------------------------------------
# Guessing bound values.  Non-derived constants frozen from a 40-digit
# mpmath evaluation of the closed form.


def test_bound_theorem_values():
    assert abs(sgkh_advice_bound(Fraction(6, 5), 10**6) - 4149.9150779) < 1e-3
    assert abs(sgkh_advice_bound(Fraction(7, 6), 10**6) - 11672.0237065) < 1e-3
    assert sgkh_advice_bound(Fraction(5, 4), 10**6) == 0.0


def test_bound_published_constants_are_cost_normalized():
    # the worked 0.007262 constant is the bound per unit of optimal cost
    assert abs(sgkh_bound_per_opt_cost(Fraction(6, 5)) - 0.007262) < 1e-6
    # its 7/6 sibling evaluates to 0.0204260, printed elsewhere as .020425
    assert abs(sgkh_bound_per_opt_cost(Fraction(7, 6)) - 0.0204260415) < 1e-9
    assert abs(sgkh_bound_per_request(Fraction(6, 5)) - 0.0041499151) < 1e-9


def test_bound_limit_and_monotonicity():
    n = 7 * 10**6
    assert abs(sgkh_advice_bound(1 + 1e-9, n) / (n / 7) - 1.0) < 1e-6
    taus = [1 + i * 0.01 for i in range(1, 25)]
    values = [sgkh_bits_per_round(t) for t in taus]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 0


def test_bound_domain():
    with pytest.raises(TauOutOfRange):
        sgkh_advice_bound(1, 100)
    with pytest.raises(TauOutOfRange):
        sgkh_advice_bound(Fraction(13, 10), 100)


# ---------------------------------------------------------------------------
# Graph families.


def test_unit_graph_counts():
    g, layout = unit_graph(3)
    assert g.n == 3 + 2**3 - 1 == 10
    # adjacency u ~ w iff the element is outside the subset
    for w in layout.w_ids:
        mask = layout.mask_of[w]
        for e, u in enumerate(layout.u_ids):
            assert g.has_edge(u, w) == (not (mask >> e) & 1)


def test_module_graph_counts():
    assert module_graph(2).n == 10  # 2 * (2 + 3)
    assert module_graph(3).n == 20


def test_module_cross_wiring():
    g = module_graph(2)
    ml = module_layout(2)
    for w in ml.side1.w_ids:
        size = bin(ml.side1.mask_of[w]).count("1")
        assert g.has_edge(w, ml.side2.u_ids[size])


def test_gb_graph_counts():
    g = gb_graph(2, 2)
    assert g.n == 21  # 2 modules x 10 + source
    gb = gb_layout(2, 2)
    for i in range(2):
        assert g.has_edge(gb.source, gb.selected(i))


# ---------------------------------------------------------------------------
# Valid sequences and PERM.


def test_valid_sequence_round_length():
    seq = valid_sequence(2, 1, ((((0, 1), (0, 1)),),))
    assert len(seq.requests) == 8  # 4 * gamma


def test_valid_sequence_rejects_bad_permutation():
    with pytest.raises(BadPermutation):
        valid_sequence(2, 1, ((((0, 0), (0, 1)),),))


def test_round_choice_count_gamma2():
    seqs = {s.requests for s in enumerate_round_sequences(2)}
    assert len(seqs) == 4  # (gamma!)^2


def test_round_choice_count_gamma3():
    seqs = {s.requests for s in enumerate_round_sequences(3)}
    assert len(seqs) == 36


def module_projection_is_valid(seq) -> bool:
    """Check the subset-chain property of every per-module projection."""
    gamma = seq.gamma
    for ml in gb_layout(seq.m, gamma).modules:
        for side in ml.sides():
            chain = [
                side.mask_of[r] for r in seq.requests if r in side.mask_of
            ]
            if len(chain) != gamma * seq.rounds:
                return False
            for r in range(seq.rounds):
                part = chain[r * gamma : (r + 1) * gamma]
                if part[0] != 0:
                    return False
                for a, b in zip(part, part[1:]):
                    if a & ~b or bin(b).count("1") != bin(a).count("1") + 1:
                        return False
    return True


def test_projection_validity():
    for gamma, m in ((2, 1), (2, 2), (3, 1)):
        perms = tuple(
            tuple(
                (tuple(range(gamma)), tuple(reversed(range(gamma))))
                for _ in range(m)
            )
            for _ in range(2)
        )
        seq = valid_sequence(gamma, m, perms)
        assert len(seq.requests) == 2 * 4 * gamma * m
        assert module_projection_is_valid(seq)


def test_projection_validity_without_rounds():
    assert module_projection_is_valid(valid_sequence(2, 1, ()))


def test_projection_rejects_a_request_past_the_rounds():
    seq = valid_sequence(2, 1, ((((0, 1), (1, 0)),),) * 2)
    assert module_projection_is_valid(seq)
    extra = seq._replace(requests=seq.requests + seq.requests[:1])
    assert not module_projection_is_valid(extra)


def test_perm_costs_one_per_request():
    for gamma in (2, 3):
        g = module_graph(gamma)
        init = perm_init(gamma)
        for seq in enumerate_round_sequences(gamma):
            sched = perm_algorithm(g, seq, init)
            assert sched.total_cost == len(seq.requests)
            assert all(m.cost == 1 for m in sched.moves)


def test_perm_uniqueness_single_round():
    g = module_graph(2)
    init = perm_init(2)
    dm = all_pairs_shortest_paths(g)
    for seq in enumerate_round_sequences(2):
        sched = perm_algorithm(g, seq, init)
        cost, opt = opt_cost_dp(g, init, list(seq.requests), dm)
        assert cost == sched.total_cost == 8
        assert count_optimal_schedules(g, init, list(seq.requests), dm) == (8, 1)
        assert opt.move_triples() == sched.move_triples()


def test_perm_never_crosses_source():
    gb = gb_layout(2, 2)
    g = gb_graph(2, 2)
    perms = (
        (((0, 1), (1, 0)), ((1, 0), (0, 1))),
        (((1, 0), (1, 0)), ((0, 1), (0, 1))),
    )
    seq = valid_sequence(2, 2, perms)
    sched = perm_algorithm(g, seq, perm_init(2, 2))
    assert sched.total_cost == len(seq.requests) == 32
    module_of = {}
    for i, ml in enumerate(gb.modules):
        for side in ml.sides():
            for v in side.u_ids + side.w_ids:
                module_of[v] = i
    for m in sched.moves:
        assert module_of[m.src] == module_of[m.dst]


def test_perm_matches_flow_on_gb():
    g = gb_graph(2, 2)
    perms = ((((0, 1), (0, 1)), ((1, 0), (1, 0))),)
    seq = valid_sequence(2, 2, perms)
    sched = perm_algorithm(g, seq, perm_init(2, 2))
    assert sched.total_cost == 16
    dm = all_pairs_shortest_paths(g)
    cost, _ = opt_cost_flow(g, perm_init(2, 2), list(seq.requests), dm)
    assert cost == 16


def test_perm_rejects_wrong_init():
    g = module_graph(2)
    seq = valid_sequence(2, 1, ((((0, 1), (0, 1)),),))
    with pytest.raises(InvalidSequence):
        perm_algorithm(g, seq, (0, 4))


# ---------------------------------------------------------------------------
# Counting and the treewidth bound.


def test_count_gamma2():
    assert count_valid_sequences(2, 8) == 4
    assert log2(count_valid_sequences(2, 8)) == 2.0


def test_count_gamma3():
    assert count_valid_sequences(3, 12) == 36


def test_count_matches_enumeration():
    for gamma in (2, 3):
        n = 4 * gamma
        assert count_valid_sequences(gamma, n) == factorial(gamma) ** 2
        assert len({s.requests for s in enumerate_round_sequences(gamma)}) == (
            count_valid_sequences(gamma, n)
        )


def test_treewidth_bound_values():
    exact, closed = treewidth_advice_bound(8, 1000)
    assert abs(exact - 125 * log2(24)) < 1e-9
    assert abs(exact - 573.1203126) < 1e-4
    assert closed == 500 * (3 - 1.22)
    with pytest.raises(ValueError):
        treewidth_advice_bound(7, 100)
