"""Checks that guard a result raise typed errors, also under `python -O`.

Each case tampers with one input (a schedule, a certified system, an
advice tape or the height-reduction splitter) so that exactly one check
fires, and returns the error it raised.  The cases use no `assert`, so
`test_checks_fire_under_python_O` can run them in a subprocess under -O,
where every `assert` is stripped.
"""
import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

import kslab
from kslab import tree_decomp
from kslab.advice_tape import AdviceTape
from kslab.gpc import generate_advice
from kslab.instances import (
    SplitMix64,
    grid_graph,
    path_decomposition,
    random_distinct_vertices,
    random_partial_ktree,
    random_requests,
)
from kslab.metric_core import Graph, all_pairs_shortest_paths
from kslab.offline_solver import InvalidSchedule, Schedule, opt_cost_dp
from kslab.spanner_cover import (
    HeavyPathIndex,
    RelayOffTreePath,
    SpannerSystem,
    UncertifiedLeg,
    generate_advice_spanner,
    measure_min_stretch,
    run_online_spanner,
    shortest_path_tree,
)
from kslab.tree_decomp import HeightReductionFault, reduce_height


def _grid_system():
    g = grid_graph(4, 4)
    dm = all_pairs_shortest_paths(g)
    trees = (shortest_path_tree(g, 0), shortest_path_tree(g, 15))
    q, _ = measure_min_stretch(g, dm, SpannerSystem(trees))
    return g, dm, SpannerSystem(trees, q, 0)


def _end_last_move_elsewhere(opt: Schedule, n_vertices: int) -> Schedule:
    """The last move is its server's last, so the tampered end vertex still
    chains; only the check that the trajectory meets the request sees it."""
    *moves, last = sorted(opt.moves, key=lambda m: m.t)
    wrong = last._replace(dst=(last.dst + 1) % n_vertices)
    return Schedule(moves=moves + [wrong], total_cost=opt.total_cost)


def _drop_last_move(opt: Schedule) -> Schedule:
    """The schedule without the move that serves the last request."""
    *moves, _ = sorted(opt.moves, key=lambda m: m.t)
    return Schedule(moves=moves, total_cost=opt.total_cost)


def _ktree_gpc_instance():
    rng = SplitMix64(31)
    g, td = random_partial_ktree(rng, 20, 2)
    dm = all_pairs_shortest_paths(g)
    init = random_distinct_vertices(rng, 2, g.n)
    sigma = random_requests(rng, 8, g.n)
    red = reduce_height(td, g.n)
    _, opt = opt_cost_dp(g, init, sigma, dm)
    return g, dm, red, init, sigma, opt


def force_uncertified_leg():
    # both BFS trees stretch the leg 5 -> 10 (d = 2) to 4, so a system that
    # claims (1, 0) covers the first leg 0 -> 5 and then no tree is left
    g, dm, system = _grid_system()
    system.q, system.r = 1, 0
    _, opt = opt_cost_dp(g, (0,), [5, 10], dm)
    with pytest.raises(UncertifiedLeg) as info:
        generate_advice_spanner(g, dm, system, (0,), [5, 10], opt)
    return info.value


def force_relay_off_tree_path():
    # heavy paths 0-1-2-5 and 3-4; the tape parks the server at 3 on the
    # root heavy path, whose exit 1 toward request 4 is not on the path 3-4
    g = Graph(6, [(0, 1, 1), (1, 2, 1), (1, 3, 1), (3, 4, 1), (2, 5, 1)])
    system = SpannerSystem(trees=(shortest_path_tree(g, 0),))
    tape = AdviceTape()
    tape.write_uint(0, 1)  # initial record: segment 0 of 3's root path
    tape.write_uint(0, 1)  # request 4: segment 0 of 4's root path
    tape.write_uint(0, 1)  # parking record
    tape.rewind()
    hp = [HeavyPathIndex(t) for t in system.trees]
    with pytest.raises(RelayOffTreePath) as info:
        run_online_spanner(g, system, hp, (3,), [4], tape)
    return info.value


def force_spanner_trajectory_mismatch():
    g, dm, system = _grid_system()
    init, sigma = (0, 5), [15, 10, 3, 12]
    _, opt = opt_cost_dp(g, init, sigma, dm)
    bad = _end_last_move_elsewhere(opt, g.n)
    with pytest.raises(InvalidSchedule) as info:
        generate_advice_spanner(g, dm, system, init, sigma, bad)
    return info.value


def force_gpc_trajectory_mismatch():
    g, dm, red, init, sigma, opt = _ktree_gpc_instance()
    bad = _end_last_move_elsewhere(opt, g.n)
    with pytest.raises(InvalidSchedule) as info:
        generate_advice(g, dm, red, init, sigma, bad)
    return info.value


def force_spanner_missing_move():
    g, dm, system = _grid_system()
    init, sigma = (0, 5), [15, 10, 3]
    _, opt = opt_cost_dp(g, init, sigma, dm)
    with pytest.raises(InvalidSchedule) as info:
        generate_advice_spanner(g, dm, system, init, sigma, _drop_last_move(opt))
    return info.value


def force_gpc_missing_move():
    g, dm, red, init, sigma, opt = _ktree_gpc_instance()
    with pytest.raises(InvalidSchedule) as info:
        generate_advice(g, dm, red, init, sigma, _drop_last_move(opt))
    return info.value


def force_splitter_not_halving():
    # a splitter that only sees the first anchor cannot halve a chain
    td = path_decomposition(20)
    first_anchor_only = mock.patch.object(
        tree_decomp, "_path_splitter", lambda walk, a2: walk[0][0]
    )
    with first_anchor_only, pytest.raises(
        HeightReductionFault, match="on one side of anchors"
    ) as info:
        reduce_height(td, 20)
    return info.value


def force_third_anchor():
    # splitting off the anchor-to-anchor path, away from it, leaves both
    # anchors and the new door in one component
    real_splitter = tree_decomp._path_splitter

    def off_path(walk, a2):
        order, parent, _ = walk
        path, x = {a2}, a2
        while x != order[0]:
            x = parent[x]
            path.add(x)
        # the path is a2's ancestor chain, so a bag off it can touch it only
        # through its parent
        far = [c for c in sorted(order) if c not in path and parent[c] not in path]
        return far[0] if far else real_splitter(walk, a2)

    g, td = random_partial_ktree(SplitMix64(2), 40, 2)
    with mock.patch.object(tree_decomp, "_path_splitter", off_path), pytest.raises(
        HeightReductionFault, match="component with anchors"
    ) as info:
        reduce_height(td, g.n)
    return info.value


CASES = {
    "uncertified_leg": force_uncertified_leg,
    "relay_off_tree_path": force_relay_off_tree_path,
    "spanner_trajectory_mismatch": force_spanner_trajectory_mismatch,
    "gpc_trajectory_mismatch": force_gpc_trajectory_mismatch,
    "spanner_missing_move": force_spanner_missing_move,
    "gpc_missing_move": force_gpc_missing_move,
    "splitter_not_halving": force_splitter_not_halving,
    "third_anchor": force_third_anchor,
}


def test_uncertified_leg_names_request_and_pair():
    exc = force_uncertified_leg()
    assert (exc.t, exc.pair) == (0, (5, 10))
    assert str(exc) == "t=0: no tree keeps leg 5->10 within q*d+r"


def test_relay_off_tree_path_names_request_and_pair():
    exc = force_relay_off_tree_path()
    assert (exc.t, exc.pair, exc.relay) == (0, (3, 4), 1)
    assert str(exc) == "t=0: relay 1 is off tree 0's path 3->4"


@pytest.mark.parametrize(
    "case", [force_spanner_trajectory_mismatch, force_gpc_trajectory_mismatch],
    ids=["spanner", "gpc"],
)
def test_trajectory_mismatch_names_request(case):
    exc = case()
    assert exc.field == "dst"
    assert str(exc).startswith(f"t={exc.t} dst: server ")


def test_spanner_trajectory_mismatch_is_the_last_request():
    assert force_spanner_trajectory_mismatch().t == 3


@pytest.mark.parametrize(
    "case,t", [(force_spanner_missing_move, 2), (force_gpc_missing_move, 7)],
    ids=["spanner", "gpc"],
)
def test_missing_move_names_request(case, t):
    exc = case()
    assert (exc.t, exc.field) == (t, "t")
    assert str(exc) == f"t={t} t: no move serves this request"


def test_splitter_not_halving_names_anchors():
    assert str(force_splitter_not_halving()) == (
        "splitting at bag 5 leaves 3 of 4 bags on one side of anchors (5, 8); "
        "at most 2 allowed"
    )


def test_third_anchor_names_the_split():
    assert str(force_third_anchor()) == (
        "splitting at bag 25 leaves a component with anchors (2, 4, 11); "
        "at most 2 allowed"
    )


def test_checks_fire_under_python_O():
    script = (
        "import sys\n"
        "import test_typed_checks as m\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not running under -O')\n"
        "for name, case in m.CASES.items():\n"
        "    print(name, type(case()).__name__)\n"
    )
    src = Path(kslab.__file__).resolve().parent.parent
    path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "uncertified_leg UncertifiedLeg",
        "relay_off_tree_path RelayOffTreePath",
        "spanner_trajectory_mismatch InvalidSchedule",
        "gpc_trajectory_mismatch InvalidSchedule",
        "spanner_missing_move InvalidSchedule",
        "gpc_missing_move InvalidSchedule",
        "splitter_not_halving HeightReductionFault",
        "third_anchor HeightReductionFault",
    ]


def test_src_has_no_assert():
    # python -O strips every assert, so no check in kslab may be one; this
    # test itself uses pytest.fail for the same reason.
    root = Path(kslab.__file__).resolve().parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    if found:
        pytest.fail(f"assert statements in kslab: {', '.join(found)}")


# Parameters that stay although the function never reads them, each with why.
UNUSED_PARAMETERS = {
    # bench/stages.py calls these with the graph or vertex count
    ("gpc.py", "generate_advice", "g"): "bench/stages.py passes it",
    ("gpc.py", "run_online", "g"): "bench/stages.py passes it",
    ("tree_decomp.py", "reduce_height", "n_vertices"): "bench/stages.py passes it",
    # every cli.ALGOS step shares one signature
    ("cli.py", "_step_opt", "inst"): "shared ALGOS step signature",
    ("cli.py", "_step_opt", "dm"): "shared ALGOS step signature",
}


def test_src_has_no_unused_parameters():
    # a parameter no caller's value reaches is noise in every signature; the
    # allowlist above must also shrink when one of its parameters is read again
    root = Path(kslab.__file__).resolve().parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            read = {
                n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)
            }
            found |= {
                (str(path.relative_to(root)), node.name, p)
                for p in params
                if p not in read and p not in ("self", "cls")
            }
    assert found == set(UNUSED_PARAMETERS), (
        f"unused but not allowlisted: {sorted(found - set(UNUSED_PARAMETERS))}; "
        f"allowlisted but read: {sorted(set(UNUSED_PARAMETERS) - found)}"
    )


# Top-level functions and classes of kslab that stay although no caller
# outside the tests names them, each with why; none today.
NAMES_WITHOUT_CALLERS: dict = {}


def _names(tree) -> Counter:
    """How often a syntax tree names each identifier, as a variable, an
    attribute or an import."""
    found = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rpartition(".")[2]] += 1
    return found


def test_src_names_have_callers():
    # kslab's callers are the package itself, the demos and the benchmark; a
    # function or class only tests reach belongs in the tests as an oracle
    src = Path(kslab.__file__).resolve().parent
    repo = Path(__file__).resolve().parent.parent
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for root in (src, repo / "demos", repo / "bench")
        for path in sorted(root.rglob("*.py"))
        if not path.name.startswith("test_")
    }
    named = sum((_names(tree) for tree in trees.values()), Counter())
    found = {
        (str(path.relative_to(src)), node.name)
        for path, tree in trees.items()
        if path.is_relative_to(src)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        # only its own definition names it
        and named[node.name] == _names(node)[node.name]
    }
    assert found == set(NAMES_WITHOUT_CALLERS), (
        f"named by no caller but not allowlisted: "
        f"{sorted(found - set(NAMES_WITHOUT_CALLERS))}; "
        f"allowlisted but named: {sorted(set(NAMES_WITHOUT_CALLERS) - found)}"
    )


# Methods and properties of kslab classes that stay although no caller
# outside the tests names them, each with why.
METHODS_WITHOUT_CALLERS = {
    ("advice_tape.py", "AdviceTape.from_hex"):
        "the inverse of to_hex; a `kslab replay` that reads a report's tape "
        "back is the caller it waits for",
}


def test_src_methods_have_callers():
    # as test_src_names_have_callers, for the methods and properties of
    # each class; dunder methods are called by the language itself
    src = Path(kslab.__file__).resolve().parent
    repo = Path(__file__).resolve().parent.parent
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for root in (src, repo / "demos", repo / "bench")
        for path in sorted(root.rglob("*.py"))
        if not path.name.startswith("test_")
    }
    named = sum((_names(tree) for tree in trees.values()), Counter())
    found = {
        (str(path.relative_to(src)), f"{cls.name}.{node.name}")
        for path, tree in trees.items()
        if path.is_relative_to(src)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        # only its own definition names it
        and named[node.name] == _names(node)[node.name]
    }
    assert found == set(METHODS_WITHOUT_CALLERS), (
        f"named by no caller but not allowlisted: "
        f"{sorted(found - set(METHODS_WITHOUT_CALLERS))}; "
        f"allowlisted but named: {sorted(set(METHODS_WITHOUT_CALLERS) - found)}"
    )
