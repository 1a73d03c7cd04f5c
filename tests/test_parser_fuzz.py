"""Arbitrary JSON fed to every input file a `kslab run` reads.

Each file is either an arbitrary JSON value or a valid file with one of
its parts replaced by arbitrary JSON or removed.  Every case must end in a
finished run (exit 0) or in one `kslab: error:` line with exit status 2,
never a traceback; and a file that a run accepts holds only the JSON types
its format names (an int is never a bool or a float).  Typed draws keep
the format's JSON types and break its meaning instead: vertices just out
of range, nulls, "p/q" numbers, parent links that close a cycle and bags
missing a vertex, so that they reach the checks behind the type checks.
"""
import contextlib
import io
import json
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kslab.cli import main
from kslab.instances import grid_graph
from kslab.metric_core import graph_to_json
from kslab.spanner_cover import shortest_path_tree

GRID = grid_graph(3, 3)
VALID = {
    "--graph": json.loads(graph_to_json(GRID)),
    # rows {0,1} and {1,2} of the grid
    "--td": {"bags": [list(range(6)), list(range(3, 9))], "parent": [None, 0], "root": 0},
    "--spanners": {
        "mu": 2,
        "q": 3,
        "r": 0,
        "trees": [
            {"root": r, "parent": list(shortest_path_tree(GRID, r).parent)}
            for r in (0, 8)
        ],
    },
    "--instance": {"init_config": [0, 8], "sequence": [4, 2, 6, 4]},
}
# the tree from vertex 0 alone, at its stretch
ONE_TREE = {"mu": 1, "q": 5, "r": 0, "trees": VALID["--spanners"]["trees"][:1]}
# The JSON types of each format: "int"; "num", an int or a "p/q" string;
# a trailing "?" admits null; [s] is a list of s, a tuple a list of that
# length; a dict an object with at least those keys, a key ending in "?"
# being optional.
SHAPES = {
    "--graph": {"n": "int", "edges": [("int", "int", "num")]},
    "--td": {"bags": [["int"]], "parent": ["int?"], "root": "int"},
    "--spanners": {
        "trees": [{"root": "int", "parent": ["int?"]}],
        "mu?": "int?",
        "q?": "num?",
        "r?": "num?",
    },
    "--instance": {"init_config": ["int"], "sequence": ["int"]},
}
# each fuzzed file is read by a run that also needs the others valid
RUNS = {
    "--graph": ["--algo", "opt"],
    "--td": ["--algo", "gpc", "--td"],
    "--spanners": ["--algo", "spanner", "--spanners"],
    "--instance": ["--algo", "gpc", "--td", "--instance"],
}

# any code point, lone surrogates too: json.dumps writes them as escapes
TEXT = st.text(st.characters(codec=None), max_size=4)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(TEXT, kids, max_size=3),
    max_leaves=5,
)


DROP = object()  # a mutation that removes the part instead


def parts(doc, at=()):
    """The paths to every part of doc below the top, as key/index tuples."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield at + (key,)
        if isinstance(value, (dict, list)):
            yield from parts(value, at + (key,))


def mutate(doc, path, value):
    """A copy of doc with the part at path set to value (DROP: removed)."""
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    key, rest = path[0], path[1:]
    if rest:
        out[key] = mutate(out[key], rest, value)
    elif value is DROP:
        del out[key]
    else:
        out[key] = value
    return out


def near(valid):
    """Arbitrary JSON, or valid with one of its parts replaced by arbitrary
    JSON or removed."""
    edit = st.tuples(st.sampled_from(list(parts(valid))), JSON | st.just(DROP))
    return JSON | edit.map(lambda e: mutate(valid, *e))


def typed(value, shape) -> bool:
    """Whether value has the JSON types SHAPES writes as shape."""
    if isinstance(shape, str):
        if value is None:
            return shape.endswith("?")
        if isinstance(value, bool):
            return False
        return isinstance(value, int) or (
            shape.startswith("num") and isinstance(value, str)
        )
    if isinstance(shape, tuple):
        return (
            isinstance(value, list)
            and len(value) == len(shape)
            and all(map(typed, value, shape))
        )
    if isinstance(shape, list):
        return isinstance(value, list) and all(typed(v, shape[0]) for v in value)
    return isinstance(value, dict) and all(
        typed(value[key.rstrip("?")], s) if key.rstrip("?") in value
        else key.endswith("?")
        for key, s in shape.items()
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The valid input files, by flag, and the report path."""
    d = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for flag, doc in VALID.items():
        paths[flag] = d / f"{flag[2:]}.json"
        paths[flag].write_text(json.dumps(doc))
    return paths, d / "report.json"


def run_argv(files, flag, text) -> list[str]:
    """The `kslab run` that reads text as its `flag` file and the valid
    files for the rest; a run without --instance draws 2 servers and 4
    requests."""
    paths, report = files
    fuzzed = paths[flag].with_name("fuzzed.json")
    fuzzed.write_text(text)
    draw = [] if "--instance" in RUNS[flag] else ["--k", "2", "--n", "4"]
    argv = ["run", *draw, "--out", str(report)] + RUNS[flag][:2]
    for f in ["--graph"] + RUNS[flag][2:]:
        argv += [f, str(fuzzed if f == flag else paths[f])]
    return argv


@pytest.mark.parametrize("flag", sorted(VALID))
def test_valid_files_run(files, flag):
    # every fuzzed case starts from a run that reads its file and exits 0
    assert main(run_argv(files, flag, json.dumps(VALID[flag]))) == 0


def outcome(files, flag, doc) -> int:
    """Run a case and check the contract; its exit status."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(run_argv(files, flag, json.dumps(doc)))
    if code == 2:
        assert err.getvalue().startswith("kslab: error: ")
        assert err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert code == 0, err.getvalue()
        assert typed(doc, SHAPES[flag]), doc
    return code


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=st.one_of(
    [st.tuples(st.just(flag), near(doc)) for flag, doc in sorted(VALID.items())]
))
@example(case=("--graph", {"n": 3, "edges": 5}))
@example(case=("--spanners", {**ONE_TREE, "mu": True}))
@example(case=("--spanners", {**ONE_TREE, "mu": 1.0}))
def test_every_input_file_fails_on_one_line_or_runs(files, case):
    outcome(files, *case)


def shape_at(shape, path):
    """The SHAPES entry of the part at path."""
    for key in path:
        if isinstance(shape, dict):
            shape = shape[key] if key in shape else shape[key + "?"]
        else:
            shape = shape[key] if isinstance(shape, tuple) else shape[0]
    return shape


def of_shape(shape):
    """Values of shape's JSON types: ints just around the vertex range,
    null where the shape allows it, and "p/q" strings for numbers."""
    if isinstance(shape, str):
        values = st.integers(-1, GRID.n + 1)
        if shape.startswith("num"):
            fractions = st.tuples(st.integers(-1, 3 * GRID.n), st.integers(0, 4))
            values |= fractions.map(lambda pq: "%d/%d" % pq)
        return values | st.none() if shape.endswith("?") else values
    if isinstance(shape, tuple):
        return st.tuples(*map(of_shape, shape)).map(list)
    if isinstance(shape, list):
        return st.lists(of_shape(shape[0]), max_size=4)
    return st.fixed_dictionaries(
        {key.rstrip("?"): of_shape(s) for key, s in shape.items()}
    )


def below(parent, u, v) -> bool:
    """Whether u hangs from v (or is v) by parent links."""
    while u is not None and u != v:
        u = parent[u]
    return u == v


def cycles(doc, at, root):
    """doc with one parent link of the array at `at` moved into its own
    subtree."""
    parent = reduce(lambda part, key: part[key], at, doc)
    edits = [
        (v, u)
        for v in range(len(parent)) if v != root
        for u in range(len(parent)) if below(parent, u, v)
    ]
    return st.sampled_from(edits).map(lambda e: mutate(doc, at + (e[0],), e[1]))


def typed_near(flag):
    """VALID[flag] with one part replaced by a value of its SHAPES type, or
    with a parent cycle or a bag missing a vertex."""
    doc = VALID[flag]
    edits = [
        st.sampled_from(list(parts(doc))).flatmap(
            lambda path: of_shape(shape_at(SHAPES[flag], path)).map(
                lambda value: mutate(doc, path, value)
            )
        )
    ]
    if flag == "--td":
        edits.append(cycles(doc, ("parent",), doc["root"]))
        drops = [(i, j) for i, bag in enumerate(doc["bags"]) for j in range(len(bag))]
        edits.append(st.sampled_from(drops).map(
            lambda e: mutate(doc, ("bags", e[0], e[1]), DROP)
        ))
    if flag == "--spanners":
        for i, tree in enumerate(doc["trees"]):
            edits.append(cycles(doc, ("trees", i, "parent"), tree["root"]))
    return st.one_of(edits)


# Typed draws that a check behind the type checks rejects, out of 150
TYPED_REJECTIONS_FLOOR = 75


def test_typed_draws_reach_the_checks_behind_the_types(files):
    rejected = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=st.one_of(
        [st.tuples(st.just(flag), typed_near(flag)) for flag in sorted(VALID)]
    ))
    def fuzz(case):
        flag, doc = case
        if outcome(files, flag, doc) == 2 and typed(doc, SHAPES[flag]):
            rejected.append(case)

    fuzz()
    assert len(rejected) >= TYPED_REJECTIONS_FLOOR


@pytest.mark.parametrize(
    "text",
    ["1" * 5000, "[" * 100_000 + "]" * 100_000],
    ids=["int-past-digit-limit", "nested-past-the-stack"],
)
@pytest.mark.parametrize("flag", sorted(VALID))
def test_json_python_cannot_hold_is_one_line(files, capsys, flag, text):
    assert main(run_argv(files, flag, text)) == 2
    err = capsys.readouterr().err
    assert err.startswith("kslab: error: ") and err.count("\n") == 1, err
