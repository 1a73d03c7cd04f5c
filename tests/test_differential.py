"""Small seeded `kslab run` specs against an OPT recomputed from their dump.

Every family runs with each algorithm it supports.  The run dumps its
instance; the optimum is recomputed from the dumped files alone with the
configuration DP, and the report must agree with it: opt runs and gpc
serve at OPT, spanner runs within (q+r)·OPT, no tape run reads past its
bit budget, and PERM's schedule is the unique optimum wherever that is
decided.  (DP == flow is test_flow_matches_dp_on_every_family's.)
"""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab.cli import main
from kslab.metric_core import graph_from_json, num_from_json
from kslab.offline_solver import opt_cost_dp

# family -> (its algorithms, a strategy for its size flags); sizes stay
# under the DP guard so that the recomputation is the DP's
FAMILIES = {
    "path-rounds": (
        ["opt", "gpc", "spanner"],
        st.tuples(st.integers(5, 7), st.integers(0, 28)).map(
            lambda s: ["--size", s[0], "--n", s[1]]
        ),
    ),
    "module": (
        ["opt", "gpc", "spanner", "perm"],
        st.tuples(st.integers(2, 3), st.integers(0, 2)).map(
            lambda s: ["--gamma", s[0], "--rounds", s[1]]
        ),
    ),
    "gb": (
        ["opt", "gpc", "spanner", "perm"],
        st.tuples(st.integers(1, 2), st.integers(0, 2)).map(
            lambda s: ["--modules", s[0], "--gamma", 2, "--rounds", s[1]]
        ),
    ),
    "random-ktree": (
        ["opt", "gpc", "spanner"],
        st.tuples(st.integers(6, 14), st.integers(1, 3), st.integers(0, 12)).map(
            lambda s: ["--size", s[0], "--k", s[1], "--n", s[2]]
        ),
    ),
    "grid": (
        ["opt", "spanner"],
        st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(0, 12)).map(
            lambda s: ["--size", s[0], "--k", s[1], "--n", s[2]]
        ),
    ),
}
CASES = [(family, algo) for family, (algos, _) in FAMILIES.items() for algo in algos]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


@pytest.mark.parametrize("family,algo", CASES, ids=[f"{f}-{a}" for f, a in CASES])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_runs_agree_with_opt_recomputed_from_their_dump(
    workdir, family, algo, data, seed
):
    sizes = data.draw(FAMILIES[family][1], label="sizes")
    report_path, prefix = workdir / "report.json", workdir / "dump"
    argv = ["run", "--family", family, "--algo", algo, "--seed", seed, *sizes]
    argv += ["--out", report_path, "--dump-instance", prefix]
    assert main([str(a) for a in argv]) == 0
    report = json.loads(report_path.read_text())
    res, extra = report["results"], report["extra"]

    g = graph_from_json((workdir / "dump.graph.json").read_text())
    doc = json.loads((workdir / "dump.instance.json").read_text())
    opt, _ = opt_cost_dp(g, doc["init_config"], doc["sequence"])
    online = num_from_json(res["online_cost"], "online_cost")
    assert num_from_json(res["opt_cost"], "opt_cost") == opt
    if algo in ("opt", "gpc", "perm"):
        assert online == opt
    if algo == "spanner":
        q, r = num_from_json(extra["q"], "q"), num_from_json(extra["r"], "r")
        assert online <= (q + r) * opt
    if algo in ("gpc", "spanner"):
        assert res["bits_read"] <= res["bit_budget"]
    if algo == "perm":
        assert extra["unique_opt"] in (True, None)
