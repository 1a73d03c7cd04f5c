import errno
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

import kslab
from kslab import cli
from kslab.cli import main
from kslab.instances import (
    SplitMix64,
    grid_graph,
    path_decomposition,
    path_graph,
    random_distinct_vertices,
    random_partial_ktree,
    random_requests,
)
from kslab.metric_core import all_pairs_shortest_paths, graph_to_json, num_to_json
from kslab.offline_solver import Schedule
from kslab.spanner_cover import (
    SpannerSystem,
    StretchClaimRejected,
    certify_system,
    shortest_path_tree,
)


def run_cli(*argv):
    return main(list(argv))


def cli_input_error(capsys, *argv) -> str:
    """The message of a CLI call that rejects its input: exit status 2 and
    one stderr line, returned without its "kslab: error: " prefix."""
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("kslab: error: ") and err.count("\n") == 1, err
    return err[len("kslab: error: "):]


def forbid_metric_and_opt(monkeypatch, what: str) -> None:
    """Make `cli` raise if it computes a distance row or OPT."""

    def computed(*args, **kwargs):
        raise AssertionError(f"computed before {what}")

    for name in ("all_pairs_shortest_paths", "opt_cost_dp", "opt_cost_flow"):
        monkeypatch.setattr(cli, name, computed)


def test_run_path_rounds_opt(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli(
        "run", "--family", "path-rounds", "--bits", "101", "--algo", "opt",
        "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["opt_cost"] == 12  # 4 per round


def test_run_gpc_ratio_one(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(
        "run", "--family", "random-ktree", "--size", "18", "--k", "2",
        "--n", "15", "--seed", "11", "--algo", "gpc", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    res = report["results"]
    assert res["online_cost"] == res["opt_cost"]
    assert res["ratio"] in (1, "1/1")
    assert res["bits_read"] <= res["bit_budget"]
    assert res["pass"] is True


def test_run_module_perm_unique(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(
        "run", "--family", "module", "--gamma", "2", "--rounds", "1",
        "--algo", "perm", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["online_cost"] == 8
    assert report["extra"]["unique_opt"] is True


def test_run_spanner_grid(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(
        "run", "--family", "grid", "--size", "4", "--k", "2", "--n", "14",
        "--seed", "4", "--algo", "spanner", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["pass"] is True
    assert report["results"]["bits_read"] <= report["results"]["bit_budget"]


# sha256 of the report of each `kslab run` example in README.md
README_RUNS = [
    (
        ["--family", "path-rounds", "--bits", "101", "--algo", "opt"],
        "d072e8d6c0ae5f56af1343825bb1eb8794fd81c6f5cc75dc45405eaf31ee6ed8",
    ),
    (
        ["--family", "random-ktree", "--size", "20", "--k", "2", "--n", "25",
         "--seed", "7", "--algo", "gpc"],
        "fa143b284cbf0f0c589865073eac2e481a29c8c39f82212600d1b2038f15869b",
    ),
    (
        ["--family", "module", "--gamma", "2", "--rounds", "1", "--algo", "perm"],
        "e6b95062e364edd0243d2b62294e92bee41157bcd9b6e99977a91eece652c19c",
    ),
    (
        ["--family", "grid", "--size", "4", "--k", "2", "--n", "20", "--seed", "3",
         "--algo", "spanner"],
        "ddbd58d80d65ba3255a44cf0e09d307fa7e11f5653eaa65622b1c75c6428cdb7",
    ),
]


@pytest.mark.parametrize(
    "argv,digest",
    README_RUNS,
    ids=["path-rounds-opt", "ktree-gpc", "module-perm", "grid-spanner"],
)
def test_readme_run_reports_are_pinned(argv, digest, tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("run", *argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Larger runs pinned the same way: N^3 * n > DP_GUARD sends the first one's
# OPT down the flow route; the second certifies a spanner on a 64-vertex grid;
# the third serves ~2000 path-round requests from a long DP-route schedule;
# the fourth generates and height-reduces a 600-vertex partial 3-tree.
# Each also pins its exact OPT, which does not depend on which optimal
# schedule the solver picks.
LARGER_RUNS = [
    (
        ["--family", "random-ktree", "--size", "60", "--k", "3", "--n", "60",
         "--algo", "gpc"],
        "09681968868db5a6079bcdbd58c1f5b69683d2b2e1b2126a4fa1720247edf5f6",
        107,
    ),
    (
        ["--family", "grid", "--size", "8", "--algo", "spanner"],
        "1eaf34befc6be86b8624b74c8fc7b7bb782c4201943feeed14987624c8c249db",
        37,
    ),
    (
        ["--family", "path-rounds", "--size", "5", "--n", "2000", "--algo", "gpc"],
        "9743dbabdec1312bc9f01b981a1754be40535ed2fa8b19723657c6cb2ff740bb",
        1140,
    ),
    (
        ["--family", "random-ktree", "--size", "600", "--k", "3", "--n", "60",
         "--algo", "gpc"],
        "b9644ea5875e960ca207957f5686237698ced9c5c20aaff29bc3fd892d1d16e8",
        158,
    ),
    # the grid-spanner and ktree-gpc benchmark specs at seed 1, and the
    # N = 2,000 partial 3-tree
    (
        ["--family", "grid", "--size", "16", "--k", "2", "--n", "150",
         "--seed", "1", "--algo", "spanner"],
        "953171c4f982912f06d1a131016cab3bad2a4298d9a3889e3fb11d15b8e66192",
        999,
    ),
    (
        ["--family", "random-ktree", "--size", "250", "--k", "3", "--n", "300",
         "--seed", "1", "--algo", "gpc"],
        "f289cdbbc0d467f689c85f4e87051600f98b8501f61e5e5212a258625a6beefa",
        699,
    ),
    (
        ["--family", "random-ktree", "--size", "2000", "--k", "3", "--n", "300",
         "--seed", "1", "--algo", "gpc"],
        "f51404b603ca02825d6a0d11014047aa07a1eaf881ad43286c32b863ba5beb5c",
        874,
    ),
]


@pytest.mark.parametrize(
    "argv,digest,opt_cost",
    LARGER_RUNS,
    ids=["ktree-flow-gpc", "grid8-spanner", "rounds2000-gpc", "ktree600-flow-gpc",
         "grid16-spanner", "ktree250-gpc", "ktree2000-gpc"],
)
def test_larger_run_reports_are_pinned(argv, digest, opt_cost, tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("run", *argv, "--out", str(out)) == 0
    results = json.loads(out.read_text())["results"]
    assert results["pass"] is True
    assert results["opt_cost"] == opt_cost
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# gpc reports pinned byte for byte, tape hex, `tape_bits` and `extra.moves`
# included: the 14,000-request path-rounds benchmark spec (a ~1 MB report),
# a two-module gb spec, and the latter's CSV row.
GPC_RUNS = [
    (
        ["--family", "path-rounds", "--size", "5", "--n", "14000", "--seed", "1",
         "--algo", "gpc"],
        "080a697ef12305e2c38afa7cab615ef0e2e4c4e337fc6e4acd822d5642ac9e85",
    ),
    (
        ["--family", "gb", "--modules", "2", "--gamma", "2", "--rounds", "3",
         "--algo", "gpc"],
        "45fd259ef03c992bcd1299412879337f1dfa7b472ead486a18e3bec60031ae8f",
    ),
    (
        ["--family", "gb", "--modules", "2", "--gamma", "2", "--rounds", "3",
         "--algo", "gpc", "--format", "csv"],
        "6d01b7b18cfe5c14eca340c83c51990b335b9020aa2b641d33a11148ab327e60",
    ),
    (
        ["--family", "module", "--gamma", "2", "--rounds", "3", "--algo", "gpc"],
        "eb088a2b8aa3483789e1ee6b118a84f2e28015bf9a25798f84f820b1ebf67956",
    ),
]


@pytest.mark.parametrize(
    "argv,digest",
    GPC_RUNS,
    ids=["rounds14000-gpc", "gb-m2-g2-r3-gpc", "gb-gpc-csv", "module-g2-r3-gpc"],
)
def test_gpc_run_reports_are_pinned(argv, digest, tmp_path):
    out = tmp_path / "r.out"
    assert run_cli("run", *argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# `perm` reports pinned the same way, beyond the README's one-round gamma 2
# run: three rounds of gamma 2, ten rounds of gamma 3, and four rounds of two
# gb modules, whose OPT takes the flow route and so needs the counting pass;
# every one unique_opt true.
PERM_RUNS = [
    (
        ["--family", "module", "--gamma", "2", "--rounds", "3", "--algo", "perm"],
        "c4f0bb01ca4247ab80b78415448b2b776d2bc39a9e22ffb4de94a68c15f630cb",
    ),
    (
        ["--family", "module", "--gamma", "3", "--rounds", "10", "--algo", "perm"],
        "2fc99985c87ae31a1d6c81a3dfd100c14778528d8606c372ba0f1d4d437bfe9c",
    ),
    (
        ["--family", "gb", "--modules", "2", "--gamma", "2", "--rounds", "4",
         "--algo", "perm"],
        "19a732acbc4db5aec1d6f4d4294fb18547ccd42e46149aa4671db677b0a2597b",
    ),
]


@pytest.mark.parametrize(
    "argv,digest", PERM_RUNS, ids=["module-g2-r3", "module-g3-r10", "gb-m2-g2-r4"]
)
def test_perm_run_reports_are_pinned(argv, digest, tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("run", *argv, "--out", str(out)) == 0
    assert json.loads(out.read_text())["extra"]["unique_opt"] is True
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,unique",
    [
        (["--family", "gb", "--modules", "2", "--gamma", "2", "--rounds", "1"], True),
        (["--family", "module", "--gamma", "3", "--rounds", "20"], True),
        (["--family", "module", "--gamma", "4", "--rounds", "1"], True),
        # C(N+k-2, k-1) * n > DP_GUARD: uniqueness is not decided
        (["--family", "module", "--gamma", "5", "--rounds", "1"], None),
    ],
    ids=["gb-m2-g2", "module-g3-r20", "module-g4", "module-g5"],
)
def test_perm_uniqueness_is_decided_under_the_dp_guard(argv, unique, tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("run", *argv, "--algo", "perm", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["extra"]["unique_opt"] is unique
    assert report["results"]["pass"] is True


def test_perm_run_on_the_dp_route_makes_one_dp_pass(tmp_path, monkeypatch):
    # OPT's schedule and the number of optima come off the same pass
    real = kslab.offline_solver._dp_layers
    calls = []
    monkeypatch.setattr(
        kslab.offline_solver, "_dp_layers", lambda *a: calls.append(a) or real(*a)
    )
    out = tmp_path / "r.json"
    assert run_cli(
        "run", "--family", "module", "--gamma", "3", "--rounds", "50",
        "--algo", "perm", "--out", str(out),
    ) == 0
    assert json.loads(out.read_text())["extra"]["unique_opt"] is True
    assert len(calls) == 1


def test_perm_schedule_that_is_not_lazy_is_not_the_unique_optimum(
    tmp_path, monkeypatch
):
    # the same moves with the first two server ids swapped: the count still
    # finds one optimum, but this schedule moves servers from where none stands
    from kslab import adversary

    real = adversary.perm_algorithm

    def swapped(g, seq, init):
        sched = real(g, seq, init)
        a, b, *rest = sched.moves
        a, b = a._replace(server=b.server), b._replace(server=a.server)
        return Schedule(moves=[a, b, *rest], total_cost=sched.total_cost)

    monkeypatch.setattr(adversary, "perm_algorithm", swapped)
    out = tmp_path / "r.json"
    assert run_cli(
        "run", "--family", "module", "--gamma", "2", "--rounds", "1",
        "--algo", "perm", "--out", str(out),
    ) == 1
    report = json.loads(out.read_text())
    assert report["extra"]["unique_opt"] is False
    assert report["results"]["pass"] is False


def test_fraction_flow_run_report_is_pinned(tmp_path, monkeypatch):
    # a 90-vertex partial 3-tree with half-integer weights, 3 servers and 30
    # requests: N^3 * n > DP_GUARD, so OPT takes the flow route on Fraction
    # distances.  Relative file names keep the report's spec path-free.
    rng = SplitMix64(86)
    g, td = random_partial_ktree(rng, 90, 3)
    edges = [
        [u, v, num_to_json(Fraction(rng.randint(2, 8), 2))] for u, v, _ in g.edges
    ]
    init = random_distinct_vertices(rng, 3, g.n)
    sigma = random_requests(rng, 30, g.n)
    monkeypatch.chdir(tmp_path)
    Path("g.json").write_text(json.dumps({"n": g.n, "edges": edges}))
    Path("i.json").write_text(
        json.dumps({"init_config": list(init), "sequence": sigma})
    )
    Path("td.json").write_text(json.dumps(td.to_json()))
    assert run_cli(
        "run", "--graph", "g.json", "--instance", "i.json", "--td", "td.json",
        "--algo", "gpc", "--out", "r.json",
    ) == 0
    report = Path("r.json").read_bytes()
    results = json.loads(report)["results"]
    assert results["pass"] is True
    assert results["opt_cost"] == "247/2"
    assert hashlib.sha256(report).hexdigest() == (
        "c305745863c530085118db031bb307e70c8820020ee70d5657212b59bf18cab1"
    )


def test_mixed_fraction_flow_run_report_is_pinned(tmp_path, monkeypatch):
    # a 60-vertex partial 3-tree whose "p/q" weights have denominators 1..5,
    # so the flow scales its costs by 60; 3 servers and 60 requests drawn
    # from --seed: N^3 * n > DP_GUARD, so OPT takes the flow route
    rng = SplitMix64(151)
    g, td = random_partial_ktree(rng, 60, 3)
    edges = []
    for u, v, _ in g.edges:
        q = rng.randint(1, 5)
        edges.append([u, v, num_to_json(Fraction(rng.randint(q, 4 * q), q))])
    flow_calls = []
    real = kslab.cli.opt_cost_flow
    monkeypatch.setattr(
        kslab.cli, "opt_cost_flow", lambda *a: flow_calls.append(a) or real(*a)
    )
    monkeypatch.chdir(tmp_path)
    Path("g.json").write_text(json.dumps({"n": g.n, "edges": edges}))
    Path("td.json").write_text(json.dumps(td.to_json()))
    assert run_cli(
        "run", "--graph", "g.json", "--td", "td.json", "--k", "3", "--n", "60",
        "--seed", "5", "--algo", "gpc", "--out", "r.json",
    ) == 0
    report = Path("r.json").read_bytes()
    results = json.loads(report)["results"]
    assert results["pass"] is True
    assert results["opt_cost"] == "4233/20"
    assert len(flow_calls) == 1
    assert hashlib.sha256(report).hexdigest() == (
        "424cb73746ef0b66aeed4a2b73ba0b8a21f8938594307671fc3277d66a202865"
    )


def fresh_python(*argv, cwd=None, **env):
    """`python argv` in a fresh interpreter on this checkout's sources, with
    KSL_LOG as `env` sets it (unset by default)."""
    src = str(Path(kslab.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if k != "KSL_LOG"}
    return subprocess.run(
        [sys.executable, *argv], env={**base, "PYTHONPATH": src, **env},
        cwd=cwd, capture_output=True, text=True,
    )


def test_cli_import_loads_only_what_every_run_uses():
    # the modules `import kslab.cli` adds to what a bare interpreter holds
    # (a site hook may preload some of them, which this leaves out)
    code = (
        "import sys; bare = set(sys.modules); import kslab.cli; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.split())
    assert {"kslab.cli", "kslab.gpc", "kslab.tree_decomp"} <= loaded
    assert not loaded & {
        "networkx", "dataclasses", "inspect", "logging",
        "kslab.spanner_cover", "kslab.adversary",
    }


@pytest.mark.parametrize(
    "level, logs",
    [(None, False), ("INFO", True), ("debug", True), ("WARNING", False),
     # not level names: WARNING, as before any of them was read
     ("basic_format", False), ("_styles", False), ("no-such-level", False)],
)
def test_ksl_log_level_or_warning(level, logs):
    argv = ["-m", "kslab", "run", "--family", "grid", "--size", "3", "--n", "4"]
    quiet = fresh_python(*argv)
    out = fresh_python(*argv, **({} if level is None else {"KSL_LOG": level}))
    assert (out.returncode, out.stdout) == (0, quiet.stdout)
    if logs:
        assert re.fullmatch(r"INFO:kslab:instance: N=9 k=2 n=4 opt=\d+\n", out.stderr)
    else:
        assert out.stderr == ""


def _fresh_run_files(where: Path) -> None:
    """A path graph, its decomposition, an instance and a (1, 0) spanner."""
    g = path_graph(6)
    (where / "g.json").write_text(graph_to_json(g))
    (where / "td.json").write_text(json.dumps(path_decomposition(6).to_json()))
    (where / "i.json").write_text(
        json.dumps({"init_config": [0, 5], "sequence": [2, 3, 1, 4]})
    )
    system = SpannerSystem(trees=(shortest_path_tree(g, 0),), q=1, r=0)
    (where / "s.json").write_text(json.dumps(system.to_json()))


# one command down each path that imports a module where it is used
FRESH_COMMANDS = [
    "run --family path-rounds --n 21 --algo gpc",
    "run --family module --gamma 2 --rounds 2 --algo perm",
    "run --family gb --gamma 2 --modules 2 --algo opt",
    "run --family grid --size 4 --n 12 --algo spanner",
    "run --family random-ktree --size 12 --n 10 --algo gpc",
    "run --graph g.json --instance i.json --spanners s.json --algo spanner",
    "verify --graph g.json --td td.json",
    "verify --graph g.json --spanners s.json",
    "bounds --tau 1.1,6/5",
    "bounds --alpha 4,6",
]


@pytest.mark.parametrize("command", FRESH_COMMANDS)
def test_fresh_process_matches_in_process(command, tmp_path, capsys, monkeypatch):
    # the test modules import every kslab module, so only a fresh process
    # shows that a command imports what it uses
    _fresh_run_files(tmp_path)
    fresh = fresh_python("-m", "kslab", *command.split(), cwd=tmp_path)
    monkeypatch.chdir(tmp_path)
    code = run_cli(*command.split())
    here = capsys.readouterr()

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert fresh.stderr == here.err == ""
    assert (fresh.returncode, digest(fresh.stdout)) == (code, digest(here.out))
    assert code == 0


def _write_pair(tmp_path, edges, n, init, sigma):
    gp = tmp_path / "g.json"
    gp.write_text(json.dumps({"n": n, "edges": edges}))
    ip = tmp_path / "i.json"
    ip.write_text(json.dumps({"init_config": init, "sequence": sigma}))
    return str(gp), str(ip)


def test_integral_rational_costs_are_ints(tmp_path):
    gp, ip = _write_pair(tmp_path, [[0, 1, "3/2"], [1, 2, "5/2"]], 3, [0, 0], [2])
    out = tmp_path / "r.json"
    code = run_cli(
        "run", "--graph", gp, "--instance", ip, "--algo", "opt", "--out", str(out)
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["opt_cost"] == 4
    assert report["extra"]["schedule"]["total_cost"] == 4


@pytest.mark.parametrize(
    "init,sigma,where",
    [([0, 1], [2, 7], r"sequence\[1\]: vertex 7 not in 0\.\.2"),
     ([0, 3], [1], r"init_config\[1\]: vertex 3 not in 0\.\.2")],
    ids=["sequence", "init_config"],
)
def test_instance_vertex_out_of_range(tmp_path, capsys, init, sigma, where):
    gp, ip = _write_pair(tmp_path, [[0, 1, 1], [1, 2, 1]], 3, init, sigma)
    msg = cli_input_error(
        capsys, "run", "--graph", gp, "--instance", ip, "--algo", "opt"
    )
    assert re.search(where, msg)


@pytest.mark.parametrize(
    "doc,where",
    [({"sequence": [1]}, r"^init_config: missing field"),
     ({"init_config": [0]}, r"^sequence: missing field"),
     ({"init_config": 0, "sequence": [1]}, r"^init_config: expected a list"),
     ([0, 1], r"^top level: expected a JSON object")],
    ids=["init_config", "sequence", "init_config-type", "top-level"],
)
def test_instance_file_errors_name_the_field(tmp_path, capsys, doc, where):
    gp, ip = _write_pair(tmp_path, [[0, 1, 1], [1, 2, 1]], 3, [0], [1])
    with open(ip, "w") as fh:
        json.dump(doc, fh)
    msg = cli_input_error(
        capsys, "run", "--graph", gp, "--instance", ip, "--algo", "opt"
    )
    assert re.search(where, msg)


def test_bad_decomposition_file_is_one_line(tmp_path, capsys):
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(path_graph(3)))
    tdp = tmp_path / "bad.json"
    tdp.write_text(json.dumps({"bags": [[0]], "root": 0}))
    msg = cli_input_error(capsys, "verify", "--graph", str(gp), "--td", str(tdp))
    assert msg == "parent: missing field\n"


@pytest.mark.parametrize("command", ["run", "verify"])
def test_bad_spanner_file_is_one_line(tmp_path, monkeypatch, capsys, command):
    # the file is parsed before any distance row or OPT is computed
    forbid_metric_and_opt(monkeypatch, "the spanner file was parsed")
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(grid_graph(3, 3)))
    sysp = tmp_path / "bad.json"
    sysp.write_text(json.dumps({"trees": [{"root": 0}], "q": 1, "r": 0}))
    argv = ["--graph", str(gp), "--spanners", str(sysp)]
    if command == "run":
        argv += ["--algo", "spanner"]
    msg = cli_input_error(capsys, command, *argv)
    assert msg == "trees[0].parent: missing field\n"


@pytest.mark.parametrize(
    "claim,message",
    [({}, "--spanners: spanner file carries no (q, r) claim\n"),
     ({"q": 1, "r": 0}, "--spanners: stretch certificate rejected: ")],
    ids=["no-claim", "rejected-claim"],
)
def test_run_needs_a_spanner_claim_that_holds(
    tmp_path, monkeypatch, capsys, claim, message
):
    # a missing claim is found with the other inputs; a claim that fails is
    # found by certifying it, which reads every distance row
    if not claim:
        forbid_metric_and_opt(monkeypatch, "the spanner claim was looked for")
    g = grid_graph(3, 3)
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(g))
    sysp = tmp_path / "system.json"
    tree = shortest_path_tree(g, 0)
    sysp.write_text(json.dumps({"trees": [{"root": 0, "parent": tree.parent}], **claim}))
    msg = cli_input_error(
        capsys, "run", "--algo", "spanner", "--graph", str(gp), "--spanners", str(sysp)
    )
    assert msg.startswith(message)


# (command and the files it reads, the file that cannot be read)
UNREADABLE = [
    (["run", "--algo", "gpc", "--graph", "--td"], "--graph"),
    (["run", "--algo", "gpc", "--graph", "--td"], "--td"),
    (["run", "--graph", "--instance"], "--instance"),
    (["run", "--algo", "spanner", "--graph", "--spanners"], "--spanners"),
    (["verify", "--graph", "--td"], "--graph"),
    (["verify", "--graph", "--td"], "--td"),
    (["verify", "--graph", "--spanners"], "--spanners"),
]


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize(
    "argv,bad", UNREADABLE, ids=[f"{a[0]}{b}" for a, b in UNREADABLE]
)
def test_unreadable_input_file_is_one_line(
    tmp_path, monkeypatch, capsys, argv, bad, kind
):
    # a run reads every input file before any distance row or OPT
    if argv[0] == "run":
        forbid_metric_and_opt(monkeypatch, "every input file was read")
    g = path_graph(3)
    texts = {
        "--graph": graph_to_json(g),
        "--td": json.dumps(path_decomposition(3).to_json()),
        "--instance": json.dumps({"init_config": [0], "sequence": [2]}),
        "--spanners": json.dumps(
            SpannerSystem(trees=(shortest_path_tree(g, 0),), q=1, r=0).to_json()
        ),
    }
    paths = {}
    for flag, text in texts.items():
        paths[flag] = tmp_path / (flag[2:] + ".json")
        paths[flag].write_text(text)
    paths[bad] = tmp_path / "nope.json"
    code = errno.ENOENT
    if kind == "directory":
        paths[bad].mkdir()
        code = errno.EISDIR
    full = []
    for arg in argv:
        full += [arg, str(paths[arg])] if arg in paths else [arg]
    msg = cli_input_error(capsys, *full)
    assert msg == f"{paths[bad]}: {os.strerror(code)}\n"


# (run arguments, the message after "kslab: error: ")
BAD_RUN_ARGS = [
    (["--family", "grid", "--size", "3", "--k", "0"],
     "--k: need 1..9 servers on 9 vertices, got 0"),
    (["--family", "grid", "--size", "2", "--k", "5"],
     "--k: need 1..4 servers on 4 vertices, got 5"),
    (["--family", "random-ktree", "--size", "10", "--k", "0"],
     "--k: need 1..10 servers on 10 vertices, got 0"),
    (["--family", "grid", "--n", "-3"], "--n: must be at least 0, got -3"),
    (["--family", "grid", "--size", "-2"], "--size: must be at least 0, got -2"),
    (["--family", "random-ktree", "--size", "3", "--k", "3"],
     "--size: a random partial 3-tree needs at least 4 vertices, got 3"),
    (["--family", "path-rounds", "--size", "2"],
     "--size: rounds need a path of size >= 5, got 2"),
    (["--family", "path-rounds", "--bits", "1x0"],
     "--bits: round types must be a nonempty 0/1 string, got '1x0'"),
    (["--family", "module", "--gamma", "0"], "--gamma: must be at least 2, got 0"),
    (["--family", "module", "--rounds", "-1"], "--rounds: must be at least 0, got -1"),
    (["--family", "gb", "--modules", "0"], "--modules: must be at least 1, got 0"),
    (["--algo", "opt"], "--family: pass --family or --graph"),
    (["--family", "grid", "--algo", "perm"], "--algo: perm needs --family module or gb"),
    (["--family", "grid", "--algo", "gpc"],
     "--algo: gpc needs a tree decomposition (--td or family)"),
    # flags the input source or the algorithm would ignore; no file is read
    # before the check
    (["--graph", "g.json", "--family", "grid"],
     "--family: cannot be combined with --graph"),
    (["--family", "grid", "--instance", "i.json"], "--instance: needs --graph"),
    (["--family", "grid", "--td", "td.json", "--algo", "gpc"], "--td: needs --graph"),
    (["--family", "grid", "--bits", "101"], "--bits: needs --family path-rounds"),
    (["--graph", "g.json", "--bits", "101"], "--bits: needs --family path-rounds"),
    (["--family", "module", "--modules", "3", "--algo", "perm"],
     "--modules: needs --family gb"),
    (["--graph", "g.json", "--modules", "2"], "--modules: needs --family gb"),
    (["--family", "grid", "--gamma", "7", "--rounds", "9"],
     "--gamma: needs --family module or gb"),
    (["--family", "random-ktree", "--rounds", "9"],
     "--rounds: needs --family module or gb"),
    (["--family", "path-rounds", "--gamma", "3"],
     "--gamma: needs --family module or gb"),
    (["--family", "grid", "--spanners", "s.json"], "--spanners: needs --algo spanner"),
    (["--graph", "g.json", "--spanners", "s.json", "--algo", "gpc"],
     "--spanners: needs --algo spanner"),
]


@pytest.mark.parametrize(
    "argv,message", BAD_RUN_ARGS, ids=[" ".join(a) for a, _ in BAD_RUN_ARGS]
)
def test_bad_run_argument_is_one_line(monkeypatch, capsys, argv, message):
    # every case is decided by the arguments and the instance, so no
    # distance row or OPT is computed before the rejection
    forbid_metric_and_opt(monkeypatch, "the argument check")
    assert cli_input_error(capsys, "run", *argv) == message + "\n"


def test_bounds_without_a_table_is_one_line(capsys):
    msg = cli_input_error(capsys, "bounds", "--n", "1000")
    assert msg == "--tau/--alpha: pass one of them (a comma-separated list)\n"


# (bounds arguments, the message after "kslab: error: ")
BAD_BOUNDS_ARGS = [
    (["--tau", "2"], "--tau: tau must be in (1, 5/4], got 2"),
    (["--tau", "x"], "--tau: bad number 'x'"),
    (["--tau", "6/5,"], "--tau: bad number ''"),
    (["--tau", "1e9"], "--tau: bad number '1e9'"),
    (["--alpha", "5"], "--alpha: alpha must be an even integer >= 4, got 5"),
    (["--alpha", "4.5"], "--alpha: alpha must be an even integer >= 4, got 9/2"),
    (["--alpha", "4", "--n", "-5"], "--n: must be at least 0, got -5"),
    (["--tau", "6/5", "--alpha", "4"], "--tau/--alpha: pass only one of them"),
    (["--alpha", "20000002"], "--alpha: must be at most 20000000, got 20000002"),
]


@pytest.mark.parametrize(
    "argv,message", BAD_BOUNDS_ARGS, ids=[" ".join(a) for a, _ in BAD_BOUNDS_ARGS]
)
def test_bad_bounds_argument_is_one_line(capsys, argv, message):
    assert cli_input_error(capsys, "bounds", *argv) == message + "\n"


def test_verify_without_a_structure_is_one_line(tmp_path, capsys):
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(path_graph(3)))
    msg = cli_input_error(capsys, "verify", "--graph", str(gp))
    assert msg == "--td/--spanners: pass one of them\n"


def test_verify_with_both_structures_is_one_line(tmp_path, capsys):
    # checking either one alone would leave the other file unchecked
    g = path_graph(3)
    gp, tdp, sysp = tmp_path / "g.json", tmp_path / "td.json", tmp_path / "s.json"
    gp.write_text(graph_to_json(g))
    tdp.write_text(json.dumps(path_decomposition(3).to_json()))
    sysp.write_text(
        json.dumps(SpannerSystem(trees=(shortest_path_tree(g, 0),), q=1, r=0).to_json())
    )
    msg = cli_input_error(
        capsys, "verify", "--graph", str(gp), "--td", str(tdp), "--spanners", str(sysp)
    )
    assert msg == "--td/--spanners: pass only one of them\n"


def test_run_with_an_invalid_decomposition_is_one_line(
    tmp_path, monkeypatch, capsys
):
    # the decomposition is checked with the other arguments, before any
    # distance row or OPT is computed
    forbid_metric_and_opt(monkeypatch, "the decomposition check")
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(path_graph(3)))
    tdp = tmp_path / "td.json"
    tdp.write_text(json.dumps({"bags": [[0, 1]], "parent": [None], "root": 0}))
    msg = cli_input_error(
        capsys, "run", "--graph", str(gp), "--td", str(tdp), "--algo", "gpc"
    )
    assert msg == "--td: decomposition invalid: vertex 2 not covered by any bag\n"


def test_empty_init_config_is_one_line(tmp_path, capsys):
    gp, ip = _write_pair(tmp_path, [[0, 1, 1], [1, 2, 1]], 3, [], [1])
    msg = cli_input_error(
        capsys, "run", "--graph", gp, "--instance", ip, "--algo", "opt"
    )
    assert msg == "init_config: expected at least one server\n"


def test_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    run_cli(
        "run", "--family", "random-ktree", "--size", "15", "--k", "2",
        "--n", "10", "--seed", "3", "--algo", "gpc", "--format", "csv",
        "--out", str(out),
    )
    header, row, *_ = out.read_text().splitlines()
    assert header == (
        "instance_id,N,k,n,algo,online_cost,opt_cost,ratio,bits_read,"
        "bit_budget,pass"
    )
    assert row.split(",")[4] == "gpc"
    assert row.split(",")[-1] == "true"


def _write_thirds_graph():
    """g.json: a 40-vertex partial 3-tree whose thirds weights make costs
    and ratios Fractions."""
    rng = SplitMix64(86)
    g, _ = random_partial_ktree(rng, 40, 3)
    edges = [
        [u, v, num_to_json(Fraction(rng.randint(3, 9), 3))] for u, v, _ in g.edges
    ]
    Path("g.json").write_text(json.dumps({"n": g.n, "edges": edges}))


def test_csv_reports_are_pinned(tmp_path, monkeypatch):
    # a perm run, and a spanner run on a 40-vertex partial 3-tree whose
    # thirds weights make its costs and ratio Fractions; digests recorded
    # before the report's JSON encoder last changed
    monkeypatch.chdir(tmp_path)
    assert run_cli(
        "run", "--family", "module", "--gamma", "2", "--rounds", "3",
        "--algo", "perm", "--format", "csv", "--out", "perm.csv",
    ) == 0
    _write_thirds_graph()
    assert run_cli(
        "run", "--graph", "g.json", "--k", "3", "--n", "30", "--seed", "2",
        "--algo", "spanner", "--format", "csv", "--out", "spanner.csv",
    ) == 0
    row = Path("spanner.csv").read_text().splitlines()[1].split(",")
    assert row[5:8] == ["418/3", "293/3", "418/293"]
    digests = {
        name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
        for name in ("perm.csv", "spanner.csv")
    }
    assert digests == {
        "perm.csv": "05a85d227207fd4fee87ace134eb1e075c7ddb50c56758de88ddf21354a99609",
        "spanner.csv": "c32555ac1b2c6c62b3741cd6367e4e2790572df03181b76835fea20311257ef5",
    }


def test_fraction_json_reports_are_pinned(tmp_path, monkeypatch):
    # opt and spanner JSON reports on the thirds-weight graph: the schedule
    # spells its Fraction costs as "p/q" and its integral ones as ints, the
    # spanner moves every cost as str(cost); digests recorded before the
    # move lists' spelling moved into `cli`
    monkeypatch.chdir(tmp_path)
    _write_thirds_graph()
    digests = {}
    for algo in ("opt", "spanner"):
        assert run_cli(
            "run", "--graph", "g.json", "--k", "3", "--n", "30", "--seed", "2",
            "--algo", algo, "--out", f"{algo}.json",
        ) == 0
        digests[algo] = hashlib.sha256(Path(f"{algo}.json").read_bytes()).hexdigest()
    schedule = json.loads(Path("opt.json").read_text())["extra"]["schedule"]
    assert schedule["total_cost"] == "293/3"
    assert schedule["moves"][0]["cost"] == "20/3"
    assert digests == {
        "opt": "7f19ed77fbe4cedc84041cb97b0cd1b45a7ef358c95a8b2ebfe3b6b6bf3f251d",
        "spanner": "646d000b491ed7961c85811b17b64bca84cf691e73433ed9c2821272564e9820",
    }


def test_spanner_file_run_report_is_pinned(tmp_path, monkeypatch):
    # a run on a claimed (7/2, 1) system of two shortest-path trees of the
    # 5x5 grid, with the servers and requests drawn from --seed
    monkeypatch.chdir(tmp_path)
    g = grid_graph(5, 5)
    Path("g.json").write_text(graph_to_json(g))
    system = SpannerSystem(
        (shortest_path_tree(g, 0), shortest_path_tree(g, 24)), Fraction(7, 2), 1
    )
    Path("s.json").write_text(json.dumps(system.to_json()))
    assert run_cli(
        "run", "--graph", "g.json", "--spanners", "s.json", "--algo", "spanner",
        "--k", "2", "--n", "25", "--seed", "2", "--out", "r.json",
    ) == 0
    report = json.loads(Path("r.json").read_text())
    results = report["results"]
    assert (results["opt_cost"], results["online_cost"]) == (44, 66)
    assert (results["bits_read"], results["bit_budget"]) == (84, 208)
    assert hashlib.sha256(Path("r.json").read_bytes()).hexdigest() == (
        "722647bd5dc6c43854b9786ec7f2dc2b59fa49b1ebb9ef8cbfe66d2ee6b32e2e"
    )


def test_spanner_run_builds_each_heavy_path_index_once(tmp_path, monkeypatch):
    # certification, advice and the online replay share each tree's index
    from kslab.spanner_cover import HeavyPathIndex

    built = []
    real = HeavyPathIndex.__init__

    def counting(self, tree):
        built.append(tree)
        real(self, tree)

    monkeypatch.setattr(HeavyPathIndex, "__init__", counting)
    out = tmp_path / "r.json"
    assert run_cli(
        "run", "--family", "grid", "--size", "16", "--k", "2", "--n", "150",
        "--algo", "spanner", "--seed", "1", "--out", str(out),
    ) == 0
    assert len(json.loads(out.read_text())["extra"]["spanner_roots"]) == 2
    assert len(built) == 2


def test_spanner_run_certifies_its_measured_stretch_in_one_pass(
    tmp_path, monkeypatch
):
    # the pass that measures q certifies (q, 0); no claim check runs after it
    from kslab import spanner_cover

    args = [
        "run", "--family", "grid", "--size", "8", "--k", "2", "--n", "40",
        "--algo", "spanner", "--seed", "1",
    ]
    plain, patched = tmp_path / "plain.json", tmp_path / "patched.json"
    assert run_cli(*args, "--out", str(plain)) == 0

    def no_claim_check(*_):
        raise AssertionError("a measured stretch was checked again")

    monkeypatch.setattr(spanner_cover, "_certified", no_claim_check)
    assert run_cli(*args, "--out", str(patched)) == 0
    assert patched.read_bytes() == plain.read_bytes()


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = [
        "run", "--family", "grid", "--size", "4", "--k", "2", "--n", "12",
        "--seed", "21", "--algo", "spanner",
    ]
    run_cli(*args, "--out", str(a))
    run_cli(*args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_bounds_table(capsys):
    code = run_cli("bounds", "--tau", "6/5,5/4", "--n", "1000000")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tau,bits,bits_per_request,bits_per_opt_cost"
    row65 = lines[1].split(",")
    # the published per-cost constant; the per-request theorem value differs
    assert abs(float(row65[3]) - 0.007262) < 1e-6
    row54 = lines[2].split(",")
    assert float(row54[1]) == 0.0


def test_bounds_alpha(capsys):
    code = run_cli("bounds", "--alpha", "8", "--n", "1000")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "alpha,exact_bits,closed_form_bits"
    alpha, exact, closed = lines[1].split(",")
    assert abs(float(exact) - 573.1203) < 1e-3
    assert float(closed) == 890.0


def test_bounds_alpha_at_its_limit_is_fast(capsys):
    # log2(gamma!) for gamma = 10**7 without building gamma!
    t0 = perf_counter()
    assert run_cli("bounds", "--alpha", "20000000", "--n", "1000") == 0
    assert perf_counter() - t0 < 2.0
    assert capsys.readouterr().out.splitlines()[1] == (
        "20000000,10905.401459,11516.748332"
    )


def test_verify_decomposition_pass_and_fail(tmp_path, capsys):
    from kslab.adversary import module_graph, module_graph_decomposition

    g = module_graph(2)
    td = module_graph_decomposition(2)
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(g))
    tdp = tmp_path / "td.json"
    tdp.write_text(json.dumps(td.to_json()))
    assert run_cli("verify", "--graph", str(gp), "--td", str(tdp)) == 0

    broken = td.to_json()
    broken["bags"][0] = broken["bags"][0][:-1]  # tamper with one bag
    tdp.write_text(json.dumps(broken))
    assert run_cli("verify", "--graph", str(gp), "--td", str(tdp)) == 1
    assert "witness" in capsys.readouterr().out


def test_verify_spanner_claim(tmp_path, capsys):
    g = grid_graph(4, 4)
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(g))
    sysp = tmp_path / "s.json"
    bad = SpannerSystem(trees=(shortest_path_tree(g, 0),), q=1, r=0)
    sysp.write_text(json.dumps(bad.to_json()))
    assert run_cli("verify", "--graph", str(gp), "--spanners", str(sysp)) == 1
    with pytest.raises(StretchClaimRejected) as info:
        certify_system(g, all_pairs_shortest_paths(g), bad.trees, 1, 0)
    worst = info.value.witness
    assert f"pair {worst} exceeds" in capsys.readouterr().out
    ok = SpannerSystem(
        trees=(shortest_path_tree(g, 0), shortest_path_tree(g, 15)), q=3, r=0
    )
    sysp.write_text(json.dumps(ok.to_json()))
    assert run_cli("verify", "--graph", str(gp), "--spanners", str(sysp)) == 0
