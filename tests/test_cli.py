import errno
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import kslab
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
from kslab.tree_decomp import module_graph_decomposition


def run_cli(*argv):
    return main(list(argv))


def cli_input_error(capsys, *argv) -> str:
    """The message of a CLI call that rejects its input: exit status 2 and
    one stderr line, returned without its "kslab: error: " prefix."""
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("kslab: error: ") and err.count("\n") == 1, err
    return err[len("kslab: error: "):]


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
]


@pytest.mark.parametrize(
    "argv,digest,opt_cost",
    LARGER_RUNS,
    ids=["ktree-flow-gpc", "grid8-spanner", "rounds2000-gpc", "ktree600-flow-gpc"],
)
def test_larger_run_reports_are_pinned(argv, digest, opt_cost, tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("run", *argv, "--out", str(out)) == 0
    results = json.loads(out.read_text())["results"]
    assert results["pass"] is True
    assert results["opt_cost"] == opt_cost
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# `perm` reports pinned the same way, beyond the README's one-round gamma 2
# run: three rounds of gamma 2 and ten rounds of gamma 3, both unique_opt true.
PERM_RUNS = [
    (
        ["--family", "module", "--gamma", "2", "--rounds", "3", "--algo", "perm"],
        "c4f0bb01ca4247ab80b78415448b2b776d2bc39a9e22ffb4de94a68c15f630cb",
    ),
    (
        ["--family", "module", "--gamma", "3", "--rounds", "10", "--algo", "perm"],
        "2fc99985c87ae31a1d6c81a3dfd100c14778528d8606c372ba0f1d4d437bfe9c",
    ),
]


@pytest.mark.parametrize("argv,digest", PERM_RUNS, ids=["module-g2-r3", "module-g3-r10"])
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
        # N^k * n > DP_GUARD: uniqueness is not decided
        (["--family", "module", "--gamma", "4", "--rounds", "1"], None),
    ],
    ids=["gb-m2-g2", "module-g3-r20", "module-g4"],
)
def test_perm_uniqueness_is_decided_under_the_dp_guard(argv, unique, tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("run", *argv, "--algo", "perm", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["extra"]["unique_opt"] is unique
    assert report["results"]["pass"] is True


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
        a, b = replace(a, server=b.server), replace(b, server=a.server)
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


def test_cli_import_leaves_networkx_out():
    code = "import sys, kslab.cli; sys.exit('networkx' in sys.modules)"
    src = str(Path(kslab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
def test_bad_spanner_file_is_one_line(tmp_path, capsys, command):
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(grid_graph(3, 3)))
    sysp = tmp_path / "bad.json"
    sysp.write_text(json.dumps({"trees": [{"root": 0}], "q": 1, "r": 0}))
    argv = ["--graph", str(gp), "--spanners", str(sysp)]
    if command == "run":
        argv += ["--algo", "spanner"]
    msg = cli_input_error(capsys, command, *argv)
    assert msg == "trees[0].parent: missing field\n"


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
def test_unreadable_input_file_is_one_line(tmp_path, capsys, argv, bad, kind):
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
]


@pytest.mark.parametrize(
    "argv,message", BAD_RUN_ARGS, ids=[" ".join(a) for a, _ in BAD_RUN_ARGS]
)
def test_bad_run_argument_is_one_line(capsys, argv, message):
    assert cli_input_error(capsys, "run", *argv) == message + "\n"


def test_bounds_without_a_table_is_one_line(capsys):
    msg = cli_input_error(capsys, "bounds", "--n", "1000")
    assert msg == "--tau/--alpha: pass one of them (a comma-separated list)\n"


def test_verify_without_a_structure_is_one_line(tmp_path, capsys):
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(path_graph(3)))
    msg = cli_input_error(capsys, "verify", "--graph", str(gp))
    assert msg == "--td/--spanners: pass one of them\n"


def test_run_with_an_invalid_decomposition_is_one_line(tmp_path, capsys):
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


def test_verify_decomposition_pass_and_fail(tmp_path, capsys):
    from kslab.adversary import module_graph

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
    worst = info.value.check.witness
    assert f"pair {worst} exceeds" in capsys.readouterr().out
    ok = SpannerSystem(
        trees=(shortest_path_tree(g, 0), shortest_path_tree(g, 15)), q=3, r=0
    )
    sysp.write_text(json.dumps(ok.to_json()))
    assert run_cli("verify", "--graph", str(gp), "--spanners", str(sysp)) == 0
