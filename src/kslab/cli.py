"""Experiment runner: seeded instances, online-vs-OPT pipelines, reports.

Reports are canonical JSON (sorted keys, no whitespace drift) or a single
CSV row, so identical run specs produce byte-identical files.  Set KSL_LOG
to DEBUG/INFO/WARNING for progress logging.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import NamedTuple

from . import adversary
from .gpc import generate_advice, gpc_bit_budget_nominal, run_online
from .instances import (
    SplitMix64,
    grid_graph,
    path_decomposition,
    path_graph,
    random_distinct_vertices,
    random_partial_ktree,
    random_requests,
)
from .metric_core import (
    Graph,
    GraphFormatError,
    all_pairs_shortest_paths,
    graph_from_json,
    graph_to_json,
    is_vertex,
    json_field,
    num_to_json,
    parse_json,
)
from .offline_solver import (
    InstanceTooLarge,
    InvalidSchedule,
    Schedule,
    count_optimal_schedules,
    opt_cost_dp,
    opt_cost_flow,
    validate_lazy_schedule,
)
from .spanner_cover import (
    HeavyPathIndex,
    StretchClaimRejected,
    certify_min_stretch,
    generate_advice_spanner,
    run_online_spanner,
    shortest_path_tree,
    system_from_json,
)
from .tree_decomp import (
    TreeDecomposition,
    gb_decomposition,
    module_graph_decomposition,
    reduce_height,
    verify_decomposition,
)

log = logging.getLogger("kslab")

FORMAT_VERSION = 1
CSV_COLUMNS = [
    "instance_id",
    "N",
    "k",
    "n",
    "algo",
    "online_cost",
    "opt_cost",
    "ratio",
    "bits_read",
    "bit_budget",
    "pass",
]


@dataclass
class RunSpec:
    """The `kslab run` arguments; their defaults live in `make_parser`."""

    command: str
    algo: str
    family: str | None
    graph: str | None
    instance: str | None
    td: str | None
    spanners: str | None
    gamma: int
    modules: int
    rounds: int
    bits: str | None
    k: int
    n: int
    size: int
    seed: int
    out: str | None
    format: str
    dump_instance: str | None


class BadFlag(ValueError):
    """A `kslab` argument missing or outside its domain, named by its flag."""

    def __init__(self, flag: str, message: str):
        super().__init__(f"{flag}: {message}")


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise BadFlag(flag, f"must be at least {low}, got {value}")


def _random_servers(rng: SplitMix64, k: int, n_vertices: int) -> tuple[int, ...]:
    """`--k` distinct random vertices of a graph on n_vertices vertices."""
    if not 1 <= k <= n_vertices:
        raise BadFlag(
            "--k", f"need 1..{n_vertices} servers on {n_vertices} vertices, got {k}"
        )
    return random_distinct_vertices(rng, k, n_vertices)


class Instance(NamedTuple):
    """A run's graph, servers, requests, decomposition and family params."""

    g: Graph
    init: tuple[int, ...]
    sigma: list[int]
    td: TreeDecomposition | None
    params: dict


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _vertices(doc, field: str, n: int) -> list:
    """doc[field] as a vertex list, every entry checked to lie in 0..n-1."""
    vs = json_field(doc, field)
    if not isinstance(vs, list):
        raise GraphFormatError(field, "expected a list of vertices")
    for i, v in enumerate(vs):
        if not is_vertex(v, n):
            raise GraphFormatError(f"{field}[{i}]", f"vertex {v!r} not in 0..{n - 1}")
    return vs


def _build_instance(spec: RunSpec) -> Instance:
    """Resolve the graph, servers, requests and decomposition of a run."""
    _at_least("--n", spec.n, 0)
    _at_least("--size", spec.size, 0)
    rng = SplitMix64(spec.seed)
    td = None
    if spec.graph:
        g = graph_from_json(_read(spec.graph))
        if spec.td:
            td = TreeDecomposition.from_json(_read(spec.td))
        if spec.instance:
            doc = parse_json(_read(spec.instance))
            init = _vertices(doc, "init_config", g.n)
            if not init:
                raise GraphFormatError("init_config", "expected at least one server")
            sigma = _vertices(doc, "sequence", g.n)
            params = {"source": spec.graph, "instance": spec.instance}
        else:
            init = _random_servers(rng, spec.k, g.n)
            sigma = random_requests(rng, spec.n, g.n)
            params = {"source": spec.graph}
    elif spec.family == "path-rounds":
        bits = spec.bits if spec.bits is not None else rng.bit_string(max(1, spec.n // 7))
        n_path = spec.size or 5
        g = path_graph(n_path)
        try:
            sigma = adversary.path_round_sequence(bits, n_path)
        except adversary.PathTooShort as exc:
            raise BadFlag("--size", str(exc)) from None
        except ValueError as exc:
            raise BadFlag("--bits", str(exc)) from None
        init = adversary.PATH_ROUND_INIT
        td = path_decomposition(n_path)
        params = {"bits": bits, "path_size": n_path}
    elif spec.family == "module":
        seqs = _seeded_valid_sequence(rng, spec.gamma, 1, spec.rounds)
        g = adversary.module_graph(spec.gamma)
        sigma = list(seqs.requests)
        init = adversary.perm_init(spec.gamma, 1)
        td = module_graph_decomposition(spec.gamma)
        params = {"gamma": spec.gamma, "rounds": spec.rounds, "perms": seqs.perms}
    elif spec.family == "gb":
        _at_least("--modules", spec.modules, 1)
        seqs = _seeded_valid_sequence(rng, spec.gamma, spec.modules, spec.rounds)
        g = adversary.gb_graph(spec.modules, spec.gamma)
        sigma = list(seqs.requests)
        init = adversary.perm_init(spec.gamma, spec.modules)
        td = gb_decomposition(spec.modules, spec.gamma)
        params = {
            "gamma": spec.gamma,
            "modules": spec.modules,
            "rounds": spec.rounds,
            "perms": seqs.perms,
        }
    elif spec.family == "random-ktree":
        n_vertices = spec.size or 20
        width = min(4, max(1, spec.k))
        if n_vertices <= width:
            raise BadFlag(
                "--size",
                f"a random partial {width}-tree needs at least {width + 1} "
                f"vertices, got {n_vertices}",
            )
        g, td = random_partial_ktree(rng, n_vertices, width)
        init = _random_servers(rng, spec.k, g.n)
        sigma = random_requests(rng, spec.n, g.n)
        params = {"n_vertices": n_vertices, "width": width}
    elif spec.family == "grid":
        side = spec.size or 4
        g = grid_graph(side, side)
        init = _random_servers(rng, spec.k, g.n)
        sigma = random_requests(rng, spec.n, g.n)
        params = {"side": side}
    else:
        raise BadFlag("--family", "pass --family or --graph")
    return Instance(g, tuple(init), list(sigma), td, params)


def _seeded_valid_sequence(rng: SplitMix64, gamma: int, m: int, rounds: int):
    _at_least("--gamma", gamma, 2)
    _at_least("--rounds", rounds, 0)
    perms = []
    for _ in range(rounds):
        row = []
        for _ in range(m):
            p1 = list(range(gamma))
            p2 = list(range(gamma))
            rng.shuffle(p1)
            rng.shuffle(p2)
            row.append((tuple(p1), tuple(p2)))
        perms.append(tuple(row))
    return adversary.valid_sequence(gamma, m, tuple(perms))


def _opt(g, init, sigma, dm):
    try:
        return opt_cost_dp(g, init, sigma, dm)
    except InstanceTooLarge:
        log.info("DP guard exceeded; falling back to min-cost flow")
        return opt_cost_flow(g, init, sigma, dm)


def _step_opt(spec: RunSpec, inst: Instance, dm, opt: Schedule):
    return opt.total_cost, True, {"schedule": opt.to_json()}, None, None


def _step_perm(spec: RunSpec, inst: Instance, dm, opt: Schedule):
    if spec.family not in ("module", "gb"):
        raise BadFlag("--algo", "perm needs --family module or gb")
    modules = spec.modules if spec.family == "gb" else 1
    seq = adversary.valid_sequence(spec.gamma, modules, inst.params["perms"])
    schedule = adversary.perm_algorithm(inst.g, seq, inst.init)
    ok = schedule.total_cost == opt.total_cost == len(inst.sigma)
    # PERM's schedule is the unique optimum iff the optimum is unique and
    # PERM's is a lazy schedule of that cost.
    try:
        opt_cost, count = count_optimal_schedules(inst.g, inst.init, inst.sigma, dm)
    except InstanceTooLarge:
        return schedule.total_cost, ok, {"unique_opt": None}, None, None
    try:
        validate_lazy_schedule(dm, inst.init, inst.sigma, schedule)
    except InvalidSchedule:
        unique = False
    else:
        unique = count == 1 and schedule.total_cost == opt_cost
    return schedule.total_cost, ok and unique, {"unique_opt": unique}, None, None


def _step_gpc(spec: RunSpec, inst: Instance, dm, opt: Schedule):
    g, init, sigma, td = inst.g, inst.init, inst.sigma, inst.td
    if td is None:
        raise BadFlag("--algo", "gpc needs a tree decomposition (--td or family)")
    check = verify_decomposition(g, td)
    if not check:
        flag = "--td" if spec.td else "--family"
        raise BadFlag(flag, f"decomposition invalid: {check.message}")
    red = reduce_height(td, g.n)
    tape = generate_advice(g, dm, red, init, sigma, opt)
    tape.rewind()
    run = run_online(g, dm, red, init, sigma, tape)
    extra = {
        "reduced_width": red.width,
        "reduced_height": red.height,
        "bit_budget_nominal": gpc_bit_budget_nominal(red, len(init), len(sigma)),
    }
    return run.online_cost, run.online_cost == opt.total_cost, extra, run, tape


def _step_spanner(spec: RunSpec, inst: Instance, dm, opt: Schedule):
    g, init, sigma = inst.g, inst.init, inst.sigma
    extra = {}
    if spec.spanners:
        system = system_from_json(g, _read(spec.spanners), dm)
    else:
        roots = random_distinct_vertices(SplitMix64(spec.seed ^ 0xB0F5), 2, g.n)
        trees = [shortest_path_tree(g, r) for r in roots]
        system = certify_min_stretch(dm, trees)
        extra["spanner_roots"] = roots
    extra.update(q=system.q, r=system.r)
    hp = [HeavyPathIndex(t) for t in system.trees]
    tape = generate_advice_spanner(g, dm, system, init, sigma, opt)
    tape.rewind()
    run = run_online_spanner(g, system, hp, init, sigma, tape)
    extra.update(suffix_bits=run.suffix_bits, labels=run.labels)
    ok = run.cost <= (system.q + system.r) * opt.total_cost
    return run.cost, ok, extra, run, tape


# Each algorithm step serves the instance and returns (online cost, its own
# pass condition, report extras, the tape run or None, the tape or None); a
# tape run also has to stay within its bit budget.
ALGOS = {
    "opt": _step_opt,
    "gpc": _step_gpc,
    "spanner": _step_spanner,
    "perm": _step_perm,
}


def cmd_run(spec: RunSpec) -> int:
    inst = _build_instance(spec)
    g, init, sigma, td = inst.g, inst.init, inst.sigma, inst.td
    dm = all_pairs_shortest_paths(g)
    opt_cost, opt = _opt(g, init, sigma, dm)
    log.info("instance: N=%d k=%d n=%d opt=%s", g.n, len(init), len(sigma), opt_cost)
    online_cost, ok, extra, run, tape = ALGOS[spec.algo](spec, inst, dm, opt)
    extra = _jsonable(extra)
    tape_dump = None
    if run is not None:
        ok = ok and run.bits_read <= run.bit_budget
        # the run spells every move in ints and str costs already, so the
        # thousands of move dicts skip _jsonable
        extra["moves"] = run.moves_json()
        tape_dump = tape.to_hex()
    results = {
        "opt_cost": opt_cost,
        "online_cost": online_cost,
        "ratio": _ratio(online_cost, opt_cost),
        "bits_read": run.bits_read if run else None,
        "bit_budget": run.bit_budget if run else None,
        "pass": ok,
    }

    instance_doc = {
        "family": spec.family,
        "params": _jsonable(inst.params),
        "seed": spec.seed,
        "N": g.n,
        "k": len(init),
        "init_config": list(init),
        "sequence": sigma,
    }
    if spec.dump_instance:
        with open(spec.dump_instance + ".graph.json", "w") as fh:
            fh.write(graph_to_json(g) + "\n")
        with open(spec.dump_instance + ".instance.json", "w") as fh:
            fh.write(_canonical(instance_doc))
    report = {
        "format_version": FORMAT_VERSION,
        # the output path is not part of the experiment identity
        "spec": {
            k: v for k, v in asdict(spec).items() if v is not None and k != "out"
        },
        "instance": instance_doc,
        "digests": {
            "graph": _digest(graph_to_json(g)),
            "instance": _digest(_canonical(instance_doc)),
            "td": _digest(_canonical(td.to_json())) if td is not None else None,
            "tape": tape_dump[0] if tape_dump else None,
        },
        "tape_bits": tape_dump[1] if tape_dump else None,
        "results": _jsonable(results),
        "extra": extra,
    }
    _emit(spec, report)
    return 0 if ok else 1


def _ratio(online, opt):
    if opt == 0:
        return None if online == 0 else "inf"
    return Fraction(online, opt)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return num_to_json(obj)


def _emit(spec: RunSpec, report: dict) -> None:
    if spec.format == "csv":
        res = report["results"]
        inst = report["instance"]
        row = {
            "instance_id": report["digests"]["instance"],
            "N": inst["N"],
            "k": inst["k"],
            "n": len(inst["sequence"]),
            "algo": report["spec"].get("algo", ""),
            "online_cost": res["online_cost"],
            "opt_cost": res["opt_cost"],
            "ratio": res["ratio"],
            "bits_read": res["bits_read"],
            "bit_budget": res["bit_budget"],
            "pass": str(res["pass"]).lower(),
        }
        text = ",".join(CSV_COLUMNS) + "\n"
        text += ",".join("" if row[c] is None else str(row[c]) for c in CSV_COLUMNS) + "\n"
    else:
        text = _canonical(report)
    if spec.out:
        with open(spec.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_bounds(args) -> int:
    rows = []
    if args.tau:
        rows.append("tau,bits,bits_per_request,bits_per_opt_cost")
        for tok in args.tau.split(","):
            tau = Fraction(tok)
            bits = adversary.sgkh_advice_bound(tau, args.n)
            rows.append(
                f"{tok},{bits:.6f},{adversary.sgkh_bound_per_request(tau):.6f},"
                f"{adversary.sgkh_bound_per_opt_cost(tau):.6f}"
            )
    elif args.alpha:
        rows.append("alpha,exact_bits,closed_form_bits")
        for tok in args.alpha.split(","):
            alpha = int(tok)
            exact, closed = adversary.treewidth_advice_bound(alpha, args.n)
            rows.append(f"{alpha},{exact:.6f},{closed:.6f}")
    else:
        raise BadFlag("--tau/--alpha", "pass one of them (a comma-separated list)")
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    g = graph_from_json(_read(args.graph))
    if args.td:
        td = TreeDecomposition.from_json(_read(args.td))
        check = verify_decomposition(g, td)
        if check:
            print(f"pass: width={td.width} height={td.height}")
            return 0
        print(f"fail: axiom {check.axiom}, witness {check.witness}: {check.message}")
        return 1
    if args.spanners:
        try:
            system = system_from_json(
                g, _read(args.spanners), all_pairs_shortest_paths(g)
            )
        except StretchClaimRejected as exc:
            print(f"fail: {exc}")
            return 1
        if system.q is None:
            print("fail: spanner file carries no (q, r) claim to verify")
            return 1
        print(f"pass: ({system.q}, {system.r})-stretch verified, mu={system.mu}")
        return 0
    raise BadFlag("--td/--spanners", "pass one of them")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kslab",
        description="k-server advice laboratory: run online algorithms "
        "against the exact offline optimum, evaluate bound functions, and "
        "verify decompositions and spanner systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="generate-advice / run-online / compare-to-OPT")
    run.add_argument("--graph", help="graph JSON file")
    run.add_argument(
        "--instance",
        "--seq",
        dest="instance",
        help="instance sidecar JSON holding init_config and sequence "
        "(with --graph)",
    )
    run.add_argument("--td", help="tree decomposition JSON file")
    run.add_argument("--spanners", help="spanner system JSON file")
    run.add_argument(
        "--family",
        choices=["path-rounds", "module", "gb", "random-ktree", "grid"],
        help="generated instance family",
    )
    run.add_argument("--gamma", type=int, default=2)
    run.add_argument("--modules", type=int, default=1)
    run.add_argument("--rounds", type=int, default=1)
    run.add_argument("--bits", help="round-type bit string for path-rounds")
    run.add_argument("--k", type=int, default=2, help="number of servers")
    run.add_argument("--n", type=int, default=10, help="request count")
    run.add_argument("--size", type=int, default=0, help="graph size parameter")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--algo", choices=list(ALGOS), default="opt")
    run.add_argument("--out", help="report file (default: stdout)")
    run.add_argument("--format", choices=["json", "csv"], default="json")
    run.add_argument(
        "--dump-instance",
        help="also write PREFIX.graph.json and PREFIX.instance.json",
    )

    bounds = sub.add_parser("bounds", help="advice lower-bound tables")
    bounds.add_argument("--tau", help="comma-separated ratios in (1, 5/4]")
    bounds.add_argument("--alpha", help="comma-separated even treewidths >= 4")
    bounds.add_argument("--n", type=int, default=10**6)
    bounds.add_argument("--out")

    ver = sub.add_parser("verify", help="check a decomposition or spanner system")
    ver.add_argument("--graph", required=True)
    ver.add_argument("--td")
    ver.add_argument("--spanners")
    return ap


def main(argv=None) -> int:
    """Run one command; an input file that is malformed, missing or
    unreadable, or a run argument outside its domain, is reported on one
    stderr line naming the field, the path or the flag, with exit status 2."""
    level = os.environ.get("KSL_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = make_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(RunSpec(**vars(args)))
        if args.command == "bounds":
            return cmd_bounds(args)
        return cmd_verify(args)
    except (GraphFormatError, BadFlag) as exc:
        print(f"kslab: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:  # not about a file the user named
            raise
        print(f"kslab: error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
