"""Experiment runner: seeded instances, online-vs-OPT pipelines, reports.

Reports are canonical JSON (sorted keys, no whitespace drift) or a single
CSV row, so identical run specs produce byte-identical files.  Set KSL_LOG
to a level name (DEBUG/INFO/WARNING/...) for progress logging on stderr;
`logging` is loaded only then, and a name that is not a level means
WARNING.

Start-up is part of every fresh `kslab` process, so the two modules that
only some commands need are imported where they are used: `spanner_cover`
where `_build_instance` builds a spanner run's system, in the spanner step
and in `verify --spanners`; `adversary` in the path-rounds/module/gb
families, perm and `bounds`.  The modules of the gpc pipeline are imported
at the top.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

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
    num_from_json,
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
from .tree_decomp import TreeDecomposition, reduce_height, verify_decomposition

if TYPE_CHECKING:
    from .spanner_cover import SpannerSystem

FORMAT_VERSION = 1
# the `kslab run` defaults of the flags that a family or an input file can
# leave unread, which `_build_instance` checks
RUN_DEFAULTS = {"gamma": 2, "modules": 1, "rounds": 1, "k": 2, "n": 10, "size": 0}
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


class BadFlag(ValueError):
    """A `kslab` argument missing or outside its domain, named by its flag."""

    def __init__(self, flag: str, message: str):
        super().__init__(f"{flag}: {message}")


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise BadFlag(flag, f"must be at least {low}, got {value}")


class Instance(NamedTuple):
    """Every input of a run: the graph, servers and requests, the structure
    the oracle reads and the family's params.  `td` is the decomposition, if
    any; `spanners` is a spanner run's system: a file's (q, r) claim, not
    yet certified, or the trees drawn from the seed, with no claim."""

    g: Graph
    init: tuple[int, ...]
    sigma: list[int]
    td: TreeDecomposition | None
    params: dict
    spanners: SpannerSystem | None = None


def _info(msg: str, *args) -> None:
    """Log msg % args at INFO on the "kslab" logger.  main() imports
    `logging` only when KSL_LOG is set; while no code has imported it, no
    handler exists that could print the record, so it is dropped."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("kslab").info(msg, *args)


class _Json(str):
    """Text already spelled as canonical JSON, which _canonical splices in
    as it stands."""


_encode = json.JSONEncoder(
    sort_keys=True,
    separators=(",", ":"),
    default=num_to_json,
    check_circular=False,
).encode


def _spell(obj) -> _Json:
    """obj as sorted, whitespace-free JSON, each Fraction spelled by
    num_to_json.  A str-keyed dict is spelled key by key, so a _Json value
    at any depth of dicts is spliced in unchanged; every other value goes
    through the one encoder.  obj is a tree built fresh for the output, so
    the encoder skips its check for cycles."""
    if type(obj) is _Json:
        return obj
    if type(obj) is dict:
        items = ",".join(f"{_encode(k)}:{_spell(v)}" for k, v in sorted(obj.items()))
        return _Json("{" + items + "}")
    return _Json(_encode(obj))


def _canonical(obj) -> str:
    """obj spelled by _spell, as a line."""
    return _spell(obj) + "\n"


def _array(items) -> _Json:
    """Canonical JSON texts joined into one JSON array."""
    return _Json("[" + ",".join(items) + "]")


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


def _build_instance(args: argparse.Namespace) -> Instance:
    """Decide every input of a run from its parsed `kslab run` arguments:
    the graph, servers, requests, decomposition and spanner system."""
    _at_least("--n", args.n, 0)
    _at_least("--size", args.size, 0)
    if args.graph and args.family:
        raise BadFlag("--family", "cannot be combined with --graph")
    if not args.graph:
        for flag, path in (("--instance", args.instance), ("--td", args.td)):
            if path:
                raise BadFlag(flag, "needs --graph")
    if args.bits is not None and args.family != "path-rounds":
        raise BadFlag("--bits", "needs --family path-rounds")
    changed = {f for f, d in RUN_DEFAULTS.items() if getattr(args, f) != d}
    if "modules" in changed and args.family != "gb":
        raise BadFlag("--modules", "needs --family gb")
    if args.family not in ("module", "gb") and changed & {"gamma", "rounds"}:
        flag = "--gamma" if "gamma" in changed else "--rounds"
        raise BadFlag(flag, "needs --family module or gb")
    sized = ("path-rounds", "random-ktree", "grid")
    if "size" in changed and args.family not in sized:
        raise BadFlag("--size", "needs --family path-rounds, random-ktree or grid")
    if args.spanners is not None and args.algo != "spanner":
        raise BadFlag("--spanners", "needs --algo spanner")
    if args.td is not None and args.algo != "gpc":
        raise BadFlag("--td", "needs --algo gpc")
    # --k and --n size the random servers and requests; where the input
    # fixes them, a changed value would only be recorded in the report
    fixed = args.instance or args.family in ("path-rounds", "module", "gb")
    source = "--instance" if args.instance else f"--family {args.family}"
    if "k" in changed and fixed:
        raise BadFlag("--k", f"{source} sets the servers")
    if "n" in changed and args.bits is not None:
        raise BadFlag("--n", "--bits sets the requests")
    if "n" in changed and fixed and args.family != "path-rounds":
        raise BadFlag("--n", f"{source} sets the requests")
    rng = SplitMix64(args.seed)
    td = init = sigma = None
    if args.graph:
        g = graph_from_json(_read(args.graph))
        if args.td:
            td = TreeDecomposition.from_json(_read(args.td))
        params = {"source": args.graph}
        if args.instance:
            doc = parse_json(_read(args.instance))
            init = _vertices(doc, "init_config", g.n)
            if not init:
                raise GraphFormatError("init_config", "expected at least one server")
            sigma = _vertices(doc, "sequence", g.n)
            params["instance"] = args.instance
    elif args.family == "path-rounds":
        from . import adversary

        bits = args.bits if args.bits is not None else rng.bit_string(max(1, args.n // 7))
        n_path = args.size or 5
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
    elif args.family in ("module", "gb"):
        from . import adversary

        gamma, m, rounds = args.gamma, args.modules, args.rounds
        _at_least("--modules", m, 1)
        _at_least("--gamma", gamma, 2)
        if gamma > GAMMA_MAX:
            raise BadFlag("--gamma", f"must be at most {GAMMA_MAX}, got {gamma}")
        _at_least("--rounds", rounds, 0)

        def shuffled():
            p = list(range(gamma))
            rng.shuffle(p)
            return tuple(p)

        perms = tuple(
            tuple((shuffled(), shuffled()) for _ in range(m)) for _ in range(rounds)
        )
        seq = adversary.valid_sequence(gamma, m, perms)
        sigma, init = seq.requests, adversary.perm_init(gamma, m)
        params = {"gamma": gamma, "rounds": rounds, "perms": seq.perms}
        if args.family == "module":
            g = adversary.module_graph(gamma)
            td = adversary.module_graph_decomposition(gamma)
        else:
            g = adversary.gb_graph(m, gamma)
            td = adversary.gb_decomposition(m, gamma)
            params["modules"] = m
    elif args.family == "random-ktree":
        n_vertices = args.size or 20
        width = min(4, max(1, args.k))
        if n_vertices <= width:
            raise BadFlag(
                "--size",
                f"a random partial {width}-tree needs at least {width + 1} "
                f"vertices, got {n_vertices}",
            )
        g, td = random_partial_ktree(rng, n_vertices, width)
        params = {"n_vertices": n_vertices, "width": width}
    elif args.family == "grid":
        side = args.size or 4
        g = grid_graph(side, side)
        params = {"side": side}
    else:
        raise BadFlag("--family", "pass --family or --graph")
    if init is None:
        if not 1 <= args.k <= g.n:
            raise BadFlag(
                "--k", f"need 1..{g.n} servers on {g.n} vertices, got {args.k}"
            )
        init = random_distinct_vertices(rng, args.k, g.n)
        sigma = random_requests(rng, args.n, g.n)
    if args.algo == "gpc":
        if td is None:
            raise BadFlag("--algo", "gpc needs a tree decomposition (--td or family)")
        check = verify_decomposition(g, td)
        if not check:
            flag = "--td" if args.td else "--family"
            raise BadFlag(flag, f"decomposition invalid: {check.message}")
    if args.algo == "perm" and args.family not in ("module", "gb"):
        raise BadFlag("--algo", "perm needs --family module or gb")
    spanners = None
    if args.algo == "spanner":
        from . import spanner_cover

        if args.spanners:
            spanners = spanner_cover.system_from_json(g, _read(args.spanners))
            if spanners.q is None:
                raise BadFlag("--spanners", "spanner file carries no (q, r) claim")
        else:
            roots = random_distinct_vertices(SplitMix64(args.seed ^ 0xB0F5), 2, g.n)
            trees = tuple(spanner_cover.shortest_path_tree(g, r) for r in roots)
            spanners = spanner_cover.SpannerSystem(trees)
    return Instance(g, tuple(init), list(sigma), td, params, spanners)


def _opt(g, init, sigma, dm):
    try:
        return opt_cost_dp(g, init, sigma, dm)
    except InstanceTooLarge:
        _info("DP guard exceeded; falling back to min-cost flow")
        return opt_cost_flow(g, init, sigma, dm)


def _step_opt(inst: Instance, dm, opt: Schedule):
    moves = _array(
        f'{{"cost":{cost if type(cost) is int else _encode(cost)},"from":{src},'
        f'"server":{server},"t":{t},"to":{dst}}}'
        for t, server, src, dst, cost in opt.moves
    )
    schedule = {"total_cost": opt.total_cost, "moves": moves}
    return opt.total_cost, True, {"schedule": schedule}, None, None


def _step_perm(inst: Instance, dm, opt: Schedule):
    from . import adversary

    params = inst.params
    seq = adversary.valid_sequence(
        params["gamma"], params.get("modules", 1), params["perms"]
    )
    schedule = adversary.perm_algorithm(inst.g, seq, inst.init)
    ok = schedule.total_cost == opt.total_cost == len(inst.sigma)
    # PERM's schedule is the unique optimum iff the optimum is unique and
    # PERM's is a lazy schedule of that cost.  The DP route counted the
    # optima on its pass; the flow route's schedule needs a counting pass.
    count = opt.optimal_count
    if count is None:
        try:
            _, count = count_optimal_schedules(inst.g, inst.init, inst.sigma, dm)
        except InstanceTooLarge:
            return schedule.total_cost, ok, {"unique_opt": None}, None, None
    try:
        validate_lazy_schedule(dm, inst.init, inst.sigma, schedule)
    except InvalidSchedule:
        unique = False
    else:
        unique = count == 1 and schedule.total_cost == opt.total_cost
    return schedule.total_cost, ok and unique, {"unique_opt": unique}, None, None


def _step_gpc(inst: Instance, dm, opt: Schedule):
    g, init, sigma = inst.g, inst.init, inst.sigma
    red = reduce_height(inst.td, g.n)
    tape = generate_advice(g, dm, red, init, sigma, opt)
    run = run_online(g, dm, red, init, sigma, tape)
    extra = {
        "reduced_width": red.width,
        "reduced_height": red.height,
        "bit_budget_nominal": gpc_bit_budget_nominal(red, len(init), len(sigma)),
        "moves": _array(
            f'{{"cost":"{cost!s}","from":{src},"parked_at":{parked_at},'
            f'"request":{request},"server":{server},"t":{t}}}'
            for t, request, server, src, parked_at, cost, _ in run.log
        ),
    }
    return run.online_cost, run.online_cost == opt.total_cost, extra, run, tape


def _step_spanner(inst: Instance, dm, opt: Schedule):
    from .spanner_cover import (
        SpannerSystem,
        StretchClaimRejected,
        certify_system,
        generate_advice_spanner,
        measure_min_stretch,
        run_online_spanner,
    )

    g, init, sigma, system = inst.g, inst.init, inst.sigma, inst.spanners
    extra = {}
    if system.q is None:
        q, _ = measure_min_stretch(g, dm, system)
        system = SpannerSystem(system.trees, q, 0)
        extra["spanner_roots"] = [t.root for t in system.trees]
    else:
        try:
            system = certify_system(g, dm, system.trees, system.q, system.r)
        except StretchClaimRejected as exc:
            raise BadFlag("--spanners", str(exc)) from None
    extra.update(q=system.q, r=system.r)
    tape = generate_advice_spanner(g, dm, system, init, sigma, opt)
    paths = [t.paths for t in system.trees]
    run = run_online_spanner(g, system, paths, init, sigma, tape)
    extra.update(suffix_bits=run.suffix_bits, labels=run.labels)
    extra["moves"] = _array(
        f'{{"cost":"{cost!s}","from":{src},"relay":{relay},"request":{request},'
        f'"server":{server},"t":{t},"tree":{tree}}}'
        for t, request, server, tree, src, relay, cost in run.log
    )
    ok = run.cost <= (system.q + system.r) * opt.total_cost
    return run.cost, ok, extra, run, tape


# Each algorithm step reads only the instance, its metric and OPT's
# schedule, serves the instance and returns (online cost, its own
# pass condition, report extras, the tape run or None, the tape or None); a
# tape run also has to stay within its bit budget.  Each step writes its
# move list into the extras as one _Json text, spelled straight from its
# log by one template with the keys in sorted order, ints bare.  Format
# version 1 writes every exact number as num_to_json spells it, with one
# exception: a gpc or spanner move's cost is str(cost), so an integral one
# is "5".
ALGOS = {
    "opt": _step_opt,
    "gpc": _step_gpc,
    "spanner": _step_spanner,
    "perm": _step_perm,
}


def cmd_run(args: argparse.Namespace) -> int:
    inst = _build_instance(args)
    g, init, sigma, td = inst.g, inst.init, inst.sigma, inst.td
    dm = all_pairs_shortest_paths(g)
    opt_cost, opt = _opt(g, init, sigma, dm)
    _info("instance: N=%d k=%d n=%d opt=%s", g.n, len(init), len(sigma), opt_cost)
    online_cost, ok, extra, run, tape = ALGOS[args.algo](inst, dm, opt)
    tape_dump = None
    if run is not None:
        ok = ok and run.bits_read <= run.bit_budget
        tape_dump = tape.to_hex()
    results = {
        "opt_cost": opt_cost,
        "online_cost": online_cost,
        "ratio": _ratio(online_cost, opt_cost),
        "bits_read": run.bits_read if run else None,
        "bit_budget": run.bit_budget if run else None,
        "pass": ok,
    }
    # A run's memory peak is in its step, which holds the log and the move
    # text at once; OPT's schedule, the replay's log, the tape and the
    # metric are let go before the report around that text is spelled.
    del dm, opt, run, tape

    instance_doc = {
        "family": args.family,
        "params": inst.params,
        "seed": args.seed,
        "N": g.n,
        "k": len(init),
        "init_config": list(init),
        "sequence": sigma,
    }
    instance_json = _spell(instance_doc)
    if args.dump_instance:
        with open(args.dump_instance + ".graph.json", "w") as fh:
            fh.write(graph_to_json(g) + "\n")
        with open(args.dump_instance + ".instance.json", "w") as fh:
            fh.write(instance_json + "\n")
    report = {
        "format_version": FORMAT_VERSION,
        # the output paths are not part of the experiment identity
        "spec": {
            k: v
            for k, v in vars(args).items()
            if v is not None and k not in ("out", "dump_instance")
        },
        "instance": instance_json,
        "digests": {
            "graph": _digest(graph_to_json(g)),
            "instance": _digest(instance_json + "\n"),
            "td": _digest(_canonical(td.to_json())) if td is not None else None,
            "tape": tape_dump[0] if tape_dump else None,
        },
        "tape_bits": tape_dump[1] if tape_dump else None,
        "results": results,
        "extra": extra,
    }
    _emit(args, report, instance_doc)
    return 0 if ok else 1


def _ratio(online, opt):
    if opt == 0:
        return None if online == 0 else "inf"
    return Fraction(online, opt)


def _emit(args: argparse.Namespace, report: dict, inst: dict) -> None:
    if args.format == "csv":
        res = report["results"]
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
    _write(args.out, text)


def _write(out: str | None, text: str) -> None:
    """Write a command's output to the --out file, or to stdout without one."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bound_arg(flag: str, tok: str):
    """One entry of a comma-separated --tau/--alpha list, as an exact number."""
    try:
        return num_from_json(tok, flag)
    except GraphFormatError:
        raise BadFlag(flag, f"bad number {tok!r}") from None


# log2(gamma!) is a sum of gamma = alpha/2 logs; this keeps a row near 1 s
ALPHA_MAX = 2 * 10**7
# a module has 2(gamma + 2^gamma - 1) vertices: 131,102 at gamma = 16
GAMMA_MAX = 16


def cmd_bounds(args) -> int:
    from . import adversary

    _at_least("--n", args.n, 0)
    if args.tau and args.alpha:
        raise BadFlag("--tau/--alpha", "pass only one of them")
    rows = []
    if args.tau:
        rows.append("tau,bits,bits_per_request,bits_per_opt_cost")
        for tok in args.tau.split(","):
            tau = _bound_arg("--tau", tok)
            try:
                bits = adversary.sgkh_advice_bound(tau, args.n)
            except adversary.TauOutOfRange as exc:
                raise BadFlag("--tau", str(exc)) from None
            rows.append(
                f"{tok},{bits:.6f},{adversary.sgkh_bound_per_request(tau):.6f},"
                f"{adversary.sgkh_bound_per_opt_cost(tau):.6f}"
            )
    elif args.alpha:
        rows.append("alpha,exact_bits,closed_form_bits")
        for tok in args.alpha.split(","):
            alpha = _bound_arg("--alpha", tok)
            if alpha > ALPHA_MAX:
                raise BadFlag("--alpha", f"must be at most {ALPHA_MAX}, got {alpha}")
            try:
                exact, closed = adversary.treewidth_advice_bound(alpha, args.n)
            except ValueError as exc:
                raise BadFlag("--alpha", str(exc)) from None
            rows.append(f"{alpha},{exact:.6f},{closed:.6f}")
    else:
        raise BadFlag("--tau/--alpha", "pass one of them (a comma-separated list)")
    _write(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_verify(args) -> int:
    # the flags are checked before any file is read, as `run` does
    if args.td and args.spanners:
        raise BadFlag("--td/--spanners", "pass only one of them")
    if not (args.td or args.spanners):
        raise BadFlag("--td/--spanners", "pass one of them")
    g = graph_from_json(_read(args.graph))
    if args.td:
        td = TreeDecomposition.from_json(_read(args.td))
        check = verify_decomposition(g, td)
        if check:
            print(f"pass: width={td.width} height={td.height}")
            return 0
        print(f"fail: axiom {check.axiom}, witness {check.witness}: {check.message}")
        return 1
    from . import spanner_cover

    system = spanner_cover.system_from_json(g, _read(args.spanners))
    if system.q is None:
        raise BadFlag("--spanners", "spanner file carries no (q, r) claim")
    dm = all_pairs_shortest_paths(g)
    try:
        spanner_cover.certify_system(g, dm, system.trees, system.q, system.r)
    except spanner_cover.StretchClaimRejected as exc:
        print(f"fail: {exc}")
        return 1
    print(f"pass: ({system.q}, {system.r})-stretch verified, mu={system.mu}")
    return 0


# Built on first use and kept: argparse's parser holds reference cycles, so
# a parser per run would leave its garbage to a full collection.
@cache
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
    run.add_argument("--gamma", type=int, default=RUN_DEFAULTS["gamma"])
    run.add_argument("--modules", type=int, default=RUN_DEFAULTS["modules"])
    run.add_argument("--rounds", type=int, default=RUN_DEFAULTS["rounds"])
    run.add_argument("--bits", help="round-type bit string for path-rounds")
    run.add_argument(
        "--k", type=int, default=RUN_DEFAULTS["k"], help="number of servers"
    )
    run.add_argument(
        "--n", type=int, default=RUN_DEFAULTS["n"], help="request count"
    )
    run.add_argument(
        "--size", type=int, default=RUN_DEFAULTS["size"], help="graph size parameter"
    )
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
    level = os.environ.get("KSL_LOG")
    if level:
        import logging

        value = logging.getLevelName(level.upper())
        logging.basicConfig(level=value if isinstance(value, int) else logging.WARNING)
    args = make_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
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
