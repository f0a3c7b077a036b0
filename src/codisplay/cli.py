"""Command-line harness: generate, solve, replay, evaluate, compare, export."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import baselines, core, lp, oracle, rounding
from .core import Configuration, DomainError, Instance
from .lp import FractionalSolution


def _load_frac(path) -> FractionalSolution:
    d = core.load_json(path)
    if isinstance(d, dict) and "x" not in d:
        raise core.StructuralError(f"{path}: missing key 'x'")
    x = d["x"] if isinstance(d, dict) else d
    frac = FractionalSolution(x=core.array_field(x, float, f"{path}: x"))
    frac.check()
    return frac


def _load_sequence(path) -> list[rounding.FocalParams]:
    seq = core.load_json(path)
    try:
        return [rounding.FocalParams(core.int_field(f["c"], f"{path}: c"),
                                     core.int_field(f["s"], f"{path}: s"),
                                     core.float_field(f["alpha"], f"{path}: alpha"))
                for f in seq]
    except (KeyError, TypeError) as exc:
        raise core.StructuralError(f"{path}: bad focal-parameter entry ({exc})") from None


def _load_partition(path) -> list[list[int]]:
    parts = core.load_json(path)
    if not (isinstance(parts, list) and all(
            isinstance(p, list) and all(type(u) is int for u in p) for p in parts)):
        raise core.StructuralError(f"{path}: partition must be a list of lists of user indices")
    return parts


def _work_instance(inst: Instance) -> Instance:
    return inst if inst.lam == 0.5 else core.scale_preferences(inst)


def _relaxation(inst: Instance, st: bool = False) -> tuple[FractionalSolution, float]:
    """The compact relaxation, solved and expanded; for the ``-st`` algorithms
    under the instance's size cap, which makes it the teleportation bound."""
    work = _work_instance(inst)
    if not st:
        return lp.solve_fractional(work)
    _require_st(work)
    return lp.solve_fractional(work, work.st.M)


def _require_st(inst: Instance) -> None:
    if inst.st is None:
        raise DomainError("instance has no teleportation parameters")


ALGOS = ("avg", "avgd", "per", "group", "sub-friend", "sub-pref", "indep", "oracle",
         "avg-st", "avgd-st")
LP_ALGOS = frozenset({"avg", "avgd", "indep", "avg-st", "avgd-st"})  # round the factors
SEED_FREE = frozenset({"avgd", "avgd-st", "per", "group", "sub-friend", "oracle"})
# the algorithms each optional `solve` flag applies to; the defaults are _run_algo's
SOLVE_FLAGS = {
    "sampler": {"avg", "avg-st"},
    "repeats": {"avg"},
    "r": {"avgd", "avgd-st"},
    "frac": LP_ALGOS,
    "groups": {"sub-friend", "sub-pref"},
    "partition": {"sub-friend", "sub-pref"},
}
# the LP builder of each `export --model`, looked up in `lp` when called, so
# that a wrapper set on the module attribute is the one that runs
EXPORT_BUILDERS = {"full": "build_full_lp", "simp": "build_simplified_lp", "st": "build_st_lp"}


def _reject_unused(option: str, algos: list[str], given: dict) -> None:
    """Fail on every given flag (not None) that none of ``algos`` takes."""
    unused = [f"--{flag}" for flag, value in given.items()
              if value is not None and not SOLVE_FLAGS[flag].intersection(algos)]
    if unused:
        raise DomainError(f"{option} {','.join(algos)} takes no {', '.join(unused)}")


def _run_algo(inst: Instance, algo: str, frac: FractionalSolution | None = None,
              seed: int | None = 0, sampler: str = "uniform", r: float = 0.25,
              repeats: int = 1, groups: int = 2,
              partition: list[list[int]] | None = None) -> tuple[Configuration, dict]:
    """Returns (configuration, info).  The configuration may be infeasible for indep.

    The algorithms in ``LP_ALGOS`` round ``frac``; ``sub-*`` split the users
    into ``partition`` or, without one, into ``groups`` automatic groups.
    """
    info: dict = {"algo": algo}
    work = _work_instance(inst) if algo in LP_ALGOS else inst
    if algo == "avg":
        if repeats > 1:
            cfg = rounding.best_of(work, frac, seeds=range(seed, seed + repeats),
                                   sampler=sampler)
            info["repeats"] = repeats
        else:
            stats: dict = {}
            cfg = rounding.avg(work, frac, rng_seed=seed, sampler=sampler, stats=stats)
            info.update(diagnostics=stats, iterations=stats.get("iterations"))
        info.update(seed=seed, sampler=sampler)
        return cfg, info
    if algo == "avgd":
        trace: list = []
        cfg = rounding.avgd(work, frac, r=r, trace=trace)
        info.update(r=r, iterations=len(trace))
        return cfg, info
    if algo == "indep":
        info.update(seed=seed)
        return baselines.independent_rounding(work, frac, rng_seed=seed), info
    if algo in ("avg-st", "avgd-st"):
        deterministic = algo == "avgd-st"
        cfg = rounding.avg_st(work, frac, rng_seed=seed, sampler=sampler,
                              deterministic=deterministic, r=r)
        info.update(seed=seed, deterministic=deterministic)
        info.update({"r": r} if deterministic else {"sampler": sampler})
        return cfg, info
    if algo == "per":
        return baselines.per_topk(inst), info
    if algo == "group":
        return baselines.group_topk(inst), info
    if algo in ("sub-friend", "sub-pref"):
        if partition is None:
            mode = "friendship" if algo == "sub-friend" else "preference"
            partition = baselines.auto_partition(inst, mode, groups, seed=seed)
        info["partition"] = [list(map(int, p)) for p in partition]
        return baselines.subgroup_static(inst, partition), info
    if algo == "oracle":
        cfg, _ = (oracle.brute_force_st(inst) if inst.st is not None
                  else oracle.brute_force(inst, mode="canonical"))
        return cfg, info
    raise DomainError(f"unknown algorithm {algo!r}")


def _report(inst: Instance, cfg: Configuration) -> dict:
    """The `core.metrics` report of a feasible configuration, under ``feasible``.

    An infeasible configuration gets its violation count and the plain
    objectives: no teleportation discount, no other metric.
    """
    violations = core.validate(cfg, inst)
    if not violations:
        return {"feasible": True, **core.metrics(inst, cfg).to_dict()}
    parts = core.objective_parts(inst, cfg.assign, 0.0)
    return {
        "feasible": False,
        "violations": len(violations),
        "objective_canonical": core.objective_value(inst, *parts, "canonical"),
        "objective_unit_sum": core.objective_value(inst, *parts, "unit_sum"),
    }


def _summary(algo: str, mode: str, rep: dict, runtime_ms: float, seed) -> str:
    return (f"{algo},{mode},{rep['objective_canonical']:.9g},"
            f"{rep['objective_unit_sum']:.9g},{runtime_ms:.1f},{seed}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    kind = args.kind
    if kind == "random":
        inst = oracle.gen_random(args.n, args.m, args.k, edge_prob=args.edge_prob,
                                 seed=args.seed, d_tel=args.d_tel, m_cap=args.cap)
    elif kind == "lemma1":
        inst = oracle.gen_lemma1(args.n, args.m, args.k, tau=args.tau)
    elif kind == "gap-g":
        inst = oracle.gen_gap_g(args.n, args.k)
    elif kind == "gap-p":
        inst = oracle.gen_gap_p(args.n, args.k, eps=args.eps)
    else:
        raise DomainError(f"unknown kind {kind!r}")
    core.dump_json(core.instance_to_dict(inst), args.out)
    print(f"gen,{kind},n={inst.n},m={inst.m},k={inst.k},edges={inst.num_edges},seed={args.seed}")
    return 0


def cmd_solve(args) -> int:
    if args.seed < 0:  # refused for every algorithm, drawn from or not
        raise DomainError(f"seed must be a nonnegative integer, got {args.seed}")
    _reject_unused("--algo", [args.algo], {flag: getattr(args, flag) for flag in SOLVE_FLAGS})
    if args.groups is not None and args.partition is not None:
        raise DomainError(f"--algo {args.algo} takes --groups or --partition, not both")
    if args.repeats is not None and args.repeats < 1:
        raise DomainError(f"--repeats must be >= 1, got {args.repeats}")
    inst = core.instance_from_dict(core.load_json(args.infile))
    frac = None
    if args.algo in LP_ALGOS:  # the factors in the --frac file or the relaxation's
        frac = (_load_frac(args.frac) if args.frac
                else _relaxation(inst, st=args.algo.endswith("-st"))[0])
    partition = _load_partition(args.partition) if args.partition else None
    opts = {flag: getattr(args, flag) for flag in ("sampler", "r", "repeats", "groups")
            if getattr(args, flag) is not None}
    t0 = time.perf_counter()  # runtime_ms times the algorithm alone, as in `compare`
    cfg, info = _run_algo(inst, args.algo, frac, seed=args.seed, partition=partition, **opts)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    rep = _report(inst, cfg)
    mode = info.get("sampler") or (f"r={info['r']}" if "r" in info else "-")
    sol = {
        "assign": cfg.assign.tolist(),
        "feasible": rep["feasible"],
        "violations": rep.get("violations", 0),
        "objective_canonical": rep["objective_canonical"],
        "objective_unit_sum": rep["objective_unit_sum"],
        "runtime_ms": runtime_ms,
        **info,
    }
    if args.out:
        core.dump_json(sol, args.out)
    print(_summary(args.algo, mode, rep, runtime_ms, info.get("seed", "-")))
    return 0


def cmd_replay(args) -> int:
    inst = core.instance_from_dict(core.load_json(args.infile))
    work = _work_instance(inst)
    frac = _load_frac(args.frac)
    seq = _load_sequence(args.seq)
    cfg = rounding.avg_replay(work, frac, seq)
    rep = _report(inst, cfg)
    core.dump_json({
        "assign": cfg.assign.tolist(),
        "feasible": rep["feasible"],
        "objective_canonical": rep["objective_canonical"],
        "objective_unit_sum": rep["objective_unit_sum"],
        "algo": "replay",
        "steps": len(seq),
    }, args.out)
    print(_summary("replay", f"steps={len(seq)}", rep, 0.0, "-"))
    return 0


def cmd_eval(args) -> int:
    inst = core.instance_from_dict(core.load_json(args.infile))
    sol = core.load_json(args.sol)
    if not isinstance(sol, dict) or "assign" not in sol:
        raise core.StructuralError(f"{args.sol}: missing key 'assign'")
    assign = core.array_field(sol["assign"], np.int64, f"{args.sol}: assign")
    if assign.size and (assign.min() < 0 or assign.max() >= inst.m):
        raise core.StructuralError(f"{args.sol}: assign holds an item outside [0, {inst.m})")
    text = json.dumps(_report(inst, Configuration(assign=assign)), indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


# metric columns in the comparison table; objectives already lead every row
_COMPARE_METRIC_FIELDS = [
    f for f in core.MetricsReport.CSV_FIELDS
    if f not in ("objective_canonical", "objective_unit_sum")
]


def _compare_cell(payload) -> list:
    """The objective, runtime_ms and metric columns of one run of an algorithm."""
    inst, algo, seed, opts, frac = payload
    t0 = time.perf_counter()
    cfg, _ = _run_algo(inst, algo, frac, seed=seed, **opts)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    rep = _report(inst, cfg)
    # an infeasible assignment's report has no metrics: those cells stay blank
    return ([f"{rep['objective_canonical']:.9g}", f"{rep['objective_unit_sum']:.9g}",
             f"{runtime_ms:.1f}"] + [rep.get(f, "") for f in _COMPARE_METRIC_FIELDS])


def cmd_compare(args) -> int:
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")
    algos = [a for a in args.algos.split(",") if a]
    unknown = [a for a in algos if a not in ALGOS]
    if unknown:
        raise DomainError(f"unknown algorithm {unknown[0]!r}")
    _reject_unused("--algos", algos, {"groups": args.groups})
    seeds = _parse_seeds(args.seeds)
    if not algos or not seeds:
        raise DomainError(f"no rows to compare: --algos {args.algos!r}, --seeds {args.seeds!r}")
    opts = {} if args.groups is None else {"groups": args.groups}
    inst = core.instance_from_dict(core.load_json(args.infile))
    tele = any(a.endswith("-st") for a in algos)
    if tele:  # refused before any solve, as in `solve` and `frac`
        _require_st(inst)
    # each relaxation is solved once here and its factors travel with the
    # cells, so a cell's runtime_ms times the rounding alone; lambda = 0 has
    # no relaxation, so its LP-bound cells stay empty
    frac = st_frac = None
    bound_cols = ["", ""]
    if inst.lam > 0 or LP_ALGOS.intersection(algos):
        frac, lp_bound = _relaxation(inst)  # at lambda = 0 an LP algorithm fails as in `solve`
        st_frac = _relaxation(inst, st=True)[0] if tele else None
        bound_cols = [f"{lp_bound:.9g}", f"{inst.lam * lp_bound:.9g}"]
    header = (["algo", "seed", "objective_canonical", "objective_unit_sum", "runtime_ms"]
              + _COMPARE_METRIC_FIELDS
              + ["lp_bound_unit_sum", "lp_bound_canonical"])
    # a row per (algo, seed); each distinct cell runs once, and a SEED_FREE
    # algorithm's one run (seed None) fills its rows for every seed
    rows = [(a, s, (a, None if a in SEED_FREE else s)) for a in algos for s in seeds]
    keys = list(dict.fromkeys(key for _, _, key in rows))
    cells = [(inst, algo, seed, opts, st_frac if algo.endswith("-st") else frac)
             for algo, seed in keys]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            columns = dict(zip(keys, pool.map(_compare_cell, cells)))
    else:
        columns = {key: _compare_cell(cell) for key, cell in zip(keys, cells)}
    out = sys.stdout if not args.out else open(args.out, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for algo, seed, key in rows:
            writer.writerow([algo, seed] + columns[key] + bound_cols)
    finally:
        if args.out:
            out.close()
    return 0


def _parse_seeds(text: str) -> list[int]:
    try:
        lo, dots, hi = text.partition("..")
        seeds = (list(range(int(lo), int(hi) + 1)) if dots
                 else [int(s) for s in text.split(",") if s])
    except ValueError:
        raise DomainError(f"--seeds must be a comma-separated integer list or lo..hi, "
                          f"got {text!r}") from None
    if min(seeds, default=0) < 0:  # refused for every algorithm, drawn from or not
        raise DomainError(f"seed must be a nonnegative integer, got {min(seeds)}")
    return seeds


def cmd_export(args) -> int:
    inst = core.instance_from_dict(core.load_json(args.infile))
    mdl = getattr(lp, EXPORT_BUILDERS[args.model])(_work_instance(inst))
    text = lp.export_model(mdl, integrality=args.integrality == "binary")
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"export,{args.model},{args.integrality},vars={mdl.num_vars},rows={mdl.num_rows}")
    return 0


def cmd_frac(args) -> int:
    """Solve the relaxation and write the per-slot factors to a file."""
    inst = core.instance_from_dict(core.load_json(args.infile))
    frac = _relaxation(inst, st=args.model == "st")[0]
    core.dump_json({"x": frac.x.tolist()}, args.out)
    print(f"frac,{args.model},shape={frac.x.shape}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="codisplay",
                                 description="Group item-display configuration solver")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--kind", required=True, choices=["random", "lemma1", "gap-g", "gap-p"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, default=0)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--edge-prob", type=float, default=0.5)
    g.add_argument("--tau", type=float, default=1.0)
    g.add_argument("--eps", type=float, default=0.01)
    g.add_argument("--d-tel", type=float, default=None)
    g.add_argument("--cap", type=int, default=None, help="subgroup size cap M")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="run one solver on an instance")
    s.add_argument("--algo", required=True, choices=ALGOS)
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--seed", type=int, default=0)
    # None marks a flag as not given: each is checked against SOLVE_FLAGS
    s.add_argument("--sampler", choices=["uniform", "advanced"], default=None)
    s.add_argument("--r", type=float, default=None)
    s.add_argument("--repeats", type=int, default=None)
    s.add_argument("--groups", type=int, default=None)
    s.add_argument("--partition", default=None)
    s.add_argument("--frac", default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_solve)

    rp = sub.add_parser("replay", help="apply a recorded focal-parameter sequence")
    rp.add_argument("--in", dest="infile", required=True)
    rp.add_argument("--frac", required=True)
    rp.add_argument("--seq", required=True)
    rp.add_argument("--out", required=True)
    rp.set_defaults(func=cmd_replay)

    ev = sub.add_parser("eval", help="metrics report for a solution file")
    ev.add_argument("--in", dest="infile", required=True)
    ev.add_argument("--sol", required=True)
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_eval)

    cp = sub.add_parser("compare", help="CSV table over algorithms and seeds")
    cp.add_argument("--in", dest="infile", required=True)
    cp.add_argument("--algos", required=True)
    cp.add_argument("--seeds", default="0")
    cp.add_argument("--groups", type=int, default=None)
    cp.add_argument("--jobs", type=int, default=1)
    cp.add_argument("--out", default=None)
    cp.set_defaults(func=cmd_compare)

    ex = sub.add_parser("export", help="write a CPLEX LP-format model file")
    ex.add_argument("--in", dest="infile", required=True)
    ex.add_argument("--model", choices=list(EXPORT_BUILDERS), default="full")
    ex.add_argument("--integrality", choices=["relaxed", "binary"], default="relaxed")
    ex.add_argument("--out", required=True)
    ex.set_defaults(func=cmd_export)

    fr = sub.add_parser("frac", help="solve the relaxation and save the factors")
    fr.add_argument("--in", dest="infile", required=True)
    fr.add_argument("--model", choices=["simp", "st"], default="simp")
    fr.add_argument("--out", required=True)
    fr.set_defaults(func=cmd_frac)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parsing leaves it as
    it was, so every `main` call reuses it instead of building the seven
    subcommand parsers again."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe then fails here, not at interpreter exit
        return code
    except (DomainError, core.StructuralError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away (``codisplay eval ... | head -1``): send what is
        # still buffered to devnull, so that the exit-time flush cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
