"""Command-line harness: generate, solve, replay, evaluate, compare, export."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import baselines, core, lp, oracle, rounding
from .core import Configuration, DomainError, Instance, RawAssignment
from .lp import FractionalSolution


def _write_frac(frac: FractionalSolution, path) -> None:
    core.dump_json({"x": frac.x.tolist()}, path)


def _load_frac(path) -> FractionalSolution:
    d = core.load_json(path)
    if isinstance(d, dict) and "x" not in d:
        raise core.StructuralError(f"{path}: missing key 'x'")
    x = d["x"] if isinstance(d, dict) else d
    return FractionalSolution(x=core.array_field(x, float, f"{path}: x"))


def _load_sequence(path) -> list[rounding.FocalParams]:
    seq = core.load_json(path)
    try:
        return [rounding.FocalParams(core.int_field(f["c"], f"{path}: c"),
                                     core.int_field(f["s"], f"{path}: s"), float(f["alpha"]))
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


def _solve_st(work: Instance) -> FractionalSolution:
    """Per-slot factors of the teleportation relaxation."""
    res = lp.solve_lp(lp.build_st_lp(work))
    if res.status != "optimal":
        raise DomainError(f"relaxation status: {res.status}")
    return lp.frac_from_full_result(res, work)


def _fractional_for(inst: Instance, args, st: bool) -> FractionalSolution:
    if getattr(args, "frac", None):
        frac = _load_frac(args.frac)
        frac.check()
        return frac
    work = _work_instance(inst)
    if st:
        return _solve_st(work)
    frac, _ = lp.solve_fractional(work)
    return frac


def _run_algo(inst: Instance, algo: str, args,
              frac: FractionalSolution | None = None) -> tuple[np.ndarray, dict]:
    """Returns (assignment, info).  The assignment may be infeasible for indep.

    ``frac`` is the relaxation's factors when the caller already holds them;
    otherwise the LP-based algorithms load or solve them here.
    """
    info: dict = {"algo": algo}
    seed = getattr(args, "seed", 0)
    sampler = getattr(args, "sampler", "uniform")
    r = getattr(args, "r", 0.25)
    if algo in ("avg", "avgd", "indep", "avg-st", "avgd-st"):
        work = _work_instance(inst)
        if frac is None:
            frac = _fractional_for(inst, args, st=algo.endswith("-st"))
        if algo == "avg":
            repeats = getattr(args, "repeats", 1) or 1
            if repeats > 1:
                cfg = rounding.best_of(work, frac, seeds=range(seed, seed + repeats),
                                       sampler=sampler)
                info["repeats"] = repeats
            else:
                stats: dict = {}
                cfg = rounding.avg(work, frac, rng_seed=seed, sampler=sampler,
                                   stats=stats)
                info["diagnostics"] = stats
                info["iterations"] = stats.get("iterations")
            info.update(seed=seed, sampler=sampler)
            return cfg.assign, info
        if algo == "avgd":
            trace: list = []
            cfg = rounding.avgd(work, frac, r=r, trace=trace)
            info.update(r=r, iterations=len(trace))
            return cfg.assign, info
        if algo == "indep":
            raw = baselines.independent_rounding(work, frac, rng_seed=seed)
            info.update(seed=seed)
            return raw.assign, info
        deterministic = algo == "avgd-st"
        cfg = rounding.avg_st(work, frac, rng_seed=seed, sampler=sampler,
                              deterministic=deterministic, r=r)
        info.update(seed=seed, deterministic=deterministic)
        if deterministic:
            info["r"] = r
        else:
            info["sampler"] = sampler
        return cfg.assign, info
    if algo == "per":
        return baselines.per_topk(inst).assign, info
    if algo == "group":
        return baselines.group_topk(inst).assign, info
    if algo in ("sub-friend", "sub-pref"):
        if getattr(args, "partition", None):
            partition = _load_partition(args.partition)
        else:
            mode = "friendship" if algo == "sub-friend" else "preference"
            partition = baselines.auto_partition(inst, mode, getattr(args, "groups", 2),
                                                 seed=seed)
        info["partition"] = [list(map(int, p)) for p in partition]
        return baselines.subgroup_static(inst, partition).assign, info
    if algo == "oracle":
        if inst.st is not None:
            cfg, _ = oracle.brute_force_st(inst)
        else:
            cfg, _ = oracle.brute_force(inst, mode="canonical")
        return cfg.assign, info
    raise DomainError(f"unknown algorithm {algo!r}")


def _objectives(inst: Instance, assign: np.ndarray) -> tuple[float, float, bool, int]:
    """(canonical, unit_sum, feasible, violation count).

    Teleportation instances report the discounted objective for feasible
    assignments; infeasible (raw) assignments get the plain parts.
    """
    violations = core.validate(RawAssignment(assign=assign), inst)
    d_tel = inst.st.d_tel if inst.st is not None and not violations else 0.0
    parts = core.objective_parts(inst, assign, d_tel)
    return (core.objective_value(inst, *parts, "canonical"),
            core.objective_value(inst, *parts, "unit_sum"),
            not violations, len(violations))


def _summary(algo: str, mode: str, canonical: float, unit: float,
             runtime_ms: float, seed) -> str:
    return f"{algo},{mode},{canonical:.9g},{unit:.9g},{runtime_ms:.1f},{seed}"


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
    inst = core.instance_from_dict(core.load_json(args.infile))
    t0 = time.perf_counter()
    assign, info = _run_algo(inst, args.algo, args)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    canonical, unit, feasible, nviol = _objectives(inst, assign)
    mode = info.get("sampler") or (f"r={info['r']}" if "r" in info else "-")
    sol = {
        "assign": assign.tolist(),
        "feasible": feasible,
        "violations": nviol,
        "objective_canonical": canonical,
        "objective_unit_sum": unit,
        "runtime_ms": runtime_ms,
        **info,
    }
    if args.out:
        core.dump_json(sol, args.out)
    print(_summary(args.algo, mode, canonical, unit, runtime_ms, info.get("seed", "-")))
    return 0


def cmd_replay(args) -> int:
    inst = core.instance_from_dict(core.load_json(args.infile))
    work = _work_instance(inst)
    frac = _load_frac(args.frac)
    frac.check()
    seq = _load_sequence(args.seq)
    cfg = rounding.avg_replay(work, frac, seq)
    canonical, unit, feasible, nviol = _objectives(inst, cfg.assign)
    core.dump_json({
        "assign": cfg.assign.tolist(),
        "feasible": feasible,
        "objective_canonical": canonical,
        "objective_unit_sum": unit,
        "algo": "replay",
        "steps": len(seq),
    }, args.out)
    print(_summary("replay", f"steps={len(seq)}", canonical, unit, 0.0, "-"))
    return 0


def cmd_eval(args) -> int:
    inst = core.instance_from_dict(core.load_json(args.infile))
    sol = core.load_json(args.sol)
    if not isinstance(sol, dict) or "assign" not in sol:
        raise core.StructuralError(f"{args.sol}: missing key 'assign'")
    assign = core.array_field(sol["assign"], np.int64, f"{args.sol}: assign")
    if assign.size and (assign.min() < 0 or assign.max() >= inst.m):
        raise core.StructuralError(f"{args.sol}: assign holds an item outside [0, {inst.m})")
    # a feasible assignment is validated and scored once, by core.metrics
    if not core.validate(RawAssignment(assign=assign), inst):
        report = {"feasible": True, **core.metrics(inst, Configuration(assign=assign)).to_dict()}
    else:
        canonical, unit, _, nviol = _objectives(inst, assign)
        report = {
            "feasible": False,
            "violations": nviol,
            "objective_canonical": canonical,
            "objective_unit_sum": unit,
        }
    text = json.dumps(report, indent=1, sort_keys=True)
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


def _compare_cell(payload):
    inst, algo, seed, groups, frac = payload
    ns = argparse.Namespace(seed=seed, sampler="uniform", r=0.25, repeats=1,
                            partition=None, frac=None, groups=groups)
    t0 = time.perf_counter()
    assign, _ = _run_algo(inst, algo, ns, frac)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    if not core.validate(RawAssignment(assign=assign), inst):
        rep = core.metrics(inst, Configuration(assign=assign)).to_dict()
        canonical, unit = rep["objective_canonical"], rep["objective_unit_sum"]
        metric_row = [rep[f] for f in _COMPARE_METRIC_FIELDS]
    else:
        canonical, unit, _, _ = _objectives(inst, assign)
        metric_row = [""] * len(_COMPARE_METRIC_FIELDS)
    return [algo, seed, f"{canonical:.9g}", f"{unit:.9g}", f"{runtime_ms:.1f}"] + metric_row


def cmd_compare(args) -> int:
    inst = core.instance_from_dict(core.load_json(args.infile))
    algos = [a for a in args.algos.split(",") if a]
    seeds = _parse_seeds(args.seeds)
    work = _work_instance(inst)
    # each relaxation is solved once here and its factors travel with the
    # cells, so a cell's runtime_ms times the rounding alone
    frac, lp_bound = lp.solve_fractional(work)
    st_frac = _solve_st(work) if any(a.endswith("-st") for a in algos) else None
    header = (["algo", "seed", "objective_canonical", "objective_unit_sum", "runtime_ms"]
              + _COMPARE_METRIC_FIELDS
              + ["lp_bound_unit_sum", "lp_bound_canonical"])
    cells = [(inst, algo, seed, args.groups,
              st_frac if algo.endswith("-st") else frac)
             for algo in algos for seed in seeds]
    if args.jobs > 1 and cells:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_compare_cell, cells))
    else:
        rows = [_compare_cell(c) for c in cells]
    bound_cols = [f"{lp_bound:.9g}", f"{inst.lam * lp_bound:.9g}"]
    out = sys.stdout if not args.out else open(args.out, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row + bound_cols)
    finally:
        if args.out:
            out.close()
    return 0


def _parse_seeds(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise DomainError(f"--seeds must be a comma-separated integer list or lo..hi, "
                          f"got {text!r}") from None


def cmd_export(args) -> int:
    inst = core.instance_from_dict(core.load_json(args.infile))
    work = _work_instance(inst)
    if args.model == "full":
        mdl = lp.build_full_lp(work)
    elif args.model == "simp":
        mdl = lp.build_simplified_lp(work)
    elif args.model == "st":
        mdl = lp.build_st_lp(work)
    else:
        raise DomainError(f"unknown model {args.model!r}")
    text = lp.export_model(mdl, integrality=args.integrality == "binary")
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"export,{args.model},{args.integrality},vars={mdl.num_vars},rows={mdl.num_rows}")
    return 0


def cmd_frac(args) -> int:
    """Solve the relaxation and write the per-slot factors to a file."""
    inst = core.instance_from_dict(core.load_json(args.infile))
    frac = _fractional_for(inst, args, st=args.model == "st")
    _write_frac(frac, args.out)
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
    s.add_argument("--algo", required=True,
                   choices=["avg", "avgd", "per", "group", "sub-friend", "sub-pref",
                            "indep", "oracle", "avg-st", "avgd-st"])
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--sampler", choices=["uniform", "advanced"], default="uniform")
    s.add_argument("--r", type=float, default=0.25)
    s.add_argument("--repeats", type=int, default=1)
    s.add_argument("--groups", type=int, default=2)
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
    cp.add_argument("--groups", type=int, default=2)
    cp.add_argument("--jobs", type=int, default=1)
    cp.add_argument("--out", default=None)
    cp.set_defaults(func=cmd_compare)

    ex = sub.add_parser("export", help="write a CPLEX LP-format model file")
    ex.add_argument("--in", dest="infile", required=True)
    ex.add_argument("--model", choices=["full", "simp", "st"], default="full")
    ex.add_argument("--integrality", choices=["relaxed", "binary"], default="relaxed")
    ex.add_argument("--out", required=True)
    ex.set_defaults(func=cmd_export)

    fr = sub.add_parser("frac", help="solve the relaxation and save the factors")
    fr.add_argument("--in", dest="infile", required=True)
    fr.add_argument("--model", choices=["simp", "st"], default="simp")
    fr.add_argument("--frac", default=None)
    fr.add_argument("--out", required=True)
    fr.set_defaults(func=cmd_frac)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
