"""The three workloads: inputs made from the workload seed, the program calls
timed as items, and the checks run on every output.

An item is one unit of user-visible work: one instance through the whole
pipeline (desk-lp), one rounding call with its metrics report (round-n200),
or one CLI command (cli-compare).  Items come in units that the closed loop
never splits: a desk-lp unit is one item, a round-n200 unit is the pass of
calls on one instance, a cli-compare unit is the six-command session on one
pair of instance files.  Items of a unit may use what earlier items
produced.  A workload's units form a fixed set (``set_size``, ``unit(i)``),
which the closed loop goes round; each of the ``setup_parts`` parts of the
set-up makes the inputs of one unit.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from codisplay import cli, core, lp, oracle, rounding
from codisplay.core import StParams

from reference import BOUND_TOL, ReferenceBounds, solve_reference

OBJ_TOL = 1e-9


class Refused(Exception):
    """The program declined an operation cleanly: a DomainError, a
    non-optimal LP status, an ArithmeticError or a non-zero exit code."""


class WrongOutput(Exception):
    """An output failed a correctness check."""


@dataclass
class Item:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any, "Ledger"], None]
    needs: Optional["Item"] = None  # an earlier item whose output this one uses


class Ledger:
    """Outcome counts, the output digest and the quality ratios of one run.

    The run digest and the ratios cover only the first pass over the
    workload's units, which every run completes whatever its speed, so two
    runs of the same code and seed agree on them exactly.  Each item also
    gets a digest of its own, to compare a repeat of the item with its first
    run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: dict[str, int] = {}
        self.digesting = True
        self._digest = hashlib.sha256()
        self._item = hashlib.sha256()
        self._ratios: dict[str, dict] = {"avg": {}, "avgd": {}}

    def count(self, kind: str, exc: Optional[Exception]) -> None:
        """Count an attempted item and, if it failed, the reason, with
        numbers masked."""
        self.attempted += 1
        if exc is None:
            return
        self.failed += 1
        if isinstance(exc, WrongOutput):
            self.wrong += 1
        message = re.sub(r"\d+", "#", str(exc).split("\n")[0][:160])
        key = f"{kind.split('/')[0]}: {type(exc).__name__}: {message}"
        self.reasons[key] = self.reasons.get(key, 0) + 1

    def begin_item(self) -> None:
        self._item = hashlib.sha256()

    def item_outcome(self, exc: Optional[Exception]) -> str:
        """The item's failure, or the digest of what it produced."""
        if exc is not None:
            return f"{type(exc).__name__}: {exc}"
        return self._item.hexdigest()

    def digest(self, *parts) -> None:
        for p in parts:
            if isinstance(p, np.ndarray):
                p = np.ascontiguousarray(p, dtype=np.int64).tobytes()
            elif isinstance(p, float):
                p = f"{round(p, 9):.9f}"
            p = p if isinstance(p, bytes) else str(p).encode()
            self._item.update(p + b"|")
            if self.digesting:
                self._digest.update(p + b"|")

    def ratio(self, algo: str, key, value: float) -> None:
        if self.digesting:
            self._ratios[algo][key] = value

    def hexdigest(self) -> str:
        return self._digest.hexdigest()

    def mean_ratio(self, algo: str) -> float:
        vals = list(self._ratios[algo].values())
        return float(np.mean(vals)) if vals else float("nan")


# ---------------------------------------------------------------------------
# inputs and independent checks
# ---------------------------------------------------------------------------


def typical_instances(n, m, k, edge_prob, count, base_seed, tolerance=0, **kw) -> list:
    """``gen_random`` instances whose edge count lies within ``tolerance`` of
    the modal value of Binomial(n(n-1)/2, edge_prob).

    The simplex, ``avgd`` and ``metrics`` times all grow with the edge
    count, whose spread (about 15% at n=15, 4% at n=200) would otherwise
    add to the run-to-run spread.  Fixing the count keeps the model size
    constant and leaves the instances random in everything else.
    """
    pairs = n * (n - 1) // 2
    mode = int((pairs + 1) * edge_prob)
    out, j = [], 0
    while len(out) < count:
        inst = oracle.gen_random(n, m, k, edge_prob=edge_prob, seed=base_seed + j, **kw)
        j += 1
        if abs(inst.num_edges - mode) <= tolerance:
            out.append(inst)
    return out


def unit_sum(inst, assign: np.ndarray) -> float:
    """Unit-sum objective computed here, independently of ``core``."""
    a = np.asarray(assign, dtype=np.int64)
    total = float(inst.pref[np.arange(inst.n)[:, None], a].sum())
    for e in inst.edges:
        same = a[e.u] == a[e.v]
        total += float((e.tau_uv + e.tau_vu)[a[e.u][same]].sum())
    return total


def check_config(inst, assign, bound: float, reported: Optional[float] = None,
                 cap_inst=None, lp_quarter: bool = False) -> float:
    """Feasibility, objective and bound checks of one configuration; returns
    its unit-sum objective."""
    cfg = core.Configuration(assign=np.asarray(assign, dtype=np.int64))
    if core.validate(cfg, inst):
        raise WrongOutput("configuration fails validate")
    value = unit_sum(inst, cfg.assign)
    if reported is not None and abs(value - reported) > OBJ_TOL * max(1.0, abs(value)):
        raise WrongOutput(f"reported objective {reported!r} != recomputed {value!r}")
    if value > bound + BOUND_TOL:
        raise WrongOutput(f"objective {value!r} above the LP bound {bound!r}")
    if lp_quarter and value < bound / 4 - OBJ_TOL:
        raise WrongOutput(f"avgd objective {value!r} below LP/4 = {bound / 4!r}")
    if cap_inst is not None and core.st_feasibility(cap_inst, cfg) != (True, 0):
        raise WrongOutput(f"capped output exceeds M = {cap_inst.st.M}")
    return value


# ---------------------------------------------------------------------------
# desk-lp
# ---------------------------------------------------------------------------


class DeskLp:
    """(15, 10, 3) instances through the whole pipeline; the LP solve is the wall."""

    name = "desk-lp"
    setup_parts = 10

    def __init__(self, seed: int, workdir: Path, refs: ReferenceBounds):
        self.seed = seed
        self.refs = refs
        self.pool: list = []

    def setup(self, part: int) -> None:
        base = (self.seed * 16 + part) * 1_000_000
        for inst in typical_instances(15, 10, 3, 0.3, 1, base):
            self.refs.bound(lp.build_simplified_lp(inst))
            self.pool.append(inst)

    @property
    def set_size(self) -> int:
        return len(self.pool)

    def unit(self, i: int) -> list[Item]:
        inst = self.pool[i]
        return [Item("pipeline", lambda: self._pipeline(inst),
                     lambda out, led: self._check(inst, out, led))]

    @staticmethod
    def _pipeline(inst) -> dict:
        res = lp.solve_lp(lp.build_simplified_lp(inst))
        if res.status != "optimal":
            raise Refused(f"LP status {res.status}")
        frac = lp.expand_solution(res, inst)
        cfgs = {
            "avg": rounding.avg(inst, frac, rng_seed=0),
            "avg-adv": rounding.avg(inst, frac, rng_seed=0, sampler="advanced"),
            "avgd": rounding.avgd(inst, frac, r=0.25),
        }
        reports = {name: core.metrics(inst, cfg) for name, cfg in cfgs.items()}
        return {"bound": res.objective, "cfgs": cfgs, "reports": reports}

    @staticmethod
    def _check(inst, out, led: Ledger) -> None:
        bound = out["bound"]
        for name, cfg in out["cfgs"].items():
            value = check_config(inst, cfg.assign, bound,
                                 out["reports"][name].objective_unit_sum,
                                 lp_quarter=name == "avgd")
            led.digest(name, cfg.assign)
            if name in ("avg", "avgd"):
                led.ratio(name, id(inst), value / bound)


# ---------------------------------------------------------------------------
# round-n200
# ---------------------------------------------------------------------------

AVG_SEEDS = range(8)
ADV_SEEDS = range(2)
CAP_SEEDS = range(3)


@dataclass
class _RoundCase:
    inst: Any
    ref: Any  # LpResult of the reference solver
    capped: dict  # M -> instance carrying StParams(0, M), for st_feasibility


class RoundN200:
    """Rounding and metrics at n=200 on relaxations solved in set-up.

    A unit is one pass over the calls on one of the three instances.
    """

    name = "round-n200"
    setup_parts = 3

    def __init__(self, seed: int, workdir: Path, refs: ReferenceBounds):
        self.seed = seed
        self.cases: list[_RoundCase] = []

    def setup(self, part: int) -> None:
        base = (self.seed * 16 + part) * 1_000_000
        inst = typical_instances(200, 20, 4, 0.03, 1, base, tolerance=6)[0]
        model = lp.build_simplified_lp(inst)
        objective, x = solve_reference(model)
        ref = lp.LpResult(objective, x, "optimal", tuple(model.var_names))
        tight = inst.n // inst.m  # the smallest feasible cap, ceil(n/M) = m
        capped = {M: dataclasses.replace(inst, st=StParams(0.0, M)) for M in (tight, 2 * tight)}
        self.cases.append(_RoundCase(inst, ref, capped))

    @property
    def set_size(self) -> int:
        return len(self.cases)

    def unit(self, i: int) -> list[Item]:
        return self._pass(self.cases[i])

    def _pass(self, case: _RoundCase) -> list[Item]:
        inst, ref = case.inst, case.ref
        ctx: dict = {}
        tight, loose = sorted(case.capped)

        def relax():
            ctx["model"] = lp.build_simplified_lp(inst)
            ctx["frac"] = lp.expand_solution(ref, inst)
            return ctx

        def check_relax(out, led):
            model, frac = out["model"], out["frac"]
            rows = inst.n + 2 * inst.num_edges * inst.m
            if (model.num_vars, model.num_rows) != (ref.x.size, rows):
                raise WrongOutput(f"model size {(model.num_vars, model.num_rows)}")
            if abs(frac.x.sum() - inst.n * inst.k) > 1e-6 * inst.n * inst.k:
                raise WrongOutput("expanded factors do not sum to n*k")

        def rounding_item(kind, fn, ratio=None, cap=None, quarter=False):
            """``fn(frac)`` rounds; ``ratio`` names the ratio metric its output feeds."""
            def call():
                cfg = fn(ctx["frac"])
                return cfg, core.metrics(inst, cfg)

            def check(out, led):
                cfg, rep = out
                value = check_config(inst, cfg.assign, ref.objective, rep.objective_unit_sum,
                                     cap_inst=case.capped.get(cap), lp_quarter=quarter)
                led.digest(kind, cfg.assign)
                if ratio:
                    led.ratio(ratio, (id(inst), kind), value / ref.objective)

            return Item(kind, call, check, needs=relax_item)

        relax_item = Item("relax", relax, check_relax)
        items = [relax_item]
        items += [rounding_item(f"avg/{s}", lambda f, s=s: rounding.avg(inst, f, rng_seed=s),
                                ratio="avg") for s in AVG_SEEDS]
        items += [rounding_item(f"avg-adv/{s}", lambda f, s=s: rounding.avg(
            inst, f, rng_seed=s, sampler="advanced")) for s in ADV_SEEDS]
        items.append(rounding_item("avgd", lambda f: rounding.avgd(inst, f, r=0.25),
                                   ratio="avgd", quarter=True))
        for M in (tight, loose):
            items += [rounding_item(f"avg-cap{M}/{s}", lambda f, s=s, M=M: rounding.avg(
                inst, f, rng_seed=s, cap=M), cap=M) for s in CAP_SEEDS]
            items.append(rounding_item(f"avgd-cap{M}", lambda f, M=M: rounding.avgd(
                inst, f, r=0.25, cap=M), cap=M))
        return items


# ---------------------------------------------------------------------------
# cli-compare
# ---------------------------------------------------------------------------

PLAIN_ALGOS = "avg,avgd,indep,per,group,sub-friend,sub-pref"
PLAIN_SEEDS = 10
TELE_ALGOS = "avg-st,avgd-st,per,group,oracle"
TELE_SEEDS = 3


@dataclass
class _Pair:
    plain: Any
    tele: Any
    dir: Path
    plain_bound: float  # reference optimum of the compact relaxation
    tele_bound: float


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class CliCompare:
    """The user's path: in-process ``codisplay`` commands on instance files."""

    name = "cli-compare"
    setup_parts = 6

    def __init__(self, seed: int, workdir: Path, refs: ReferenceBounds):
        self.seed = seed
        self.workdir = workdir
        self.refs = refs
        self.pairs: list[_Pair] = []

    def setup(self, part: int) -> None:
        base = (self.seed * 16 + part) * 1_000_000
        plains = typical_instances(10, 8, 3, 0.3, 1, base)
        teles = typical_instances(4, 5, 2, 0.5, 1, base, d_tel=0.5, m_cap=2)
        for plain, tele in zip(plains, teles):
            d = self.workdir / f"pair{len(self.pairs)}"
            d.mkdir(parents=True, exist_ok=True)
            core.dump_json(core.instance_to_dict(plain), d / "plain.json")
            core.dump_json(core.instance_to_dict(tele), d / "tele.json")
            self.refs.bound(lp.build_st_lp(tele))  # the compare-st cells solve this model
            self.pairs.append(_Pair(plain, tele, d,
                                    self.refs.bound(lp.build_simplified_lp(plain)),
                                    self.refs.bound(lp.build_simplified_lp(tele))))

    @property
    def set_size(self) -> int:
        return len(self.pairs)

    def unit(self, i: int) -> list[Item]:
        return self._session(self.pairs[i])

    def _session(self, p: _Pair) -> list[Item]:
        d = p.dir
        plain, tele = str(d / "plain.json"), str(d / "tele.json")
        for old in d.iterdir():  # outputs of an earlier session on this pair
            if str(old) not in (plain, tele):
                old.unlink()

        def command(argv):
            return lambda: _run_cli(argv)

        def exit_ok(out):
            rc, stdout, stderr = out
            if rc != 0:
                raise Refused(f"exit {rc}: {stderr.strip()[:120]}")
            return stdout

        def check_frac(out, led):
            exit_ok(out)
            x = np.asarray(core.load_json(d / "frac.json")["x"])
            if x.shape != (p.plain.n, p.plain.m, p.plain.k):
                raise WrongOutput(f"factor shape {x.shape}")

        def check_solve(out, led):
            exit_ok(out)
            sol = core.load_json(d / "sol.json")
            check_config(p.plain, sol["assign"], p.plain_bound, sol["objective_unit_sum"],
                         lp_quarter=True)
            led.digest("solve", np.asarray(sol["assign"]))

        def check_eval(out, led):
            exit_ok(out)
            rep = core.load_json(d / "eval.json")
            sol = core.load_json(d / "sol.json")
            if rep["feasible"] is not True or abs(
                    rep["objective_unit_sum"] - sol["objective_unit_sum"]) > OBJ_TOL:
                raise WrongOutput("eval report disagrees with the solution file")

        def check_compare(out, led, path, algos, seeds, bound, tele):
            exit_ok(out)
            rows = _read_csv(path)
            if len(rows) != len(algos.split(",")) * seeds:
                raise WrongOutput(f"compare wrote {len(rows)} rows")
            for row in rows:
                if abs(float(row["lp_bound_unit_sum"]) - bound) > BOUND_TOL:
                    raise WrongOutput(f"compare LP bound {row['lp_bound_unit_sum']} != {bound!r}")
                led.digest(*[v for f, v in row.items() if f != "runtime_ms"])
            if tele:
                best = max(float(r["objective_canonical"]) for r in rows if r["algo"] == "oracle")
                for r in rows:
                    if r["algo"] in ("avg-st", "avgd-st"):
                        if r["st_feasible"] != "True":
                            raise WrongOutput(f"{r['algo']} exceeds the size cap")
                        if float(r["objective_canonical"]) > best + OBJ_TOL:
                            raise WrongOutput(f"{r['algo']} beats the exact oracle")
                return
            for r in rows:
                if r["algo"] not in ("avg", "avgd"):
                    continue
                value = float(r["objective_unit_sum"])
                if value > bound + BOUND_TOL:
                    raise WrongOutput(f"{r['algo']} objective above the LP bound")
                if r["algo"] == "avgd" and value < bound / 4 - OBJ_TOL:
                    raise WrongOutput("avgd objective below LP/4")
                led.ratio(r["algo"], (id(p), r["seed"]), value / bound)

        def check_export(out, led):
            stdout = exit_ok(out)
            text = (d / "st.lp").read_text()
            rows = int(stdout.strip().rsplit("rows=", 1)[1])
            if not text.startswith("Maximize") or text.count("\n c") != rows:
                raise WrongOutput("exported model does not match the reported size")
            led.digest(hashlib.sha256(text.encode()).hexdigest())

        cmp_plain, cmp_tele = d / "cmp.csv", d / "cmp_st.csv"
        frac_item = Item("frac", command(["frac", "--in", plain, "--out", str(d / "frac.json")]),
                         check_frac)
        solve_item = Item("solve", command(["solve", "--algo", "avgd", "--in", plain, "--frac",
                                            str(d / "frac.json"), "--out", str(d / "sol.json")]),
                          check_solve, needs=frac_item)
        return [
            frac_item,
            solve_item,
            Item("eval", command(["eval", "--in", plain, "--sol", str(d / "sol.json"),
                                  "--out", str(d / "eval.json")]), check_eval, needs=solve_item),
            Item("compare", command(["compare", "--in", plain, "--algos", PLAIN_ALGOS,
                                     "--seeds", f"0..{PLAIN_SEEDS - 1}", "--jobs", "1",
                                     "--out", str(cmp_plain)]),
                 lambda out, led: check_compare(out, led, cmp_plain, PLAIN_ALGOS, PLAIN_SEEDS,
                                                p.plain_bound, tele=False)),
            Item("compare-st", command(["compare", "--in", tele, "--algos", TELE_ALGOS,
                                        "--seeds", f"0..{TELE_SEEDS - 1}", "--jobs", "1",
                                        "--out", str(cmp_tele)]),
                 lambda out, led: check_compare(out, led, cmp_tele, TELE_ALGOS, TELE_SEEDS,
                                                p.tele_bound, tele=True)),
            Item("export", command(["export", "--in", tele, "--model", "st",
                                    "--out", str(d / "st.lp")]), check_export),
        ]


WORKLOADS = {w.name: w for w in (DeskLp, RoundN200, CliCompare)}
