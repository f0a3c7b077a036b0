"""Outside-in probes on the program's public functions.

The benchmark never edits the program.  It replaces selected module
attributes of ``codisplay`` with wrappers for the duration of the timed
region and restores them afterwards.  Every module that bound the function
by name (``from .core import validate``) is patched as well, so calls made
inside the program are seen too.

Two modes:

* untraced: only ``lp.solve_lp`` is wrapped, to hand each solved model to
  the reference cross-check; no clock is read;
* traced: every function in ``TRACED`` opens a span (name, start, end,
  parent span, item id).  Spans stay in memory and are written out when the
  run ends.  ``avg`` and ``avgd`` get ``stats=`` and ``trace=`` arguments in
  this mode only, for the sampling and step counters.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

from codisplay import DomainError

# function -> layer metric its self time is charged to
TRACED = {
    "lp.solve_lp": "lp.solve_ms",
    "lp.build_simplified_lp": "lp.build_ms",
    "lp.build_full_lp": "lp.build_ms",
    "lp.build_st_lp": "lp.build_ms",
    "lp.expand_solution": "lp.expand_ms",
    "lp.frac_from_full_result": "lp.expand_ms",
    "rounding.avg": None,  # split by sampler and cap, see _avg_layer
    "rounding.avgd": None,
    "rounding.avg_st": "rounding.cap_ms",
    "rounding.best_of": "rounding.avg_ms",
    "core.metrics": "core.metrics_ms",
    "core.validate": "core.objective_ms",
    "core.objective_parts": "core.objective_ms",
    "core.total_objective": "core.objective_ms",
    "core.st_objective": "core.objective_ms",
    "core.load_json": "core.io_ms",
    "core.dump_json": "core.io_ms",
    "core.instance_from_dict": "core.io_ms",
    "core.instance_to_dict": "core.io_ms",
    "baselines.per_topk": "baselines.ms",
    "baselines.group_topk": "baselines.ms",
    "baselines.auto_partition": "baselines.ms",
    "baselines.subgroup_static": "baselines.ms",
    "baselines.independent_rounding": "baselines.ms",
    "oracle.brute_force": "oracle.ms",
    "oracle.brute_force_st": "oracle.ms",
    "cli.main": "cli.self_ms",
}

# self time of item spans: benchmark code inside an item, outside any probe
ITEM_LAYER = "bench.self_ms"

TIME_LAYERS = [
    "lp.solve_ms", "lp.build_ms", "lp.expand_ms",
    "rounding.avg_ms", "rounding.avg_adv_ms", "rounding.avgd_ms", "rounding.cap_ms",
    "core.metrics_ms", "core.objective_ms", "core.io_ms",
    "baselines.ms", "oracle.ms", "cli.self_ms", ITEM_LAYER,
]


def _avg_layer(args: dict) -> str:
    if args.get("cap") is not None:
        return "rounding.cap_ms"
    return "rounding.avg_adv_ms" if args.get("sampler") == "advanced" else "rounding.avg_ms"


def _avgd_layer(args: dict) -> str:
    return "rounding.cap_ms" if args.get("cap") is not None else "rounding.avgd_ms"


class Probe:
    """Patches the program for one timed region and records what it sees."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.paused = False
        self.solved: list = []  # (model, LpResult) since the last take_solved()
        # spans: [name, layer, start, end, parent index, item id, tag]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._item = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        import codisplay

        names = TRACED if self.traced else {"lp.solve_lp": "lp.solve_ms"}
        modules = [m for k, m in sys.modules.items()
                   if k == "codisplay" or k.startswith("codisplay.")]
        for qual in names:
            mod_name, attr = qual.split(".")
            fn = getattr(getattr(codisplay, mod_name), attr)
            wrapper = self._wrap(qual, fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, fn in reversed(self._saved):
            setattr(mod, key, fn)
        self._saved.clear()
        return False

    def _wrap(self, qual: str, fn):
        sig = inspect.signature(fn)
        fixed_layer = TRACED.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if not self.traced:  # cross-check only: solve_lp
                result = fn(*args, **kwargs)
                self.solved.append((sig.bind(*args, **kwargs).arguments["model"], result))
                return result
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            layer, tag, steps_before = fixed_layer, None, 0
            if qual == "rounding.avg":
                layer = _avg_layer(a)
                if a["stats"] is None:
                    a["stats"] = {}
            elif qual == "rounding.avgd":
                layer = _avgd_layer(a)
                if a["trace"] is None:
                    a["trace"] = []
                steps_before = len(a["trace"])
            elif qual == "rounding.best_of" and a.get("cap") is not None:
                layer = "rounding.cap_ms"
            elif qual == "cli.main":
                argv = a.get("argv") or []
                tag = argv[0] if argv else None
            idx = self._open(qual, layer, tag)
            try:
                result = fn(*bound.args, **bound.kwargs)
            except DomainError:
                if qual.startswith("rounding.") and not self._in_rounding(idx):
                    self.counts["rounding.failures"] += 1
                raise
            finally:
                self._close(idx)
            self._count(qual, a, result, idx, steps_before)
            return result

        return wrapper

    # -- spans ------------------------------------------------------------

    def _open(self, name, layer, tag=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, self._item, tag])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _in_rounding(self, idx: int) -> bool:
        parent = self.spans[idx][4]
        return parent >= 0 and self.spans[parent][0].startswith("rounding.")

    def item_begin(self, kind: str) -> None:
        if self.traced:
            self._item += 1
            self._open("item:" + kind, ITEM_LAYER)

    def item_end(self) -> None:
        if self.traced:
            self._close(self._stack[-1])

    def take_solved(self) -> list:
        out, self.solved = self.solved, []
        return out

    def _count(self, qual, args, result, idx, steps_before) -> None:
        c = self.counts
        if qual == "lp.solve_lp":
            self.solved.append((args["model"], result))
            c["lp.solve_calls"] += 1
            if self._command() == "compare":
                c["cli.compare_solves"] += 1
        elif qual.startswith("lp.build_"):
            c["lp.builds"] += 1
            c["lp.vars"] += result.num_vars
            c["lp.rows"] += result.num_rows
        elif qual == "rounding.avg":
            st = args["stats"]
            c["avg.calls"] += 1
            c["avg.samples"] += st.get("samples", 0)
            c["avg.productive"] += st.get("iterations", 0)
            c["avg.fallback_cells"] += st.get("fallback_cells", 0)
        elif qual == "rounding.avgd":
            c["avgd.calls"] += 1
            c["avgd.steps"] += len(args["trace"]) - steps_before
        elif qual.startswith("oracle."):
            c["oracle.calls"] += 1
        elif qual == "cli.main" and self.spans[idx][6] == "compare":
            c["cli.compares"] += 1

    def _command(self):
        """The CLI command the innermost open span runs under, if any."""
        for i in reversed(self._stack):
            if self.spans[i][0] == "cli.main":
                return self.spans[i][6]
        return None

    # -- derived metrics --------------------------------------------------

    def layer_metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: self time per item and counters per item or call."""
        self_ms: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        for i, span in enumerate(self.spans):
            self_ms[span[1]] += 1e3 * (span[3] - span[2] - child[i])
        c = self.counts
        per_item = max(items, 1)
        out = {name: (self_ms.get(name, 0.0) / per_item, "ms/item") for name in TIME_LAYERS}
        out["lp.solve_calls"] = (c["lp.solve_calls"] / per_item, "1/item")
        out["cli.lp_solves_per_compare"] = (
            c["cli.compare_solves"] / c["cli.compares"] if c["cli.compares"] else 0.0,
            "1/command")
        builds = c["lp.builds"]
        out["lp.vars"] = (c["lp.vars"] / builds if builds else 0.0, "count")
        out["lp.rows"] = (c["lp.rows"] / builds if builds else 0.0, "count")
        out["rounding.avg_hit_rate"] = (
            c["avg.productive"] / c["avg.samples"] if c["avg.samples"] else 0.0, "ratio")
        out["rounding.avgd_steps"] = (
            c["avgd.steps"] / c["avgd.calls"] if c["avgd.calls"] else 0.0, "1/call")
        out["rounding.fallback_cells"] = (
            c["avg.fallback_cells"] / c["avg.calls"] if c["avg.calls"] else 0.0, "1/call")
        out["rounding.failures"] = (c["rounding.failures"] / per_item, "1/item")
        out["oracle.calls"] = (c["oracle.calls"] / per_item, "1/item")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "item", "tag"],
                       "spans": self.spans}, fh)
