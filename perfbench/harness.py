"""The closed loop: set-up, timed items, checks between items, metrics.

A workload's inputs form a fixed set of units.  One client sends one item
after another, each after the previous one returns, going round the set
until ``seconds`` of item time have passed and the whole set has run once.
Only the program calls inside an item are timed; the checks and the
reference cross-check of every LP bound run between items with the probe
paused.

``attempted`` and ``failed`` count the items of the first pass over the set,
so they depend on the seed and the code, never on the speed of the host.
Every later run of an item must end as its first run did (the same failure,
or an output with the same digest); one that does not is a wrong output.
A failed item counts in the item time but not as completed work, so a
failure never makes the program look faster.  ``item_ms_p50`` is the median,
over the units run, of a unit's item time per completed item: the items of
one unit differ in cost by up to three orders of magnitude, so a median over
single items would land in the gap between the fast and the slow ones.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path
from typing import Optional

from codisplay import DomainError

import tracing
import workloads
from reference import BOUND_TOL, ReferenceBounds
from workloads import Refused, WrongOutput


def _describe(exc: Exception) -> str:
    return traceback.format_exception_only(exc)[-1].strip()


def run_item(item, probe, ledger, refs) -> tuple[float, Optional[Exception]]:
    """Time one item, then check it; returns (seconds, the failure or None)."""
    err = out = None
    probe.item_begin(item.kind)
    t0 = time.perf_counter()
    try:
        out = item.call()
    except Refused as exc:
        err = exc
    except (DomainError, ArithmeticError) as exc:
        err = Refused(_describe(exc))
    except Exception as exc:  # a crash of the program is a wrong output
        err = WrongOutput(_describe(exc))
    dt = time.perf_counter() - t0
    probe.item_end()
    probe.paused = True
    try:
        for model, result in probe.take_solved():
            if result.status != "optimal":
                raise Refused(f"LP status {result.status}")
            ref = refs.bound(model)
            if abs(result.objective - ref) > BOUND_TOL:
                raise WrongOutput(f"LP bound {result.objective!r} != reference {ref!r}")
            ledger.digest(result.objective)
        if err is not None:
            raise err
        item.check(out, ledger)
    except (Refused, WrongOutput) as exc:
        return dt, exc
    except Exception as exc:  # a check that cannot read the output
        return dt, WrongOutput(_describe(exc))
    finally:
        probe.paused = False
    return dt, None


def measure(workload: str, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    """One run: returns the record with its metrics, counts and digest."""
    workdir = out_dir / f"work-{os.getpid()}"
    refs = ReferenceBounds()
    wl = workloads.WORKLOADS[workload](seed, workdir, refs)
    ledger = workloads.Ledger()
    unit_ms: list[float] = []  # per unit: item time / items that did not fail
    by_kind: dict[str, list[float]] = {}
    first: dict[tuple[int, int], str] = {}  # outcome of each item in the first pass
    completed = timed = 0
    try:
        setup_s = []
        for part in range(wl.setup_parts):
            t0 = time.perf_counter()
            wl.setup(part)
            setup_s.append(time.perf_counter() - t0)

        done, busy = 0, 0.0
        with tracing.Probe(traced) as probe:
            while busy < seconds or done < wl.set_size:
                unit, first_pass = done % wl.set_size, done < wl.set_size
                ledger.digesting = first_pass
                failed, unit_s, unit_ok = [], 0.0, 0
                for pos, item in enumerate(wl.unit(unit)):
                    ledger.begin_item()
                    if item.needs is not None and any(item.needs is f for f in failed):
                        err = Refused(f"needs {item.needs.kind}, which failed")
                    else:
                        dt, err = run_item(item, probe, ledger, refs)
                        timed += 1
                        unit_s += dt
                        if err is None:
                            unit_ok += 1
                            by_kind.setdefault(item.kind.split("/")[0], []).append(dt)
                    if err is not None:
                        failed.append(item)
                    outcome = ledger.item_outcome(err)
                    if first_pass:
                        first[unit, pos] = outcome
                        ledger.count(item.kind, err)
                    elif outcome != first[unit, pos]:
                        ledger.count(item.kind, WrongOutput(
                            "a repeat of the item ended otherwise than its first run"))
                busy += unit_s
                completed += unit_ok
                unit_ms.append(1e3 * unit_s / max(unit_ok, 1))
                done += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    items_per_s = (completed / busy, "1/s")
    if traced:
        metrics = {**probe.layer_metrics(timed), "trace.items_per_s": items_per_s}
        probe.write_spans(out_dir / f"{workload}-seed{seed}-trace1-spans.json")
    else:
        metrics = {
            "items_per_s": items_per_s,
            "item_ms_p50": (statistics.median(unit_ms), "ms"),
            "avgd_lp_ratio": (ledger.mean_ratio("avgd"), "ratio"),
            "avg_lp_ratio": (ledger.mean_ratio("avg"), "ratio"),
            "ok_rate": (1.0 - ledger.failed / ledger.attempted, "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_s), "s"),
        }
    return {
        "units": done,
        "set_size": wl.set_size,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "wrong": ledger.wrong,
        "fail_rate": ledger.failed / ledger.attempted,
        "failures": ledger.reasons,
        "timed_items": timed,
        "completed": completed,
        "item_s": busy,
        "unit_ms": unit_ms,
        "item_ms_p50_by_kind": {k: [len(v), 1e3 * statistics.median(v)]
                                for k, v in by_kind.items()},
        "setup_parts_s": setup_s,
        "digest": ledger.hexdigest(),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
