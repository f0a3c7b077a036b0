"""The program surface the benchmark's probes read.

``perfbench/tracing.py`` wraps the functions it names in ``TRACED`` and reads
some of their arguments by name; the round-n200 set-up builds ``LpResult``
positionally from a reference solve.  A rename or a dropped parameter there
breaks the benchmark without failing any other test, so these tests read the
probe module itself (executed from its source, so nothing is written under
``perfbench/``) and check every name and argument it relies on.
"""

import inspect
import types
from pathlib import Path

import numpy as np
import pytest

import codisplay as cd
import codisplay.cli  # noqa: F401  (TRACED names cli.main)
from codisplay import lp, rounding

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


def resolve(qual):
    mod_name, attr = qual.split(".")
    return getattr(getattr(cd, mod_name), attr)


def test_every_traced_name_resolves(tracing):
    assert tracing.TRACED
    for qual in tracing.TRACED:
        assert callable(resolve(qual)), qual


@pytest.mark.parametrize("qual, call, reads", [
    ("lp.solve_lp", ((lp.LpModel(),), {}), ["model"]),
    ("rounding.avg", ((None, None), {}), ["sampler", "cap", "stats"]),
    ("rounding.avgd", ((None, None), {}), ["cap", "trace"]),
    ("cli.main", (([],), {}), ["argv"]),
])
def test_probe_reads_bind(qual, call, reads):
    args, kwargs = call
    bound = inspect.signature(resolve(qual)).bind(*args, **kwargs)
    bound.apply_defaults()
    assert set(reads) <= bound.arguments.keys()


def test_reference_result_builds_positionally():
    # as round-n200's set-up turns a reference optimum into the program's result
    inst = cd.gen_random(5, 4, 2, edge_prob=0.5, seed=3)
    model = lp.build_simplified_lp(inst)
    mine = lp.solve_lp(model)
    ref = lp.LpResult(mine.objective, np.array(mine.x), "optimal", tuple(model.var_names))
    assert np.array_equal(lp.expand_solution(ref, inst).x, lp.expand_solution(mine, inst).x)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_probe_patches_and_restores(tracing, traced):
    inst = cd.gen_random(5, 4, 2, edge_prob=0.5, seed=3)
    before = {qual: resolve(qual) for qual in tracing.TRACED}
    with tracing.Probe(traced=traced) as probe:
        probe.item_begin("contract")
        frac, _ = lp.solve_fractional(inst)
        rounding.avg(inst, frac, rng_seed=0)
        rounding.avgd(inst, frac, cap=2)
        probe.item_end()
    assert {qual: resolve(qual) for qual in tracing.TRACED} == before
    [(model, result)] = probe.take_solved()
    assert isinstance(model, lp.LpModel) and result.status == "optimal"
    if traced:
        layers = probe.layer_metrics(1)
        assert layers["lp.solve_calls"] == (1.0, "1/item")
        assert probe.counts["avg.calls"] == 1 and probe.counts["avgd.calls"] == 1
        assert layers["rounding.cap_ms"][0] > 0.0  # the capped avgd is charged there
