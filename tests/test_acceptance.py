"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the measured values.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import chi2_contingency

import codisplay as cd
from codisplay import lp as lpm
from codisplay import rounding
from codisplay.core import seeded_rng

from conftest import (
    DETERMINISTIC_TABLE,
    FRIEND_PARTITION,
    PREF_PARTITION,
    RANDOMIZED_TABLE,
    make_example,
    make_frac,
    random_suite,
    replay_sequence,
)


def report(num: int, message: str) -> None:
    print(f"criterion {num:02d} PASS: {message}")


@pytest.fixture(scope="module")
def suite50():
    """50 guarded random instances with relaxation bounds, oracle optima, and
    solver outputs; elapsed wall time recorded for the budget checks."""
    t0 = time.perf_counter()
    data = []
    for inst in random_suite(50, base_seed=1000):
        full = lpm.solve_lp(lpm.build_full_lp(inst)).objective
        frac_res = lpm.solve_lp(lpm.build_simplified_lp(inst))
        simp = frac_res.objective
        frac = lpm.expand_solution(frac_res, inst)
        _, opt = cd.brute_force(inst, "unit_sum")
        outputs = {
            "per": cd.per_topk(inst),
            "group": cd.group_topk(inst),
            "sub-friend": cd.subgroup_static(
                inst, cd.auto_partition(inst, "friendship", min(2, inst.n))),
            "sub-pref": cd.subgroup_static(
                inst, cd.auto_partition(inst, "preference", min(2, inst.n))),
            "avg": cd.avg(inst, frac, rng_seed=0),
            "avgd": cd.avgd(inst, frac, r=0.25),
        }
        values = {name: cd.total_objective(inst, cfg, "unit_sum")
                  for name, cfg in outputs.items()}
        data.append({"inst": inst, "frac": frac, "full": full, "simp": simp,
                     "opt": opt, "values": values, "outputs": outputs})
    elapsed = time.perf_counter() - t0
    return data, elapsed


def test_c01_oracle_running_example(example):
    t0 = time.perf_counter()
    cfg, value = cd.brute_force(example, mode="unit_sum")
    elapsed = time.perf_counter() - t0
    assert value == pytest.approx(10.35, abs=1e-9)
    assert cd.validate(cfg, example) == []
    assert elapsed < 60.0
    report(1, f"exhaustive optimum 10.35 in {elapsed:.2f}s")


def test_c02_replay_fidelity(example, example_frac):
    t0 = time.perf_counter()
    cfg = cd.avg_replay(example, example_frac, replay_sequence())
    elapsed = time.perf_counter() - t0
    assert np.array_equal(cfg.assign, RANDOMIZED_TABLE)
    value = cd.total_objective(example, cfg, "unit_sum")
    assert value == pytest.approx(9.75, abs=1e-9)
    assert elapsed < 1.0
    report(2, f"7-step replay reproduces the table, value 9.75 in {elapsed:.3f}s")


def test_c03_deterministic_solver_fidelity(example, example_frac):
    t0 = time.perf_counter()
    trace = []
    cfg = cd.avgd(example, example_frac, r=0.25, trace=trace)
    elapsed = time.perf_counter() - t0
    assert np.array_equal(cfg.assign, DETERMINISTIC_TABLE)
    value = cd.total_objective(example, cfg, "unit_sum")
    assert value == pytest.approx(9.85, abs=1e-9)
    first = trace[0]
    assert first["alg"] == pytest.approx(3.35, abs=1e-2)
    assert first["opt_lp_fut"] == pytest.approx(6.97, abs=1e-2)
    assert first["f"] == pytest.approx(5.09, abs=1e-2)
    assert elapsed < 1.0
    report(3, f"value 9.85; first step ALG={first['alg']:.3f} "
              f"fut={first['opt_lp_fut']:.3f} f={first['f']:.3f} in {elapsed:.3f}s")


def test_c04_baseline_fidelity(example):
    got = {
        "per": cd.total_objective(example, cd.per_topk(example), "unit_sum"),
        "group": cd.total_objective(example, cd.group_topk(example), "unit_sum"),
        "sub-friend": cd.total_objective(
            example, cd.subgroup_static(example, FRIEND_PARTITION), "unit_sum"),
        "sub-pref": cd.total_objective(
            example, cd.subgroup_static(example, PREF_PARTITION), "unit_sum"),
    }
    want = {"per": 8.25, "group": 8.35, "sub-friend": 8.4, "sub-pref": 8.7}
    for name, expected in want.items():
        assert got[name] == pytest.approx(expected, abs=1e-9), name
    report(4, "baselines 8.25 / 8.35 / 8.4 / 8.7 reproduced exactly")


def test_c05_lp_transformation_and_sandwich(suite50):
    data, elapsed = suite50
    assert len(data) == 50
    worst_gap = 0.0
    for row in data:
        gap = abs(row["full"] - row["simp"])
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6
        assert row["simp"] >= row["opt"] - 1e-7
        for name, value in row["values"].items():
            assert value <= row["opt"] + 1e-9, name
    assert elapsed < 120.0
    report(5, f"50 instances: worst |full-compact| = {worst_gap:.2e}, "
              f"bound >= optimum >= outputs, built in {elapsed:.1f}s")


def test_c06_approximation_bounds(suite50):
    data, _ = suite50
    t0 = time.perf_counter()
    # deterministic guarantee at r = 1/4 on all 50 instances
    for row in data:
        assert row["values"]["avgd"] >= 0.25 * row["simp"] - 1e-9

    # expected guarantee: per-instance mean over 1000 seeds clears the bound
    # within three standard errors, on 20 instances
    margins = []
    for row in data[:20]:
        vals = np.array([
            cd.total_objective(
                row["inst"], cd.avg(row["inst"], row["frac"], rng_seed=s), "unit_sum")
            for s in range(1000)
        ])
        sem = vals.std(ddof=1) / math.sqrt(len(vals))
        bound = 0.25 * row["simp"]
        assert vals.mean() >= bound - 3 * sem
        margins.append(vals.mean() / bound)

    # best-of ceil(log2 n) repetitions reaches OPT/(4 + 0.5) almost always
    hits = 0
    for row in data:
        n_rep = max(1, math.ceil(math.log2(row["inst"].n)))
        best = cd.best_of(row["inst"], row["frac"], seeds=range(n_rep))
        val = cd.total_objective(row["inst"], best, "unit_sum")
        hits += val >= row["opt"] / 4.5 - 1e-9
    elapsed = time.perf_counter() - t0
    assert hits >= 0.95 * len(data)
    assert elapsed < 600.0
    report(6, f"worst-case and expected bounds hold; mean/bound ratio "
              f">= {min(margins):.2f}; best-of hits {hits}/50 in {elapsed:.1f}s")


def test_c07_independent_rounding_gap():
    inst = cd.gen_lemma1(4, 8, 2, tau=1.0)
    optimum = 4 * 3 * 1.0 * 2  # n(n-1) * tau * k = 24
    frac = cd.FractionalSolution(np.full((4, 8, 2), 1 / 8))

    socials = np.empty(10_000)
    duplicates = 0
    for seed in range(10_000):
        raw = cd.independent_rounding(inst, frac, rng_seed=seed)
        _, social = cd.core.objective_parts(inst, raw.assign)
        socials[seed] = social
        duplicates += bool(cd.validate(raw, inst))
    sem = socials.std(ddof=1) / 100.0
    assert abs(socials.mean() - optimum / inst.m) <= 3 * sem
    assert duplicates > 0

    for seed in range(1000):
        cfg = cd.avg(inst, frac, rng_seed=seed)
        assert cd.total_objective(inst, cfg, "unit_sum") == pytest.approx(24.0, abs=1e-9)
    report(7, f"independent rounding mean {socials.mean():.3f} ~ 24/8; "
              f"duplicate rate {duplicates / 10000:.2f}; subgroup rounding = 24 "
              f"on 1000 seeds")


def test_c08_gap_instances():
    gap_g = cd.gen_gap_g(4, 2)
    _, opt_g = cd.brute_force(gap_g, "canonical")
    group_val = cd.total_objective(gap_g, cd.group_topk(gap_g), "canonical")
    assert opt_g / group_val == pytest.approx(4.0, abs=1e-9)

    eps = 0.01
    gap_p = cd.gen_gap_p(3, 2, eps=eps)
    _, opt_p = cd.brute_force(gap_p, "canonical")
    per_val = cd.total_objective(gap_p, cd.per_topk(gap_p), "canonical")
    lam = gap_p.lam
    bound = 1 + lam / (1 - lam) * (gap_p.n - 1) / 2
    assert opt_p / per_val >= bound - 5 * eps
    report(8, f"group-display gap = 4 = n; personalized gap "
              f"{opt_p / per_val:.3f} >= {bound} - O(eps)")


def test_c09_size_capped_correctness():
    # thirty random size-capped instances, caps 1..3, all outputs feasible
    checked = 0
    shapes = [(4, 6, 2), (5, 6, 2), (3, 5, 2), (5, 7, 2), (4, 5, 1)]
    for i in range(30):
        n, m, k = shapes[i % len(shapes)]
        m_cap = (i % 3) + 1
        inst = cd.gen_random(n, m, k, edge_prob=0.6, seed=2000 + i,
                             d_tel=0.4, m_cap=m_cap)
        res = lpm.solve_lp(lpm.build_st_lp(inst))
        frac = lpm.frac_from_full_result(res, inst)
        cfg = cd.avg_st(inst, frac, rng_seed=i, deterministic=(i % 2 == 0))
        ok, violations = cd.st_feasibility(inst, cfg)
        assert ok and violations == 0, (i, violations)
        checked += 1
    assert checked == 30

    # zero discount coincides with the plain objective on arbitrary configs
    inst0 = cd.gen_random(4, 5, 2, edge_prob=0.8, seed=77, d_tel=0.0, m_cap=4)
    rng = np.random.Generator(np.random.Philox(4))
    for _ in range(50):
        assign = np.array([rng.choice(5, size=2, replace=False) for _ in range(4)])
        cfg = cd.Configuration(assign=assign)
        assert cd.st_objective(inst0, cfg) == pytest.approx(
            cd.total_objective(inst0, cfg, "canonical"), abs=1e-12)

    # two-user instance against independent hand enumeration
    tau_uv = np.array([0.4, 0.1, 0.0])
    tau_vu = np.array([0.2, 0.3, 0.1])
    pref = np.array([[0.9, 0.2, 0.5], [0.1, 0.8, 0.6]])
    hand = cd.Instance(n=2, m=3, k=2, pref=pref,
                       edges=(cd.Edge(0, 1, tau_uv, tau_vu),),
                       lam=0.5, st=cd.StParams(d_tel=0.5, M=2))
    w = tau_uv + tau_vu
    best = -1.0
    for r0 in itertools.permutations(range(3), 2):
        for r1 in itertools.permutations(range(3), 2):
            val = 0.5 * (pref[0, list(r0)].sum() + pref[1, list(r1)].sum())
            for c in set(r0) & set(r1):
                val += 0.5 * w[c] * (1.0 if r0.index(c) == r1.index(c) else 0.5)
            best = max(best, val)
    _, got = cd.brute_force_st(hand)
    assert got == pytest.approx(best, abs=1e-12)
    report(9, f"30/30 capped runs feasible; zero-discount identity holds; "
              f"hand-enumerated optimum {best:.4f} matched")


def test_c10_sampler_equivalence(example, example_frac):
    # freeze a mid-run state, then compare empirical outcome distributions
    state = rounding.RoundingState(example, example_frac)
    for focal in replay_sequence()[:2]:
        rounding.csf_step(state, focal)

    def outcome(focal):
        elig = state.eligible_users(focal.c, focal.s)
        chosen = tuple(int(u) for u in elig
                       if state.x[u, focal.c, focal.s] >= focal.alpha)
        return (focal.c, focal.s, chosen)

    draws = 100_000
    counts: dict = {}
    for kind, sampler in enumerate(("uniform", "advanced")):
        rng = seeded_rng(424242 + kind)
        seen = 0
        while seen < draws:
            focal = rounding.sample_focal(state, rng, sampler)
            if focal is None:
                continue
            key = outcome(focal)
            if not key[2]:
                continue  # uniform draw with an empty target: resample
            counts.setdefault(key, [0, 0])[kind] += 1
            seen += 1
    table = np.array(list(counts.values()))
    assert (table.sum(axis=0) == draws).all()
    _, p_value, _, _ = chi2_contingency(table)
    assert p_value > 0.01
    report(10, f"{len(counts)} distinct outcomes, chi-square p = {p_value:.3f}")


def test_metrics_anchor_full_group(example):
    # whole-group display: all edges intra, density ratio one, nobody alone
    cfg = cd.group_topk(example)
    rep = cd.metrics(example, cfg)
    assert rep.intra_pct == pytest.approx(100.0)
    assert rep.inter_pct == pytest.approx(0.0)
    assert rep.normalized_density == pytest.approx(1.0)
    assert rep.alone_pct == pytest.approx(0.0)
    report(0, "metrics anchors: intra 100%, density 1, alone 0%")
