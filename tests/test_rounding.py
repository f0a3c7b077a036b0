"""Subgroup-formation rounding tests: CSF, replay, both solvers, size caps."""

import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codisplay as cd
from codisplay import core
from codisplay import lp as lpm
from codisplay import rounding
from codisplay.core import DomainError, running_sum, seeded_rng
from codisplay.rounding import FocalParams, RoundingState

import avg_reference
import avgd_reference
import fallback_reference
import state_reference
from conftest import (
    DETERMINISTIC_TABLE,
    EXPECTED_UNIT,
    RANDOMIZED_TABLE,
    make_example,
    make_frac,
    random_suite,
    replay_sequence,
)


def neighbour_index(eu, ev, n):
    """avgd's neighbour index of the edges (eu[e], ev[e]), built as `avgd` builds it."""
    ends = np.column_stack([eu, ev]).ravel()
    at = np.argsort(ends, kind="stable")
    return ends[at], ends[at ^ 1], at // 2, np.searchsorted(ends[at], np.arange(n + 1))


def small_state(x_col, cap=None):
    """Single-slot state with two items; first-item factors given by x_col."""
    n = len(x_col)
    pref = np.tile(np.linspace(1.0, 0.5, n)[:, None], (1, 2))
    inst = cd.Instance(n=n, m=2, k=1, pref=pref, edges=(), lam=0.5)
    x = np.zeros((n, 2, 1))
    x[:, 0, 0] = x_col
    x[:, 1, 0] = 1.0 - np.asarray(x_col)
    frac = cd.FractionalSolution(x=x)
    return RoundingState(inst, frac, cap=cap), frac


class TestEligibility:
    def test_fresh_state_all_eligible(self, example, example_frac):
        state = RoundingState(example, example_frac)
        assert all(
            state.eligible(u, c, s)
            for u in range(4) for c in range(5) for s in range(3)
        )

    def test_item_blocks_other_slots(self, example, example_frac):
        state = RoundingState(example, example_frac)
        state.assign_users([0], 2, 1)
        assert not state.eligible(0, 2, 0)
        assert not state.eligible(0, 2, 2)

    def test_slot_blocks_other_items(self, example, example_frac):
        state = RoundingState(example, example_frac)
        state.assign_users([0], 2, 1)
        assert all(not state.eligible(0, c, 1) for c in range(5))

    def test_filled_cell_never_rewritten(self, example, example_frac):
        state = RoundingState(example, example_frac)
        state.assign_users([0], 2, 1)
        with pytest.raises(DomainError):
            state.assign_users([0], 3, 1)


class TestCsfStep:
    def test_fixture_first_step(self, example, example_frac):
        # threshold 0.06 at (item 1, slot 3): factors 1/3 clear it, zero does not
        state = RoundingState(example, example_frac)
        got = rounding.csf_step(state, FocalParams(0, 2, 0.06))
        assert got == [0, 1, 3]

    def test_above_max_threshold_is_noop(self, example, example_frac):
        state = RoundingState(example, example_frac)
        before = state.assign.copy()
        assert rounding.csf_step(state, FocalParams(0, 2, 0.9)) == []
        assert np.array_equal(state.assign, before)

    def test_cap_takes_top_factors_and_locks(self):
        state, frac = small_state([0.5, 0.4, 0.3], cap=2)
        got = rounding.csf_step(state, FocalParams(0, 0, 0.1))
        assert got == [0, 1]
        assert state.x[2, 0, 0] == 0.0  # remaining eligible factor zeroed
        assert state.room(0, 0) == 0
        assert rounding.csf_step(state, FocalParams(0, 0, 0.0)) == []
        assert state.assign[2, 0] == -1

    def test_cap_without_overflow_no_lock(self):
        state, frac = small_state([0.5, 0.4, 0.3], cap=3)
        got = rounding.csf_step(state, FocalParams(0, 0, 0.45))
        assert got == [0]
        assert state.room(0, 0) == 2

    def test_xbar_tracks_eligible_maximum(self, example, example_frac):
        state = RoundingState(example, example_frac)
        rounding.csf_step(state, FocalParams(0, 2, 0.06))
        xb = state.xbar()
        for c in range(5):
            for s in range(3):
                elig = [u for u in range(4) if state.eligible(u, c, s)]
                want = max((state.x[u, c, s] for u in elig), default=0.0)
                assert xb[c, s] == pytest.approx(want)

    def test_xbar_cache_follows_every_change(self):
        # a starving cap, so that the run zeroes factors and falls back
        inst = cd.gen_random(20, 8, 3, edge_prob=0.2, seed=5)
        frac, _ = lpm.solve_fractional(inst)
        state = RoundingState(inst, frac, cap=3)
        assert_xbar_fresh(state)
        assert state.xbar() is state.xbar() and not state.xbar().flags.writeable
        rng = seeded_rng(0)
        kinds = set()
        while state.unfilled:
            focal = rounding.sample_focal(state, rng, "advanced")
            if focal is None:
                assert rounding._fallback_fill(state) > 0
                kinds.add("fallback")
            else:
                zeroing = len(rounding.csf_step(state, focal)) and state.room(focal.c, focal.s) == 0
                kinds.add("zeroing step" if zeroing else "step")
            assert_xbar_fresh(state)
        assert kinds == {"step", "zeroing step", "fallback"}

    def test_xbar_cache_follows_cap_zeroing(self):
        state, _ = small_state([0.5, 0.4, 0.3], cap=2)
        assert state.xbar()[0, 0] == 0.5
        state.assign_users([0, 1], 0, 0)  # fills the subgroup, zeroes user 2's factor
        assert state.x[2, 0, 0] == 0.0
        assert_xbar_fresh(state)
        assert state.xbar()[0, 0] == 0.0


def assert_xbar_fresh(state):
    """`state.xbar()` equals the maximum factor over each cell's eligible
    users, recomputed cell by cell (0 when none), exactly."""
    m, k = state.inst.m, state.inst.k
    want = [[state.x[state.eligible_users(c, s), c, s].max(initial=0.0) for s in range(k)]
            for c in range(m)]
    assert state.xbar().tolist() == want


class TestReplay:
    def test_reproduces_recorded_walkthrough(self, example, example_frac):
        cfg = cd.avg_replay(example, example_frac, replay_sequence())
        assert np.array_equal(cfg.assign, RANDOMIZED_TABLE)
        got = cd.total_objective(example, cfg, "unit_sum")
        assert got == pytest.approx(EXPECTED_UNIT["avg_replay"], abs=1e-9)

    def test_two_step_prefix_state(self, example, example_frac):
        state = RoundingState(example, example_frac)
        for focal in replay_sequence()[:2]:
            rounding.csf_step(state, focal)
        # second step co-displays item 3 at slot 1 to users 1, 2, 3
        assert list(state.assign[:, 1]) == [-1, 3, 3, 3]
        assert list(state.assign[:, 2]) == [0, 0, -1, 0]

    def test_truncated_sequence_lists_unfilled_cells(self, example, example_frac):
        with pytest.raises(DomainError) as err:
            cd.avg_replay(example, example_frac, replay_sequence()[:2])
        msg = str(err.value)
        for cell in [(0, 0), (0, 1), (1, 0), (2, 0), (2, 2), (3, 0)]:
            assert str(cell) in msg

    def test_empty_sequence_lists_every_cell(self, example, example_frac):
        with pytest.raises(DomainError) as err:
            cd.avg_replay(example, example_frac, [])
        assert str((3, 2)) in str(err.value)

    @pytest.mark.parametrize("c,s", [(5, 0), (0, 3), (-1, 0), (0, -1)])
    def test_focal_outside_the_instance(self, example, example_frac, c, s):
        # -1 would otherwise index the last item or slot, or mark an empty cell
        seq = replay_sequence() + [FocalParams(c, s, 0.5)]
        with pytest.raises(DomainError, match=rf"\({c}, {s}\) outside"):
            cd.avg_replay(example, example_frac, seq)


class TestAvg:
    def test_outputs_feasible_both_samplers(self):
        for inst in random_suite(4, base_seed=210):
            frac, _ = lpm.solve_fractional(inst)
            for sampler in ("uniform", "advanced"):
                for seed in range(5):
                    cfg = cd.avg(inst, frac, rng_seed=seed, sampler=sampler)
                    assert cd.validate(cfg, inst) == []

    def test_bit_reproducible(self, example, example_frac):
        a = cd.avg(example, example_frac, rng_seed=7, sampler="advanced")
        b = cd.avg(example, example_frac, rng_seed=7, sampler="advanced")
        assert np.array_equal(a.assign, b.assign)

    def test_indifferent_instance_hits_optimum_every_seed(self):
        inst = cd.gen_lemma1(3, 4, 2, tau=1.0)
        frac = cd.FractionalSolution(np.full((3, 4, 2), 0.25))
        for seed in range(60):
            cfg = cd.avg(inst, frac, rng_seed=seed)
            assert cd.total_objective(inst, cfg, "unit_sum") == pytest.approx(12.0)

    def test_unknown_sampler_rejected(self, example, example_frac):
        with pytest.raises(DomainError):
            cd.avg(example, example_frac, sampler="bogus")

    def test_equal_factors_give_full_group_per_slot(self):
        # m = k with uniform factors 1/k: every sampled threshold at most 1/k
        # co-displays all eligible users, so each slot ends as one subgroup
        inst = cd.Instance(n=4, m=3, k=3, pref=np.ones((4, 3)), edges=(), lam=0.5)
        frac = cd.FractionalSolution(np.full((4, 3, 3), 1 / 3))
        for seed in range(10):
            cfg = cd.avg(inst, frac, rng_seed=seed)
            for s in range(inst.k):
                assert len(cd.partition_subgroups(cfg, s).groups) == 1

    def test_marginal_probability_bounds(self, example, example_frac):
        # display marginals dominate x/2 and co-display marginals dominate
        # y/4, up to three standard errors
        runs = 3000
        hit_item = np.zeros((4, 5))
        hit_pair = np.zeros((len(example.edges), 5))
        for seed in range(runs):
            cfg = cd.avg(example, example_frac, rng_seed=seed, sampler="advanced")
            for u in range(4):
                hit_item[u, cfg.assign[u]] += 1
            for ei, e in enumerate(example.edges):
                same = cfg.assign[e.u] == cfg.assign[e.v]
                for c in cfg.assign[e.u][same]:
                    hit_pair[ei, c] += 1
        p_item = hit_item / runs
        p_pair = hit_pair / runs
        sig_i = np.sqrt(p_item * (1 - p_item) / runs)
        sig_p = np.sqrt(p_pair * (1 - p_pair) / runs)
        x = example_frac.x
        assert (p_item >= x.sum(axis=2) / 2 - 3 * sig_i - 1e-12).all()
        for ei, e in enumerate(example.edges):
            y_e = np.minimum(x[e.u], x[e.v]).sum(axis=1)
            assert (p_pair[ei] >= y_e / 4 - 3 * sig_p[ei] - 1e-12).all()

    # ((n, m, k, edge_prob, instance seed, cap, rng_seed), counters)
    @pytest.mark.parametrize("sampler,expected", [
        ("uniform", [((12, 6, 2, 0.3, 0, 3, 0), {"samples": 101, "iterations": 4, "fallback_cells": 12}),
                     ((12, 6, 2, 0.3, 0, 3, 1), {"samples": 92, "iterations": 4, "fallback_cells": 12}),
                     ((20, 8, 3, 0.2, 5, 3, 0), {"samples": 218, "iterations": 10, "fallback_cells": 32}),
                     ((20, 8, 3, 0.2, 5, 3, 1), {"samples": 270, "iterations": 10, "fallback_cells": 32})]),
        ("advanced", [((12, 6, 2, 0.3, 0, 3, 0), {"samples": 4, "iterations": 4, "fallback_cells": 12}),
                      ((20, 8, 3, 0.2, 5, 3, 0), {"samples": 10, "iterations": 10, "fallback_cells": 32}),
                      ((30, 10, 3, 0.1, 7, 3, 0), {"samples": 18, "iterations": 18, "fallback_cells": 46}),
                      ((30, 10, 3, 0.1, 7, 3, 1), {"samples": 17, "iterations": 17, "fallback_cells": 46})]),
    ])
    def test_stats_counters(self, sampler, expected):
        # the counters of earlier versions (before the cached xbar) on caps
        # that starve most cells
        for (n, m, k, p, seed, cap, rng_seed), counters in expected:
            inst = cd.gen_random(n, m, k, edge_prob=p, seed=seed)
            frac, _ = lpm.solve_fractional(inst)
            stats = {}
            cd.avg(inst, frac, rng_seed=rng_seed, sampler=sampler, cap=cap, stats=stats)
            assert stats == counters, (n, m, k, cap, rng_seed)

    def test_best_of_dominates_single_run(self, example, example_frac):
        single = cd.total_objective(
            example, cd.avg(example, example_frac, rng_seed=0), "unit_sum")
        best = cd.total_objective(
            example, cd.best_of(example, example_frac, seeds=range(8)), "unit_sum")
        assert best >= single - 1e-12


def generator_position(rng):
    """What decides the generator's next draws: the Philox counter, its
    buffered words and the buffered 32-bit half.  (`uinteger` is left out:
    it is only read while `has_uint32` is set.)"""
    st = rng.bit_generator.state
    return (st["state"]["counter"].tolist(), st["buffer"].tolist(), st["buffer_pos"],
            st["has_uint32"])


def scalar_draws(rng, m, k, size):
    return [(int(rng.integers(m)), int(rng.integers(k)), float(rng.random()))
            for _ in range(size)]


def block_draws(block):
    c, s, alpha = block
    assert c.dtype == np.int64 and s.dtype == np.int64 and alpha.dtype == np.float64
    return [(int(a), int(b), float(x)) for a, b, x in zip(c, s, alpha)]


class TestUniformBlock:
    """`uniform_block` returns what the scalar calls of `sample_focal` would
    draw, in order, and leaves the generator where they would."""

    @pytest.mark.parametrize("m, k", [(2, 2), (5, 3), (20, 4), (7, 7), (1, 4), (6, 1), (1, 1),
                                      (3 * 2**30, 5), (2**32, 3), (2**32 + 1, 2)])
    def test_matches_scalar_calls(self, m, k):
        # ranges in [2, 2**32] whose 256-draw blocks hold no rejection at
        # these seeds; at 3 * 2**30 a quarter of the draws are rejected, and
        # a range of 1 or above 2**32 is never decoded
        decoded = (m, k) in {(2, 2), (5, 3), (20, 4), (7, 7), (2**32, 3)}
        for seed in range(4):
            for skip in range(3):  # start at several positions in Philox's 4-word buffer
                want, got = seeded_rng(seed), seeded_rng(seed)
                want.random(skip), got.random(skip)
                block = block_draws(rounding.uniform_block(got, m, k))
                assert len(block) == (rounding.UNIFORM_BLOCK if decoded else rounding.SCALAR_BLOCK)
                assert block == scalar_draws(want, m, k, len(block))
                assert generator_position(got) == generator_position(want)

    @pytest.mark.parametrize("m, k", [(2, 2), (5, 3), (20, 4), (7, 7)])
    def test_typical_blocks_are_decoded(self, m, k):
        # a rejection at these ranges has odds below 1e-7 per draw, so the
        # raw words of these seeds decode, and to the scalar draws
        for seed in range(4):
            want, got = seeded_rng(seed), seeded_rng(seed)
            block = rounding._decode_block(got.bit_generator.random_raw(512), m, k)
            assert block is not None
            assert block_draws(block) == scalar_draws(want, m, k, 256)

    def test_consecutive_blocks_continue_the_stream(self):
        want, got = seeded_rng(9), seeded_rng(9)
        drawn = []
        for _ in range(3):
            drawn += block_draws(rounding.uniform_block(got, 12, 3))
        assert drawn == scalar_draws(want, 12, 3, 3 * 256)
        assert generator_position(got) == generator_position(want)

    @pytest.mark.parametrize("m, k", [(6, 1), (1, 4), (3, 1)])
    def test_short_scalar_blocks_continue_the_stream(self, m, k):
        # with k = 1 each integers(m) takes a 32-bit half, so a block may end
        # with the other half buffered for the next
        want, got = seeded_rng(9), seeded_rng(9)
        got.integers(m), want.integers(m)
        drawn = []
        for _ in range(3):
            block = block_draws(rounding.uniform_block(got, m, k))
            assert len(block) == rounding.SCALAR_BLOCK
            drawn += block
        assert drawn == scalar_draws(want, m, k, 3 * rounding.SCALAR_BLOCK)
        assert generator_position(got) == generator_position(want)

    def test_buffered_half_falls_back(self):
        want, got = seeded_rng(4), seeded_rng(4)
        want.integers(5), got.integers(5)  # leaves the high half buffered
        assert got.bit_generator.state["has_uint32"] == 1
        assert block_draws(rounding.uniform_block(got, 5, 3)) == \
            scalar_draws(want, 5, 3, rounding.SCALAR_BLOCK)
        assert generator_position(got) == generator_position(want)

    def test_lemire_rejection_falls_back_without_consuming(self):
        # a raw word whose low half is 0 scales to leftover 0 < 2**32 % 3 = 1,
        # so `integers(3)` rejects it and draws again: the block's layout breaks
        want, got = seeded_rng(2), seeded_rng(2)
        for rng in (want, got):
            st = rng.bit_generator.state
            st["buffer"] = np.array([0xABCD << 32, 7 << 40, 2**63 + 5, 12345 << 20],
                                    dtype=np.uint64)
            st["buffer_pos"] = 0
            rng.bit_generator.state = st
        peek = copy.deepcopy(got)
        assert rounding._decode_block(peek.bit_generator.random_raw(512), 3, 2) is None
        assert block_draws(rounding.uniform_block(got, 3, 2)) == \
            scalar_draws(want, 3, 2, rounding.SCALAR_BLOCK)
        assert generator_position(got) == generator_position(want)


# shapes of the block-drawing checks, k = 1 and m = k included
BLOCK_LADDER = [(6, 4, 2), (6, 3, 1), (10, 5, 3), (12, 6, 2), (20, 8, 3), (30, 6, 1),
                (40, 10, 4), (60, 12, 4)]


def ladder_cases():
    """(instance, relaxation, caps): no cap, the tight cap ceil(n/m) and a
    loose one twice as large."""
    for i, (n, m, k) in enumerate(BLOCK_LADDER):
        inst = cd.gen_random(n, m, k, edge_prob=0.2, seed=70 + i)
        frac, _ = lpm.solve_fractional(inst)
        tight = -(-n // m)
        yield inst, frac, (None, tight, 2 * tight)


def outcome(run):
    """The assignment and counters of a rounding run, or its error."""
    stats = {}
    try:
        return run(stats).assign.tolist(), stats
    except DomainError as exc:
        return str(exc), stats


class TestBlockedAvg:
    """Uniform `avg` draws a block at a time and must match the per-draw
    loop of `avg_reference`, assignments and counters alike."""

    def test_avg_matches_per_draw_reference(self):
        for inst, frac, caps in ladder_cases():
            for cap in caps:
                for seed in range(3):
                    want, got = (outcome(lambda st, fn=fn: fn(inst, frac, rng_seed=seed, cap=cap,
                                                              stats=st))
                                 for fn in (avg_reference.avg, cd.avg))
                    assert got == want, (inst.n, inst.m, inst.k, cap, seed)

    @pytest.mark.parametrize("cap", [None, 3])
    def test_zero_thresholds_on_a_starved_state(self, monkeypatch, cap):
        # with every factor 0 the state starts starved, and only a draw with
        # alpha = 0 reaches a maximum factor.  The generator's first words are
        # crafted: draw 0 is (1, 1, 0.0), a hit on every user (or the first
        # `cap`); draw 1 repeats it and finds nobody, a miss that counts
        # towards the probe, which fires on the 64th miss in a row
        inst = cd.gen_random(5, 3, 2, edge_prob=0.5, seed=1)
        frac = cd.FractionalSolution(np.zeros((5, 3, 2)))
        word = (1 << 31) | (3 << 62)  # halves 2**31 and 3 * 2**30: c = 1 of 3, s = 1 of 2

        def crafted(seed):
            rng = seeded_rng(seed)
            st = rng.bit_generator.state
            st["buffer"] = np.array([word, 0, word, 0], dtype=np.uint64)
            st["buffer_pos"] = 0
            rng.bit_generator.state = st
            return rng

        monkeypatch.setattr(rounding, "seeded_rng", crafted)
        monkeypatch.setattr(avg_reference, "seeded_rng", crafted)
        want, got = (outcome(lambda st, fn=fn: fn(inst, frac, cap=cap, stats=st))
                     for fn in (avg_reference.avg, cd.avg))
        assert got == want
        assert want[0][0][1] == 1 and want[1]["iterations"] == 1 and want[1]["samples"] >= 65

    def test_wrappers_match_per_draw_reference(self, monkeypatch):
        def runs():
            out = []
            for inst, frac, caps in ladder_cases():
                for cap in caps:
                    out.append(outcome(lambda st: cd.best_of(inst, frac, seeds=range(3),
                                                             cap=cap)))
                    if cap is not None:
                        tele = dataclasses.replace(inst, st=cd.StParams(0.3, cap))
                        out += [outcome(lambda st, seed=seed: cd.avg_st(tele, frac, rng_seed=seed))
                                for seed in range(2)]
            return out

        got = runs()
        monkeypatch.setattr(rounding, "avg", avg_reference.avg)  # what best_of and avg_st call
        assert got == runs()

    def test_advanced_sampler_unchanged(self):
        for inst, frac, caps in itertools.islice(ladder_cases(), 4):
            for cap in caps:
                want, got = (outcome(lambda st, fn=fn: fn(inst, frac, rng_seed=1,
                                                          sampler="advanced", cap=cap, stats=st))
                             for fn in (avg_reference.avg, cd.avg))
                assert got == want


class TestAvgd:
    def test_fixture_table_and_trace(self, example, example_frac):
        trace = []
        cfg = cd.avgd(example, example_frac, r=0.25, trace=trace)
        assert np.array_equal(cfg.assign, DETERMINISTIC_TABLE)
        got = cd.total_objective(example, cfg, "unit_sum")
        assert got == pytest.approx(EXPECTED_UNIT["avgd"], abs=1e-9)
        first = trace[0]
        assert (first["c"], first["s"], first["alpha"]) == (4, 0, 0.0)
        assert first["alg"] == pytest.approx(3.35, abs=1e-2)
        assert first["opt_lp_fut"] == pytest.approx(6.97, abs=1e-2)
        assert first["f"] == pytest.approx(5.09, abs=1e-2)

    def test_deterministic(self, example, example_frac):
        a = cd.avgd(example, example_frac)
        b = cd.avgd(example, example_frac)
        assert np.array_equal(a.assign, b.assign)

    def test_worst_case_bound_on_randoms(self):
        # unit-sum output of the r = 1/4 run dominates a quarter of the bound
        for inst in random_suite(10, base_seed=900):
            frac, bound = lpm.solve_fractional(inst)
            cfg = cd.avgd(inst, frac, r=0.25)
            assert cd.validate(cfg, inst) == []
            val = cd.total_objective(inst, cfg, "unit_sum")
            assert val >= bound / 4 - 1e-9

    def test_step_score_at_least_best_threshold_set(self, example, example_frac):
        # the chosen subgroup scores no worse than every plain threshold set,
        # which is what the worst-case guarantee rests on
        trace = []
        cd.avgd(example, example_frac, r=0.25, trace=trace)
        state = RoundingState(example, example_frac)
        for step in trace:
            budget = step["f"]
            x = state.x
            for c in range(5):
                for s in range(3):
                    elig = state.eligible_users(c, s)
                    if elig.size == 0:
                        continue
                    for alpha in np.unique(x[elig, c, s]):
                        target = [int(u) for u in elig if x[u, c, s] >= alpha]
                        alg = float(example.pref[target, c].sum())
                        tset = set(target)
                        for e in example.edges:
                            if e.u in tset and e.v in tset:
                                alg += float(e.weight()[c])
                        fut = _opt_lp_rest(example, state, tset, s)
                        assert budget >= alg + 0.25 * fut - 1e-9
            state.assign_users(step["users"], step["c"], step["s"])

    def test_negative_r_rejected(self, example, example_frac):
        with pytest.raises(DomainError):
            cd.avgd(example, example_frac, r=-0.1)

    @pytest.mark.parametrize("r", [float("inf"), float("nan")])
    def test_non_finite_r_rejected(self, example, example_frac, r):
        with pytest.raises(DomainError, match="finite"):
            cd.avgd(example, example_frac, r=r)

    def test_subgroup_size_spectrum_in_r(self):
        # small r behaves like the whole-group display, large r like the
        # personalized one; sizes shrink monotonically along the grid
        # (near-flat preferences, so every item is universally liked, but
        # each user still has her own strict favorites)
        inst = cd.gen_gap_p(5, 2, eps=0.05)
        frac, _ = lpm.solve_fractional(inst)
        sizes = []
        for r in (0.0, 0.25, 1.0, 4.0, 64.0):
            cfg = cd.avgd(inst, frac, r=r)
            per_slot = []
            for s in range(inst.k):
                groups = cd.partition_subgroups(cfg, s).groups
                per_slot.append(inst.n / len(groups))
            sizes.append(np.mean(per_slot))
        assert sizes[0] == pytest.approx(inst.n)  # every item universally liked
        assert all(a >= b - 1e-9 for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == pytest.approx(1.0)


def _opt_lp_rest(inst, state, target, s):
    """Fractional value of the open cells outside `target` (test-side copy)."""
    x = state.x
    val = 0.0
    open_cells = {(u, t) for u in range(inst.n) for t in range(inst.k)
                  if state.assign[u, t] < 0 and not (t == s and u in target)}
    for (u, t) in open_cells:
        val += float(inst.pref[u] @ x[u, :, t])
    for e in inst.edges:
        w = e.weight()
        for t in range(inst.k):
            if (e.u, t) in open_cells and (e.v, t) in open_cells:
                val += float(w @ np.minimum(x[e.u, :, t], x[e.v, :, t]))
    return val


def _large_suite():
    """Seeded instances with more eligible users per (item, slot) than the
    exact subset search enumerates, so avgd runs the local search and the
    factor-prefix dominance check."""
    shapes = [(16, 5, 2), (24, 6, 2), (32, 6, 3), (40, 8, 3)]
    out = [cd.gen_random(n, m, k, edge_prob=min(0.5, 6 / n), seed=4000 + i)
           for i, (n, m, k) in enumerate(shapes)]
    assert all(inst.n > rounding.EXACT_SUBSET_LIMIT for inst in out)
    return out


class TestLargeEligibleSets:
    def test_avgd_quarter_bound(self):
        for inst in _large_suite():
            frac, bound = lpm.solve_fractional(inst)
            cfg = cd.avgd(inst, frac, r=0.25)
            assert cd.validate(cfg, inst) == []
            assert cd.total_objective(inst, cfg, "unit_sum") >= bound / 4 - 1e-9

    @pytest.mark.parametrize("r", [0.25, 1.0])
    def test_avgd_step_dominates_threshold_sets(self, r):
        # with more than EXACT_SUBSET_LIMIT eligible users only the prefix
        # check keeps each step at least as good as every threshold step;
        # spread factors give many distinct thresholds per (item, slot)
        inst = _large_suite()[1]
        rng = np.random.Generator(np.random.Philox(5))
        p = rng.dirichlet(np.ones(inst.m), size=inst.n)
        top = p.max(axis=1, keepdims=True)
        t = np.minimum(1.0, (1 / inst.k - 1 / inst.m) / (top - 1 / inst.m))
        p = t * p + (1 - t) / inst.m  # every factor at most 1/k
        frac = cd.FractionalSolution(np.repeat(p[:, :, None], inst.k, axis=2))
        frac.check()
        trace = []
        cd.avgd(inst, frac, r=r, trace=trace)
        state = RoundingState(inst, frac)
        x = state.x
        for step in trace:
            for c in range(inst.m):
                for s in range(inst.k):
                    elig = state.eligible_users(c, s)
                    for alpha in np.unique(x[elig, c, s]):
                        tset = {int(u) for u in elig if x[u, c, s] >= alpha}
                        alg = float(inst.pref[list(tset), c].sum()) + sum(
                            float(e.weight()[c]) for e in inst.edges
                            if e.u in tset and e.v in tset)
                        fut = _opt_lp_rest(inst, state, tset, s)
                        assert step["f"] >= alg + r * fut - 1e-9
            state.assign_users(step["users"], step["c"], step["s"])

    def test_capped_avgd_st_feasible(self):
        for inst in _large_suite():
            cap = 2 * -(-inst.n // inst.m)
            tele = cd.Instance(n=inst.n, m=inst.m, k=inst.k, pref=inst.pref,
                               edges=inst.edges, lam=inst.lam,
                               st=cd.StParams(d_tel=0.5, M=cap))
            frac, _ = lpm.solve_fractional(inst)
            cfg = cd.avgd(tele, frac, r=0.25, cap=cap)
            assert cd.st_feasibility(tele, cfg) == (True, 0)

    def test_capped_step_takes_clique_by_factor(self):
        # eight friends (users 0-7) gain only together on item 0 and hold its
        # high factors; eight loners prefer item 1.  At cap 8 the greedy seed
        # by linear score fills up with loners and single moves cannot reach
        # the clique, so only the factor-prefix check finds it.
        n, clique = 16, range(8)
        one = np.array([1.0, 0.0])
        edges = tuple(cd.Edge(u, v, one, one) for u in clique for v in clique if u < v)
        pref = np.array([[0.0, 0.0]] * 8 + [[0.0, 4.0]] * 8)
        inst = cd.Instance(n=n, m=2, k=1, pref=pref, edges=edges, lam=0.5,
                           st=cd.StParams(d_tel=0.0, M=8))
        x = np.array([[0.9, 0.1]] * 8 + [[0.1, 0.9]] * 8)[:, :, None]
        trace = []
        cfg = cd.avgd(inst, cd.FractionalSolution(x), r=0.25, trace=trace, cap=8)
        assert (trace[0]["c"], trace[0]["users"]) == (0, list(clique))
        assert cfg.assign[:, 0].tolist() == [0] * 8 + [1] * 8
        assert cd.st_feasibility(inst, cfg) == (True, 0)

    def test_avg_both_samplers_within_bound(self):
        for inst in _large_suite():
            frac, bound = lpm.solve_fractional(inst)
            for sampler in ("uniform", "advanced"):
                for seed in range(3):
                    cfg = cd.avg(inst, frac, rng_seed=seed, sampler=sampler)
                    assert cd.validate(cfg, inst) == []
                    assert cd.total_objective(inst, cfg, "unit_sum") <= bound + 1e-9


def lp_terms(state):
    """(opt_cur, loss, q_es) of `state` as avgd computes them on its first
    step: the relaxation value of the open cells, the linear loss of closing
    each cell and each edge's pair value per slot."""
    inst = state.inst
    xt, empty, eu, ev = state.x, state.assign < 0, inst.eu, inst.ev
    lpref = np.einsum("uc,ucs->us", inst.pref, xt)
    q_es = (inst.w[:, :, None] * np.minimum(xt[eu], xt[ev])).sum(axis=1)
    both_open = empty[eu] & empty[ev]
    opt_cur = float(lpref[empty].sum()) + float(q_es[both_open].sum())
    loss = np.where(empty, lpref, 0.0)
    np.add.at(loss, np.column_stack([eu, ev]).ravel(), np.repeat(both_open * q_es, 2, axis=0))
    return opt_cur, loss, q_es


def _avgd_full_rescore(inst, frac, r, trace, cap=None):
    """Reference avgd that recomputes every relaxation term and rescores
    every (item, slot) on every step (the solver before its cell cache)
    through the per-cell pair-list search of `avgd_reference`; same tie rule
    and trace records."""
    state = RoundingState(inst, frac, cap=cap)
    pref, w = inst.pref, inst.w
    it = 0
    while state.unfilled:
        rounding._fallback_fill(state)
        if not state.unfilled:
            break
        opt_cur, loss, q_es = lp_terms(state)
        best = None
        for c in range(inst.m):
            for s in range(inst.k):
                cell = avgd_reference.score_cell(state, c, s, r, loss, q_es)
                if cell is not None and (best is None or cell[0] > best[0] + rounding._TIE_EPS):
                    best = (cell[0], c, s, cell[1])
        if best is None:
            if not rounding._fallback_fill(state):
                raise DomainError("avgd found no cell to assign")
            continue
        _, c, s, users = best
        inner = inst.edges_within(users)
        alg = float(pref[users, c].sum()) + running_sum(w[inner, c])
        lost = float(loss[users, s].sum()) - running_sum(q_es[inner, s])
        opt_fut = opt_cur - lost
        trace.append({"iteration": it, "c": int(c), "s": int(s),
                      "alpha": float(state.x[users, c, s].min()),
                      "users": [int(u) for u in users], "alg": alg,
                      "opt_lp_fut": opt_fut, "f": alg + r * opt_fut})
        state.assign_users([int(u) for u in users], int(c), int(s))
        it += 1
    return state.to_configuration()


def terms_events(monkeypatch):
    """The events of an avgd run, in order: "build" when lpref is derived
    from the factors, "zero" when a full subgroup zeroed factors and "fill
    zero" when that happened inside a fallback fill."""
    events = []
    real_einsum, real_assign, real_fill = np.einsum, RoundingState._assign, rounding._fallback_fill
    in_fill = []

    def einsum(subscripts, *operands, **kw):
        if subscripts == "uc,ucs->us":  # lpref
            events.append("build")
        return real_einsum(subscripts, *operands, **kw)

    def assign(state, users, c, s):
        before = state.zeroings
        real_assign(state, users, c, s)
        if state.zeroings != before:
            events.append("fill zero" if in_fill else "zero")

    def fallback_fill(state):
        in_fill.append(1)
        try:
            return real_fill(state)
        finally:
            in_fill.pop()

    monkeypatch.setattr(np, "einsum", einsum)
    monkeypatch.setattr(RoundingState, "_assign", assign)
    monkeypatch.setattr(rounding, "_fallback_fill", fallback_fill)
    return events


def assert_terms_follow_zeroings(events):
    """The first event builds the terms, and every later build follows a
    zeroing since the build before it."""
    builds = [i for i, e in enumerate(events) if e == "build"]
    assert builds[0] == 0
    assert all({"zero", "fill zero"} & set(events[a:b]) for a, b in zip(builds, builds[1:]))


def _outcome(fn):
    """(assignment, trace) of an avgd-style call, or the error it raised."""
    trace = []
    try:
        return fn(trace).assign.tolist(), trace
    except DomainError as exc:
        return "error", str(exc)


def _uniform_frac(inst):
    """Every factor 1/m: valid for m >= k and never starved without a cap."""
    return cd.FractionalSolution(np.full((inst.n, inst.m, inst.k), 1.0 / inst.m))


class TestIncrementalAvgd:
    """The cell cache and neighbour-index search of avgd against full
    rescoring with the per-cell pair-list search, and what the cache saves."""

    # (n, m, k, edge_prob or None for min(0.5, 6/n)); in the last shape most
    # scored cells have more than EXACT_SUBSET_LIMIT eligible users and the
    # mean degree is about 9
    SHAPES = [(16, 5, 2, None), (24, 6, 2, None), (32, 6, 3, None), (40, 8, 3, None),
              (60, 10, 3, None), (48, 4, 2, 0.2)]

    @pytest.mark.parametrize("r", [0.25, 1.0])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_full_rescoring(self, shape, r):
        n, m, k, p = shape
        inst = cd.gen_random(n, m, k, edge_prob=p or min(0.5, 6 / n), seed=4100 + n)
        frac, _ = lpm.solve_fractional(inst)
        tight = -(-n // m)
        for cap in (None, tight, 2 * tight):
            got = _outcome(lambda tr: cd.avgd(inst, frac, r=r, trace=tr, cap=cap))
            want = _outcome(lambda tr: _avgd_full_rescore(inst, frac, r, tr, cap))
            assert got == want, (shape, r, cap)

    @pytest.mark.parametrize("r", [0.25, 1.0])
    @pytest.mark.parametrize("shape", SHAPES[:3])
    def test_teleport_matches_full_rescoring(self, shape, r):
        n, m, k, _ = shape
        for M in (-(-n // m), 2 * -(-n // m)):
            inst = cd.gen_random(n, m, k, edge_prob=min(0.5, 6 / n), seed=4200 + n,
                                 d_tel=0.5, m_cap=M)
            frac, _ = lpm.solve_fractional(inst)
            got = _outcome(lambda tr: cd.avg_st(inst, frac, deterministic=True, r=r))
            want = _outcome(lambda tr: _avgd_full_rescore(inst, frac, r, [], M))
            assert got == want, (shape, r, M)

    def test_sparse_factors_with_fills_match_full_rescoring(self):
        # sparse random factors under caps starve cells mid-run, so fallback
        # fills (some of them filling and zeroing a subgroup) come between
        # steps and only their rows and columns are rescored
        for seed in range(150):
            rng = np.random.default_rng(seed)
            n, m, k = int(rng.integers(8, 30)), int(rng.integers(3, 7)), int(rng.integers(2, 4))
            inst = cd.gen_random(n, m, k, edge_prob=0.3, seed=seed)
            frac = cd.FractionalSolution(rng.random((n, m, k)) * (rng.random((n, m, k)) < 0.3))
            cap = [-(-n // m), -(-n // m) + 1, 2 * -(-n // m)][seed % 3]
            got = _outcome(lambda tr: cd.avgd(inst, frac, r=0.25, trace=tr, cap=cap))
            assert got == _outcome(lambda tr: _avgd_full_rescore(inst, frac, 0.25, tr, cap)), seed

    def test_step_rescores_only_its_row_and_column(self, monkeypatch):
        inst = cd.gen_random(16, 5, 3, edge_prob=0.4, seed=4300)
        m, k = inst.m, inst.k
        calls = []
        real = rounding._score_cells
        monkeypatch.setattr(rounding, "_score_cells",
                            lambda state, cs, *args: calls.extend(cs) or real(state, cs, *args))

        class Steps(list):
            def append(self, step):
                super().append((step, len(calls)))

        trace = Steps()
        cd.avgd(inst, _uniform_frac(inst), r=0.25, trace=trace)
        assert sum(len(step["users"]) for step, _ in trace) == inst.n * k  # no fallback
        assert len(trace) > 2
        per_step = np.diff([seen for _, seen in trace])
        assert per_step.max() <= m + k - 1

    def test_no_starved_cell_skips_optimistic_utility(self, monkeypatch):
        # the fallback's item ranking is built once per instance, on the
        # first fill that finds a starved cell; `metrics` reads it too
        inst = cd.gen_random(16, 5, 3, edge_prob=0.4, seed=4300)
        calls = []
        real = core.optimistic_utility
        monkeypatch.setattr(core, "optimistic_utility", lambda i: calls.append(1) or real(i))
        cfg = cd.avgd(inst, _uniform_frac(inst), r=0.25)
        assert calls == []
        # a starved state still gets filled, through one utility table
        starved = cd.FractionalSolution(np.zeros((inst.n, inst.m, inst.k)))
        state = RoundingState(inst, starved)
        assert rounding._fallback_fill(state) == inst.n * inst.k
        assert state.unfilled == 0 and calls == [1]
        assert rounding._fallback_fill(RoundingState(inst, starved, cap=4)) == inst.n * inst.k
        cd.metrics(inst, cfg)
        assert calls == [1]

    @pytest.mark.parametrize("cap", [None, 4, 8])
    def test_relaxation_terms_rebuilt_only_after_zeroing(self, monkeypatch, cap):
        # lpref, q_es and pair depend on the factors alone, so avgd derives
        # them again only after a full subgroup zeroed a factor
        inst = cd.gen_random(16, 5, 3, edge_prob=0.4, seed=4300)
        events = terms_events(monkeypatch)
        trace = []
        cd.avgd(inst, _uniform_frac(inst), r=0.25, trace=trace, cap=cap)
        assert_terms_follow_zeroings(events)
        if cap is None:
            assert events == ["build"]
        else:
            assert 1 < events.count("build") < len(trace)

    def test_fallback_zeroing_rebuilds_terms(self, monkeypatch):
        # sparse factors at cap 4: a fallback fill fills a subgroup and zeroes
        # factors, and the terms are derived again before the next step
        inst = cd.gen_random(16, 5, 3, edge_prob=0.4, seed=4300)
        rng = np.random.default_rng(1)
        x = rng.random((16, 5, 3)) * (rng.random((16, 5, 3)) < 0.3)
        frac = cd.FractionalSolution(x)
        want = _outcome(lambda tr: _avgd_full_rescore(inst, frac, 0.25, tr, 4))
        assert want[0] != "error"
        events = terms_events(monkeypatch)
        assert _outcome(lambda tr: cd.avgd(inst, frac, r=0.25, trace=tr, cap=4)) == want
        assert_terms_follow_zeroings(events)
        assert "fill zero" in events

    def test_no_open_cell_raises(self, example, example_frac):
        # a cap of 0 is rejected before any cell is scored
        with pytest.raises(DomainError, match="size cap must be an integer >= 1"):
            cd.avgd(example, example_frac, cap=0)


# a score or bonus: a few exact values, so that scores tie, or any float of
# either sign and magnitude, so that the order of every sum shows
_TIED = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_SCORE = st.one_of(_TIED, st.sampled_from([-1.0, -0.5]),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
_BONUS = st.one_of(_TIED, st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False))


def seeded_problem(rng, n, q, density, shift):
    """(users, a, eu, ev, bonus): q sorted eligible users of n, a random graph
    of the given density (edges in random order and orientation), normal
    scores around `shift` and lognormal bonuses.  Below a negative shift the
    local search makes long runs of moves, where a gain of three or more
    terms shows the order of its sum."""
    users = np.sort(rng.permutation(n)[:q])
    iu, ju = np.triu_indices(n, 1)
    keep = rng.permutation(np.flatnonzero(rng.random(iu.size) < density))
    flip = rng.random(keep.size) < 0.5
    eu, ev = np.where(flip, ju[keep], iu[keep]), np.where(flip, iu[keep], ju[keep])
    return users, rng.normal(shift, 5.0, n), eu, ev, rng.lognormal(0.0, 2.0, keep.size)


@st.composite
def subset_problems(draw):
    """(users, a, eu, ev, bonus, capacity) over n users: `users` is the sorted
    eligible set, above EXACT_SUBSET_LIMIT users, and edges may join isolated
    users or reach users outside it; a and bonus cover all users and edges."""
    n = draw(st.integers(rounding.EXACT_SUBSET_LIMIT + 1, 24))
    q = draw(st.integers(rounding.EXACT_SUBSET_LIMIT + 1, n))
    if draw(st.booleans()):  # edges and values drawn one by one
        users = np.sort(draw(st.permutations(range(n)))[:q]).astype(np.int64)
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda p: p[0] != p[1]),
                              unique_by=lambda p: frozenset(p), max_size=3 * n))
        eu = np.array([u for u, _ in pairs], dtype=np.int64)
        ev = np.array([v for _, v in pairs], dtype=np.int64)
        a = np.array(draw(st.lists(_SCORE, min_size=n, max_size=n)))
        bonus = np.array(draw(st.lists(_BONUS, min_size=eu.size, max_size=eu.size)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        users, a, eu, ev, bonus = seeded_problem(
            rng, n, q, draw(st.sampled_from([0.1, 0.3, 0.6, 0.9])),
            draw(st.sampled_from([0.0, -5.0, -20.0])))
    capacity = draw(st.one_of(st.just(1), st.integers(1, q + 2)))
    return users, a, eu, ev, bonus, capacity


def assert_batch_matches_reference(n, eu, ev, rows):
    """One batch of `_best_prefix` over the users users[order] and of
    `_local_subset` over `users`, one row per (users, a, bonus, capacity,
    order) of `rows` on the edges (eu, ev) among n users, against
    `avgd_reference` on each row: the same score, bit for bit, and the same
    users as the per-user sums over the relabelled problem and as the
    per-cell passes over the neighbour index."""
    nbrs = neighbour_index(eu, ev, n)
    elig = np.zeros((len(rows), n), dtype=bool)
    order = np.zeros((len(rows), n), dtype=np.int64)
    for b, (users, _, _, _, o) in enumerate(rows):
        elig[b, users] = True
        order[b] = np.concatenate([users[o], np.flatnonzero(~elig[b])])
    a = np.array([row[1] for row in rows])
    bonus = np.array([row[2] for row in rows]).reshape(len(rows), eu.size).T  # (E, rows)
    room = np.array([row[3] for row in rows])
    length = np.minimum(elig.sum(axis=1), room)
    # the given orders and the descending-score orders that seed the local
    # search, as two orders per row in one call
    by_score = np.argsort(np.where(elig, -a, np.inf), axis=1, kind="stable")
    score, mask = rounding._best_prefix(np.concatenate([order, by_score]), np.tile(length, 2),
                                        a, eu, ev, bonus)
    got_prefix = score[:len(rows)], mask[:len(rows)]
    got_local = rounding._local_subset(elig, room, a, nbrs, bonus, score[len(rows):],
                                       mask[len(rows):])
    for b, (users, a_b, bonus_b, capacity, o) in enumerate(rows):
        inner = np.isin(eu, users) & np.isin(ev, users)
        pairs = list(zip(np.searchsorted(users, eu[inner]).tolist(),
                         np.searchsorted(users, ev[inner]).tolist(), bonus_b[inner].tolist()))
        adj = avgd_reference.adjacency(users.size, pairs)
        brow = bonus_b[nbrs[2]]  # the bonus of each index entry's edge
        score, mask = avgd_reference.best_prefix(o, a_b[users], adj, capacity)
        i_score, i_mask = avgd_reference.indexed_best_prefix(users[o], a_b, nbrs, brow, capacity)
        got = (got_prefix[0][b].hex(), np.flatnonzero(got_prefix[1][b]).tolist())
        assert got == (float(score).hex(), users[mask].tolist())
        assert got == (float(i_score).hex(), np.flatnonzero(i_mask).tolist())
        score, local = avgd_reference.best_subset(a_b[users], pairs, adj, capacity)
        i_score, i_mask = avgd_reference.indexed_local_subset(users, a_b, nbrs, brow, capacity)
        got = (got_local[0][b].hex(), np.flatnonzero(got_local[1][b]).tolist())
        assert got == (float(score).hex(), users[local].tolist())
        assert got == (float(i_score).hex(), np.flatnonzero(i_mask).tolist())


class TestArraySubsetSearch:
    """The batched array passes of the large-cell search against the per-user
    sums and the per-cell passes of `avgd_reference`."""

    @settings(max_examples=300, deadline=None)
    @given(subset_problems(), st.randoms(use_true_random=False))
    def test_matches_reference(self, problem, rand):
        users, a, eu, ev, bonus, capacity = problem
        order = np.array(rand.sample(range(users.size), users.size))  # any user order
        assert_batch_matches_reference(a.size, eu, ev, [(users, a, bonus, capacity, order)])

    def test_seeded_dense_sweep_matches_reference(self):
        # dense graphs and long move runs, where an out-of-order gain shows;
        # the rows of a batch share a graph and move in lockstep
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(rounding.EXACT_SUBSET_LIMIT + 1, 41))
            rows = []
            for _ in range(int(rng.integers(1, 6))):
                q = int(rng.integers(rounding.EXACT_SUBSET_LIMIT + 1, n + 1))
                if not rows:
                    users, a, eu, ev, bonus = seeded_problem(rng, n, q, rng.choice([0.3, 0.6]),
                                                             -20.0)
                else:
                    users = np.sort(rng.permutation(n)[:q])
                    a, bonus = rng.normal(-20.0, 5.0, n), rng.lognormal(0.0, 2.0, eu.size)
                rows.append((users, a, bonus, int(rng.integers(1, q + 3)), rng.permutation(q)))
            assert_batch_matches_reference(n, eu, ev, rows)

    def test_add_at_and_cumsum_add_left_to_right(self):
        # the search is exact only because np.add.at and np.bincount apply
        # repeated indices in order and np.cumsum adds sequentially, as
        # Python's running sums do; on these values the exact sum and the
        # reversed order differ
        vals = np.array([1.0, 1e16, -1e16] * 12)

        def running(terms):
            return list(itertools.accumulate(terms.tolist(), initial=0.0))[1:]

        assert running(vals)[-1] == 0.0 != math.fsum(vals)
        assert running(vals[::-1])[-1] == 1.0
        assert np.cumsum(vals).tolist() == running(vals)
        out = np.zeros(3)
        np.add.at(out, np.zeros(vals.size, dtype=np.int64), vals)
        assert out.tolist() == [0.0, 0.0, 0.0]
        owner = (np.arange(vals.size, dtype=np.int64) // 3) % 2 + 1  # bins 1 and 2 take turns
        np.add.at(out, owner, vals[::-1])
        assert out.tolist() == [0.0, running(vals[::-1][owner == 1])[-1],
                                running(vals[::-1][owner == 2])[-1]] == [0.0, 1.0, 1.0]
        assert np.bincount(owner, weights=vals[::-1], minlength=3).tolist() == out.tolist()
        assert np.bincount(np.zeros(vals.size, dtype=np.int64), weights=vals).tolist() == [0.0]


def mid_run_state(rng, n, m, k, edge_prob, cap, steps):
    """A rounding state of a gen_random instance with random factors (about
    three in ten zero) after `steps` random assignments, each to a random
    cell; half of them leave one place in the cell or one eligible user."""
    inst = cd.gen_random(n, m, k, edge_prob=edge_prob, seed=int(rng.integers(2**31)))
    x = rng.random((n, m, k)) * (rng.random((n, m, k)) < 0.7)
    state = RoundingState(inst, cd.FractionalSolution(x), cap=cap)
    for _ in range(steps):
        c, s = int(rng.integers(m)), int(rng.integers(k))
        elig = state.eligible_users(c, s)
        most = min(elig.size, state.room(c, s))
        size = most - 1 if rng.random() < 0.5 else int(rng.integers(0, most + 1))
        if size > 0:
            state.assign_users(rng.choice(elig, size, replace=False).tolist(), c, s)
    return state


def assert_cells_match_reference(state, r, cs, ss):
    """`_score_cells` over the cells (cs[b], ss[b]) as one batch against both
    per-cell searches of `avgd_reference`: the same score, bit for bit, and
    the same users, or None alike.  Returns the kinds of rows seen."""
    inst, limit = state.inst, rounding.EXACT_SUBSET_LIMIT
    _, loss, q_es = lp_terms(state)
    nbrs = neighbour_index(inst.eu, inst.ev, inst.n)
    kinds = set()
    for c, s, cell in zip(cs.tolist(), ss.tolist(),
                          rounding._score_cells(state, cs, ss, r, loss, q_es, nbrs)):
        for want in (avgd_reference.score_cell(state, c, s, r, loss, q_es),
                     avgd_reference.indexed_score_cell(state, c, s, r, loss, q_es, nbrs)):
            assert (cell is None) == (want is None)
            if cell is not None:
                assert float(cell[0]).hex() == float(want[0]).hex()
                assert cell[1].tolist() == want[1].tolist()
        if cell is None:
            continue
        elig, room = state.eligible_users(c, s), state.room(c, s)
        kinds.add("exact" if elig.size <= limit else "large")
        kinds |= {"capacity 1"} if room == 1 else set()
        if elig.size > limit:  # a row moves iff its local search leaves the seed prefix
            a = inst.pref[:, c] - r * loss[:, s]
            brow = (inst.w[:, c] + r * q_es[:, s])[nbrs[2]]
            seed = avgd_reference.indexed_best_prefix(
                elig[np.argsort(-a[elig], kind="stable")], a, nbrs, brow, room)[0]
            if avgd_reference.indexed_local_subset(elig, a, nbrs, brow, room)[0] != seed:
                kinds.add("moved")
    return kinds | ({"mixed"} if {"exact", "large"} <= kinds else set())


class TestBatchedCellSearch:
    """Every row of one `_score_cells` batch against `avgd_reference`, on
    states part-way through rounding."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(rounding.EXACT_SUBSET_LIMIT + 1, 32), st.integers(2, 6),
           st.integers(1, 3), st.sampled_from([0.1, 0.3, 0.6]),
           st.sampled_from(["none", "tight", "loose"]), st.sampled_from([0.0, 0.25, 1.0]),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_reference(self, n, m, k, p, cap, r, seed, one_row):
        k, tight = min(k, m), -(-n // m)
        rng = np.random.default_rng(seed)
        cap = {"none": None, "tight": tight, "loose": 2 * tight}[cap]
        state = mid_run_state(rng, n, m, k, p, cap, int(rng.integers(0, 2 * m * k)))
        cells = rng.permutation(m * k)[:1 if one_row else None]  # any cell order
        assert_cells_match_reference(state, r, *np.divmod(cells, k))

    def test_seeded_states_cover_every_kind_of_row(self):
        rng = np.random.default_rng(15)
        kinds = set()
        for i in range(90):
            n, m = int(rng.integers(rounding.EXACT_SUBSET_LIMIT + 1, 33)), int(rng.integers(2, 7))
            k, tight = int(rng.integers(1, min(m, 3) + 1)), -(-n // m)
            state = mid_run_state(rng, n, m, k, [0.1, 0.3, 0.6][i % 3],
                                  [None, tight, 2 * tight][i // 3 % 3], int(rng.integers(0, m * k)))
            kinds |= assert_cells_match_reference(state, [0.0, 0.25, 1.0][i // 9 % 3],
                                                  *np.divmod(np.arange(m * k), k))
        assert kinds == {"exact", "large", "mixed", "capacity 1", "moved"}


def fresh_live(state):
    """`state.live` recounted from the factors and the items held."""
    return ((state.x > 0.0) & ~state.held[:, :, None]).sum(axis=1)


def fill_outcome(fill, state):
    """What a starvation fill did to `state`: its return value or error, and
    the assignment, counts and factors after it."""
    try:
        ret = fill(state)
    except DomainError as exc:
        ret = f"error: {exc}"
    return ret, state.assign.tolist(), state.counts.tolist(), state.x.tolist()


def clone(state):
    return copy.deepcopy(state, {id(state.inst): state.inst})


def assert_run_matches_reference(rng, n, m, k, p, cap):
    """A random run from a mid-run state of random csf steps, subgroup-filling
    assignments and starvation fills, each fill against the reference on a
    copy of the state, with `live` recounted after every change.  Returns
    the kinds of fill seen."""
    k, tight = min(k, m), -(-n // m)
    cap = {"none": None, "tight": tight, "loose": 2 * tight}[cap]
    state = mid_run_state(rng, n, m, k, p, cap, int(rng.integers(0, 2 * m * k)))
    assert np.array_equal(state.live, fresh_live(state))
    kinds = set()
    for _ in range(4 * n * k):
        if not state.unfilled:
            break
        c, s = int(rng.integers(m)), int(rng.integers(k))
        kind = rng.random()
        if kind < 0.4:
            rounding.csf_step(state, FocalParams(c, s, float(rng.random())))
        elif kind < 0.7:  # fill the subgroup, zeroing its other eligible users
            elig = state.eligible_users(c, s)
            take = min(elig.size - 1, state.room(c, s))
            if take > 0:
                state.assign_users(rng.choice(elig, take, replace=False).tolist(), c, s)
        else:
            want = fill_outcome(fallback_reference.fallback_fill, clone(state))
            zeroings = state.zeroings
            got = fill_outcome(rounding._fallback_fill, state)
            assert got == want
            if isinstance(got[0], str):
                kinds.add("error")
                break
            kinds.add("fill" if got[0] else "none")
            kinds |= {"zeroing fill"} if state.zeroings != zeroings else set()
            if got[0] and ((state.assign < 0) & (state.live == 0)).any():
                kinds.add("starved behind")  # a fill starved a cell before its own
        assert np.array_equal(state.live, fresh_live(state))
    return kinds


class TestStarvationCounts:
    """`RoundingState.live` against a recount after every kind of change, and
    `_fallback_fill`, which reads starvation from it, against the per-cell
    fill of `fallback_reference`."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 24), st.integers(2, 6), st.integers(1, 3),
           st.sampled_from([0.1, 0.3, 0.6]), st.sampled_from(["none", "tight", "loose"]),
           st.integers(0, 2**32 - 1))
    def test_fallback_and_live_match_reference(self, n, m, k, p, cap, seed):
        assert_run_matches_reference(np.random.default_rng(seed), n, m, k, p, cap)

    def test_seeded_runs_cover_every_kind_of_fill(self):
        rng = np.random.default_rng(17)
        kinds = set()
        for i in range(300):
            n, m, k = int(rng.integers(2, 25)), int(rng.integers(2, 7)), int(rng.integers(1, 4))
            kinds |= assert_run_matches_reference(rng, n, m, k, [0.1, 0.3, 0.6][i % 3],
                                                  ["none", "tight", "loose"][i // 3 % 3])
        assert kinds == {"none", "fill", "error", "zeroing fill", "starved behind"}

    def test_fill_starving_an_earlier_cell_leaves_it_for_the_next_call(self):
        # user 1 is starved; its fill takes item 0, which fills the (0, 0)
        # subgroup and zeroes user 0's only positive factor, behind the cursor
        inst = cd.Instance(n=2, m=2, k=1, pref=np.array([[1.0, 0.5], [1.0, 0.5]]),
                           edges=(), lam=0.5)
        x = np.array([[[1.0], [0.0]], [[0.0], [0.0]]])
        state = RoundingState(inst, cd.FractionalSolution(x), cap=1)
        ref = clone(state)
        first = fill_outcome(rounding._fallback_fill, state)
        assert first == fill_outcome(fallback_reference.fallback_fill, ref)
        assert first[:2] == (1, [[-1], [0]]) and state.live.tolist() == [[0], [0]]
        assert np.array_equal(state.live, fresh_live(state))
        second = fill_outcome(rounding._fallback_fill, state)
        assert second == fill_outcome(fallback_reference.fallback_fill, ref)
        assert second[:2] == (1, [[1], [0]])

    def test_rejected_assignment_keeps_counts(self, example, example_frac):
        state = RoundingState(example, example_frac)
        with pytest.raises(DomainError, match="user 1 is not eligible"):
            state.assign_users([1, 1], 2, 0)  # the second entry repeats a user
        assert state.assign[1, 0] == 2
        assert np.array_equal(state.live, fresh_live(state))


def state_fields(state):
    """Every field a rounding step may change, as plain values."""
    return (state.assign.tolist(), state.held.tolist(), state.counts.tolist(),
            state.live.tolist(), state.x.tolist(), state.zeroings, state.unfilled)


def attempt(fn, state):
    """fn(state), or the message of the DomainError it raised."""
    try:
        return fn(state)
    except DomainError as exc:
        return f"error: {exc}"


def assert_state_matches_reference(rng, n, m, k, p, cap):
    """Random operations applied alike to a `RoundingState` and to the
    `state_reference.ReferenceState` of the same factors: csf steps (one or
    two before a read), starvation fills, subgroup-filling assignments and
    user lists that are empty, unsorted, repeat a user or hold ineligible
    users.  After each, the return values or errors and every field agree,
    and `xbar()` is read-only and equals the full rebuild.  Returns the
    kinds of operation seen."""
    k, tight = min(k, m), -(-n // m)
    cap = {"none": None, "tight": tight, "loose": 2 * tight}[cap]
    inst = cd.gen_random(n, m, k, edge_prob=p, seed=int(rng.integers(2**31)))
    frac = cd.FractionalSolution(rng.random((n, m, k)) * (rng.random((n, m, k)) < 0.7))
    state = RoundingState(inst, frac, cap=cap)
    ref = state_reference.ReferenceState(inst, frac, cap=cap)
    kinds = set()
    for _ in range(3 * n * k):
        if not state.unfilled:
            break
        c, s = int(rng.integers(m)), int(rng.integers(k))
        elig = ref.eligible_users(c, s)
        kind = ["step", "two steps", "fill", "fill subgroup", "unsorted", "repeat", "ineligible",
                "empty"][int(rng.integers(8))]
        if kind in ("step", "two steps"):
            focals = [FocalParams(int(rng.integers(m)), int(rng.integers(k)), float(rng.random()))
                      for _ in range(1 if kind == "step" else 2)]
            got = [rounding.csf_step(state, f) for f in focals]
            want = [state_reference.csf_step(ref, f) for f in focals]
        elif kind == "fill":
            got = attempt(rounding._fallback_fill, state)
            want = attempt(fallback_reference.fallback_fill, ref)
        else:
            if kind == "fill subgroup":
                users = rng.choice(elig, max(min(elig.size - 1, ref.room(c, s)), 0), replace=False)
            elif kind == "unsorted":
                users = rng.permutation(elig)[:max(ref.room(c, s), 0)]
            elif kind == "repeat":
                users = rng.choice(elig, min(elig.size, 3), replace=False).tolist()
                if users:
                    users.insert(int(rng.integers(1, len(users) + 1)), users[0])
            elif kind == "ineligible":
                users = rng.choice(n, int(rng.integers(1, min(n, 4) + 1)), replace=False)
            else:
                users = []
            users = [int(u) for u in users]
            got, want = (attempt(lambda st: st.assign_users(users, c, s), st)
                         for st in (state, ref))
        assert got == want, kind
        assert state_fields(state) == state_fields(ref), kind
        kinds.add(kind)
        if isinstance(got, str):
            kinds.add("error")
        xb = state.xbar()
        assert not xb.flags.writeable
        assert xb.tolist() == ref.xbar().tolist(), kind
        if isinstance(got, str) and got.startswith("error: size cap"):
            break
    return kinds


class TestStateReference:
    """`RoundingState`'s array `assign_users`, direct fills and kept copy
    of the open factors against the per-user state of `state_reference`."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 24), st.integers(2, 6), st.integers(1, 3),
           st.sampled_from([0.1, 0.3, 0.6]), st.sampled_from(["none", "tight", "loose"]),
           st.integers(0, 2**32 - 1))
    def test_matches_reference(self, n, m, k, p, cap, seed):
        assert_state_matches_reference(np.random.default_rng(seed), n, m, k, p, cap)

    def test_seeded_runs_cover_every_kind(self):
        rng = np.random.default_rng(23)
        kinds = set()
        for i in range(300):
            n, m, k = int(rng.integers(2, 25)), int(rng.integers(2, 7)), int(rng.integers(1, 4))
            kinds |= assert_state_matches_reference(rng, n, m, k, [0.1, 0.3, 0.6][i % 3],
                                                    ["none", "tight", "loose"][i // 3 % 3])
        assert kinds == {"step", "two steps", "fill", "fill subgroup", "unsorted", "repeat",
                         "ineligible", "empty", "error"}

    def test_matches_reference_at_scale(self):
        # n = 200 as in the benchmark
        kinds = assert_state_matches_reference(np.random.default_rng(5), 200, 20, 4, 0.03, "loose")
        assert {"step", "fill subgroup", "error"} <= kinds

    def test_rejected_list_assigns_up_to_the_first_ineligible_user(self, example, example_frac):
        state = RoundingState(example, example_frac, cap=3)
        with pytest.raises(DomainError, match="user 3 is not eligible for item 2 at slot 0"):
            state.assign_users([1, 0, 3, 3], 2, 0)  # the second 3 repeats a user
        assert state.assign[:, 0].tolist() == [2, 2, -1, 2]
        # the subgroup is full, but its factors are zeroed only on success
        assert state.room(2, 0) == 0 and state.zeroings == 0 and state.x[2, 2, 0] > 0.0
        assert np.array_equal(state.live, fresh_live(state))

    @pytest.mark.parametrize("users, message", [
        ([-1, 3], r"user -1 is not in \[0, 4\)"),  # -1 would index user 3 as well
        ([0, 4], r"user 4 is not in \[0, 4\)"),
        ([0, 1.5], "integer user ids"),
        ([[0, 1]], "integer user ids"),
    ])
    def test_list_of_non_users_refused_before_any_assignment(self, example, example_frac,
                                                             users, message):
        state = RoundingState(example, example_frac)
        before = state_fields(state)
        with pytest.raises(DomainError, match=message):
            state.assign_users(users, 2, 0)
        assert state_fields(state) == before
        state.assign_users([], 2, 0)  # an empty list is a list of user ids
        assert state_fields(state) == before


class TestNonFiniteFactors:
    @pytest.mark.parametrize("bad", ["nan row", "inf"])
    @pytest.mark.parametrize("solve", [
        lambda inst, frac: cd.avg(inst, frac, rng_seed=0),
        lambda inst, frac: cd.avg(inst, frac, rng_seed=0, sampler="advanced"),
        lambda inst, frac: cd.avgd(inst, frac),
        lambda inst, frac: cd.avg_st(inst, frac, rng_seed=0),
    ], ids=["avg", "avg-advanced", "avgd", "avg_st"])
    def test_rejected_before_rounding(self, solve, bad):
        # uniform avg on a NaN row used never to return: no probe fired
        inst = cd.gen_random(10, 5, 2, edge_prob=0.3, seed=0, d_tel=0.5, m_cap=4)
        x = np.full((inst.n, inst.m, inst.k), 1.0 / inst.m)
        if bad == "inf":
            x[3, 1, 0] = np.inf
        else:
            x[3] = np.nan
        with pytest.raises(DomainError, match="utility factors must be finite"):
            solve(inst, cd.FractionalSolution(x))


class TestSizeCappedRounding:
    @pytest.mark.parametrize("cap", [0, -1, 2.5])
    @pytest.mark.parametrize("solve", [
        lambda inst, frac, cap: cd.avg(inst, frac, rng_seed=0, cap=cap),
        lambda inst, frac, cap: cd.avgd(inst, frac, cap=cap),
        lambda inst, frac, cap: cd.best_of(inst, frac, seeds=range(2), cap=cap),
    ], ids=["avg", "avgd", "best_of"])
    def test_invalid_cap_rejected(self, example, example_frac, solve, cap):
        with pytest.raises(DomainError,
                           match=f"rounding size cap must be an integer >= 1, got {cap}$"):
            solve(example, example_frac, cap)

    def test_integral_float_cap_matches_int(self, example, example_frac):
        for solve in (lambda cap: cd.avg(example, example_frac, rng_seed=0, cap=cap),
                      lambda cap: cd.avgd(example, example_frac, cap=cap)):
            assert np.array_equal(solve(2.0).assign, solve(2).assign)

    def test_loose_cap_matches_uncapped(self):
        inst = cd.gen_random(4, 5, 2, edge_prob=0.6, seed=23, d_tel=0.3, m_cap=4)
        frac, _ = lpm.solve_fractional(inst)
        for seed in range(5):
            capped = cd.avg_st(inst, frac, rng_seed=seed)
            plain = cd.avg(inst, frac, rng_seed=seed)
            assert np.array_equal(capped.assign, plain.assign)

    @pytest.mark.parametrize("inst, frac", [
        (cd.Instance(n=4, m=3, k=3, pref=np.ones((4, 3)), edges=(), lam=0.5),
         cd.FractionalSolution(np.full((4, 3, 3), 1 / 3))),  # subgroups of all n users
        (cd.gen_random(20, 6, 3, edge_prob=0.3, seed=41), None),
    ], ids=["full-groups", "random"])
    def test_cap_n_equals_uncapped(self, inst, frac):
        if frac is None:
            frac, _ = lpm.solve_fractional(inst)

        def outputs(cap):
            runs = []
            for sampler in ("uniform", "advanced"):
                for seed in range(4):
                    stats = {}
                    cfg = cd.avg(inst, frac, rng_seed=seed, sampler=sampler, cap=cap,
                                 stats=stats)
                    runs.append((cfg.assign.tolist(), stats))
            trace = []
            runs.append((cd.avgd(inst, frac, trace=trace, cap=cap).assign.tolist(), trace))
            return runs

        assert outputs(inst.n) == outputs(None)

    def test_full_cell_is_closed_to_every_path(self):
        state, _ = small_state([0.5, 0.4, 0.3], cap=2)
        state.assign_users([1, 2], 0, 0)  # as a fallback or an avgd step fills it
        assert state.room(0, 0) == 0
        assert rounding.csf_step(state, FocalParams(0, 0, 0.0)) == []
        assert state.assign[0, 0] == -1
        assert state.xbar()[0, 0] == 0.0
        loss, q_es = np.zeros((3, 1)), np.zeros((0, 1))
        nbrs = neighbour_index(np.zeros(0, np.int64), np.zeros(0, np.int64), 3)  # no friendships
        closed, open_ = rounding._score_cells(state, np.array([0, 1]), np.array([0, 0]), 0.25,
                                              loss, q_es, nbrs)
        assert closed is None and open_ is not None

    @pytest.mark.xfail(raises=DomainError, strict=True,
                       reason="known defect: a tight cap can leave a starved cell "
                              "no open item (size cap leaves no feasible item)")
    @pytest.mark.parametrize("solve", [
        lambda inst, frac: cd.avg(inst, frac, rng_seed=0, cap=2),
        lambda inst, frac: cd.avg(inst, frac, rng_seed=0, sampler="advanced", cap=2),
        lambda inst, frac: cd.avgd(inst, frac, cap=2),
    ], ids=["avg", "avg-advanced", "avgd"])
    def test_tight_cap_output_valid_and_capped(self, solve):
        inst = cd.gen_random(20, 10, 3, edge_prob=0.1, seed=3)
        frac, _ = lpm.solve_fractional(inst)
        cfg = solve(inst, frac)
        assert cd.validate(cfg, inst) == []
        for s in range(inst.k):
            assert np.bincount(cfg.assign[:, s], minlength=inst.m).max() <= 2

    def test_cap_one_yields_singletons(self):
        inst = cd.gen_random(3, 5, 2, edge_prob=1.0, seed=29, d_tel=0.3, m_cap=1)
        res = lpm.solve_lp(lpm.build_st_lp(inst))
        frac = lpm.frac_from_full_result(res, inst)
        cfg = cd.avg_st(inst, frac, rng_seed=0)
        ok, viol = cd.st_feasibility(inst, cfg)
        assert ok and viol == 0
        for s in range(inst.k):
            assert all(len(g) == 1 for _, g in cd.partition_subgroups(cfg, s).groups)

    def test_deterministic_variant_feasible(self):
        for seed in range(4):
            inst = cd.gen_random(5, 6, 2, edge_prob=0.7, seed=31 + seed,
                                 d_tel=0.4, m_cap=2)
            res = lpm.solve_lp(lpm.build_st_lp(inst))
            frac = lpm.frac_from_full_result(res, inst)
            cfg = cd.avg_st(inst, frac, deterministic=True)
            ok, viol = cd.st_feasibility(inst, cfg)
            assert ok and viol == 0

    def test_requires_st_params(self, example, example_frac):
        with pytest.raises(DomainError):
            cd.avg_st(example, example_frac)

    def test_quality_not_below_worst_feasible(self):
        inst = cd.gen_random(3, 4, 2, edge_prob=0.9, seed=37, d_tel=0.5, m_cap=2)
        res = lpm.solve_lp(lpm.build_st_lp(inst))
        frac = lpm.frac_from_full_result(res, inst)
        got = cd.st_objective(inst, cd.avg_st(inst, frac, rng_seed=1))
        # worst feasible configuration by exhaustive negation of the oracle
        import itertools
        worst = np.inf
        arrs = list(itertools.permutations(range(inst.m), inst.k))
        for rows in itertools.product(arrs, repeat=inst.n):
            cfg = cd.Configuration(assign=np.array(rows))
            ok, _ = cd.st_feasibility(inst, cfg)
            if ok:
                worst = min(worst, cd.st_objective(inst, cfg))
        assert got >= worst - 1e-12


class TestSamplerEquivalence:
    def test_outcome_distributions_match(self, example, example_frac):
        # freeze a mid-run state and compare the empirical distribution of
        # distinct CSF outcomes between the two samplers (quick version;
        # the acceptance suite runs the full-size test)
        from scipy.stats import chi2_contingency

        state = RoundingState(example, example_frac)
        for focal in replay_sequence()[:2]:
            rounding.csf_step(state, focal)

        def outcome(focal):
            elig = state.eligible_users(focal.c, focal.s)
            chosen = tuple(int(u) for u in elig
                           if state.x[u, focal.c, focal.s] >= focal.alpha)
            return (focal.c, focal.s, chosen)

        draws = 20000
        counts = {}
        for kind, sampler in enumerate(("uniform", "advanced")):
            rng = seeded_rng(12345 + kind)
            seen = 0
            while seen < draws:
                focal = rounding.sample_focal(state, rng, sampler)
                if focal is None:
                    continue
                key = outcome(focal)
                if not key[2]:
                    continue
                counts.setdefault(key, [0, 0])[kind] += 1
                seen += 1
        table = np.array(list(counts.values()))
        _, p, _, _ = chi2_contingency(table)
        assert p > 0.01
