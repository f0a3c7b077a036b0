"""Baseline algorithm tests."""

import itertools

import numpy as np
import pytest

import codisplay as cd
from codisplay import baselines as bl
from codisplay import lp as lpm
from codisplay.core import DomainError

from friendship_reference import friendship_partition
from preference_reference import preference_partition
from conftest import (
    EXPECTED_UNIT,
    FRIEND_PARTITION,
    GROUP_ROW,
    PER_TABLE,
    PREF_PARTITION,
    make_example,
    random_suite,
)


class TestPerTopk:
    def test_fixture_rows_and_value(self, example):
        cfg = cd.per_topk(example)
        assert np.array_equal(cfg.assign, PER_TABLE)
        got = cd.total_objective(example, cfg, "unit_sum")
        assert got == pytest.approx(EXPECTED_UNIT["per"], abs=1e-9)

    def test_exact_for_preference_only(self):
        inst = cd.gen_random(4, 4, 2, edge_prob=0.7, seed=55)
        inst = cd.Instance(n=4, m=4, k=2, pref=inst.pref, edges=inst.edges, lam=0.0)
        best = cd.total_objective(inst, cd.per_topk(inst), "canonical")
        _, opt = cd.brute_force(inst, "canonical")
        assert best == pytest.approx(opt, abs=1e-9)

    def test_single_user_matches_oracle_without_edges(self):
        inst = cd.Instance(n=1, m=5, k=3,
                           pref=np.array([[0.1, 0.9, 0.5, 0.9, 0.2]]), edges=(), lam=0.5)
        cfg, opt = cd.brute_force(inst, "unit_sum")
        got = cd.total_objective(inst, cd.per_topk(inst), "unit_sum")
        assert got == pytest.approx(opt)

    def test_ties_break_to_lower_item(self):
        inst = cd.Instance(n=1, m=3, k=2, pref=np.array([[0.5, 0.5, 0.5]]),
                           edges=(), lam=0.5)
        assert list(cd.per_topk(inst).assign[0]) == [0, 1]


class TestGroupTopk:
    def test_fixture_row_and_value(self, example):
        cfg = cd.group_topk(example)
        assert all(list(row) == GROUP_ROW for row in cfg.assign)
        got = cd.total_objective(example, cfg, "unit_sum")
        assert got == pytest.approx(EXPECTED_UNIT["group"], abs=1e-9)

    def test_first_item_score(self, example):
        scores = cd.baselines._group_scores(example, range(4))
        assert scores[0] == pytest.approx(2.6)

    def test_equals_per_topk_without_social_and_identical_rows(self):
        pref = np.tile(np.array([[0.9, 0.5, 0.7, 0.1]]), (3, 1))
        inst = cd.Instance(n=3, m=4, k=2, pref=pref, edges=(), lam=0.5)
        assert np.array_equal(cd.group_topk(inst).assign, cd.per_topk(inst).assign)


class TestSubgroupStatic:
    def test_friendship_fixture(self, example):
        cfg = cd.subgroup_static(example, FRIEND_PARTITION)
        got = cd.total_objective(example, cfg, "unit_sum")
        assert got == pytest.approx(EXPECTED_UNIT["sub_friend"], abs=1e-9)
        assert list(cfg.assign[0]) == [4, 0, 3]  # {A, D} row
        assert list(cfg.assign[1]) == [1, 3, 2]  # {B, C} row

    def test_preference_fixture(self, example):
        cfg = cd.subgroup_static(example, PREF_PARTITION)
        got = cd.total_objective(example, cfg, "unit_sum")
        assert got == pytest.approx(EXPECTED_UNIT["sub_pref"], abs=1e-9)

    def test_all_users_partition_equals_group(self, example):
        cfg = cd.subgroup_static(example, [list(range(4))])
        assert np.array_equal(cfg.assign, cd.group_topk(example).assign)

    def test_singletons_equal_per(self, example):
        cfg = cd.subgroup_static(example, [[u] for u in range(4)])
        assert np.array_equal(cfg.assign, cd.per_topk(example).assign)

    def test_invalid_partition_rejected(self, example):
        with pytest.raises(DomainError):
            cd.subgroup_static(example, [[0, 1], [1, 2, 3]])
        with pytest.raises(DomainError):
            cd.subgroup_static(example, [[0, 1]])


class TestAutoPartition:
    def test_trivial_group_counts(self, example):
        assert cd.auto_partition(example, "friendship", 1) == [[0, 1, 2, 3]]
        assert cd.auto_partition(example, "friendship", 4) == [[0], [1], [2], [3]]
        assert cd.auto_partition(example, "preference", 1) == [[0, 1, 2, 3]]
        assert len(cd.auto_partition(example, "preference", 4)) == 4

    def test_friendship_matches_exhaustive_optimum(self, example):
        # all balanced 2-partitions of 4 users: the best keeps 2 internal edges
        got = cd.auto_partition(example, "friendship", 2)
        internal = _internal_edges(example, got)
        best = max(
            _internal_edges(example, [list(p), [u for u in range(4) if u not in p]])
            for p in itertools.combinations(range(4), 2)
        )
        assert internal == best == 2
        assert got == [[0, 3], [1, 2]]

    def test_balanced_sizes(self):
        inst = cd.gen_random(6, 6, 2, edge_prob=0.5, seed=71)
        parts = cd.auto_partition(inst, "friendship", 2)
        assert sorted(len(p) for p in parts) == [3, 3]

    def test_preference_deterministic_under_seed(self):
        inst = cd.gen_random(6, 6, 2, edge_prob=0.5, seed=72)
        a = cd.auto_partition(inst, "preference", 3, seed=5)
        b = cd.auto_partition(inst, "preference", 3, seed=5)
        assert a == b

    def test_bad_group_count_rejected(self, example):
        with pytest.raises(DomainError):
            cd.auto_partition(example, "friendship", 0)


def _matching(n):
    """n users joined in disjoint pairs (0, 1), (2, 3), ..."""
    edges = tuple(cd.Edge(u, u + 1, np.ones(2), np.ones(2)) for u in range(0, n - 1, 2))
    return cd.Instance(n=n, m=2, k=1, pref=np.ones((n, 2)), edges=edges, lam=0.5)


def _partition_outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return str(exc)


class TestFriendshipPartitionReference:
    """The label-count merge loop gives the pairwise reference's partitions."""

    def test_seeded_ladder(self):
        rng = np.random.Generator(np.random.Philox(2024))
        dissolved = 0
        cases = [(_matching(10), 4), (_matching(14), 5)]  # pairs, then no pair fits
        for seed in range(300):
            n = int(rng.integers(2, 22))
            inst = cd.gen_random(n, 2, 1, edge_prob=float(rng.uniform(0.05, 0.9)), seed=seed)
            cases.append((inst, int(rng.integers(1, n + 1))))
        for inst, g in cases:
            dissolves = []
            ref = _partition_outcome(friendship_partition, inst, g, dissolves)
            assert _partition_outcome(bl._friendship_partition, inst, g) == ref
            dissolved += bool(dissolves)
        assert dissolved >= 5  # the dissolve branch is reached, not just the merges


def _preference_instance(rng, n, case):
    """n users whose preference rows are random, rounded to one decimal (tied
    distances), partly copies of one row, or partly zero (distance 1 to all)."""
    m = int(rng.integers(2, 8))
    pref = rng.random((n, m))
    if case == 1:
        pref = np.round(pref, 1)
    if case >= 2:
        pref[rng.integers(0, n, size=n // 2)] = pref[rng.integers(0, n)]
    if case == 3:
        pref[rng.integers(0, n, size=max(1, n // 4))] = 0.0
    return cd.Instance(n=n, m=m, k=1, pref=pref, edges=(), lam=0.5)


class TestPreferencePartitionReference:
    """The lockstep restarts give the restart-by-restart reference's partitions."""

    def test_seeded_sweep(self):
        rng = np.random.Generator(np.random.Philox(2025))
        for i in range(520):
            n = 1 + i % 40
            inst = _preference_instance(rng, n, i // 40 % 4)
            g, seed = int(rng.integers(1, n + 1)), int(rng.integers(0, 10_000))
            assert bl._preference_partition(inst, g, seed) == preference_partition(inst, g, seed)

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_round_limit(self, monkeypatch, rounds):
        # no natural case is known to reach the limit: lower it to reach that exit
        monkeypatch.setattr(bl, "PREF_MAX_ROUNDS", rounds)
        rng = np.random.Generator(np.random.Philox(2026))
        for i in range(80):
            n = int(rng.integers(4, 41))
            inst = _preference_instance(rng, n, i % 4)
            g, seed = int(rng.integers(2, n + 1)), int(rng.integers(0, 10_000))
            assert bl._preference_partition(inst, g, seed) == preference_partition(
                inst, g, seed, rounds=rounds)

    def test_medoid_sums_in_row_order(self):
        # distances from a few values tie many member sums in exact arithmetic,
        # so a sum taken in another order than the reference's picks another
        # medoid on some of these clusters
        rng = np.random.Generator(np.random.Philox(2027))
        for _ in range(400):
            n = int(rng.integers(2, 41))
            g = int(rng.integers(1, n + 1))
            dist = np.triu(rng.choice([0.1, 0.2, 0.3, 0.7], size=(n, n)), 1)
            dist += dist.T
            labels = rng.integers(0, g, size=(3, n))
            for row in labels:
                row[rng.choice(n, size=g, replace=False)] = np.arange(g)  # no empty cluster
            want = []
            for row in labels:
                picks = []
                for c in range(g):
                    members = np.flatnonzero(row == c)
                    picks.append(members[np.argmin(dist[members][:, members].sum(axis=1))])
                want.append(picks)
            assert np.array_equal(bl._cluster_medoids(dist, labels, g), want)


def _internal_edges(inst, partition):
    total = 0
    for part in partition:
        s = set(part)
        total += sum(1 for e in inst.edges if e.u in s and e.v in s)
    return total


class TestIndependentRounding:
    def test_deterministic_column_always_chosen(self):
        inst = cd.Instance(n=2, m=2, k=1, pref=np.ones((2, 2)), edges=(), lam=0.5)
        x = np.zeros((2, 2, 1))
        x[:, 1, 0] = 1.0
        frac = cd.FractionalSolution(x=x)
        for seed in range(10):
            raw = cd.independent_rounding(inst, frac, rng_seed=seed)
            assert (raw.assign == 1).all()

    def test_seed_reproducible(self, example, example_frac):
        a = cd.independent_rounding(example, example_frac, rng_seed=3)
        b = cd.independent_rounding(example, example_frac, rng_seed=3)
        assert np.array_equal(a.assign, b.assign)

    def test_duplicates_expected_on_indifferent_instance(self):
        inst = cd.gen_lemma1(4, 8, 2, tau=1.0)
        frac = cd.FractionalSolution(np.full((4, 8, 2), 0.125))
        dups = sum(
            bool(cd.validate(cd.independent_rounding(inst, frac, rng_seed=s), inst))
            for s in range(200)
        )
        assert dups > 0

    @pytest.mark.parametrize("shape", [(5, 5, 2), (4, 5, 2), (4, 4, 3)])
    def test_mismatched_shape_rejected(self, example, shape):
        frac = cd.FractionalSolution(np.full(shape, 1.0 / shape[1]))
        with pytest.raises(DomainError, match="shape does not match"):
            cd.independent_rounding(example, frac)


class TestAgainstDeterministicSolver:
    def test_deterministic_solver_beats_every_baseline_on_fixture(self, example):
        vals = [
            cd.total_objective(example, cfg, "unit_sum")
            for cfg in (
                cd.per_topk(example),
                cd.group_topk(example),
                cd.subgroup_static(example, FRIEND_PARTITION),
                cd.subgroup_static(example, PREF_PARTITION),
            )
        ]
        assert max(vals) == pytest.approx(EXPECTED_UNIT["sub_pref"], abs=1e-9)
        assert EXPECTED_UNIT["avgd"] > max(vals)

    def test_all_baselines_feasible_on_randoms(self):
        for inst in random_suite(6, base_seed=400):
            for cfg in (cd.per_topk(inst), cd.group_topk(inst)):
                assert cd.validate(cfg, inst) == []
            for mode in ("friendship", "preference"):
                parts = cd.auto_partition(inst, mode, min(2, inst.n))
                assert cd.validate(cd.subgroup_static(inst, parts), inst) == []
