"""Exhaustive oracle and generator tests."""

import itertools

import numpy as np
import pytest

import codisplay as cd
from codisplay import oracle
from codisplay.core import DomainError
from codisplay.oracle import OracleSizeError

from conftest import EXPECTED_UNIT, make_example, random_suite
from dfs_oracle import dfs_search


class TestBruteForce:
    def test_running_example_value(self, example):
        cfg, val = cd.brute_force(example, "unit_sum")
        assert val == pytest.approx(EXPECTED_UNIT["oracle"], abs=1e-9)
        assert cd.validate(cfg, example) == []
        assert cd.total_objective(example, cfg, "unit_sum") == pytest.approx(val)

    def test_single_user_equals_per_topk(self):
        inst = cd.Instance(n=1, m=4, k=2,
                           pref=np.array([[0.3, 0.9, 0.1, 0.6]]), edges=(), lam=0.5)
        _, val = cd.brute_force(inst, "unit_sum")
        assert val == pytest.approx(
            cd.total_objective(inst, cd.per_topk(inst), "unit_sum"))

    def test_lambda_zero_equals_per_topk(self):
        base = cd.gen_random(4, 4, 2, edge_prob=0.8, seed=9)
        inst = cd.Instance(n=4, m=4, k=2, pref=base.pref, edges=base.edges, lam=0.0)
        _, val = cd.brute_force(inst, "canonical")
        assert val == pytest.approx(
            cd.total_objective(inst, cd.per_topk(inst), "canonical"))

    def test_dominates_all_solver_outputs(self):
        from codisplay import lp as lpm
        for inst in random_suite(5, base_seed=150):
            _, opt = cd.brute_force(inst, "unit_sum")
            frac, _ = lpm.solve_fractional(inst)
            outputs = [
                cd.per_topk(inst), cd.group_topk(inst),
                cd.avg(inst, frac, rng_seed=0), cd.avgd(inst, frac),
            ]
            for cfg in outputs:
                assert cd.total_objective(inst, cfg, "unit_sum") <= opt + 1e-9

    def test_guard_rejects_large_spaces(self):
        inst = cd.gen_random(6, 6, 3, edge_prob=0.2, seed=1)
        with pytest.raises(OracleSizeError, match="exceeds"):
            cd.brute_force(inst)

    def test_tie_break_lexicographic(self):
        # fully indifferent preferences: the first enumerated arrangement wins
        inst = cd.Instance(n=2, m=3, k=2, pref=np.full((2, 3), 0.5), edges=(), lam=0.5)
        cfg, _ = cd.brute_force(inst, "unit_sum")
        assert np.array_equal(cfg.assign, [[0, 1], [0, 1]])


class TestBruteForceSt:
    def test_matches_plain_when_unconstrained(self):
        inst = cd.gen_random(3, 4, 2, edge_prob=0.8, seed=33, d_tel=0.0, m_cap=3)
        _, st_val = cd.brute_force_st(inst)
        _, plain = cd.brute_force(inst, "canonical")
        assert st_val == pytest.approx(plain, abs=1e-9)

    def test_two_user_hand_instance(self):
        # independent enumeration with an inline evaluator (36 configurations)
        tau_uv = np.array([0.4, 0.1, 0.0])
        tau_vu = np.array([0.2, 0.3, 0.1])
        pref = np.array([[0.9, 0.2, 0.5], [0.1, 0.8, 0.6]])
        inst = cd.Instance(n=2, m=3, k=2, pref=pref,
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
        cfg, got = cd.brute_force_st(inst)
        assert got == pytest.approx(best, abs=1e-12)
        ok, viol = cd.st_feasibility(inst, cfg)
        assert ok and viol == 0

    def test_cap_one_excludes_direct_social(self):
        inst = cd.gen_random(3, 4, 1, edge_prob=1.0, seed=44, d_tel=0.5, m_cap=1)
        cfg, _ = cd.brute_force_st(inst)
        for s in range(inst.k):
            groups = cd.partition_subgroups(cfg, s).groups
            assert all(len(g) == 1 for _, g in groups)

    def test_requires_st(self, example):
        with pytest.raises(DomainError):
            cd.brute_force_st(example)


def _both_searches(monkeypatch, solve):
    """The (configuration, value) of ``solve()`` with the block search and
    with the depth-first reference behind it."""
    block = solve()
    monkeypatch.setattr(oracle, "_search", dfs_search)
    ref = solve()
    monkeypatch.undo()
    return block, ref


def _assert_same(block, ref):
    assert np.array_equal(block[0].assign, ref[0].assign)
    assert block[1] == ref[1]  # bit-identical, not approximately equal


# (n, m, k, d_tel, cap): plain rungs have no teleportation parameters; (2,8,4)
# puts P = 1680 rows behind one user, (5,4,2) splits into several prefixes
LADDER = [
    (1, 5, 2, None, None), (2, 8, 4, None, None), (3, 4, 2, None, None),
    (4, 5, 2, None, None), (5, 4, 2, None, None), (3, 3, 1, None, None),
    (1, 5, 2, 0.5, 1), (2, 8, 4, 0.5, 1), (3, 4, 2, 0.5, 1), (4, 5, 2, 0.5, 2),
    (4, 3, 3, 0.2, 2), (5, 4, 2, 0.3, 2), (4, 5, 2, 0.0, 4),
]


class TestSearchMatchesDfs:
    """The block search returns the configuration and the value of the
    depth-first reference in ``tests/dfs_oracle.py``, to the bit."""

    @pytest.mark.parametrize("n,m,k,d_tel,cap", LADDER)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ladder(self, monkeypatch, n, m, k, d_tel, cap, seed):
        inst = cd.gen_random(n, m, k, edge_prob=0.7, seed=100 * n + seed, d_tel=d_tel, m_cap=cap)
        if cap is not None:
            _assert_same(*_both_searches(monkeypatch, lambda: cd.brute_force_st(inst)))
        else:
            for mode in ("canonical", "unit_sum"):
                _assert_same(*_both_searches(monkeypatch, lambda: cd.brute_force(inst, mode)))

    @pytest.mark.parametrize("block", [1, 7, 64, 500])
    @pytest.mark.parametrize("st", [False, True])
    def test_small_blocks(self, monkeypatch, block, st):
        # a small block size splits every shape into many prefixes and row runs
        inst = cd.gen_random(4, 5, 2, edge_prob=0.7, seed=8, d_tel=0.5 if st else None,
                             m_cap=2 if st else None)
        monkeypatch.setattr(oracle, "BLOCK", block)
        solve = (lambda: cd.brute_force_st(inst)) if st else (lambda: cd.brute_force(inst))
        _assert_same(*_both_searches(monkeypatch, solve))

    def test_structured_instances(self, monkeypatch):
        for inst in (cd.gen_lemma1(3, 4, 2), cd.gen_gap_g(3, 2), cd.gen_gap_p(3, 2, eps=0.0)):
            _assert_same(*_both_searches(monkeypatch, lambda: cd.brute_force(inst, "canonical")))

    @pytest.mark.parametrize("block", [64, oracle.BLOCK])
    def test_edges_listed_from_the_later_user(self, monkeypatch, block):
        # an edge (u, v) with u > v is read through the transposed matrix
        base = cd.gen_random(4, 5, 2, edge_prob=0.8, seed=3, d_tel=0.4, m_cap=2)
        edges = tuple(cd.Edge(e.v, e.u, e.tau_vu, e.tau_uv) for e in base.edges)
        inst = cd.Instance(n=4, m=5, k=2, pref=base.pref, edges=edges, lam=0.5, st=base.st)
        monkeypatch.setattr(oracle, "BLOCK", block)
        _assert_same(*_both_searches(monkeypatch, lambda: cd.brute_force_st(inst)))

    def test_first_block_of_tied_optima_wins(self, monkeypatch):
        # user 0 dislikes item 0, everything else is flat: the optima are every
        # configuration where user 0 avoids item 0.  The first, (1, 2), is
        # arrangement 5, which lies in the third run of two rows of user 0;
        # later runs hold more of the tied optima.
        pref = np.ones((4, 5))
        pref[0, 0] = 0.0
        inst = cd.Instance(n=4, m=5, k=2, pref=pref, edges=(), lam=0.5)
        block, ref = _both_searches(monkeypatch, lambda: cd.brute_force(inst, "unit_sum"))
        _assert_same(block, ref)
        assert block[0].assign.tolist() == [[1, 2], [0, 1], [0, 1], [0, 1]]

    @pytest.mark.parametrize("search", [oracle._search, dfs_search])
    def test_zero_cap_raises(self, search):
        inst = cd.gen_random(3, 4, 2, edge_prob=0.7, seed=5)
        arr = oracle._arrangements(inst.m, inst.k)
        pref_scores = inst.pref[:, arr].sum(axis=2)
        mats = oracle._edge_matrices(inst, arr, d_tel=None)
        with pytest.raises(DomainError, match="no feasible configuration"):
            search(inst, arr, pref_scores, mats, m_cap=0)


class TestGenerators:
    def test_gen_random_deterministic(self):
        a = cd.gen_random(5, 5, 2, edge_prob=0.5, seed=7)
        b = cd.gen_random(5, 5, 2, edge_prob=0.5, seed=7)
        assert np.array_equal(a.pref, b.pref)
        assert len(a.edges) == len(b.edges)
        for ea, eb in zip(a.edges, b.edges):
            assert (ea.u, ea.v) == (eb.u, eb.v)
            assert np.array_equal(ea.tau_uv, eb.tau_uv)

    def test_gen_random_no_edges(self):
        assert cd.gen_random(5, 5, 2, edge_prob=0.0, seed=1).num_edges == 0

    def test_gen_random_stream_is_philox_of_the_seed(self):
        inst = cd.gen_random(4, 3, 1, edge_prob=1.0, seed=11)
        assert inst.num_edges == 6  # edge_prob 1 is inside the domain
        rng = np.random.Generator(np.random.Philox(11))
        assert np.array_equal(inst.pref, rng.random((4, 3)))

    @pytest.mark.parametrize("edge_prob", [-0.1, 1.5, 2.0, float("nan")])
    def test_gen_random_edge_prob_outside_unit_interval(self, edge_prob):
        with pytest.raises(DomainError, match="edge_prob must lie in"):
            cd.gen_random(5, 5, 2, edge_prob=edge_prob, seed=1)

    def test_gen_lemma1_structure_and_optimum(self):
        inst = cd.gen_lemma1(3, 4, 2, tau=1.0)
        assert inst.num_edges == 3
        assert (inst.pref == 0).all()
        _, opt = cd.brute_force(inst, "unit_sum")
        assert opt == pytest.approx(12.0)  # n(n-1) * tau * k

    def test_gap_g_ratio_is_n(self):
        inst = cd.gen_gap_g(3, 2)
        assert inst.m == 6
        _, opt = cd.brute_force(inst, "canonical")
        grp = cd.total_objective(inst, cd.group_topk(inst), "canonical")
        assert opt / grp == pytest.approx(3.0)

    def test_gap_p_ratio_bound(self):
        eps = 0.01
        inst = cd.gen_gap_p(3, 2, eps=eps)
        _, opt = cd.brute_force(inst, "canonical")
        per = cd.total_objective(inst, cd.per_topk(inst), "canonical")
        lam = inst.lam
        bound = 1 + lam / (1 - lam) * (inst.n - 1) / 2
        assert opt / per >= bound - 5 * eps

    def test_gap_p_zero_eps_flat_preferences(self):
        inst = cd.gen_gap_p(3, 2, eps=0.0)
        assert (inst.pref == 1.0).all()
