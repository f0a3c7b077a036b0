"""Model, objective, and metrics tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codisplay as cd
from codisplay.core import DomainError, StructuralError, objective_parts

from conftest import (
    DETERMINISTIC_TABLE,
    EXPECTED_UNIT,
    RANDOMIZED_TABLE,
    make_example,
    random_suite,
)


def random_config(inst, rng):
    assign = np.array([
        rng.choice(inst.m, size=inst.k, replace=False) for _ in range(inst.n)
    ])
    return cd.Configuration(assign=assign)


class TestInstanceInvariants:
    def test_k_larger_than_m_rejected(self):
        with pytest.raises(DomainError):
            cd.Instance(n=1, m=2, k=3, pref=np.zeros((1, 2)), edges=(), lam=0.5)

    def test_bad_lambda_rejected(self):
        with pytest.raises(DomainError):
            cd.Instance(n=1, m=1, k=1, pref=np.zeros((1, 1)), edges=(), lam=1.5)

    def test_negative_pref_rejected(self):
        with pytest.raises(DomainError):
            cd.Instance(n=1, m=1, k=1, pref=np.array([[-1.0]]), edges=(), lam=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_pref_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            cd.Instance(n=1, m=2, k=1, pref=np.array([[0.5, bad]]), edges=(), lam=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_social_rejected(self, bad):
        for tau_uv, tau_vu in (([0.1, bad], [0.1, 0.2]), ([0.1, 0.2], [bad, 0.2])):
            edge = cd.Edge(0, 1, np.array(tau_uv), np.array(tau_vu))
            with pytest.raises(DomainError, match="finite"):
                cd.Instance(n=2, m=2, k=1, pref=np.ones((2, 2)), edges=(edge,), lam=0.5)

    def test_self_loop_rejected(self):
        e = cd.Edge(0, 0, np.zeros(1), np.zeros(1))
        with pytest.raises(StructuralError):
            cd.Instance(n=2, m=1, k=1, pref=np.zeros((2, 1)), edges=(e,), lam=0.5)

    def test_duplicate_edge_rejected(self):
        e1 = cd.Edge(0, 1, np.zeros(1), np.zeros(1))
        e2 = cd.Edge(1, 0, np.zeros(1), np.zeros(1))
        with pytest.raises(StructuralError):
            cd.Instance(n=2, m=1, k=1, pref=np.zeros((2, 1)), edges=(e1, e2), lam=0.5)

    def test_d_tel_one_rejected(self):
        with pytest.raises(DomainError):
            cd.StParams(d_tel=1.0, M=2)

    def test_infeasible_cap_rejected(self):
        with pytest.raises(DomainError):
            cd.Instance(n=4, m=1, k=1, pref=np.zeros((4, 1)), edges=(),
                        lam=0.5, st=cd.StParams(d_tel=0.0, M=1))


    def test_caller_arrays_copied_not_frozen(self):
        pref = np.ones((2, 2))
        tau = np.array([0.1, 0.2])
        assign = np.array([[0], [1]])
        inst = cd.Instance(n=2, m=2, k=1, pref=pref, edges=(cd.Edge(0, 1, tau, tau),),
                           lam=0.5)
        cfg = cd.Configuration(assign=assign)
        assert pref.flags.writeable and tau.flags.writeable and assign.flags.writeable
        pref[0, 0] = tau[0] = 9.0
        assign[0, 0] = 1
        assert inst.pref[0, 0] == 1.0 and inst.edges[0].tau_uv[0] == 0.1
        assert cfg.assign[0, 0] == 0
        assert not inst.pref.flags.writeable and not cfg.assign.flags.writeable


class TestValidate:
    def test_duplicate_row_flagged(self, example):
        cfg = cd.Configuration(assign=np.array([[0, 0, 1], [0, 1, 2], [0, 1, 2], [0, 1, 2]]))
        violations = cd.validate(cfg, example)
        assert violations == [("duplicate", 0, 0, 1, 0)]

    def test_bad_index_flagged(self, example):
        cfg = cd.Configuration(assign=np.array([[0, 1, 9], [0, 1, 2], [0, 1, 2], [0, 1, 2]]))
        assert ("index", 0, 2) in cd.validate(cfg, example)

    def test_dimension_mismatch_raises(self, example):
        cfg = cd.Configuration(assign=np.zeros((2, 2), dtype=int))
        with pytest.raises(StructuralError):
            cd.validate(cfg, example)

    def test_randomized_output_table_is_feasible(self, example):
        assert cd.validate(cd.Configuration(assign=RANDOMIZED_TABLE), example) == []

    def test_oracle_outputs_always_feasible(self):
        for inst in random_suite(6, base_seed=40):
            cfg, _ = cd.brute_force(inst, "unit_sum")
            assert cd.validate(cfg, inst) == []


class TestSavgUtility:
    def test_worked_value_lambda_04(self):
        # Alice sees the tripod at slot 2 together with Bob and Dave:
        # 0.6 * 0.8 + 0.4 * (0.2 + 0.2) = 0.64
        inst = make_example(lam=0.4)
        cfg = cd.Configuration(assign=np.array([[4, 0, 1], [1, 0, 3], [4, 2, 1], [4, 0, 2]]))
        assert cd.savg_utility(inst, cfg, 0, 0) == pytest.approx(0.64)
        # and the last item at slot 1, shared with Charlie and Dave:
        # 0.6 * 1.0 + 0.4 * (0.3 + 0.2) = 0.8
        assert cd.savg_utility(inst, cfg, 0, 4) == pytest.approx(0.8)

    def test_item_not_displayed_raises(self, example):
        cfg = cd.Configuration(assign=np.array([[4, 0, 1]] * 4))
        with pytest.raises(DomainError):
            cd.savg_utility(example, cfg, 0, 2)

    def test_friendless_user_gets_pure_preference(self):
        inst = cd.Instance(n=2, m=3, k=2, pref=np.array([[0.5, 0.2, 0.1], [0.1, 0.2, 0.3]]),
                           edges=(), lam=0.3)
        cfg = cd.Configuration(assign=np.array([[0, 1], [2, 1]]))
        assert cd.savg_utility(inst, cfg, 0, 0) == pytest.approx(0.7 * 0.5)

    def test_total_is_sum_of_per_user_per_item_terms(self, example):
        # independent recomputation of the objective from its definition
        rng = np.random.Generator(np.random.Philox(5))
        for _ in range(10):
            cfg = random_config(example, rng)
            total = sum(
                cd.savg_utility(example, cfg, u, int(c))
                for u in range(example.n) for c in cfg.assign[u]
            )
            assert cd.total_objective(example, cfg, "canonical") == pytest.approx(total)


class TestTotalObjective:
    def test_group_config_first_item_contribution(self, example):
        # the whole-group value of the first item is the sum of its utility row
        row = cd.baselines._group_scores(example, range(4))
        assert row[0] == pytest.approx(2.6)

    def test_randomized_table_value(self, example):
        cfg = cd.Configuration(assign=RANDOMIZED_TABLE)
        got = cd.total_objective(example, cfg, "unit_sum")
        assert got == pytest.approx(EXPECTED_UNIT["avg_replay"], abs=1e-9)

    def test_deterministic_table_value(self, example):
        cfg = cd.Configuration(assign=DETERMINISTIC_TABLE)
        got = cd.total_objective(example, cfg, "unit_sum")
        assert got == pytest.approx(EXPECTED_UNIT["avgd"], abs=1e-9)

    def test_infeasible_config_rejected(self, example):
        cfg = cd.Configuration(assign=np.array([[0, 0, 1]] + [[0, 1, 2]] * 3))
        with pytest.raises(DomainError):
            cd.total_objective(example, cfg)

    def test_decomposition_and_percentages(self):
        for inst in random_suite(4, base_seed=7):
            rng = np.random.Generator(np.random.Philox(11))
            cfg = random_config(inst, rng)
            pref_sum, social = objective_parts(inst, cfg.assign)
            canonical = cd.total_objective(inst, cfg, "canonical")
            assert canonical == pytest.approx(
                (1 - inst.lam) * pref_sum + inst.lam * social)
            rep = cd.metrics(inst, cfg)
            if rep.objective_canonical > 1e-9:
                assert rep.personal_pct + rep.social_pct == pytest.approx(100.0)


class TestScalePreferences:
    def test_half_is_identity(self):
        inst = make_example(lam=0.5)
        assert np.allclose(cd.scale_preferences(inst).pref, inst.pref)

    def test_lambda_one_zeroes_preferences(self):
        inst = make_example(lam=1.0)
        assert np.allclose(cd.scale_preferences(inst).pref, 0.0)

    def test_point_value(self):
        inst = make_example(lam=0.4)
        scaled = cd.scale_preferences(inst)
        assert scaled.pref[0, 0] == pytest.approx(1.2)  # 0.8 * 0.6 / 0.4
        assert scaled.lam == 0.5

    def test_lambda_zero_signals_greedy(self):
        inst = make_example(lam=0.0)
        with pytest.raises(DomainError, match="per_topk"):
            cd.scale_preferences(inst)

    @settings(max_examples=20, deadline=None)
    @given(lam=st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
           seed=st.integers(0, 2**31 - 1))
    def test_argmax_order_preserved(self, lam, seed):
        # sign of canonical differences matches sign of unit-sum differences
        # on the scaled instance, for every pair of feasible configurations
        inst = make_example(lam=lam)
        scaled = cd.scale_preferences(inst)
        rng = np.random.Generator(np.random.Philox(seed))
        a1, a2 = random_config(inst, rng), random_config(inst, rng)
        d_canon = (cd.total_objective(inst, a1, "canonical")
                   - cd.total_objective(inst, a2, "canonical"))
        d_unit = (cd.total_objective(scaled, a1, "unit_sum")
                  - cd.total_objective(scaled, a2, "unit_sum"))
        assert d_canon == pytest.approx(inst.lam * d_unit, abs=1e-9)


class TestStObjective:
    def test_requires_st(self, example):
        cfg = cd.Configuration(assign=RANDOMIZED_TABLE)
        with pytest.raises(DomainError):
            cd.st_objective(example, cfg)

    def test_zero_discount_equals_plain_objective(self):
        inst = cd.gen_random(4, 5, 2, edge_prob=0.8, seed=2, d_tel=0.0, m_cap=4)
        rng = np.random.Generator(np.random.Philox(3))
        for _ in range(25):
            cfg = random_config(inst, rng)
            assert cd.st_objective(inst, cfg) == pytest.approx(
                cd.total_objective(inst, cfg, "canonical"), abs=1e-9)

    def test_indirect_pair_discounted(self):
        # two users share one item at different slots: both directed terms
        # appear, scaled by the teleportation discount
        tau_uv = np.array([0.3, 0.0])
        tau_vu = np.array([0.7, 0.0])
        inst = cd.Instance(
            n=2, m=2, k=2, pref=np.zeros((2, 2)),
            edges=(cd.Edge(0, 1, tau_uv, tau_vu),),
            lam=0.5, st=cd.StParams(d_tel=0.4, M=2),
        )
        cfg = cd.Configuration(assign=np.array([[0, 1], [1, 0]]))
        # item 0 aligned at no slot, shared across slots; item 1 likewise
        want = 0.5 * 0.4 * (0.3 + 0.7)
        assert cd.st_objective(inst, cfg) == pytest.approx(want)


    def test_discounted_parts_match_st_objective(self):
        inst = cd.gen_random(5, 5, 3, edge_prob=0.8, seed=8, d_tel=0.3, m_cap=5)
        rng = np.random.Generator(np.random.Philox(4))
        for _ in range(25):
            cfg = random_config(inst, rng)
            pref_sum, social = objective_parts(inst, cfg.assign, inst.st.d_tel)
            assert cd.st_objective(inst, cfg, "unit_sum") == pref_sum + social
            assert cd.st_objective(inst, cfg) == 0.5 * pref_sum + 0.5 * social
            assert objective_parts(inst, cfg.assign)[1] <= social


class TestPartition:
    def test_single_group(self, example):
        cfg = cd.Configuration(assign=np.array([[4, 0, 1]] * 4))
        part = cd.partition_subgroups(cfg, 0)
        assert part.groups == ((4, (0, 1, 2, 3)),)

    def test_all_singletons(self, example):
        cfg = cd.Configuration(assign=np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 0]]))
        part = cd.partition_subgroups(cfg, 0)
        assert all(len(users) == 1 for _, users in part.groups)

    def test_deterministic_table_slot_one_full_group(self, example):
        part = cd.partition_subgroups(cd.Configuration(assign=DETERMINISTIC_TABLE), 0)
        assert part.groups == ((4, (0, 1, 2, 3)),)

    def test_partition_properties(self):
        rng = np.random.Generator(np.random.Philox(9))
        for inst in random_suite(5, base_seed=60):
            cfg = random_config(inst, rng)
            for s in range(inst.k):
                part = cd.partition_subgroups(cfg, s)
                users = [u for _, grp in part.groups for u in grp]
                assert sorted(users) == list(range(inst.n))  # disjoint cover
                for item, grp in part.groups:
                    assert all(cfg.assign[u, s] == item for u in grp)


class TestMetrics:
    def test_full_group_anchors(self, example):
        cfg = cd.Configuration(assign=np.array([[4, 0, 1]] * 4))
        rep = cd.metrics(example, cfg)
        assert rep.intra_pct == pytest.approx(100.0)
        assert rep.inter_pct == pytest.approx(0.0)
        assert rep.normalized_density == pytest.approx(1.0)
        assert rep.alone_pct == pytest.approx(0.0)
        assert rep.codisplay_pct == pytest.approx(100.0)

    def test_edgeless_graph(self):
        inst = cd.Instance(n=3, m=4, k=2, pref=np.ones((3, 4)), edges=(), lam=0.5)
        cfg = cd.Configuration(assign=np.array([[0, 1], [2, 3], [1, 0]]))
        rep = cd.metrics(inst, cfg)
        assert rep.codisplay_pct == 0.0
        assert rep.normalized_density == 0.0

    def test_zero_regret_when_top_items_fully_social(self):
        # a user whose displayed items equal her optimistic top-k with all
        # social terms realized has regret exactly zero
        inst = cd.gen_lemma1(3, 4, 2, tau=0.5)
        cfg = cd.Configuration(assign=np.array([[0, 1], [0, 1], [0, 1]]))
        rep = cd.metrics(inst, cfg)
        assert rep.regret == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)

    def test_regret_in_unit_interval(self):
        rng = np.random.Generator(np.random.Philox(21))
        for inst in random_suite(8, base_seed=77):
            cfg = random_config(inst, rng)
            rep = cd.metrics(inst, cfg)
            assert all(0.0 <= r <= 1.0 for r in rep.regret)

    def test_st_fields_populated(self):
        inst = cd.gen_random(4, 5, 2, edge_prob=0.5, seed=5, d_tel=0.2, m_cap=2)
        cfg = cd.Configuration(assign=np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
        rep = cd.metrics(inst, cfg)
        assert rep.st_feasible is not None
        assert rep.st_violation_count is not None

    def test_teleport_objective_reported(self):
        inst = cd.gen_random(5, 4, 2, edge_prob=0.8, seed=6, d_tel=0.5, m_cap=5)
        rng = np.random.Generator(np.random.Philox(9))
        for _ in range(10):
            cfg = random_config(inst, rng)
            rep = cd.metrics(inst, cfg)
            assert rep.objective_canonical == cd.st_objective(inst, cfg, "canonical")
            assert rep.objective_unit_sum == cd.st_objective(inst, cfg, "unit_sum")
            if rep.objective_canonical > 0:
                assert rep.personal_pct + rep.social_pct == pytest.approx(100.0)

    def test_csv_row_matches_fields(self, example):
        rep = cd.metrics(example, cd.Configuration(assign=RANDOMIZED_TABLE))
        assert len(rep.csv_row()) == len(cd.MetricsReport.CSV_FIELDS)


class TestStFeasibility:
    def test_cap_at_n_always_feasible(self, example):
        inst = cd.gen_random(4, 5, 3, edge_prob=0.5, seed=1, d_tel=0.1, m_cap=4)
        cfg = cd.per_topk(inst)
        ok, viol = cd.st_feasibility(inst, cfg)
        assert ok and viol == 0

    def test_full_group_with_cap_n_minus_one(self):
        inst = cd.gen_random(4, 5, 3, edge_prob=0.5, seed=1, d_tel=0.1, m_cap=3)
        cfg = cd.Configuration(assign=np.array([[0, 1, 2]] * 4))
        ok, viol = cd.st_feasibility(inst, cfg)
        assert not ok
        assert viol == inst.k  # one extra user at each slot

    def test_requires_st(self, example):
        with pytest.raises(DomainError):
            cd.st_feasibility(example, cd.Configuration(assign=RANDOMIZED_TABLE))


class TestJsonRoundTrip:
    def test_instance_round_trip(self, tmp_path):
        inst = cd.gen_random(4, 5, 3, edge_prob=0.7, seed=13, d_tel=0.25, m_cap=2)
        path = tmp_path / "inst.json"
        cd.core.dump_json(cd.core.instance_to_dict(inst), path)
        back = cd.core.instance_from_dict(cd.core.load_json(path))
        assert back.n == inst.n and back.m == inst.m and back.k == inst.k
        assert np.allclose(back.pref, inst.pref)
        assert back.st == inst.st
        assert all(
            np.allclose(a.tau_uv, b.tau_uv) and np.allclose(a.tau_vu, b.tau_vu)
            and (a.u, a.v) == (b.u, b.v)
            for a, b in zip(back.edges, inst.edges)
        )

    def test_config_round_trip(self, tmp_path):
        cfg = cd.Configuration(assign=RANDOMIZED_TABLE)
        path = tmp_path / "cfg.json"
        cd.core.dump_json(cd.core.config_to_dict(cfg), path)
        back = cd.core.config_from_dict(cd.core.load_json(path))
        assert np.array_equal(back.assign, cfg.assign)

    @pytest.mark.parametrize("d", [{"n": 2}, [1, 2], {**cd.core.instance_to_dict(make_example()),
                                                       "edges": [{"u": 0, "v": 1}]}])
    def test_instance_missing_keys_structural(self, d):
        with pytest.raises(StructuralError):
            cd.core.instance_from_dict(d)

    def test_config_missing_assign_structural(self):
        with pytest.raises(StructuralError):
            cd.core.config_from_dict({"assignment": [[0]]})
