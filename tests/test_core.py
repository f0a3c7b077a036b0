"""Model, objective, and metrics tests."""

import dataclasses
import inspect
import math
import pickle
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codisplay as cd
from codisplay.core import DomainError, StructuralError, objective_parts, seeded_rng

from conftest import (
    DETERMINISTIC_TABLE,
    EXPECTED_UNIT,
    INTEGER_FIELD_CASES,
    RANDOMIZED_TABLE,
    instance_dict_with,
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

    def test_edge_index_read_only_and_derived(self):
        inst = cd.gen_random(6, 4, 2, edge_prob=0.6, seed=2)
        params = inspect.signature(cd.Instance).parameters
        for name in ("eu", "ev", "tau", "w"):
            assert name not in params
            assert not getattr(inst, name).flags.writeable
        with pytest.raises(TypeError):
            cd.Instance(n=1, m=1, k=1, pref=np.zeros((1, 1)), edges=(), lam=0.5,
                        w=np.zeros((0, 1)))
        for e, edge in enumerate(inst.edges):
            assert (inst.eu[e], inst.ev[e]) == (edge.u, edge.v)
            assert np.array_equal(inst.tau[e], [edge.tau_uv, edge.tau_vu])
            assert np.array_equal(inst.w[e], edge.weight())

    def test_edgeless_index_shapes(self):
        inst = cd.gen_gap_g(3, 2)
        assert inst.eu.shape == inst.ev.shape == (0,)
        assert inst.tau.shape == (0, 2, inst.m) and inst.w.shape == (0, inst.m)

    def test_pickle_round_trip_stays_frozen(self):
        inst = pickle.loads(pickle.dumps(cd.gen_random(4, 5, 2, seed=1, d_tel=0.5)))
        for arr in (inst.pref, inst.edges[0].tau_uv, inst.eu, inst.w):
            assert not arr.flags.writeable
        assert inst.st == cd.StParams(d_tel=0.5, M=4)


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

    def test_matches_the_cell_loop(self):
        # random tables, some with out-of-range items and repeats put in
        rng = np.random.Generator(np.random.Philox(17))
        valid = 0
        for trial in range(400):
            n, k = int(rng.integers(1, 30)), int(rng.integers(1, 6))
            inst = cd.gen_random(n, k + int(rng.integers(0, 5)), k, edge_prob=0.0, seed=trial)
            assign = np.array([rng.choice(inst.m, size=k, replace=False) for _ in range(n)])
            for _ in range(trial % 4):
                u, s = int(rng.integers(0, n)), int(rng.integers(0, k))
                assign[u, s] = rng.choice([-1, inst.m, inst.m + 3, assign[u, 0]])
            cfg = cd.Configuration(assign=assign)
            assert cd.validate(cfg, inst) == _validate_loop(cfg, inst)
            valid += not _validate_loop(cfg, inst)
        assert 100 <= valid < 400  # both the array check and the loop ran

    def test_float_table_takes_the_loop(self, example):
        # each entry is truncated to an item as the loop reads it: 1.9 is item 1,
        # a repeat of slot 2 that no comparison of the floats would find
        table = np.array([[0.0, 1.9, 1.0], [0.0, 1.0, 2.5], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        cfg = types.SimpleNamespace(assign=table)
        assert cd.validate(cfg, example) == _validate_loop(cfg, example) == [
            ("duplicate", 0, 1, 2, 1)]


def _validate_loop(config, inst):
    """`core.validate` cell by cell: the reference its array check is held to."""
    violations = []
    for u in range(inst.n):
        first_slot = {}
        for s in range(inst.k):
            c = int(config.assign[u, s])
            if not 0 <= c < inst.m:
                violations.append(("index", u, s))
                continue
            if c in first_slot:
                violations.append(("duplicate", u, first_slot[c], s, c))
            else:
                first_slot[c] = s
    return violations


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

    @pytest.mark.parametrize("teleport", [False, True])
    def test_to_dict_keys_and_values(self, teleport):
        inst = cd.gen_random(5, 4, 2, edge_prob=0.8, seed=6,
                             **({"d_tel": 0.5, "m_cap": 2} if teleport else {}))
        cfg = random_config(inst, np.random.Generator(np.random.Philox(3)))
        rep = cd.metrics(inst, cfg)
        assert rep.to_dict() == {  # the field list of earlier versions
            "objective_canonical": rep.objective_canonical,
            "objective_unit_sum": rep.objective_unit_sum,
            "personal_pct": rep.personal_pct,
            "social_pct": rep.social_pct,
            "inter_pct": rep.inter_pct,
            "intra_pct": rep.intra_pct,
            "normalized_density": rep.normalized_density,
            "codisplay_pct": rep.codisplay_pct,
            "alone_pct": rep.alone_pct,
            "regret_mean": float(np.mean(rep.regret)),
            "regret_max": float(np.max(rep.regret)),
            "regret": list(rep.regret),
            "st_feasible": rep.st_feasible,
            "st_violation_count": rep.st_violation_count,
        }
        assert (rep.st_feasible is None) is not teleport

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

    @pytest.mark.parametrize("field,value", INTEGER_FIELD_CASES)
    def test_instance_integer_fields_strict(self, field, value):
        with pytest.raises(StructuralError, match="must be an integer"):
            cd.core.instance_from_dict(instance_dict_with(field, value))

    @pytest.mark.parametrize("entry", [0.9, 1.0, True, "1"])
    def test_config_entries_strict(self, entry):
        with pytest.raises(StructuralError, match="must be an integer"):
            cd.core.config_from_dict({"assign": [[4, entry, 2]] + [[0, 1, 2]] * 3})

    def test_config_missing_assign_structural(self):
        with pytest.raises(StructuralError):
            cd.core.config_from_dict({"assignment": [[0]]})


# ---------------------------------------------------------------------------
# array code against per-edge loops written from the definitions
# ---------------------------------------------------------------------------


def _isolated_users():
    base = cd.gen_random(20, 6, 2, edge_prob=0.5, seed=7)
    edges = tuple(e for e in base.edges if e.u < 8 and e.v < 8)
    return cd.Instance(n=20, m=6, k=2, pref=base.pref, edges=edges, lam=0.4)


REFERENCE_INSTANCES = {
    "n16": lambda: cd.gen_random(16, 8, 3, edge_prob=0.3, seed=1),
    "n30": lambda: cd.gen_random(30, 10, 4, edge_prob=0.2, seed=2),
    "n60": lambda: cd.gen_random(60, 12, 4, edge_prob=0.1, seed=3),
    "k8": lambda: cd.gen_random(16, 10, 8, edge_prob=0.3, seed=6),
    # few edges, so that how one edge's slot terms are grouped shows in the total
    "k9-clique": lambda: cd.gen_random(4, 12, 9, edge_prob=1.0, seed=4),
    "tel-n20": lambda: cd.gen_random(20, 8, 3, edge_prob=0.3, seed=4, d_tel=0.5, m_cap=5),
    "tel-n40": lambda: cd.gen_random(40, 10, 4, edge_prob=0.15, seed=5, d_tel=0.25),
    "edgeless": lambda: cd.gen_gap_g(5, 2),
    "single": lambda: cd.Instance(n=1, m=4, k=2, pref=np.array([[0.3, 0.9, 0.1, 0.5]]),
                                  edges=(), lam=0.5),
    "isolated": _isolated_users,
}


def _reference_configs(inst):
    """Top-k baselines, random configurations, and the group row with two
    slots swapped per user, so that friends share some slots but not all."""
    rng = np.random.Generator(np.random.Philox(inst.n))
    swapped = np.tile(cd.group_topk(inst).assign[0], (inst.n, 1))
    for row in swapped:
        i, j = rng.choice(inst.k, size=2, replace=False)
        row[[i, j]] = row[[j, i]]
    return ([cd.per_topk(inst), cd.group_topk(inst), cd.Configuration(assign=swapped)]
            + [random_config(inst, rng) for _ in range(3)])


def ref_parts(inst, a, d_tel):
    pref_sum = float(inst.pref[np.arange(inst.n)[:, None], a].sum())
    social = 0.0
    for e in inst.edges:
        row_u, row_v = a[e.u], a[e.v]
        same = row_u == row_v
        social += float(e.weight()[row_u[same]].sum())
        off = np.isin(row_u, row_v) & ~same
        social += d_tel * float(e.weight()[row_u[off]].sum())
    return pref_sum, social


def ref_savg(inst, a, u, s):
    c = a[u, s]
    total = (1.0 - inst.lam) * float(inst.pref[u, c])
    for e in inst.edges:
        if e.u == u and a[e.v, s] == c:
            total += inst.lam * float(e.tau_uv[c])
        elif e.v == u and a[e.u, s] == c:
            total += inst.lam * float(e.tau_vu[c])
    return total


def ref_optimistic(inst):
    ub = (1.0 - inst.lam) * inst.pref.copy()
    for e in inst.edges:
        ub[e.u] += inst.lam * e.tau_uv
        ub[e.v] += inst.lam * e.tau_vu
    return ub


def ref_metrics(inst, cfg):
    a, n, k, ne = cfg.assign, inst.n, inst.k, inst.num_edges
    d_tel = inst.st.d_tel if inst.st is not None else 0.0
    pref_sum, social = ref_parts(inst, a, d_tel)
    canonical = (1.0 - inst.lam) * pref_sum + inst.lam * social
    out = {"objective_canonical": canonical, "objective_unit_sum": pref_sum + social,
           "personal_pct": 0.0, "social_pct": 0.0, "intra_pct": 0.0, "inter_pct": 0.0,
           "normalized_density": 0.0, "codisplay_pct": 0.0}
    if canonical > cd.core.FLOAT_ATOL:
        out["personal_pct"] = 100.0 * ((1.0 - inst.lam) * pref_sum) / canonical
        out["social_pct"] = 100.0 * (inst.lam * social) / canonical
    if ne:
        intra = [sum(1 for e in inst.edges if a[e.u, s] == a[e.v, s]) / ne for s in range(k)]
        out["intra_pct"] = 100.0 * float(np.mean(intra))
        out["inter_pct"] = 100.0 * (1.0 - float(np.mean(intra)))
        out["codisplay_pct"] = 100.0 * sum(1 for e in inst.edges if (a[e.u] == a[e.v]).any()) / ne
    if n >= 2 and ne:
        adj = {(min(e.u, e.v), max(e.u, e.v)) for e in inst.edges}
        densities = []
        for s in range(k):
            for _, members in cd.partition_subgroups(cfg, s).groups:
                sz = len(members)
                internal = sum(1 for i in members for j in members if i < j and (i, j) in adj)
                densities.append(internal / (sz * (sz - 1) / 2) if sz >= 2 else 0.0)
        out["normalized_density"] = float(np.mean(densities)) / (ne / (n * (n - 1) / 2))
    alone = sum(1 for u in range(n) if all((a[:, s] == a[u, s]).sum() == 1 for s in range(k)))
    out["alone_pct"] = 100.0 * alone / n
    ub = ref_optimistic(inst)
    regret = []
    for u in range(n):
        achieved = 0.0
        for s in range(k):
            achieved += ref_savg(inst, a, u, s)
        top = sorted(range(inst.m), key=lambda c: (-ub[u, c], c))[:k]
        denom = float(ub[u, top].sum())
        hap = achieved / denom if denom > cd.core.FLOAT_ATOL else 1.0
        regret.append(min(max(1.0 - hap, 0.0), 1.0))
    out["regret"] = regret
    return out


@pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
class TestArraysMatchEdgeLoops:
    """Outputs equal, bit for bit, loops over ``inst.edges`` that add in the
    same order (edge by edge, slot by slot)."""

    def test_objective_parts(self, name):
        inst = REFERENCE_INSTANCES[name]()
        for cfg in _reference_configs(inst):
            for d_tel in (0.0, 0.5):
                assert objective_parts(inst, cfg.assign, d_tel) == ref_parts(inst, cfg.assign, d_tel)

    def test_optimistic_and_savg_utility(self, name):
        inst = REFERENCE_INSTANCES[name]()
        assert np.array_equal(cd.core.optimistic_utility(inst), ref_optimistic(inst))
        for cfg in _reference_configs(inst):
            for u in range(inst.n):
                for s, c in enumerate(cfg.assign[u]):
                    assert cd.savg_utility(inst, cfg, u, int(c)) == ref_savg(inst, cfg.assign, u, s)

    def test_metrics(self, name):
        inst = REFERENCE_INSTANCES[name]()
        for cfg in _reference_configs(inst):
            rep = cd.metrics(inst, cfg).to_dict()
            for field, value in ref_metrics(inst, cfg).items():
                assert rep[field] == value, field


class TestOptimisticCache:
    """The optimistic utility and ranking an instance builds once: read-only,
    exact, and never carried into a copy, which builds its own."""

    CACHED = ("optimistic_ub", "optimistic_ranking")

    @staticmethod
    def assert_fresh_and_exact(inst):
        assert not set(TestOptimisticCache.CACHED) & set(vars(inst))
        ub = cd.core.optimistic_utility(inst)
        assert np.array_equal(inst.optimistic_ub, ub)
        assert np.array_equal(inst.optimistic_ranking, np.argsort(-ub, axis=1, kind="stable"))

    def test_built_once_read_only(self):
        inst = cd.gen_random(12, 6, 3, edge_prob=0.3, seed=2)
        self.assert_fresh_and_exact(inst)
        for name in self.CACHED:
            arr = getattr(inst, name)
            assert getattr(inst, name) is arr and not arr.flags.writeable

    def test_ties_rank_the_lower_item_first(self):
        inst = cd.Instance(n=2, m=4, k=2, pref=np.array([[1.0, 2.0, 2.0, 1.0], [0.0] * 4]),
                           edges=(), lam=0.5)
        assert inst.optimistic_ranking.tolist() == [[1, 2, 0, 3], [0, 1, 2, 3]]

    def test_copies_build_their_own(self):
        inst = cd.gen_random(12, 6, 3, edge_prob=0.3, seed=3, d_tel=0.5, m_cap=4)
        low = dataclasses.replace(inst, lam=0.3)
        for parent in (inst, low):
            parent.optimistic_ranking  # build the parents' caches first
        others = [dataclasses.replace(inst, pref=inst.pref[:, ::-1]), cd.scale_preferences(low),
                  *(sub for sub, _ in cd.st_prepartition(inst))]
        for other in others:
            self.assert_fresh_and_exact(other)
        clone = pickle.loads(pickle.dumps(inst))  # as `compare --jobs 2` sends it
        self.assert_fresh_and_exact(clone)
        assert np.array_equal(clone.optimistic_ranking, inst.optimistic_ranking)

    def test_metrics_equal_on_a_cached_and_a_fresh_instance(self):
        for inst in random_suite(8, base_seed=41):
            rng = np.random.default_rng(inst.n)
            for _ in range(3):
                cfg = random_config(inst, rng)
                fresh = cd.core.instance_from_dict(cd.core.instance_to_dict(inst))
                assert cd.metrics(inst, cfg).to_dict() == cd.metrics(fresh, cfg).to_dict()


class TestSeededRng:
    def test_negative_seed_rejected_by_every_seeded_routine(self, example, example_frac):
        calls = [
            lambda: cd.avg(example, example_frac, rng_seed=-1),
            lambda: cd.best_of(example, example_frac, seeds=[0, -1]),
            lambda: cd.independent_rounding(example, example_frac, rng_seed=-1),
            lambda: cd.auto_partition(example, "preference", 2, seed=-1),
            lambda: cd.gen_random(4, 4, 2, seed=-1),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
                call()

    def test_stream_of_a_valid_seed_is_philox(self):
        a = seeded_rng(3).random(5)
        assert np.array_equal(a, np.random.Generator(np.random.Philox(3)).random(5))
