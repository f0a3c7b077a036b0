"""Relaxation builders, simplex, expansion, and export tests."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message
from scipy.optimize._highspy._core import HighsModelStatus

import codisplay as cd
from codisplay import lp as lpm
from codisplay.core import DomainError

from conftest import make_example, make_frac, random_suite
from dense_simplex import solve_dense


# linprog's status codes; 4 (numerical difficulties) is a failure
LINPROG_STATUS = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded"}


def linprog_result(model: lpm.LpModel, max_iter: int = 1_000_000):
    """The model through ``scipy.optimize.linprog(method="highs-ds")``, built
    from ``model.rows`` as sparse matrices (``>=`` rows negated, repeated
    columns summed)."""
    n = model.num_vars
    blocks = {"ub": ([], [], [], []), "eq": ([], [], [], [])}
    for cols, coefs, sense, rhs in model.rows:
        rows, cs, vals, b = blocks["eq" if sense == "=" else "ub"]
        sign = -1.0 if sense == ">=" else 1.0
        rows.extend([len(b)] * len(cols)); cs.extend(cols); vals.extend(sign * coefs)
        b.append(sign * rhs)

    def matrix(rows, cols, vals, b):
        if not b:
            return None, None
        return sparse.csr_array((vals, (rows, cols)), shape=(len(b), n)), np.array(b)

    a_ub, b_ub = matrix(*blocks["ub"])
    a_eq, b_eq = matrix(*blocks["eq"])
    upper = [np.inf if u is None else u for u in model.upper]
    c = np.asarray(model.obj, dtype=float)
    return linprog(-c if model.maximize else c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                   bounds=np.column_stack([np.zeros(n), upper]), method="highs-ds",
                   options={"maxiter": max_iter})


def linprog_solve(model: lpm.LpModel, max_iter: int = 1_000_000) -> lpm.LpResult:
    """The reference for ``solve_lp``, with linprog's statuses mapped."""
    res = linprog_result(model, max_iter)
    if res.status not in LINPROG_STATUS:
        raise ArithmeticError(res.message)
    status, names = LINPROG_STATUS[res.status], tuple(model.var_names)
    if status != "optimal":
        return lpm.LpResult(0.0, np.zeros(model.num_vars), status, names)
    return lpm.LpResult(float(np.asarray(model.obj, dtype=float) @ res.x), res.x, status, names)


def assert_same_result(mine: lpm.LpResult, ref: lpm.LpResult) -> None:
    assert mine.status == ref.status
    assert mine.objective == ref.objective
    assert mine.names == ref.names
    assert np.array_equal(mine.x, ref.x)


def value(res: lpm.LpResult, name: str) -> float:
    """The optimum's value of the variable called ``name``."""
    return float(res.x[res.names.index(name)])


def parse_lp_text(text: str):
    """Line-oriented reader of the exported format: returns

    (objective coefs by name, constraint count, bounded vars, binary vars).
    """
    lines = [ln.strip() for ln in text.strip().splitlines()]
    assert lines[0] in ("Maximize", "Minimize")
    assert lines[-1] == "End"
    section = "obj"
    obj, nrows, bounded, binaries = {}, 0, [], []
    for ln in lines[1:-1]:
        if ln in ("Subject To", "Bounds", "Binary"):
            section = ln
            continue
        if section == "obj":
            body = ln.split("obj:")[1]
            for term in body.replace("- ", "+ -").split("+ "):
                term = term.strip()
                if not term:
                    continue
                coef, name = term.split()
                obj[name] = float(coef)
        elif section == "Subject To":
            nrows += 1
        elif section == "Bounds":
            bounded.append(ln.split()[2])
        else:
            binaries.append(ln)
    return obj, nrows, bounded, binaries


class TestBuilders:
    def test_full_variable_count(self, example):
        mdl = lpm.build_full_lp(example)
        assert mdl.num_vars == 160  # 60 + 20 + 60 + 20

    def test_simplified_variable_count(self, example):
        assert lpm.build_simplified_lp(example).num_vars == 40

    def test_single_cell_instance(self):
        inst = cd.Instance(n=1, m=1, k=1, pref=np.array([[0.7]]), edges=(), lam=0.5)
        res = lpm.solve_lp(lpm.build_full_lp(inst))
        assert res.objective == pytest.approx(0.7)

    def test_no_edges_no_edge_vars(self):
        inst = cd.Instance(n=2, m=3, k=2, pref=np.ones((2, 3)), edges=(), lam=0.5)
        mdl = lpm.build_full_lp(inst)
        assert not any(name.startswith(("y_", "ye_")) for name in mdl.var_names)

    def test_k_equals_m_saturates_compact_vars(self):
        inst = cd.Instance(n=2, m=3, k=3, pref=np.ones((2, 3)), edges=(), lam=0.5)
        res = lpm.solve_lp(lpm.build_simplified_lp(inst))
        assert all(value(res, f"xu_{u}_{c}") == pytest.approx(1.0)
                   for u in range(2) for c in range(3))

    def test_st_requires_params(self, example):
        with pytest.raises(DomainError):
            lpm.build_st_lp(example)


class TestSolver:
    def test_trivial_bound(self):
        mdl = lpm.LpModel()
        mdl.add_vars("x", obj=1.0)
        mdl.add_rows([0], [1.0], "<=", 1.0)
        res = lpm.solve_lp(mdl)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)

    def test_infeasible_detected(self):
        mdl = lpm.LpModel()
        mdl.add_vars("x", obj=1.0)
        mdl.add_rows([0], [1.0], "<=", 1.0)
        mdl.add_rows([0], [1.0], ">=", 2.0)
        assert lpm.solve_lp(mdl).status == "infeasible"

    def test_unbounded_detected(self):
        mdl = lpm.LpModel()
        mdl.add_vars("x", obj=1.0)
        mdl.add_rows([0], [1.0], ">=", 1.0)
        assert lpm.solve_lp(mdl).status == "unbounded"

    def test_iteration_limit_reported(self, example):
        res = lpm.solve_lp(lpm.build_full_lp(example), max_iter=3)
        assert res.status == "iteration_limit"

    def test_matches_reference_solver_on_models(self):
        for inst in random_suite(8, base_seed=300):
            for build in (lpm.build_simplified_lp, lpm.build_full_lp):
                mdl = build(inst)
                mine = lpm.solve_lp(mdl)
                assert mine.status == "optimal"
                assert_same_result(mine, linprog_solve(mdl))

    def test_matches_reference_solver_on_st_models(self):
        for seed in range(3):
            inst = cd.gen_random(4, 5, 2, edge_prob=0.7, seed=seed, d_tel=0.4, m_cap=2)
            mdl = lpm.build_st_lp(inst)
            assert_same_result(lpm.solve_lp(mdl), linprog_solve(mdl))

    def test_optimal_value_equality_refeasible(self, example):
        # pinning the objective to its optimum keeps the model solvable
        mdl = lpm.build_simplified_lp(example)
        first = lpm.solve_lp(mdl)
        cols = [j for j, coef in enumerate(mdl.obj) if coef != 0.0]
        mdl.add_rows(cols, [mdl.obj[j] for j in cols], "=", first.objective)
        again = lpm.solve_lp(mdl)
        assert again.status == "optimal"
        assert again.objective == pytest.approx(first.objective, abs=1e-6)


def toy_models(example):
    """(expected status, model, max_iter) of models that have no optimum."""
    infeasible = lpm.LpModel()
    infeasible.add_vars("x", obj=1.0)
    infeasible.add_rows([0], [1.0], "<=", 1.0)
    infeasible.add_rows([0], [1.0], ">=", 2.0)
    unbounded = lpm.LpModel()
    unbounded.add_vars("x", obj=1.0)
    unbounded.add_rows([0], [1.0], ">=", 1.0)
    return [("infeasible", infeasible, 1_000_000), ("unbounded", unbounded, 1_000_000),
            ("iteration_limit", lpm.build_full_lp(example), 3)]


def factors(res, inst):
    if res.names[0].startswith("xu_"):
        return lpm.expand_solution(res, inst)
    return lpm.frac_from_full_result(res, inst)


class TestBackends:
    """HiGHS against the dense reference simplex in ``tests/dense_simplex.py``."""

    def check_pair(self, model, inst):
        highs = lpm.solve_lp(model)
        dense = solve_dense(model)
        assert highs.status == dense.status == "optimal"
        assert highs.objective == pytest.approx(dense.objective, abs=1e-6)
        for res in (highs, dense):
            factors(res, inst).check()

    def test_compact_and_full_models_agree(self):
        for inst in random_suite(8, base_seed=1300):
            for build in (lpm.build_simplified_lp, lpm.build_full_lp):
                self.check_pair(build(inst), inst)

    def test_st_models_agree(self):
        for seed in range(4):
            inst = cd.gen_random(4, 5, 2, edge_prob=0.7, seed=40 + seed, d_tel=0.4, m_cap=2)
            self.check_pair(lpm.build_st_lp(inst), inst)

    def test_non_optimal_statuses_agree(self, example):
        for expected, model, max_iter in toy_models(example):
            assert lpm.solve_lp(model, max_iter=max_iter).status == expected
            assert solve_dense(model, max_iter).status == expected

    def test_block_reads_match_name_lookup(self, example):
        n, m, k = example.n, example.m, example.k
        res = lpm.solve_lp(lpm.build_simplified_lp(example))
        want = [[[value(res, f"xu_{u}_{c}") / k] * k for c in range(m)] for u in range(n)]
        assert np.array_equal(lpm.expand_solution(res, example).x,
                              cd.FractionalSolution(np.clip(want, 0.0, 1.0)).x)
        res = lpm.solve_lp(lpm.build_full_lp(example))
        want = [[[value(res, f"x_{u}_{c}_{s}") for s in range(k)] for c in range(m)]
                for u in range(n)]
        assert np.array_equal(lpm.frac_from_full_result(res, example).x,
                              cd.FractionalSolution(np.clip(want, 0.0, 1.0)).x)

    def test_wrong_model_result_rejected(self, example):
        res = lpm.solve_lp(lpm.build_full_lp(example))
        with pytest.raises(DomainError):
            lpm.expand_solution(res, example)


class TestCertificate:
    """Tampered HiGHS results must fail the dual certificate check, and a
    status outside the four known ones must raise."""

    @staticmethod
    def shift_bound_duals(run):
        # stationary, right signs, but upper.y_up moves the dual objective
        run.y_up[0] -= 1.0
        run.y_low[0] += 1.0
        return run

    @staticmethod
    def flip_duals(run):
        run.y[:] = 1.0
        return run

    @staticmethod
    def halve_duals(run):
        for part in (run.y, run.y_up, run.y_low):
            part *= 0.5
        return run

    @staticmethod
    def numerical_failure(run):
        return run._replace(status=None, message="numerical difficulties")

    @staticmethod
    def perturb_primal(run):
        run.x[0] += 0.5
        return run

    @pytest.mark.parametrize("tamper, message", [
        ("shift_bound_duals", "duality gap"),
        ("flip_duals", "wrong sign"),
        ("halve_duals", "not stationary"),
        ("numerical_failure", "numerical difficulties"),
        ("perturb_primal", "infeasible point"),
    ])
    def test_tampered_result_rejected(self, example, monkeypatch, tamper, message):
        real = lpm._run_highs

        def tampered(*args, **kwargs):
            return getattr(self, tamper)(real(*args, **kwargs))

        model = lpm.build_simplified_lp(example)
        assert lpm.solve_lp(model).status == "optimal"
        monkeypatch.setattr(lpm, "_run_highs", tampered)
        with pytest.raises(ArithmeticError, match=message):
            lpm.solve_lp(model)


# (n, m, k, edge probability, seed) from the smallest test shape up to the
# capped (40, 10, 3) of the teleport solve in CI
REFERENCE_LADDER = [(4, 5, 2, 0.7, 0), (6, 4, 2, 0.6, 1), (10, 8, 3, 0.4, 2),
                    (15, 10, 3, 0.3, 3), (40, 10, 3, 0.1, 4)]


def reference_models():
    """(label, model) of the compact, capped compact, full and teleportation
    models on the ladder; the per-slot models stop at (15, 10, 3)."""
    for n, m, k, p, seed in REFERENCE_LADDER:
        inst = cd.gen_random(n, m, k, edge_prob=p, seed=seed, d_tel=0.3, m_cap=-(-n // m))
        plain = replace(inst, st=None)
        yield f"compact {n},{m},{k}", lpm.build_simplified_lp(plain)
        yield f"capped {n},{m},{k}", lpm.build_simplified_lp(plain, inst.st.M)
        if n <= 15:
            yield f"full {n},{m},{k}", lpm.build_full_lp(plain)
            yield f"st {n},{m},{k}", lpm.build_st_lp(inst)


class TestLinprogReference:
    """``solve_lp`` fills HiGHS's model itself; linprog's "highs-ds" path,
    given the same rows, must return the same point, objective and status."""

    @pytest.mark.parametrize("model", [pytest.param(model, id=label)
                                       for label, model in reference_models()])
    def test_same_optimum_to_the_bit(self, model):
        assert_same_result(lpm.solve_lp(model), linprog_solve(model))

    @pytest.mark.parametrize("model", [pytest.param(model, id=label)
                                       for label, model in reference_models()
                                       if label.endswith("10,8,3")])
    def test_same_duals_to_the_bit(self, model):
        # the row duals and the column duals split by basis status, as
        # linprog's marginals
        run = lpm._run_highs(lpm._min_form(model, lpm._flat_rows(model)), 1_000_000)
        res = linprog_result(model)
        assert np.array_equal(run.y, np.concatenate([res.ineqlin.marginals, res.eqlin.marginals]))
        assert np.array_equal(run.y_low, res.lower.marginals)
        assert np.array_equal(run.y_up, res.upper.marginals)
        assert (run.y_up != 0).any() or (run.y_low != 0).any()

    def test_same_statuses_on_toys(self, example):
        for expected, model, max_iter in toy_models(example):
            mine = lpm.solve_lp(model, max_iter=max_iter)
            assert mine.status == expected
            assert_same_result(mine, linprog_solve(model, max_iter))

    def test_status_table_is_linprogs(self):
        # every HiGHS model status maps as linprog maps it; linprog's code 4
        # (and any status it does not know) is a failure
        for status in HighsModelStatus.__members__.values():
            code, _ = _highs_to_scipy_status_message(status, "")
            assert lpm._HIGHS_STATUS.get(status.name) == LINPROG_STATUS.get(code), status


class TestEdgeModels:
    """Row sets that linprog received as ``None`` blocks, and a row that names
    a column twice."""

    def test_no_rows(self):
        mdl = lpm.LpModel()
        mdl.add_vars("x", (3,), obj=[1.0, -1.0, 2.0], upper=1.0)
        res = lpm.solve_lp(mdl)
        assert res.status == "optimal" and res.objective == 3.0
        assert res.x.tolist() == [1.0, 0.0, 1.0]
        assert_same_result(res, linprog_solve(mdl))

    def test_only_equality_rows(self):
        mdl = lpm.LpModel()
        mdl.add_vars("x", (3,), obj=[1.0, 2.0, 0.5])
        mdl.add_rows([[0, 1], [1, 2]], 1.0, "=", [1.0, 1.0])
        res = lpm.solve_lp(mdl)
        assert res.status == "optimal" and res.objective == pytest.approx(2.0, abs=1e-9)
        assert_same_result(res, linprog_solve(mdl))

    def test_only_greater_equal_rows(self):
        mdl = lpm.LpModel(maximize=False)
        mdl.add_vars("x", (2,), obj=[1.0, 2.0], upper=1.0)
        mdl.add_rows([0, 1], 1.0, ">=", 1.5)
        res = lpm.solve_lp(mdl)
        assert res.status == "optimal" and res.objective == pytest.approx(2.0, abs=1e-9)
        assert res.x == pytest.approx([1.0, 0.5], abs=1e-9)
        assert_same_result(res, linprog_solve(mdl))

    def test_repeated_column_sums_its_coefficients(self):
        # 3 x0 + x1 under x0 + x0 + x1 <= 2: the summed row 2 x0 + x1 <= 2 has
        # its optimum at x0 = 1 (3), where a kept single x0 would give 6
        mdl = lpm.LpModel()
        mdl.add_vars("x", (2,), obj=[3.0, 1.0])
        mdl.add_rows([0, 0, 1], [1.0, 1.0, 1.0], "<=", 2.0)
        res = lpm.solve_lp(mdl)
        assert res.status == "optimal" and res.objective == pytest.approx(3.0, abs=1e-9)
        assert res.x == pytest.approx([1.0, 0.0], abs=1e-9)
        assert_same_result(res, linprog_solve(mdl))

    def test_non_finite_coefficient_refused(self):
        mdl = lpm.LpModel()
        mdl.add_vars("x", (2,), obj=[1.0, np.nan])
        mdl.add_rows([0, 1], 1.0, "<=", 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            lpm.solve_lp(mdl)


class TestTransformation:
    def test_full_equals_compact_on_fixture(self, example):
        full = lpm.solve_lp(lpm.build_full_lp(example))
        simp = lpm.solve_lp(lpm.build_simplified_lp(example))
        assert abs(full.objective - simp.objective) <= 1e-6
        assert full.objective == pytest.approx(10.45, abs=1e-6)

    def test_full_equals_compact_on_randoms(self):
        for inst in random_suite(8, base_seed=500):
            full = lpm.solve_lp(lpm.build_full_lp(inst))
            simp = lpm.solve_lp(lpm.build_simplified_lp(inst))
            assert abs(full.objective - simp.objective) <= 1e-6

    def test_bound_dominates_exact_optimum(self):
        for inst in random_suite(6, base_seed=650):
            _, opt = cd.brute_force(inst, "unit_sum")
            simp = lpm.solve_lp(lpm.build_simplified_lp(inst))
            assert simp.objective >= opt - 1e-7

    def test_lemma1_compact_optimum_analytic(self):
        # co-display value of the indifferent instance: n(n-1) * tau * k
        inst = cd.gen_lemma1(3, 4, 2, tau=1.0)
        res = lpm.solve_lp(lpm.build_simplified_lp(inst))
        assert res.objective == pytest.approx(12.0, abs=1e-7)


class TestStModel:
    def test_zero_discount_matches_full(self):
        inst = cd.gen_random(4, 5, 2, edge_prob=0.8, seed=9, d_tel=0.0, m_cap=4)
        st = lpm.solve_lp(lpm.build_st_lp(inst))
        full = lpm.solve_lp(lpm.build_full_lp(inst))
        assert st.objective == pytest.approx(full.objective, abs=1e-6)

    def test_loose_cap_cuts_are_slack(self):
        inst = cd.gen_random(4, 5, 2, edge_prob=0.8, seed=9, d_tel=0.5, m_cap=4)
        with_cuts = lpm.solve_lp(lpm.build_st_lp(inst))
        uncut = lpm.build_st_lp(inst)
        uncut.rows = uncut.rows[: -inst.m * inst.k]  # drop the size cuts
        without = lpm.solve_lp(uncut)
        assert with_cuts.objective == pytest.approx(without.objective, abs=1e-6)

    def test_bound_dominates_st_oracle(self):
        inst = cd.gen_random(3, 4, 2, edge_prob=0.9, seed=10, d_tel=0.5, m_cap=2)
        _, opt = cd.brute_force_st(inst)
        res = lpm.solve_lp(lpm.build_st_lp(inst))
        # oracle value is canonical; the relaxation objective is unit-sum
        assert inst.lam * res.objective >= opt - 1e-7


# (n, m, k, edge probability, seed) of the teleportation ladder; each is solved
# under a tight cap ceil(n/m) and a plain one (n, which never binds)
ST_LADDER = [(4, 5, 2, 0.7, 0), (6, 4, 2, 0.6, 1), (8, 6, 2, 0.5, 2), (10, 5, 3, 0.4, 3),
             (12, 8, 3, 0.3, 4), (16, 8, 3, 0.25, 5)]
D_TELS = (0.0, 0.3, 0.9)


def st_ladder():
    """(plain instance, a cap, the instance with that cap at each d_tel) per rung and cap."""
    for n, m, k, p, seed in ST_LADDER:
        base = cd.gen_random(n, m, k, edge_prob=p, seed=seed)
        for cap in (-(-n // m), n):
            yield base, cap, [replace(base, st=cd.StParams(d, cap)) for d in D_TELS]


class TestCompactTeleportBound:
    """The teleportation relaxation ``build_st_lp`` has the optimum of the compact
    model plus one cap row ``sum_u xu[u,c] <= k*M`` per item, whatever d_tel is."""

    def test_capped_compact_optimum_equals_st_optimum(self):
        for base, cap, teles in st_ladder():
            compact = lpm.solve_lp(lpm.build_simplified_lp(base, cap)).objective
            for tele in teles:
                assert lpm.solve_fractional(tele, cap)[1] == compact  # d_tel is not read
                st = lpm.solve_lp(lpm.build_st_lp(tele)).objective
                assert st == pytest.approx(compact, rel=1e-9, abs=0.0), (base.n, cap, tele.st)

    def test_tight_cap_binds(self):
        lowered = [lpm.solve_fractional(base, cap)[1] < lpm.solve_fractional(base)[1] - 1e-6
                   for base, cap, _ in st_ladder() if cap < base.n]
        assert all(lowered)  # so the ladder would see a missing cap row

    def test_lift_is_feasible_for_st_model(self):
        for base, cap, teles in st_ladder():
            res = lpm.solve_lp(lpm.build_simplified_lp(base, cap))
            n, m, k, num_edges = base.n, base.m, base.k, base.num_edges
            xu = res.x[: n * m].reshape(n, m)
            ye = res.x[n * m:].reshape(num_edges, m)
            lift = np.concatenate([np.repeat(xu[:, :, None] / k, k, axis=2).ravel(), xu.ravel(),
                                   np.repeat(ye[:, :, None] / k, k, axis=2).ravel(), ye.ravel(),
                                   ye.ravel()])
            for tele in teles:
                model = lpm.build_st_lp(tele)
                assert lift.size == model.num_vars
                lpm._check_residuals(lpm._flat_rows(model), lift)
                value = float(np.asarray(model.obj) @ lift)
                assert value == pytest.approx(res.objective, rel=1e-9, abs=0.0)

    def test_cap_rows_only_when_capped(self, example):
        plain, capped = lpm.build_simplified_lp(example), lpm.build_simplified_lp(example, 2)
        assert capped.num_rows == plain.num_rows + example.m
        for (cols, coefs, sense, rhs), row in zip(capped.rows, plain.rows):
            assert np.array_equal(cols, row[0]) and np.array_equal(coefs, row[1])
            assert (sense, rhs) == row[2:]
        for c, (cols, coefs, sense, rhs) in enumerate(capped.rows[plain.num_rows:]):
            assert [plain.var_names[j] for j in cols] == [f"xu_{u}_{c}" for u in range(example.n)]
            assert (coefs == 1.0).all() and sense == "<=" and rhs == example.k * 2

    def test_expanded_factors_within_the_cap(self):
        for base, cap, _ in st_ladder():
            frac, _ = lpm.solve_fractional(base, cap)
            frac.check()
            assert (frac.x.sum(axis=0) <= cap + 1e-9).all()  # every (item, slot)


class TestFractionalSolution:
    def test_rewrapping_a_solution(self, example_frac):
        again = cd.FractionalSolution(example_frac.x)
        assert np.array_equal(again.x, example_frac.x)

    def test_caller_array_untouched(self):
        x = np.full((1, 2, 1), 0.5)
        x[0, 0, 0] = 1e-12
        frac = cd.FractionalSolution(x)
        assert frac.x[0, 0, 0] == 0.0 and not frac.x.flags.writeable
        assert x[0, 0, 0] == 1e-12 and x.flags.writeable


class TestExpansion:
    def test_uniform_split(self):
        inst = cd.Instance(n=1, m=2, k=2, pref=np.ones((1, 2)), edges=(), lam=0.5)
        res = lpm.solve_lp(lpm.build_simplified_lp(inst))
        frac = lpm.expand_solution(res, inst)
        assert np.allclose(frac.x, 0.5)

    def test_invariants_always_hold(self):
        for inst in random_suite(6, base_seed=800):
            frac, _ = lpm.solve_fractional(inst)
            frac.check()
            assert np.allclose(frac.x.sum(axis=1), 1.0, atol=1e-6)

    def test_non_optimal_result_rejected(self, example):
        res = lpm.LpResult(0.0, np.zeros(1), "infeasible", ("xu_0_0",))
        with pytest.raises(DomainError):
            lpm.expand_solution(res, example)

    def test_fixture_expansion_matches_lp_value(self, example, example_frac):
        # the fixture tensor and any expanded optimum share the LP objective
        res = lpm.solve_lp(lpm.build_simplified_lp(example))
        frac = lpm.expand_solution(res, example)
        def lp_value(fr):
            val = float(np.einsum("uc,ucs->", example.pref, fr.x))
            for e in example.edges:
                w = e.weight()
                val += float((w[:, None] * np.minimum(fr.x[e.u], fr.x[e.v])).sum())
            return val
        assert lp_value(frac) == pytest.approx(res.objective, abs=1e-6)
        assert lp_value(example_frac) == pytest.approx(res.objective, abs=1e-9)


class TestExport:
    def test_no_edge_rows_without_edges(self):
        inst = cd.Instance(n=2, m=3, k=2, pref=np.ones((2, 3)), edges=(), lam=0.5)
        text = lpm.export_model(lpm.build_full_lp(inst))
        assert "y_" not in text and "z_" not in text

    def test_round_trip_counts(self, example):
        mdl = lpm.build_simplified_lp(example)
        obj, nrows, bounded, binaries = parse_lp_text(lpm.export_model(mdl))
        assert nrows == mdl.num_rows
        assert len(bounded) == sum(ub is not None for ub in mdl.upper)
        assert not binaries
        nonzero = {n for n, c in zip(mdl.var_names, mdl.obj) if c != 0.0}
        assert set(obj) == nonzero

    def test_binary_section_lists_all_vars(self, example):
        mdl = lpm.build_full_lp(example)
        _, _, _, binaries = parse_lp_text(lpm.export_model(mdl, integrality=True))
        assert binaries == mdl.var_names

    def test_reimported_model_same_optimum(self, example):
        # rebuild an equivalent model from the exported text and re-solve
        mdl = lpm.build_simplified_lp(example)
        text = lpm.export_model(mdl)
        obj, _, bounded, _ = parse_lp_text(text)
        rebuilt = lpm.LpModel()
        for name in mdl.var_names:
            rebuilt.add_vars(name, obj=obj.get(name, 0.0),
                             upper=1.0 if name in set(bounded) else None)
        index = {name: j for j, name in enumerate(rebuilt.var_names)}
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln.startswith("c") or ":" not in ln:
                continue
            body = ln.split(":", 1)[1].strip()
            for sense in ("<=", ">=", "="):
                if f" {sense} " in body:
                    lhs, rhs = body.rsplit(f" {sense} ", 1)
                    break
            cols, coefs = [], []
            for term in lhs.replace("- ", "+ -").split("+ "):
                term = term.strip()
                if not term:
                    continue
                coef, name = term.split()
                cols.append(index[name])
                coefs.append(float(coef))
            rebuilt.add_rows(cols, coefs, sense, float(rhs))
        a = lpm.solve_lp(mdl)
        b = lpm.solve_lp(rebuilt)
        assert b.objective == pytest.approx(a.objective, abs=1e-7)


class TestModelBlocks:
    def test_add_vars_names_and_columns(self):
        mdl = lpm.LpModel()
        a = mdl.add_vars("a", (2, 3), obj=[1.0, 2.0, 3.0])
        b = mdl.add_vars("b", upper=1.0)
        assert a.tolist() == [[0, 1, 2], [3, 4, 5]]
        assert b.shape == () and int(b) == 6
        assert mdl.var_names == ["a_0_0", "a_0_1", "a_0_2", "a_1_0", "a_1_1", "a_1_2", "b"]
        assert mdl.obj == [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 0.0]
        assert mdl.upper == [None] * 6 + [1.0]

    def test_add_rows_one_row_per_leading_index(self):
        mdl = lpm.LpModel()
        a = mdl.add_vars("a", (2, 3))
        mdl.add_rows(a, [1.0, 2.0, 3.0], "<=", [4.0, 5.0])
        mdl.add_rows(a[:, 0], -1.0, ">=", 0)
        assert mdl.num_rows == 3
        (c0, v0, s0, r0), (c1, _, _, r1), (c2, v2, s2, r2) = mdl.rows
        assert c0.tolist() == [0, 1, 2] and c1.tolist() == [3, 4, 5] and c2.tolist() == [0, 3]
        assert v0.tolist() == [1.0, 2.0, 3.0] and v2.tolist() == [-1.0, -1.0]
        assert (s0, s2) == ("<=", ">=") and (r0, r1, r2) == (4.0, 5.0, 0.0)
        assert type(r2) is float and c0.dtype == np.int64 and v0.dtype == float

    def test_bad_sense_rejected(self):
        mdl = lpm.LpModel()
        x = mdl.add_vars("x", (2,))
        with pytest.raises(ValueError, match="bad sense"):
            mdl.add_rows(x, 1.0, "<", 1.0)
        assert mdl.num_rows == 0

    @pytest.mark.parametrize("col", [-1, 2])
    def test_unregistered_column_rejected(self, col):
        mdl = lpm.LpModel()
        mdl.add_vars("x", (2,))
        with pytest.raises(ValueError, match="unregistered variable"):
            mdl.add_rows([[0, 1], [1, col]], 1.0, "<=", 1.0)
        assert mdl.num_rows == 0


PINNED_INSTANCES = {
    "example": make_example,
    "plain_5_6_2": lambda: cd.gen_random(5, 6, 2, edge_prob=0.5, seed=1),
    "tel_8_6_2_cap2": lambda: cd.gen_random(8, 6, 2, edge_prob=0.5, seed=2, d_tel=0.4, m_cap=2),
    "tel_12_8_3_cap3": lambda: cd.gen_random(12, 8, 3, edge_prob=0.4, seed=3, d_tel=0.3, m_cap=3),
    "edgeless_tel_4_5_2": lambda: cd.gen_random(4, 5, 2, edge_prob=0.0, seed=4, d_tel=0.5, m_cap=2),
}

# sha256 of export_model text (relaxed, binary): a change to how the builders
# work must leave every exported model identical byte for byte
PINNED_EXPORTS = {
    ("example", "full"): ("c9a377ad1b8a3d20a83f0298aa69e91e797c4a1e2e922ab4cffd70d0f9618d9d",
        "0bba9c8258515f3af435421acd8ae190dc0f8d7709280768c3a4175bfc232d9e"),
    ("example", "simp"): ("77e545b1befc9c8aba920fde9d0db8824ea1da75fa41697fb019c033dcdc6e89",
        "3fa362785fc0a8a8bad7a5bc171ae3ad7eb6fe57d3c741b8685cdcf36694d237"),
    ("plain_5_6_2", "full"): ("592c0da16f013583ee9610d1e4c9b19ff9dbb8e8f08f535d40e438d2954774b8",
        "98b368d3d474ffcd4d0d39cc8cb8b684dab3827e34924f3478c2dccb4450ac31"),
    ("plain_5_6_2", "simp"): ("b7c025f758b3bf9e03f2109e336b44af489c134b23f9faf58ddcd89de3256861",
        "179a011a60cf6399277df64fdd8b4d944f79715355202a98e3576f064534933f"),
    ("tel_8_6_2_cap2", "full"): ("c6e8d7957344f6b09ac3d44987d104d3f2a9b88e5fba873a3b21801210da005a",
        "87ff8f90fa05846f5ba1c115e4cf128cff367808cc31094c4c5a643320dafd16"),
    ("tel_8_6_2_cap2", "simp"): ("e9d476a19f52674311d6d437e607d3bb36751b0b69f71f371bbb99542f5a4296",
        "64be1e1d710bf61f6253fdd49979da87d4cedd373d0168225e5b4a926d41ab10"),
    ("tel_8_6_2_cap2", "st"): ("4031b8a28cbe382d39d239d9d07ebbdc0f1c596019cc4f1eb044b09c2852b318",
        "dcb3a7078fb64562ae0917ee956ac6d6cb0fe132dfd0f74086bb90da367b1a0a"),
    ("tel_12_8_3_cap3", "full"): ("77fe31aca34f4ff4351c3192c9be980feb7f1bd38ef6ad4e56996cdecb2a5e68",
        "38c3ee5ef2cf9ae91f6bb74de414c573cab5d6e2838a42d1556a9dffe5331198"),
    ("tel_12_8_3_cap3", "simp"): ("a80058280df15884e3888b88f80bbf3d7badfa3093b8937d5605890901f80f93",
        "704ff006d532d6952dd5a6dde8f9f39dd859beba27e39007b31cdf53307917da"),
    ("tel_12_8_3_cap3", "st"): ("a18f414b161248327efba28810954e03846e987bbd788533742c394bd1b91c6c",
        "ce3c0b1e10b80ac3f437db8ed4bcb877a87885b62c28c7cb40b2eaee9db67246"),
    ("edgeless_tel_4_5_2", "full"): ("65401142e13447091963851dff21d854fcd7d00c5195ca6f84a65cae305ced19",
        "9bfb3730960742f3d9d5335c78df6667bd80e89ccd904f39ef7be923a247bd11"),
    ("edgeless_tel_4_5_2", "simp"): ("6667b6dc620a8be3388e261219e7f52c62b42543540fad9e83e14dcb476b32c0",
        "1ef8852d4c79fe94f5adf07e0410861ad74684c11bb082527d58e7a4061883a0"),
    ("edgeless_tel_4_5_2", "st"): ("0af9f957abbd521199cfb73a04f46dc47b2406e23c13d8421c19e59b33d54faa",
        "6cc85d3591f660426d25177bb2b30e7efff324cc67d57e2b6ef5dd2b07c4cd84"),
}

PINNED_BUILDERS = {"full": lpm.build_full_lp, "simp": lpm.build_simplified_lp,
                   "st": lpm.build_st_lp}


class TestPinnedModels:
    @pytest.mark.parametrize("key", sorted(PINNED_EXPORTS), ids="/".join)
    def test_export_digest(self, key):
        name, kind = key
        mdl = PINNED_BUILDERS[kind](PINNED_INSTANCES[name]())
        digests = tuple(hashlib.sha256(lpm.export_model(mdl, integrality=flag).encode()).hexdigest()
                        for flag in (False, True))
        assert digests == PINNED_EXPORTS[key]
