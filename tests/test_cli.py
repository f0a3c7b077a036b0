"""Command-line harness tests (driven through cli.main for exit codes)."""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import codisplay as cd
from codisplay import cli, core

from conftest import (EXPECTED_UNIT, INTEGER_FIELD_CASES, REPLAY_SEQ, instance_dict_with,
                      make_example, make_frac)


@pytest.fixture()
def fixture_files(tmp_path):
    inst_path = tmp_path / "inst.json"
    frac_path = tmp_path / "frac.json"
    seq_path = tmp_path / "seq.json"
    core.dump_json(core.instance_to_dict(make_example()), inst_path)
    core.dump_json({"x": make_frac().x.tolist()}, frac_path)
    core.dump_json([{"c": c, "s": s, "alpha": a} for c, s, a in REPLAY_SEQ], seq_path)
    return {"inst": str(inst_path), "frac": str(frac_path),
            "seq": str(seq_path), "dir": tmp_path}


def run(argv):
    return cli.main(argv)


class TestGen:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "lemma.json"
        assert run(["gen", "--kind", "lemma1", "--n", "3", "--m", "4", "--k", "2",
                    "--tau", "1", "--out", str(out)]) == 0
        inst = core.instance_from_dict(core.load_json(out))
        assert inst.n == 3 and inst.m == 4 and inst.num_edges == 3

    def test_seeded_gen_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["gen", "--kind", "random", "--n", "4", "--m", "5", "--k", "2",
                        "--seed", "7", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gap_g_forces_item_count(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gen", "--kind", "gap-g", "--n", "3", "--k", "2",
                    "--out", str(out)]) == 0
        assert core.load_json(out)["m"] == 6

    def test_invalid_sizes_nonzero_exit(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        code = run(["gen", "--kind", "random", "--n", "2", "--m", "2", "--k", "3",
                    "--out", str(out)])
        assert code != 0
        assert "error" in capsys.readouterr().err


class TestSolve:
    def test_oracle_summary_value(self, fixture_files, capsys):
        assert run(["solve", "--algo", "oracle", "--in", fixture_files["inst"]]) == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert float(fields[3]) == pytest.approx(EXPECTED_UNIT["oracle"], abs=1e-9)

    def test_avgd_with_fixture_frac(self, fixture_files, capsys):
        sol = fixture_files["dir"] / "sol.json"
        assert run(["solve", "--algo", "avgd", "--r", "0.25",
                    "--in", fixture_files["inst"], "--frac", fixture_files["frac"],
                    "--out", str(sol)]) == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert float(fields[3]) == pytest.approx(EXPECTED_UNIT["avgd"], abs=1e-9)
        data = core.load_json(sol)
        assert data["feasible"] is True

    def test_per_baseline(self, fixture_files, capsys):
        assert run(["solve", "--algo", "per", "--in", fixture_files["inst"]]) == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert float(fields[3]) == pytest.approx(EXPECTED_UNIT["per"], abs=1e-9)

    def test_avg_repeats_never_worse(self, fixture_files, capsys):
        vals = []
        for extra in ([], ["--repeats", "6"]):
            assert run(["solve", "--algo", "avg", "--seed", "3",
                        "--in", fixture_files["inst"], "--frac", fixture_files["frac"]]
                       + extra) == 0
            vals.append(float(capsys.readouterr().out.strip().split(",")[3]))
        assert vals[1] >= vals[0] - 1e-12

    def test_indep_solution_may_be_infeasible(self, fixture_files):
        sol = fixture_files["dir"] / "indep.json"
        assert run(["solve", "--algo", "indep", "--seed", "1",
                    "--in", fixture_files["inst"], "--frac", fixture_files["frac"],
                    "--out", str(sol)]) == 0
        data = core.load_json(sol)
        assert "feasible" in data and "violations" in data

    def test_missing_algo_input_errors(self, fixture_files, capsys, monkeypatch):
        solved = []
        monkeypatch.setattr(cd.lp, "solve_lp", lambda model, *a, **kw: solved.append(model))
        out = str(fixture_files["dir"] / "f.json")
        for argv in (["solve", "--algo", "avg-st"], ["solve", "--algo", "avgd-st"],
                     ["frac", "--model", "st", "--out", out]):
            # the fixture has no teleportation parameters
            code = run(argv + ["--in", fixture_files["inst"]])
            err = capsys.readouterr().err
            assert code == 1, argv
            assert err == "error: instance has no teleportation parameters\n", argv
        assert solved == []

    def test_runtime_excludes_the_relaxation(self, fixture_files, monkeypatch):
        real = cd.lp.solve_fractional

        def slow(inst):
            time.sleep(0.2)
            return real(inst)

        monkeypatch.setattr(cd.lp, "solve_fractional", slow)
        sol = fixture_files["dir"] / "sol.json"
        t0 = time.perf_counter()
        assert run(["solve", "--algo", "avgd", "--in", fixture_files["inst"],
                    "--out", str(sol)]) == 0
        wall_ms = (time.perf_counter() - t0) * 1000.0
        # the wall holds the 200 ms solve and the rounding; runtime_ms only the latter
        assert core.load_json(sol)["runtime_ms"] <= wall_ms - 200.0


class TestReplay:
    @pytest.mark.parametrize("c,s", [(99, 0), (0, 7), (-1, 0), (0, -1)])
    def test_focal_outside_the_instance(self, fixture_files, tmp_path, capsys, c, s):
        # beyond the instance used to end in an IndexError traceback, and c = -1
        # (the empty-cell marker) in exit 0 with -1 written as an item
        seq = tmp_path / "seq.json"
        core.dump_json([{"c": c, "s": s, "alpha": 0.5}] + core.load_json(fixture_files["seq"]),
                       seq)
        out = tmp_path / "x.json"
        code = run(["replay", "--in", fixture_files["inst"], "--frac", fixture_files["frac"],
                    "--seq", str(seq), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"({c}, {s}) outside" in err and not out.exists()

    def test_paper_sequence(self, fixture_files, capsys):
        sol = fixture_files["dir"] / "replay.json"
        assert run(["replay", "--in", fixture_files["inst"],
                    "--frac", fixture_files["frac"], "--seq", fixture_files["seq"],
                    "--out", str(sol)]) == 0
        data = core.load_json(sol)
        assert data["objective_unit_sum"] == pytest.approx(EXPECTED_UNIT["avg_replay"])

    def test_truncated_sequence_errors_with_cells(self, fixture_files, tmp_path, capsys):
        short = tmp_path / "short.json"
        core.dump_json(
            [{"c": c, "s": s, "alpha": a} for c, s, a in REPLAY_SEQ[:2]], short)
        code = run(["replay", "--in", fixture_files["inst"],
                    "--frac", fixture_files["frac"], "--seq", str(short),
                    "--out", str(tmp_path / "x.json")])
        assert code != 0
        err = capsys.readouterr().err
        assert "(0, 0)" in err

    def test_empty_sequence_names_all_cells(self, fixture_files, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        core.dump_json([], empty)
        code = run(["replay", "--in", fixture_files["inst"],
                    "--frac", fixture_files["frac"], "--seq", str(empty),
                    "--out", str(tmp_path / "x.json")])
        assert code != 0
        err = capsys.readouterr().err
        assert all(f"({u}, {s})" in err for u in range(4) for s in range(3))


class TestEval:
    def test_feasible_solution_metrics(self, fixture_files, capsys):
        sol = fixture_files["dir"] / "sol.json"
        assert run(["solve", "--algo", "group", "--in", fixture_files["inst"],
                    "--out", str(sol)]) == 0
        capsys.readouterr()
        assert run(["eval", "--in", fixture_files["inst"], "--sol", str(sol)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is True
        assert report["intra_pct"] == pytest.approx(100.0)

    def test_infeasible_solution_reported_not_fatal(self, fixture_files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        core.dump_json({"assign": [[0, 0, 1]] + [[0, 1, 2]] * 3}, bad)
        assert run(["eval", "--in", fixture_files["inst"], "--sol", str(bad)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is False
        assert report["violations"] == 1


    def test_teleport_eval_agrees_with_solve(self, tmp_path, capsys):
        # eval scores a teleportation instance with the discounted off-slot
        # terms, exactly as solve does
        inst, sol = tmp_path / "tele.json", tmp_path / "sol.json"
        assert run(["gen", "--kind", "random", "--n", "6", "--m", "5", "--k", "2",
                    "--edge-prob", "0.6", "--seed", "3", "--d-tel", "0.5", "--cap", "3",
                    "--out", str(inst)]) == 0
        assert run(["solve", "--algo", "per", "--in", str(inst), "--out", str(sol)]) == 0
        capsys.readouterr()
        assert run(["eval", "--in", str(inst), "--sol", str(sol)]) == 0
        report = json.loads(capsys.readouterr().out)
        solved = core.load_json(sol)
        assert solved["objective_canonical"] == pytest.approx(6.9016634, abs=1e-7)
        assert report["objective_canonical"] == solved["objective_canonical"]
        assert report["objective_unit_sum"] == solved["objective_unit_sum"]
        assert report["personal_pct"] + report["social_pct"] == pytest.approx(100.0)


class TestCompare:
    def test_fixture_table(self, fixture_files, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert run(["compare", "--in", fixture_files["inst"],
                    "--algos", "avgd,per,group,sub-friend,sub-pref",
                    "--seeds", "0", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = {row["algo"]: float(row["objective_unit_sum"]) for row in rows}
        assert got["avgd"] == pytest.approx(EXPECTED_UNIT["avgd"], abs=1e-6)
        assert got["per"] == pytest.approx(EXPECTED_UNIT["per"], abs=1e-9)
        assert got["group"] == pytest.approx(EXPECTED_UNIT["group"], abs=1e-9)
        assert got["sub-friend"] == pytest.approx(EXPECTED_UNIT["sub_friend"], abs=1e-9)
        assert got["sub-pref"] == pytest.approx(EXPECTED_UNIT["sub_pref"], abs=1e-9)
        assert all(float(row["lp_bound_unit_sum"]) >= float(row["objective_unit_sum"]) - 1e-6
                   for row in rows)

    def test_group_row_fully_intra(self, fixture_files, tmp_path):
        out = tmp_path / "g.csv"
        assert run(["compare", "--in", fixture_files["inst"], "--algos", "group",
                    "--seeds", "0", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["intra_pct"]) == pytest.approx(100.0)
        assert float(row["normalized_density"]) == pytest.approx(1.0)

    def test_seed_range_syntax(self, fixture_files, tmp_path):
        out = tmp_path / "r.csv"
        assert run(["compare", "--in", fixture_files["inst"], "--algos", "per",
                    "--seeds", "0..2", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["seed"]) for r in rows] == [0, 1, 2]

    def test_parallel_jobs_match_sequential(self, fixture_files, tmp_path):
        seq_out = tmp_path / "seq.csv"
        par_out = tmp_path / "par.csv"
        argv = ["compare", "--in", fixture_files["inst"], "--algos", "per,group,avg,avgd",
                "--seeds", "0,1"]
        assert run(argv + ["--out", str(seq_out)]) == 0
        assert run(argv + ["--jobs", "2", "--out", str(par_out)]) == 0

        def drop_runtime(path):
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rows]

        assert drop_runtime(seq_out) == drop_runtime(par_out)

    def test_cells_receive_the_instance(self, fixture_files, tmp_path, monkeypatch):
        parsed = []
        real = core.instance_from_dict
        monkeypatch.setattr(core, "instance_from_dict",
                            lambda d: parsed.append(1) or real(d))
        assert run(["compare", "--in", fixture_files["inst"], "--algos", "per,group,avgd",
                    "--seeds", "0,1", "--out", str(tmp_path / "c.csv")]) == 0
        assert len(parsed) == 1  # the instance file only, no round trip per cell

    def test_feasible_cell_scored_once(self, fixture_files, tmp_path, monkeypatch):
        calls = []
        real = core.objective_parts
        monkeypatch.setattr(core, "objective_parts",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        assert run(["compare", "--in", fixture_files["inst"], "--algos", "per,group,avgd",
                    "--seeds", "0,1", "--out", str(tmp_path / "c.csv")]) == 0
        assert len(calls) == 3  # one per distinct cell, all feasible; each is seed-free

    def test_seed_free_cell_runs_once_per_table(self, fixture_files, tmp_path, monkeypatch):
        runs = []
        real = cli._run_algo
        monkeypatch.setattr(cli, "_run_algo",
                            lambda inst, algo, *a, **kw: runs.append(algo)
                            or real(inst, algo, *a, **kw))
        out = tmp_path / "c.csv"
        algos = ["avg", "avgd", "indep", "per", "group", "sub-friend", "sub-pref"]
        assert run(["compare", "--in", fixture_files["inst"], "--algos", ",".join(algos),
                    "--seeds", "0..2", "--out", str(out)]) == 0
        assert sorted(runs) == sorted(a for a in algos for _ in (
            range(1) if a in cli.SEED_FREE else range(3)))
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["algo"], r["seed"]) for r in rows] == [
            (a, str(s)) for a in algos for s in range(3)]
        for algo in cli.SEED_FREE & set(algos):
            same = [{k: v for k, v in r.items() if k != "seed"}
                    for r in rows if r["algo"] == algo]
            assert same == same[:1] * 3  # runtime_ms too: the single run's

    @staticmethod
    def lambda_zero_file(tmp_path):
        d = core.instance_to_dict(cd.gen_random(8, 6, 2, edge_prob=0.4, seed=11))
        d["lambda"] = 0.0
        path = tmp_path / "lam0.json"
        core.dump_json(d, path)
        return str(path)

    def test_lambda_zero_baselines_without_bound(self, tmp_path, capsys):
        inst = self.lambda_zero_file(tmp_path)
        assert run(["solve", "--algo", "per", "--in", inst]) == 0
        per_unit = capsys.readouterr().out.strip().split(",")[3]
        out = tmp_path / "c.csv"
        assert run(["compare", "--in", inst, "--algos", "per,group",
                    "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["algo"] for r in rows] == ["per", "group"]
        assert rows[0]["objective_unit_sum"] == per_unit
        assert all(r["lp_bound_unit_sum"] == r["lp_bound_canonical"] == "" for r in rows)

    def test_lambda_zero_lp_algo_fails_as_solve(self, tmp_path, capsys, monkeypatch):
        inst = self.lambda_zero_file(tmp_path)
        assert run(["solve", "--algo", "avg", "--in", inst]) == 1
        solve_err = capsys.readouterr().err
        runs = []
        monkeypatch.setattr(cli, "_compare_cell", lambda cell: runs.append(cell))
        assert run(["compare", "--in", inst, "--algos", "per,avg"]) == 1
        captured = capsys.readouterr()
        assert captured.err == solve_err and "preference-only" in solve_err
        assert captured.out == "" and runs == []  # fails before any cell runs

    def test_each_relaxation_solved_once(self, fixture_files, tmp_path, monkeypatch):
        tele = tmp_path / "tele.json"
        core.dump_json(core.instance_to_dict(
            cd.gen_random(4, 5, 2, edge_prob=0.7, seed=3, d_tel=0.5, m_cap=2)), tele)
        built = {}  # id of each model built -> its builder's kind and arguments

        def record(kind):
            real_build = getattr(cd.lp, f"build_{kind}_lp")

            def build(inst, *args, **kwargs):
                model = real_build(inst, *args, **kwargs)
                built[id(model)] = (kind, *args, *kwargs.values())
                return model
            monkeypatch.setattr(cd.lp, f"build_{kind}_lp", build)

        record("simplified")
        record("st")
        calls = []
        real = cd.lp.solve_lp
        monkeypatch.setattr(cd.lp, "solve_lp",
                            lambda model, *a, **kw: calls.append(built[id(model)])
                            or real(model, *a, **kw))
        assert run(["compare", "--in", fixture_files["inst"], "--algos", "avg,avgd,indep,per",
                    "--seeds", "0..2", "--out", str(tmp_path / "p.csv")]) == 0
        assert calls == [("simplified", None)]  # no size cap
        calls.clear()
        assert run(["compare", "--in", str(tele), "--algos", "avg-st,avgd-st,avg,per",
                    "--seeds", "0,1", "--out", str(tmp_path / "t.csv")]) == 0
        # the plain relaxation, then the same compact model under the size cap M = 2
        assert calls == [("simplified", None), ("simplified", 2)]
        assert all(kind == "simplified" for kind, *_ in built.values())  # no build_st_lp


class TestBadInput:
    """Malformed files end in exit 1 and a single ``error:`` line."""

    @staticmethod
    def assert_clean_error(code, capsys):
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_missing_instance_keys(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        core.dump_json({"n": 2}, bad)
        self.assert_clean_error(run(["solve", "--algo", "per", "--in", str(bad)]), capsys)

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        self.assert_clean_error(run(["compare", "--in", str(bad), "--algos", "per"]), capsys)

    def test_non_finite_utility(self, tmp_path, capsys):
        d = core.instance_to_dict(make_example())
        d["pref"][0][0] = float("nan")
        bad = tmp_path / "nan.json"
        core.dump_json(d, bad)  # json writes NaN and reads it back
        self.assert_clean_error(run(["frac", "--in", str(bad), "--out",
                                     str(tmp_path / "f.json")]), capsys)

    def test_frac_without_x(self, fixture_files, tmp_path, capsys):
        bad = tmp_path / "frac.json"
        core.dump_json({"y": make_frac().x.tolist()}, bad)
        self.assert_clean_error(run(["solve", "--algo", "avgd", "--in", fixture_files["inst"],
                                     "--frac", str(bad)]), capsys)

    def test_solution_without_assign(self, fixture_files, tmp_path, capsys):
        bad = tmp_path / "sol.json"
        core.dump_json({"assignment": [[0, 1, 2]] * 4}, bad)
        self.assert_clean_error(run(["eval", "--in", fixture_files["inst"],
                                     "--sol", str(bad)]), capsys)

    def test_ragged_preferences(self, tmp_path, capsys):
        d = core.instance_to_dict(make_example())
        d["pref"][1] = d["pref"][1][:-1]
        bad = tmp_path / "ragged.json"
        core.dump_json(d, bad)
        self.assert_clean_error(run(["solve", "--algo", "per", "--in", str(bad)]), capsys)

    def test_ragged_solution(self, fixture_files, tmp_path, capsys):
        bad = tmp_path / "sol.json"
        core.dump_json({"assign": [[0, 1, 2], [0, 1], [0, 1, 2], [0, 1, 2]]}, bad)
        self.assert_clean_error(run(["eval", "--in", fixture_files["inst"],
                                     "--sol", str(bad)]), capsys)

    def test_ragged_factors(self, fixture_files, tmp_path, capsys):
        x = make_frac().x.tolist()
        x[2] = x[2][:-1]
        bad = tmp_path / "frac.json"
        core.dump_json({"x": x}, bad)
        self.assert_clean_error(run(["solve", "--algo", "avgd", "--in", fixture_files["inst"],
                                     "--frac", str(bad)]), capsys)

    @pytest.mark.parametrize("r", ["inf", "nan"])
    def test_non_finite_balancing_ratio(self, fixture_files, capsys, r):
        self.assert_clean_error(run(["solve", "--algo", "avgd", "--r", r,
                                     "--in", fixture_files["inst"],
                                     "--frac", fixture_files["frac"]]), capsys)

    @pytest.mark.parametrize("item", [9, -1, 5])
    def test_solution_item_out_of_range(self, fixture_files, tmp_path, capsys, item):
        # -1 must not wrap around to the last item
        bad = tmp_path / "sol.json"
        core.dump_json({"assign": [[2, item, 0]] + [[0, 1, 2]] * 3}, bad)
        self.assert_clean_error(run(["eval", "--in", fixture_files["inst"],
                                     "--sol", str(bad)]), capsys)

    @pytest.mark.parametrize("seeds", ["x", "1..b", "0,1.5", "1..2..3"])
    def test_seeds_not_integers(self, fixture_files, capsys, seeds):
        self.assert_clean_error(run(["compare", "--in", fixture_files["inst"],
                                     "--algos", "per", "--seeds", seeds]), capsys)

    @pytest.mark.parametrize("partition", [{"a": 1}, [[0, 1], ["x", 3]], [[0, 1.7], [2, 3]],
                                           [0, 1, 2, 3]],
                             ids=["object", "string", "float", "flat"])
    def test_malformed_partition(self, fixture_files, tmp_path, capsys, partition):
        bad = tmp_path / "part.json"
        core.dump_json(partition, bad)
        self.assert_clean_error(run(["solve", "--algo", "sub-friend", "--in", fixture_files["inst"],
                                     "--partition", str(bad)]), capsys)

    def test_indep_with_mismatched_factors(self, fixture_files, tmp_path, capsys):
        bad = tmp_path / "frac.json"
        core.dump_json({"x": np.full((5, 5, 2), 0.2).tolist()}, bad)
        self.assert_clean_error(run(["solve", "--algo", "indep", "--in", fixture_files["inst"],
                                     "--frac", str(bad)]), capsys)

    @pytest.mark.parametrize("entry", [0.9, 1.0, True, "1", 2 ** 70])
    def test_solution_entry_not_integer(self, fixture_files, tmp_path, capsys, entry):
        # int64 conversion reads the first four as item 0 or 1 and overflows on the last
        bad = tmp_path / "sol.json"
        core.dump_json({"assign": [[4, entry, 2]] + [[0, 1, 2]] * 3}, bad)
        self.assert_clean_error(run(["eval", "--in", fixture_files["inst"],
                                     "--sol", str(bad)]), capsys)

    @pytest.mark.parametrize("field,value", INTEGER_FIELD_CASES)
    def test_instance_integer_field_not_integer(self, tmp_path, capsys, field, value):
        bad = tmp_path / "inst.json"
        core.dump_json(instance_dict_with(field, value), bad)
        self.assert_clean_error(run(["solve", "--algo", "per", "--in", str(bad)]), capsys)

    @pytest.mark.parametrize("key,value", [("c", False), ("s", 2.0)])  # first step: c=0, s=2
    def test_sequence_entry_not_integer(self, fixture_files, tmp_path, capsys, key, value):
        seq = [{"c": c, "s": s, "alpha": a} for c, s, a in REPLAY_SEQ]
        seq[0][key] = value
        bad = tmp_path / "seq.json"
        core.dump_json(seq, bad)
        self.assert_clean_error(run(["replay", "--in", fixture_files["inst"],
                                     "--frac", fixture_files["frac"], "--seq", str(bad),
                                     "--out", str(tmp_path / "x.json")]), capsys)

    @pytest.mark.parametrize("field,value", [
        ("lambda", "0.5"), ("lambda", True), ("pref", True), ("pref", "0.25"),
        ("tau_uv", "0.1"), ("tau_vu", False), ("d_tel", "0.5")])
    def test_instance_float_field_not_number(self, tmp_path, capsys, field, value):
        d = instance_dict_with("M", 2)
        if field == "pref":
            d["pref"][0][1] = value
        elif field == "d_tel":
            d["st"]["d_tel"] = value
        elif field == "lambda":
            d["lambda"] = value
        else:
            d["edges"][0][field][0] = value
        bad = tmp_path / "inst.json"
        core.dump_json(d, bad)
        self.assert_clean_error(run(["solve", "--algo", "per", "--in", str(bad)]), capsys)

    def test_instance_integer_in_float_field(self, tmp_path):
        d = core.instance_to_dict(make_example())
        d["pref"][0][0] = 1
        d["lambda"] = 1
        path = tmp_path / "inst.json"
        core.dump_json(d, path)
        inst = core.instance_from_dict(core.load_json(path))
        assert inst.lam == 1.0 and inst.pref[0, 0] == 1.0

    @pytest.mark.parametrize("step,value", [(0, "0.06"), (0, False)])
    def test_sequence_alpha_not_number(self, fixture_files, tmp_path, capsys, step, value):
        # "0.06" is the first step's own threshold, as a string
        seq = [{"c": c, "s": s, "alpha": a} for c, s, a in REPLAY_SEQ]
        seq[step]["alpha"] = value
        bad = tmp_path / "seq.json"
        core.dump_json(seq, bad)
        self.assert_clean_error(run(["replay", "--in", fixture_files["inst"],
                                     "--frac", fixture_files["frac"], "--seq", str(bad),
                                     "--out", str(tmp_path / "x.json")]), capsys)

    @pytest.mark.parametrize("item,value", [(0, str(1 / 3)), (2, False)])
    def test_factor_not_number(self, fixture_files, tmp_path, capsys, item, value):
        # each replaces user 0's factor at slot 0 by the same value as a string or a bool
        x = make_frac().x.tolist()
        x[0][item][0] = value
        bad = tmp_path / "frac.json"
        core.dump_json({"x": x}, bad)
        self.assert_clean_error(run(["solve", "--algo", "avgd", "--in", fixture_files["inst"],
                                     "--frac", str(bad)]), capsys)

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_repeats_below_one(self, fixture_files, capsys, repeats):
        self.assert_clean_error(run(["solve", "--algo", "avg", "--repeats", repeats,
                                     "--in", fixture_files["inst"],
                                     "--frac", fixture_files["frac"]]), capsys)

    @pytest.mark.parametrize("algo,flags,named", [
        ("per", ["--repeats", "4", "--sampler", "advanced", "--frac", "/nonexistent.json"],
         "--sampler, --repeats, --frac"),
        ("avgd", ["--sampler", "uniform"], "--sampler"),
        ("avg-st", ["--repeats", "2"], "--repeats"),
        ("avg", ["--r", "0.5"], "--r"),
        ("sub-friend", ["--frac", "x.json"], "--frac"),
        ("avgd", ["--groups", "3"], "--groups"),
        ("oracle", ["--partition", "p.json"], "--partition"),
    ])
    def test_flag_unused_by_algo(self, fixture_files, capsys, algo, flags, named):
        code = run(["solve", "--algo", algo, "--in", fixture_files["inst"]] + flags)
        err = capsys.readouterr().err
        assert err == f"error: --algo {algo} takes no {named}\n"
        assert code == 1

    def test_flags_of_the_algo_accepted(self, fixture_files, capsys):
        assert run(["solve", "--algo", "avg", "--sampler", "advanced", "--repeats", "2",
                    "--in", fixture_files["inst"], "--frac", fixture_files["frac"]]) == 0
        assert run(["solve", "--algo", "sub-pref", "--groups", "2",
                    "--in", fixture_files["inst"]]) == 0

    def test_groups_with_partition(self, fixture_files, tmp_path, capsys):
        part = tmp_path / "p.json"
        core.dump_json([[0, 1], [2, 3]], part)
        code = run(["solve", "--algo", "sub-friend", "--groups", "3", "--partition", str(part),
                    "--in", fixture_files["inst"]])
        err = capsys.readouterr().err
        assert err == "error: --algo sub-friend takes --groups or --partition, not both\n"
        assert code == 1

    @pytest.mark.parametrize("algos", ["per", "per,group,avgd"])
    def test_compare_groups_unused(self, fixture_files, capsys, algos):
        run(["solve", "--algo", "per", "--groups", "7", "--in", fixture_files["inst"]])
        solve_err = capsys.readouterr().err
        code = run(["compare", "--in", fixture_files["inst"], "--algos", algos,
                    "--groups", "7"])
        err = capsys.readouterr().err
        assert err == solve_err.replace("--algo per", f"--algos {algos}")
        assert code == 1

    def test_compare_groups_of_a_sub_algo_accepted(self, fixture_files, capsys):
        assert run(["compare", "--in", fixture_files["inst"], "--algos", "per,sub-pref",
                    "--groups", "2"]) == 0

    def test_compare_unknown_algo_before_any_solve(self, fixture_files, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(cd.lp, "solve_lp", lambda *a, **kw: solves.append(1))
        code = run(["compare", "--in", fixture_files["inst"], "--algos", "avg,x,per"])
        assert capsys.readouterr().err == "error: unknown algorithm 'x'\n"
        assert code == 1 and solves == []

    @pytest.mark.parametrize("algos", ["avg,avg-st", "avgd-st", "per,avgd-st,avgd"])
    def test_compare_st_without_tele_before_any_solve(self, fixture_files, capsys, monkeypatch,
                                                      algos):
        # the fixture has no teleportation parameters: refused as in `solve`
        # and `frac`, without solving the plain relaxation first
        solves = []
        real = cd.lp.solve_lp
        monkeypatch.setattr(cd.lp, "solve_lp",
                            lambda *a, **kw: solves.append(1) or real(*a, **kw))
        code = run(["compare", "--in", fixture_files["inst"], "--algos", algos, "--seeds", "0"])
        out, err = capsys.readouterr()
        assert err == "error: instance has no teleportation parameters\n"
        assert code == 1 and out == "" and solves == []

    @pytest.mark.parametrize("algos, seeds", [("per", "5..2"), ("per", ""), (",", "0,1"),
                                              ("", "0,1")],
                             ids=["reversed-range", "no-seeds", "comma-algos", "empty-algos"])
    def test_compare_without_rows(self, tmp_path, capsys, algos, seeds):
        # the instance file does not exist: the table is refused before it is read
        code = run(["compare", "--in", str(tmp_path / "absent.json"), "--algos", algos,
                    "--seeds", seeds, "--out", str(tmp_path / "t.csv")])
        assert capsys.readouterr().err.startswith("error: no rows to compare")
        assert code == 1 and not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--algo", "avg", "--seed", "-1"],
        ["solve", "--algo", "avg", "--repeats", "3", "--seed", "-1"],
        ["solve", "--algo", "indep", "--seed", "-1"],
        ["solve", "--algo", "sub-pref", "--seed", "-1"],
        ["compare", "--algos", "per,avg", "--seeds", "-1"],
        ["compare", "--algos", "avgd,per", "--seeds", "-1"],
        ["solve", "--algo", "avgd", "--seed", "-1"],
        ["solve", "--algo", "per", "--seed", "-1"],
    ], ids=["avg", "avg-repeats", "indep", "sub-pref", "compare", "compare-seed-free",
            "avgd", "per"])
    def test_negative_seed(self, fixture_files, capsys, argv):
        code = run(argv + ["--in", fixture_files["inst"]])
        err = capsys.readouterr().err
        assert code == 1 and err == "error: seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--edge-prob", "2"],
                                       ["--edge-prob", "-0.5"]], ids=["seed", "p-above", "p-below"])
    def test_gen_random_outside_domain(self, tmp_path, capsys, flags):
        out = tmp_path / "inst.json"
        code = run(["gen", "--kind", "random", "--n", "4", "--m", "5", "--k", "2",
                    "--out", str(out)] + flags)
        self.assert_clean_error(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one(self, fixture_files, capsys, jobs):
        self.assert_clean_error(run(["compare", "--in", fixture_files["inst"],
                                     "--algos", "per", "--jobs", jobs]), capsys)

    def test_sequence_entry_without_alpha(self, fixture_files, tmp_path, capsys):
        bad = tmp_path / "seq.json"
        core.dump_json([{"c": 0, "s": 0}], bad)
        self.assert_clean_error(run(["replay", "--in", fixture_files["inst"],
                                     "--frac", fixture_files["frac"], "--seq", str(bad),
                                     "--out", str(tmp_path / "x.json")]), capsys)


class TestExport:
    def test_simplified_model_column_count(self, fixture_files, tmp_path, capsys):
        out = tmp_path / "model.lp"
        assert run(["export", "--in", fixture_files["inst"], "--model", "simp",
                    "--integrality", "relaxed", "--out", str(out)]) == 0
        assert "vars=40" in capsys.readouterr().out
        text = out.read_text()
        assert text.startswith("Maximize") and text.rstrip().endswith("End")

    def test_binary_full_model_section(self, fixture_files, tmp_path):
        out = tmp_path / "model.lp"
        assert run(["export", "--in", fixture_files["inst"], "--model", "full",
                    "--integrality", "binary", "--out", str(out)]) == 0
        assert "Binary" in out.read_text()

    def test_st_without_params_errors(self, fixture_files, tmp_path, capsys):
        code = run(["export", "--in", fixture_files["inst"], "--model", "st",
                    "--out", str(tmp_path / "st.lp")])
        assert code != 0
        assert "error" in capsys.readouterr().err


class TestFracCommand:
    def test_writes_valid_tensor(self, fixture_files, tmp_path):
        out = tmp_path / "frac.json"
        assert run(["frac", "--in", fixture_files["inst"], "--out", str(out)]) == 0
        frac = cd.FractionalSolution(x=np.asarray(core.load_json(out)["x"]))
        frac.check()

    def test_st_model_writes_capped_compact_factors(self, tmp_path):
        inst = cd.gen_random(8, 4, 2, edge_prob=0.6, seed=5, d_tel=0.3, m_cap=2)
        path, out = tmp_path / "tele.json", tmp_path / "frac.json"
        core.dump_json(core.instance_to_dict(inst), path)
        assert run(["frac", "--model", "st", "--in", str(path), "--out", str(out)]) == 0
        x = np.asarray(core.load_json(out)["x"])
        assert np.array_equal(x, cd.solve_fractional(inst, 2)[0].x)
        assert (x == x[:, :, :1]).all()  # the same factors at every slot
        assert (x.sum(axis=0) <= 2 + 1e-9).all()

    def test_takes_no_factor_file(self, fixture_files, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frac", "--in", fixture_files["inst"], "--frac", fixture_files["frac"],
                 "--out", str(tmp_path / "frac.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --frac" in capsys.readouterr().err


class TestParserReuse:
    """In-process `main` calls share one parser and act as with a fresh one."""

    @staticmethod
    def _session(files, capsys):
        """(exit code, stdout, stderr, written file) of each call, runtime_ms blanked."""
        inst, frac = files["inst"], files["frac"]
        sol, model = files["dir"] / "sol.json", files["dir"] / "model.lp"
        calls = [
            ["solve", "--algo", "nope", "--in", inst],  # argparse usage error
            ["solve", "--algo", "avgd", "--in", inst, "--frac", frac, "--out", str(sol)],
            ["compare", "--in", inst, "--algos", "per,bogus"],  # DomainError
            ["eval", "--in", inst, "--sol", str(sol)],
            ["compare", "--in", inst, "--algos", "avgd,per,sub-pref", "--seeds", "0..2"],
            ["export", "--in", inst, "--model", "simp", "--out", str(model)],
            ["solve", "--algo", "sub-pref", "--in", inst, "--groups", "2", "--seed", "3"],
        ]
        outcomes = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            rows = [line.split(",") for line in out.splitlines()]
            if argv[0] in ("solve", "compare"):
                for row in rows[argv[0] == "compare":]:  # below the compare header
                    row[4] = "-"  # runtime_ms
            text = Path(argv[-1]).read_text() if "--out" in argv else None
            if argv[0] == "solve" and text:
                text = json.dumps({k: v for k, v in json.loads(text).items()
                                   if k != "runtime_ms"})
            outcomes.append((code, rows, err, text))
        return outcomes

    def test_shared_parser_matches_fresh_parsers(self, fixture_files, capsys, monkeypatch):
        assert cli._parser() is cli._parser()
        shared = [self._session(fixture_files, capsys) for _ in range(2)]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self._session(fixture_files, capsys)
        assert shared[0] == shared[1] == fresh
        codes = [code for code, _, _, _ in fresh]
        assert codes == [2, 0, 1, 0, 0, 0, 0]
        assert "invalid choice: 'nope'" in fresh[0][2]
        assert fresh[2][2] == "error: unknown algorithm 'bogus'\n"


def _subprocess_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(cd.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestClosedPipe:
    """A reader that exits early (``codisplay eval ... | head -1``) ends the
    command with exit 1 and no traceback."""

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_no_traceback(self, fixture_files, tmp_path, command):
        sol = str(tmp_path / "sol.json")
        assert run(["solve", "--algo", "per", "--in", fixture_files["inst"], "--out", sol]) == 0
        argv = {"eval": ["eval", "--in", fixture_files["inst"], "--sol", sol],
                "compare": ["compare", "--in", fixture_files["inst"], "--algos", "per,group",
                            "--seeds", "0..9"]}[command]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "codisplay.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=_subprocess_env(), timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr, proc.stderr


# Runs CLI commands in a fresh interpreter and reports which of them left
# scipy unloaded; argv lists arrive as JSON on stdin.
_COLD_START = """
import json, sys
from codisplay import cli
report = []
for argv in json.load(sys.stdin):
    if cli.main(argv) != 0:
        raise SystemExit(f"failed: {argv}")
    report.append([argv[0], "scipy" in sys.modules])
print(json.dumps(report))
"""


class TestLazyScipyImport:
    """scipy is imported by the first LP solve, not by commands that never solve."""

    def test_only_solving_commands_import_scipy(self, fixture_files, tmp_path):
        inst, frac = fixture_files["inst"], fixture_files["frac"]
        sol = str(tmp_path / "sol.json")
        commands = [
            ["gen", "--kind", "random", "--n", "5", "--m", "4", "--k", "2",
             "--seed", "1", "--out", str(tmp_path / "gen.json")],
            ["solve", "--algo", "per", "--in", inst, "--out", sol],
            ["solve", "--algo", "avgd", "--in", inst, "--frac", frac,
             "--out", str(tmp_path / "avgd.json")],
            ["eval", "--in", inst, "--sol", sol, "--out", str(tmp_path / "eval.json")],
            ["replay", "--in", inst, "--frac", frac, "--seq", fixture_files["seq"],
             "--out", str(tmp_path / "replay.json")],
            ["export", "--in", inst, "--out", str(tmp_path / "full.lp")],
            ["frac", "--in", inst, "--out", str(tmp_path / "frac.json")],
        ]
        proc = subprocess.run([sys.executable, "-c", _COLD_START], input=json.dumps(commands),
                              capture_output=True, text=True, env=_subprocess_env(),
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report == [["gen", False], ["solve", False], ["solve", False], ["eval", False],
                          ["replay", False], ["export", False], ["frac", True]]
