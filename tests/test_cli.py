import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import mldeg
import mldeg.cli
import mldeg.invariants

from mldeg import BiPoly, Matroid, QMatrix, char_poly, compute_invariants, rmld, uniform_rmld
from mldeg.cli import (
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    MAX_EXPLICIT_BASES,
    MAX_RANDOM_MINORS,
    _every_r_independent,
    _verify_checks,
    main,
    random_uniform_matrix,
)

from mldeg.matroids import matroid_from_json_dict

from conftest import _explicit_copy, corpus, family_matroid


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh(M):
    """A copy of M with nothing computed, so no cached chi hides a patch."""
    return Matroid.from_subspace(M.subspace) if M.is_realized else _explicit_copy(M)


GENERIC_2X3 = {"rows": 2, "cols": 3,
               "entries": [["1", "0", "1"], ["0", "1", "1"]]}
LOOPY = {"rows": 2, "cols": 3,
         "entries": [["1", "0", "0"], ["0", "1", "0"]]}
U34_BASES = {"n": 4, "bases": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]}


class TestInvariants:
    def test_generic_2x3(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", GENERIC_2X3)
        code, out, _ = run(capsys, "invariants", "--input", path)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["rmld"] == "3" and data["mld"] == "2"
        assert data["mobius"] == "2"
        assert data["loops"] == []
        assert data["charpoly"] == ["2", "-3", "1"]

    def test_zero_column_reports_loop(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", LOOPY)
        code, out, _ = run(capsys, "invariants", "--input", path)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["rmld"] == "0"
        assert data["loops"] == [3]
        assert data["poincare"] is None

    def test_explicit_bases_u34(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", U34_BASES)
        code, out, _ = run(capsys, "invariants", "--input", path)
        assert code == EXIT_OK
        assert json.loads(out)["rmld"] == "7"

    def test_table_format(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", GENERIC_2X3)
        code, out, _ = run(capsys, "invariants", "--input", path,
                           "--format", "table")
        assert code == EXIT_OK
        assert "rmld" in out and "3" in out

    def test_output_file(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", GENERIC_2X3)
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "invariants", "--input", path,
                           "--output", str(target))
        assert code == EXIT_OK and out == ""
        assert json.loads(target.read_text())["rmld"] == "3"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2,\n  broken')
        code, _, err = run(capsys, "invariants", "--input", str(path))
        assert code == EXIT_USAGE
        assert "line" in err

    def test_non_rational_entry(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json",
                          {"rows": 1, "cols": 1, "entries": [[1.25]]})
        code, _, err = run(capsys, "invariants", "--input", str(path))
        assert code == EXIT_USAGE


    def test_exponent_entry_fails_fast(self, tmp_path):
        # Read as a Fraction, "1e30000000" is an integer of about 100
        # million bits; refusing the exponent keeps the command instant.
        path = write_json(tmp_path, "m.json", {"rows": 1, "cols": 2,
                                               "entries": [["1e30000000", "1"]]})
        env = dict(os.environ, PYTHONPATH=str(Path(mldeg.__file__).resolve().parents[1]))
        start = time.perf_counter()
        run = subprocess.run([sys.executable, "-m", "mldeg.cli", "rmld", "--input", path],
                             env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert run.returncode == EXIT_USAGE, run.stderr
        assert "1e30000000" in run.stderr and run.stdout == ""
        assert elapsed < 1.0, elapsed

    def test_chi_has_one_producer(self, tmp_path, capsys, monkeypatch):
        # The report reads chi off the deletion-contraction count D, as every
        # degree does, not off its Tutte polynomial: a fault planted in tutte
        # shows in the Tutte field and nowhere else.
        route = mldeg.invariants.tutte

        def planted(M):
            return route(M) + BiPoly({(1, 0): 1})

        monkeypatch.setattr(mldeg.invariants, "tutte", planted)
        for M in corpus():
            N = fresh(M)
            report = compute_invariants(N)
            assert report.tutte == planted(M)
            assert report.charpoly == char_poly(fresh(M)) == char_poly(N)
            assert rmld(N) == rmld(fresh(M))
        for payload in (GENERIC_2X3, U34_BASES):
            path = write_json(tmp_path, "m.json", payload)
            code, out, _ = run(capsys, "invariants", "--input", path)
            data = json.loads(out)
            assert code == EXIT_OK
            assert data["tutte"] == planted(matroid_from_json_dict(payload)).to_term_list()
            assert (data["rmld"], data["mld"], data["mobius"]) == (
                ("3", "2", "2") if payload is GENERIC_2X3 else ("7", "3", "-3"))


class TestScoreCountAndRmld:
    def test_rmld_command(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", GENERIC_2X3)
        code, out, _ = run(capsys, "rmld", "--input", path)
        assert code == EXIT_OK and json.loads(out)["rmld"] == "3"

    def test_score_count(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", GENERIC_2X3)
        code, out, _ = run(capsys, "score-count", "--input", path, "--d", "3")
        data = json.loads(out)
        assert code == EXIT_OK and data["value"] == "10"

    @pytest.mark.parametrize("payload", [
        {"rows": 1, "cols": 1, "entries": 5},
        {"rows": 1, "cols": 2, "entries": [5]},
        {"n": 3, "bases": 5},
        {"n": 3, "bases": [[1, None]]},
        {"n": 3, "bases": [[1.7, 2]]},
        {"n": 3, "bases": [[True, 2]]},
        {"n": 3.7, "bases": [[1, 2], [1, 3], [2, 3]]},
        {"n": True, "bases": [[1]]},
        {"n": "3", "bases": [[1, 2], [1, 3], [2, 3]]},
        {"bases": [[1, 2]]},
        {"rows": True, "cols": 2.9, "entries": [["1", "2"]]},
        {"rows": 1, "cols": 2.0, "entries": [["1", "2"]]},
        {"rows": "1", "cols": "2", "entries": [["1", "2"]]},
        {"matrix": {"rows": 1, "cols": False, "entries": [[]]}},
        {"n": 4, "bases": [[1, 2], [3, 4]]},
        {"n": 3, "bases": [[1, 2], [1, 2], [2, 3]]},
    ])
    def test_malformed_json_is_a_usage_error(self, tmp_path, capsys, payload):
        path = write_json(tmp_path, "m.json", payload)
        code, out, err = run(capsys, "rmld", "--input", path)
        assert code == EXIT_USAGE
        assert "error: bad input" in err and out == ""

    @pytest.mark.parametrize("bases, named", [
        ([[1, 1], [2, 2]], "basis [1, 1] repeats element 1"),
        ([[1, 2], [1, 3], [2, 2, 3]], "basis [2, 2, 3] repeats element 2"),
    ])
    def test_basis_repeating_an_element_is_a_usage_error(self, tmp_path, capsys,
                                                         bases, named):
        path = write_json(tmp_path, "m.json", {"n": 3, "bases": bases})
        code, out, err = run(capsys, "rmld", "--input", path)
        assert code == EXIT_USAGE and out == ""
        assert "error: bad input" in err and named in err

    def test_bases_and_matrix_together_are_a_usage_error(self, tmp_path, capsys):
        # Either form alone is valid; the matrix used to win silently.
        path = write_json(tmp_path, "m.json", {
            "n": 2, "bases": [[1, 2]],
            "matrix": {"rows": 1, "cols": 1, "entries": [["1"]]}})
        code, out, err = run(capsys, "rmld", "--input", path)
        assert code == EXIT_USAGE and out == ""
        assert "error: bad input" in err and "'matrix' and 'bases'" in err

    def test_explicit_k7_is_refused_at_once(self, tmp_path, capsys):
        # check_bases is quadratic in the number of bases: the 3,003 of
        # U(6,14) take seconds, the 16,807 spanning trees of K7 minutes.
        K7 = family_matroid("K", 7)
        trees = [sorted(b) for b in K7.bases()]
        assert comb(14, 6) <= MAX_EXPLICIT_BASES < len(trees) == 16807
        path = write_json(tmp_path, "k7.json", {"n": K7.n, "bases": trees})
        start = time.perf_counter()
        code, out, err = run(capsys, "rmld", "--input", path)
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_CAPACITY and out == ""
        assert "capacity error" in err and "16807 bases" in err
        assert str(MAX_EXPLICIT_BASES) in err

    def test_cap_is_on_the_number_of_bases(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path, "m.json", U34_BASES)
        monkeypatch.setattr(mldeg.cli, "MAX_EXPLICIT_BASES", 4)
        code, out, _ = run(capsys, "rmld", "--input", path)
        assert code == EXIT_OK and json.loads(out)["rmld"] == "7"

        def refuse(M):
            raise AssertionError("check_bases ran on an over-cap input")

        monkeypatch.setattr(mldeg.cli, "MAX_EXPLICIT_BASES", 3)
        monkeypatch.setattr(mldeg.cli, "check_bases", refuse)
        code, out, err = run(capsys, "rmld", "--input", path)
        assert code == EXIT_CAPACITY and out == ""
        assert "4 bases" in err and "cap of 3" in err


class TestVerify:
    def test_all_pass_on_u23(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", GENERIC_2X3)
        code, out, _ = run(capsys, "verify", "--input", path,
                           "--d", "0", "--d", "1", "--d", "2", "--d", "3")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["all_passed"] is True
        names = {c["name"] for c in data["checks"]}
        assert {"rmld-oddness", "method-agreement", "stratification",
                "specialization-d0"} <= names
        assert all(c["status"] != "fail" for c in data["checks"])

    def test_loops_skip_stratification(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", LOOPY)
        code, out, _ = run(capsys, "verify", "--input", path, "--d", "2")
        assert code == EXIT_OK
        data = json.loads(out)
        strat = [c for c in data["checks"] if c["name"] == "stratification"]
        assert strat and all(c["status"] == "skip" for c in strat)
        loopchecks = [c for c in data["checks"] if c["name"] == "loop-convention"]
        assert loopchecks and all(c["status"] == "pass" for c in loopchecks)

    def test_explicit_input_skips_solver(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", U34_BASES)
        code, out, _ = run(capsys, "verify", "--input", path, "--d", "2")
        assert code == EXIT_OK
        data = json.loads(out)
        solver = [c for c in data["checks"] if c["name"] == "solver"]
        assert solver and all(c["status"] == "skip" for c in solver)
        assert "realization" in solver[0]["detail"]

    def test_rank_zero_realization_skips_solver(self, tmp_path, capsys):
        # The score system needs a subspace of dimension at least 1.
        path = write_json(tmp_path, "m.json",
                          {"rows": 1, "cols": 2, "entries": [["0", "0"]]})
        code, out, _ = run(capsys, "verify", "--input", path)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["rank"] == 0 and data["all_passed"] is True
        solver = [c for c in data["checks"] if c["name"] == "solver"]
        assert [c["d"] for c in solver] == [1, 2, 3]
        assert all(c["status"] == "skip" for c in solver)
        assert solver[0]["detail"] == "subspace has dimension 0; every degree is 0"

    @staticmethod
    def statuses_under(patch, inputs, ds, names=("method-agreement",)):
        """The statuses of the checks `names` on every input, copied fresh,
        with the solver refused by its caps."""
        patch.setattr(mldeg.cli.OracleCaps, "from_env",
                      classmethod(lambda cls: cls(max_n=0)))
        return [[c["status"] for c in _verify_checks(fresh(M), ds, 0) if c["name"] in names]
                for M in inputs]

    @staticmethod
    def plant_in_d(patch, fault):
        """Routes every _dc_coeffs binding through `fault`."""
        route = mldeg.invariants._dc_coeffs
        for module in [m for name, m in sys.modules.items() if name.startswith("mldeg")]:
            if getattr(module, "_dc_coeffs", None) is route:
                patch.setattr(module, "_dc_coeffs", lambda M: fault(route(M)))

    def test_a_planted_d_fault_fails_every_input(self, monkeypatch):
        # Every degree reads chi off one deletion-contraction run, and the
        # method-agreement check compares with chi summed over the lattice of
        # flats, which shares no code with it.  A D whose constant
        # coefficient is off by one, wherever _dc_coeffs is bound, must fail
        # it on every loopless input of rank at least 1, realized or explicit.
        self.plant_in_d(monkeypatch,
                        lambda coeffs: (coeffs[0] + 1, *coeffs[1:]) if coeffs else coeffs)
        inputs = [M for M in corpus() if M.is_loopless() and M.full_rank() >= 1]
        assert len(inputs) == 111
        assert self.statuses_under(monkeypatch, inputs, [1, 2, 3]) == [["fail"] * 3] * 111

    def test_a_planted_d_zero_fault_fails_every_input(self, monkeypatch):
        # At d = 0 both checks compare |chi(0)| read off D with |mu| summed
        # over the lattice of flats.  A D whose top coefficient, (-1)^r chi(0),
        # is off by one must fail both on every loopless input of rank at
        # least 1.
        self.plant_in_d(monkeypatch,
                        lambda coeffs: (*coeffs[:-1], coeffs[-1] + 1) if coeffs else coeffs)
        inputs = [M for M in corpus() if M.is_loopless() and M.full_rank() >= 1]
        assert len(inputs) == 111
        names = ("specialization-d0", "stratification")
        assert (self.statuses_under(monkeypatch, inputs, [0], names)
                == [["fail", "fail"]] * 111)

    def test_a_planted_rank_two_fault_fails_every_input(self, monkeypatch):
        # D reads a loopless rank-2 minor with p points off as
        # 1 - p d + (p - 1) d^2.  Counting one point too many adds d (d - 1)
        # to it, and every loopless input of rank at least 2 is or reaches
        # such a minor, so the count goes up at d = 2 and 3 and stays at d = 1.
        for kind in (mldeg.invariants._Rows, mldeg.invariants._Masks):
            monkeypatch.setattr(kind, "points",
                                lambda minor, points=kind.points: points(minor) + 1)
        inputs = [M for M in corpus() if M.is_loopless() and M.full_rank() >= 2]
        assert len(inputs) == 85 and sum(not M.is_realized for M in inputs) == 7
        assert (self.statuses_under(monkeypatch, inputs, [1, 2, 3])
                == [["pass", "fail", "fail"]] * 85)

    def test_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import mldeg.cli as cli_module
        monkeypatch.setattr(cli_module, "rmld", lambda M: 4)  # even and wrong
        path = write_json(tmp_path, "m.json", GENERIC_2X3)
        code, out, _ = run(capsys, "verify", "--input", path, "--d", "0")
        assert code == EXIT_VERIFY_FAILED
        assert json.loads(out)["all_passed"] is False


class TestOracle:
    def test_generic_2x3(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", GENERIC_2X3)
        code, out, _ = run(capsys, "oracle", "--input", path,
                           "--d", "2", "--seed", "7")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["count"] == "3" and data["predicted"] == "3"
        assert data["matches"] is True

    def test_capacity_refusal(self, tmp_path, capsys):
        big = {"rows": 4, "cols": 6, "entries": [
            [str((i * 7 + j * 3) % 5 + 1) for j in range(6)] for i in range(4)
        ]}
        path = write_json(tmp_path, "m.json", big)
        code, _, err = run(capsys, "oracle", "--input", path,
                           "--d", "2", "--seed", "1")
        assert code == EXIT_CAPACITY
        assert "cap" in err

    def test_explicit_input_refused(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", U34_BASES)
        code, _, err = run(capsys, "oracle", "--input", path,
                           "--d", "2", "--seed", "1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("raw", ["abc", "", "0", "-1"])
    def test_bad_size_cap_is_a_usage_error(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("MLDEG_MAX_N", raw)
        path = write_json(tmp_path, "m.json", GENERIC_2X3)
        for argv in (["oracle", "--input", path, "--d", "2", "--seed", "7"],
                     ["verify", "--input", path, "--d", "2"]):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_USAGE
            assert "MLDEG_MAX_N" in err and out == ""


class TestUniform:
    def test_r3_n6(self, capsys):
        code, out, _ = run(capsys, "uniform", "--n", "6", "--r", "3")
        assert code == EXIT_OK
        assert json.loads(out)["rmld"] == str(2 * 36 - 8 * 6 + 7)

    def test_r4_n5(self, capsys):
        code, out, _ = run(capsys, "uniform", "--n", "5", "--r", "4")
        assert code == EXIT_OK and json.loads(out)["rmld"] == "15"

    def test_with_d(self, capsys):
        code, out, _ = run(capsys, "uniform", "--n", "3", "--r", "2", "--d", "3")
        data = json.loads(out)
        assert code == EXIT_OK and data["value"] == "10"

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "uniform", "--n", "2", "--r", "3")
        assert code == EXIT_USAGE


class TestRandom:
    def test_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run(capsys, "random", "--n", "5", "--r", "2",
                             "--seed", "5", "--output", str(target))
            assert code == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_rank_one_all_nonzero(self, capsys):
        code, out, _ = run(capsys, "random", "--n", "4", "--r", "1",
                           "--seed", "2")
        data = json.loads(out)
        assert code == EXIT_OK
        assert all(entry != "0" for entry in data["entries"][0])

    def test_too_many_minors_is_a_capacity_error(self, capsys):
        # C(40, 20) minors would take months to check; the refusal is at once.
        assert comb(20, 10) <= MAX_RANDOM_MINORS < comb(40, 20)
        start = time.perf_counter()
        code, out, err = run(capsys, "random", "--n", "40", "--r", "20", "--seed", "0")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CAPACITY and out == ""
        assert "capacity error" in err and str(comb(40, 20)) in err

    def test_cap_is_on_the_number_of_minors(self, capsys, monkeypatch):
        monkeypatch.setattr(mldeg.cli, "MAX_RANDOM_MINORS", comb(6, 3))
        assert run(capsys, "random", "--n", "6", "--r", "3", "--seed", "1")[0] == EXIT_OK
        assert run(capsys, "random", "--n", "7", "--r", "3", "--seed", "1")[0] == EXIT_CAPACITY
        assert run(capsys, "random", "--n", "7", "--r", "6", "--seed", "1")[0] == EXIT_OK

    @given(st.integers(1, 4), st.integers(0, 4), st.sampled_from([2, 20, 20]),
           st.sampled_from([0, 0, 1, 2]), st.randoms(use_true_random=False))
    def test_walk_matches_the_all_subsets_rank_check(self, r, extra, bound, planted, rng):
        # Entries up to 2 make chance dependencies common, entries up to 20
        # rare; on top of them a zero column, or a column that combines at
        # most r - 1 others, makes a dependent set that some r-set contains.
        n = r + extra
        columns = [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(n)]
        for _ in range(planted):
            j = rng.randrange(n)
            others = rng.sample([i for i in range(n) if i != j], rng.randint(0, min(r, n) - 1))
            scales = [rng.choice([1, -1, 2, -3]) for _ in others]
            columns[j] = [sum(a * columns[i][k] for a, i in zip(scales, others))
                          for k in range(r)]
        M = Matroid.from_matrix(QMatrix.from_rows([list(row) for row in zip(*columns)],
                                                  cols=n))
        expected = all(M.rank(S) == r for S in combinations(M.ground, r))
        assert _every_r_independent(columns, r) == expected

    def test_shapes_with_no_r_set_to_check(self):
        assert _every_r_independent([], 0) and _every_r_independent([(0, 0)], 3)
        assert random_uniform_matrix(3, 0, 1) == QMatrix.from_rows([], cols=3)

    def test_round_trip_matches_uniform_rmld(self, tmp_path, capsys):
        rng = random.Random(123)
        for k in range(50):
            n = rng.randint(2, 10)
            r = rng.randint(1, min(n, 4))
            seed = rng.randint(0, 10 ** 6)
            path = tmp_path / f"m{k}.json"
            code, _, _ = run(capsys, "random", "--n", str(n), "--r", str(r),
                             "--seed", str(seed), "--output", str(path))
            assert code == EXIT_OK
            code, out, _ = run(capsys, "invariants", "--input", str(path))
            assert code == EXIT_OK
            assert json.loads(out)["rmld"] == str(uniform_rmld(n, r))


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["nonsense"]) == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert main(["score-count", "--input", "x.json"]) == EXIT_USAGE

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "invariants", "--input", "/nonexistent.json")
        assert code == EXIT_USAGE


class TestColdStart:
    """Each case runs in a fresh interpreter: which modules a command loads
    decides how fast the CLI starts."""

    HEAVY = ("mldeg.solver", "dataclasses", "inspect")

    @classmethod
    def loaded_after(cls, code: str, *argv: str) -> list[str]:
        """The HEAVY modules loaded once `code` has run with sys.argv[1:] = argv."""
        env = {k: v for k, v in os.environ.items() if k != "MLDEG_MAX_N"}
        env["PYTHONPATH"] = str(Path(mldeg.__file__).resolve().parents[1])
        probe = (f"{code}\nimport json, sys\n"
                 f"print(json.dumps([m for m in {cls.HEAVY!r} if m in sys.modules]))")
        run = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        return json.loads(run.stdout.splitlines()[-1])

    @classmethod
    def loaded_by_cli(cls, *argv: str) -> list[str]:
        code = ("import sys, mldeg.cli\n"
                "assert mldeg.cli.main(sys.argv[1:]) == 0")
        return cls.loaded_after(code, *argv)

    def test_import_loads_no_heavy_module(self):
        assert self.loaded_after("import mldeg.cli") == []
        assert self.loaded_after("import mldeg") == []

    @pytest.mark.parametrize("argv", [
        ["rmld"], ["score-count", "--d", "3"], ["invariants"], ["verify"],
    ])
    def test_commands_that_solve_nothing_skip_the_solver(self, tmp_path, argv):
        # n = 6 is over the default cap n <= 5, so verify skips every solve.
        path = write_json(tmp_path, "m.json",
                          random_uniform_matrix(6, 3, 0).to_json_dict())
        assert self.loaded_by_cli(*argv, "--input", path) == []

    @pytest.mark.parametrize("argv", [["oracle", "--d", "2"], ["verify", "--d", "2"]])
    def test_solving_commands_load_the_solver(self, tmp_path, argv):
        path = write_json(tmp_path, "m.json", GENERIC_2X3)
        assert "mldeg.solver" in self.loaded_by_cli(*argv, "--input", path)
