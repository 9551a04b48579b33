import gc
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given

import mldeg.invariants

from mldeg import (
    BiPoly,
    Matroid,
    QMatrix,
    UniPoly,
    char_poly,
    char_poly_flats,
    compute_invariants,
    mobius_invariant,
    poincare_poly,
    rmld,
    tutte,
    tutte_bruteforce,
    uniform_matroid,
    uniform_rmld,
    uniform_tutte,
)

from mldeg.cli import main
from mldeg.invariants import flat_terms

from conftest import (
    _explicit_copy, corpus_upto, explicit_minor_by_combinations, family_chi, family_matroid,
    k4_matroid, planted_matrices,
)


def mat(rows, cols=None):
    return QMatrix.from_rows(rows, cols=cols)


class TestTutte:
    def test_u23(self):
        assert tutte(uniform_matroid(3, 2)) == BiPoly(
            {(2, 0): 1, (1, 0): 1, (0, 1): 1}
        )

    def test_boolean(self):
        assert tutte(uniform_matroid(5, 5)) == BiPoly({(5, 0): 1})

    def test_u34(self):
        assert tutte(uniform_matroid(4, 3)) == BiPoly(
            {(3, 0): 1, (2, 0): 1, (1, 0): 1, (0, 1): 1}
        )

    def test_single_loop_and_coloop(self):
        loop = Matroid.from_matrix(mat([[0]], cols=1))
        assert tutte(loop) == BiPoly({(0, 1): 1})
        assert tutte_bruteforce(loop) == BiPoly({(0, 1): 1})
        coloop = uniform_matroid(1, 1)
        assert tutte(coloop) == BiPoly({(1, 0): 1})
        assert tutte_bruteforce(coloop) == BiPoly({(1, 0): 1})

    def test_bruteforce_u23(self):
        assert tutte_bruteforce(uniform_matroid(3, 2)) == BiPoly(
            {(2, 0): 1, (1, 0): 1, (0, 1): 1}
        )

    def test_bruteforce_size_cap(self):
        with pytest.raises(ValueError):
            tutte_bruteforce(uniform_matroid(25, 2))

    def test_oracle_equivalence_sample(self):
        for M in corpus_upto(8)[:80]:
            assert tutte(M) == tutte_bruteforce(M)

    def test_deletion_contraction_identity(self):
        for M in corpus_upto(7)[:40]:
            loops = set(M.loops())
            coloops = set(M.coloops())
            for e in M.ground:
                if e in loops or e in coloops:
                    continue
                rest = set(M.ground) - {e}
                left = explicit_minor_by_combinations(M, rest, set())
                right = explicit_minor_by_combinations(M, rest, {e})
                assert tutte(M) == tutte(left) + tutte(right)

    @given(planted_matrices())
    def test_parallel_classes_match_bruteforce(self, A):
        # Planted parallel copies leave views that are one parallel class.
        M = Matroid.from_matrix(A)
        for N in (M, _explicit_copy(M)):
            assert tutte(N) == tutte_bruteforce(N)

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_rank_one_view_read_off_at_once(self, m, monkeypatch):
        # U(1, m) is one parallel class: T = x + y + ... + y^(m-1), read off
        # the root minor with no deletion or contraction.
        def refuse(*_):
            raise AssertionError("a rank-1 minor was expanded")

        for kind in (mldeg.invariants._Rows, mldeg.invariants._Masks):
            monkeypatch.setattr(kind, "step", refuse)
        expected = BiPoly({(1, 0): 1, **{(0, j): 1 for j in range(1, m)}})
        M = Matroid.from_matrix(mat([list(range(1, m + 1))]))
        assert tutte(M) == tutte(_explicit_copy(M)) == expected

    def test_base_count_specialization(self):
        for M in corpus_upto(7)[:40]:
            assert tutte(M).evaluate(1, 1) == len(M.bases())


class TestCharPoly:
    def test_u23(self):
        assert char_poly(uniform_matroid(3, 2)) == UniPoly((2, -3, 1))

    def test_parallel_elements(self):
        for n in range(1, 5):
            assert char_poly(Matroid.from_matrix(
                mat([[1] * n], cols=n))) == UniPoly((-1, 1))

    def test_loop_kills_charpoly(self):
        M = Matroid.from_matrix(mat([[1, 0], [0, 0]], cols=2))
        assert char_poly(M).is_zero()
        assert char_poly_flats(M).is_zero()

    def test_k4(self):
        expected = UniPoly((-1, 1)) * UniPoly((-2, 1)) * UniPoly((-3, 1))
        assert char_poly(k4_matroid()) == expected

    def test_flats_oracle_agrees(self):
        for M in corpus_upto(8)[:80]:
            assert char_poly(M) == char_poly_flats(M)

    def test_chi_at_one_vanishes(self):
        for M in corpus_upto(8, loopless=True)[:60]:
            if M.n >= 1:
                assert char_poly(M).evaluate(1) == 0


class TestStructuredFamilies:
    """chi and rmld of the graphic K_n, the type-B and type-D arrangements
    and the wheels, against their closed forms; Tutte of the small members
    against the corank-nullity expansion."""

    RMLD = {
        ("K", 3): 3, ("K", 4): 15, ("K", 5): 105, ("K", 6): 945,
        ("B", 2): 5, ("B", 3): 45, ("B", 4): 585,
        ("D", 3): 15, ("D", 4): 225, ("D", 5): 4095,
        ("W", 3): 15, ("W", 4): 57, ("W", 5): 195, ("W", 6): 633,
    }

    @pytest.mark.parametrize("family, n", sorted(RMLD))
    def test_closed_forms(self, family, n):
        M = family_matroid(family, n)
        assert char_poly(M) == family_chi(family, n)
        assert rmld(M) == self.RMLD[family, n]

    @pytest.mark.parametrize("family, n", [("K", 4), ("B", 3), ("W", 3), ("W", 4)])
    def test_tutte_matches_bruteforce(self, family, n):
        M = family_matroid(family, n)
        assert tutte(M) == tutte_bruteforce(M)


class TestMobius:
    def test_values(self):
        assert mobius_invariant(uniform_matroid(3, 2)) == 2
        assert mobius_invariant(uniform_matroid(4, 3)) == -3

    def test_boolean_signs(self):
        for n in range(1, 6):
            assert mobius_invariant(uniform_matroid(n, n)) == (-1) ** n


class TestPoincare:
    def test_u23(self):
        assert poincare_poly(uniform_matroid(3, 2)) == UniPoly((1, 3, 2))

    def test_single_coloop(self):
        assert poincare_poly(uniform_matroid(1, 1)) == UniPoly((1, 1))

    def test_loops_rejected(self):
        M = Matroid.from_matrix(mat([[1, 0], [0, 0]], cols=2))
        with pytest.raises(ValueError):
            poincare_poly(M)

    def test_rmld_link_u23(self):
        P = poincare_poly(uniform_matroid(3, 2))
        assert P.evaluate(-2) * (-1) ** 2 == 3 == rmld(uniform_matroid(3, 2))

    def test_nonnegative_with_unit_constant(self):
        for M in corpus_upto(8, loopless=True)[:60]:
            P = poincare_poly(M)
            assert all(c >= 0 for c in P.coeffs)
            assert P.evaluate(0) == 1


class TestReport:
    def test_json_schema(self):
        data = compute_invariants(uniform_matroid(3, 2)).to_json_dict()
        assert data["n"] == 3 and data["rank"] == 2
        assert data["charpoly"] == ["2", "-3", "1"]
        assert data["mobius"] == "2"
        assert data["poincare"] == ["1", "3", "2"]
        assert data["tutte"] == [[0, 1, "1"], [1, 0, "1"], [2, 0, "1"]]

    def test_loopy_report_has_null_poincare(self):
        M = Matroid.from_matrix(mat([[1, 0], [0, 0]], cols=2))
        data = compute_invariants(M).to_json_dict()
        assert data["poincare"] is None
        assert data["charpoly"] == []

    def test_charpoly_consistency_invariant(self):
        for M in corpus_upto(7)[:40]:
            rep = compute_invariants(M)
            slice_sub = rep.tutte.x_slice_at_y_zero().compose_linear(1, -1)
            sign = -1 if rep.rank % 2 else 1
            assert rep.charpoly == slice_sub.scale(sign)
            assert rep.mobius == rep.charpoly.evaluate(0)

    def test_report_caches_chi_for_the_degrees(self, monkeypatch):
        # compute_invariants reads chi off its Tutte polynomial and keeps it,
        # so the degrees that follow run no second recursion.  Corpus entries
        # may carry chi from other tests, so each check runs on fresh copies.
        def fresh(M):
            if M.is_realized:
                return Matroid.from_subspace(M.subspace)
            return Matroid.from_bases(M.n, M.bases())

        def no_recursion(*_):
            raise AssertionError("char_poly recursed after compute_invariants")

        for M in corpus_upto(7)[:40]:
            expected = char_poly(fresh(M))
            N = fresh(M)
            compute_invariants(N)
            monkeypatch.setattr(mldeg.invariants, "_dc_coeffs", no_recursion)
            assert char_poly(N) == expected
            monkeypatch.undo()


class TestMemoLifetime:
    """A per-call memo is freed when its call returns: no reference cycle
    keeps it alive until the cyclic garbage collector runs."""

    @pytest.fixture
    def gc_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    @pytest.mark.parametrize("call", [tutte, char_poly, flat_terms])
    @pytest.mark.parametrize("realized", [False, True])
    def test_gc_finds_nothing_after_a_call(self, gc_off, call, realized):
        if realized:
            M = Matroid.from_matrix(mat([[x ** i for x in range(1, 9)] for i in range(4)]))
        else:
            M = uniform_matroid(8, 4)
        gc.collect()
        assert call(M)
        assert gc.collect() == 0


class TestNoRecursionWall:
    """Deletion-contraction recurses only into contractions, so its depth
    is at most the rank, however long the deletion chains: these inputs run
    at the default recursion limit, which a recursion per deleted element
    would pass."""

    @pytest.fixture(autouse=True)
    def default_limit(self):
        assert sys.getrecursionlimit() == 1000

    def test_wide_rank_three_rmld(self):
        assert rmld(uniform_matroid(1200, 3)) == uniform_rmld(1200, 3)

    def test_wide_rank_two_tutte(self):
        assert tutte(uniform_matroid(1100, 2)) == uniform_tutte(1100, 2)

    def test_leading_loops_tutte(self):
        M = Matroid.from_matrix(mat([[0] * 1100 + [1, 0, 1], [0] * 1100 + [0, 1, 1]]))
        assert tutte(M) == uniform_tutte(3, 2) * BiPoly({(0, 1100): 1})

    def test_cli_uniform_exits_zero(self, capsys):
        assert main(["uniform", "--n", "600", "--r", "3", "--d", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == str(uniform_rmld(600, 3))
