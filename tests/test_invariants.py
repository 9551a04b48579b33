import gc
from fractions import Fraction

import pytest

import mldeg.invariants

from mldeg import (
    BiPoly,
    Matroid,
    QMatrix,
    UniPoly,
    char_poly,
    char_poly_flats,
    compute_invariants,
    contract,
    delete,
    mobius_invariant,
    poincare_poly,
    rmld,
    tutte,
    tutte_bruteforce,
    uniform_matroid,
)

from mldeg.invariants import flat_terms

from conftest import corpus_upto, k4_matroid


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
                left, _ = delete(M, e)
                right, _ = contract(M, e)
                assert tutte(M) == tutte(left) + tutte(right)

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

        def no_recursion(views):
            raise AssertionError("char_poly recursed after compute_invariants")

        for M in corpus_upto(7)[:40]:
            expected = char_poly(fresh(M))
            N = fresh(M)
            compute_invariants(N)
            monkeypatch.setattr(mldeg.invariants, "_view_chi", no_recursion)
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
