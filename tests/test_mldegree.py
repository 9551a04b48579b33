import copy
import pickle
from fractions import Fraction
from itertools import permutations
from math import prod

import mldeg.invariants
import mldeg.linalg
import mldeg.matroids
import mldeg.mldegree
import pytest
from hypothesis import given

from mldeg import (
    BiPoly,
    Matroid,
    QMatrix,
    Subspace,
    char_poly,
    classify_rmld_one,
    flats,
    ml_degree_report,
    mld,
    mobius_invariant,
    rmld,
    score_count,
    score_count_dc,
    uniform_matroid,
    uniform_rmld,
    uniform_tutte,
    verify_stratification,
)
from mldeg.invariants import _dc_coeffs, char_poly_flats, flat_terms
from mldeg.mldegree import (
    FlatContribution, StratificationReport, _count_from_chi,
)
from mldeg.ratpoly import UniPoly

from conftest import (
    _explicit_copy, corpus_upto, explicit_minor_by_combinations, family_chi,
    family_matroid, family_roots, k4_matroid, planted_matrices,
    reference_flat_terms, reference_flats, vamos_matroid,
)


def mat(rows, cols=None):
    return QMatrix.from_rows(rows, cols=cols)


class TestRmld:
    def test_small_uniforms(self):
        assert rmld(uniform_matroid(3, 2)) == 3
        assert rmld(uniform_matroid(4, 3)) == 7

    def test_k4(self):
        assert rmld(k4_matroid()) == 15

    def test_loop_convention(self):
        M = Matroid.from_matrix(mat([[1, 0], [0, 0]], cols=2))
        assert rmld(M) == 0 and mld(M) == 0

    def test_matroid_invariance_under_column_scaling(self):
        A = mat([[1, 0, 2, -1], [0, 1, 3, 5]])
        scaled = mat([[7, 0, -2, -3], [0, 4, -3, 15]])  # columns scaled
        MA, MS = Matroid.from_matrix(A), Matroid.from_matrix(scaled)
        assert rmld(MA) == rmld(MS)
        assert mld(MA) == mld(MS)
        assert score_count(MA, 3) == score_count(MS, 3)


class TestMld:
    def test_values(self):
        assert mld(uniform_matroid(3, 2)) == 2
        assert mld(uniform_matroid(4, 3)) == 3

    def test_partition_matroid_is_one(self):
        A = mat([[1, 1, 0, 0], [0, 0, 1, 1]])
        assert mld(Matroid.from_matrix(A)) == 1


class TestScoreCount:
    def test_values(self):
        assert score_count(uniform_matroid(3, 2), 3) == 10
        assert score_count(uniform_matroid(4, 3), 3) == 38

    def test_d1_vanishes_loopless(self):
        for M in corpus_upto(7, loopless=True)[:40]:
            if M.n >= 1:
                assert score_count(M, 1) == 0

    def test_specializations(self):
        for M in corpus_upto(7)[:50]:
            assert score_count(M, 0) == mld(M)
            assert score_count(M, 2) == rmld(M)

    def test_negative_d_rejected(self):
        with pytest.raises(ValueError):
            score_count(uniform_matroid(2, 1), -1)

    def test_empty_matroid(self):
        M = Matroid.from_subspace(Subspace.zero(0))
        for d in range(4):
            assert score_count(M, d) == 1


class TestScoreCountDc:
    def test_single_coloop_counts_d_minus_1(self):
        M = uniform_matroid(1, 1)
        for d in (1, 2, 3, 4):
            assert score_count_dc(M, d) == d - 1

    def test_single_loop(self):
        M = Matroid.from_matrix(mat([[0]], cols=1))
        assert score_count_dc(M, 2) == 0

    def test_u23_matches_rmld(self):
        assert score_count_dc(uniform_matroid(3, 2), 2) == 3

    def test_boolean_power(self):
        for n in (1, 2, 3):
            for d in (2, 3):
                assert score_count_dc(uniform_matroid(n, n), d) == (d - 1) ** n

    def test_d0_rejected(self):
        with pytest.raises(ValueError):
            score_count_dc(uniform_matroid(2, 1), 0)

    def test_agreement_with_formula(self):
        for M in corpus_upto(7)[:60]:
            chi = char_poly_flats(M)
            for d in (1, 2, 3, 4):
                assert score_count_dc(M, d) == _count_from_chi(chi, M.full_rank(), d)


def reference_score_count_dc(M: Matroid, d: int) -> int:
    """The deletion-contraction count on minors built as explicit Matroids
    by `explicit_minor_by_combinations`, one count per d, memoized on the
    rref rows of a realized input and on the basis masks of a minor."""
    memo: dict = {}

    def count(N: Matroid) -> int:
        if N.loops():
            return 0
        if N.n == 0:
            return 1
        key = (N.n, N.subspace.rows if N.is_realized else frozenset(N._basis_masks))
        cached = memo.get(key)
        if cached is not None:
            return cached
        rest = range(2, N.n + 1)
        contracted = explicit_minor_by_combinations(N, rest, {1})
        deleted = explicit_minor_by_combinations(N, rest, set())
        if deleted.full_rank() < N.full_rank():  # 1 is a coloop
            value = (d - 1) * count(contracted)
        else:
            value = count(deleted) + d * count(contracted)
        memo[key] = value
        return value

    return count(M)


def chi_expansion(M: Matroid) -> UniPoly:
    """(-d)^r chi(1/d) = (-1)^r sum_k chi_k d^(r-k), as a polynomial in d,
    with chi summed over the lattice of flats."""
    r = M.full_rank()
    chi = char_poly_flats(M).coeffs
    if not chi:
        return UniPoly.zero()
    sign = -1 if r % 2 else 1
    return UniPoly(sign * c for c in reversed(chi + (0,) * (r + 1 - len(chi))))


class TestDeletionContractionRoute:
    """score_count_dc on the minors' rows and masks against the reference
    that builds every minor as a Matroid, and against chi."""

    @given(planted_matrices())
    def test_matches_reference_on_planted_inputs(self, A):
        M = Matroid.from_matrix(A)
        E = _explicit_copy(M)
        for d in (1, 2, 3, 4):
            expected = reference_score_count_dc(M, d)
            assert reference_score_count_dc(E, d) == expected
            assert score_count_dc(M, d) == score_count_dc(E, d) == expected
        assert UniPoly(_dc_coeffs(M)) == UniPoly(_dc_coeffs(E)) == chi_expansion(M)

    def test_matches_reference_on_corpus(self):
        for M in corpus_upto(8)[:80]:
            for d in (1, 2, 3):
                assert score_count_dc(M, d) == reference_score_count_dc(M, d)
            assert UniPoly(_dc_coeffs(M)) == chi_expansion(M)

    @given(planted_matrices())
    def test_minors_are_canonical_rows(self, A):
        # Each realized minor is visited as the primitive rref rows that
        # Subspace stores, so equal minors share one memo entry.
        seen = []
        route = mldeg.invariants._dc_rows

        def record(rows, memo):
            seen.append(rows)
            return route(rows, memo)

        mldeg.invariants._dc_rows = record
        try:
            score_count_dc(Matroid.from_matrix(A), 2)
        finally:
            mldeg.invariants._dc_rows = route
        for rows in seen:
            assert Subspace.from_matrix(Subspace(len(rows[0]), rows).basis).rows == rows

    def test_one_pass_serves_every_exponent(self):
        # chi and every count read one deletion-contraction run: whichever of
        # them is asked first, the others, in any order, run no second one.
        routes = {"rmld": rmld, "char_poly": char_poly,
                  **{f"score_count {d}": lambda M, d=d: score_count(M, d) for d in (1, 3)},
                  **{f"score_count_dc {d}": lambda M, d=d: score_count_dc(M, d)
                     for d in (1, 3, 4)}}
        expected = {name: route(k4_matroid()) for name, route in routes.items()}
        assert expected["score_count 1"] == expected["score_count_dc 1"] == 0

        def refuse(*_):
            raise AssertionError("deletion-contraction ran twice")

        for order in permutations(["rmld", "char_poly", "score_count 3", "score_count_dc 3"]):
            M, E = k4_matroid(), _explicit_copy(k4_matroid())
            first, *rest = [*order, "score_count 1", "score_count_dc 1", "score_count_dc 4"]
            assert routes[first](M) == routes[first](E) == expected[first]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(mldeg.invariants, "_dc_rows", refuse)
                patch.setattr(mldeg.invariants, "_dc_masks", refuse)
                for name in rest:
                    assert routes[name](M) == routes[name](E) == expected[name], name


class TestStructuredCounts:
    """score_count_dc on K4, K5, B3, D4, W3 and W4, realized and as
    explicit-bases copies, against the closed forms of chi: prod (d a_i - 1)
    when chi = prod (t - a_i), and (-d)^m chi(1/d) for the wheel W_m.  The
    stratification identity holds on the same inputs."""

    @pytest.mark.parametrize("family, n", [("K", 4), ("K", 5), ("B", 3), ("D", 4),
                                           ("W", 3), ("W", 4)])
    def test_counts_match_closed_forms(self, family, n):
        M = family_matroid(family, n)
        E = _explicit_copy(M)
        r = M.full_rank()
        for d in (1, 2, 3, 4):
            if family == "W":
                expected = (-d) ** r * family_chi(family, n).evaluate(Fraction(1, d))
            else:
                expected = prod(d * a - 1 for a in family_roots(family, n))
            assert score_count_dc(M, d) == score_count_dc(E, d) == expected

    @pytest.mark.parametrize("family, n", [("K", 4), ("K", 5), ("B", 3), ("D", 4),
                                           ("W", 3), ("W", 4)])
    def test_stratification_holds(self, family, n):
        M = family_matroid(family, n)
        for N in (M, _explicit_copy(M)):
            for d in (1, 2, 3):
                assert verify_stratification(N, d).holds


class TestUniformForms:
    def test_tutte_examples(self):
        assert uniform_tutte(3, 2) == BiPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})
        assert uniform_tutte(4, 3) == BiPoly(
            {(3, 0): 1, (2, 0): 1, (1, 0): 1, (0, 1): 1}
        )
        assert uniform_tutte(4, 4) == BiPoly({(4, 0): 1})

    def test_tutte_matches_matroid(self):
        from mldeg import tutte
        for n in range(1, 8):
            for r in range(1, n + 1):
                assert uniform_tutte(n, r) == tutte(uniform_matroid(n, r))

    def test_rank_one(self):
        for n in range(1, 8):
            assert uniform_rmld(n, 1) == 1

    def test_r3_polynomial(self):
        for n in range(3, 11):
            assert uniform_rmld(n, 3) == 2 * n * n - 8 * n + 7

    def test_r4_polynomial(self):
        for n in range(4, 11):
            expected = (Fraction(4, 3) * n ** 3 - 10 * n ** 2
                        + Fraction(68, 3) * n - 15)
            assert uniform_rmld(n, 4) == expected

    def test_matches_matroid_rmld(self):
        for n in range(1, 8):
            for r in range(1, n + 1):
                assert uniform_rmld(n, r) == rmld(uniform_matroid(n, r))

    def test_domain_errors(self):
        for n, r in [(3, 0), (3, 4), (0, 1)]:
            with pytest.raises(ValueError):
                uniform_tutte(n, r)
            with pytest.raises(ValueError):
                uniform_rmld(n, r)


def reference_stratification(M: Matroid, d: int) -> StratificationReport:
    """verify_stratification as it was before the walk kept its sums: the
    rhs summed over one FlatContribution per flat, here of the closure-driven
    lattice and its flat terms."""
    if M.loops():
        raise ValueError("stratification identity needs a loopless matroid")
    mu_abs = abs(mobius_invariant(M))
    if d == 0:
        top = score_count(M, 0)
        return StratificationReport(0, mu_abs, top, (FlatContribution(M.ground, top, 1),),
                                    mu_abs == top)
    lhs = d ** M.full_rank() * mu_abs
    lattice = reference_flats(M)
    contributions = tuple(
        FlatContribution(tuple(sorted(F)), _count_from_chi(chi, rk, d), mu)
        for F, rk, (chi, mu) in zip(lattice.flats, lattice.ranks,
                                    reference_flat_terms(lattice)))
    rhs = sum(c.count * c.mu_contract for c in contributions)
    return StratificationReport(d, lhs, rhs, contributions, lhs == rhs)


class TestStratification:
    def test_u23_d2_per_flat(self):
        report = verify_stratification(uniform_matroid(3, 2), 2)
        assert report.lhs == 8 and report.rhs == 8 and report.holds
        by_flat = {c.flat: (c.count, c.mu_contract) for c in report.per_flat}
        assert by_flat[()] == (1, 2)
        assert by_flat[(1,)] == (1, 1)
        assert by_flat[(1, 2, 3)] == (3, 1)

    def test_u12_d2(self):
        report = verify_stratification(uniform_matroid(2, 1), 2)
        assert report.lhs == 2 and report.rhs == 2
        assert len(report.per_flat) == 2

    def test_d0_reduces_to_mobius_identity(self):
        for M in corpus_upto(6, loopless=True)[:30]:
            report = verify_stratification(M, 0)
            assert report.holds
            assert report.lhs == mld(M) == report.rhs

    def test_loops_rejected(self):
        M = Matroid.from_matrix(mat([[1, 0], [0, 0]], cols=2))
        with pytest.raises(ValueError):
            verify_stratification(M, 2)

    def test_holds_on_sample(self):
        for M in corpus_upto(6, loopless=True)[:30]:
            for d in (1, 2, 3):
                assert verify_stratification(M, d).holds

    def test_per_flat_terms_computed_once(self, monkeypatch):
        # chi(M|F) and |mu(M/F)| do not depend on d, so checking several
        # exponents, and reading their per_flat, walks the lattice once.
        walks = []

        class Counted(mldeg.matroids._FlatWalk):
            __slots__ = ()

            def __init__(self, M):
                walks.append(M)
                super().__init__(M)

        monkeypatch.setattr(mldeg.matroids, "_FlatWalk", Counted)
        M = k4_matroid()
        N = Matroid.from_subspace(M.subspace)
        reports = [verify_stratification(N, d) for d in (1, 2, 3, 2)]
        assert all(r.holds and r.per_flat for r in reports)
        assert walks == [N]
        assert reports[1] == reports[3] == verify_stratification(M, 2)

    @given(planted_matrices())
    def test_matches_reference(self, A):
        M = Matroid.from_matrix(A)
        for N in (M, _explicit_copy(M)):
            for d in range(5):
                if N.loops():
                    with pytest.raises(ValueError):
                        verify_stratification(N, d)
                    continue
                report, expected = verify_stratification(N, d), reference_stratification(N, d)
                assert (report.lhs, report.rhs, report.holds) == (
                    expected.lhs, expected.rhs, expected.holds)
                assert report.per_flat == expected.per_flat
                assert report.to_json_dict() == expected.to_json_dict()
                assert report == expected and hash(report) == hash(expected)
                assert repr(report) == repr(expected)
            lattice = reference_flats(N)
            assert flats(N) == lattice
            assert list(flat_terms(N)) == reference_flat_terms(lattice)

    def test_copies_and_pickles_carry_the_fields(self):
        M = Matroid.from_subspace(k4_matroid().subspace)
        report, expected = verify_stratification(M, 2), reference_stratification(M, 2)
        fields = set(StratificationReport.__annotations__)
        for copied in (copy.copy(report), copy.deepcopy(report),
                       pickle.loads(pickle.dumps(report))):
            assert copied == expected and vars(copied).keys() == fields

    def test_sweep_call_builds_no_per_flat_objects(self, monkeypatch):
        # What a caller reads of the report (lhs, rhs, holds) needs neither
        # the sorted lattice nor one FlatContribution per flat.
        inputs = corpus_upto(7, loopless=True)[:40] + [
            family_matroid(family, n) for family, n in (("K", 5), ("B", 3), ("W", 4))]
        copies = [Matroid.from_subspace(M.subspace) if M.is_realized else _explicit_copy(M)
                  for M in inputs]
        expected = [reference_stratification(M, 2) for M in inputs]

        def refuse(*_):
            raise AssertionError("a per-flat object was built")

        monkeypatch.setattr(mldeg.mldegree, "FlatContribution", refuse)
        monkeypatch.setattr(mldeg.matroids, "FlatLattice", refuse)
        for N, reference in zip(copies, expected):
            report = verify_stratification(N, 2)
            assert (report.lhs, report.rhs, report.holds) == (
                reference.lhs, reference.rhs, True)
            assert "per_flat" not in vars(report)

    def test_accepts_subspace_input(self):
        L = Subspace.from_matrix(mat([[1, 0, 1], [0, 1, 1]]))
        assert verify_stratification(L, 2).holds

    def test_json_schema(self):
        data = verify_stratification(uniform_matroid(3, 2), 2).to_json_dict()
        assert data["lhs"] == "8" and data["rhs"] == "8"
        assert {"flat", "D", "mu_contract"} <= set(data["per_flat"][0])


class TestClassifier:
    def test_u13_all_true(self):
        report = classify_rmld_one(uniform_matroid(3, 1))
        assert report.value and report.partition_matroid

    def test_u23_all_false(self):
        report = classify_rmld_one(uniform_matroid(3, 2))
        assert not any(
            [report.rmld_is_one, report.partition_matroid,
             report.mld_is_one, report.reciprocal_linear]
        )

    def test_boolean_all_true(self):
        for n in (1, 2, 4):
            assert classify_rmld_one(uniform_matroid(n, n)).value

    def test_agreement_on_corpus(self):
        for M in corpus_upto(7)[:60]:
            classify_rmld_one(M)  # raises on any disagreement


class TestNonRealizableInput:
    # A paving matroid of rank 4 on 8 elements: the lattice of flats has
    # 8 singletons, 28 pairs, 36 free triples (mu = -1) and 5 dependent
    # 4-sets (mu = -3), which gives chi = t^4 - 8t^3 + 28t^2 - 51t + 30
    # by hand; 16 * chi(1/2) = 169.
    def test_vamos_degrees(self):
        V = vamos_matroid()
        from mldeg import char_poly, char_poly_flats
        from mldeg.ratpoly import UniPoly
        assert char_poly(V) == UniPoly((30, -51, 28, -8, 1))
        assert char_poly_flats(V) == char_poly(V)
        assert rmld(V) == 169
        assert mld(V) == 30
        assert score_count(V, 3) == score_count_dc(V, 3) == 1282

    def test_vamos_stratification(self):
        assert verify_stratification(vamos_matroid(), 2).holds


class TestStructuralProperties:
    def test_direct_sum_multiplicativity(self):
        blocks = [
            (mat([[1, 0, 1], [0, 1, 1]]), mat([[1, 1]])),
            (mat([[1, 2], [3, 4]]), mat([[1, 1, 1]])),
        ]
        for A, B in blocks:
            zeroes_top = [[0] * B.cols for _ in range(A.rows)]
            zeroes_bot = [[0] * A.cols for _ in range(B.rows)]
            block = [list(row) + zt for row, zt in zip(A.entries, zeroes_top)]
            block += [zb + list(row) for row, zb in zip(B.entries, zeroes_bot)]
            MA = Matroid.from_matrix(A)
            MB = Matroid.from_matrix(B)
            MS = Matroid.from_matrix(mat(block, cols=A.cols + B.cols))
            for d in (0, 2, 3):
                assert score_count(MS, d) == score_count(MA, d) * score_count(MB, d)

    def test_oddness_sample(self):
        for M in corpus_upto(7)[:60]:
            value = rmld(M)
            assert value == 0 or value % 2 == 1


class TestReportJson:
    def test_schema(self):
        data = ml_degree_report(uniform_matroid(3, 2), 3).to_json_dict()
        assert data == {
            "d": 3, "value": "10", "rmld": "3", "mld": "2", "method": "formula",
        }
