from fractions import Fraction

import mldeg.mldegree
import pytest

from mldeg import (
    BiPoly,
    Matroid,
    QMatrix,
    Subspace,
    classify_rmld_one,
    ml_degree_report,
    mld,
    rmld,
    score_count,
    score_count_dc,
    uniform_matroid,
    uniform_rmld,
    uniform_tutte,
    verify_stratification,
)

from conftest import corpus_upto, k4_matroid, vamos_matroid


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
            for d in (1, 2, 3, 4):
                assert score_count(M, d) == score_count_dc(M, d)


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
        # exponents runs the per-flat recursions once.
        calls = []
        terms = mldeg.mldegree.flat_minor_terms

        def counted(M):
            calls.append(M)
            return terms(M)

        monkeypatch.setattr(mldeg.mldegree, "flat_minor_terms", counted)
        M = k4_matroid()
        N = Matroid.from_subspace(M.subspace)
        reports = [verify_stratification(N, d) for d in (1, 2, 3, 2)]
        assert len(calls) == 1 and all(r.holds for r in reports)
        assert reports[1] == reports[3] == verify_stratification(M, 2)

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
