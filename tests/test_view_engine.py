"""The view recursions behind tutte / char_poly / score_count against the
reference routes that build no views: the corank-nullity expansion, the
flats/Moebius sum, and deletion-contraction on explicitly built minors.

Each check runs on a fresh copy of its matroid, because chi is cached on
the instance and a shared corpus entry may already carry it from another
test.
"""

import random

import mldeg.invariants
import mldeg.mldegree
from hypothesis import given, strategies as st

from mldeg import (
    BiPoly,
    Matroid,
    QMatrix,
    UniPoly,
    char_poly,
    char_poly_flats,
    contract_set,
    restrict,
    rmld,
    score_count,
    score_count_dc,
    tutte,
    tutte_bruteforce,
    verify_stratification,
)

from conftest import corpus, corpus_upto, random_matrix, vamos_matroid


def fresh(M: Matroid) -> Matroid:
    if M.is_realized:
        return Matroid.from_subspace(M.subspace)
    return Matroid.from_bases(M.n, M.bases())


def check_against_references(M: Matroid) -> None:
    assert tutte(fresh(M)) == tutte_bruteforce(M)
    assert char_poly(fresh(M)) == char_poly_flats(M)
    for d in (1, 2, 3, 4):
        assert score_count(fresh(M), d) == score_count_dc(M, d)


EXPLICIT = [M for M in corpus() if not M.is_realized]


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9), r=st.integers(1, 4))
def test_random_matrices_match_references(seed, n, r):
    rng = random.Random(seed)
    check_against_references(Matroid.from_matrix(random_matrix(rng, n, min(n, r))))


@given(index=st.integers(0, len(EXPLICIT) - 1))
def test_explicit_bases_match_references(index):
    check_against_references(EXPLICIT[index])


def test_vamos_matches_references():
    check_against_references(vamos_matroid())


def test_parallel_class_of_three_plus_coloop():
    # Elements 1, 2, 3 are parallel, 4 is a coloop: M = U(1, 3) + U(1, 1).
    M = Matroid.from_matrix(QMatrix.from_rows([[1, 2, -1, 0], [0, 0, 0, 1]]))
    assert tutte(fresh(M)) == BiPoly({(2, 0): 1, (1, 1): 1, (1, 2): 1})
    assert char_poly(fresh(M)) == UniPoly((1, -2, 1))
    assert rmld(fresh(M)) == 1
    for d in (1, 2, 3, 4):
        assert score_count(fresh(M), d) == (d - 1) ** 2 == score_count_dc(M, d)
    check_against_references(M)


def test_parallel_class_inside_a_plane_plus_coloop():
    # a, 2a, -a, b, a + b in a plane, and a coloop c.
    rows = [[1, 2, -1, 0, 1, 0], [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 0, 1]]
    check_against_references(Matroid.from_matrix(QMatrix.from_rows(rows)))


def test_loop_zeroes_every_degree():
    M = Matroid.from_matrix(QMatrix.from_rows([[1, 0, 1], [0, 0, 1]]))
    assert char_poly(fresh(M)).is_zero()
    assert rmld(fresh(M)) == score_count(fresh(M), 3) == 0
    assert tutte(fresh(M)) == tutte_bruteforce(M)


def test_per_flat_entries_match_explicit_minors():
    for M in corpus_upto(8, loopless=True):
        report = verify_stratification(fresh(M), 2)
        assert report.holds
        for entry in report.per_flat:
            restriction, _ = restrict(M, entry.flat)
            contraction, _ = contract_set(M, entry.flat)
            assert entry.count == score_count_dc(restriction, 2)
            assert entry.mu_contract == abs(char_poly_flats(contraction).evaluate(0))


def test_no_module_level_table_keeps_entries():
    for M in corpus():
        tutte(M)
        char_poly(M)
        score_count(M, 3)
        score_count_dc(M, 3)
    for module in (mldeg.invariants, mldeg.mldegree):
        held = {name: len(value) for name, value in vars(module).items()
                if isinstance(value, dict) and not name.startswith("__") and value}
        assert held == {}, module.__name__
