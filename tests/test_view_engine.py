"""The view recursions behind tutte / char_poly / score_count against the
reference routes that build no views: the corank-nullity expansion, the
flats/Moebius sum, and deletion-contraction on explicitly built minors.
On realized input the views carry projected integer rows; those answers
are also compared with the explicit-bases copy, whose views ask the mask
rank oracle.

Each check runs on a fresh copy of its matroid, because chi is cached on
the instance and a shared corpus entry may already carry it from another
test.
"""

import random
from fractions import Fraction
from math import gcd

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
    flats,
    restrict,
    rmld,
    score_count,
    score_count_dc,
    tutte,
    tutte_bruteforce,
    verify_stratification,
)

from conftest import (
    _explicit_copy, corpus, corpus_upto, random_matrix, vamos_matroid,
)
from mldeg.invariants import _MaskViews, _RowViews, _view_chi, flat_terms


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


@given(index=st.integers(0, len(EXPLICIT) - 1))
def test_lattice_terms_match_view_terms_on_explicit_input(index):
    M = fresh(EXPLICIT[index])
    reference = mask_flat_terms(M)
    assert list(flat_terms(M)) == [reference(F) for F in flats(M).flats]


def test_lattice_terms_store_equal_pairs_once():
    # U(3, 6): the 6 points share one pair, and so do the 15 lines.
    M = Matroid.from_matrix(QMatrix.from_rows(
        [[1] * 6, list(range(1, 7)), [j * j for j in range(1, 7)]]))
    terms = flat_terms(M)
    assert len(terms) == 1 + 6 + 15 + 1
    assert len({id(pair) for pair in terms}) == 4


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


def mask_flat_terms(M: Matroid):
    """A function taking a flat F of M to chi(M|F) and |mu(M/F)| by view
    recursions on the mask oracle, the reference for the lattice route of
    flat_terms.  M|F is the view (F, cl(empty)) and M/F the view (E - F, F);
    one chi memo serves every flat passed to the returned function."""
    chi = _view_chi(_MaskViews(M))
    ground = (1 << M.n) - 1
    bottom = M.closure_mask(0)

    def terms(F):
        mask = M.mask(F)
        return (chi(mask, bottom, None),
                abs(chi(ground ^ mask, mask, None).evaluate(0)))

    return terms


def row_flat_terms(M: Matroid):
    """mask_flat_terms on the row route: the view (E - F, F) starts from
    the rows reduced modulo span(F)."""
    views = _RowViews(M)
    chi = _view_chi(views)
    ground = (1 << M.n) - 1
    bottom, rows = views.start()

    def terms(F):
        mask = M.mask(F)
        top = chi(ground ^ mask, *views.contract(bottom, rows, mask))
        return chi(mask, bottom, rows), abs(top.evaluate(0))

    return terms


def check_rows_against_masks(M: Matroid) -> None:
    """The row route on realized M equals the mask route on its bases, and
    the per-flat terms read off the lattice equal both, on M and on E."""
    E = _explicit_copy(M)
    assert tutte(fresh(M)) == tutte(E)
    assert char_poly(fresh(M)) == char_poly(_explicit_copy(M))
    rows_terms, mask_terms = row_flat_terms(fresh(M)), mask_flat_terms(E)
    realized_terms = mask_flat_terms(fresh(M))
    views = [rows_terms(F) for F in flats(E).flats]
    assert views == [mask_terms(F) for F in flats(E).flats]
    assert views == [realized_terms(F) for F in flats(E).flats]
    assert list(flat_terms(fresh(M))) == views == list(flat_terms(E))


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 9), r=st.integers(0, 5))
def test_row_route_matches_mask_route(seed, n, r):
    rng = random.Random(seed)
    M = Matroid.from_matrix(random_matrix(rng, n, min(n, r)))
    assert M.is_realized
    check_rows_against_masks(M)


def test_fraction_entries_and_row_content():
    half, third = Fraction(1, 2), Fraction(2, 3)
    rows = [[half, 3, 6, third, 0, 9, 1],
            [4, 8, 0, 12, 6, 2, 10],
            [0, third, 4, 2, Fraction(6, 7), 0, 3]]
    M = Matroid.from_matrix(QMatrix.from_rows(rows))
    check_rows_against_masks(M)
    assert tutte(fresh(M)) == tutte_bruteforce(M)
    # Every contraction by one element leaves r - 1 primitive rows whose zero
    # columns are the closure, and some pivot step meets content > 1.
    views = _RowViews(fresh(M))
    bottom, start = views.start()
    divided = False
    for j in range(M.n):
        C, projected = views.contract(bottom, start, 1 << j)
        assert C == M.closure_mask(1 << j)
        assert len(projected) == M.full_rank() - 1
        assert all(gcd(*row) == 1 for row in projected)
        pivot = next(row for row in start if row[j])
        divided |= any(gcd(*[pivot[j] * x - row[j] * y
                             for x, y in zip(row, pivot)]) > 1
                       for row in start if row[j] and row is not pivot)
    assert divided


def test_free_matroid_pivots_once_per_element(monkeypatch):
    # Every element is a coloop, so neither recursion may take a deletion
    # branch: n pivot steps each, not 2^n.
    n = 6
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    M = Matroid.from_matrix(QMatrix.from_rows(identity))
    pivots = []
    pivot = mldeg.invariants._pivot

    def counted(rows, j):
        pivots.append(j)
        return pivot(rows, j)

    monkeypatch.setattr(mldeg.invariants, "_pivot", counted)
    assert tutte(fresh(M)) == BiPoly({(n, 0): 1})
    assert sorted(pivots) == list(range(n))
    pivots.clear()
    assert char_poly(fresh(M)) == UniPoly((-1, 1)) ** n
    assert sorted(pivots) == list(range(n))
    monkeypatch.undo()
    check_rows_against_masks(M)


def test_row_route_leaves_the_mask_caches_empty():
    for M in corpus_upto(8):
        if M.is_realized:
            N = fresh(M)
            tutte(N)
            char_poly(N)
            assert N._rank_cache == {} and N._closure_cache == {}
