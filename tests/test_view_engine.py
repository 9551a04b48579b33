"""The positional deletion-contraction engine behind tutte / char_poly /
score_count against the reference routes that do not use it: the view
engine of tests/view_engine.py, the corank-nullity expansion, the
flats/Moebius sum, and deletion-contraction on explicitly built minors.
Realized input runs on its rref rows, explicit input on its basis masks;
each is also compared with the other, through explicit-bases copies.

Each check runs on a fresh copy of its matroid, because chi is cached on
the instance and a shared corpus entry may already carry it from another
test.
"""

import random
from fractions import Fraction
from math import gcd

import mldeg.invariants
import mldeg.linalg
import mldeg.matroids
import mldeg.mldegree
import pytest
from hypothesis import given, strategies as st

from mldeg import (
    BiPoly,
    Matroid,
    QMatrix,
    UniPoly,
    char_poly,
    char_poly_flats,
    flats,
    rmld,
    score_count,
    score_count_dc,
    tutte,
    tutte_bruteforce,
    uniform_matroid,
    uniform_rmld,
    verify_stratification,
)

from conftest import (
    _explicit_copy, corpus, corpus_upto, explicit_minor_by_combinations, family_matroid,
    permuted, planted_matrices, random_matrix, vamos_matroid,
)
from mldeg.invariants import _char_poly_from_tutte, _dc_coeffs, flat_terms
from view_engine import (
    MaskViews, RowViews, indices, view_char_poly, view_chi, view_tutte,
)


def fresh(M: Matroid) -> Matroid:
    if M.is_realized:
        return Matroid.from_subspace(M.subspace)
    return Matroid.from_bases(M.n, M.bases())


def check_against_references(M: Matroid) -> None:
    assert tutte(fresh(M)) == tutte_bruteforce(M) == view_tutte(M)
    assert char_poly(fresh(M)) == char_poly_flats(M) == view_char_poly(fresh(M))
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
            rest = set(M.ground) - set(entry.flat)
            restriction = explicit_minor_by_combinations(M, entry.flat, set())
            contraction = explicit_minor_by_combinations(M, rest, entry.flat)
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
    chi = view_chi(MaskViews(M))
    ground = (1 << M.n) - 1
    bottom = M.closure_mask(0)

    def terms(F):
        mask = M.mask(F)
        return (chi(mask, bottom, None),
                abs(chi(ground ^ mask, mask, None).evaluate(0)))

    return terms


def row_flat_terms(M: Matroid):
    """mask_flat_terms on the row route: the view of M|F is reached from the
    start by taking the elements of E - F away one at a time, deleting each
    one that is not a coloop of the view so far and contracting each one
    that is (M\\e = M/e for a coloop e); the view (E - F, F) starts from the
    rows taken modulo span(F)."""
    views = RowViews(M)
    chi = view_chi(views)
    ground = (1 << M.n) - 1
    bottom, start = views.start()

    def terms(F):
        mask = M.mask(F)
        R, C, state = ground, bottom, start
        for j in indices(ground ^ mask):
            e = 1 << j
            R ^= e
            if views.is_coloop(R | e, C, state, e):
                C, state = views.contract(C, state, e)
            else:
                state = views.delete(R, state, e)
        top = chi(ground ^ mask, *views.contract(bottom, start, mask))
        return chi(mask, C, state), abs(top.evaluate(0))

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
    views = RowViews(fresh(M))
    bottom, state = views.start()
    start = state[0]
    divided = False
    for j in range(M.n):
        C, (projected, *_) = views.contract(bottom, state, 1 << j)
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
    # branch: each positional minor is split once, by dropping its first
    # row, and no elimination step changes a row, let alone 2^n of them.
    # D reads the rank-2 minor left at the end off, so chi stops at rank 3.
    n = 6
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    M = Matroid.from_matrix(QMatrix.from_rows(identity))
    split = []
    rows_minors = mldeg.invariants._rows_minors
    eliminate = mldeg.invariants._eliminate

    def counted(rows):
        split.append(len(rows))
        deleted, contracted = rows_minors(rows)
        assert deleted is None
        return deleted, contracted

    def unchanged(rows, p, c):
        out = eliminate(rows, p, c)
        assert all(a is b for a, b in zip(out, rows)), "an elimination step ran"
        return out

    monkeypatch.setattr(mldeg.invariants, "_rows_minors", counted)
    monkeypatch.setattr(mldeg.invariants, "_eliminate", unchanged)
    # Tutte reads the rank-1 minor left at the end off without a split.
    assert tutte(fresh(M)) == BiPoly({(n, 0): 1})
    assert split == list(range(n, 1, -1))
    split.clear()
    assert char_poly(fresh(M)) == UniPoly((-1, 1)) ** n
    assert split == list(range(n, 2, -1))
    monkeypatch.undo()
    check_rows_against_masks(M)


# -- children of rank 1 and 2 read off -------------------------------------------


def d_from_chi(chi: UniPoly, r: int) -> tuple:
    """Coefficients in d of D(M, d) = (-d)^r chi(1/d) for a rank-r chi."""
    sign = -1 if r % 2 else 1
    return tuple(sign * c for c in reversed(chi.coeffs))


@given(planted_matrices())
def test_d_matches_views(A):
    # The view engine reads no minor of rank 2 off in closed form, so it
    # checks the children that D reads off.
    M = Matroid.from_matrix(A)
    for N in (M, _explicit_copy(M)):
        expected = d_from_chi(view_char_poly(fresh(N)), N.full_rank())
        assert _dc_coeffs(fresh(N)) == expected


def test_rank_two_points_with_several_elements():
    # Rank 2: the points (1, 0) x 3, (0, 1) x 2, (1, 1) x 2 and (1, 2), so
    # chi = t^2 - 4 t + 3 and D = 1 - 4 d + 3 d^2.  Rank 3: contracting the
    # first column leaves the point of (0, 1, 0), (1, 1, 0), (2, 1, 0) and
    # (-1, -1, 0), the point of (0, 0, 1) and (1, 0, 1), and two more.
    planes = {
        2: [[1, 0], [2, 0], [-1, 0], [0, 1], [0, 3], [1, 1], [-2, -2], [1, 2]],
        3: [[1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 1, 0], [0, 0, 1], [1, 0, 1],
            [0, 1, 1], [3, 2, 5], [-1, -1, 0]],
    }
    for r, columns in planes.items():
        M = Matroid.from_matrix(QMatrix.from_rows([list(row) for row in zip(*columns)]))
        assert M.full_rank() == r and M.is_loopless()
        chi = _char_poly_from_tutte(tutte_bruteforce(M), r)
        if r == 2:
            assert chi == UniPoly((3, -4, 1))
        for N in (M, _explicit_copy(M)):
            assert _dc_coeffs(fresh(N)) == d_from_chi(chi, r)
            assert char_poly(fresh(N)) == chi


@pytest.mark.parametrize("n, r, bound", [(40, 4, 1_000), (30, 5, 4_000)])
def test_wide_low_rank_memo_stays_small(n, r, bound, monkeypatch):
    # Reading the rank-1 and rank-2 minors off leaves D a memo of the
    # minors of rank 3 and more: 704 entries for U(4, 40) and 3,278 for
    # U(5, 30), against C(n, k)-many minors of every rank.  chi and the
    # count share one run.
    memos = {}
    route = mldeg.invariants._dc

    def record(kind, rows, memo):
        memos[id(memo)] = memo
        return route(kind, rows, memo)

    monkeypatch.setattr(mldeg.invariants, "_dc", record)
    M = uniform_matroid(n, r)
    assert rmld(M) == uniform_rmld(n, r)
    assert score_count_dc(M, 3) == score_count(M, 3)
    assert len(memos) == 1
    assert all(len(memo) <= bound for memo in memos.values())


def check_row_state(M: Matroid, R: int, C: int, state) -> None:
    """The rows of the view (R, C) are primitive and in reduced echelon form
    over pivot columns inside R, there are r - rk(C) of them, the supports
    kept with them are theirs, and their zero columns are the flat C."""
    rows, pivots, supports = state
    assert len(rows) == len(pivots) == len(supports)
    assert len(rows) == M.full_rank() - M.rank_mask(C)
    nonzero = 0
    for row, pivot, support in zip(rows, pivots, supports):
        assert gcd(*row) == 1
        assert support == sum(1 << j for j, a in enumerate(row) if a)
        assert pivot & R & support and not pivot & (pivot - 1)
        j = pivot.bit_length() - 1
        assert [bool(other[j]) for other in rows] == [other is row for other in rows]
        nonzero |= support
    assert C == ((1 << M.n) - 1) ^ nonzero == M.closure_mask(C)


@given(planted_matrices(), st.randoms(use_true_random=False))
def test_row_coloops_match_mask_coloops_along_walks(A, rng):
    # Random walks of deletions and contractions from the start view; a
    # coloop is never deleted, as in the recursions.  Every view reached
    # must hold rows of the form check_row_state pins, and read the same
    # coloops off them as the mask oracle finds by rank queries.
    M = Matroid.from_matrix(A)
    rows, masks = RowViews(M), MaskViews(M)
    for _ in range(3):
        C, state = rows.start()
        assert C == masks.start()[0]
        R = ((1 << M.n) - 1) & ~C
        while True:
            check_row_state(M, R, C, state)
            coloops = rows.coloops(R, C, state)
            assert coloops == masks.coloops(R, C, None)
            for j in indices(R):
                assert (rows.is_coloop(R, C, state, 1 << j)
                        == masks.is_coloop(R, C, None, 1 << j)
                        == bool(coloops >> j & 1))
            if not R:
                break
            e = 1 << rng.choice(indices(R))
            R ^= e
            if rng.random() < 0.5 and not coloops & e:
                state = rows.delete(R, state, e)
            else:
                Ce, state = rows.contract(C, state, e)
                assert Ce == masks.contract(C, None, e)[0]
                C = Ce
                R &= ~C


def test_row_views_build_no_dual_rows():
    realized = [M for M in corpus_upto(8) if M.is_realized]
    realized += [family_matroid(family, n) for family, n in
                 (("K", 5), ("B", 3), ("D", 4), ("W", 4))]
    for M in realized:
        assert char_poly(fresh(M)) == char_poly_flats(M)
        assert tutte(fresh(M)) == tutte_bruteforce(M)


def test_no_rank_or_closure_query():
    # Neither the rows of a realized input nor the basis masks of an
    # explicit one go through a rank or closure query, on any route that
    # the degrees, the invariants or the stratification check take.
    inputs = [N for M in corpus_upto(8) for N in (fresh(M), _explicit_copy(M))]

    def refuse(*_):
        raise AssertionError("a rank or closure query was asked")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matroid, "rank_mask", refuse)
        patch.setattr(Matroid, "closure_mask", refuse)
        patch.setattr(mldeg.linalg, "_modulo", refuse)
        patch.setattr(mldeg.matroids, "_modulo", refuse)
        for N in inputs:
            tutte(N)
            char_poly(N)
            score_count_dc(N, 2)
            flats(N)
            flat_terms(N)
            if N.is_loopless():
                report = verify_stratification(N, 3)
                assert report.holds and report.per_flat


def check_against_views(M: Matroid) -> None:
    """tutte and char_poly of M and of its explicit-bases copy equal the
    view engine's."""
    for N in (M, _explicit_copy(M)):
        assert tutte(fresh(N)) == view_tutte(fresh(N))
        assert char_poly(fresh(N)) == view_char_poly(fresh(N))


def test_corpus_matches_views():
    for M in corpus():
        check_against_views(M)


@pytest.mark.parametrize("family, n", [("K", n) for n in range(3, 8)]
                         + [("B", n) for n in range(2, 6)]
                         + [("D", n) for n in range(2, 6)]
                         + [("W", n) for n in range(3, 7)])
def test_families_match_views(family, n):
    check_against_views(family_matroid(family, n))


@given(planted_matrices())
def test_planted_inputs_match_views(A):
    check_against_views(Matroid.from_matrix(A))


@given(planted_matrices(), st.randoms(use_true_random=False))
def test_relabelling_changes_no_invariant(A, rng):
    # The positional memo depends on the element order; the answers must not.
    M = Matroid.from_matrix(A)
    order = list(range(1, M.n + 1))
    rng.shuffle(order)
    for N in (M, _explicit_copy(M)):
        P = permuted(N, order)
        assert P.is_realized == N.is_realized
        assert char_poly(P) == char_poly(fresh(N))
        assert tutte(P) == tutte(N)
        assert all(score_count_dc(P, d) == score_count_dc(fresh(N), d) for d in (1, 2, 3))
        assert rmld(P) == rmld(N)
