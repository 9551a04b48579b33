import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mldeg import Matroid, QMatrix, Subspace, rank, rref
from mldeg.linalg import _echelon, _integer_rows

from conftest import any_matrices, mixed_copy


def mat(rows, cols=None):
    return QMatrix.from_rows(rows, cols=cols)


entries = st.integers(min_value=-9, max_value=9)


@st.composite
def matrices(draw, max_rows=4, max_cols=5):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    grid = draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return mat(grid, cols=c)


def _bareiss_echelon(rows, reduced=False):
    """Fraction-free forward elimination, or Gauss-Jordan when `reduced`:
    the echelon rows (zero rows removed) and the pivot column of each.

    Entries stay integral: each update divides exactly by the previous
    pivot, since every entry is a minor of the input.  The library ran on
    this elimination before every integer elimination became a chain of
    primitive pivot steps; it is kept as the reference for those.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    piv_cols = []
    piv_r = 0
    prev = 1
    for c in range(ncols):
        sel = next((i for i in range(piv_r, m) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
        pivot = rows[piv_r][c]
        rp = rows[piv_r]
        for i in range(0 if reduced else piv_r + 1, m):
            if i == piv_r:
                continue
            ri = rows[i]
            factor = ri[c]
            # The update must hit every other row, zero factor or not:
            # the exact-division invariant needs uniformly scaled minors.
            for j in range(ncols):
                ri[j] = (ri[j] * pivot - factor * rp[j]) // prev
        piv_cols.append(c)
        prev = pivot
        piv_r += 1
        if piv_r == m:
            break
    return rows[:piv_r], piv_cols


def naive_rank(A: QMatrix) -> int:
    """Plain Gaussian elimination over Fraction, as an independent oracle."""
    rows = [list(r) for r in A.entries]
    rk = 0
    for c in range(A.cols):
        pivot = next((i for i in range(rk, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        for i in range(len(rows)):
            if i != rk and rows[i][c] != 0:
                f = Fraction(rows[i][c], rows[rk][c])
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def reference_rref(A: QMatrix) -> QMatrix:
    """Bareiss forward elimination, then back-substitution in Fractions:
    the rref route the library used before subspaces were stored on
    integer rows, kept as the reference."""
    if A.rows == 0 or A.cols == 0:
        return QMatrix(0, A.cols, ())
    ech, piv_cols = _bareiss_echelon(_integer_rows(A.entries))
    work = [[Fraction(e) for e in row] for row in ech]
    for k in range(len(piv_cols) - 1, -1, -1):
        c = piv_cols[k]
        pivot = work[k][c]
        work[k] = [e / pivot for e in work[k]]
        for i in range(k):
            f = work[i][c]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[k])]
    grid = tuple(tuple(row) for row in work)
    return QMatrix(len(grid), A.cols, grid)


def assert_canonical_rows(L: Subspace) -> None:
    """Primitive rows, positive pivots in increasing columns, each pivot
    column zero outside its row."""
    pivots = []
    for row in L.rows:
        assert len(row) == L.ambient_n
        p = next(j for j, a in enumerate(row) if a)
        assert row[p] > 0 and gcd(*row) == 1
        pivots.append(p)
    assert pivots == sorted(set(pivots))
    for row, p in zip(L.rows, pivots):
        assert all(other[p] == 0 for other in L.rows if other is not row)


class TestIntegerRows:
    """The primitive integer rref rows a Subspace stores, against the
    Fraction reference."""

    def test_rows_of_a_fraction_matrix(self):
        L = Subspace.from_matrix(mat([[Fraction(1, 2), Fraction(1, 3), 0],
                                      [0, -2, 4]]))
        assert L.rows == ((3, 0, 4), (0, 1, -2))
        assert L.basis == mat([[1, 0, Fraction(4, 3)], [0, 1, -2]])

    def test_content_and_sign_divided_out(self):
        L = Subspace.from_matrix(mat([[-6, 4, 10]]))
        assert L.rows == ((3, -2, -5),)
        assert L.basis == mat([[1, Fraction(-2, 3), Fraction(-5, 3)]])

    def test_empty_shapes(self):
        assert Subspace.from_matrix(QMatrix(0, 3, ())) == Subspace.zero(3)
        assert Subspace.from_matrix(mat([[], []], cols=0)) == Subspace.zero(0)
        assert Subspace.zero(0).basis == QMatrix(0, 0, ())

    @given(any_matrices())
    def test_basis_and_rref_match_reference(self, A):
        L = Subspace.from_matrix(A)
        assert_canonical_rows(L)
        assert L.basis == reference_rref(A) == rref(A)
        assert L.dim == naive_rank(A) and L.ambient_n == A.cols

    @given(any_matrices(), st.integers(0, 2 ** 32 - 1))
    def test_same_span_gives_same_rows(self, A, seed):
        B = mixed_copy(A, random.Random(seed))
        assert Subspace.from_matrix(B).rows == Subspace.from_matrix(A).rows
        assert Subspace.from_matrix(B) == Subspace.from_matrix(A)

class TestRref:
    def test_diagonal_scaling(self):
        assert rref(mat([[2, 0], [0, 3]])) == mat([[1, 0], [0, 1]])

    def test_dependent_row_removed(self):
        assert rref(mat([[1, 1, 1], [2, 2, 2]])) == mat([[1, 1, 1]])

    def test_row_swap(self):
        assert rref(mat([[0, 1], [1, 0]])) == mat([[1, 0], [0, 1]])

    def test_zero_matrix(self):
        out = rref(mat([[0, 0], [0, 0]]))
        assert out.rows == 0 and out.cols == 2

    def test_fractions(self):
        out = rref(mat([[Fraction(1, 2), Fraction(1, 3)]]))
        assert out == mat([[1, Fraction(2, 3)]])

    @given(matrices())
    def test_idempotent(self, A):
        once = rref(A)
        assert rref(once) == once

    @given(matrices(max_rows=3, max_cols=4))
    def test_canonical_under_row_mixing(self, A):
        rng = random.Random(42)
        rows = [list(r) for r in A.entries]
        mixed = [list(r) for r in rows]
        for i in range(len(rows)):
            j = rng.randrange(len(rows))
            if i != j:
                scale = rng.choice([1, -2, 3])
                mixed[i] = [a + scale * b for a, b in zip(mixed[i], rows[j])]
        assert rref(mat(mixed, cols=A.cols)) == rref(A)


class TestPivotSteps:
    """The eliminations built from _eliminate and _pivot steps against the
    Bareiss reference."""

    @given(any_matrices())
    def test_echelon_matches_bareiss(self, A):
        rows = _integer_rows(A.entries)
        ech, _ = _bareiss_echelon(rows, reduced=True)
        # Each reduced row over its content, its pivot entry made positive.
        contents = [gcd(*row) * (1 if next(a for a in row if a) > 0 else -1)
                    for row in ech]
        assert _echelon(rows) == tuple(tuple(a // g for a in row)
                                       for row, g in zip(ech, contents))

    @given(any_matrices())
    def test_rank_matches_bareiss(self, A):
        rows = _integer_rows(A.entries)
        expected = len(_bareiss_echelon(rows)[1])
        assert rank(A) == expected == naive_rank(A)
        # A realized rank counts the stored rows that _modulo drops; the
        # full mask gives the rank of A.
        M = Matroid.from_matrix(A)
        for mask in range(1 << A.cols):
            columns = [[row[j] for j in range(A.cols) if mask >> j & 1] for row in rows]
            assert M.rank_mask(mask) == len(_bareiss_echelon(columns)[1])


class TestRank:
    def test_identity(self):
        assert rank(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3

    def test_zero(self):
        assert rank(mat([[0, 0], [0, 0]])) == 0

    def test_hand_elimination(self):
        assert rank(mat([[1, 1, 1], [1, 2, 3]])) == 2

    @given(matrices())
    def test_matches_naive_elimination(self, A):
        assert rank(A) == naive_rank(A)


class TestJson:
    def test_round_trip(self):
        A = mat([[1, 0, Fraction(2, 3)], [0, 1, -2]])
        data = A.to_json_dict()
        assert data["entries"][0] == ["1", "0", "2/3"]
        assert QMatrix.from_json_dict(data) == A

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QMatrix.from_json_dict({"rows": 2, "cols": 2, "entries": [["1", "0"]]})

    def test_non_rational_entry_rejected(self):
        # a JSON float (no exact value contract) is refused
        with pytest.raises(ValueError):
            QMatrix.from_json_dict({"rows": 1, "cols": 1, "entries": [[1.5]]})
