"""Exact linear algebra over the rationals.

Matrices carry Fraction entries.  Row reduction clears denominators row by
row and runs fraction-free (Bareiss) forward elimination on integers, so
intermediate entries stay small; the reduced row echelon form is produced by
a final normalization pass.  Subspaces are stored as the rref basis of their
row span, which makes subspace equality plain entrywise equality.

Coordinates of the ambient space are 1-based (the ground set of the matroid
downstream is {1, ..., n}).  Operations that drop coordinates return, next to
the result, the tuple of surviving ambient indices: survivor k of the result
lived at ambient index labels[k-1].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .ratpoly import format_rational, parse_rational


@dataclass(frozen=True)
class QMatrix:
    """Immutable rows x cols matrix of Fractions (row-major)."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("entry grid does not match declared row count")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("entry grid does not match declared column count")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence] , cols: int | None = None) -> "QMatrix":
        """Build from any nested sequence of ints / Fractions / strings."""
        grid = tuple(
            tuple(parse_rational(e) for e in row) for row in rows
        )
        ncols = cols if cols is not None else (len(grid[0]) if grid else 0)
        return cls(len(grid), ncols, grid)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    def column_submatrix(self, col_indices: Sequence[int]) -> "QMatrix":
        """Submatrix of the given 0-based columns, in the given order."""
        grid = tuple(tuple(row[j] for j in col_indices) for row in self.entries)
        return QMatrix(self.rows, len(col_indices), grid)

    def transpose(self) -> "QMatrix":
        grid = tuple(tuple(self.entries[i][j] for i in range(self.rows))
                     for j in range(self.cols))
        return QMatrix(self.cols, self.rows, grid)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[format_rational(e) for e in row] for row in self.entries],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QMatrix":
        try:
            rows, cols, entries = data["rows"], data["cols"], data["entries"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"matrix JSON missing field: {exc}") from exc
        # int() would read 2.9, true or "2" as a size; only JSON integers pass.
        if type(rows) is not int or type(cols) is not int:
            raise ValueError("matrix JSON 'rows' and 'cols' must be integers")
        if not isinstance(entries, list) or not all(
                isinstance(row, list) for row in entries):
            raise ValueError("matrix JSON 'entries' must be a list of rows")
        grid = tuple(tuple(parse_rational(e) for e in row) for row in entries)
        m = cls(rows, cols, grid)
        return m


def _integer_rows(entries: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (row space preserved)."""
    out = []
    for row in entries:
        mult = 1
        for e in row:
            d = e.denominator
            mult = mult * d // gcd(mult, d)
        out.append([int(e * mult) for e in row])
    return out


def _bareiss_echelon(rows: Sequence[Sequence[int]], reduced: bool = False
                     ) -> tuple[list[list[int]], list[int]]:
    """Fraction-free forward elimination, or Gauss-Jordan when `reduced`.

    Returns the echelon rows (zero rows removed) and the pivot column of
    each surviving row.  Entries stay integral: each update divides exactly
    by the previous pivot, since every entry is a minor of the input.  In
    the reduced form each pivot column is zero outside its pivot row.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    piv_cols: list[int] = []
    piv_r = 0
    prev = 1
    for c in range(ncols):
        sel = None
        for i in range(piv_r, m):
            if rows[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != piv_r:
            rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
        pivot = rows[piv_r][c]
        for i in range(0 if reduced else piv_r + 1, m):
            if i == piv_r:
                continue
            ri = rows[i]
            rp = rows[piv_r]
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


def _primitive(row: list[int]) -> list[int]:
    """The row divided by its content (a zero row is returned as it is)."""
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _pivot(rows: list[list[int]], j: int) -> list[list[int]]:
    """Linearly independent integer rows taken modulo their column j.

    Column j is eliminated with its first nonzero row, that row is dropped,
    and each changed row is divided by its content.  The result spans the
    quotient by column j, so its zero columns are the columns that were
    multiples of column j.  Rows left unchanged are shared, not copied.
    """
    p = next((i for i, row in enumerate(rows) if row[j]), None)
    if p is None:
        return rows
    prow = rows[p]
    a = prow[j]
    out = []
    for i, row in enumerate(rows):
        f = row[j]
        if i != p:
            out.append(_primitive([a * x - f * y for x, y in zip(row, prow)])
                       if f else row)
    return out


def rank(A: QMatrix) -> int:
    """Exact rank over the rationals."""
    if A.rows == 0 or A.cols == 0:
        return 0
    _, piv = _bareiss_echelon(_integer_rows(A.entries))
    return len(piv)


def rank_int_rows(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix given as nested sequences (fast path)."""
    if not rows or not rows[0]:
        return 0
    _, piv = _bareiss_echelon([list(r) for r in rows])
    return len(piv)


def rref(A: QMatrix) -> QMatrix:
    """Reduced row echelon form with zero rows dropped.

    Canonical: two matrices with equal row spaces reduce to the same rref.
    """
    if A.rows == 0 or A.cols == 0:
        return QMatrix(0, A.cols, ())
    ech, piv_cols = _bareiss_echelon(_integer_rows(A.entries))
    # Back-substitute and normalize pivots to 1 (Fractions from here on).
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


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of C^n stored by the canonical rref basis of its
    row span; equality of subspaces is equality of the stored matrices."""

    ambient_n: int
    basis: QMatrix
    dim: int

    def __post_init__(self):
        if self.basis.cols != self.ambient_n or self.basis.rows != self.dim:
            raise ValueError("basis shape inconsistent with ambient/dim")

    @classmethod
    def from_matrix(cls, A: QMatrix) -> "Subspace":
        B = rref(A)
        return cls(A.cols, B, B.rows)

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, QMatrix(0, n, ()), 0)

    @classmethod
    def full(cls, n: int) -> "Subspace":
        one = Fraction(1)
        zero = Fraction(0)
        grid = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return cls(n, QMatrix(n, n, grid), n)

    def contains(self, vector: Sequence) -> bool:
        v = [parse_rational(e) for e in vector]
        if len(v) != self.ambient_n:
            raise ValueError("vector length does not match ambient dimension")
        stacked = QMatrix.from_rows(
            [list(row) for row in self.basis.entries] + [v], cols=self.ambient_n
        )
        return rank(stacked) == self.dim


def kernel(L: Subspace) -> Subspace:
    """Orthogonal complement under the standard bilinear pairing.

    dim kernel(L) = n - dim L, and every basis vector of the result pairs to
    zero with every basis vector of L.
    """
    n = L.ambient_n
    B = L.basis
    if L.dim == 0:
        return Subspace.full(n)
    # B is rref; read the nullspace straight off the free columns.
    piv_cols = []
    for i in range(B.rows):
        for j in range(B.cols):
            if B.entries[i][j] != 0:
                piv_cols.append(j)
                break
    piv_set = set(piv_cols)
    free_cols = [j for j in range(n) if j not in piv_set]
    vectors = []
    for f in free_cols:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(piv_cols):
            v[p] = -B.entries[i][f]
        vectors.append(v)
    if not vectors:
        return Subspace.zero(n)
    return Subspace.from_matrix(QMatrix.from_rows(vectors, cols=n))


def _check_index_set(indices: Iterable[int], n: int) -> tuple[int, ...]:
    idx = sorted(set(int(i) for i in indices))
    if idx and (idx[0] < 1 or idx[-1] > n):
        raise ValueError(f"index set {idx} not inside 1..{n}")
    return tuple(idx)


def restrict_subspace(L: Subspace, F: Iterable[int]) -> tuple[Subspace, tuple[int, ...]]:
    """Coordinate projection of L onto the 1-based index set F.

    Returns the projected subspace together with the surviving ambient
    indices in order (new coordinate k corresponds to labels[k-1]).
    """
    labels = _check_index_set(F, L.ambient_n)
    cols0 = [i - 1 for i in labels]
    sub = L.basis.column_submatrix(cols0)
    return Subspace.from_matrix(sub), labels


def contract_subspace(L: Subspace, I: Iterable[int]) -> tuple[Subspace, tuple[int, ...]]:
    """Vectors of L vanishing on I, with the I coordinates dropped.

    Returns the contracted subspace viewed inside C^(complement of I), plus
    the surviving ambient indices in order.

    In the rref of L with the I columns first, the rows zero on I span the
    vectors of L vanishing on I and, with those columns dropped, are the
    rref of the result.  When I is a prefix of 1..n the stored rref already
    has that column order and no elimination runs.
    """
    drop = _check_index_set(I, L.ambient_n)
    dropped = set(drop)
    labels = tuple(i for i in range(1, L.ambient_n + 1) if i not in dropped)
    if not drop:
        return L, labels
    k = len(drop)
    B = L.basis
    if drop[-1] != k:
        B = rref(B.column_submatrix([i - 1 for i in drop + labels]))
    grid = tuple(row[k:] for row in B.entries if not any(row[:k]))
    return Subspace(len(labels), QMatrix(len(grid), len(labels), grid), len(grid)), labels
