"""Exact linear algebra over the rationals.

Matrices carry Fraction entries.  A subspace is stored by the primitive
integer rows of the reduced row echelon form of its row span: each rref row
scaled to integers, its content divided out and its pivot entry positive.
That form is as canonical as the rref itself, so subspace equality is plain
entrywise equality of the rows.  Input is brought to it by clearing
denominators once and running fraction-free (Bareiss) Gauss-Jordan
elimination on integers.  Restriction and contraction work on the stored
rows with integer pivot steps, so no minor goes through Fractions: they
appear only at the boundary, in QMatrix input, in rref() and in the
Subspace.basis matrix that the solver and JSON output read.

Coordinates of the ambient space are 1-based (the ground set of the matroid
downstream is {1, ..., n}).  Operations that drop coordinates return, next to
the result, the tuple of surviving ambient indices: survivor k of the result
lived at ambient index labels[k-1].
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .ratpoly import _frozen, format_rational, parse_rational


@_frozen
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


def _primitive(row: Sequence[int]) -> Sequence[int]:
    """The row divided by its content and signed so that its leading entry
    is positive (a zero row, or one already in that form, is returned as
    it is)."""
    g = gcd(*row)
    if g and next(a for a in row if a) < 0:
        g = -g
    return [a // g for a in row] if g and g != 1 else row


def _lead(row: Sequence[int]) -> int | None:
    """Position of the first nonzero entry (None for a zero row)."""
    return next((j for j, a in enumerate(row) if a), None)


def _eliminate(rows: Sequence[Sequence[int]], p: int, c: int) -> list:
    """The rows with column c cleared outside row p by one fraction-free
    pivot step on rows[p].  Each changed row is made primitive again; rows
    left unchanged are shared, not copied."""
    prow = rows[p]
    a = prow[c]
    out = []
    for i, row in enumerate(rows):
        f = row[c]
        out.append(_primitive([a * x - f * y for x, y in zip(row, prow)])
                   if f and i != p else row)
    return out


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The primitive integer rref rows of the span of integer rows.

    One fraction-free Gauss-Jordan elimination: each reduced row is a
    multiple of an rref row, so dividing out its content and fixing the
    sign of its pivot gives the canonical form a Subspace stores.
    """
    ech, _ = _bareiss_echelon(rows, reduced=True)
    return tuple(tuple(_primitive(row)) for row in ech)


def _pivot(rows: list[list[int]], j: int) -> list[list[int]]:
    """Linearly independent integer rows taken modulo their column j.

    Column j is eliminated with its first nonzero row, and that row is
    dropped.  The result spans the quotient by column j, so its zero
    columns are the columns that were multiples of column j.
    """
    p = next((i for i, row in enumerate(rows) if row[j]), None)
    if p is None:
        return rows
    out = _eliminate(rows, p, j)
    del out[p]
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
    return Subspace.from_matrix(A).basis


@_frozen
class Subspace:
    """A linear subspace of C^n stored by the primitive integer rows of the
    rref of its row span; equality of subspaces is equality of the rows."""

    ambient_n: int
    rows: tuple[tuple[int, ...], ...]

    # Written out, not left to _frozen: every restriction and contraction
    # builds a Subspace, and the generic __init__, == and hash are slower.
    def __init__(self, ambient_n: int, rows: tuple[tuple[int, ...], ...]):
        if ambient_n < 0:
            raise ValueError("ambient dimension must be nonnegative")
        if any(len(row) != ambient_n for row in rows):
            raise ValueError("row length inconsistent with ambient dimension")
        object.__setattr__(self, "ambient_n", ambient_n)
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.ambient_n == other.ambient_n and self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.ambient_n, self.rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> QMatrix:
        """The rref as a Fraction matrix, each row over its pivot entry;
        built on first use."""
        grid = tuple(tuple(Fraction(a, row[_lead(row)]) for a in row)
                     for row in self.rows)
        return QMatrix(len(grid), self.ambient_n, grid)

    @classmethod
    def from_matrix(cls, A: QMatrix) -> "Subspace":
        return cls(A.cols, _echelon(_integer_rows(A.entries)))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, ())

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def contains(self, vector: Sequence) -> bool:
        v = [parse_rational(e) for e in vector]
        if len(v) != self.ambient_n:
            raise ValueError("vector length does not match ambient dimension")
        return rank_int_rows([*self.rows, *_integer_rows([v])]) == self.dim


def kernel(L: Subspace) -> Subspace:
    """Orthogonal complement under the standard bilinear pairing.

    dim kernel(L) = n - dim L, and every basis vector of the result pairs to
    zero with every basis vector of L.
    """
    n = L.ambient_n
    # Read the nullspace off the free columns of the rref, every vector
    # scaled by the lcm of the pivot entries to stay integral.
    pivots = [_lead(row) for row in L.rows]
    scale = lcm(*(row[p] for row, p in zip(L.rows, pivots)))
    vectors = []
    for f in sorted(set(range(n)).difference(pivots)):
        v = [0] * n
        v[f] = scale
        for row, p in zip(L.rows, pivots):
            v[p] = -row[f] * scale // row[p]
        vectors.append(v)
    return Subspace(n, _echelon(vectors))


def _check_index_set(indices: Iterable[int], n: int) -> tuple[int, ...]:
    idx = sorted(set(int(i) for i in indices))
    if idx and (idx[0] < 1 or idx[-1] > n):
        raise ValueError(f"index set {idx} not inside 1..{n}")
    return tuple(idx)


def restrict_subspace(L: Subspace, F: Iterable[int]) -> tuple[Subspace, tuple[int, ...]]:
    """Coordinate projection of L onto the 1-based index set F.

    Returns the projected subspace together with the surviving ambient
    indices in order (new coordinate k corresponds to labels[k-1]).

    A stored row whose pivot column survives keeps its pivot, and is zero
    in every other pivot column.  Each row whose pivot column is dropped
    takes one pivot step at its first surviving nonzero column, which is
    cleared from the other rows; rows that vanish are dropped.
    """
    labels = _check_index_set(F, L.ambient_n)
    cols = [i - 1 for i in labels]
    kept = set(cols)
    rows = [_primitive([row[j] for j in cols]) for row in L.rows]
    for i, row in enumerate(L.rows):
        if _lead(row) not in kept:
            c = _lead(rows[i])
            if c is not None:
                rows = _eliminate(rows, i, c)
    rows = sorted((tuple(row) for row in rows if any(row)), key=_lead)
    return Subspace(len(cols), tuple(rows)), labels


def contract_subspace(L: Subspace, I: Iterable[int]) -> tuple[Subspace, tuple[int, ...]]:
    """Vectors of L vanishing on I, with the I coordinates dropped.

    Returns the contracted subspace viewed inside C^(complement of I), plus
    the surviving ambient indices in order.

    In the rref of L with the I columns first, the rows zero on I span the
    vectors of L vanishing on I and, with those columns dropped, are the
    rref of the result.  When I is a prefix of 1..n the stored rows already
    have that column order and no elimination runs.
    """
    drop = _check_index_set(I, L.ambient_n)
    dropped = set(drop)
    labels = tuple(i for i in range(1, L.ambient_n + 1) if i not in dropped)
    if not drop:
        return L, labels
    k = len(drop)
    rows = L.rows
    if drop[-1] != k:
        rows = _echelon([[row[i - 1] for i in drop + labels] for row in rows])
    return Subspace(len(labels), tuple(row[k:] for row in rows if not any(row[:k]))), labels
