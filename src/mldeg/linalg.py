"""Exact linear algebra over the rationals.

Matrices carry Fraction entries.  A subspace is stored by the primitive
integer rows of the reduced row echelon form of its row span: each rref row
scaled to integers, its content divided out and its pivot entry positive.
That form is as canonical as the rref itself, so subspace equality is plain
entrywise equality of the rows.  Every integer elimination here is built
from one fraction-free pivot step, _eliminate, which clears a column outside
one row and divides each changed row by its content.  Input is brought to
the stored form by clearing denominators once and running Gauss-Jordan
elimination by such steps; a rank is the number of rows of that form.  Rows
taken modulo a set of columns (_modulo) are one _pivot step per column,
which drops the row it pivots on: for the stored rows, the rank of the set
is the number of rows dropped, and the zero columns left mark its closure.
The minors of mldeg.invariants take the same steps on the stored rows, so no
minor goes through Fractions: they appear only at the boundary, in QMatrix
input, in rref() and in the Subspace.basis matrix that the solver and JSON
output read.

Column j of the stored rows is coordinate j + 1 of the ambient space (the
ground set of the matroid downstream is {1, ..., n}).
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
        mult = lcm(*(e.denominator for e in row))
        out.append([int(e * mult) for e in row])
    return out


def _primitive(row: Sequence[int]) -> Sequence[int]:
    """The row divided by its content and signed so that its leading entry
    is positive (a zero row, or one already in that form, is returned as
    it is)."""
    g = gcd(*row)
    if g and next(filter(None, row)) < 0:
        g = -g
    return list(map(g.__rfloordiv__, row)) if g and g != 1 else row


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

    Gauss-Jordan elimination by _eliminate steps: each reduced row is a
    multiple of an rref row, so dividing out its content and fixing the
    sign of its pivot gives the canonical form a Subspace stores.
    """
    rows = list(rows)
    done = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(done, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[done], rows[p] = rows[p], rows[done]
        rows = _eliminate(rows, done, c)
        done += 1
    return tuple(tuple(_primitive(row)) for row in rows[:done])


def _pivot(rows: Sequence[Sequence[int]], j: int) -> list:
    """Integer rows taken modulo their column j.

    Column j is eliminated with its last nonzero row, and that row is
    dropped.  The result spans the vectors of the row span that vanish at
    column j, so its zero columns are the columns that were multiples of
    column j.  Rows with a zero column j are returned as they are.  The
    last row rather than the first keeps the rows sparser.
    """
    p = next((i for i in range(len(rows) - 1, -1, -1) if rows[i][j]), None)
    if p is None:
        return rows
    out = _eliminate(rows, p, j)
    del out[p]
    return out


def _modulo(rows: Sequence[Sequence[int]], mask: int, n: int
            ) -> tuple[Sequence[Sequence[int]], int]:
    """Rows of n columns taken modulo the columns in the bitmask `mask`, one
    _pivot per column, and the mask of the zero columns of the result.

    For linearly independent rows that mask is the closure of `mask` in
    their column matroid, and len(rows) falls by the rank of `mask`.
    """
    while mask:
        low = mask & -mask
        rows = _pivot(rows, low.bit_length() - 1)
        mask ^= low
    zero = (1 << n) - 1
    for j, column in enumerate(zip(*rows)):
        if any(column):
            zero ^= 1 << j
    return rows, zero


def rank(A: QMatrix) -> int:
    """Exact rank over the rationals."""
    return Subspace.from_matrix(A).dim


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

    def __post_init__(self):
        if self.ambient_n < 0:
            raise ValueError("ambient dimension must be nonnegative")
        if any(len(row) != self.ambient_n for row in self.rows):
            raise ValueError("row length inconsistent with ambient dimension")

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
