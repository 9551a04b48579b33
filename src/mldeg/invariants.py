"""Tutte polynomial, characteristic polynomial, and friends.

Both polynomials run on one positional minor step, chi through the
deletion-contraction count D(M, d) = (-d)^r chi(1/d).  A
positional minor is the data of a minor with its elements renumbered 1..m
in order: the primitive integer rref rows of a realized minor (a tuple of
int tuples over m columns), or the basis bitmasks of an explicit one (a
frozenset, element k at bit k - 1).  It is its own memo key, so different
branches that reach the same minor share one entry, as in Haggard, Pearce
and Royle, "Computing Tutte polynomials" (ACM TOMS 37, 2010).  Each step
removes element 1:

  _rows_minors   M\\1 drops column 0 of every row and, unless the first row
                 is then zero (1 is a coloop), takes one fraction-free pivot
                 step on that row; M/1 is the other rows without column 0;
  _masks_minors  M\\1 is the masks without bit 0 and M/1 the masks with
                 it, both shifted right.

The recursions on that step:

  _dc_rows, _dc_masks  D in d of a loopless minor of rank at least 2: 0 on
                 a loop, (d - 1) D(M/1) on a coloop, D(M\\1) + d D(M/1)
                 otherwise; a child M\\1 or M/1 of rank 1 or 2 is read
                 off with no further recursion: d - 1 when it is loopless
                 of rank 1 (chi = t - 1), and 1 - p d + (p - 1) d^2 when
                 it is loopless of rank 2 with p points, its parallel
                 classes (chi = t^2 - p t + (p - 1));
  tutte          y T(M\\1) on a loop, x T(M/1) on a coloop, T(M\\1) + T(M/1)
                 otherwise; a rank-1 minor of m non-loops and l loops is
                 (x + y + ... + y^(m-1)) y^l at once;
  char_poly      chi_k = (-1)^r D_(r-k), with D run on the element order
                 1, ..., n: the one recursion per matroid behind every
                 degree.  `verify` checks the counts read off it against chi
                 summed over the lattice of flats (char_poly_flats), a route
                 that shares no code with it.

None of them makes a rank or closure query of the input.  Each memo table
lives for one top-level call; only the final chi is kept, on the Matroid
instance.

flat_terms reads chi(M|F) and |mu(M/F)| of every flat F off the walk up
the lattice of flats, with no deletion-contraction, so the two sides of
verify_stratification share no code.  The corank-nullity expansion over
all subsets is kept as an independent oracle for Tutte, and the
flats/Moebius expansion as one for chi.
"""

from __future__ import annotations

from functools import reduce
from operator import add, or_, sub

from .linalg import _eliminate, _lead, _primitive
from .matroids import Matroid, _flat_walk
from .ratpoly import BiPoly, UniPoly, _frozen


# -- the positional minor step --------------------------------------------------


def _rows_minors(rows: tuple) -> tuple[tuple | None, tuple]:
    """M\\1 and M/1 of the realized minor whose primitive rref rows are
    `rows`, where element 1 is no loop; M\\1 is None when 1 is a coloop.

    Column 0 is the pivot of the first row, so M/1 is the other rows with
    column 0 dropped; its loops are the zero columns left.  M\\1 drops
    column 0 from every row: when the first row is then zero, element 1 is
    a coloop; otherwise one pivot step on that row at its first nonzero
    column restores the rref.  Deletion leaves no loop.
    """
    head, *rest = [row[1:] for row in rows]
    contracted = tuple(rest)
    if not any(head):
        return None, contracted
    head = _primitive(head)
    c = _lead(head)
    reduced = _eliminate([head, *rest], 0, c)
    # The other rows keep their order.  Head goes before the first of them
    # whose pivot lies right of c: the first that is zero before c.
    at = next((i for i, row in enumerate(rest) if not any(row[:c])), len(rest))
    deleted = tuple(map(tuple, reduced[1:at + 1] + reduced[:1] + reduced[at + 1:]))
    return deleted, contracted


def _masks_minors(masks: frozenset) -> tuple[frozenset, frozenset]:
    """M\\1 and M/1 of the explicit minor whose bases have the bitmasks
    `masks`: the masks without bit 0 and the masks with it, shifted right.
    The first is empty when element 1 is a coloop, the second when it is a
    loop."""
    held, missed = [], []
    for b in masks:
        (held if b & 1 else missed).append(b >> 1)
    return frozenset(missed), frozenset(held)


# -- D(M, d), and chi from it ---------------------------------------------------


def _dc_combine(deleted: tuple | None, contracted: tuple) -> tuple:
    """Coefficients in d of deleted + d * contracted, or of
    (d - 1) * contracted when element 1 is a coloop (deleted is None).

    A nonzero D of a rank-r minor has r + 1 coefficients, so `deleted` is
    never shorter than d * contracted: as long when M/1 is loopless, and
    longer than the (0,) of a zero D(M/1) otherwise.
    """
    shifted = (0,) + contracted
    if deleted is None:
        return tuple(map(sub, shifted, contracted + (0,)))
    return tuple(map(add, deleted, shifted)) + deleted[len(shifted):]


def _dc_rows(rows: tuple, memo: dict) -> tuple:
    """D in d of the loopless realized minor of rank at least 2 whose
    primitive rref rows are `rows`."""
    value = memo.get(rows)
    if value is not None:
        return value
    deleted, contracted = _rows_minors(rows)
    if all(map(any, zip(*contracted))):
        contracted_value = _dc_rows_child(contracted, memo)
    else:
        contracted_value = ()
    deleted_value = None if deleted is None else _dc_rows_child(deleted, memo)
    value = _dc_combine(deleted_value, contracted_value)
    memo[rows] = value
    return value


def _dc_rows_child(rows: tuple, memo: dict) -> tuple:
    """D of a loopless child M\\1 or M/1 of _dc_rows: recursion from rank 3
    on, read off below it.  A rank-2 child has a point for each of its
    distinct primitive columns."""
    if len(rows) > 2:
        return _dc_rows(rows, memo)
    if len(rows) == 1:
        return -1, 1
    points = len({tuple(_primitive(column)) for column in zip(*rows)})
    return 1, -points, points - 1


def _dc_masks(masks: frozenset, n: int, memo: dict) -> tuple:
    """D in d of the loopless explicit minor of rank at least 2 on n
    elements whose bases have the bitmasks `masks`.  The loops of M/1 are
    the bits none of its masks covers."""
    value = memo.get(masks)
    if value is not None:
        return value
    deleted, contracted = _masks_minors(masks)
    if reduce(or_, contracted) == (1 << n - 1) - 1:
        contracted_value = _dc_masks_child(contracted, n - 1, memo)
    else:
        contracted_value = ()
    deleted_value = _dc_masks_child(deleted, n - 1, memo) if deleted else None
    value = _dc_combine(deleted_value, contracted_value)
    memo[masks] = value
    return value


def _dc_masks_child(masks: frozenset, n: int, memo: dict) -> tuple:
    """D of a loopless child M\\1 or M/1 of _dc_masks, on n elements:
    recursion from rank 3 on, read off below it.  In a rank-2 child the
    point of an element e is e and the elements that share no basis with
    it."""
    rank = next(iter(masks)).bit_count()
    if rank > 2:
        return _dc_masks(masks, n, memo)
    if rank == 1:
        return -1, 1
    points, rest = 0, (1 << n) - 1
    while rest:
        e = rest & -rest
        rest &= reduce(or_, (b for b in masks if b & e)) ^ e
        points += 1
    return 1, -points, points - 1


def _dc_coeffs(M: Matroid) -> tuple:
    """Coefficients in d of D(M, d), by deletion-contraction on the element
    order 1, ..., n, from the primitive rref rows of a realized M or the
    basis masks of an explicit one."""
    n = M.n
    if n == 0:
        return (1,)
    if M.loops():
        return ()
    if M.full_rank() == 1:
        # n parallel elements: d - 1, as for n = 1.
        return (-1, 1)
    if M.is_realized:
        return _dc_rows(M.subspace.rows, {})
    return _dc_masks(frozenset(M._basis_masks), n, {})


def char_poly(M: Matroid) -> UniPoly:
    """Characteristic polynomial chi(t) = (-1)^r T(1-t, 0), zero when the
    matroid has a loop.

    Since D(M, d) = (-d)^r chi(1/d), chi_k = (-1)^r D_(r-k): a nonzero D
    has r + 1 coefficients.  Computed on the first call and kept on M.
    """
    if M._charpoly is None:
        sign = -1 if M.full_rank() % 2 else 1
        M._charpoly = UniPoly([sign * c for c in reversed(_dc_coeffs(M))])
    return M._charpoly


# -- Tutte ----------------------------------------------------------------------


def _rank_one(m: int, loops: int) -> BiPoly:
    """T of m >= 1 parallel elements and `loops` loops:
    (x + y + ... + y^(m-1)) y^loops."""
    return BiPoly({(1, loops): 1, **{(0, j): 1 for j in range(loops + 1, loops + m)}})


def _tutte_rows(rows: tuple, memo: dict) -> BiPoly:
    """T of the realized minor whose primitive rref rows, at least one, are
    `rows`.  Column 0 is a loop when the first row, and so every row, is
    zero there."""
    value = memo.get(rows)
    if value is not None:
        return value
    if len(rows) == 1:
        m = sum(map(bool, rows[0]))
        value = _rank_one(m, len(rows[0]) - m)
    elif not rows[0][0]:
        value = _tutte_rows(tuple(row[1:] for row in rows), memo).shift(0, 1)
    else:
        deleted, contracted = _rows_minors(rows)
        value = _tutte_rows(contracted, memo)
        value = value.shift(1, 0) if deleted is None else _tutte_rows(deleted, memo) + value
    memo[rows] = value
    return value


def _tutte_masks(masks: frozenset, n: int, memo: dict) -> BiPoly:
    """T of the explicit minor of rank at least 1 on n elements whose bases
    have the bitmasks `masks`.  Equal masks on different n differ by loops
    at the end, so n is part of the key."""
    key = masks, n
    value = memo.get(key)
    if value is not None:
        return value
    if next(iter(masks)).bit_count() == 1:
        value = _rank_one(len(masks), n - len(masks))
    else:
        deleted, contracted = _masks_minors(masks)
        if not contracted:
            value = _tutte_masks(deleted, n - 1, memo).shift(0, 1)
        elif not deleted:
            value = _tutte_masks(contracted, n - 1, memo).shift(1, 0)
        else:
            value = _tutte_masks(deleted, n - 1, memo) + _tutte_masks(contracted, n - 1, memo)
    memo[key] = value
    return value


def tutte(M: Matroid) -> BiPoly:
    """Tutte polynomial by deletion-contraction on element 1 of each
    positional minor: y T(M\\1) on a loop, x T(M/1) on a coloop and
    T(M\\1) + T(M/1) otherwise, with a rank-1 minor read off at once and
    y^n for rank 0."""
    if not M.full_rank():
        return BiPoly({(0, M.n): 1})
    if M.is_realized:
        return _tutte_rows(M.subspace.rows, {})
    return _tutte_masks(frozenset(M._basis_masks), M.n, {})


def tutte_bruteforce(M: Matroid) -> BiPoly:
    """Corank-nullity expansion over all 2^n subsets (independent oracle):

        T(x, y) = sum over A of (x-1)^(r - rk A) * (y-1)^(|A| - rk A).
    """
    if M.n > 24:
        raise ValueError(f"brute-force Tutte limited to 24 elements, got {M.n}")
    r = M.full_rank()
    counts: dict[tuple[int, int], int] = {}
    ground = M.ground
    for mask in range(1 << M.n):
        subset = [ground[i] for i in range(M.n) if mask >> i & 1]
        key = (M.rank(subset), len(subset))
        counts[key] = counts.get(key, 0) + 1
    xm1 = BiPoly({(1, 0): 1, (0, 0): -1})
    ym1 = BiPoly({(0, 1): 1, (0, 0): -1})
    xpow = [BiPoly.one()]
    for _ in range(r):
        xpow.append(xpow[-1] * xm1)
    ypow = [BiPoly.one()]
    for _ in range(M.n - r if M.n >= r else 0):
        ypow.append(ypow[-1] * ym1)
    total = BiPoly.zero()
    for (rk, size), mult in counts.items():
        total = total + (xpow[r - rk] * ypow[size - rk]).scale(mult)
    return total


def _char_poly_from_tutte(T: BiPoly, r: int) -> UniPoly:
    """chi(t) = (-1)^r T(1 - t, 0)."""
    return T.x_slice_at_y_zero().compose_linear(1, -1).scale(-1 if r % 2 else 1)


def flat_terms(M: Matroid) -> tuple[tuple[UniPoly, int], ...]:
    """chi(M|F) and |mu(M/F)| for every flat F of M, in lattice order; built
    on the first call and kept on M.

    [bottom, F] is the lattice of M|F and [F, top] that of M/F, and the walk
    behind `flats` summed both: chi(M|F) has the coefficients it summed
    rank by rank below F (zero when M has loops), and |mu(M/F)| is what its
    pass from the top down, over the complements, gave F.  Flats with equal
    terms share one pair.
    """
    walk = _flat_walk(M)
    if walk.terms is None:
        loopless = not walk.masks[0]
        keys = [(chi if loopless else (), mu) for chi, mu in zip(walk.chis, walk.mus)]
        pairs = {key: (UniPoly(key[0]), key[1]) for key in set(keys)}
        walk.terms = tuple(pairs[key] for key in keys)
    return walk.terms


def char_poly_flats(M: Matroid) -> UniPoly:
    """Oracle route: chi(t) = sum over flats F of mu(empty, F) t^(r - rk F).

    Valid for loopless matroids; returns the zero polynomial otherwise to
    match the loop convention.
    """
    if M.loops():
        return UniPoly.zero()
    # The walk's sums at the top flat: mu(empty, G) over the flats G of each rank.
    return UniPoly(_flat_walk(M).chis[-1])


def mobius_invariant(M: Matroid) -> int:
    """mu(M) = chi(0); its absolute value is the degree of the reciprocal
    linear space of any realization."""
    value = char_poly(M).evaluate(0)
    return int(value)


def poincare_poly(M: Matroid) -> UniPoly:
    """Poincare polynomial of the arrangement complement of a realization:
    P(q) = (-q)^r chi(1/(-q)) read off as a coefficient reversal of chi.

    Defined for loopless matroids; coefficients are nonnegative with
    constant term 1.
    """
    if M.loops():
        raise ValueError("Poincare polynomial undefined for matroids with loops")
    return _poincare_from_chi(char_poly(M), M.full_rank())


def _poincare_from_chi(chi: UniPoly, r: int) -> UniPoly:
    coeffs = list(chi.coeffs) + [0] * (r + 1 - len(chi.coeffs))
    rev = [(-1) ** j * coeffs[r - j] for j in range(r + 1)]
    if any(c < 0 for c in rev):
        raise AssertionError(f"negative Poincare coefficient from chi={chi!r}")
    return UniPoly(rev)


@_frozen
class InvariantReport:
    n: int
    rank: int
    tutte: BiPoly
    charpoly: UniPoly
    mobius: int
    poincare: UniPoly | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "rank": self.rank,
            "tutte": self.tutte.to_term_list(),
            "charpoly": self.charpoly.to_coeff_strings(),
            "mobius": str(self.mobius),
            "poincare": (self.poincare.to_coeff_strings()
                         if self.poincare is not None else None),
        }


def compute_invariants(M: Matroid) -> InvariantReport:
    T = tutte(M)
    r = M.full_rank()
    chi = _char_poly_from_tutte(T, r)
    M._charpoly = chi
    poincare = _poincare_from_chi(chi, r) if M.is_loopless() else None
    return InvariantReport(
        n=M.n,
        rank=r,
        tutte=T,
        charpoly=chi,
        mobius=int(chi.evaluate(0)),
        poincare=poincare,
    )
