"""Tutte polynomial, characteristic polynomial, and friends.

Both polynomials run on positional minors, chi through the
deletion-contraction count D(M, d) = (-d)^r chi(1/d).  A positional minor
is the data of a minor with its elements renumbered 1..m in order, of one
of two kinds:

  _Rows   a realized minor: its primitive integer rref rows, a tuple of int
          tuples over m columns.  M\\1 drops column 0 of every row and,
          unless the first row is then zero (1 is a coloop), takes one
          fraction-free pivot step on that row (_rows_minors); M/1 is the
          other rows without column 0.
  _Masks  an explicit minor: the bitmasks of its bases, element k at bit
          k - 1, and m.  M\\1 is the masks without bit 0 and M/1 the masks
          with it, both shifted right.

A kind also gives the rank, the loopless test, the points (parallel
classes) of a rank-2 minor and the loops of a rank-1 one.  A minor is its
own memo key, so different branches that reach the same minor share one
entry, as in Haggard, Pearce and Royle, "Computing Tutte polynomials" (ACM
TOMS 37, 2010).  One recursion per algebra serves both kinds:

  _dc     D in d of a loopless minor: 0 on a loop, (d - 1) D(M/1) on a
          coloop, D(M\\1) + d D(M/1) otherwise; rank 1 and 2, the input's
          too, are read off: d - 1 (chi = t - 1), and 1 - p d + (p - 1) d^2
          with p points (chi = t^2 - p t + (p - 1));
  _tutte  y T(M\\1) on a loop, x T(M/1) on a coloop, T(M\\1) + T(M/1)
          otherwise; rank 1 with m non-loops and l loops is read off as
          (x + y + ... + y^(m-1)) y^l.

Each walks the deletion chain M, M\\1, M\\1\\2, ..., which keeps the
rank, in a loop and recurses only into contractions, so its depth is at most
the rank, not n.  char_poly reads chi_k = (-1)^r D_(r-k) off one D run on
the element order 1, ..., n: the one recursion per matroid behind every
degree.  `verify` checks the counts read off it against chi summed over the
lattice of flats (char_poly_flats), a route that shares no code with it.

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


# -- the two minor kinds --------------------------------------------------------


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


class _Rows:
    """A realized minor: its primitive rref rows, at least one."""

    @staticmethod
    def step(rows: tuple) -> tuple[tuple | None, tuple | None]:
        """M\\1, None on a coloop, and M/1, None on a loop: column 0 is a
        loop when the first row, and so every row, is zero there."""
        if rows[0][0]:
            return _rows_minors(rows)
        return tuple(row[1:] for row in rows), None

    rank = staticmethod(len)

    @staticmethod
    def loopless(rows: tuple) -> bool:
        return all(map(any, zip(*rows)))

    @staticmethod
    def points(rows: tuple) -> int:
        """Parallel classes of a loopless rank-2 minor: its distinct
        primitive columns."""
        return len({tuple(_primitive(column)) for column in zip(*rows)})

    @staticmethod
    def rank_one(rows: tuple) -> tuple[int, int]:
        """Non-loops and loops of a rank-1 minor."""
        m = sum(map(bool, rows[0]))
        return m, len(rows[0]) - m


class _Masks:
    """An explicit minor: the bitmasks of its bases and its size n.  Equal
    masks on different n differ by loops at the end."""

    @staticmethod
    def step(minor: tuple) -> tuple[tuple | None, tuple | None]:
        """M\\1, the masks without bit 0, and M/1, the masks with it, both
        shifted right; None where there are none (a coloop, a loop)."""
        masks, n = minor
        held, missed = [], []
        for b in masks:
            (held if b & 1 else missed).append(b >> 1)
        return ((frozenset(missed), n - 1) if missed else None,
                (frozenset(held), n - 1) if held else None)

    @staticmethod
    def rank(minor: tuple) -> int:
        return next(iter(minor[0])).bit_count()

    @staticmethod
    def loopless(minor: tuple) -> bool:
        masks, n = minor
        return reduce(or_, masks) == (1 << n) - 1

    @staticmethod
    def points(minor: tuple) -> int:
        """Parallel classes of a loopless rank-2 minor: the point of an
        element e is e and the elements that share no basis with it."""
        masks, n = minor
        points, rest = 0, (1 << n) - 1
        while rest:
            e = rest & -rest
            rest &= reduce(or_, (b for b in masks if b & e)) ^ e
            points += 1
        return points

    @staticmethod
    def rank_one(minor: tuple) -> tuple[int, int]:
        masks, n = minor
        return len(masks), n - len(masks)


def _root(M: Matroid) -> tuple:
    """The kind and the positional minor of M on the element order 1, ..., n."""
    if M.is_realized:
        return _Rows, M.subspace.rows
    return _Masks, (frozenset(M._basis_masks), M.n)


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


def _dc(kind: type, minor: tuple, memo: dict) -> tuple:
    """D in d of a loopless minor of the kind `kind`.  Deleting a non-coloop
    keeps the rank and adds no loop, so the chain walked from `minor` is read
    off or split as `minor` is, and only a loopless contraction recurses."""
    rank = kind.rank(minor)
    if rank == 1:
        return -1, 1
    if rank == 2:
        points = kind.points(minor)
        return 1, -points, points - 1
    chain = []
    value = memo.get(minor)
    while value is None:
        deleted, contracted = kind.step(minor)
        chain.append((minor, _dc(kind, contracted, memo) if kind.loopless(contracted) else ()))
        if deleted is None:
            break
        minor = deleted
        value = memo.get(minor)
    for minor, contracted_value in reversed(chain):
        value = _dc_combine(value, contracted_value)
        memo[minor] = value
    return value


def _dc_coeffs(M: Matroid) -> tuple:
    """Coefficients in d of D(M, d), by deletion-contraction on the element
    order 1, ..., n."""
    if M.n == 0:
        return (1,)
    if M.loops():
        return ()
    return _dc(*_root(M), {})


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


def _tutte(kind: type, minor: tuple, memo: dict) -> BiPoly:
    """T of a minor of rank at least 1 of the kind `kind`.  Deleting a loop
    or a non-coloop keeps the rank, so only a contraction recurses."""
    if kind.rank(minor) == 1:
        m, loops = kind.rank_one(minor)
        return BiPoly({(1, loops): 1, **{(0, j): 1 for j in range(loops + 1, loops + m)}})
    chain = []
    value = memo.get(minor)
    while value is None:
        deleted, contracted = kind.step(minor)
        chain.append((minor, None if contracted is None else _tutte(kind, contracted, memo)))
        if deleted is None:
            break
        minor = deleted
        value = memo.get(minor)
    for minor, contracted_value in reversed(chain):
        if value is None:
            value = contracted_value.shift(1, 0)
        elif contracted_value is None:
            value = value.shift(0, 1)
        else:
            value = value + contracted_value
        memo[minor] = value
    return value


def tutte(M: Matroid) -> BiPoly:
    """Tutte polynomial by deletion-contraction on element 1 of each
    positional minor, y^n for rank 0."""
    if not M.full_rank():
        return BiPoly({(0, M.n): 1})
    return _tutte(*_root(M), {})


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
    chi = char_poly(M)
    poincare = _poincare_from_chi(chi, r) if M.is_loopless() else None
    return InvariantReport(
        n=M.n,
        rank=r,
        tutte=T,
        charpoly=chi,
        mobius=int(chi.evaluate(0)),
        poincare=poincare,
    )
