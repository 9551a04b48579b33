"""Tutte polynomial, characteristic polynomial, and friends.

Production routes run deletion-contraction on views of the input matroid
rather than on minors built one by one.  A view is a pair (R, C) of
bitmasks: R the remaining elements, C the flat spanned by the contracted
ones.  Because rank_{M\\A/B}(S) = r(S + cl B) - r(cl B), the view fixes the
labelled minor, so it serves as its memo key.

  tutte      batches loops into a factor y and coloops into a factor x, then
             branches on the smallest remaining element, unless the view
             is one parallel class of rank 1;
  char_poly  recurses on chi alone: 0 on a loop, (t - 1) chi(M/e) on a
             coloop, chi(M\\e) - chi(M/e) otherwise.  cl(C + e) gives it
             the parallel partners of e in R: with one, chi(M) = chi(M\\e),
             and with all of R, the view has rank 1 and chi = t - 1.

Besides its key, each view carries a state down the recursion, and a small
oracle answers what the recursions ask of a view: cl(C + S) with the state
that goes with it, the state after deleting a non-coloop e, whether e is a
coloop, and the coloops of R.

  _MaskViews  the state is empty, and every answer is a rank_mask or
              closure_mask query of the input on the whole ground set.
              This is the only route for explicit input and the reference
              the tests compare the row route with.
  _RowViews   for realized input, by a subspace L, the state is the r -
              rk(C) primitive integer rows of L taken modulo span(C), on n
              columns, in reduced echelon form over one pivot column per
              row inside R; their zero columns are C.  Deleting a non-pivot
              keeps the rows; deleting a pivot, no coloop, moves its row's
              pivot to another element of R by one fraction-free step;
              contracting drops the row of a pivot, after such a step for
              any other element.  The coloops are the pivots whose rows
              have no other nonzero entry in R.  So tutte and char_poly make
              no rank or closure query of the input, and the rows in flight
              take recursion depth x r x n integers.

flat_terms reads chi(M|F) and |mu(M/F)| of every flat F off the walk up
the lattice of flats, with no view recursion, so the two sides of
verify_stratification share no code.

Each memo table lives for one top-level call; only the final chi is kept,
on the Matroid instance.  The corank-nullity expansion over all subsets is
kept as an independent oracle, and the flats/Moebius expansion of the
characteristic polynomial doubles as a second oracle for chi; neither goes
through the view recursions.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import compress

from .linalg import _eliminate
from .matroids import Matroid, _flat_walk
from .ratpoly import BiPoly, UniPoly, _frozen


def _indices(mask: int) -> list[int]:
    """0-based positions of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _MaskViews:
    """View oracle on the mask rank oracle of M (explicit input, reference)."""

    def __init__(self, M: Matroid):
        self.rank, self.closure = M.rank_mask, M.closure_mask

    def start(self) -> tuple[int, None]:
        return self.closure(0), None

    def contract(self, C: int, state: None, S: int) -> tuple[int, None]:
        return self.closure(C | S), None

    def delete(self, R: int, state: None, e: int) -> None:
        return None

    def is_coloop(self, R: int, C: int, state: None, e: int) -> bool:
        return self.rank((R ^ e) | C) < self.rank(R | C)

    def coloops(self, R: int, C: int, state: None) -> int:
        return sum(1 << j for j in _indices(R) if self.is_coloop(R, C, None, 1 << j))


# A row view's state: its rows and, per row, its pivot and support bitmasks.
_State = tuple[list, list[int], list[int]]


class _RowViews:
    """View oracle on the integer rows of a realized M modulo span(C), in
    reduced echelon form over pivot columns inside R."""

    def __init__(self, M: Matroid):
        self.bits = [1 << j for j in range(M.n)]
        # The primitive rref rows the subspace stores; each lead is a pivot.
        self.rows = M.subspace.rows

    def _step(self, state: _State, p: int, e: int) -> _State:
        """The state with column e cleared outside row p by one _eliminate
        step; the rows it leaves as they are keep their supports."""
        rows, pivots, supports = state
        new, bits = _eliminate(rows, p, e.bit_length() - 1), self.bits
        return new, pivots, [s if row is old else sum(compress(bits, row))
                             for row, old, s in zip(new, rows, supports)]

    def start(self) -> tuple[int, _State]:
        supports = [sum(compress(self.bits, row)) for row in self.rows]
        return self.contract(0, (self.rows, [s & -s for s in supports], supports), 0)

    def contract(self, C: int, state: _State, S: int) -> tuple[int, _State]:
        """cl(C + S), the zero columns, and the state with the rows modulo
        its span.  For each element of S, its column is cleared outside the
        last row that holds it, and that row is dropped."""
        rows, pivots, supports = state
        S &= ~C
        while S:
            e = S & -S
            S ^= e
            if e in pivots:
                p = pivots.index(e)
            else:
                holders = [i for i, s in enumerate(supports) if s & e]
                if not holders:
                    continue
                p = holders[-1]
                if len(holders) > 1:
                    rows, pivots, supports = self._step(
                        (rows, pivots, supports), p, e)
            rows, pivots, supports = list(rows), pivots.copy(), supports.copy()
            del rows[p], pivots[p], supports[p]
        nonzero = 0
        for s in supports:
            nonzero |= s
        return ((1 << len(self.bits)) - 1) ^ nonzero, (rows, pivots, supports)

    def delete(self, R: int, state: _State, e: int) -> _State:
        """The state of the view on R after deleting e, which is not a
        coloop: a pivot e hands its row to the last element of R in it."""
        pivots = state[1]
        if e not in pivots:
            return state
        p = pivots.index(e)
        f = 1 << (state[2][p] & R).bit_length() - 1
        rows, _, supports = self._step(state, p, f)
        return rows, [*pivots[:p], f, *pivots[p + 1:]], supports

    def is_coloop(self, R: int, C: int, state: _State, e: int) -> bool:
        return e in state[1] and state[2][state[1].index(e)] & R == e

    def coloops(self, R: int, C: int, state: _State) -> int:
        coloops = 0
        for s in state[2]:
            s &= R
            if not s & (s - 1):
                coloops |= s
        return coloops


def _views(M: Matroid) -> _MaskViews | _RowViews:
    return _RowViews(M) if M.is_realized else _MaskViews(M)


_BI_ONE = BiPoly.one()


def tutte(M: Matroid) -> BiPoly:
    """Tutte polynomial by deletion-contraction.

    Loops contribute a factor y, coloops a factor x, and otherwise
    T = T(delete e) + T(contract e) on the smallest remaining element; a
    view of one parallel class of m elements is x + y + ... + y^(m-1).
    The factors of a view are applied as one shift of the exponents.
    """
    views = _views(M)
    memo: dict[tuple[int, int], BiPoly] = {}

    def view(R: int, C: int, state) -> BiPoly:
        key = (R, C)
        cached = memo.get(key)
        if cached is not None:
            return cached
        loops = R & C
        R ^= loops
        coloops = views.coloops(R, C, state)
        if coloops:
            R ^= coloops
            C, state = views.contract(C, state, coloops)
        if R:
            e = R & -R
            R ^= e
            Ce, state_e = views.contract(C, state, e)
            if R & ~Ce:
                value = view(R, C, views.delete(R, state, e)) + view(R, Ce, state_e)
            else:
                # R + e is one parallel class of rank 1: x + y + ... + y^|R|.
                value = BiPoly({(1, 0): 1, **{(0, j): 1 for j in range(1, R.bit_count() + 1)}})
        else:
            value = _BI_ONE
        if coloops or loops:
            value = value.shift(coloops.bit_count(), loops.bit_count())
        memo[key] = value
        return value

    try:
        return view((1 << M.n) - 1, *views.start())
    finally:
        del view    # view refers to itself; without it the memo is freed now


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


_T_MINUS_ONE = UniPoly((-1, 1))


class _ViewChi:
    """chi of the views of one matroid, memoized per instance.

    chi(R, C, state) is the characteristic polynomial of the minor on the
    elements R after contracting the flat C, whose state `views` gave.  It
    recurses through the instance rather than through a closure that holds
    itself, so the memo is freed with the last reference to `chi`, not by
    the cyclic garbage collector.
    """

    __slots__ = ("memo", "views")

    def __init__(self, views: _MaskViews | _RowViews):
        self.memo: dict[tuple[int, int], UniPoly] = {}
        self.views = views

    def chi(self, R: int, C: int, state) -> UniPoly:
        if R & C:
            return UniPoly.zero()
        if not R:
            return UniPoly.one()
        key = (R, C)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        views = self.views
        e = R & -R
        rest = R ^ e
        Ce, state_e = views.contract(C, state, e)
        if not rest & ~Ce:
            # Every other element of R is parallel to e: a rank 1 view.
            value = _T_MINUS_ONE
        elif Ce & rest:
            # e has a parallel partner in R, so M/e has a loop.
            value = self.chi(rest, C, views.delete(rest, state, e))
        elif views.is_coloop(R, C, state, e):
            value = _T_MINUS_ONE * self.chi(rest, Ce, state_e)
        else:
            value = (self.chi(rest, C, views.delete(rest, state, e))
                     - self.chi(rest, Ce, state_e))
        self.memo[key] = value
        return value


def _view_chi(views: _MaskViews | _RowViews
              ) -> Callable[[int, int, object], UniPoly]:
    """chi of the views of one matroid, memoized per returned function."""
    return _ViewChi(views).chi


def char_poly(M: Matroid) -> UniPoly:
    """Characteristic polynomial chi(t) = (-1)^r T(1-t, 0), zero when the
    matroid has a loop."""
    if M._charpoly is None:
        views = _views(M)
        M._charpoly = _view_chi(views)((1 << M.n) - 1, *views.start())
    return M._charpoly


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
