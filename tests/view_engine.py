"""The view engine: deletion-contraction on labelled views of a matroid, the
reference the tests compare the positional engine of `mldeg.invariants`
with.

A view is a pair (R, C) of bitmasks: R the remaining elements, C the flat
spanned by the contracted ones.  Because rank_{M\\A/B}(S) = r(S + cl B) -
r(cl B), the view fixes the labelled minor, so it serves as its memo key.

  view_tutte      batches loops into a factor y and coloops into a factor
                  x, then branches on the smallest remaining element, unless
                  the view is one parallel class of rank 1;
  view_char_poly  recurses on chi alone: 0 on a loop, (t - 1) chi(M/e) on a
                  coloop, chi(M\\e) - chi(M/e) otherwise.  cl(C + e) gives
                  it the parallel partners of e in R: with one,
                  chi(M) = chi(M\\e), and with all of R, the view has rank 1
                  and chi = t - 1.

Besides its key, each view carries a state down the recursion, and a small
oracle answers what the recursions ask of a view: cl(C + S) with the state
that goes with it, the state after deleting a non-coloop e, whether e is a
coloop, and the coloops of R.

  MaskViews  the state is empty, and every answer is a rank_mask or
             closure_mask query of the input on the whole ground set.
  RowViews   for realized input, by a subspace L, the state is the r -
             rk(C) primitive integer rows of L taken modulo span(C), on n
             columns, in reduced echelon form over one pivot column per row
             inside R; their zero columns are C.  Deleting a non-pivot keeps
             the rows; deleting a pivot, no coloop, moves its row's pivot to
             another element of R by one fraction-free step; contracting
             drops the row of a pivot, after such a step for any other
             element.  The coloops are the pivots whose rows have no other
             nonzero entry in R.
"""

from __future__ import annotations

from itertools import compress

from mldeg import BiPoly, Matroid, UniPoly
from mldeg.linalg import _eliminate


def indices(mask: int) -> list[int]:
    """0-based positions of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class MaskViews:
    """View oracle on the mask rank oracle of M."""

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
        return sum(1 << j for j in indices(R) if self.is_coloop(R, C, None, 1 << j))


# A row view's state: its rows and, per row, its pivot and support bitmasks.
State = tuple[list, list[int], list[int]]


class RowViews:
    """View oracle on the integer rows of a realized M modulo span(C), in
    reduced echelon form over pivot columns inside R."""

    def __init__(self, M: Matroid):
        self.bits = [1 << j for j in range(M.n)]
        # The primitive rref rows the subspace stores; each lead is a pivot.
        self.rows = M.subspace.rows

    def _step(self, state: State, p: int, e: int) -> State:
        """The state with column e cleared outside row p by one _eliminate
        step; the rows it leaves as they are keep their supports."""
        rows, pivots, supports = state
        new, bits = _eliminate(rows, p, e.bit_length() - 1), self.bits
        return new, pivots, [s if row is old else sum(compress(bits, row))
                             for row, old, s in zip(new, rows, supports)]

    def start(self) -> tuple[int, State]:
        supports = [sum(compress(self.bits, row)) for row in self.rows]
        return self.contract(0, (self.rows, [s & -s for s in supports], supports), 0)

    def contract(self, C: int, state: State, S: int) -> tuple[int, State]:
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

    def delete(self, R: int, state: State, e: int) -> State:
        """The state of the view on R after deleting e, which is not a
        coloop: a pivot e hands its row to the last element of R in it."""
        pivots = state[1]
        if e not in pivots:
            return state
        p = pivots.index(e)
        f = 1 << (state[2][p] & R).bit_length() - 1
        rows, _, supports = self._step(state, p, f)
        return rows, [*pivots[:p], f, *pivots[p + 1:]], supports

    def is_coloop(self, R: int, C: int, state: State, e: int) -> bool:
        return e in state[1] and state[2][state[1].index(e)] & R == e

    def coloops(self, R: int, C: int, state: State) -> int:
        coloops = 0
        for s in state[2]:
            s &= R
            if not s & (s - 1):
                coloops |= s
        return coloops


def views(M: Matroid) -> MaskViews | RowViews:
    return RowViews(M) if M.is_realized else MaskViews(M)


def view_tutte(M: Matroid) -> BiPoly:
    """Tutte polynomial by deletion-contraction on the views of M."""
    oracle = views(M)
    memo: dict[tuple[int, int], BiPoly] = {}

    def view(R: int, C: int, state) -> BiPoly:
        key = (R, C)
        cached = memo.get(key)
        if cached is not None:
            return cached
        loops = R & C
        R ^= loops
        coloops = oracle.coloops(R, C, state)
        if coloops:
            R ^= coloops
            C, state = oracle.contract(C, state, coloops)
        if R:
            e = R & -R
            R ^= e
            Ce, state_e = oracle.contract(C, state, e)
            if R & ~Ce:
                value = view(R, C, oracle.delete(R, state, e)) + view(R, Ce, state_e)
            else:
                # R + e is one parallel class of rank 1: x + y + ... + y^|R|.
                value = BiPoly({(1, 0): 1, **{(0, j): 1 for j in range(1, R.bit_count() + 1)}})
        else:
            value = BiPoly.one()
        if coloops or loops:
            value = value.shift(coloops.bit_count(), loops.bit_count())
        memo[key] = value
        return value

    try:
        return view((1 << M.n) - 1, *oracle.start())
    finally:
        del view    # view refers to itself; without it the memo is freed now


T_MINUS_ONE = UniPoly((-1, 1))


class ViewChi:
    """chi of the views of one matroid, memoized per instance.

    chi(R, C, state) is the characteristic polynomial of the minor on the
    elements R after contracting the flat C, whose state `views` gave.
    """

    __slots__ = ("memo", "views")

    def __init__(self, views: MaskViews | RowViews):
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
            value = T_MINUS_ONE
        elif Ce & rest:
            # e has a parallel partner in R, so M/e has a loop.
            value = self.chi(rest, C, views.delete(rest, state, e))
        elif views.is_coloop(R, C, state, e):
            value = T_MINUS_ONE * self.chi(rest, Ce, state_e)
        else:
            value = (self.chi(rest, C, views.delete(rest, state, e))
                     - self.chi(rest, Ce, state_e))
        self.memo[key] = value
        return value


def view_chi(views: MaskViews | RowViews):
    """chi of the views of one matroid, memoized per returned function."""
    return ViewChi(views).chi


def view_char_poly(M: Matroid) -> UniPoly:
    """chi of M by the view recursion, from the start view."""
    oracle = views(M)
    return view_chi(oracle)((1 << M.n) - 1, *oracle.start())
