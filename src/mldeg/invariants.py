"""Tutte polynomial, characteristic polynomial, and friends.

Production routes run deletion-contraction on views of the input matroid
rather than on minors built one by one.  A view is a pair (R, C) of
bitmasks: R the remaining elements, C the flat spanned by the contracted
ones.  Because rank_{M\\A/B}(S) = r(S + cl B) - r(cl B), the view fixes the
labelled minor, so it serves as its memo key.

  tutte      batches loops into a factor y and coloops into a factor x, then
             branches on the smallest remaining element;
  char_poly  recurses on chi alone: 0 on a loop, (t - 1) chi(M/e) on a
             coloop, chi(M\\e) - chi(M/e) otherwise.  When e has a parallel
             partner, M/e has a loop, so chi(M) = chi(M\\e) and e is dropped
             before the view is memoized.

Besides its key, each view carries a state down the recursion, and a small
oracle answers what the recursions ask of a view: cl(C + S) with the state
that goes with it, which elements have a parallel partner in R, whether e
is a coloop, and the coloops of R.

  _MaskViews  the state is empty, and every answer is a rank_mask or
              closure_mask query of the input on the whole ground set.
              This is the only route for explicit input and the reference
              the tests compare the row route with.
  _RowViews   for realized input, the state is the integer rows of the
              input projected modulo span(C), each divided by its content:
              r - rk(C) rows over all n columns, whose zero columns are
              exactly C.  Deleting e keeps the rows.  Contracting e is one
              fraction-free pivot step on column e, and cl(C + e) is C plus
              the columns that step zeroes.  Elements of R are parallel when
              their columns are multiples of each other, and coloops come
              from one small elimination of the rows restricted to R.  So
              tutte and char_poly make no rank or closure query of the
              input, they leave its mask caches empty, and the rows in
              flight take recursion depth x r x n integers.

flat_terms reads chi(M|F) and |mu(M/F)| of every flat F off the lattice of
flats, with no view recursion, so the two sides of verify_stratification
share no code.

Each memo table lives for one top-level call; only the final chi is kept,
on the Matroid instance.  The corank-nullity expansion over all subsets is
kept as an independent oracle, and the flats/Moebius expansion of the
characteristic polynomial doubles as a second oracle for chi; neither goes
through the view recursions.
"""

from __future__ import annotations

from collections.abc import Callable

from .linalg import _bareiss_echelon, _pivot
from .matroids import Matroid, _mask_of, flats
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

    def drop_parallel(self, R: int, C: int, state: None) -> int:
        closure = self.closure
        while R:
            e = R & -R
            if not (closure(C | e) & R) ^ e:
                break
            R ^= e
        return R

    def is_coloop(self, R: int, C: int, state: None, e: int) -> bool:
        return self.rank((R ^ e) | C) < self.rank(R | C)

    def coloops(self, R: int, C: int, state: None) -> int:
        full = self.rank(R | C)
        coloops = 0
        for j in _indices(R):
            if self.rank((R | C) ^ (1 << j)) < full:
                coloops |= 1 << j
        return coloops


class _RowViews:
    """View oracle on the integer rows of a realized M modulo span(C)."""

    def __init__(self, M: Matroid):
        self.ground = (1 << M.n) - 1
        # The primitive integer rref rows the subspace of M stores.
        self.rows = M._int_rows

    def start(self) -> tuple[int, list[list[int]]]:
        return self.contract(0, self.rows, 0)

    def contract(self, C: int, rows: list[list[int]], S: int
                 ) -> tuple[int, list[list[int]]]:
        """cl(C + S) and the rows modulo its span: a pivot step on each
        column of S still nonzero, then C grows by the zero columns."""
        for j in _indices(S & ~C):
            rows = _pivot(rows, j)
        if not rows:
            return self.ground, rows
        for j, column in enumerate(zip(*rows)):
            if not any(column):
                C |= 1 << j
        return C, rows

    def drop_parallel(self, R: int, C: int, rows: list[list[int]]) -> int:
        # f is parallel to e when column f is a multiple of column e; the
        # loop stops at the first e with no such f left in R.
        columns = list(zip(*rows))
        while R:
            e = R & -R
            ce = columns[e.bit_length() - 1]
            p = next(i for i, a in enumerate(ce) if a)
            a = ce[p]
            for j in _indices(R ^ e):
                cf = columns[j]
                b = cf[p]
                if b and all(x * b == y * a for x, y in zip(ce, cf)):
                    break
            else:
                break
            R ^= e
        return R

    def is_coloop(self, R: int, C: int, rows: list[list[int]], e: int) -> bool:
        # With column e last, e is a coloop of R exactly when it pivots.
        cols = _indices(R ^ e) + [e.bit_length() - 1]
        _, piv = _bareiss_echelon([[row[j] for j in cols] for row in rows])
        return piv[-1] == len(cols) - 1

    def coloops(self, R: int, C: int, rows: list[list[int]]) -> int:
        # In the reduced echelon form a pivot column is a coloop exactly when
        # no free column uses its row.
        cols = _indices(R)
        if not cols:
            return 0
        ech, piv = _bareiss_echelon([[row[j] for j in cols] for row in rows],
                                    reduced=True)
        free = sorted(set(range(len(cols))).difference(piv))
        coloops = 0
        for row, k in zip(ech, piv):
            if not any(row[f] for f in free):
                coloops |= 1 << cols[k]
        return coloops


def _views(M: Matroid) -> _MaskViews | _RowViews:
    return _RowViews(M) if M.is_realized else _MaskViews(M)


_BI_ONE = BiPoly.one()


def tutte(M: Matroid) -> BiPoly:
    """Tutte polynomial by deletion-contraction.

    Loops contribute a factor y, coloops a factor x, and otherwise
    T = T(delete e) + T(contract e) on the smallest remaining element.
    The factors of a view are applied as one shift of the exponents.
    """
    views = _views(M)
    memo: dict[tuple[int, int], BiPoly] = {}

    def view(R: int, C: int, state, coloop_free: bool = False) -> BiPoly:
        key = (R, C)
        cached = memo.get(key)
        if cached is not None:
            return cached
        loops = R & C
        R ^= loops
        # Contracting an element of a coloop-free view leaves it coloop-free.
        coloops = 0 if coloop_free else views.coloops(R, C, state)
        if coloops:
            R ^= coloops
            C, state = views.contract(C, state, coloops)
        if R:
            e = R & -R
            R ^= e
            value = (view(R, C, state)
                     + view(R, *views.contract(C, state, e), True))
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
        views = self.views
        R = views.drop_parallel(R, C, state)
        if not R:
            return UniPoly.one()
        key = (R, C)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        e = R & -R
        rest = R ^ e
        Ce, state_e = views.contract(C, state, e)
        if views.is_coloop(R, C, state, e):
            value = _T_MINUS_ONE * self.chi(rest, Ce, state_e)
        else:
            value = self.chi(rest, C, state) - self.chi(rest, Ce, state_e)
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
    """chi(M|F) and |mu(M/F)| for every flat F of M, in lattice order.

    [bottom, F] is the lattice of M|F and [F, top] that of M/F, so chi(M|F)
    is the sum of mu(bottom, G) t^(rk F - rk G) over the flats G in F (zero
    when M has loops), and |mu(M/F)| = |mu(F, top)|, with mu(top, top) = 1
    and mu(F, top) = -(sum of mu(G, top) over the flats G above F).  Subset
    tests run between the flats of two ranks at a time.  Flats with equal
    terms share one pair.
    """
    lattice = flats(M)
    levels = [[] for _ in range(lattice.ranks[-1] + 1)]
    for F, rk, mu in zip(lattice.flats, lattice.ranks, lattice.mobius):
        levels[rk].append((_mask_of(F), mu))
    # The comprehension reads `above` before it grows by the level.
    above = [(levels[-1][0][0], 1)]
    for level in reversed(levels[:-1]):
        above += [(F, -sum(nu for G, nu in above if F & G == F)) for F, _ in level]
    up = dict(above)
    keys = []
    for k, level in enumerate(levels):
        for F, mu in level:
            below = (sum(nu for G, nu in levels[j] if G & F == G)
                     for j in range(k - 1, -1, -1))
            keys.append((() if lattice.bottom else (mu, *below), abs(up[F])))
    pairs = {key: (UniPoly(key[0]), key[1]) for key in set(keys)}
    return tuple(pairs[key] for key in keys)


def char_poly_flats(M: Matroid) -> UniPoly:
    """Oracle route: chi(t) = sum over flats F of mu(empty, F) t^(r - rk F).

    Valid for loopless matroids; returns the zero polynomial otherwise to
    match the loop convention.
    """
    if M.loops():
        return UniPoly.zero()
    lattice = flats(M)
    r = M.full_rank()
    coeffs = [0] * (r + 1)
    for rk, mu in zip(lattice.ranks, lattice.mobius):
        coeffs[r - rk] += mu
    return UniPoly(coeffs)


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
