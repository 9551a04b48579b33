"""Tutte polynomial, characteristic polynomial, and friends.

Production routes run deletion-contraction on views of the input matroid
rather than on minors built one by one.  A view is a pair (R, C) of
bitmasks: R the remaining elements, C the flat spanned by the contracted
ones.  Because rank_{M\\A/B}(S) = r(S + cl B) - r(cl B), the view fixes the
labelled minor, so it serves as its memo key, and every rank query goes to
the one mask-keyed rank oracle of the input.

  tutte      batches loops into a factor y and coloops into a factor x, then
             branches on the smallest remaining element;
  char_poly  recurses on chi alone: 0 on a loop, (t - 1) chi(M/e) on a
             coloop, chi(M\\e) - chi(M/e) otherwise.  When e has a parallel
             partner, M/e has a loop, so chi(M) = chi(M\\e) and e is dropped
             before the view is memoized.

Each memo table lives for one top-level call; only the final chi is kept,
on the Matroid instance.  The corank-nullity expansion over all subsets is
kept as an independent oracle, and the flats/Moebius expansion of the
characteristic polynomial doubles as a second oracle for chi; neither goes
through the view recursions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .matroids import Matroid, flats
from .ratpoly import BiPoly, UniPoly


def tutte(M: Matroid) -> BiPoly:
    """Tutte polynomial by deletion-contraction.

    Loops contribute a factor y, coloops a factor x, and otherwise
    T = T(delete e) + T(contract e) on the smallest remaining element.
    """
    rank, closure = M.rank_mask, M.closure_mask
    memo: dict[tuple[int, int], BiPoly] = {}

    def view(R: int, C: int, coloop_free: bool = False) -> BiPoly:
        key = (R, C)
        cached = memo.get(key)
        if cached is not None:
            return cached
        loops = R & C
        R ^= loops
        coloops = 0
        # Contracting an element of a coloop-free view leaves it coloop-free.
        if not coloop_free:
            full = rank(R | C)
            rest = R
            while rest:
                e = rest & -rest
                rest ^= e
                if rank((R | C) ^ e) < full:
                    coloops |= e
        if coloops:
            R ^= coloops
            C = closure(C | coloops)
        value = BiPoly({(coloops.bit_count(), loops.bit_count()): 1})
        if R:
            e = R & -R
            R ^= e
            value = value * (view(R, C) + view(R, closure(C | e), True))
        memo[key] = value
        return value

    return view((1 << M.n) - 1, closure(0))


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


def _view_chi(M: Matroid) -> Callable[[int, int], UniPoly]:
    """chi of the views of M, memoized per returned function.

    chi(R, C) is the characteristic polynomial of the minor on the
    elements R after contracting the flat C.
    """
    rank, closure = M.rank_mask, M.closure_mask
    memo: dict[tuple[int, int], UniPoly] = {}

    def chi(R: int, C: int) -> UniPoly:
        if R & C:
            return UniPoly.zero()
        while R:
            e = R & -R
            Ce = closure(C | e)
            if not (Ce & R) ^ e:
                break
            R ^= e
        if not R:
            return UniPoly.one()
        key = (R, C)
        cached = memo.get(key)
        if cached is not None:
            return cached
        rest = R ^ e
        if rank(rest | C) < rank(R | C):
            value = _T_MINUS_ONE * chi(rest, Ce)
        else:
            value = chi(rest, C) - chi(rest, Ce)
        memo[key] = value
        return value

    return chi


def char_poly(M: Matroid) -> UniPoly:
    """Characteristic polynomial chi(t) = (-1)^r T(1-t, 0), zero when the
    matroid has a loop."""
    if M._charpoly is None:
        M._charpoly = _view_chi(M)((1 << M.n) - 1, M.closure_mask(0))
    return M._charpoly


def _char_poly_from_tutte(T: BiPoly, r: int) -> UniPoly:
    """chi(t) = (-1)^r T(1 - t, 0)."""
    return T.x_slice_at_y_zero().compose_linear(1, -1).scale(-1 if r % 2 else 1)


def flat_minor_terms(M: Matroid) -> Callable[[Iterable[int]], tuple[UniPoly, int]]:
    """A function taking a flat F of M to chi(M|F) and |mu(M/F)|.

    M|F is the view (F, cl(empty)) and M/F the view (E - F, F); one chi memo
    serves every flat passed to the returned function, and no minor is built.
    """
    chi = _view_chi(M)
    ground = (1 << M.n) - 1
    bottom = M.closure_mask(0)

    def terms(F: Iterable[int]) -> tuple[UniPoly, int]:
        mask = M.mask(F)
        return chi(mask, bottom), abs(chi(ground ^ mask, mask).evaluate(0))

    return terms


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


@dataclass(frozen=True)
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
    poincare = _poincare_from_chi(chi, r) if M.is_loopless() else None
    return InvariantReport(
        n=M.n,
        rank=r,
        tutte=T,
        charpoly=chi,
        mobius=int(chi.evaluate(0)),
        poincare=poincare,
    )
