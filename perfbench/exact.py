"""Reference answers computed without the program under test.

Everything here is plain integer arithmetic on the benchmark's own inputs:
an exact rank by fraction-free elimination, the Tutte polynomial by the
corank-nullity expansion (or the closed form for uniform matroids), and the
degrees the CLI reports, derived from that polynomial.  A Tutte polynomial
is a dict {(i, j): coefficient of x^i y^j}.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, gcd


def _reduce(vector: list[int], basis: list[tuple[int, list[int]]]) -> list[int]:
    v = list(vector)
    for pivot, b in basis:
        if v[pivot]:
            bp, vp = b[pivot], v[pivot]
            v = [x * bp - vp * y for x, y in zip(v, b)]
            g = 0
            for x in v:
                g = gcd(g, x)
            if g > 1:
                v = [x // g for x in v]
    return v


def _pivot(v: list[int]) -> int:
    return next(i for i, x in enumerate(v) if x)


def column_rank(columns: list[list[int]]) -> int:
    basis: list[tuple[int, list[int]]] = []
    for col in columns:
        v = _reduce(col, basis)
        if any(v):
            basis.append((_pivot(v), v))
    return len(basis)


def is_uniform(columns: list[list[int]], r: int) -> bool:
    """Every r columns independent (checked over all r-subsets)."""
    return all(column_rank([columns[j] for j in S]) == r
               for S in combinations(range(len(columns)), r))


def rank_size_counts_realized(columns: list[list[int]]) -> tuple[int, Counter]:
    """(rank, counts[(rank of A, |A|)]) over all subsets A of the columns.

    Depth-first over include/exclude with an incremental echelon basis; once
    the basis reaches full rank every superset has full rank too, so those
    subsets are counted by binomials.
    """
    n = len(columns)
    full = column_rank(columns)
    counts: Counter = Counter()

    def walk(i: int, basis: list, size: int) -> None:
        if len(basis) == full:
            rest = n - i
            for k in range(rest + 1):
                counts[(full, size + k)] += comb(rest, k)
            return
        if i == n:
            counts[(len(basis), size)] += 1
            return
        walk(i + 1, basis, size)
        v = _reduce(columns[i], basis)
        if any(v):
            walk(i + 1, basis + [(_pivot(v), v)], size + 1)
        else:
            walk(i + 1, basis, size + 1)

    walk(0, [], 0)
    return full, counts


def rank_size_counts_bases(n: int, bases: list[list[int]]) -> tuple[int, Counter]:
    sets = [frozenset(b) for b in bases]
    counts: Counter = Counter()
    for mask in range(1 << n):
        A = {e + 1 for e in range(n) if mask >> e & 1}
        counts[(max(len(b & A) for b in sets), len(A))] += 1
    return len(sets[0]), counts


def tutte_from_counts(r: int, counts: Counter) -> dict:
    """T(x, y) = sum over A of (x-1)^(r - rk A) (y-1)^(|A| - rk A)."""
    out: Counter = Counter()
    for (rk, size), mult in counts.items():
        a, b = r - rk, size - rk
        for i in range(a + 1):
            ci = comb(a, i) * (-1) ** (a - i)
            for j in range(b + 1):
                out[(i, j)] += mult * ci * comb(b, j) * (-1) ** (b - j)
    return {k: v for k, v in out.items() if v}


def uniform_tutte(n: int, r: int) -> dict:
    """Closed form for U_{r,n}."""
    if r == n:
        return {(n, 0): 1}
    if r == 0:
        return {(0, n): 1}
    out = {}
    for i in range(1, r + 1):
        out[(i, 0)] = comb(n - i - 1, r - i)
    for j in range(1, n - r + 1):
        out[(0, j)] = comb(n - j - 1, r - 1)
    return {k: v for k, v in out.items() if v}


def charpoly(T: dict, r: int) -> list[int]:
    """chi(t) = (-1)^r T(1 - t, 0), low-to-high, trailing zeros dropped."""
    coeffs = [0] * (r + 1)
    for (i, j), c in T.items():
        if j:
            continue
        for k in range(i + 1):
            coeffs[k] += c * comb(i, k) * (-1) ** k
    coeffs = [(-1) ** r * c for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def score_count(T: dict, r: int, d: int) -> int:
    """d^r T(1 - 1/d, 0) for d >= 1 and |chi(0)| for d = 0."""
    if d == 0:
        chi = charpoly(T, r)
        return abs(chi[0]) if chi else 0
    x = Fraction(d - 1, d)
    value = Fraction(d) ** r * sum(c * x ** i for (i, j), c in T.items() if j == 0)
    if value.denominator != 1:
        raise ArithmeticError(f"score count {value} is not an integer")
    return int(value)


def degrees(T: dict, r: int) -> dict:
    """Every number the CLI derives from the Tutte polynomial."""
    chi = charpoly(T, r)
    mobius = chi[0] if chi else 0
    padded = chi + [0] * (r + 1 - len(chi))
    poincare = [(-1) ** j * padded[r - j] for j in range(r + 1)] if chi else None
    while poincare and poincare[-1] == 0:
        poincare.pop()
    return {
        "rank": r,
        "tutte": sorted([i, j, c] for (i, j), c in T.items()),
        "charpoly": chi,
        "mobius": mobius,
        "poincare": poincare,
        "mld": abs(mobius),
        "rmld": score_count(T, r, 2),
    }
