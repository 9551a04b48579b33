"""Shared test corpus: a deterministic zoo of matroids.

The corpus mixes every small uniform matroid, a few named classics, some
explicit-bases inputs, and a seeded stream of random integer matrices with
occasional zero columns (loops) and duplicated columns (parallel elements).
Size checks in the acceptance suite rely on corpus_upto(9) having at least
200 entries.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from mldeg import FlatLattice, Matroid, QMatrix, UniPoly, uniform_matroid
from mldeg.matroids import _elements_of, _mask_of

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


K4_COLUMNS = [
    # edge columns e_u - e_v of the complete graph on 4 vertices
    (1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1),
    (0, 1, -1, 0), (0, 1, 0, -1), (0, 0, 1, -1),
]


def k4_matroid() -> Matroid:
    rows = [[col[i] for col in K4_COLUMNS] for i in range(4)]
    return Matroid.from_matrix(QMatrix.from_rows(rows, cols=6))


# Vamos matroid: rank-4 paving matroid on 8 elements whose dependent
# 4-sets are five circuit hyperplanes; not representable over any field,
# so it exercises the explicit-bases path on genuinely non-realizable input.
VAMOS_NONBASES = [
    frozenset(s)
    for s in ([1, 2, 3, 4], [1, 2, 5, 6], [1, 2, 7, 8],
              [3, 4, 5, 6], [3, 4, 7, 8])
]


def vamos_matroid() -> Matroid:
    bases = [
        set(c) for c in combinations(range(1, 9), 4)
        if frozenset(c) not in VAMOS_NONBASES
    ]
    return Matroid.from_bases(8, bases)


def _unit(n: int, i: int) -> list[int]:
    return [int(k == i) for k in range(n)]


def _edge(n: int, i: int, j: int) -> list[int]:
    """The column e_i - e_j of R^n."""
    return [a - b for a, b in zip(_unit(n, i), _unit(n, j))]


def family_columns(family: str, n: int) -> list[list[int]]:
    """Columns of a structured arrangement with a classical chi:

      "K"  the graphic K_n (braid A_{n-1}): e_i - e_j, rank n - 1;
      "B"  the type-B B_n: e_i and e_i +- e_j, rank n;
      "D"  the type-D D_n: e_i +- e_j, rank n;
      "W"  the wheel W_n: e_i - e_j on the edges of a hub (vertex 0) with
           n spokes and a rim cycle 1, ..., n, rank n.
    """
    if family == "K":
        return [_edge(n, i, j) for i, j in combinations(range(n), 2)]
    if family == "D":
        return [[a + s * b for a, b in zip(_unit(n, i), _unit(n, j))]
                for i, j in combinations(range(n), 2) for s in (1, -1)]
    if family == "B":
        return [_unit(n, i) for i in range(n)] + family_columns("D", n)
    if family == "W":
        edges = [(0, i) for i in range(1, n + 1)]
        edges += [(i, i % n + 1) for i in range(1, n + 1)]
        return [_edge(n + 1, i, j) for i, j in edges]
    raise ValueError(f"unknown family {family!r}")


def family_matroid(family: str, n: int) -> Matroid:
    columns = family_columns(family, n)
    return Matroid.from_matrix(QMatrix.from_rows(
        [list(row) for row in zip(*columns)], cols=len(columns)))


def family_roots(family: str, n: int) -> list[int]:
    """The roots a_i of chi = prod (t - a_i) of K_n, B_n and D_n (Stanley,
    "An introduction to hyperplane arrangements"); the wheel's chi does not
    split."""
    if family == "K":
        return list(range(1, n))
    if family == "B":
        return list(range(1, 2 * n, 2))
    if family == "D":
        return list(range(1, 2 * n - 2, 2)) + [n - 1]
    raise ValueError(f"no root list for family {family!r}")


def family_chi(family: str, n: int) -> UniPoly:
    """Closed form of chi: the product over family_roots, and
    (t - 2)^n + (-1)^n (t - 2) for the wheel W_n."""
    if family == "W":
        return UniPoly((-2, 1)) ** n + UniPoly((-2, 1)).scale((-1) ** n)
    chi = UniPoly.one()
    for a in family_roots(family, n):
        chi = chi * UniPoly((-a, 1))
    return chi


def random_matrix(rng: random.Random, n: int, r: int) -> QMatrix:
    """Random r x n integer matrix with loops and parallels mixed in."""
    grid = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
    for j in range(n):
        roll = rng.random()
        if roll < 0.12:
            for i in range(r):
                grid[i][j] = 0
        elif roll < 0.30 and j > 0:
            src = rng.randrange(j)
            scale = rng.choice([1, 1, 2, -1])
            for i in range(r):
                grid[i][j] = scale * grid[i][src]
    return QMatrix.from_rows(grid, cols=n)


rationals = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def any_matrices(draw, max_rows=5, max_cols=6):
    """Integer or Fraction matrices, down to 0 rows or 0 columns, with zero
    rows and rows that combine earlier ones mixed in (rank-deficient)."""
    c = draw(st.integers(0, max_cols))
    r = draw(st.integers(0, max_rows))
    grid = []
    for _ in range(r):
        kind = draw(st.sampled_from(["free", "free", "zero", "combo"]))
        if kind == "zero" or (kind == "combo" and not grid):
            grid.append([0] * c)
        elif kind == "combo":
            a, b = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
            i, j = (draw(st.integers(0, len(grid) - 1)) for _ in range(2))
            grid.append([a * x + b * y for x, y in zip(grid[i], grid[j])])
        else:
            grid.append(draw(st.lists(rationals, min_size=c, max_size=c)))
    return QMatrix.from_rows(grid, cols=c)


@st.composite
def planted_matrices(draw):
    """Integer matrices whose columns mix free ones with planted loops,
    parallel copies of earlier columns and coloops, in a drawn order.  A
    coloop is a column that alone has a nonzero entry in a row of its own."""
    r = draw(st.integers(1, 4))
    columns: list[list[int]] = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["free", "free", "loop", "parallel"]))
        if kind == "loop":
            columns.append([0] * r)
        elif kind == "parallel" and columns:
            source = draw(st.sampled_from(columns))
            k = draw(st.sampled_from([1, -1, 2, -3]))
            columns.append([k * a for a in source])
        else:
            columns.append(draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r)))
    coloops = draw(st.integers(0, 2))
    width = r + coloops
    columns = [col + [0] * coloops for col in columns]
    columns += [[int(i == r + k) for i in range(width)] for k in range(coloops)]
    order = draw(st.permutations(range(len(columns))))
    return QMatrix.from_rows([[columns[j][i] for j in order] for i in range(width)],
                             cols=len(columns))


def mixed_copy(A: QMatrix, rng: random.Random) -> QMatrix:
    """Rows scaled by nonzero rationals and added to later rows: the same
    row space, a different matrix."""
    scales = [rng.choice([1, -1, 2, Fraction(-3, 4), Fraction(5, 2)])
              for _ in A.entries]
    rows = [[e * k for e in row] for row, k in zip(A.entries, scales)]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            k = rng.choice([0, 0, 1, -2, Fraction(1, 3)])
            rows[j] = [a + k * b for a, b in zip(rows[j], rows[i])]
    rows = rows[::-1]
    return QMatrix.from_rows(rows, cols=A.cols)


def _explicit_copy(M: Matroid) -> Matroid:
    return Matroid.from_bases(M.n, M.bases())


def permuted(M: Matroid, order: list[int]) -> Matroid:
    """M with element order[k] renamed k + 1: the columns of a realized M
    taken in that order, or the bases of an explicit one relabelled."""
    if M.is_realized:
        rows = [[row[j - 1] for j in order] for row in M.subspace.rows]
        return Matroid.from_matrix(QMatrix.from_rows(rows, cols=M.n))
    name = {e: k + 1 for k, e in enumerate(order)}
    return Matroid.from_bases(M.n, [[name[e] for e in b] for b in M.bases()])


def explicit_minor_by_combinations(M: Matroid, keep, I) -> Matroid:
    """Bases of M|(keep + I)/I: the r-subsets S of keep with r(S + I) = r + r(I)."""
    relabel = {old: new for new, old in enumerate(sorted(keep), start=1)}
    rk_I = M.rank(I)
    r = M.rank(set(keep) | set(I)) - rk_I
    return Matroid.from_bases(len(keep), [
        {relabel[e] for e in S} for S in combinations(sorted(keep), r)
        if M.rank(set(S) | set(I)) == r + rk_I
    ])


@lru_cache(maxsize=None)
def corpus() -> tuple[Matroid, ...]:
    rng = random.Random(20260809)
    zoo: list[Matroid] = []
    for n in range(1, 7):
        for r in range(1, n + 1):
            zoo.append(uniform_matroid(n, r))
    zoo.append(k4_matroid())
    zoo.append(uniform_matroid(4, 0))  # all loops
    zoo.append(Matroid.from_matrix(QMatrix.from_rows(
        [[Fraction(2, 3), 1, 0], [0, Fraction(1, 5), 1]], cols=3)))
    for n, r in [(4, 2), (4, 3), (5, 2), (5, 3), (6, 3)]:
        zoo.append(_explicit_copy(uniform_matroid(n, r)))
    zoo.append(_explicit_copy(k4_matroid()))
    zoo.append(vamos_matroid())
    while len(zoo) < 218:
        n = rng.randint(2, 9)
        r = rng.randint(1, min(n, 4))
        zoo.append(Matroid.from_matrix(random_matrix(rng, n, r)))
    for _ in range(12):
        r = rng.randint(2, 4)
        zoo.append(Matroid.from_matrix(random_matrix(rng, 10, r)))
    return tuple(zoo)


def corpus_upto(max_n: int, loopless: bool | None = None) -> list[Matroid]:
    out = []
    for M in corpus():
        if M.n > max_n:
            continue
        if loopless is True and not M.is_loopless():
            continue
        if loopless is False and M.is_loopless():
            continue
        out.append(M)
    return out


# -- references for the lattice of flats ---------------------------------------


def reference_flats(M: Matroid) -> FlatLattice:
    """The closure-driven walk that `flats` replaced.  The flats of rank
    k + 1 are the closures of F + e over the flats F of rank k and e outside
    F, and mu(bottom, F) is minus the sum of mu(bottom, G) over all the
    flats G below F."""
    closure = M.closure_mask
    ground = (1 << M.n) - 1
    levels = [[closure(0)]]
    while True:
        found = set()
        for F in levels[-1]:
            rest = ground & ~F
            while rest:
                G = closure(F | (rest & -rest))
                found.add(G)
                rest &= ~G
        if not found:
            break
        levels.append(found)
    sets, masks, ranks, mobius = [], [], [], []
    for k, level in enumerate(levels):
        lower = list(zip(masks, mobius))
        for F in sorted(level, key=lambda G: sorted(_elements_of(G))):
            mobius.append(-sum(mu for G, mu in lower if G & F == G) if k else 1)
            sets.append(_elements_of(F))
            masks.append(F)
        ranks.extend([k] * len(level))
    return FlatLattice(tuple(sets), tuple(ranks), tuple(mobius))


def reference_flat_terms(lattice: FlatLattice) -> list:
    """flat_terms as it was before `flats` kept its rank-by-rank sums: both
    the sums below each flat and mu(F, top) by subset tests between the
    flats of two ranks at a time."""
    levels = [[] for _ in range(lattice.ranks[-1] + 1)]
    for F, rk, mu in zip(lattice.flats, lattice.ranks, lattice.mobius):
        levels[rk].append((_mask_of(F), mu))
    # The comprehension reads `above` before it grows by the level.
    above = [(levels[-1][0][0], 1)]
    for level in reversed(levels[:-1]):
        above += [(F, -sum(nu for G, nu in above if F & G == F)) for F, _ in level]
    up = dict(above)
    terms = []
    for k, level in enumerate(levels):
        for F, mu in level:
            below = (sum(nu for G, nu in levels[j] if G & F == G)
                     for j in range(k - 1, -1, -1))
            chi = UniPoly(() if lattice.bottom else (mu, *below))
            terms.append((chi, abs(up[F])))
    return terms
