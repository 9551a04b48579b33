"""Matroids on the ground set {1, ..., n} with an exact rank oracle.

A matroid is realized by a subspace (rank of a subset = rank of the matching
column submatrix of the basis matrix) or given explicitly by its list of
bases (rank of S = largest intersection of S with a basis).  Explicit input
exists so that purely combinatorial formulas can be exercised on matroids
with no realization at hand.

Subsets are also handled as int bitmasks, element e at bit e - 1.  Rank and
closure queries are answered afresh each time, not memoized: a realized
one is read off the integer rows after one pivot step per column of the
mask, the rank as the number of rows dropped and the closure as the zero
columns left.  An explicit rank is a greedy count over one bitset of bases
per element, and the closure adds the elements that no basis left after
the count holds.

Minors are not built here: the invariants recurse on the rref rows or the
basis masks of a minor (mldeg.invariants).  The flats are found by one walk
up the ranks that asks no rank or closure query and keeps them as bitmasks;
the lattice, sorted frozensets with only the Moebius values mu(bottom, F),
is built from it on first read and is immutable.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations

from .linalg import QMatrix, Subspace, _modulo, _pivot, _primitive
from .ratpoly import _frozen


class Matroid:
    """Ground set {1..n} plus a rank oracle, realized or explicit.

    Rank and closure queries keep nothing: direct ones, and those of
    `coloops`, `bases` of a realized input and `connected_components`,
    compute each answer anew.  The `flats` walk, Tutte and the
    deletion-contraction count behind chi ask none of them.  What an
    instance keeps is one value per invariant (loops, flats, components,
    chi) and, for explicit input, the basis bitsets `_holders`, built on its
    first query or walk, not on construction.
    """

    __slots__ = (
        "n",
        "_subspace",
        "_basis_masks",
        "_holders",
        "_loops",
        "_flats",
        "_components",
        "_charpoly",
    )

    def __init__(self, n: int, subspace: Subspace | None = None,
                 bases: Iterable[Iterable[int]] | None = None):
        if n < 0:
            raise ValueError("ground set size must be nonnegative")
        if (subspace is None) == (bases is None):
            raise ValueError("provide exactly one of subspace or bases")
        self.n = n
        self._subspace = subspace
        self._basis_masks = None
        self._holders = None
        self._loops = None
        # The walk up the lattice of flats, set by _flat_walk.
        self._flats = None
        self._components = None
        # Characteristic polynomial, set by mldeg.invariants.char_poly.
        self._charpoly = None
        if subspace is not None:
            if subspace.ambient_n != n:
                raise ValueError("subspace ambient dimension must equal n")
        else:
            lists = [[int(e) for e in b] for b in bases]
            blist = [frozenset(b) for b in lists]
            if not blist:
                raise ValueError("an explicit matroid needs at least one basis")
            size = len(blist[0])
            for b, elements in zip(blist, lists):
                if len(b) < len(elements):
                    twice = next(e for i, e in enumerate(elements) if e in elements[:i])
                    raise ValueError(f"basis {elements} repeats element {twice}")
                if len(b) != size:
                    raise ValueError("bases must all have the same size")
                if any(e < 1 or e > n for e in b):
                    raise ValueError("basis element outside 1..n")
            self._basis_masks = tuple(_mask_of(b) for b in sorted(blist, key=sorted))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_matrix(cls, A: QMatrix) -> "Matroid":
        """Column matroid of A: a subset is independent when its columns are."""
        return cls(A.cols, subspace=Subspace.from_matrix(A))

    @classmethod
    def from_subspace(cls, L: Subspace) -> "Matroid":
        return cls(L.ambient_n, subspace=L)

    @classmethod
    def from_bases(cls, n: int, bases: Iterable[Iterable[int]]) -> "Matroid":
        """Explicit matroid on 1..n.  Its greedy rank is the true rank only
        if the bases satisfy basis exchange, which the CLI enforces with
        `check_bases` and this constructor does not check."""
        return cls(n, bases=bases)

    @property
    def is_realized(self) -> bool:
        return self._subspace is not None

    @property
    def subspace(self) -> Subspace:
        if self._subspace is None:
            raise ValueError("matroid has no realization")
        return self._subspace

    @property
    def ground(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def cache_key(self) -> tuple:
        """Canonical hashable key: equal keys mean equal labeled matroids."""
        if self._subspace is not None:
            return ("rref", self.n, self._subspace.rows)
        return ("bases", self.n, tuple(tuple(sorted(b)) for b in self.bases()))

    # -- rank oracle -------------------------------------------------------

    def _subset(self, S: Iterable[int]) -> frozenset:
        fs = frozenset(int(e) for e in S)
        if any(e < 1 or e > self.n for e in fs):
            raise ValueError(f"subset {sorted(fs)} not inside 1..{self.n}")
        return fs

    def mask(self, S: Iterable[int]) -> int:
        """Bitmask of the subset S: element e sits at bit e - 1."""
        return _mask_of(self._subset(S))

    def _greedy(self, mask: int) -> tuple[int, int]:
        """Rank of an explicit `mask`, and the bases (bit i for basis i)
        that hold the independent subset of it picked in element order."""
        holders = self._holders
        if holders is None:
            holders = [0] * self.n
            for i, b in enumerate(self._basis_masks):
                bit = 1 << i
                while b:
                    low = b & -b
                    holders[low.bit_length() - 1] |= bit
                    b ^= low
            self._holders = holders
        live, rk = (1 << len(self._basis_masks)) - 1, 0
        while mask:
            low = mask & -mask
            hit = live & holders[low.bit_length() - 1]
            if hit:
                live, rk = hit, rk + 1
            mask ^= low
        return rk, live

    def rank_mask(self, mask: int) -> int:
        """Rank of the subset whose element e sits at bit e - 1."""
        if self._subspace is None:
            return self._greedy(mask)[0]
        rows = self._subspace.rows
        return len(rows) - len(_modulo(rows, mask, self.n)[0])

    def closure_mask(self, mask: int) -> int:
        """Mask of the largest superset of `mask` with the same rank.

        A realized matroid reads it off its integer rows taken modulo the
        columns of `mask` (linalg._modulo): a column is zero afterwards
        exactly when it lies in the closure.
        An explicit matroid adds each element that no basis holding the
        greedy independent subset of `mask` holds.
        """
        if self._subspace is None:
            live = self._greedy(mask)[1]
            # The bits are distinct, so their sum is their union.
            return mask | sum(1 << j for j, held in enumerate(self._holders)
                              if not live & held)
        return _modulo(self._subspace.rows, mask, self.n)[1]

    def rank(self, S: Iterable[int]) -> int:
        return self.rank_mask(self.mask(S))

    def full_rank(self) -> int:
        if self._subspace is not None:
            return self._subspace.dim
        return self._basis_masks[0].bit_count()

    def closure(self, S: Iterable[int]) -> frozenset:
        """Largest superset of S with the same rank."""
        return _elements_of(self.closure_mask(self.mask(S)))

    def loops(self) -> tuple[int, ...]:
        """Zero columns of a realization, or elements in no basis; computed
        on the first call and kept."""
        if self._loops is None:
            if self._subspace is None:
                covered = 0
                for b in self._basis_masks:
                    covered |= b
                self._loops = tuple(e for e in self.ground if not covered >> (e - 1) & 1)
            else:
                self._loops = tuple(j + 1 for j in range(self.n)
                                    if not any(row[j] for row in self._subspace.rows))
        return self._loops

    def coloops(self) -> tuple[int, ...]:
        r = self.full_rank()
        full = set(self.ground)
        return tuple(e for e in self.ground if self.rank(full - {e}) == r - 1)

    def is_loopless(self) -> bool:
        return not self.loops()

    def bases(self) -> tuple[frozenset, ...]:
        """All bases (enumerated by rank queries in the realized case)."""
        if self._basis_masks is not None:
            return tuple(map(_elements_of, self._basis_masks))
        r = self.full_rank()
        out = [frozenset(c) for c in combinations(self.ground, r)
               if self.rank(c) == r]
        return tuple(sorted(out, key=sorted))

    def __repr__(self) -> str:
        kind = "realized" if self.is_realized else "explicit"
        return f"Matroid(n={self.n}, rank={self.full_rank()}, {kind})"


def _mask_of(S: Iterable[int]) -> int:
    mask = 0
    for e in S:
        mask |= 1 << (e - 1)
    return mask


def _elements_of(mask: int) -> frozenset:
    return frozenset(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def uniform_matroid(n: int, r: int) -> Matroid:
    """U_{r,n}, realized by a moment-curve matrix (any r columns independent)."""
    if not 0 <= r <= n:
        raise ValueError(f"uniform matroid needs 0 <= r <= n, got r={r}, n={n}")
    if r == 0:
        return Matroid.from_subspace(Subspace.zero(n))
    grid = [[Fraction(j ** i) for j in range(1, n + 1)] for i in range(r)]
    return Matroid.from_matrix(QMatrix.from_rows(grid, cols=n))


# -- lattice of flats --------------------------------------------------------


@_frozen
class FlatLattice:
    """All flats of a matroid with the Moebius values mu(bottom, F).

    Flats are sorted by (rank, sorted elements); flat 0 is the bottom
    (closure of the empty set), the last flat is the full ground set.
    mobius[j] = mu(F_0, F_j), the only row of the Moebius function kept;
    the walk behind it also keeps |mu(F, top)| for flat_terms.
    """

    flats: tuple[frozenset, ...]
    ranks: tuple[int, ...]
    mobius: tuple[int, ...]

    @property
    def bottom(self) -> frozenset:
        return self.flats[0]

    def to_json_dict(self) -> dict:
        return {
            "flats": [sorted(f) for f in self.flats],
            "mobius_from_bottom": list(self.mobius),
        }


class _FlatWalk:
    """The flats of M as bitmasks in lattice order (see `flats`), each with
    its sums from `_mobius_sums` (`chis`) and |mu(M/F)| (`mus`); also keeps
    what is built from them on first read."""

    __slots__ = ("masks", "ranks", "chis", "mus", "lattice", "terms")

    def __init__(self, M: Matroid):
        n, r = M.n, M.full_rank()
        covers = _row_covers if M.is_realized else _basis_covers
        states = {_mask_of(M.loops()): M.subspace.rows if M.is_realized else M._greedy(0)[1]}
        masks, ranks = list(states), [0]
        for k in range(1, r):
            found: dict = {}
            for F, state in states.items():
                covers(M, F, state, found, k < r - 1)
            states = found
            masks += found
            ranks += [k] * len(found)
        if r:
            masks, ranks = masks + [(1 << n) - 1], ranks + [r]
        # F -> top - F turns [F, top], the lattice of M/F, upside down.
        up = _mobius_sums([masks[-1] ^ F for F in reversed(masks)], n)
        self.masks, self.ranks, self.chis = masks, ranks, _mobius_sums(masks, n, ranks)
        self.mus = [abs(mu) for mu in reversed(up)]
        self.lattice = self.terms = None


def _flat_walk(M: Matroid) -> _FlatWalk:
    """The walk up the flats of M, made on the first call and kept on M."""
    if M._flats is None:
        M._flats = _FlatWalk(M)
    return M._flats


def flats(M: Matroid) -> FlatLattice:
    """The lattice of flats with the Moebius values mu(bottom, F), built on
    the first call and kept on M.

    The bottom flat is the closure of the empty set (the set of loops), so
    the empty set is a flat exactly when the matroid is loopless.  The walk
    up the ranks (`_flat_walk`) reads the covers of each flat off its state,
    and the top rank is the ground set alone.  It finds the flats of a rank
    already sorted by their elements: the covers of one flat come in the
    order of their smallest new element, and a flat is first found from its
    first hyperplane in that order, the closure of all but the last element
    of its greedy basis, which is earlier for the earlier of two flats.
    """
    walk = _flat_walk(M)
    if walk.lattice is None:
        walk.lattice = FlatLattice(tuple(map(_elements_of, walk.masks)), tuple(walk.ranks),
                                   tuple(sums[0] for sums in walk.chis))
    return walk.lattice


def _row_covers(M: Matroid, F: int, rows, found: dict, walked: bool) -> None:
    """Adds to `found` each flat of a realized M that covers F: F plus one
    class of parallel columns of `rows`, those of M modulo span(F), and its
    own rows, one pivot on the class, when the walk goes on (`walked`)."""
    classes: dict[tuple, int] = {}
    for j, column in enumerate(zip(*rows)):
        if not F >> j & 1:
            key = tuple(_primitive(column))
            classes[key] = classes.get(key, 0) | 1 << j
    for P in classes.values():
        if F | P not in found:
            found[F | P] = _pivot(rows, P.bit_length() - 1) if walked else None


def _basis_covers(M: Matroid, F: int, live: int, found: dict, walked: bool) -> None:
    """Adds to `found` each flat of an explicit M that covers F, with the
    bitset of the bases that hold a basis of it (as `_greedy` gives it).
    The bases in `live` hold a basis I of F; those that also hold e hold
    I + e, and cl(F + e) is F, e and every element none of them holds."""
    holders = M._holders
    rest = ((1 << M.n) - 1) & ~F
    while rest:
        e = rest & -rest
        hit = live & holders[e.bit_length() - 1]
        G = F | e | sum(1 << j for j, held in enumerate(holders) if not hit & held)
        found.setdefault(G, hit)
        rest &= ~G


def _mobius_sums(masks: Sequence[int], n: int,
                 ranks: Sequence[int] | None = None) -> list:
    """mu(F_0, F) for each F in `masks`, subsets of 0..n-1 ranked under
    inclusion and listed by rank from F_0.  Given their `ranks`, it is
    (mu(F_0, F), s_{k-1}(F), ..., s_0(F)) for each F of rank k instead:
    s_j(F) sums mu(F_0, G) over the G of rank j in F, and mu(F_0, F) is
    minus the sum of the s_j(F)."""
    # Bit i of lacking[x] is set when mask i lacks the element bit x; groups
    # maps each rank j (0 for all without ranks) and value mu to the bitset
    # of the masks that have them.
    lacking: dict[int, int] = {}
    groups: dict[tuple[int, int], int] = {}
    out = []
    full = (1 << n) - 1
    for i, F in enumerate(masks):
        bit = 1 << i
        inside, rest = bit - 1, full ^ F
        while rest:
            x = rest & -rest
            rest ^= x
            inside &= lacking.get(x, 0)
            lacking[x] = lacking.get(x, 0) | bit
        k = ranks[i] if ranks else 1
        below = [0] * k
        for (j, nu), group in groups.items():
            if j < k:
                below[j] += nu * (inside & group).bit_count()
        mu = -sum(below) if i else 1
        key = (k, mu) if ranks else (0, mu)
        groups[key] = groups.get(key, 0) | bit
        out.append((mu, *reversed(below)) if ranks else mu)
    return out


# -- connectivity ------------------------------------------------------------


def connected_components(M: Matroid) -> tuple[frozenset, ...]:
    """The finest partition of the ground set across which rank is additive.

    Computed with rank queries only: fix one basis and merge along its
    fundamental circuits; elements left alone (loops, coloops) are their own
    components.
    """
    if M._components is not None:
        return M._components
    basis: list[int] = []
    for e in M.ground:
        if M.rank(basis + [e]) > len(basis):
            basis.append(e)
    r, basis_set = len(basis), set(basis)
    # Each element maps to its component so far; a circuit merges them.
    component = {e: frozenset({e}) for e in M.ground}
    for e in M.ground:
        if e not in basis_set:
            circuit = [e] + [b for b in basis if M.rank((basis_set - {b}) | {e}) == r]
            merged = frozenset().union(*(component[x] for x in circuit))
            for x in merged:
                component[x] = merged
    M._components = tuple(sorted(set(component.values()), key=sorted))
    return M._components


def is_partition_matroid(M: Matroid) -> bool:
    """True when every connected component has rank 1."""
    return all(M.rank(c) == 1 for c in connected_components(M))


# -- JSON ---------------------------------------------------------------------


def matroid_from_json_dict(data: dict) -> Matroid:
    """Accepts {"matrix": {...}}, a bare matrix object, or explicit bases,
    and refuses an object that holds more than one of them."""
    if not isinstance(data, dict):
        raise ValueError("matroid JSON must be an object")
    forms = [key for key in ("matrix", "bases", "entries") if key in data]
    if len(forms) > 1:
        raise ValueError(f"matroid JSON holds {' and '.join(map(repr, forms))}; "
                         "give one of 'matrix', 'bases' or matrix fields")
    if "matrix" in data:
        return Matroid.from_matrix(QMatrix.from_json_dict(data["matrix"]))
    if "bases" in data:
        n, bases = data.get("n"), data["bases"]
        # int() would read 1.7 or true as 1 and fail on null with a
        # TypeError, so the types are checked here, once per input.
        if type(n) is not int:
            raise ValueError("explicit matroid JSON needs an integer 'n'")
        if not isinstance(bases, list) or not all(
                isinstance(b, list) and all(type(e) is int for e in b)
                for b in bases):
            raise ValueError("'bases' must be a list of lists of integers")
        return Matroid.from_bases(n, bases)
    if "entries" in data:
        return Matroid.from_matrix(QMatrix.from_json_dict(data))
    raise ValueError("matroid JSON needs 'matrix', 'bases', or matrix fields")


def check_bases(M: Matroid) -> None:
    """Raise ValueError unless the basis list of the explicit matroid M
    names no basis twice and satisfies basis exchange: for bases B1, B2 and
    each x in B1 - B2, some y in B2 - B1 makes B1 - x + y a basis.

    Quadratic in the number of bases (tens of milliseconds for the 210 of
    U(4,10)), so the CLI runs it once per input; matroid_from_json_dict does
    not.
    """
    masks = M._basis_masks
    family = set(masks)
    if len(family) != len(masks):
        twice = next(b for b in masks if masks.count(b) > 1)
        raise ValueError(f"basis {sorted(_elements_of(twice))} is listed more than once")
    outside = (1 << M.n) - 1
    # swaps[b, x]: the mask of the y outside b for which b - x + y is a basis.
    swaps = {}
    for b in masks:
        xs = b
        while xs:
            x = xs & -xs
            xs ^= x
            ys, found = outside & ~b, 0
            while ys:
                y = ys & -ys
                ys ^= y
                if b ^ x | y in family:
                    found |= y
            swaps[b, x] = found
    for b1 in masks:
        for b2 in masks:
            xs = b1 & ~b2
            while xs:
                x = xs & -xs
                xs ^= x
                if not swaps[b1, x] & b2:
                    raise ValueError(
                        f"bases {sorted(_elements_of(b1))} and "
                        f"{sorted(_elements_of(b2))} violate basis exchange: no "
                        f"element of the second replaces {x.bit_length()} in the first"
                    )
