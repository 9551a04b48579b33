"""Matroids on the ground set {1, ..., n} with an exact rank oracle.

A matroid is realized by a subspace (rank of a subset = rank of the matching
column submatrix of the basis matrix) or given explicitly by its list of
bases (rank of S = largest intersection of S with a basis).  Explicit input
exists so that purely combinatorial formulas can be exercised on matroids
with no realization at hand.

Subsets are also handled as int bitmasks, element e at bit e - 1.  Rank and
closure queries are memoized per instance, keyed by mask; the caches are
filled monotonically with values that never change, so concurrent readers
are safe under the interpreter lock.  A realized closure is read off the
integer rows after one pivot step per column of the mask.  An explicit
rank is a greedy count over one bitset of bases per element, and the
closure adds the elements that no basis left after the count holds.  The
lattice of flats, once built, is immutable.

Minor operations relabel the surviving ground set by order-preserving
compression and return the relabeling alongside: element k of the minor sat
at ambient index labels[k-1].  An explicit minor filters the basis list.
The flats are found by one walk up the ranks, and the lattice keeps only
the Moebius values mu(bottom, F).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations

from .linalg import (
    QMatrix,
    Subspace,
    _pivot,
    contract_subspace,
    rank_int_rows,
    restrict_subspace,
)
from .ratpoly import _frozen


class Matroid:
    """Ground set {1..n} plus a rank oracle, realized or explicit.

    The per-instance caches `_rank_cache` and `_closure_cache` are not
    bounded: they gain an entry for every subset mask a query reaches, so
    they grow with every view, flat and minor a kept Matroid is asked
    about.  Two paths fill them: the closures of the `flats` walk and every
    query on an explicit-bases input, one rank entry per query, a closure
    included.  Tutte and chi on a realized input leave them empty.  Drop the Matroid to free them.  An explicit input builds
    its basis bitsets `_holders` on its first query, not on construction.
    """

    __slots__ = (
        "n",
        "_subspace",
        "_int_rows",
        "_bases",
        "_basis_masks",
        "_holders",
        "_rank_cache",
        "_closure_cache",
        "_lattice",
        "_components",
        "_charpoly",
        "_flat_terms",
    )

    def __init__(self, n: int, subspace: Subspace | None = None,
                 bases: Iterable[Iterable[int]] | None = None):
        if n < 0:
            raise ValueError("ground set size must be nonnegative")
        if (subspace is None) == (bases is None):
            raise ValueError("provide exactly one of subspace or bases")
        self.n = n
        self._subspace = subspace
        self._int_rows = None
        self._bases = None
        self._basis_masks = None
        self._holders = None
        self._rank_cache: dict[int, int] = {}
        self._closure_cache: dict[int, int] = {}
        self._lattice = None
        self._components = None
        # Characteristic polynomial, set by mldeg.invariants.char_poly.
        self._charpoly = None
        # (chi(M|F), |mu(M/F)|) per flat, set by verify_stratification.
        self._flat_terms = None
        if subspace is not None:
            if subspace.ambient_n != n:
                raise ValueError("subspace ambient dimension must equal n")
            self._int_rows = subspace.rows
        else:
            blist = [frozenset(int(e) for e in b) for b in bases]
            if not blist:
                raise ValueError("an explicit matroid needs at least one basis")
            size = len(blist[0])
            for b in blist:
                if len(b) != size:
                    raise ValueError("bases must all have the same size")
                if any(e < 1 or e > n for e in b):
                    raise ValueError("basis element outside 1..n")
            self._bases = tuple(sorted(blist, key=sorted))
            self._basis_masks = tuple(_mask_of(b) for b in self._bases)

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
        return ("bases", self.n, tuple(tuple(sorted(b)) for b in self._bases))

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
        cached = self._rank_cache.get(mask)
        if cached is None:
            if self._basis_masks is not None:
                cached = self._greedy(mask)[0]
            else:
                cols = [j for j in range(self.n) if mask >> j & 1]
                cached = rank_int_rows(
                    [[row[j] for j in cols] for row in self._int_rows]
                ) if cols else 0
            self._rank_cache[mask] = cached
        return cached

    def closure_mask(self, mask: int) -> int:
        """Mask of the largest superset of `mask` with the same rank.

        A realized matroid reads it off its integer rows taken modulo the
        columns of `mask`: one pivot step per column, after which a column
        is zero exactly when it lies in the closure.  The ranks of `mask`
        and of each `mask` plus one element come out on the way and are
        cached.  An explicit matroid adds each element that no basis
        holding the greedy independent subset of `mask` holds.
        """
        cached = self._closure_cache.get(mask)
        if cached is None:
            if self._int_rows is None:
                rk, live = self._greedy(mask)
                self._rank_cache[mask] = rk
                cached = mask
                for j, held in enumerate(self._holders):
                    if not live & held:
                        cached |= 1 << j
            else:
                rows = self._int_rows
                for j in range(self.n):
                    if mask >> j & 1:
                        rows = _pivot(rows, j)
                rk = len(self._int_rows) - len(rows)
                self._rank_cache[mask] = rk
                nonzero = [any(column) for column in zip(*rows)] or [False] * self.n
                cached = mask
                for j, grows in enumerate(nonzero):
                    bit = 1 << j
                    if not mask & bit:
                        self._rank_cache.setdefault(mask | bit, rk + grows)
                        if not grows:
                            cached |= bit
            self._closure_cache[mask] = cached
        return cached

    def rank(self, S: Iterable[int]) -> int:
        return self.rank_mask(self.mask(S))

    def full_rank(self) -> int:
        if self._subspace is not None:
            return self._subspace.dim
        return len(self._bases[0])

    def closure(self, S: Iterable[int]) -> frozenset:
        """Largest superset of S with the same rank."""
        return _elements_of(self.closure_mask(self.mask(S)))

    def loops(self) -> tuple[int, ...]:
        """Zero columns of a realization, or elements in no basis."""
        if self._basis_masks is not None:
            covered = 0
            for b in self._basis_masks:
                covered |= b
            return tuple(e for e in self.ground if not covered >> (e - 1) & 1)
        return tuple(j + 1 for j in range(self.n)
                     if not any(row[j] for row in self._int_rows))

    def coloops(self) -> tuple[int, ...]:
        r = self.full_rank()
        full = set(self.ground)
        return tuple(e for e in self.ground if self.rank(full - {e}) == r - 1)

    def is_loopless(self) -> bool:
        return not self.loops()

    def bases(self) -> tuple[frozenset, ...]:
        """All bases (enumerated by rank queries in the realized case)."""
        if self._bases is not None:
            return self._bases
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


# -- minors ----------------------------------------------------------------


def _explicit_minor(keep: Sequence[int], traces: Iterable[int]) -> Matroid:
    """Explicit matroid on the sorted elements `keep`, relabeled 1..|keep| in
    order, whose bases are the masks in `traces`."""
    relabel = {old: new for new, old in enumerate(keep, start=1)}
    return Matroid.from_bases(len(keep), [
        [relabel[e] for e in _elements_of(t)] for t in traces
    ])


def restrict(M: Matroid, F: Iterable[int]) -> tuple[Matroid, tuple[int, ...]]:
    """Restriction M|F on the relabeled ground set {1..|F|}.

    rank_{M|F}(S) = rank_M(S); returns (minor, surviving ambient labels).
    An explicit minor's bases are the distinct traces B & F of size r(F).
    """
    if M.is_realized:
        sub, labels = restrict_subspace(M.subspace, F)
        return Matroid.from_subspace(sub), labels
    keep = sorted(M._subset(F))
    labels = tuple(keep)
    mask = _mask_of(keep)
    rk = M.rank_mask(mask)
    traces = {b & mask for b in M._basis_masks if (b & mask).bit_count() == rk}
    return _explicit_minor(keep, traces), labels


def contract_set(M: Matroid, I: Iterable[int]) -> tuple[Matroid, tuple[int, ...]]:
    """Contraction M/I on the relabeled ground set {1..n-|I|}.

    rank_{M/I}(S) = rank_M(S + I) - rank_M(I).  An explicit minor's bases
    are the distinct sets B - I over the bases B with |B & I| = r(I).
    """
    if M.is_realized:
        sub, labels = contract_subspace(M.subspace, I)
        return Matroid.from_subspace(sub), labels
    drop = M._subset(I)
    keep = [e for e in M.ground if e not in drop]
    labels = tuple(keep)
    mask = _mask_of(drop)
    rk = M.rank_mask(mask)
    traces = {b & ~mask for b in M._basis_masks if (b & mask).bit_count() == rk}
    return _explicit_minor(keep, traces), labels


def delete(M: Matroid, e: int) -> tuple[Matroid, tuple[int, ...]]:
    fs = M._subset({e})
    return restrict(M, set(M.ground) - fs)


def contract(M: Matroid, e: int) -> tuple[Matroid, tuple[int, ...]]:
    return contract_set(M, {e})


# -- lattice of flats --------------------------------------------------------


@_frozen
class FlatLattice:
    """All flats of a matroid with the Moebius values mu(bottom, F).

    Flats are sorted by (rank, sorted elements); flat 0 is the bottom
    (closure of the empty set), the last flat is the full ground set.
    mobius[j] = mu(F_0, F_j), the only row of the Moebius function kept;
    flat_terms reads it and derives mu(F, top) from the flats when it runs.
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


def flats(M: Matroid) -> FlatLattice:
    """The lattice of flats with the Moebius values mu(bottom, F).

    The bottom flat is the closure of the empty set (the set of loops), so
    the empty set is a flat exactly when the matroid is loopless.  The flats
    of rank k + 1 are the closures of F + e over the flats F of rank k and
    e outside F; mu(bottom, F) is minus the sum of mu(bottom, G) over the
    flats G below F, all of smaller rank.
    """
    if M._lattice is not None:
        return M._lattice
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
        levels.append(sorted(found, key=lambda G: sorted(_elements_of(G))))
    masks: list[int] = []
    ranks: list[int] = []
    mobius: list[int] = []
    for k, level in enumerate(levels):
        lower = list(zip(masks, mobius))
        for F in level:
            mobius.append(-sum(mu for G, mu in lower if G & F == G) if k else 1)
        masks.extend(level)
        ranks.extend([k] * len(level))
    lattice = FlatLattice(tuple(_elements_of(F) for F in masks), tuple(ranks),
                          tuple(mobius))
    M._lattice = lattice
    return lattice


# -- connectivity ------------------------------------------------------------


def connected_components(M: Matroid) -> tuple[frozenset, ...]:
    """The finest partition of the ground set across which rank is additive.

    Computed with rank queries only: fix one basis and merge along its
    fundamental circuits; elements left alone (loops, coloops) are their own
    components.
    """
    if M._components is not None:
        return M._components
    ground = list(M.ground)
    basis: list[int] = []
    for e in ground:
        if M.rank(basis + [e]) > len(basis):
            basis.append(e)
    r = len(basis)
    parent = {e: e for e in ground}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    basis_set = set(basis)
    for e in ground:
        if e in basis_set:
            continue
        circuit = [e] + [
            b for b in basis if M.rank((basis_set - {b}) | {e}) == r
        ]
        for other in circuit[1:]:
            union(e, other)
    groups: dict[int, set[int]] = {}
    for e in ground:
        groups.setdefault(find(e), set()).add(e)
    comps = tuple(sorted((frozenset(g) for g in groups.values()), key=sorted))
    M._components = comps
    return comps


def is_partition_matroid(M: Matroid) -> bool:
    """True when every connected component has rank 1."""
    return all(M.rank(c) == 1 for c in connected_components(M))


# -- JSON ---------------------------------------------------------------------


def matroid_from_json_dict(data: dict) -> Matroid:
    """Accepts {"matrix": {...}}, a bare matrix object, or explicit bases."""
    if not isinstance(data, dict):
        raise ValueError("matroid JSON must be an object")
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
    U(4,10)), so the CLI runs it once per input; matroid_from_json_dict and
    the minors do not.
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
