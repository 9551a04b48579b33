import random
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

from mldeg import (
    Matroid,
    QMatrix,
    Subspace,
    UniPoly,
    char_poly,
    connected_components,
    contract,
    contract_set,
    contract_subspace,
    delete,
    flats,
    is_partition_matroid,
    kernel,
    matroid_from_json_dict,
    restrict,
    restrict_subspace,
    score_count,
    score_count_dc,
    uniform_matroid,
)
from mldeg.invariants import flat_terms
from mldeg.matroids import check_bases
from conftest import (
    _explicit_copy, any_matrices, corpus, corpus_upto, k4_matroid, mixed_copy,
    random_matrix,
)


def mat(rows, cols=None):
    return QMatrix.from_rows(rows, cols=cols)


def powerset(iterable):
    s = list(iterable)
    return chain.from_iterable(combinations(s, k) for k in range(len(s) + 1))


def separator_components(M: Matroid):
    """Brute-force oracle: component of e = intersection of all separators
    containing e, where A is a separator iff rk(A) + rk(E-A) = rk(E)."""
    ground = set(M.ground)
    r = M.full_rank()
    separators = [
        set(A) for A in powerset(ground)
        if M.rank(A) + M.rank(ground - set(A)) == r
    ]
    comps = set()
    for e in ground:
        comp = ground.copy()
        for A in separators:
            if e in A:
                comp &= A
        comps.add(frozenset(comp))
    return tuple(sorted(comps, key=sorted))


# -- reference routes: slower constructions that the tests compare against ----


def flats_by_enumeration(M: Matroid) -> set:
    """Every flat as the closure of one of the 2^n subsets."""
    return {M.closure(S) for S in powerset(M.ground)}


def mobius_all_pairs(lattice) -> dict:
    """mu(F_i, F_j) for every pair F_i <= F_j, from a full containment table.

    Index order must be a linear extension of the lattice order.
    """
    fl = lattice.flats
    count = len(fl)
    leq = [[fl[i] <= fl[j] for j in range(count)] for i in range(count)]
    mobius = {}
    for i in range(count):
        mobius[(i, i)] = 1
        for j in range(i + 1, count):
            if leq[i][j]:
                mobius[(i, j)] = -sum(
                    mobius[(i, k)] for k in range(i, j) if leq[i][k] and leq[k][j]
                )
    return mobius


def contract_subspace_by_kernel(L: Subspace, I) -> Subspace:
    """Vectors c . B of L with c in the kernel of the I columns of B."""
    drop = sorted(set(I))
    keep0 = [i - 1 for i in range(1, L.ambient_n + 1) if i not in drop]
    if not drop:
        return L
    if L.dim == 0:
        return Subspace.zero(len(keep0))
    constraint = L.basis.column_submatrix([i - 1 for i in drop]).transpose()
    coeffs = kernel(Subspace.from_matrix(constraint))
    vectors = [
        [sum((c[k] * L.basis.entries[k][j] for k in range(L.dim)), Fraction(0))
         for j in keep0]
        for c in coeffs.basis.entries
    ]
    if not vectors:
        return Subspace.zero(len(keep0))
    return Subspace.from_matrix(QMatrix.from_rows(vectors, cols=len(keep0)))


def explicit_minor_by_combinations(M: Matroid, keep, I) -> Matroid:
    """Bases of M|(keep + I)/I: the r-subsets S of keep with r(S + I) = r + r(I)."""
    relabel = {old: new for new, old in enumerate(sorted(keep), start=1)}
    rk_I = M.rank(I)
    r = M.rank(set(keep) | set(I)) - rk_I
    return Matroid.from_bases(len(keep), [
        {relabel[e] for e in S} for S in combinations(sorted(keep), r)
        if M.rank(set(S) | set(I)) == r + rk_I
    ])


class TestConstruction:
    def test_all_parallel(self):
        M = Matroid.from_matrix(mat([[1, 1, 1]]))
        for pair in combinations(M.ground, 2):
            assert M.rank(pair) == 1

    def test_generic_2x3_is_uniform(self):
        M = Matroid.from_matrix(mat([[1, 0, 1], [0, 1, 1]]))
        for pair in combinations(M.ground, 2):
            assert M.rank(pair) == 2

    def test_zero_column_is_loop(self):
        M = Matroid.from_matrix(mat([[1, 0, 0], [0, 1, 0]]))
        assert M.loops() == (3,)
        assert M.full_rank() == 2

    def test_explicit_bases_validation(self):
        with pytest.raises(ValueError):
            Matroid.from_bases(3, [])
        with pytest.raises(ValueError):
            Matroid.from_bases(3, [[1, 2], [1]])
        with pytest.raises(ValueError):
            Matroid.from_bases(3, [[1, 4]])


class TestRank:
    def test_uniform_values(self):
        U23 = uniform_matroid(3, 2)
        assert U23.rank([1, 2, 3]) == 2
        assert U23.rank([]) == 0
        assert uniform_matroid(4, 3).rank([1, 2]) == 2

    def test_submodularity_on_random_pairs(self):
        rng = random.Random(7)
        for M in corpus_upto(7)[:60]:
            ground = list(M.ground)
            for _ in range(8):
                S = {e for e in ground if rng.random() < 0.4}
                T = {e for e in ground if rng.random() < 0.4}
                lhs = M.rank(S | T) + M.rank(S & T)
                rhs = M.rank(S) + M.rank(T)
                assert lhs <= rhs

    def test_unit_increase_and_monotone(self):
        for M in corpus_upto(6)[:40]:
            for e in M.ground:
                for S in [set(), set(M.ground[:2])]:
                    base = M.rank(S)
                    grown = M.rank(S | {e})
                    assert base <= grown <= base + 1


class TestClosure:
    def test_singleton_flat_in_simple_matroid(self):
        assert uniform_matroid(3, 2).closure([1]) == {1}

    def test_parallel_class(self):
        M = Matroid.from_matrix(mat([[1, 2, 3]]))
        assert M.closure([1]) == {1, 2, 3}

    def test_idempotent(self):
        for M in corpus_upto(6)[:40]:
            S = set(M.ground[: M.n // 2])
            once = M.closure(S)
            assert M.closure(once) == once

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 7), r=st.integers(0, 4))
    def test_realized_closures_and_cached_ranks_match_bases(self, seed, n, r):
        # A realized closure pivots the rows and caches ranks on the way; the
        # explicit copy answers every mask from its bases.
        M = Matroid.from_matrix(random_matrix(random.Random(seed), n, min(n, r)))
        E = _explicit_copy(M)
        for mask in range(1 << n):
            assert M.closure_mask(mask) == E.closure_mask(mask)
        for mask, rk in M._rank_cache.items():
            assert rk == E.rank_mask(mask)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 9), r=st.integers(0, 4))
    def test_flats_walk_caches_true_closures(self, seed, n, r):
        M = Matroid.from_matrix(random_matrix(random.Random(seed), n, min(n, r)))
        flats(M)
        E = _explicit_copy(M)
        for mask, closed in M._closure_cache.items():
            assert closed == E.closure_mask(mask)
        for mask, rk in M._rank_cache.items():
            assert rk == E.rank_mask(mask)


def max_meet(bases: tuple[int, ...], mask: int) -> int:
    """Rank rule that the basis bitsets replaced: the largest meet of the
    mask with a basis."""
    return max((b & mask).bit_count() for b in bases)


class TestBitsetOracle:
    """An explicit matroid answers rank and closure greedily from one
    bitset per element over its basis list.  The largest meet with a basis
    and the realized oracle are the references."""

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 9), r=st.integers(0, 5))
    def test_every_mask_matches_max_meet_and_realized(self, seed, n, r):
        M = Matroid.from_matrix(random_matrix(random.Random(seed), n, min(n, r)))
        # E answers ranks before closures, F closures before ranks.
        E, F = _explicit_copy(M), _explicit_copy(M)
        bases = E._basis_masks
        for mask in range(1 << n):
            rk = max_meet(bases, mask)
            closed = mask
            for j in range(n):
                if max_meet(bases, mask | 1 << j) == rk:
                    closed |= 1 << j
            assert F.closure_mask(mask) == closed == M.closure_mask(mask)
            assert E.rank_mask(mask) == rk == M.rank_mask(mask) == F.rank_mask(mask)
            assert E.closure_mask(mask) == closed

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), r=st.integers(1, 4),
           pick=st.integers(0, 2 ** 8 - 1))
    def test_explicit_minors_count_like_realized_minors(self, seed, n, r, pick):
        M = Matroid.from_matrix(random_matrix(random.Random(seed), n, min(n, r)))
        E = _explicit_copy(M)
        S = {e for e in M.ground if pick >> (e - 1) & 1}
        for minor in (restrict, contract_set):
            realized, labels = minor(M, S)
            explicit, explicit_labels = minor(E, S)
            assert explicit_labels == labels
            assert explicit.bases() == realized.bases()
            for d in (1, 2, 3):
                assert score_count_dc(explicit, d) == score_count(realized, d)

    def test_bitsets_are_built_on_the_first_query(self):
        E = _explicit_copy(k4_matroid())
        assert E._holders is None
        # Edges 1, 2 and 4 of K4 form a triangle.
        assert E.closure_mask(0b1011) == 0b1011
        assert len(E._holders) == 6 and E._rank_cache == {0b1011: 2}
        minors = [contract_set(E, {1})[0], restrict(E, range(2, 7))[0]]
        assert all(N._holders is None for N in minors)


def check_against_enumeration(M: Matroid) -> None:
    lat = flats(M)
    assert len(set(lat.flats)) == len(lat.flats)
    assert set(lat.flats) == flats_by_enumeration(M)
    assert lat.ranks == tuple(M.rank(F) for F in lat.flats)
    assert list(lat.flats) == sorted(lat.flats, key=lambda F: (M.rank(F), sorted(F)))


class TestFlats:
    def test_u23_lattice(self):
        lat = flats(uniform_matroid(3, 2))
        sets = [set(F) for F in lat.flats]
        assert sets == [set(), {1}, {2}, {3}, {1, 2, 3}]
        assert lat.mobius[-1] == 2

    def test_u11(self):
        lat = flats(uniform_matroid(1, 1))
        assert [set(F) for F in lat.flats] == [set(), {1}]
        assert lat.mobius[-1] == -1

    def test_u34_count_and_mobius(self):
        lat = flats(uniform_matroid(4, 3))
        assert len(lat.flats) == 1 + 4 + 6 + 1
        assert lat.mobius[-1] == -3

    def test_empty_set_flat_iff_loopless(self):
        loopy = Matroid.from_matrix(mat([[1, 0], [0, 0]], cols=2))
        assert set() not in {frozenset(F) for F in flats(loopy).flats}
        assert flats(loopy).bottom == {2}
        clean = uniform_matroid(2, 1)
        assert flats(clean).bottom == frozenset()

    def test_mobius_sum_rule(self):
        # The stored row mu(bottom, .) is row 0 of the all-pairs table.
        for M in corpus_upto(7)[:50]:
            lat = flats(M)
            table = mobius_all_pairs(lat)
            row = tuple(table[(0, j)] for j in range(len(lat.flats)))
            assert lat.mobius == row
            if M.is_loopless():
                assert lat.mobius[-1] == char_poly(M).evaluate(0)

    def test_flat_terms_match_all_pairs_table(self):
        # chi(M|F_j) sums mu(bottom, F_i) t^(rk F_j - rk F_i) over F_i <= F_j,
        # and |mu(M/F_j)| is |mu(F_j, top)|, both read off the full table.
        for M in corpus_upto(7)[:50]:
            lat = flats(M)
            table = mobius_all_pairs(lat)
            top = len(lat.flats) - 1
            for j, (chi, mu_contract) in enumerate(flat_terms(M)):
                assert mu_contract == abs(table[(j, top)])
                coeffs = [0] * (lat.ranks[j] + 1)
                for i in range(j + 1):
                    if (0, i) in table and (i, j) in table:
                        coeffs[lat.ranks[j] - lat.ranks[i]] += table[(0, i)]
                assert chi == (UniPoly(coeffs) if M.is_loopless() else UniPoly.zero())

    def test_bottom_mobius_matches_charpoly_at_zero(self):
        for M in corpus_upto(7, loopless=True)[:40]:
            lat = flats(M)
            assert lat.mobius[-1] == char_poly(M).evaluate(0)

    def test_enumeration_paths_agree(self):
        for M in corpus_upto(7):
            check_against_enumeration(M)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9), r=st.integers(1, 4))
    def test_random_matrices_match_enumeration(self, seed, n, r):
        rng = random.Random(seed)
        check_against_enumeration(Matroid.from_matrix(random_matrix(rng, n, min(n, r))))

    def test_json_export(self):
        data = flats(uniform_matroid(3, 2)).to_json_dict()
        assert data["flats"] == [[], [1], [2], [3], [1, 2, 3]]
        assert data["mobius_from_bottom"] == [1, -1, -1, -1, 2]


class TestMinors:
    def test_contract_u23_gives_parallel_pair(self):
        minor, labels = contract(uniform_matroid(3, 2), 1)
        assert labels == (2, 3)
        assert minor.full_rank() == 1
        assert minor.rank([1, 2]) == 1

    def test_delete_u23_gives_boolean(self):
        minor, labels = delete(uniform_matroid(3, 2), 1)
        assert labels == (2, 3)
        assert minor.full_rank() == 2
        assert minor.rank([1]) == minor.rank([2]) == 1

    def test_restrict_full_is_identity(self):
        M = k4_matroid()
        minor, labels = restrict(M, M.ground)
        assert labels == M.ground
        for S in powerset(M.ground):
            assert minor.rank(S) == M.rank(S)

    def test_minor_rank_formulas(self):
        rng = random.Random(3)
        for M in corpus_upto(6)[:40]:
            ground = list(M.ground)
            I = {e for e in ground if rng.random() < 0.3}
            keep = [e for e in ground if e not in I]
            minor, labels = contract_set(M, I)
            assert labels == tuple(keep)
            back = {new: old for new, old in enumerate(labels, start=1)}
            for S in powerset(range(1, len(keep) + 1)):
                expected = M.rank({back[x] for x in S} | I) - M.rank(I)
                assert minor.rank(S) == expected

    def test_subspace_matroid_compatibility(self):
        # the matroid of a projected subspace is the restriction, and the
        # matroid of the vanishing-slice subspace is the contraction
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(2, 6)
            r = rng.randint(1, min(3, n))
            L = Subspace.from_matrix(random_matrix(rng, n, r))
            M = Matroid.from_subspace(L)
            F = sorted({e for e in range(1, n + 1) if rng.random() < 0.5})
            sub_r, _ = restrict_subspace(L, F)
            mat_r, _ = restrict(M, F)
            assert Matroid.from_subspace(sub_r).bases() == mat_r.bases()
            sub_c, _ = contract_subspace(L, F)
            mat_c, _ = contract_set(M, F)
            assert Matroid.from_subspace(sub_c).bases() == mat_c.bases()
            # dimension pairing with the rank oracle
            assert sub_r.dim == M.rank(F)
            assert sub_c.dim == L.dim - M.rank(F)

    def test_explicit_and_realized_minors_agree(self):
        M = uniform_matroid(5, 3)
        E = Matroid.from_bases(M.n, M.bases())
        m1, _ = contract_set(M, {2, 4})
        m2, _ = contract_set(E, {2, 4})
        assert m1.bases() == m2.bases()
        r1, _ = restrict(M, {1, 3, 5})
        r2, _ = restrict(E, {1, 3, 5})
        assert r1.bases() == r2.bases()


class TestMinorReferences:
    """Every minor equals, as a labeled matroid, the one the earlier
    constructions built, so memo keys built from cache_key() still hit."""

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9), r=st.integers(1, 4))
    def test_contract_subspace_matches_kernel_route(self, seed, n, r):
        rng = random.Random(seed)
        L = Subspace.from_matrix(random_matrix(rng, n, min(n, r)))
        for _ in range(6):
            I = {e for e in range(1, n + 1) if rng.random() < 0.4}
            fast, _ = contract_subspace(L, I)
            reference = contract_subspace_by_kernel(L, I)
            assert fast == reference
            assert (Matroid.from_subspace(fast).cache_key()
                    == Matroid.from_subspace(reference).cache_key())

    def test_prefix_contraction_reads_the_stored_rref(self):
        L = Subspace.from_matrix(random_matrix(random.Random(5), 7, 3))
        for k in range(8):
            fast, labels = contract_subspace(L, range(1, k + 1))
            assert labels == tuple(range(k + 1, 8))
            assert fast == contract_subspace_by_kernel(L, range(1, k + 1))

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), r=st.integers(1, 4))
    def test_explicit_minors_match_combinations(self, seed, n, r):
        rng = random.Random(seed)
        M = _explicit_copy(Matroid.from_matrix(random_matrix(rng, n, min(n, r))))
        for _ in range(4):
            F = {e for e in M.ground if rng.random() < 0.6}
            I = {e for e in M.ground if rng.random() < 0.3}
            minor, _ = restrict(M, F)
            assert minor.cache_key() == explicit_minor_by_combinations(M, F, set()).cache_key()
            minor, _ = contract_set(M, I)
            keep = set(M.ground) - I
            assert minor.cache_key() == explicit_minor_by_combinations(M, keep, I).cache_key()

    def test_explicit_corpus_minors_match_combinations(self):
        rng = random.Random(17)
        for M in corpus_upto(8):
            if M.is_realized:
                continue
            for _ in range(5):
                F = {e for e in M.ground if rng.random() < 0.6}
                minor, _ = restrict(M, F)
                assert minor.cache_key() == explicit_minor_by_combinations(M, F, set()).cache_key()
                minor, _ = contract_set(M, F)
                keep = set(M.ground) - F
                assert minor.cache_key() == explicit_minor_by_combinations(M, keep, F).cache_key()


class TestIntegerRowMinors:
    """Minors built on the integer rows a Subspace stores, against the
    routes through a full elimination or the kernel, on integer and
    Fraction input with zero rows, rank deficiency, n = 0 and r = 0."""

    @given(any_matrices(), st.integers(0, 2 ** 32 - 1))
    def test_cache_key_ignores_the_spanning_matrix(self, A, seed):
        M = Matroid.from_matrix(A)
        N = Matroid.from_matrix(mixed_copy(A, random.Random(seed)))
        assert M.cache_key() == N.cache_key() == ("rref", A.cols, M.subspace.rows)
        assert M._int_rows is M.subspace.rows

    @given(any_matrices(), st.data())
    def test_restrict_equals_projected_matrix(self, A, data):
        n = A.cols
        F = data.draw(st.sets(st.integers(1, n), max_size=n) if n else st.just(set()))
        L = Subspace.from_matrix(A)
        projected = Subspace.from_matrix(
            A.column_submatrix([i - 1 for i in sorted(F)]))
        sub, labels = restrict_subspace(L, F)
        minor, minor_labels = restrict(Matroid.from_subspace(L), F)
        assert sub == projected and minor.subspace == projected
        assert labels == minor_labels == tuple(sorted(F))

    @given(any_matrices(), st.data())
    def test_contract_equals_kernel_route(self, A, data):
        n = A.cols
        I = data.draw(st.sets(st.integers(1, n), max_size=n) if n else st.just(set()))
        L = Subspace.from_matrix(A)
        reference = contract_subspace_by_kernel(L, I)
        sub, labels = contract_subspace(L, I)
        minor, minor_labels = contract_set(Matroid.from_subspace(L), I)
        assert sub == reference and minor.subspace == reference
        assert labels == minor_labels == tuple(e for e in range(1, n + 1) if e not in I)

    @given(any_matrices(max_rows=4, max_cols=7))
    def test_score_count_dc_matches_chi(self, A):
        M = Matroid.from_matrix(A)
        E = _explicit_copy(M)
        for d in (1, 2, 3, 4):
            assert score_count_dc(M, d) == score_count(M, d) == score_count_dc(E, d)

    def test_bad_subset_rejected(self):
        M = Matroid.from_matrix(mat([[1, 2, 3]]))
        for minor in (restrict, contract_set):
            with pytest.raises(ValueError):
                minor(M, [4])
            with pytest.raises(ValueError):
                minor(_explicit_copy(M), [0])


class TestLoopsColoops:
    def test_boolean_all_coloops(self):
        M = uniform_matroid(4, 4)
        assert M.coloops() == (1, 2, 3, 4)

    def test_zero_column_loop(self):
        M = Matroid.from_matrix(mat([[1, 0], [0, 0]], cols=2))
        assert 2 in M.loops()

    def test_u23_has_neither(self):
        M = uniform_matroid(3, 2)
        assert M.loops() == () and M.coloops() == ()

    def test_loops_and_full_rank_match_rank_queries(self):
        for M in corpus():
            assert M.loops() == tuple(e for e in M.ground if M.rank({e}) == 0)
            assert M.full_rank() == M.rank(M.ground)


class TestConnectivity:
    def test_u13_single_component(self):
        assert is_partition_matroid(uniform_matroid(3, 1))

    def test_direct_sum_of_rank_ones(self):
        A = mat([[1, 1, 0, 0], [0, 0, 1, 1]])
        assert is_partition_matroid(Matroid.from_matrix(A))

    def test_u23_not_partition(self):
        assert not is_partition_matroid(uniform_matroid(3, 2))

    def test_boolean_is_partition(self):
        assert is_partition_matroid(uniform_matroid(4, 4))

    def test_loop_blocks_partition(self):
        M = Matroid.from_matrix(mat([[1, 0], [0, 0]], cols=2))
        assert not is_partition_matroid(M)

    def test_components_match_separator_oracle(self):
        for M in corpus_upto(6)[:45]:
            assert connected_components(M) == separator_components(M)

    def test_rank_additive_over_components(self):
        for M in corpus_upto(8)[:60]:
            comps = connected_components(M)
            assert sum(M.rank(c) for c in comps) == M.full_rank()


class TestJson:
    def test_matrix_forms(self):
        raw = {"rows": 2, "cols": 3,
               "entries": [["1", "0", "1"], ["0", "1", "1"]]}
        for payload in (raw, {"matrix": raw}):
            M = matroid_from_json_dict(payload)
            assert M.is_realized and M.full_rank() == 2

    def test_explicit_bases(self):
        M = matroid_from_json_dict({"n": 3, "bases": [[1, 2], [1, 3], [2, 3]]})
        assert not M.is_realized
        assert M.full_rank() == 2

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            matroid_from_json_dict({"something": 1})
        with pytest.raises(ValueError):
            matroid_from_json_dict({"bases": [[1]]})


def _is_basis_family(n, family):
    """Reference: distinct equal-size sets are the bases of a matroid exactly
    when S -> max |S & B| over the family is submodular; that map is then
    the rank function, and its bases are the family."""
    masks = [sum(1 << (e - 1) for e in b) for b in family]
    if len(set(masks)) != len(masks):
        return False
    rank = [max(bin(s & b).count("1") for b in masks) for s in range(1 << n)]
    return all(rank[s | t] + rank[s & t] <= rank[s] + rank[t]
               for s in range(1 << n) for t in range(s + 1, 1 << n))


@st.composite
def bases_lists(draw):
    """Equal-size subsets of {1..n}, n <= 5: the bases of a realized matroid
    with a few removed, added or repeated, or an arbitrary family."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(0, n))
    pool = [list(c) for c in combinations(range(1, n + 1), r)]
    if draw(st.booleans()):
        seed = draw(st.integers(0, 10 ** 6))
        M = Matroid.from_matrix(random_matrix(random.Random(seed), n, max(r, 1)))
        family = [sorted(b) for b in M.bases()]
        for _ in range(draw(st.integers(0, 2))):
            op = draw(st.sampled_from(["drop", "add", "repeat"]))
            k = len(family[0])
            if op == "drop" and len(family) > 1:
                family.pop(draw(st.integers(0, len(family) - 1)))
            elif op == "add":
                extra = [list(c) for c in combinations(range(1, n + 1), k)
                         if list(c) not in family]
                if extra:
                    family.append(draw(st.sampled_from(extra)))
            elif op == "repeat":
                family.append(draw(st.sampled_from(family)))
        return n, family
    family = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool) + 1))
    return n, family


class TestCheckBases:
    @given(bases_lists())
    def test_agrees_with_submodular_rank(self, case):
        n, family = case
        M = Matroid.from_bases(n, family)
        if _is_basis_family(n, family):
            check_bases(M)
        else:
            with pytest.raises(ValueError):
                check_bases(M)

    def test_every_explicit_copy_in_the_corpus_passes(self):
        for M in corpus_upto(8):
            check_bases(_explicit_copy(M))

    def test_messages_name_the_fault(self):
        with pytest.raises(ValueError, match=r"\[1, 2\] and \[3, 4\] violate basis exchange"):
            check_bases(Matroid.from_bases(4, [[1, 2], [3, 4]]))
        with pytest.raises(ValueError, match=r"basis \[1, 2\] is listed more than once"):
            check_bases(Matroid.from_bases(3, [[1, 2], [2, 3], [2, 1]]))
