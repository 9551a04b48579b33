import random
import re
from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

import mldeg.matroids
from mldeg import (
    Matroid,
    QMatrix,
    UniPoly,
    char_poly,
    connected_components,
    flats,
    is_partition_matroid,
    matroid_from_json_dict,
    score_count,
    score_count_dc,
    uniform_matroid,
)
from mldeg.invariants import flat_terms
from mldeg.matroids import _flat_walk, _mobius_sums, check_bases
from conftest import (
    _explicit_copy, any_matrices, corpus, corpus_upto, explicit_minor_by_combinations,
    family_matroid, k4_matroid, mixed_copy, planted_matrices, random_matrix,
    reference_flat_terms, reference_flats,
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

    @pytest.mark.parametrize("bases, named", [
        ([[1, 1], [2, 2]], "basis [1, 1] repeats element 1"),
        ([[1, 2], [1, 3], [2, 2, 3]], "basis [2, 2, 3] repeats element 2"),
        ([[3, 1, 2, 1]], "basis [3, 1, 2, 1] repeats element 1"),
    ])
    def test_basis_repeating_an_element_is_refused(self, bases, named):
        # A frozenset would collapse the repeat: [[1, 1], [2, 2]] would read
        # as rank 1, and [2, 2, 3] as a third basis of U(2, 3).
        with pytest.raises(ValueError, match=re.escape(named)):
            Matroid.from_bases(3, bases)


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
    def test_realized_closures_match_bases(self, seed, n, r):
        # A realized closure pivots the rows; the explicit copy answers
        # every mask from its bases.
        M = Matroid.from_matrix(random_matrix(random.Random(seed), n, min(n, r)))
        E = _explicit_copy(M)
        for mask in range(1 << n):
            assert M.closure_mask(mask) == E.closure_mask(mask)


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
        # M|S and M/S, built from the realized ranks of M and from the
        # greedy ranks of its explicit copy.
        M = Matroid.from_matrix(random_matrix(random.Random(seed), n, min(n, r)))
        E = _explicit_copy(M)
        S = {e for e in M.ground if pick >> (e - 1) & 1}
        for keep, I in ((S, set()), (set(M.ground) - S, S)):
            realized = explicit_minor_by_combinations(M, keep, I)
            explicit = explicit_minor_by_combinations(E, keep, I)
            assert explicit.bases() == realized.bases()
            for d in (1, 2, 3):
                assert score_count_dc(explicit, d) == score_count(realized, d)

    def test_bitsets_are_built_on_the_first_query(self):
        E = _explicit_copy(k4_matroid())
        assert E._holders is None
        # Edges 1, 2 and 4 of K4 form a triangle.
        assert E.closure_mask(0b1011) == 0b1011
        assert len(E._holders) == 6


def check_against_enumeration(M: Matroid) -> None:
    lat = flats(M)
    assert len(set(lat.flats)) == len(lat.flats)
    assert set(lat.flats) == flats_by_enumeration(M)
    assert lat.ranks == tuple(M.rank(F) for F in lat.flats)
    assert list(lat.flats) == sorted(lat.flats, key=lambda F: (M.rank(F), sorted(F)))


class TestRankWalk:
    """`flats` reads the covers of each flat off the rows taken modulo it, or
    off the bitset of the bases that hold a basis of it.  The closure-driven
    walk it replaced, and flat_terms as it was, are the references."""

    @given(planted_matrices())
    def test_matches_closure_walk(self, A):
        M = Matroid.from_matrix(A)
        for N in (M, _explicit_copy(M)):
            reference = reference_flats(N)
            lattice = flats(N)
            assert lattice.flats == reference.flats
            assert lattice.ranks == reference.ranks
            assert lattice.mobius == reference.mobius
            assert list(flat_terms(N)) == reference_flat_terms(reference)

    @given(planted_matrices())
    def test_no_rank_or_closure_query(self, A):
        M = Matroid.from_matrix(A)
        copies = [Matroid.from_subspace(M.subspace), _explicit_copy(M)]
        expected = [reference_flats(N) for N in (M, _explicit_copy(M))]

        def refuse(*_):
            raise AssertionError("the walk asked a rank or closure query")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Matroid, "rank_mask", refuse)
            patch.setattr(Matroid, "closure_mask", refuse)
            patch.setattr(mldeg.matroids, "_modulo", refuse)
            for N, reference in zip(copies, expected):
                assert flats(N) == reference
                flat_terms(N)

    @given(planted_matrices())
    def test_mu_pass_is_the_mu_column(self, A):
        # Without ranks, _mobius_sums gives mu alone: the first entry of
        # what it gives with them, on the walk's flats and their complements.
        M = Matroid.from_matrix(A)
        for N in (M, _explicit_copy(M)):
            walk, top = _flat_walk(N), (1 << N.n) - 1
            r = walk.ranks[-1]
            up = [top ^ F for F in reversed(walk.masks)]
            up_ranks = [r - k for k in reversed(walk.ranks)]
            for masks, ranks in ((walk.masks, walk.ranks), (up, up_ranks)):
                full = _mobius_sums(masks, N.n, ranks)
                assert _mobius_sums(masks, N.n) == [sums[0] for sums in full]
            assert walk.mus == [abs(mu) for mu in reversed(_mobius_sums(up, N.n))]

    @pytest.mark.parametrize("n, bell", [(3, 5), (4, 15), (5, 52), (6, 203)])
    def test_graphic_flats_count_set_partitions(self, n, bell):
        # The flats of K_n are the partitions of its n vertices.
        M = family_matroid("K", n)
        for N in (M, _explicit_copy(M)):
            assert len(flats(N).flats) == bell


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


class TestIntegerRowMinors:
    """The integer rows a Subspace stores, on integer and Fraction input
    with zero rows, rank deficiency, n = 0 and r = 0: the key they give a
    matroid, and the deletion-contraction count on their minors."""

    @given(any_matrices(), st.integers(0, 2 ** 32 - 1))
    def test_cache_key_ignores_the_spanning_matrix(self, A, seed):
        M = Matroid.from_matrix(A)
        N = Matroid.from_matrix(mixed_copy(A, random.Random(seed)))
        assert M.cache_key() == N.cache_key() == ("rref", A.cols, M.subspace.rows)

    @given(any_matrices(max_rows=4, max_cols=7))
    def test_score_count_dc_matches_chi(self, A):
        M = Matroid.from_matrix(A)
        E = _explicit_copy(M)
        for d in (1, 2, 3, 4):
            assert score_count_dc(M, d) == score_count(M, d) == score_count_dc(E, d)

    def test_bad_subset_rejected(self):
        M = Matroid.from_matrix(mat([[1, 2, 3]]))
        for N in (M, _explicit_copy(M)):
            for query in (N.mask, N.rank, N.closure):
                for bad in ([4], [0, 1]):
                    with pytest.raises(ValueError, match="not inside 1..3"):
                        query(bad)


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

    def test_loops_are_computed_once(self):
        # Every degree asks for the loops, several times per request.
        loopy = [M for M in corpus() if M.loops()]
        assert loopy and all(M.loops() is M.loops() for M in loopy)


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

    @pytest.mark.parametrize("payload", [
        {"n": 2, "bases": [[1, 2]], "matrix": {"rows": 1, "cols": 1, "entries": [["1"]]}},
        {"n": 2, "bases": [[1, 2]], "rows": 1, "cols": 1, "entries": [["1"]]},
        {"matrix": {"rows": 1, "cols": 1, "entries": [["1"]]},
         "rows": 1, "cols": 2, "entries": [["1", "2"]]},
    ])
    def test_more_than_one_form_rejected(self, payload):
        # Each form alone is a valid input; together they are ambiguous.
        with pytest.raises(ValueError, match="give one of"):
            matroid_from_json_dict(payload)

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
