import heapq
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mldeg import (
    CapacityError,
    CertificationError,
    GroebnerBasis,
    MPoly,
    NonGenericParameters,
    OracleCaps,
    QMatrix,
    SolverLimits,
    Subspace,
    build_score_system,
    buchberger,
    count_torus_solutions,
    oracle_score_count,
    random_generic_s,
    score_count,
    uniform_matroid,
)
import mldeg.solver as solver_module
from mldeg.cli import random_uniform_matrix
from mldeg.solver import (
    _int_terms,
    _Monomials,
    _order_key,
    _primitive,
    format_mpoly,
    variable_names,
)


def subspace(rows, cols=None):
    return Subspace.from_matrix(QMatrix.from_rows(rows, cols=cols))


def sympy_expr(p: MPoly, syms):
    """p as a sympy expression in syms (one symbol per variable, in order)."""
    expr = sp.Integer(0)
    for e, c in p.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for k, exp in enumerate(e):
            if exp:
                term *= syms[k] ** exp
        expr += term
    return expr


def term_dict(poly) -> dict:
    """A sympy Poly over the reversed generators as exponent->Fraction."""
    terms = {}
    for monom, coeff in poly.terms():
        exps = tuple(reversed(monom))
        terms[exps] = Fraction(sp.Rational(coeff).p, sp.Rational(coeff).q)
    return terms


def sympy_reduced_groebner(system):
    """Independent route: sympy's Groebner engine on the same system.

    Returns the reduced monic basis as a set of exponent->coefficient
    dicts in this package's variable layout.
    """
    names = variable_names(system.n, system.r)
    syms = sp.symbols(names)
    # sympy lists generators in decreasing precedence; ours increases.
    gens = list(reversed(syms))
    exprs = [sympy_expr(eq, syms) for eq in system.equations]
    basis = sp.groebner(exprs, *gens, order="grevlex")
    out = []
    for poly in basis.polys:
        terms = term_dict(poly)
        lead = max(terms, key=_order_key)
        lc = terms[lead]
        out.append({e: c / lc for e, c in terms.items()})
    return sorted(out, key=lambda t: _order_key(max(t, key=_order_key)))


# -- the tuple kernel ----------------------------------------------------------
# The reduction loop as it ran on exponent tuples before the solver packed
# them into ints: the oracle for the packed kernel and the reference loop.


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def tuple_reduce(terms, lms, lcs, tails):
    """Fraction-free remainder (remainder, scale) of an integer polynomial
    against integer divisors, each lead going to its first divisor."""
    work = dict(terms)
    heap = [(-sum(e), e) for e in work]
    heapq.heapify(heap)
    remainder = {}
    scale = 1
    while heap:
        _, lead = heapq.heappop(heap)
        coeff = work.get(lead)
        if not coeff:
            continue
        for gi, glm in enumerate(lms):
            if divides(glm, lead):
                glc = lcs[gi]
                g0 = gcd(coeff, glc)
                mult = abs(glc) // g0
                if glc < 0:
                    g0 = -g0
                factor = coeff // g0
                if mult != 1:
                    for key in work:
                        work[key] *= mult
                    for key in remainder:
                        remainder[key] *= mult
                    scale *= mult
                shift = tuple(a - b for a, b in zip(lead, glm))
                for ge, gc in tails[gi].items():
                    key = tuple(a + b for a, b in zip(ge, shift))
                    old = work.get(key)
                    if old is None:
                        val = -factor * gc
                        if val:
                            work[key] = val
                            heapq.heappush(heap, (-sum(key), key))
                    else:
                        val = old - factor * gc
                        if val:
                            work[key] = val
                        else:
                            del work[key]
                break
        else:
            remainder[lead] = coeff
            del work[lead]
    return remainder, scale


def tuple_s_poly(ft, flm, flc, gt, glm, glc):
    """Cross-scaled S-polynomial of two integer polynomials."""
    g0 = gcd(flc, glc)
    lcm = tuple(max(a, b) for a, b in zip(flm, glm))
    shift_f = tuple(a - b for a, b in zip(lcm, flm))
    shift_g = tuple(a - b for a, b in zip(lcm, glm))
    out = {tuple(a + b for a, b in zip(e, shift_f)): glc // g0 * c for e, c in ft.items()}
    for e, c in gt.items():
        key = tuple(a + b for a, b in zip(e, shift_g))
        val = out.get(key, 0) - flc // g0 * c
        if val:
            out[key] = val
        elif key in out:
            del out[key]
    return out


def tuple_reduced_basis(num_vars, terms, lms, lcs):
    """Minimal basis in increasing lead order, each member reduced by the
    others, made monic."""
    keep = []
    for i in sorted(range(len(terms)), key=lambda i: _order_key(lms[i])):
        if not any(divides(lms[k], lms[i]) for k in keep):
            keep.append(i)
    reduced = []
    for pos, i in enumerate(keep):
        others = keep[:pos] + keep[pos + 1:]
        h, _ = tuple_reduce(terms[i], [lms[k] for k in others],
                            [lcs[k] for k in others], [terms[k] for k in others])
        reduced.append(MPoly(num_vars, {e: Fraction(c, h[lms[i]]) for e, c in h.items()}))
    return tuple(reduced)


def reference_buchberger(polys, limits=None) -> GroebnerBasis:
    """Normal strategy and chain criterion on the tuple kernel: the pair
    loop the library used before sugar selection, the Gebauer-Moeller
    update and packed monomials, kept as the reference.  Pops the smallest
    lcm by (total degree, exponent tuple), skips coprime leads, and skips a
    pair (i, j) when some lead divides its lcm and both pairs through that
    element have already been treated."""
    limits = limits or SolverLimits()
    num_vars = polys[0].num_vars
    terms, lms, lcs = [], [], []
    for p in polys:
        t = _int_terms(p)
        if t:
            terms.append(t)
            lms.append(p.lead_monomial())
            lcs.append(t[p.lead_monomial()])
    if not terms:
        return GroebnerBasis(num_vars, ())

    def pair_key(i, j):
        lcm = tuple(max(a, b) for a, b in zip(lms[i], lms[j]))
        return (sum(lcm), lcm)

    pairs = {(i, j) for j in range(len(terms)) for i in range(j)}
    heap = [(pair_key(i, j), (i, j)) for i, j in pairs]
    heapq.heapify(heap)
    while heap:
        _, (i, j) = heapq.heappop(heap)
        pairs.remove((i, j))
        lmi, lmj = lms[i], lms[j]
        lcm = tuple(max(a, b) for a, b in zip(lmi, lmj))
        if all(a + b == c for a, b, c in zip(lmi, lmj, lcm)):
            continue
        if any(k not in (i, j) and divides(lms[k], lcm)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k in range(len(terms))):
            continue
        s = tuple_s_poly(terms[i], lmi, lcs[i], terms[j], lmj, lcs[j])
        h, _ = tuple_reduce(s, lms, lcs, terms)
        if not h:
            continue
        hlm = max(h, key=_order_key)
        if sum(hlm) > limits.max_total_degree or len(terms) + 1 > limits.max_basis_size:
            raise CapacityError("reference loop exceeded a cap")
        h = _primitive(h, h[hlm])
        terms.append(h)
        lms.append(hlm)
        lcs.append(h[hlm])
        new = len(terms) - 1
        for k in range(new):
            pairs.add((k, new))
            heapq.heappush(heap, (pair_key(k, new), (k, new)))
    return GroebnerBasis(num_vars, tuple_reduced_basis(num_vars, terms, lms, lcs))


def two_conics():
    x2, xy, y2, x, y, one = (2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)
    return (MPoly(2, {x2: 2, y2: 1, x: -4, y: -4, one: 3}),
            MPoly(2, {x2: 1, xy: 1, y2: 3, y: -12, one: 9}))


def moment_curve_system():
    """The moment-curve rows of U(2, 5) with d = 3 and seed-0 parameters:
    the instance on which the normal strategy swelled coefficients."""
    L = subspace([[1] * 5, [1, 2, 3, 4, 5]])
    return build_score_system(L, random_generic_s(5, 0), 3)


@st.composite
def score_systems(draw):
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, min(2, n)))
    grid = [[draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(r)]
    L = subspace(grid, cols=n)
    if L.dim == 0:
        L = subspace([[1] * n])
    d = draw(st.integers(1, 3))
    return build_score_system(L, random_generic_s(n, draw(st.integers(0, 10 ** 6))), d)


@st.composite
def small_polynomial_systems(draw):
    """Dense low-degree systems, where many pairs share an lcm (criterion F)."""
    nv = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 2)] * nv)
    coeffs = st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=4)
    polys = [MPoly(nv, draw(coeffs)) for _ in range(draw(st.integers(1, 3)))]
    return [p for p in polys if not p.is_zero()] or [MPoly(nv, {(1,) * nv: 1})]


def as_term_dicts(gb: GroebnerBasis):
    return sorted(
        (dict(g.terms) for g in gb.generators),
        key=lambda t: _order_key(max(t, key=_order_key)),
    )


class TestBuildSystem:
    def test_one_variable_shape(self):
        system = build_score_system(subspace([[1]]), [3], 2)
        names = variable_names(1, 1)
        rendered = [format_mpoly(eq, names) for eq in system.equations]
        assert rendered == ["x1*t1 - 1", "3*x1^2 - x1"]

    def test_equation_count(self):
        L = subspace([[1, 0, 2], [0, 1, 5]])
        system = build_score_system(L, [1, 2, 3], 2)
        assert len(system.equations) == L.ambient_n + L.dim
        assert system.num_vars == 5

    def test_d1_merges_terms(self):
        system = build_score_system(subspace([[1, 1]]), [4, 9], 1)
        # s_j x_j - x_j collapses to (s_j - 1) x_j
        score_eq = system.equations[-1]
        assert score_eq.terms == {(1, 0, 0): Fraction(3), (0, 1, 0): Fraction(8)}

    def test_domain_errors(self):
        L = subspace([[1, 1]])
        with pytest.raises(ValueError):
            build_score_system(Subspace.zero(2), [1, 2], 2)
        with pytest.raises(ValueError):
            build_score_system(L, [1], 2)
        with pytest.raises(ValueError):
            build_score_system(L, [1, 2], 0)

    def test_text_export(self):
        system = build_score_system(subspace([[1, 2]]), [5, 7], 2)
        lines = system.to_text().splitlines()
        assert lines[0] == "x1*t1 - 1"
        assert lines[1] == "2*x2*t1 - 1"
        assert lines[2] == "14*x2^2 + 5*x1^2 - 2*x2 - x1"


class TestRandomS:
    def test_deterministic(self):
        assert random_generic_s(3, 1) == random_generic_s(3, 1)

    def test_seeds_differ(self):
        assert random_generic_s(4, 1) != random_generic_s(4, 2)

    def test_entries_positive(self):
        assert all(v >= 1 for v in random_generic_s(6, 9))

    def test_bound_floor(self):
        with pytest.raises(ValueError):
            random_generic_s(3, 1, bound=10)


class TestMPoly:
    def test_wrong_exponent_length_rejected(self):
        with pytest.raises(ValueError):
            MPoly(2, {(1,): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MPoly(2, {(-1, 0): 1})


class TestBuchberger:
    def test_hand_example(self):
        system = build_score_system(subspace([[1]]), [3], 2)
        gb = buchberger(system)
        names = variable_names(1, 1)
        assert [format_mpoly(g, names) for g in gb.generators] == [
            "x1 - 1/3", "t1 - 3",
        ]

    def test_single_polynomial_unchanged(self):
        p = MPoly(1, {(3,): 2, (1,): -4})
        gb = buchberger([p])
        assert as_term_dicts(gb) == [{(3,): Fraction(1), (1,): Fraction(-2)}]

    def test_linear_system_matches_rref(self):
        # the basis of a linear ideal is the rref of the coefficient matrix
        # with pivots on the largest variables (reversed column order)
        eqs = [
            MPoly(3, {(1, 0, 0): 2, (0, 1, 0): 4, (0, 0, 1): -2}),
            MPoly(3, {(1, 0, 0): 1, (0, 1, 0): 3, (0, 0, 1): 1}),
        ]
        gb = buchberger(eqs)
        from mldeg import rref
        R = rref(QMatrix.from_rows([[-2, 4, 2], [1, 3, 1]]))
        expected = []
        for row in R.entries:
            terms = {}
            for k, c in enumerate(row):
                if c:
                    e = [0, 0, 0]
                    e[2 - k] = 1   # column k holds the coefficient of x_{3-k}
                    terms[tuple(e)] = c
            expected.append(terms)
        assert sorted(as_term_dicts(gb), key=sorted) == sorted(expected, key=sorted)

    def test_reduced_basis_properties(self):
        L = subspace([[1, 0, 1], [0, 1, 1]])
        system = build_score_system(L, random_generic_s(3, 5), 2)
        gb = buchberger(system)
        lms = gb.lead_monomials()
        for i, a in enumerate(lms):
            for j, b in enumerate(lms):
                if i != j:
                    assert not all(x <= y for x, y in zip(a, b))
        for g in gb.generators:
            assert g.lead_coefficient() == 1
            for e in g.terms:
                if e != g.lead_monomial():
                    assert not any(
                        all(x <= y for x, y in zip(lm, e))
                        for lm in lms
                    )
        for eq in system.equations:
            assert gb.normal_form(eq).is_zero()

    def test_normal_form_of_non_member_matches_sympy(self):
        # a nonzero remainder with Fraction coefficients checks the scale
        # that the fraction-free reduction carries to the final division
        L = subspace([[1, 0, 1], [0, 1, 1]])
        system = build_score_system(L, random_generic_s(3, 5), 2)
        gb = buchberger(system)
        p = MPoly(5, {(3, 0, 0, 0, 1): Fraction(2, 3), (0, 1, 1, 0, 0): 1,
                      (1, 0, 0, 2, 0): Fraction(-5, 7), (0, 0, 0, 0, 0): Fraction(1, 2)})
        nf = gb.normal_form(p)
        assert not nf.is_zero()
        syms = sp.symbols(variable_names(3, 2))
        gens = list(reversed(syms))
        _, rem = sp.reduced(sympy_expr(p, syms),
                            [sympy_expr(g, syms) for g in gb.generators],
                            *gens, order="grevlex")
        assert nf.terms == term_dict(sp.Poly(rem, *gens))

    def test_normal_form_rejects_other_num_vars(self):
        gb = buchberger([MPoly(2, {(1, 0): 1, (0, 0): -1})])
        with pytest.raises(ValueError):
            gb.normal_form(MPoly(3, {(1, 0, 0): 1}))

    def test_mixed_num_vars_rejected(self):
        from mldeg import SolverLimits
        polys = [MPoly(2, {(1, 0): 1}), MPoly(3, {(0, 0, 1): 1, (0, 0, 0): 1})]
        with pytest.raises(ValueError):
            buchberger(polys, SolverLimits(max_basis_size=50))

    def test_capacity_cap_fires(self):
        from mldeg import SolverLimits
        L = subspace([[1, 0, 1], [0, 1, 1]])
        system = build_score_system(L, random_generic_s(3, 5), 3)
        with pytest.raises(CapacityError):
            buchberger(system, SolverLimits(max_basis_size=3))

    @pytest.mark.parametrize("rows,d,seed", [
        ([[1]], 2, 3),
        ([[1, 1]], 3, 1),
        ([[1, 0, 1], [0, 1, 1]], 2, 7),
        ([[1, 2, -1]], 2, 11),
        ([[3, 1, 4, 1]], 3, 13),
        ([[1, 0, 2, -1], [0, 1, 3, 5]], 2, 17),
    ])
    def test_matches_sympy(self, rows, d, seed):
        L = subspace(rows)
        system = build_score_system(L, random_generic_s(L.ambient_n, seed), d)
        assert as_term_dicts(buchberger(system)) == sympy_reduced_groebner(system)

    def test_matches_sympy_generic_polynomials(self):
        # not a score system: two plane conics
        x2 = (2, 0)
        xy = (1, 1)
        y2 = (0, 2)
        x = (1, 0)
        y = (0, 1)
        one = (0, 0)
        f1 = MPoly(2, {x2: 2, y2: 1, x: -4, y: -4, one: 3})
        f2 = MPoly(2, {x2: 1, xy: 1, y2: 3, y: -12, one: 9})
        gb = buchberger([f1, f2])

        class FakeSystem:
            equations = (f1, f2)
            num_vars = 2
            n = 2
            r = 0
        assert as_term_dicts(gb) == sympy_reduced_groebner(FakeSystem())


class TestPairStrategy:
    @settings(max_examples=25)
    @given(score_systems())
    def test_matches_reference_on_score_systems(self, system):
        assert buchberger(system) == reference_buchberger(system.equations)

    @given(small_polynomial_systems())
    def test_matches_reference_on_small_systems(self, polys):
        assert buchberger(polys) == reference_buchberger(polys)

    def test_matches_reference_on_two_conics(self):
        polys = two_conics()
        assert buchberger(polys) == reference_buchberger(polys)

    def test_moment_curve_coefficient_swell_stays_small(self, monkeypatch):
        # the normal strategy carried reduction scales of 77,981 bits here
        widest = [0]

        packed_reduce = solver_module._reduce

        def recording_reduce(*args):
            out = packed_reduce(*args)
            widest[0] = max(widest[0], out[1].bit_length())
            return out
        monkeypatch.setattr(solver_module, "_reduce", recording_reduce)
        gb = buchberger(moment_curve_system())
        assert count_torus_solutions(gb) == score_count(uniform_matroid(5, 2), 3)
        assert 0 < widest[0] <= 4000


@st.composite
def reduction_problems(draw):
    """An integer polynomial and a list of integer divisors in tuple form."""
    nv = draw(st.integers(1, 8))
    exps = st.tuples(*[st.integers(0, 3)] * nv)
    nonzero = st.integers(-4, 4).filter(bool)
    poly = st.dictionaries(exps, nonzero, min_size=1, max_size=5)
    divisors = draw(st.lists(poly, min_size=1, max_size=4))
    return nv, draw(st.dictionaries(exps, nonzero, max_size=6)), divisors


def packed_problem(nv, terms, divisors):
    lms = [max(t, key=_order_key) for t in divisors]
    lcs = [t[lm] for t, lm in zip(divisors, lms)]
    top = max(map(sum, [*terms, *(e for t in divisors for e in t)]), default=0)
    # the narrowest layout that holds them: fields reach twice max_degree
    mono = _Monomials(nv, (top + 1) // 2)
    def packed(t):
        return {mono.pack(e): c for e, c in t.items()}
    return (mono, packed(terms), [mono.pack(lm) for lm in lms], lcs,
            [packed(t) for t in divisors], lms)


class TestPackedKernel:
    """The packed monomial kernel against the tuple kernel above."""

    @given(st.integers(0, 8).flatmap(
        lambda nv: st.lists(st.tuples(*[st.integers(0, 40)] * nv), min_size=3, max_size=3)))
    def test_monomial_arithmetic_matches_tuples(self, monomials):
        # fields sized for these monomials, so a product of two may fill a
        # field up to twice the largest degree; 8 variables take 9 fields
        # of up to 11 bits
        a, b, c = monomials
        mono = _Monomials(len(a), max(map(sum, monomials)))
        pa, pb = mono.pack(a), mono.pack(b)
        ab = tuple(x + y for x, y in zip(a, b))
        assert mono.pack(ab) == pa + pb
        assert mono.unpack(pa + pb) == ab and mono.degree(pa + pb) == sum(ab)
        assert mono.lcm(pa, pb) == mono.pack(tuple(map(max, a, b)))
        for x, y in [(a, b), (ab, c), (c, ab), (a, ab), (ab, ab)]:
            px, py = mono.pack(x), mono.pack(y)
            assert (not (py - px) & mono.guards) == divides(x, y)
            assert ((px ^ mono.degree_mask) < (py ^ mono.degree_mask)) == (
                _order_key(x) > _order_key(y))

    @given(reduction_problems())
    @example((1, {(9,): 1}, [{(1,): 1, (0,): -1}]))  # a lead filling most of its field
    def test_reduce_matches_tuple_kernel(self, problem):
        nv, terms, divisors = problem
        mono, pterms, plms, lcs, ptails, lms = packed_problem(nv, terms, divisors)
        remainder, scale = solver_module._reduce(pterms, plms, lcs, ptails, mono, {})
        expected = tuple_reduce(terms, lms, lcs, divisors)
        assert ({mono.unpack(e): c for e, c in remainder.items()}, scale) == expected

    @given(reduction_problems(), st.integers(0, 4))
    def test_first_divisor_memo_survives_appended_divisors(self, problem, cut):
        # the memo filled against a prefix of the divisors stays valid
        # once the rest are appended, as the basis grows in buchberger
        nv, terms, divisors = problem
        mono, pterms, plms, lcs, ptails, lms = packed_problem(nv, terms, divisors)
        first = {}
        solver_module._reduce(pterms, plms[:cut], lcs[:cut], ptails[:cut], mono, first)
        remainder, scale = solver_module._reduce(pterms, plms, lcs, ptails, mono, first)
        expected = tuple_reduce(terms, lms, lcs, divisors)
        assert ({mono.unpack(e): c for e, c in remainder.items()}, scale) == expected

    @given(reduction_problems())
    def test_s_poly_matches_tuple_kernel(self, problem):
        nv, _, divisors = problem
        f, g = divisors[0], divisors[-1]
        mono, _, plms, lcs, ptails, lms = packed_problem(nv, {}, [f, g])
        s = solver_module._int_s_poly(ptails[0], plms[0], lcs[0], ptails[1], plms[1],
                                      lcs[1], mono.lcm(plms[0], plms[1]))
        assert {mono.unpack(e): c for e, c in s.items()} == tuple_s_poly(
            f, lms[0], lcs[0], g, lms[1], lcs[1])


class TestFieldWidth:
    """Inputs at the edges of the packed layout's field sizing."""

    def test_normal_form_far_above_the_basis_degree(self):
        # x1^500 * t1 against a basis of degree 2
        gb = buchberger(build_score_system(subspace([[1, 1]]), random_generic_s(2, 1), 3))
        p = MPoly(3, {(500, 0, 1): Fraction(3, 7), (0, 0, 1): Fraction(-1, 2), (1, 0, 0): 5})
        nf = gb.normal_form(p)
        assert not nf.is_zero()
        syms = sp.symbols(variable_names(2, 1))
        gens = list(reversed(syms))
        _, rem = sp.reduced(sympy_expr(p, syms),
                            [sympy_expr(g, syms) for g in gb.generators],
                            *gens, order="grevlex")
        assert nf.terms == term_dict(sp.Poly(rem, *gens))

    def test_inputs_above_the_degree_cap(self):
        # leads of degree 101 and 120 under a cap of 5; the coprime test
        # adds two of them, and their S-polynomial reduces to zero
        polys = [MPoly(3, {(100, 1, 0): 1, (100, 0, 0): -1}),
                 MPoly(3, {(1, 1, 0): 1, (1, 0, 0): -1}),
                 MPoly(3, {(0, 0, 120): 1, (0, 0, 119): -1})]
        gb = buchberger(polys, SolverLimits(max_total_degree=5))
        assert as_term_dicts(gb) == [{(1, 1, 0): 1, (1, 0, 0): -1},
                                     {(0, 0, 120): 1, (0, 0, 119): -1}]
        assert gb == reference_buchberger(polys)

    def test_degree_cap_still_fires_above_high_inputs(self):
        polys = [MPoly(2, {(100, 1): 1, (0, 0): -1}), MPoly(2, {(1, 1): 1, (0, 0): -1})]
        with pytest.raises(CapacityError, match="intermediate degree 99 exceeds cap 80"):
            buchberger(polys)
        gb = buchberger(polys, SolverLimits(max_total_degree=99))
        assert gb == reference_buchberger(polys, SolverLimits(max_total_degree=99))
        assert count_torus_solutions(gb) == 99

    def test_layout_is_sized_by_the_cap_and_the_inputs(self, monkeypatch):
        # leads reach the degree cap only far above the inputs' degrees,
        # where the systems here never go, so the sizing rule is pinned
        sizes = []

        class Recording(_Monomials):
            __slots__ = ()

            def __init__(self, num_vars, max_degree):
                sizes.append(max_degree)
                super().__init__(num_vars, max_degree)
        monkeypatch.setattr(solver_module, "_Monomials", Recording)
        buchberger(two_conics())
        buchberger([MPoly(1, {(100,): 1, (0,): -1})], SolverLimits(max_total_degree=5))
        assert sizes == [SolverLimits().max_total_degree, 100]

    def test_one_variable(self):
        polys = [MPoly(1, {(3,): 1, (0,): -1}), MPoly(1, {(2,): 1, (0,): -1})]
        gb = buchberger(polys)
        assert as_term_dicts(gb) == [{(1,): 1, (0,): -1}]
        assert gb == reference_buchberger(polys)
        assert count_torus_solutions(gb) == 1

    def test_eight_variables(self, monkeypatch):
        # n + r = 8 under MLDEG_MAX_N=6, the widest score system CI runs
        monkeypatch.setenv("MLDEG_MAX_N", "6")
        L = subspace([[1, 0, 1, 2, -1, 3], [0, 1, 1, -1, 2, 1]])
        system = build_score_system(L, random_generic_s(6, 0), 2)
        gb = buchberger(system)
        assert len(gb.generators) == 29
        assert count_torus_solutions(gb) == score_count(uniform_matroid(6, 2), 2)
        for eq in system.equations:
            assert gb.normal_form(eq).is_zero()

    def test_constant_and_unit_ideals(self):
        for num_vars in (0, 1, 3):
            gb = buchberger([MPoly(num_vars, {(0,) * num_vars: Fraction(-5, 3)})])
            assert as_term_dicts(gb) == [{(0,) * num_vars: 1}]
            assert count_torus_solutions(gb) == 0
            p = MPoly(num_vars, {(2,) * num_vars: 4, (0,) * num_vars: 1})
            assert gb.normal_form(p).is_zero()
        assert buchberger([MPoly(2), MPoly(2)]).generators == ()
        gb = buchberger([MPoly(2, {(1, 1): 1, (0, 0): -1}), MPoly(2, {(1, 0): 1})])
        assert as_term_dicts(gb) == [{(0, 0): 1}]

    def test_num_vars_mismatch(self):
        with pytest.raises(ValueError):
            buchberger([MPoly(1, {(1,): 1}), MPoly(2, {(1, 0): 1})])
        gb = buchberger([MPoly(1, {(1,): 1})])
        with pytest.raises(ValueError):
            gb.normal_form(MPoly(2, {(1, 0): 1}))


class TestReductionBudget:
    def count_reductions(self, monkeypatch, system):
        calls = [0]
        packed_s_poly = solver_module._int_s_poly

        def counting_s_poly(*args):
            calls[0] += 1
            return packed_s_poly(*args)
        monkeypatch.setattr(solver_module, "_int_s_poly", counting_s_poly)
        gb = buchberger(system)
        return gb, calls[0]

    def test_budget_is_exact(self, monkeypatch):
        L = subspace([[1, 0, 2, -1], [0, 1, 3, 5]])
        system = build_score_system(L, random_generic_s(4, 17), 2)
        gb, used = self.count_reductions(monkeypatch, system)
        assert used > 2
        assert buchberger(system, SolverLimits(max_reductions=used)) == gb
        with pytest.raises(CapacityError, match=(
                rf"S-polynomial budget {used - 1} exhausted: {used - 1} pairs "
                r"reduced, \d+ to zero \(basis size \d+\)")):
            buchberger(system, SolverLimits(max_reductions=used - 1))

    def test_default_budget_admits_the_heaviest_in_cap_shape(self, monkeypatch):
        # (4, 3, 3) needs the most reductions of the shapes that finish
        L = Subspace.from_matrix(random_uniform_matrix(4, 3, 0))
        system = build_score_system(L, random_generic_s(4, 0), 3)
        gb, used = self.count_reductions(monkeypatch, system)
        assert used == 251 < SolverLimits().max_reductions
        assert count_torus_solutions(gb) == score_count(uniform_matroid(4, 3), 3)

    def test_moment_curve_reductions_are_pinned(self, monkeypatch):
        gb, used = self.count_reductions(monkeypatch, moment_curve_system())
        assert used == 190
        assert count_torus_solutions(gb) == score_count(uniform_matroid(5, 2), 3)


@st.composite
def small_score_systems(draw):
    """Score systems of small subspaces with entries in [-3, 3], which may
    have loops, parallel columns or fewer dimensions than rows."""
    n = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=1, max_size=2))
    L = subspace(rows, cols=n)
    assume(L.dim)
    return build_score_system(L, random_generic_s(n, draw(st.integers(0, 99))),
                              draw(st.integers(2, 3)))


class TestBudgetEdges:
    """Every budget admits a solve at exactly the work it needs, with the
    same basis, and refuses it one unit below."""

    @staticmethod
    def measured(system):
        """The basis under the default limits, the S-polynomials it reduced
        and the largest lead degree among its nonzero remainders (0 if none)."""
        degrees = [0]
        reduce = solver_module._reduce

        def recording(s, lms, lcs, terms, mono, first):
            h, rest = reduce(s, lms, lcs, terms, mono, first)
            degrees.extend(mono.degree(m) for m in h)
            return h, rest

        with mock.patch.object(solver_module, "_int_s_poly",
                               wraps=solver_module._int_s_poly) as s_poly, \
                mock.patch.object(solver_module, "_reduce", recording):
            gb = buchberger(system)
        return gb, s_poly.call_count, max(degrees)

    @settings(max_examples=20, deadline=None)
    @given(small_score_systems())
    def test_reduction_budget_edge(self, system):
        gb, used, _ = self.measured(system)
        assert buchberger(system, SolverLimits(max_reductions=used)) == gb
        if used:
            with pytest.raises(CapacityError, match=rf"budget {used - 1} exhausted"):
                buchberger(system, SolverLimits(max_reductions=used - 1))

    @settings(max_examples=20, deadline=None)
    @given(small_score_systems())
    def test_degree_cap_edge(self, system):
        gb, _, top = self.measured(system)
        assume(top > 0)
        assert buchberger(system, SolverLimits(max_total_degree=top)) == gb
        with pytest.raises(CapacityError,
                           match=rf"intermediate degree {top} exceeds cap {top - 1} "):
            buchberger(system, SolverLimits(max_total_degree=top - 1))

    @given(caps=st.tuples(*[st.integers(1, 8)] * 3), axis=st.integers(0, 2),
           below=st.integers(0, 3))
    def test_caps_check_edge(self, caps, axis, below):
        shape = [max(cap - below * (k != axis), 1) for k, cap in enumerate(caps)]
        OracleCaps(*caps).check(*shape)
        shape[axis] += 1
        with pytest.raises(CapacityError, match="exceeds caps"):
            OracleCaps(*caps).check(*shape)

    @settings(max_examples=6, deadline=None)
    @given(n=st.integers(2, 4), r=st.integers(1, 2), d=st.integers(2, 3),
           seed=st.integers(0, 99), axis=st.integers(0, 2))
    def test_oracle_caps_edge(self, n, r, d, seed, axis):
        L = Subspace.from_matrix(random_uniform_matrix(n, r, seed))
        report = oracle_score_count(L, d, seed=seed)
        assert oracle_score_count(L, d, seed=seed, caps=OracleCaps(n, r, d)) == report
        caps = [n, r, d]
        caps[axis] -= 1
        with mock.patch.object(solver_module, "buchberger", side_effect=AssertionError), \
                pytest.raises(CapacityError, match="exceeds caps"):
            oracle_score_count(L, d, seed=seed, caps=OracleCaps(*caps))


class TestCounting:
    def test_hand_counts(self):
        cases = [
            ([[1]], 2, 1),          # single coordinate line: one solution
            ([[1, 1]], 3, 2),       # parallel pair, cubic score: d-1 roots
            ([[1, 0, 1], [0, 1, 1]], 2, 3),
        ]
        for rows, d, expected in cases:
            L = subspace(rows)
            system = build_score_system(L, random_generic_s(L.ambient_n, 1), d)
            assert count_torus_solutions(buchberger(system)) == expected

    def test_unit_ideal_counts_zero(self):
        gb = buchberger([MPoly(2, {(1, 0): 1}), MPoly(2, {(1, 0): 1, (0, 0): -1})])
        assert count_torus_solutions(gb) == 0

    def test_positive_dimension_raises(self):
        gb = buchberger([MPoly(2, {(1, 0): 1})])
        with pytest.raises(NonGenericParameters):
            count_torus_solutions(gb)

    def test_boolean_model_power_counts(self):
        L = subspace([[1, 0], [0, 1]])
        for d in (2, 3):
            system = build_score_system(L, random_generic_s(2, 3), d)
            assert count_torus_solutions(buchberger(system)) == (d - 1) ** 2


class TestOracle:
    def test_parallel_line_d2(self):
        report = oracle_score_count(subspace([[1, 1]]), 2, seed=1)
        assert report.count == report.predicted == 1

    def test_generic_2x3(self):
        report = oracle_score_count(subspace([[1, 0, 1], [0, 1, 1]]), 2, seed=7)
        assert report.count == report.predicted == 3

    def test_generic_2x4(self):
        report = oracle_score_count(
            subspace([[1, 0, 2, -1], [0, 1, 3, 5]]), 2, seed=2,
        )
        assert report.count == report.predicted == 5

    def test_d1_vacuity(self):
        report = oracle_score_count(subspace([[1, 0, 1], [0, 1, 1]]), 1, seed=4)
        assert report.count == 0

    def test_deterministic(self):
        L = subspace([[1, 2, 3]])
        assert oracle_score_count(L, 2, seed=9) == oracle_score_count(L, 2, seed=9)

    def test_seed_independent_count(self):
        L = subspace([[2, -1, 1], [1, 1, 4]])
        a = oracle_score_count(L, 2, seed=5)
        b = oracle_score_count(L, 2, seed=23)
        assert a.count == b.count

    def test_capacity_cap(self):
        L = subspace([[1, 0, 0, 1, 1, 2], [0, 1, 0, 3, 1, 1], [0, 0, 1, 1, 2, 1]])
        with pytest.raises(CapacityError):
            oracle_score_count(L, 2, seed=1)

    def test_env_override_allows_larger_n(self, monkeypatch):
        monkeypatch.setenv("MLDEG_MAX_N", "6")
        assert OracleCaps.from_env().max_n == 6
        L = subspace([[1, 1, 1, 1, 1, 1]])  # rank 1: still an easy system
        report = oracle_score_count(L, 2, seed=1)
        assert report.count == report.predicted == 1

    def test_certification_failure_carries_seeds(self, monkeypatch):
        import mldeg.solver as solver_module
        monkeypatch.setattr(solver_module, "score_count", lambda M, d: 999)
        with pytest.raises(CertificationError) as err:
            oracle_score_count(subspace([[1, 1]]), 2, seed=3, max_resamples=2)
        assert len(err.value.seeds) == 3
        assert err.value.predicted == 999

    def test_report_json(self):
        report = oracle_score_count(subspace([[1, 1]]), 2, seed=1)
        data = report.to_json_dict()
        assert data["count"] == "1" and data["predicted"] == "1"
        assert data["zero_dimensional"] is True
        assert isinstance(data["seed"], int) and isinstance(data["resamples"], int)


class TestCertificationSweep:
    def test_small_random_subspaces(self):
        # count == d^r T(1 - 1/d, 0) across a batch of random instances
        import random as _random
        rng = _random.Random(99)
        done = 0
        while done < 8:
            n = rng.randint(2, 4)
            r = rng.randint(1, 2)
            grid = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(r)]
            L = Subspace.from_matrix(QMatrix.from_rows(grid, cols=n))
            if L.dim != r:
                continue
            d = rng.choice([2, 3])
            report = oracle_score_count(L, d, seed=rng.randint(0, 10 ** 6))
            assert report.count == report.predicted
            done += 1
