import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mldeg import BiPoly, UniPoly, char_poly, format_rational, parse_rational, uniform_matroid

CHI_U23 = UniPoly((2, -3, 1))          # t^2 - 3t + 2
TUTTE_U23 = BiPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})   # x^2 + x + y


class TestRational:
    def test_parse_canonical_strings(self):
        assert parse_rational("2/5") == Fraction(2, 5)
        assert parse_rational("-3") == Fraction(-3)
        assert parse_rational("4/6") == Fraction(2, 3)
        assert parse_rational(7) == Fraction(7)

    def test_format_is_canonical(self):
        assert format_rational(Fraction(2, 5)) == "2/5"
        assert format_rational(Fraction(-6, 2)) == "-3"
        assert format_rational(Fraction(0, 9)) == "0"

    @pytest.mark.parametrize("bad", ["x", None, 2.5, True, "1/0", [1],
                                     "1e10000000", "2E3", "1.5e-2", "1/2e5"])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_decimal_strings_are_exact(self):
        # "1.5" is exactly 3/2; only float objects are refused
        assert parse_rational("1.5") == Fraction(3, 2)

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @given(st.fractions().filter(lambda q: q != 0))
    def test_exact_inverse(self, q):
        assert q * (1 / q) == 1


small_ints = st.integers(min_value=-9, max_value=9)
unipolys = st.lists(small_ints, max_size=6).map(UniPoly)
points = st.fractions(min_value=-50, max_value=50, max_denominator=20)


class TestUniPoly:
    def test_trailing_zeros_stripped(self):
        assert UniPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert UniPoly((0, 0)).is_zero()
        assert UniPoly(()).degree() == -1

    def test_product_example(self):
        t_minus_1 = UniPoly((-1, 1))
        t_minus_2 = UniPoly((-2, 1))
        assert t_minus_1 * t_minus_2 == CHI_U23

    def test_additive_identity(self):
        p = UniPoly((3, 0, 5))
        assert p + UniPoly.zero() == p

    def test_eval_chi_u23(self):
        assert CHI_U23.evaluate(Fraction(1, 2)) == Fraction(3, 4)
        assert CHI_U23.evaluate(0) == 2

    def test_eval_zero_poly(self):
        assert UniPoly.zero().evaluate(Fraction(7, 3)) == 0

    def test_substitute_one_minus_t(self):
        # x^2 + x at x = 1 - t gives (1-t)^2 + (1-t) = t^2 - 3t + 2
        p = UniPoly((0, 1, 1))
        assert p.compose_linear(1, -1) == CHI_U23

    def test_pow(self):
        assert UniPoly((-1, 1)) ** 3 == UniPoly((-1, 3, -3, 1))
        assert UniPoly((5, 2)) ** 0 == UniPoly.one()

    def test_serialization_round_trip(self):
        p = UniPoly((2, -3, 1))
        assert p.to_coeff_strings() == ["2", "-3", "1"]
        assert UniPoly.from_coeff_strings(p.to_coeff_strings()) == p

    @given(unipolys, unipolys, unipolys)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(unipolys, unipolys, points)
    def test_eval_is_ring_hom(self, p, q, v):
        assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)
        assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)


bipolys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), small_ints, max_size=6
).map(BiPoly)


class TestBiPoly:
    def test_eval_tutte_u23(self):
        assert TUTTE_U23.evaluate(Fraction(2, 3), Fraction(0)) == Fraction(10, 9)
        assert TUTTE_U23.evaluate(1, 1) == 3      # number of bases
        assert TUTTE_U23.evaluate(2, 2) == 8      # 2^n

    def test_zero_coefficients_dropped(self):
        assert BiPoly({(1, 1): 0, (0, 0): 3}) == BiPoly({(0, 0): 3})
        assert BiPoly().is_zero()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            BiPoly({(-1, 0): 1})

    def test_x_slice(self):
        assert TUTTE_U23.x_slice_at_y_zero() == UniPoly((0, 1, 1))
        assert BiPoly({(0, 2): 5}).x_slice_at_y_zero().is_zero()

    def test_serialization_round_trip(self):
        terms = TUTTE_U23.to_term_list()
        assert terms == [[0, 1, "1"], [1, 0, "1"], [2, 0, "1"]]
        assert BiPoly.from_term_list(terms) == TUTTE_U23

    @given(bipolys, bipolys, bipolys)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    @given(bipolys, bipolys, points, points)
    def test_eval_is_ring_hom(self, p, q, x, y):
        assert (p * q).evaluate(x, y) == p.evaluate(x, y) * q.evaluate(x, y)

    @given(bipolys)
    def test_scale_matches_repeated_add(self, p):
        assert p.scale(3) == p + p + p

    @given(bipolys, st.integers(0, 3), st.integers(0, 3))
    def test_shift_is_product_with_monomial(self, p, i, j):
        assert p.shift(i, j) == p * BiPoly({(i, j): 1})


@pytest.mark.parametrize("poly", [CHI_U23, UniPoly.zero(), TUTTE_U23, BiPoly.zero()])
def test_copies_and_pickles_round_trip(poly):
    for clone in (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
        assert type(clone) is type(poly) and clone == poly
        with pytest.raises(AttributeError):
            clone.coeffs = ()


def test_deep_copy_of_a_matroid_with_chi_cached():
    M = uniform_matroid(5, 3)
    chi = char_poly(M)
    clone = copy.deepcopy(M)
    assert clone._charpoly == chi and clone._charpoly is not chi
    assert char_poly(clone) == chi
