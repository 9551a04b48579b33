"""Exact polynomial arithmetic with big-integer coefficients.

Rationals are `fractions.Fraction` throughout the package: Fraction already
keeps the canonical form we need (positive denominator, gcd-reduced, zero as
0/1) and its string form ("2/5", "-3") is the wire format used in all JSON
interfaces.

Two polynomial types live here:

  UniPoly -- dense univariate, a tuple of int coefficients indexed by degree.
             Characteristic polynomials have degree at most the matroid rank,
             so the dense layout wastes nothing.
  BiPoly  -- sparse bivariate, a map (i, j) -> int for the coefficient of
             x^i y^j.  Tutte polynomials are sparse inside their exponent box.

Both are immutable; instances can be shared freely between threads.  The
value classes of the other modules (matrices, subspaces, reports) get the
same immutability from the `_frozen` class decorator.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import attrgetter

Rational = Fraction


def parse_rational(text: object) -> Fraction:
    """Parse a rational from its canonical string form ("2/5", "-3").

    Plain ints are accepted for convenience; floats are rejected because the
    package has no floating-point mode.
    """
    if isinstance(text, bool):
        raise ValueError(f"not a rational value: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational value: {text!r}") from exc
    raise ValueError(f"not a rational value: {text!r}")


def format_rational(q: int | Fraction) -> str:
    """Canonical string form: '/'-separated, no whitespace, integers bare."""
    return str(Fraction(q))


class UniPoly:
    """Dense univariate polynomial over the integers.

    coeffs[k] is the coefficient of t^k; trailing zeros are stripped, so the
    zero polynomial is the empty tuple and degree() == -1 for it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def t(cls) -> "UniPoly":
        return cls((0, 1))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Index of the last stored coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return UniPoly(out)

    def scale(self, k: int) -> "UniPoly":
        return UniPoly(tuple(k * c for c in self.coeffs))

    def __pow__(self, exp: int) -> "UniPoly":
        if exp < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def evaluate(self, point: int | Fraction) -> int | Fraction:
        """Exact value at `point` by Horner's rule.

        An int point yields an int, a Fraction point yields a Fraction.
        """
        acc: int | Fraction = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose_linear(self, c0: int, c1: int) -> "UniPoly":
        """Exact substitution t |-> c0 + c1*t (e.g. (1, -1) gives p(1 - t))."""
        acc = UniPoly.zero()
        inner = UniPoly((c0, c1))
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly((c,))
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "UniPoly(0)"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{k}")
        return "UniPoly(" + " + ".join(parts) + ")"

    def to_coeff_strings(self) -> list[str]:
        """Serialize low-to-high as decimal strings (exact at any size)."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_coeff_strings(cls, items: Iterable[object]) -> "UniPoly":
        return cls(int(str(c)) for c in items)


class BiPoly:
    """Sparse bivariate polynomial over the integers.

    Terms map (i, j) -> coefficient of x^i y^j; zero coefficients are never
    stored and exponents are nonnegative.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in term x^{i} y^{j}")
                if c != 0:
                    clean[(i, j)] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def one(cls) -> "BiPoly":
        return cls({(0, 0): 1})

    @classmethod
    def x(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    def items(self):
        return self._terms.items()

    def coefficient(self, i: int, j: int) -> int:
        return self._terms.get((i, j), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + c
        return BiPoly(out)

    def __neg__(self) -> "BiPoly":
        return BiPoly({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return BiPoly(out)

    def shift(self, i: int, j: int) -> "BiPoly":
        """The product with the monomial x^i y^j."""
        return BiPoly({(a + i, b + j): c for (a, b), c in self._terms.items()})

    def scale(self, k: int) -> "BiPoly":
        return BiPoly({key: k * c for key, c in self._terms.items()})

    def evaluate(self, x: int | Fraction, y: int | Fraction) -> int | Fraction:
        """Exact value at (x, y); int inputs stay int, Fractions stay exact."""
        xpow: dict[int, int | Fraction] = {0: 1}
        ypow: dict[int, int | Fraction] = {0: 1}

        def power(table, base, e):
            if e not in table:
                table[e] = power(table, base, e - 1) * base
            return table[e]

        acc: int | Fraction = 0
        for (i, j), c in self._terms.items():
            acc += c * power(xpow, x, i) * power(ypow, y, j)
        return acc

    def x_slice_at_y_zero(self) -> UniPoly:
        """The univariate polynomial p(x) = self(x, 0)."""
        if not self._terms:
            return UniPoly.zero()
        top = max(i for (i, j) in self._terms if j == 0) if any(
            j == 0 for (_, j) in self._terms
        ) else -1
        coeffs = [0] * (top + 1)
        for (i, j), c in self._terms.items():
            if j == 0:
                coeffs[i] = c
        return UniPoly(coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return "BiPoly(0)"
        parts = []
        for (i, j) in sorted(self._terms, reverse=True):
            c = self._terms[(i, j)]
            piece = f"{c}"
            if i:
                piece += f"*x^{i}" if i > 1 else "*x"
            if j:
                piece += f"*y^{j}" if j > 1 else "*y"
            parts.append(piece)
        return "BiPoly(" + " + ".join(parts) + ")"

    def to_term_list(self) -> list[list]:
        """Serialize as [[i, j, "c"], ...] sorted by exponent pair."""
        return [[i, j, str(self._terms[(i, j)])] for (i, j) in sorted(self._terms)]

    @classmethod
    def from_term_list(cls, items: Iterable[Iterable[object]]) -> "BiPoly":
        terms: dict[tuple[int, int], int] = {}
        for entry in items:
            i, j, c = entry
            terms[(int(i), int(j))] = terms.get((int(i), int(j)), 0) + int(str(c))
        return cls(terms)


def _frozen(cls):
    """Class decorator for an immutable value class with annotated fields.

    It stands in for a frozen dataclass without the cost of creating one at
    import.  The annotated names, in order, are the fields; a class attribute
    of the same name is the field's default.  The class gets:

      - construction by position or keyword, with defaults, followed by
        `__post_init__` when the class defines one;
      - `==` that holds only between instances of the same class and
        compares the field tuples, and the matching `hash`;
      - `repr` in the form Name(field=value, ...);
      - an AttributeError on assignment or deletion.

    A method the class body defines itself is kept, as a dataclass keeps it.
    Instances keep a `__dict__`, so `functools.cached_property` still works.
    """
    fields = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    key = attrgetter(*fields)
    post = getattr(cls, "__post_init__", None)
    store = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(fields):
            args = _bind(cls, fields, defaults, args, kwargs)
        for name, value in zip(fields, args):
            store(self, name, value)
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{cls.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls


def _bind(cls, fields: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """Field values of a `_frozen` class from arguments given by keyword,
    given too few or too many, or left to their defaults."""
    name = cls.__qualname__
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                        f"but {len(args)} were given")
    for field in fields[:len(args)]:
        if field in kwargs:
            raise TypeError(f"{name}() got multiple values for argument {field!r}")
    values = list(args)
    for field in fields[len(args):]:
        if field in kwargs:
            values.append(kwargs.pop(field))
        elif field in defaults:
            values.append(defaults[field])
        else:
            raise TypeError(f"{name}() missing required argument {field!r}")
    if kwargs:
        raise TypeError(f"{name}() got an unexpected keyword argument "
                        f"{next(iter(kwargs))!r}")
    return values
