"""The package namespace and the immutable value classes.

The solver loads lazily behind `mldeg`; the value classes are plain classes
made immutable by `mldeg.ratpoly._frozen`.  These tests pin what callers
see of both: the exported names, and construction, equality, hashing,
repr and immutability of every value class.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import mldeg
from mldeg import (
    BiPoly,
    FlatLattice,
    InvariantReport,
    MLDegreeReport,
    OracleCaps,
    QMatrix,
    RmldOneReport,
    StratificationReport,
    Subspace,
    UniPoly,
)
from mldeg.mldegree import FlatContribution

EXPORTED = [
    "BiPoly", "CapacityError", "CertificationError", "FlatLattice",
    "GroebnerBasis", "InvariantReport", "MLDegreeReport", "MPoly", "Matroid",
    "NonGenericParameters", "OracleCaps", "PolySystem", "QMatrix", "Rational",
    "RmldOneReport", "SolveReport", "SolverLimits", "StratificationReport",
    "Subspace", "UniPoly", "buchberger", "build_score_system", "char_poly",
    "char_poly_flats", "classify_rmld_one", "compute_invariants",
    "connected_components", "count_torus_solutions", "flats",
    "format_rational", "invariants", "is_partition_matroid", "linalg",
    "matroid_from_json_dict", "matroids", "ml_degree_report", "mld",
    "mldegree", "mobius_invariant", "oracle_score_count", "parse_rational",
    "poincare_poly", "random_generic_s", "rank", "ratpoly", "rmld", "rref",
    "score_count", "score_count_dc", "solver", "tutte", "tutte_bruteforce",
    "uniform_matroid", "uniform_rmld", "uniform_tutte",
    "verify_stratification",
]


class TestNamespace:
    def test_exported_names_unchanged(self):
        assert mldeg.__all__ == EXPORTED

    def test_star_import_binds_every_exported_name(self):
        namespace: dict = {}
        exec("from mldeg import *", namespace)
        assert set(EXPORTED) <= set(namespace)
        assert namespace["buchberger"] is mldeg.solver.buchberger

    def test_solver_names_resolve_through_the_package(self):
        assert mldeg.buchberger is mldeg.solver.buchberger
        assert mldeg.SolverLimits is mldeg.solver.SolverLimits
        assert set(EXPORTED) <= set(dir(mldeg))

    def test_caps_and_errors_are_one_set_of_classes(self):
        from mldeg import mldegree, solver

        for name in ("CapacityError", "CertificationError", "OracleCaps"):
            assert getattr(mldeg, name) is getattr(solver, name)
            assert getattr(mldeg, name) is getattr(mldegree, name)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            mldeg.no_such_name


def _value_cases():
    """(class, field values in declaration order) for every value class."""
    from mldeg.solver import GroebnerBasis, MPoly, PolySystem, SolveReport, SolverLimits

    A = QMatrix.from_rows([[1, 0, 2], [0, 1, Fraction(1, 3)]])
    x = MPoly(2, {(1, 0): 1, (0, 0): -1})
    return [
        (QMatrix, dict(rows=2, cols=3, entries=A.entries)),
        (Subspace, dict(ambient_n=3, rows=((1, 0, 2), (0, 3, 1)))),
        (InvariantReport, dict(n=3, rank=2, tutte=BiPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1}),
                               charpoly=UniPoly((2, -3, 1)), mobius=2,
                               poincare=UniPoly((1, 3, 2)))),
        (FlatLattice, dict(flats=(frozenset(), frozenset({1})), ranks=(0, 1),
                           mobius=(1, -1))),
        (FlatContribution, dict(flat=(1, 2), count=3, mu_contract=1)),
        (StratificationReport, dict(d=2, lhs=8, rhs=8,
                                    per_flat=(FlatContribution((1,), 1, 1),),
                                    holds=True)),
        (RmldOneReport, dict(rmld_is_one=False, partition_matroid=False,
                             mld_is_one=False, reciprocal_linear=False)),
        (MLDegreeReport, dict(d=2, value=3, rmld=3, mld=2, method="formula")),
        (OracleCaps, dict(max_n=6, max_r=2, max_d=1)),
        (PolySystem, dict(n=1, r=1, d=2, matrix=QMatrix.from_rows([[1]]),
                          s=(Fraction(5),), equations=(x,))),
        (SolverLimits, dict(max_basis_size=10, max_total_degree=5, max_reductions=7)),
        (GroebnerBasis, dict(num_vars=2, generators=(x,))),
        (SolveReport, dict(count=3, predicted=3, seed=1, resamples=0,
                           zero_dimensional=True)),
    ]


def _ids(case):
    return case[0].__name__


@pytest.fixture(params=_value_cases(), ids=_ids)
def value_case(request):
    return request.param


class TestValueClasses:
    def test_positional_and_keyword_construction(self, value_case):
        cls, values = value_case
        a, b = cls(*values.values()), cls(**values)
        for name, value in values.items():
            assert getattr(a, name) == value and getattr(b, name) == value
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(values.values()))

    def test_equality_holds_only_within_the_class(self, value_case):
        cls, values = value_case
        a = cls(**values)
        assert a != tuple(values.values())
        subclass = type("Sub", (cls,), {})
        assert a != subclass(**values)

    def test_unequal_fields_compare_unequal(self, value_case):
        cls, values = value_case
        name = next(iter(values))
        other = dict(values)
        other[name] = object()
        a = cls(**values)
        b = object.__new__(cls)
        for key, value in other.items():
            object.__setattr__(b, key, value)
        assert a != b

    def test_repr_names_every_field(self, value_case):
        cls, values = value_case
        body = ", ".join(f"{k}={v!r}" for k, v in values.items())
        assert repr(cls(**values)) == f"{cls.__name__}({body})"

    def test_assignment_and_deletion_raise(self, value_case):
        cls, values = value_case
        a = cls(**values)
        name = next(iter(values))
        with pytest.raises(AttributeError):
            setattr(a, name, values[name])
        with pytest.raises(AttributeError):
            delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert getattr(a, name) == values[name]

    def test_bad_arguments_raise_type_error(self, value_case):
        cls, values = value_case
        args = list(values.values())
        with pytest.raises(TypeError):
            cls(*args, None)
        with pytest.raises(TypeError):
            cls(*args[:-1], no_such_field=1)
        with pytest.raises(TypeError):
            cls(*args, **{next(iter(values)): args[0]})
        if cls.__name__ not in ("SolverLimits", "OracleCaps"):
            with pytest.raises(TypeError):
                cls(*args[:-1])


class TestDefaultsAndValidation:
    def test_defaults(self):
        from mldeg.solver import SolverLimits

        assert SolverLimits() == SolverLimits(600, 80, 300)
        assert SolverLimits(max_reductions=5) == SolverLimits(600, 80, 5)
        assert OracleCaps() == OracleCaps(5, 3, 3)
        assert OracleCaps(max_n=7) == OracleCaps(7, 3, 3)
        assert OracleCaps(8, max_d=2) == OracleCaps(8, 3, 2)

    @pytest.mark.parametrize("rows, cols, entries", [
        (-1, 0, ()), (0, -1, ()), (2, 2, ((1, 2),)), (1, 2, ((1,),)),
    ])
    def test_qmatrix_rejects_bad_shapes(self, rows, cols, entries):
        with pytest.raises(ValueError):
            QMatrix(rows, cols, entries)
        with pytest.raises(ValueError):
            QMatrix(rows=rows, cols=cols, entries=entries)

    @pytest.mark.parametrize("n, rows", [(-1, ()), (2, ((1, 0, 0),)), (3, ((1, 0),))])
    def test_subspace_rejects_bad_shapes(self, n, rows):
        with pytest.raises(ValueError):
            Subspace(n, rows)
        with pytest.raises(ValueError):
            Subspace(ambient_n=n, rows=rows)

    def test_subspace_basis_is_cached(self):
        L = Subspace(3, ((2, 0, 1),))
        assert L.basis is L.basis
        assert L.basis == QMatrix(1, 3, ((1, 0, Fraction(1, 2)),))
        assert L == Subspace(3, ((2, 0, 1),))

    def test_caps_check(self):
        caps = OracleCaps()
        caps.check(5, 3, 3)
        for shape in ((6, 3, 3), (5, 4, 3), (5, 3, 4)):
            with pytest.raises(mldeg.CapacityError, match="exceeds caps"):
                caps.check(*shape)
