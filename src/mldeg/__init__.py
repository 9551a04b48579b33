"""Exact ML degrees of diagonal linear concentration models.

The reciprocal ML degree of a linear concentration model with diagonal
constraints, the plain ML degree, and the generalized score-equation count
are all functions of the matroid of the subspace; this package computes
them in exact arithmetic and certifies the counts independently with an
exact polynomial-system solver.
"""

from .invariants import (
    InvariantReport,
    char_poly,
    char_poly_flats,
    compute_invariants,
    mobius_invariant,
    poincare_poly,
    tutte,
    tutte_bruteforce,
)
from .linalg import (
    QMatrix,
    Subspace,
    rank,
    rref,
)
from .matroids import (
    FlatLattice,
    Matroid,
    connected_components,
    flats,
    is_partition_matroid,
    matroid_from_json_dict,
    uniform_matroid,
)
from .mldegree import (
    CapacityError,
    CertificationError,
    MLDegreeReport,
    OracleCaps,
    RmldOneReport,
    StratificationReport,
    classify_rmld_one,
    ml_degree_report,
    mld,
    rmld,
    score_count,
    score_count_dc,
    uniform_rmld,
    uniform_tutte,
    verify_stratification,
)
from .ratpoly import BiPoly, Rational, UniPoly, format_rational, parse_rational

# The Groebner solver loads on first use of one of its names (PEP 562), so
# that a process that solves nothing never compiles or imports it.
_SOLVER_NAMES = (
    "GroebnerBasis",
    "MPoly",
    "NonGenericParameters",
    "PolySystem",
    "SolveReport",
    "SolverLimits",
    "build_score_system",
    "buchberger",
    "count_torus_solutions",
    "oracle_score_count",
    "random_generic_s",
)

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["solver", *_SOLVER_NAMES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "solver" or name in _SOLVER_NAMES:
        from importlib import import_module

        solver = import_module(".solver", __name__)
        return solver if name == "solver" else getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
