"""Maximum-likelihood degrees of diagonal linear concentration models.

Everything here is a function of the matroid M of the subspace L:

  rmld(M)            = (-2)^r chi(1/2)        reciprocal ML degree
  mld(M)             = |chi(0)|               ML degree
  score_count(M, d)  = (-d)^r chi(1/d)        solutions of the score
                                              equations with exponent d >= 1
                                              (d = 2 is rmld; d = 0 is mld)

All three read only the characteristic polynomial chi.  Since
d^r T(1 - 1/d, 0) = (-d)^r chi(1/d), the count is also a Tutte evaluation.
score_count_dc recomputes the same number by deletion-contraction on
explicitly built minors, which gives an independent route used in the
verification suite.  All degrees are zero as soon as the matroid has a loop.

The size caps of the exact solver (`OracleCaps`) and its two errors live
here, not in `mldeg.solver`: a caller can refuse an over-cap instance, or
catch the errors, without loading the solver.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence

from .invariants import char_poly, flat_terms, mobius_invariant
from .linalg import Subspace
from .matroids import (
    Matroid,
    contract_set,
    flats,
    is_partition_matroid,
    restrict,
)
from .ratpoly import BiPoly, UniPoly, _frozen


def _as_matroid(source: Matroid | Subspace) -> Matroid:
    if isinstance(source, Matroid):
        return source
    return Matroid.from_subspace(source)


def _count_from_chi(chi: UniPoly, r: int, d: int) -> int:
    """(-d)^r chi(1/d) = (-1)^r sum_k chi_k d^(r-k), for a rank-r chi."""
    value = 0
    for c in chi.coeffs:
        value = value * d + c
    value *= d ** (r - chi.degree())
    value = -value if r % 2 else value
    if value < 0:
        raise RuntimeError(
            f"score count evaluated to non-count {value} (d={d}, r={r})"
        )
    return value


def rmld(M: Matroid | Subspace) -> int:
    """Reciprocal ML degree: (-2)^r chi(1/2), zero when loops are present."""
    M = _as_matroid(M)
    return _count_from_chi(char_poly(M), M.full_rank(), 2)


def mld(M: Matroid | Subspace) -> int:
    """ML degree: |chi(0)| = |mu(M)|, zero when loops are present."""
    M = _as_matroid(M)
    if M.loops():
        return 0
    return abs(mobius_invariant(M))


def score_count(M: Matroid | Subspace, d: int) -> int:
    """Number of score-equation solutions (with multiplicity) for generic
    parameters: (-d)^r chi(1/d) for d >= 1, and mld for d = 0."""
    M = _as_matroid(M)
    if d < 0:
        raise ValueError("exponent d must be nonnegative")
    if d == 0:
        return mld(M)
    return _count_from_chi(char_poly(M), M.full_rank(), d)


def score_count_dc(M: Matroid | Subspace, d: int) -> int:
    """The same count by deletion-contraction on the smallest element:

        0 on a loop, (d-1) * D(M/e) on a coloop, D(M\\e) + d * D(M/e)
        otherwise, with value 1 on the empty ground set.

    A single coloop therefore counts d-1: solving the one-variable score
    system directly gives x^(d-1) = 1/s.  Element 1 is a coloop exactly
    when deleting it lowers the rank, which the deletion minor shows.
    """
    M = _as_matroid(M)
    if d < 1:
        raise ValueError("deletion-contraction route needs d >= 1")
    memo: dict = {}

    def count(N: Matroid) -> int:
        if N.loops():
            return 0
        if N.n == 0:
            return 1
        key = N.cache_key()
        cached = memo.get(key)
        if cached is not None:
            return cached
        contracted, _ = contract_set(N, {1})
        deleted, _ = restrict(N, range(2, N.n + 1))
        if deleted.full_rank() < N.full_rank():  # 1 is a coloop
            value = (d - 1) * count(contracted)
        else:
            value = count(deleted) + d * count(contracted)
        memo[key] = value
        return value

    return count(M)


def _binom(m: int, k: int) -> int:
    # C(m, 0) = 1 for every integer m (the n = r corner needs C(-1, 0)).
    if k == 0:
        return 1
    if k < 0 or m < k:
        return 0
    return math.comb(m, k)


def uniform_tutte(n: int, r: int) -> BiPoly:
    """Tutte polynomial of the uniform matroid U_{r,n}:

        sum_{i=1}^{r} C(n-i-1, r-i) x^i  +  sum_{j=1}^{n-r} C(n-j-1, r-1) y^j
    """
    if not 1 <= r <= n:
        raise ValueError(f"uniform matroid needs 1 <= r <= n, got r={r}, n={n}")
    terms: dict[tuple[int, int], int] = {}
    for i in range(1, r + 1):
        c = _binom(n - i - 1, r - i)
        if c:
            terms[(i, 0)] = c
    for j in range(1, n - r + 1):
        c = _binom(n - j - 1, r - 1)
        if c:
            terms[(0, j)] = c
    return BiPoly(terms)


def uniform_rmld(n: int, r: int) -> int:
    """Closed form for the rmld of a generic r-dimensional model in C^n:

        sum_{i=1}^{r} C(n-i-1, r-i) 2^(r-i)
    """
    if not 1 <= r <= n:
        raise ValueError(f"uniform matroid needs 1 <= r <= n, got r={r}, n={n}")
    return sum(_binom(n - i - 1, r - i) * 2 ** (r - i) for i in range(1, r + 1))


@_frozen
class FlatContribution:
    flat: tuple[int, ...]
    count: int          # score count of the restriction to the flat
    mu_contract: int    # |mu| of the contraction by the flat

    def to_json_dict(self) -> dict:
        return {
            "flat": list(self.flat),
            "D": str(self.count),
            "mu_contract": str(self.mu_contract),
        }


@_frozen
class StratificationReport:
    d: int
    lhs: int
    rhs: int
    per_flat: tuple[FlatContribution, ...]
    holds: bool

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "per_flat": [c.to_json_dict() for c in self.per_flat],
            "holds": self.holds,
        }


def verify_stratification(L: Matroid | Subspace, d: int) -> StratificationReport:
    """Check d^r |mu(M)| against the stratum-by-stratum count

        sum over flats F of D(M|F, d) * |mu(M/F)|

    computed entirely by the combinatorial formulas: mu(M) from chi, the
    right-hand side from the lattice of flats (`flat_terms`).  For d = 0 the
    score equations are linear and every solution has full support, so the
    identity degenerates to |mu(M)| = D(M, 0) with the full ground set as
    the only stratum.
    """
    M = _as_matroid(L)
    if d < 0:
        raise ValueError("exponent d must be nonnegative")
    if M.loops():
        raise ValueError("stratification identity needs a loopless matroid")
    mu_abs = abs(mobius_invariant(M))
    if d == 0:
        top_count = score_count(M, 0)
        contribution = FlatContribution(flat=M.ground, count=top_count, mu_contract=1)
        return StratificationReport(
            d=0, lhs=mu_abs, rhs=top_count, per_flat=(contribution,),
            holds=mu_abs == top_count,
        )
    r = M.full_rank()
    lhs = d ** r * mu_abs
    contributions = []
    rhs = 0
    lattice = flats(M)
    # The pairs (chi(M|F), |mu(M/F)|) do not depend on d: kept on M, they
    # serve every exponent checked, each distinct pair stored once.
    if M._flat_terms is None:
        M._flat_terms = flat_terms(M)
    for F, rk, (chi_F, mu_c) in zip(lattice.flats, lattice.ranks, M._flat_terms):
        count = _count_from_chi(chi_F, rk, d)
        rhs += count * mu_c
        contributions.append(
            FlatContribution(flat=tuple(sorted(F)), count=count, mu_contract=mu_c)
        )
    return StratificationReport(
        d=d, lhs=lhs, rhs=rhs, per_flat=tuple(contributions), holds=lhs == rhs
    )


@_frozen
class RmldOneReport:
    """The four equivalent ways a model can have reciprocal ML degree 1."""

    rmld_is_one: bool
    partition_matroid: bool
    mld_is_one: bool
    reciprocal_linear: bool   # chi = (t-1)^r, i.e. the inverse model is linear

    @property
    def value(self) -> bool:
        return self.rmld_is_one

    def to_json_dict(self) -> dict:
        return {
            "rmld_is_one": self.rmld_is_one,
            "partition_matroid": self.partition_matroid,
            "mld_is_one": self.mld_is_one,
            "reciprocal_linear": self.reciprocal_linear,
        }


def classify_rmld_one(M: Matroid | Subspace) -> RmldOneReport:
    """Evaluate all four conditions and insist that they agree."""
    M = _as_matroid(M)
    r = M.full_rank()
    report = RmldOneReport(
        rmld_is_one=rmld(M) == 1,
        partition_matroid=is_partition_matroid(M),
        mld_is_one=mld(M) == 1,
        reciprocal_linear=char_poly(M) == UniPoly((-1, 1)) ** r,
    )
    answers = {
        report.rmld_is_one,
        report.partition_matroid,
        report.mld_is_one,
        report.reciprocal_linear,
    }
    if len(answers) != 1:
        raise RuntimeError(
            f"rmld = 1 equivalences disagree: {report.to_json_dict()}"
        )
    return report


@_frozen
class MLDegreeReport:
    d: int
    value: int
    rmld: int
    mld: int
    method: str

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "value": str(self.value),
            "rmld": str(self.rmld),
            "mld": str(self.mld),
            "method": self.method,
        }


def ml_degree_report(M: Matroid | Subspace, d: int = 2) -> MLDegreeReport:
    M = _as_matroid(M)
    return MLDegreeReport(
        d=d,
        value=score_count(M, d),
        rmld=rmld(M),
        mld=mld(M),
        method="formula",
    )


# -- solver caps and errors ---------------------------------------------------


class CapacityError(RuntimeError):
    """A resource cap was exceeded; carries partial diagnostics."""


class CertificationError(RuntimeError):
    """The solver count disagreed with the prediction across all retries."""

    def __init__(self, message: str, seeds: Sequence[int], predicted: int):
        super().__init__(message)
        self.seeds = tuple(seeds)
        self.predicted = predicted


@_frozen
class OracleCaps:
    """Desk-scale size limits for end-to-end certification runs."""

    max_n: int = 5
    max_r: int = 3
    max_d: int = 3

    @classmethod
    def from_env(cls) -> "OracleCaps":
        raw = os.environ.get("MLDEG_MAX_N")
        if raw is None:
            return cls()
        try:
            max_n = int(raw)
        except ValueError:
            max_n = 0
        if max_n < 1:
            raise ValueError(f"MLDEG_MAX_N must be a positive integer, got {raw!r}")
        return cls(max_n=max_n)

    def check(self, n: int, r: int, d: int) -> None:
        """Raise CapacityError unless a subspace of dimension r in C^n with
        exponent d is inside the caps."""
        if n > self.max_n or r > self.max_r or d > self.max_d:
            raise CapacityError(
                f"instance (n={n}, r={r}, d={d}) exceeds caps "
                f"(n<={self.max_n}, r<={self.max_r}, d<={self.max_d}); "
                "set MLDEG_MAX_N to raise the size cap"
            )
