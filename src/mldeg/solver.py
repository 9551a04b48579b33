"""Algebraic certification of score-equation counts for rational subspaces.

For a subspace L of dimension r inside C^n, parameters s, and an exponent
d >= 1, the score system is encoded in n + r variables

    x_1, ..., x_n   (coordinates, forced into the torus)
    t_1, ..., t_r   (parametrize L: a point of L is t^T A)

with n + r equations

    x_i * l_i(t) - 1 = 0          l_i(t) = sum_j A[j][i] t_j   (membership
                                  of the coordinatewise inverse in L; this
                                  also forces x_i != 0)
    A[i] . (s_1 x_1^d - x_1, ..., s_n x_n^d - x_n) = 0
                                  (orthogonality of the score vector)

Because membership is written through the parametrization, every ideal
point is a genuine torus solution and t is determined by x (A has full row
rank), so the dimension of the quotient ring counts exactly the solutions
of the system, with multiplicity.

The Groebner engine is a Buchberger loop in graded reverse lexicographic
order with variable precedence x_1 < ... < x_n < t_1 < ... < t_r, sugar pair
selection with the Gebauer-Moeller criteria, content-normalized intermediate
polynomials, hard resource caps and a reduction budget (Buchberger is doubly
exponential in the worst case; the caps turn runaway inputs into a clean error).

Fractions and exponent tuples appear only in `MPoly` input and output.
Inside, coefficients are integers: one fraction-free loop (`_reduce`) serves
S-polynomial reduction, the final interreduction and
`GroebnerBasis.normal_form`.  An exponent vector is one int (`_Monomials`):
m + 1 fields of w bits, the total degree in the top field, then x_1 down to
the last variable.  The top bit of each field is a guard that no exponent
reaches (w is sized from the input degrees and
`SolverLimits.max_total_degree`, for sums of two leads).  So a product is
`a + b`, a quotient `b - a`, `a` divides `b` iff `(b - a) & guards == 0`
(a field that borrows sets its guard), and `a ^ degree_mask` is a min-heap
key for grevlex.  Each `buchberger` call keeps a first-divisor memo: for a
monomial that was a lead in reduction, the number of basis elements known
not to divide it, which stays true because the basis only grows at the end.

`OracleCaps`, `CapacityError` and `CertificationError` are defined in
`mldeg.mldegree`, so that the CLI can refuse an over-cap instance without
importing this module, and are re-exported here.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .linalg import QMatrix, Subspace
from .matroids import Matroid
from .mldegree import CapacityError, CertificationError, OracleCaps, score_count
from .ratpoly import _frozen, format_rational

Exponent = tuple[int, ...]


class NonGenericParameters(RuntimeError):
    """The ideal is not zero-dimensional: the sampled s was not generic."""


def _order_key(e: Exponent) -> tuple:
    # grevlex with precedence increasing along the tuple: higher total
    # degree wins; on ties the monomial with the smaller exponent on the
    # earliest (lowest-precedence) differing variable is larger.
    return (sum(e), tuple(-c for c in e))


class _Monomials:
    """The packed exponent layout of one computation (see the module doc):
    fields of `width` bits hold every total degree up to 2 * max_degree."""

    __slots__ = ("num_vars", "width", "guards", "degree_mask", "_sum_up")

    def __init__(self, num_vars: int, max_degree: int):
        self.num_vars = num_vars
        self.width = w = (2 * max_degree).bit_length() + 1
        ones = sum(1 << k * w for k in range(num_vars + 1))
        self.guards = ones << w - 1
        self.degree_mask = (1 << w) - 1 << num_vars * w
        self._sum_up = ones - 1     # x * _sum_up holds the sum of x's fields in the top one

    def pack(self, e: Exponent) -> int:
        x = sum(e)
        for c in e:
            x = x << self.width | c
        return x

    def unpack(self, x: int) -> Exponent:
        w = self.width
        return tuple(x >> k * w & (1 << w) - 1 for k in range(self.num_vars - 1, -1, -1))

    def degree(self, x: int) -> int:
        return x >> self.num_vars * self.width

    def lcm(self, a: int, b: int) -> int:
        # each field of t is guard + b_i - a_i, so no borrow crosses fields
        # and a guard survives where b_i >= a_i; up keeps those b_i - a_i
        t = (b | self.guards) - a
        keep = t & self.guards
        up = t & (keep - (keep >> self.width - 1)) & ~self.degree_mask
        return a + up + (up * self._sum_up & self.degree_mask)


class MPoly:
    """Sparse multivariate polynomial over Q in a fixed number of variables.

    The term dict is never mutated after construction, so the lead monomial
    can be cached.  Every exponent must be a tuple of num_vars nonnegative
    integers; anything else is a ValueError.
    """

    __slots__ = ("num_vars", "terms", "_lm")

    def __init__(self, num_vars: int, terms: dict | None = None):
        self.num_vars = num_vars
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != num_vars or any(a < 0 for a in e):
                    raise ValueError(
                        f"exponent {e} is not {num_vars} nonnegative integers")
                c = Fraction(c)
                if c:
                    clean[e] = c
        self.terms = clean
        self._lm = None

    def is_zero(self) -> bool:
        return not self.terms

    def lead_monomial(self) -> Exponent:
        if self._lm is None:
            self._lm = max(self.terms, key=_order_key)
        return self._lm

    def lead_coefficient(self) -> Fraction:
        return self.terms[self.lead_monomial()]

    def __eq__(self, other) -> bool:
        return (isinstance(other, MPoly) and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.num_vars, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        return f"MPoly({format_mpoly(self, _default_names(self.num_vars))})"


def _default_names(m: int) -> list[str]:
    return [f"v{k + 1}" for k in range(m)]


def variable_names(n: int, r: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)] + [f"t{j + 1}" for j in range(r)]


def format_mpoly(p: MPoly, names: Sequence[str]) -> str:
    """Render with terms in decreasing order and canonical coefficients."""
    if p.is_zero():
        return "0"
    pieces = []
    for e in sorted(p.terms, key=_order_key, reverse=True):
        c = p.terms[e]
        vars_part = "*".join(
            f"{names[k]}^{exp}" if exp > 1 else names[k]
            for k, exp in enumerate(e) if exp
        )
        if not vars_part:
            body = format_rational(abs(c))
        elif abs(c) == 1:
            body = vars_part
        else:
            body = f"{format_rational(abs(c))}*{vars_part}"
        pieces.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# -- the score system --------------------------------------------------------


@_frozen
class PolySystem:
    """The n + r score equations for (L, s, d) in n + r variables."""

    n: int
    r: int
    d: int
    matrix: QMatrix
    s: tuple[Fraction, ...]
    equations: tuple[MPoly, ...]

    @property
    def num_vars(self) -> int:
        return self.n + self.r

    def to_text(self) -> str:
        names = variable_names(self.n, self.r)
        return "\n".join(format_mpoly(eq, names) for eq in self.equations)


def build_score_system(L: Subspace, s: Sequence, d: int) -> PolySystem:
    """Encode the score equations for the subspace L with parameters s."""
    n, r = L.ambient_n, L.dim
    if r < 1:
        raise ValueError("the subspace must have dimension at least 1")
    svec = tuple(Fraction(v) for v in s)
    if len(svec) != n:
        raise ValueError(f"expected {n} parameters, got {len(svec)}")
    if d < 1:
        raise ValueError("exponent d must be at least 1")
    A, m = L.basis.entries, n + r

    def monomial(*powers: tuple[int, int]) -> Exponent:  # (variable, exponent)
        e = [0] * m
        for v, k in powers:
            e[v] = k
        return tuple(e)

    # MPoly drops the zero coefficients
    equations = [MPoly(m, {**{monomial((i, 1), (n + j, 1)): A[j][i] for j in range(r)},
                           monomial(): -1}) for i in range(n)]
    for i in range(r):
        terms: dict[Exponent, Fraction] = {}
        for j in range(n):
            for e, c in ((monomial((j, d)), A[i][j] * svec[j]), (monomial((j, 1)), -A[i][j])):
                terms[e] = terms.get(e, 0) + c
        equations.append(MPoly(m, terms))
    return PolySystem(n=n, r=r, d=d, matrix=L.basis, s=svec,
                      equations=tuple(equations))


def random_generic_s(n: int, seed: int, bound: int = 10 ** 6) -> tuple[Fraction, ...]:
    """n parameters drawn uniformly from the integers 1..bound.

    Deterministic in the seed; the bound must be at least 1000 so the bad
    (non-generic) locus is comfortably unlikely to be hit.
    """
    if bound < 1000:
        raise ValueError("parameter bound must be at least 1000")
    rng = random.Random(seed)
    return tuple(Fraction(rng.randint(1, bound)) for _ in range(n))


# -- Buchberger ---------------------------------------------------------------


@_frozen
class SolverLimits:
    """Hard caps that turn a runaway basis computation into CapacityError;
    max_reductions counts S-polynomials reduced (251 at most in OracleCaps)."""

    max_basis_size: int = 600
    max_total_degree: int = 80
    max_reductions: int = 300


def _integral(p: MPoly) -> tuple[dict[Exponent, int], int]:
    """p times the lcm of its denominators, and that lcm."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return {e: int(c * den) for e, c in p.terms.items()}, den


def _primitive(t: dict[Exponent, int], lc: int) -> dict[Exponent, int]:
    """Divide out the content, signed like the lead coefficient lc."""
    content = gcd(*t.values())
    if lc < 0:
        content = -content
    return t if content == 1 else {e: c // content for e, c in t.items()}


def _int_terms(p: MPoly) -> dict[Exponent, int]:
    """Clear denominators and the content; lead coefficient made positive."""
    t, _ = _integral(p)
    return _primitive(t, t[p.lead_monomial()]) if t else t


def _reduce(terms: dict[int, int], lms: Sequence[int], lcs: Sequence[int], tails: Sequence[dict],
            mono: _Monomials, first: dict[int, int]) -> tuple[dict[int, int], int]:
    """Full remainder of a packed integer polynomial against integer divisors.

    Fraction-free: the working polynomial is rescaled by divisor leads as
    needed, so the result is (remainder, scale) with remainder equal to
    scale times the true remainder and scale > 0.  A lazy max-heap tracks
    the current lead (stale entries are skipped on pop), which goes to its
    first divisor in `lms`.  `first` maps a lead to the number of divisors
    known not to divide it: calls whose `lms` extend one another share it.
    """
    guards, flip = mono.guards, mono.degree_mask
    work = dict(terms)
    heap = [e ^ flip for e in work]
    heapq.heapify(heap)
    remainder: dict[int, int] = {}
    scale = 1
    count = len(lms)
    while heap:
        lead = heapq.heappop(heap) ^ flip
        coeff = work.get(lead)
        if not coeff:
            continue
        gi = first.get(lead, 0)
        while gi < count and (lead - lms[gi]) & guards:
            gi += 1
        first[lead] = gi
        if gi == count:
            remainder[lead] = coeff
            del work[lead]
            continue
        glc = lcs[gi]
        g0 = gcd(coeff, glc) if glc > 0 else -gcd(coeff, glc)
        mult, factor = glc // g0, coeff // g0
        if mult != 1:
            for key in work:
                work[key] *= mult
            for key in remainder:
                remainder[key] *= mult
            scale *= mult
        shift = lead - lms[gi]
        for ge, gc in tails[gi].items():
            key = ge + shift
            old = work.get(key)
            if old is None:
                work[key] = -factor * gc
                heapq.heappush(heap, key ^ flip)
            else:
                val = old - factor * gc
                if val:
                    work[key] = val
                else:
                    del work[key]
    return remainder, scale


def _int_s_poly(ft: dict, flm: int, flc: int,
                gt: dict, glm: int, glc: int, lcm: int) -> dict[int, int]:
    """Cross-scaled S-polynomial of two packed integer polynomials, given the
    lcm of their leads: a nonzero integer multiple of the textbook one, which
    reduces to zero exactly when that one does."""
    g0 = gcd(flc, glc)
    cf, cg = glc // g0, flc // g0
    shift_f, shift_g = lcm - flm, lcm - glm
    out = {e + shift_f: cf * c for e, c in ft.items()}
    for e, c in gt.items():
        key = e + shift_g
        val = out.get(key, 0) - cg * c
        if val:
            out[key] = val
        elif key in out:
            del out[key]
    return out


@_frozen
class GroebnerBasis:
    """Reduced Groebner basis: monic generators, no term of any generator
    divisible by the lead of another, sorted by increasing lead monomial.
    Unique for the fixed order, hence canonical."""

    num_vars: int
    generators: tuple[MPoly, ...]

    def normal_form(self, p: MPoly) -> MPoly:
        """Full multivariate division remainder of p against the basis.

        Exact: the reduction runs on integers and the final rescaling
        divides once.
        """
        if p.num_vars != self.num_vars:
            raise ValueError(f"polynomial in {p.num_vars} variables, "
                             f"basis in {self.num_vars}")
        if p.is_zero() or not self.generators:
            return p
        work, den = _integral(p)
        gens = [_int_terms(g) for g in self.generators]
        mono = _Monomials(p.num_vars, max(max(map(sum, t)) for t in [work, *gens]))
        tails = [{mono.pack(e): c for e, c in t.items()} for t in gens]
        lms = [mono.pack(lm) for lm in self.lead_monomials()]
        lcs = [t[lm] for t, lm in zip(tails, lms)]
        work = {mono.pack(e): c for e, c in work.items()}
        remainder, scale = _reduce(work, lms, lcs, tails, mono, {})
        return MPoly(p.num_vars, {mono.unpack(e): Fraction(c, scale * den)
                                  for e, c in remainder.items()})

    def lead_monomials(self) -> tuple[Exponent, ...]:
        return tuple(g.lead_monomial() for g in self.generators)


def _reduced_basis(mono: _Monomials, terms: list[dict], lms: list[int],
                   lcs: list[int]) -> tuple[MPoly, ...]:
    """Minimal basis by lead divisibility, each member reduced by the others
    on its integer terms; monic MPolys are built once, at the end.

    The minimal basis is taken in increasing lead order and reduction keeps
    every lead, so the result is already sorted; dividing by the lead
    coefficient cancels the scale of each remainder.
    """
    keep: list[int] = []
    for i in sorted(range(len(terms)), key=lambda i: -(lms[i] ^ mono.degree_mask)):
        if all((lms[i] - lms[k]) & mono.guards for k in keep):
            keep.append(i)
    reduced = []
    for pos, i in enumerate(keep):
        others = keep[:pos] + keep[pos + 1:]
        h, _ = _reduce(terms[i], [lms[k] for k in others], [lcs[k] for k in others],
                       [terms[k] for k in others], mono, {})
        reduced.append(MPoly(mono.num_vars, {mono.unpack(e): Fraction(c, h[lms[i]])
                                             for e, c in h.items()}))
    return tuple(reduced)


def buchberger(source: PolySystem | Iterable[MPoly],
               limits: SolverLimits | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the input ideal in grevlex order.

    Pair selection follows the sugar strategy: smallest (sugar, total degree
    of the lcm, lcm), pair indices breaking ties.  The Gebauer-Moeller
    update runs once per element as it joins (each input, then each new
    remainder): it queues no coprime pair and no new pair whose lcm another
    one divides, and drops the old pairs the new element makes redundant.
    Exceeding the caps raises CapacityError with diagnostics.
    All inputs must share one number of variables (ValueError otherwise).
    """
    limits = limits or SolverLimits()
    polys = source.equations if isinstance(source, PolySystem) else tuple(source)
    if not polys:
        raise ValueError("cannot take a Groebner basis of an empty system")
    num_vars = polys[0].num_vars
    if any(p.num_vars != num_vars for p in polys):
        raise ValueError("all polynomials must have the same number of variables")
    inputs = [(p, t) for p in polys for t in [_int_terms(p)] if t]
    if not inputs:
        return GroebnerBasis(num_vars, ())
    sugars = [max(map(sum, t)) for _, t in inputs]  # else the sugar of its pair
    # no lead passes this degree, so the fields hold lcms and sums of two leads
    mono = _Monomials(num_vars, max(limits.max_total_degree, *sugars))
    guards, degree, lcm_of = mono.guards, mono.degree, mono.lcm
    terms = [{mono.pack(e): c for e, c in t.items()} for _, t in inputs]  # primitive
    lms = [mono.pack(p.lead_monomial()) for p, _ in inputs]
    lcs = [t[p.lead_monomial()] for p, t in inputs]

    live: list[int] = []        # elements whose lead no later lead divides
    heap: list[tuple] = []      # pending pairs (sugar, lcm, i, j); lcm leads with its degree

    def update(h: int) -> None:
        lmh = lms[h]
        new = [(g, lcm_of(lms[g], lmh)) for g in live]
        kept = []   # criteria M and F; a coprime pair drops others, is not queued
        for pos, (g, m) in enumerate(new):
            coprime = m == lms[g] + lmh
            if coprime or all((m - k) & guards for _, k in new[pos + 1:]) \
                    and all((m - k) & guards for _, k, _ in kept):
                kept.append((g, m, coprime))
        heap[:] = [q for q in heap if (q[1] - lmh) & guards  # criterion B_k
                   or lcm_of(lms[q[2]], lmh) == q[1] or lcm_of(lms[q[3]], lmh) == q[1]]
        heap.extend((max(sugars[g] - degree(lms[g]), sugars[h] - degree(lmh)) + degree(m),
                     m, g, h) for g, m, coprime in kept if not coprime)
        heapq.heapify(heap)
        live[:] = [g for g in live if (lms[g] - lmh) & guards] + [h]

    for h in range(len(terms)):
        update(h)
    first: dict[int, int] = {}  # the first-divisor memo of _reduce
    reduced = zeros = 0
    while heap:
        sugar, pair_lcm, i, j = heapq.heappop(heap)
        if reduced == limits.max_reductions:
            raise CapacityError(f"S-polynomial budget {limits.max_reductions} exhausted: "
                                f"{reduced} pairs reduced, {zeros} to zero "
                                f"(basis size {len(terms)})")
        reduced += 1
        s = _int_s_poly(terms[i], lms[i], lcs[i], terms[j], lms[j], lcs[j], pair_lcm)
        h, _ = _reduce(s, lms, lcs, terms, mono, first)
        if not h:
            zeros += 1
            continue
        hlm = min(h, key=mono.degree_mask.__xor__)
        if degree(hlm) > limits.max_total_degree:
            raise CapacityError(f"intermediate degree {degree(hlm)} exceeds cap "
                                f"{limits.max_total_degree} (basis size {len(terms)})")
        if len(terms) + 1 > limits.max_basis_size:
            raise CapacityError(f"basis size exceeds cap {limits.max_basis_size} "
                                f"(pending pairs {len(heap)})")
        h = _primitive(h, h[hlm])
        terms.append(h)
        lms.append(hlm)
        lcs.append(h[hlm])
        sugars.append(sugar)
        update(len(terms) - 1)
    return GroebnerBasis(num_vars, _reduced_basis(mono, terms, lms, lcs))


# -- counting -----------------------------------------------------------------


def count_torus_solutions(gb: GroebnerBasis) -> int:
    """Dimension of the quotient ring: the number of standard monomials.

    Since the system encodes torus membership through the parametrization,
    this dimension is exactly the multiplicity-counted number of solutions
    of the score equations.  Raises NonGenericParameters when the ideal is
    not zero-dimensional (some variable has no pure power among the lead
    monomials), which signals that s should be resampled.
    """
    gens = gb.generators
    if not gens:
        if gb.num_vars == 0:
            return 1
        raise NonGenericParameters("zero ideal is not zero-dimensional")
    lms = [g.lead_monomial() for g in gens]
    if any(sum(lm) == 0 for lm in lms):
        return 0  # the ideal is the whole ring: no solutions at all
    m = gb.num_vars
    for v in range(m):
        if not any(lm[v] > 0 and sum(lm) == lm[v] for lm in lms):
            raise NonGenericParameters(f"no pure power of variable #{v + 1} "
                                       "among lead monomials")
    # the walk steps once past a standard monomial, whose exponents lie
    # below the pure powers; so no exponent passes the largest in the leads
    mono = _Monomials(m, sum(map(max, zip(*lms))))
    leads = [mono.pack(lm) for lm in lms]
    steps = [mono.pack((0,) * v + (1,) + (0,) * (m - 1 - v)) for v in range(m)]
    seen, frontier = {0}, [0]
    while frontier:
        e = frontier.pop()
        for child in [e + step for step in steps]:
            if child not in seen and all((child - lm) & mono.guards for lm in leads):
                seen.add(child)
                frontier.append(child)
    return len(seen)


# -- end-to-end oracle --------------------------------------------------------


@_frozen
class SolveReport:
    count: int
    predicted: int
    seed: int
    resamples: int
    zero_dimensional: bool

    def to_json_dict(self) -> dict:
        return {
            "count": str(self.count),
            "predicted": str(self.predicted),
            "seed": self.seed,
            "resamples": self.resamples,
            "zero_dimensional": self.zero_dimensional,
        }


def _derived_seed(seed: int, attempt: int) -> int:
    return seed if attempt == 0 else seed * 1_000_003 + attempt


def oracle_score_count(L: Subspace, d: int, seed: int,
                       caps: OracleCaps | None = None,
                       limits: SolverLimits | None = None,
                       max_resamples: int = 5) -> SolveReport:
    """Sample parameters, solve the score system exactly, and compare the
    quotient dimension with the combinatorial prediction.

    Non-zero-dimensionality or a count mismatch triggers a resample with a
    deterministically derived seed; running out of retries raises
    CertificationError carrying every seed that was tried (genericity
    failures are measure zero, so persistent disagreement means a bug, not
    bad luck).
    """
    caps = caps or OracleCaps.from_env()
    if d < 1:
        raise ValueError("exponent d must be at least 1")
    n, r = L.ambient_n, L.dim
    caps.check(n, r, d)
    predicted = score_count(Matroid.from_subspace(L), d)
    attempted: list[int] = []
    mismatches: list[int] = []
    for attempt in range(max_resamples + 1):
        s_seed = _derived_seed(seed, attempt)
        attempted.append(s_seed)
        s = random_generic_s(n, s_seed)
        system = build_score_system(L, s, d)
        gb = buchberger(system, limits)
        try:
            count = count_torus_solutions(gb)
        except NonGenericParameters:
            continue
        if count == predicted:
            return SolveReport(count=count, predicted=predicted, seed=seed,
                               resamples=attempt, zero_dimensional=True)
        mismatches.append(count)
    raise CertificationError(
        f"count never matched prediction {predicted} "
        f"(observed {mismatches}, seeds {attempted})",
        seeds=attempted,
        predicted=predicted,
    )
