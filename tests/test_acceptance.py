"""Acceptance suite: the exit criteria of the build, one test per criterion.

Each criterion prints a single PASS/FAIL line (run this file directly, or
`pytest tests/test_acceptance.py -v`, to see them).  Expected values come
from closed forms and independent oracles exercised elsewhere in the suite;
every comparison here is exact.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

from mldeg import (
    Matroid,
    QMatrix,
    Subspace,
    char_poly,
    classify_rmld_one,
    mld,
    mobius_invariant,
    oracle_score_count,
    poincare_poly,
    rmld,
    score_count,
    tutte,
    tutte_bruteforce,
    uniform_rmld,
    verify_stratification,
)

from mldeg.invariants import _char_poly_from_tutte
from mldeg.mldegree import _count_from_chi

from conftest import corpus_upto


def criterion_1_uniform_r3():
    """uniform_rmld(n, 3) equals 2n^2 - 8n + 7 for n = 3..12."""
    for n in range(3, 13):
        expected = 2 * n * n - 8 * n + 7
        got = uniform_rmld(n, 3)
        assert got == expected, f"n={n}: {got} != {expected}"


def criterion_2_uniform_r4():
    """uniform_rmld(n, 4) equals (4/3)n^3 - 10n^2 + (68/3)n - 15 for n = 4..12."""
    for n in range(4, 13):
        expected = (Fraction(4, 3) * n ** 3 - 10 * n ** 2
                    + Fraction(68, 3) * n - 15)
        got = uniform_rmld(n, 4)
        assert got == expected, f"n={n}: {got} != {expected}"


def criterion_3_rmld_consistency():
    """(-2)^r chi(1/2) is a nonnegative integer, odd unless zero, on >= 200
    random matrices with n <= 9."""
    matroids = corpus_upto(9)
    assert len(matroids) >= 200, f"corpus too small: {len(matroids)}"
    for M in matroids:
        r = M.full_rank()
        value = Fraction(-2) ** r * char_poly(M).evaluate(Fraction(1, 2))
        assert value.denominator == 1, f"non-integer rmld {value}"
        v = int(value)
        assert v >= 0, f"negative rmld {v}"
        assert v == 0 or v % 2 == 1, f"even nonzero rmld {v}"
        assert v == rmld(M)


def criterion_4_tutte_oracle():
    """Deletion-contraction Tutte equals the corank-nullity expansion on
    >= 200 matroids with n <= 10."""
    matroids = corpus_upto(10)
    assert len(matroids) >= 200, f"corpus too small: {len(matroids)}"
    for M in matroids:
        assert tutte(M) == tutte_bruteforce(M), f"Tutte mismatch on {M!r}"


def criterion_5_method_agreement():
    """score_count equals d^r T(1 - 1/d, 0), read off the Tutte polynomial,
    for d in 1..4 on all n <= 9 matroids; d = 0 gives mld = |mu|; d = 1
    gives 0 for loopless n >= 1."""
    matroids = corpus_upto(9)
    assert len(matroids) >= 200
    for M in matroids:
        r = M.full_rank()
        chi = _char_poly_from_tutte(tutte(M), r)
        for d in (1, 2, 3, 4):
            a = score_count(M, d)
            b = _count_from_chi(chi, r, d)
            assert a == b, f"d={d}: formula {a} != Tutte {b}"
        assert score_count(M, 0) == mld(M) == abs(mobius_invariant(M))
        if M.n >= 1 and M.is_loopless():
            assert score_count(M, 1) == 0


def criterion_6_stratification():
    """d^r |mu(M)| = sum over flats of D(M|F, d) |mu(M/F)| for all loopless
    n <= 9 matroids and d in {0, 1, 2, 3}."""
    matroids = corpus_upto(9, loopless=True)
    assert matroids
    for M in matroids:
        for d in (0, 1, 2, 3):
            report = verify_stratification(M, d)
            assert report.holds, (
                f"stratification failed: d={d}, lhs={report.lhs}, "
                f"rhs={report.rhs}, M={M!r}"
            )


def criterion_7_algebraic_certification():
    """Groebner quotient dimension equals d^r T(1 - 1/d, 0) on >= 25 random
    subspaces with n <= 4, r <= 2 and d in {2, 3}."""
    rng = random.Random(20260809)
    done = 0
    while done < 25:
        n = rng.randint(2, 4)
        r = rng.randint(1, 2)
        grid = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(r)]
        L = Subspace.from_matrix(QMatrix.from_rows(grid, cols=n))
        if L.dim != r or not Matroid.from_subspace(L).is_loopless():
            continue
        d = 2 if done % 2 == 0 else 3
        report = oracle_score_count(L, d, seed=rng.randint(0, 10 ** 9))
        assert report.count == report.predicted, (
            f"certification mismatch: {report}"
        )
        assert report.zero_dimensional
        done += 1


def criterion_8_partition_equivalences():
    """rmld = 1, partition matroid, mld = 1 and chi = (t-1)^r agree on every
    n <= 9 matroid."""
    for M in corpus_upto(9):
        report = classify_rmld_one(M)  # raises if the conditions disagree
        answers = {report.rmld_is_one, report.partition_matroid,
                   report.mld_is_one, report.reciprocal_linear}
        assert len(answers) == 1


def criterion_9_poincare_identity():
    """rmld = (-1)^r P(-2) with P the Poincare polynomial, on every loopless
    test matroid."""
    for M in corpus_upto(10, loopless=True):
        r = M.full_rank()
        value = poincare_poly(M).evaluate(-2) * (-1) ** r
        assert value == rmld(M), f"{value} != rmld {rmld(M)} on {M!r}"


# (label, callable, runtime budget in seconds)
CRITERIA = [
    ("1 uniform r=3 closed form", criterion_1_uniform_r3, 1),
    ("2 uniform r=4 closed form", criterion_2_uniform_r4, 1),
    ("3 rmld nonneg integer and odd", criterion_3_rmld_consistency, 60),
    ("4 Tutte oracle equivalence", criterion_4_tutte_oracle, 120),
    ("5 score-count method agreement", criterion_5_method_agreement, 120),
    ("6 stratification identity", criterion_6_stratification, 300),
    ("7 algebraic certification", criterion_7_algebraic_certification, 600),
    ("8 partition-matroid equivalences", criterion_8_partition_equivalences, 60),
    ("9 Poincare identity", criterion_9_poincare_identity, 30),
]


def _run_one(name, func, budget) -> bool:
    start = time.time()
    try:
        func()
    except AssertionError as exc:
        print(f"FAIL criterion {name}: {exc}", flush=True)
        return False
    elapsed = time.time() - start
    if elapsed >= budget:
        print(f"FAIL criterion {name}: took {elapsed:.1f}s, "
              f"budget {budget}s", flush=True)
        return False
    print(f"PASS criterion {name} ({elapsed:.1f}s)", flush=True)
    return True


def test_criterion_1():
    assert _run_one(*CRITERIA[0])


def test_criterion_2():
    assert _run_one(*CRITERIA[1])


def test_criterion_3():
    assert _run_one(*CRITERIA[2])


def test_criterion_4():
    assert _run_one(*CRITERIA[3])


def test_criterion_5():
    assert _run_one(*CRITERIA[4])


def test_criterion_6():
    assert _run_one(*CRITERIA[5])


def test_criterion_7():
    assert _run_one(*CRITERIA[6])


def test_criterion_8():
    assert _run_one(*CRITERIA[7])


def test_criterion_9():
    assert _run_one(*CRITERIA[8])


if __name__ == "__main__":
    results = [_run_one(name, func, budget) for name, func, budget in CRITERIA]
    sys.exit(0 if all(results) else 1)
