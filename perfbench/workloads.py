"""Seeded inputs and expected answers for the four workloads.

A workload is a fixed list of requests (one pass).  Each request names the
CLI arguments (or, for `sweep`, one library input) and carries the answer
expected for it, computed here by the routes in `exact.py`: the uniform
closed forms for inputs that are generic by construction, the
corank-nullity expansion for the rest.  The same seed always gives the same
requests.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

import exact

# Vamos matroid: rank 4 on 8 elements, five dependent 4-sets, not realizable.
_VAMOS_NONBASES = [{1, 2, 3, 4}, {1, 2, 5, 6}, {1, 2, 7, 8}, {3, 4, 5, 6}, {3, 4, 7, 8}]


def generic_columns(rng: random.Random, n: int, r: int) -> list[list[int]]:
    """n columns in Z^r, any r of them independent.

    Moment-curve columns (1, x, ..., x^(r-1)) at the nodes x = 1..n in
    seeded order, each scaled by +-1, then mixed by random row operations.  Every r x r minor
    is a nonzero Vandermonde determinant times a unit, so the column matroid
    is U(r, n) whatever the seed.
    """
    nodes = rng.sample(range(1, n + 1), n)
    signs = [rng.choice((1, -1)) for _ in nodes]
    cols = [[sign * x ** i for i in range(r)] for x, sign in zip(nodes, signs)]
    for _ in range(2 * r if r > 1 else 0):
        a, b = rng.sample(range(r), 2)
        k = rng.choice((-2, -1, 1, 2))
        for c in cols:
            c[a] += k * c[b]
    return cols


def planted_columns(rng: random.Random, n: int, r: int, loops: int,
                    parallels: int) -> list[list[int]]:
    """Generic columns, a scaled copy (parallel element) right after each of
    the first `parallels` of them, and zero columns (loops) at the end.

    Fixed positions keep the cost of a shape nearly the same for every
    seed; with seeded positions the median request time of `sweep` moved by
    a quarter from seed to seed.
    """
    cols = generic_columns(rng, n - loops - parallels, r)
    for i in range(parallels):
        cols.insert(2 * i + 1, [rng.choice((1, -1, 2, -3)) * x for x in cols[2 * i]])
    return cols + [[0] * r for _ in range(loops)]


def matrix_json(cols: list[list[int]]) -> dict:
    r = len(cols[0])
    return {"rows": r, "cols": len(cols),
            "entries": [[str(c[i]) for c in cols] for i in range(r)]}


def vamos_bases(rng: random.Random) -> list[list[int]]:
    perm = list(range(1, 9))
    rng.shuffle(perm)
    return sorted(sorted(perm[e - 1] for e in c) for c in combinations(range(1, 9), 4)
                  if set(c) not in _VAMOS_NONBASES)


def uniform_bases(n: int, r: int) -> list[list[int]]:
    return [list(c) for c in combinations(range(1, n + 1), r)]


def realized_bases(cols: list[list[int]]) -> list[list[int]]:
    r = exact.column_rank(cols)
    return [[j + 1 for j in S] for S in combinations(range(len(cols)), r)
            if exact.column_rank([cols[j] for j in S]) == r]


class Instance:
    """One input: its JSON document and its reference Tutte polynomial."""

    def __init__(self, label: str, doc: dict, n: int, rank: int, tutte: dict,
                 loops: list[int]):
        self.label, self.doc, self.n, self.rank = label, doc, n, rank
        self.tutte, self.loops = tutte, loops

    @classmethod
    def generic(cls, rng, n, r):
        return cls(f"generic-{n}-{r}", matrix_json(generic_columns(rng, n, r)),
                   n, r, exact.uniform_tutte(n, r), [])

    @classmethod
    def planted(cls, rng, n, r, loops, parallels):
        return cls.from_columns(f"planted-{n}-{r}-{loops}-{parallels}",
                                planted_columns(rng, n, r, loops, parallels))

    @classmethod
    def from_columns(cls, label, cols):
        rank, counts = exact.rank_size_counts_realized(cols)
        loops = [j + 1 for j, c in enumerate(cols) if not any(c)]
        return cls(label, matrix_json(cols), len(cols), rank,
                   exact.tutte_from_counts(rank, counts), loops)

    @classmethod
    def explicit(cls, label, n, bases, tutte=None):
        rank, counts = exact.rank_size_counts_bases(n, bases)
        used = {e for b in bases for e in b}
        return cls(label, {"n": n, "bases": bases}, n, rank,
                   tutte if tutte is not None else exact.tutte_from_counts(rank, counts),
                   [e for e in range(1, n + 1) if e not in used])

    def degrees(self) -> dict:
        return exact.degrees(self.tutte, self.rank)

    def score_count(self, d: int) -> int:
        return exact.score_count(self.tutte, self.rank, d)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _cli_request(rid: int, kind: str, inst: Instance, args: list[str], expect: dict,
                 path: str) -> dict:
    return {"id": rid, "kind": kind, "label": f"{inst.label}/{kind}",
            "argv": [kind, *args, "--input", path], "expect": expect}


def _write_inputs(workdir: Path, instances: list[Instance]) -> list[str]:
    paths = []
    for k, inst in enumerate(instances):
        path = workdir / f"input-{k:03d}.json"
        path.write_text(json.dumps(inst.doc))
        paths.append(str(path))
    return paths


# -- degrees -----------------------------------------------------------------

_DEGREES_GENERIC = [(11, 4), (12, 5), (13, 5), (12, 6), (13, 4), (11, 5)]
_DEGREES_PLANTED = [(13, 5, 1, 2), (13, 6, 1, 2), (13, 6, 0, 3), (12, 5, 0, 2),
                    (12, 4, 1, 1), (13, 5, 0, 2)]


def degrees(seed: int, workdir: Path, tiny: bool = False) -> list[dict]:
    rng = _rng("degrees", seed)
    if tiny:
        instances = [Instance.generic(rng, 6, 3), Instance.planted(rng, 7, 3, 1, 1),
                     Instance.explicit("vamos", 8, vamos_bases(rng))]
    else:
        instances = ([Instance.generic(rng, n, r) for n, r in _DEGREES_GENERIC]
                     + [Instance.planted(rng, *shape) for shape in _DEGREES_PLANTED]
                     + [Instance.explicit("vamos", 8, vamos_bases(rng)),
                        Instance.explicit("explicit-uniform-7-3", 7, uniform_bases(7, 3),
                                          exact.uniform_tutte(7, 3))])
    requests = []
    for inst, path in zip(instances, _write_inputs(workdir, instances)):
        deg = inst.degrees()
        base = {"n": inst.n, "rank": inst.rank}
        requests.append(_cli_request(len(requests), "rmld", inst, [],
                                     {**base, "rmld": deg["rmld"]}, path))
        requests.append(_cli_request(len(requests), "score-count", inst, ["--d", "3"],
                                     {"d": 3, "value": inst.score_count(3),
                                      "rmld": deg["rmld"], "mld": deg["mld"]}, path))
        requests.append(_cli_request(len(requests), "invariants", inst, [],
                                     {**base, **deg, "loops": inst.loops}, path))
    return requests


# -- verify ------------------------------------------------------------------

# (n, r, exponents); an empty exponent list means the CLI default 0..3.
_VERIFY_WIDE = [(11, 3, []), (12, 3, ["2"]), (12, 3, ["1"]), (11, 3, ["3"])]
_VERIFY_MID = [(9, 4, ["2"]), (10, 4, ["1"]), (8, 5, ["2"])]


def verify(seed: int, workdir: Path, tiny: bool = False) -> list[dict]:
    rng = _rng("verify", seed)
    shapes = [(6, 3, []), (6, 4, ["2"])] if tiny else _VERIFY_WIDE + _VERIFY_MID
    shapes = shapes * (1 if tiny else 4)
    instances = [Instance.generic(rng, n, r) for n, r, _ in shapes]
    requests = []
    for (n, r, ds), inst, path in zip(shapes, instances, _write_inputs(workdir, instances)):
        args = [a for d in ds for a in ("--d", d)]
        args += ["--seed", str(rng.randrange(10 ** 6))]
        expect = {"n": n, "rank": r, "loops": [], "all_passed": True,
                  "stratified": sorted(int(d) for d in ds) or [0, 1, 2, 3]}
        requests.append(_cli_request(len(requests), "verify", inst, args, expect, path))
    return requests


# -- oracle ------------------------------------------------------------------

# Entries in [-100, 100]; (n, r, d) kept to instances of well under a second.
# Fewer of the cheapest shape, so the median and the tail fall inside the
# group of (4, 2, 3) and (5, 2, 2) requests rather than at a group boundary.
_ORACLE_SMALL = [(4, 2, 3), (5, 2, 2), (4, 2, 3), (5, 2, 2), (4, 3, 2)]


def _random_uniform(rng: random.Random, n: int, r: int) -> list[list[int]]:
    while True:
        cols = [[rng.randint(-100, 100) for _ in range(r)] for _ in range(n)]
        if exact.is_uniform(cols, r):
            return cols


def oracle(seed: int, workdir: Path, tiny: bool = False) -> list[dict]:
    rng = _rng("oracle", seed)
    jobs = []
    if not tiny:
        # One heavy instance where coefficient growth dominates: the
        # moment-curve rows of U(2, 5) with d = 3 (7-13 s).  Its cost depends
        # on the sampled parameters, so it keeps one fixed --seed for every
        # workload seed; otherwise it alone would set the run-to-run spread.
        moment = [[1, x] for x in range(1, 6)]
        jobs.append((Instance("moment-5-2", matrix_json(moment), 5, 2,
                              exact.uniform_tutte(5, 2), []), 3, 0))
    count = 3 if tiny else 24
    for k in range(count):
        n, r, d = _ORACLE_SMALL[k % len(_ORACLE_SMALL)]
        inst = Instance(f"random-{n}-{r}", matrix_json(_random_uniform(rng, n, r)),
                        n, r, exact.uniform_tutte(n, r), [])
        jobs.append((inst, d, rng.randrange(10 ** 6)))
    paths = _write_inputs(workdir, [inst for inst, _, _ in jobs])
    requests = []
    for (inst, d, oseed), path in zip(jobs, paths):
        expect = {"predicted": inst.score_count(d), "count": inst.score_count(d),
                  "matches": True}
        requests.append(_cli_request(len(requests), "oracle", inst,
                                     ["--d", str(d), "--seed", str(oseed)], expect, path))
    return requests


# -- sweep -------------------------------------------------------------------

def _sweep_shapes(tiny: bool) -> list[tuple[int, int, int, int]]:
    if tiny:
        return [(4, 2, 0, 0), (5, 2, 1, 1), (6, 3, 0, 2)]
    return [(n, r, loops, par)
            for n in range(4, 11)
            for r in range(1, min(n - 2, 4) + 1)
            for loops, par in ((0, 0), (0, 1), (1, 1), (0, 2))]


def sweep(seed: int, workdir: Path, tiny: bool = False) -> list[dict]:
    """Library requests for one long-lived process; every third input is an
    explicit-bases copy of a realized one."""
    rng = _rng("sweep", seed)
    shapes = _sweep_shapes(tiny)
    count = 6 if tiny else 380
    requests = []
    for k in range(count):
        n, r, loops, par = shapes[k % len(shapes)]
        cols = planted_columns(rng, n, r, loops, par)
        inst = Instance.from_columns(f"sweep-{n}-{r}-{loops}-{par}", cols)
        if k % 3 == 0:
            inst.doc = {"n": n, "bases": realized_bases(cols)}
            inst.label += "-explicit"
        deg = inst.degrees()
        expect = {"rmld": deg["rmld"], "mld": deg["mld"], "score3": inst.score_count(3),
                  "score3_dc": inst.score_count(3),
                  "strat2": None if inst.loops else [2 ** inst.rank * deg["mld"]] * 2 + [True]}
        requests.append({"id": k, "kind": "sweep", "label": inst.label,
                         "input": inst.doc, "expect": expect})
    return requests


BUILDERS = {"degrees": degrees, "verify": verify, "oracle": oracle, "sweep": sweep}
WORKLOADS = tuple(BUILDERS)
