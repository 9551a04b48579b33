"""Command-line front end.

Subcommands: invariants, rmld, score-count, verify, oracle, uniform,
random.  JSON is the stable output format (numeric values are strings so no
consumer ever rounds them); the table format is for reading at a terminal.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 capacity
error, 4 certification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from .invariants import char_poly_flats, compute_invariants
from .linalg import QMatrix, _eliminate, _lead, _primitive
from .matroids import Matroid, check_bases, matroid_from_json_dict, uniform_matroid
from .mldegree import (
    CapacityError,
    CertificationError,
    OracleCaps,
    _count_from_chi,
    ml_degree_report,
    mld,
    rmld,
    score_count,
    uniform_rmld,
    uniform_tutte,
    verify_stratification,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_CERTIFICATION = 4


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mldeg",
        description="Exact ML degrees of diagonal linear concentration models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, need_input=True):
        if need_input:
            p.add_argument("--input", required=True, help="matrix or matroid JSON file")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("invariants", help="Tutte, characteristic and Poincare "
                                          "polynomials, mu, mld, rmld")
    add_io(p)

    p = sub.add_parser("rmld", help="reciprocal ML degree only")
    add_io(p)

    p = sub.add_parser("score-count", help="generalized count for a given exponent d")
    p.add_argument("--d", type=int, required=True)
    add_io(p)

    p = sub.add_parser("verify", help="run the identity checks on one input")
    p.add_argument("--d", type=int, action="append", default=None,
                   help="exponent to check (repeatable; default 0 1 2 3)")
    p.add_argument("--seed", type=int, default=0)
    add_io(p)

    p = sub.add_parser("oracle", help="certify the count with the exact solver")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_io(p)

    p = sub.add_parser("uniform", help="closed forms for the uniform matroid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    add_io(p, need_input=False)

    p = sub.add_parser("random", help="random integer matrix realizing U_{r,n}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add_io(p, need_input=False)
    return parser


def _load_matroid(path: str) -> Matroid:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    try:
        M = matroid_from_json_dict(data)
        if not M.is_realized:
            if len(M._basis_masks) > MAX_EXPLICIT_BASES:
                raise CapacityError(f"{path} lists {len(M._basis_masks)} bases, more than "
                                    f"the cap of {MAX_EXPLICIT_BASES} on explicit input")
            check_bases(M)
    except ValueError as exc:
        raise UsageError(f"bad input in {path}: {exc}") from exc
    return M


def _emit(payload: dict, args, table_lines=None) -> None:
    if args.format == "json" or table_lines is None:
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "\n".join(table_lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _table_from_flat_dict(payload: dict) -> list[str]:
    width = max((len(k) for k in payload), default=0)
    return [f"{k.ljust(width)}  {payload[k]}" for k in payload]


def _cmd_invariants(args) -> int:
    M = _load_matroid(args.input)
    inv = compute_invariants(M)
    deg = ml_degree_report(M)
    payload = inv.to_json_dict()
    payload["loops"] = list(M.loops())
    payload["mld"] = str(deg.mld)
    payload["rmld"] = str(deg.rmld)
    flat = dict(payload)
    flat["tutte"] = json.dumps(payload["tutte"])
    flat["charpoly"] = json.dumps(payload["charpoly"])
    flat["poincare"] = json.dumps(payload["poincare"])
    _emit(payload, args, _table_from_flat_dict(flat))
    return EXIT_OK


def _cmd_rmld(args) -> int:
    M = _load_matroid(args.input)
    payload = {"n": M.n, "rank": M.full_rank(), "rmld": str(rmld(M))}
    _emit(payload, args, _table_from_flat_dict(payload))
    return EXIT_OK


def _cmd_score_count(args) -> int:
    if args.d < 0:
        raise UsageError("--d must be nonnegative")
    M = _load_matroid(args.input)
    payload = ml_degree_report(M, args.d).to_json_dict()
    _emit(payload, args, _table_from_flat_dict(payload))
    return EXIT_OK


def _verify_checks(M: Matroid, ds: list[int], seed: int) -> list[dict]:
    checks: list[dict] = []
    loops = M.loops()
    loopless = not loops

    def add(name, status, detail, d=None):
        entry = {"name": name, "status": status, "detail": detail}
        if d is not None:
            entry["d"] = d
        checks.append(entry)

    # The counts read chi off deletion-contraction; specialization-d0 and
    # method-agreement check them against chi summed over the lattice of
    # flats (zero on loopy input, with no walk).
    flats_chi = char_poly_flats(M)
    value_rmld = rmld(M)
    add("rmld-oddness",
        "pass" if (value_rmld == 0 or value_rmld % 2 == 1) else "fail",
        f"rmld = {value_rmld}")
    mu_abs = abs(flats_chi.evaluate(0))
    mld_value = mld(M)
    spec0 = score_count(M, 0) == mld_value == mu_abs
    add("specialization-d0", "pass" if spec0 else "fail",
        f"score_count(0) = {score_count(M, 0)}, mld = {mld_value}, |mu| = {mu_abs}",
        d=0)
    for d in sorted(set(ds)):
        if d < 0:
            raise UsageError("--d must be nonnegative")
        if d >= 1:
            lhs = score_count(M, d)
            rhs = _count_from_chi(flats_chi, M.full_rank(), d)
            add("method-agreement", "pass" if lhs == rhs else "fail",
                f"formula {lhs} vs flats {rhs}", d=d)
        if d == 1 and M.n >= 1 and loopless:
            v = score_count(M, 1)
            add("vacuity", "pass" if v == 0 else "fail", f"score_count(1) = {v}", d=1)
        if d == 2:
            v = score_count(M, 2)
            add("specialization-rmld", "pass" if v == value_rmld else "fail",
                f"score_count(2) = {v}, rmld = {value_rmld}", d=2)
        if loops:
            v = score_count(M, d)
            add("loop-convention", "pass" if v == 0 else "fail",
                f"score_count({d}) = {v} with loops {list(loops)}", d=d)
            add("stratification", "skip",
                f"matroid has loops {list(loops)}; every degree is 0", d=d)
        else:
            report = verify_stratification(M, d)
            add("stratification", "pass" if report.holds else "fail",
                f"lhs {report.lhs} vs rhs {report.rhs}", d=d)
        if d >= 1:
            if not M.is_realized:
                add("solver", "skip", "no realization available", d=d)
            elif not M.full_rank():
                add("solver", "skip", f"subspace has dimension 0; every degree is "
                    f"{score_count(M, d)}", d=d)
            else:
                try:
                    # Refuse an over-cap instance before the solver loads.
                    caps = OracleCaps.from_env()
                    caps.check(M.subspace.ambient_n, M.subspace.dim, d)
                    from .solver import oracle_score_count

                    solved = oracle_score_count(M.subspace, d, seed, caps)
                    add("solver",
                        "pass" if solved.count == solved.predicted else "fail",
                        f"count {solved.count}, predicted {solved.predicted}, "
                        f"resamples {solved.resamples}", d=d)
                except CapacityError as exc:
                    add("solver", "skip", str(exc), d=d)
                except CertificationError as exc:
                    add("solver", "fail", str(exc), d=d)
    return checks


def _cmd_verify(args) -> int:
    M = _load_matroid(args.input)
    ds = args.d if args.d else [0, 1, 2, 3]
    checks = _verify_checks(M, ds, args.seed)
    all_passed = all(c["status"] != "fail" for c in checks)
    payload = {
        "n": M.n,
        "rank": M.full_rank(),
        "loops": list(M.loops()),
        "checks": checks,
        "all_passed": all_passed,
    }
    lines = [
        f"{c['status'].upper():4} {c['name']}"
        + (f" [d={c['d']}]" if "d" in c else "")
        + f": {c['detail']}"
        for c in checks
    ]
    lines.append(f"all_passed {all_passed}")
    _emit(payload, args, lines)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _cmd_oracle(args) -> int:
    M = _load_matroid(args.input)
    if not M.is_realized:
        raise UsageError("oracle needs a matrix input (a realization)")
    if args.d < 1:
        raise UsageError("--d must be at least 1")
    from .solver import oracle_score_count

    report = oracle_score_count(M.subspace, args.d, args.seed)
    payload = report.to_json_dict()
    payload["matches"] = report.count == report.predicted
    _emit(payload, args, _table_from_flat_dict(
        {k: str(v) for k, v in payload.items()}
    ))
    return EXIT_OK


def _cmd_uniform(args) -> int:
    if not 1 <= args.r <= args.n:
        raise UsageError(f"need 1 <= r <= n, got r={args.r}, n={args.n}")
    payload = {
        "n": args.n,
        "r": args.r,
        "rmld": str(uniform_rmld(args.n, args.r)),
    }
    if args.d is not None:
        if args.d < 0:
            raise UsageError("--d must be nonnegative")
        M = uniform_matroid(args.n, args.r)
        payload["d"] = args.d
        payload["value"] = str(score_count(M, args.d))
        payload["tutte"] = uniform_tutte(args.n, args.r).to_term_list()
    flat = {k: (json.dumps(v) if isinstance(v, list) else v)
            for k, v in payload.items()}
    _emit(payload, args, _table_from_flat_dict(flat))
    return EXIT_OK


def _cmd_random(args) -> int:
    if not 1 <= args.r <= args.n:
        raise UsageError(f"need 1 <= r <= n, got r={args.r}, n={args.n}")
    matrix = random_uniform_matrix(args.n, args.r, args.seed)
    payload = matrix.to_json_dict()
    _emit(payload, args, None)
    return EXIT_OK


# Most r x r minors that one draw of `random` may check: the C(20, 10) =
# 184,756 of n = 20, r = 10 take about 2 s on a 2-core host, and the
# C(40, 20) of n = 40, r = 20 would take months.
MAX_RANDOM_MINORS = 200_000

# Most bases an explicit input may list: check_bases takes about 0.6 us per
# pair of bases, so the 3,003 of U(6,14) take about 6 s on a 2-core host and
# the 16,807 of K7 minutes.
MAX_EXPLICIT_BASES = 4_000


def _every_r_independent(columns: list, r: int) -> bool:
    """Whether every r of the integer vectors `columns` are linearly
    independent.

    A depth-first walk over increasing column choices: each prefix of
    chosen columns carries the columns after it, taken modulo the chosen
    ones by fraction-free pivot steps.  A column that is zero there fails
    every r-set through that prefix, so the first one met, with enough
    columns left after it to make up r, settles the answer.  With two
    columns left to choose, that asks for nonzero columns no two of them
    parallel: as many distinct primitive forms as columns.
    """
    def walk(rest: list, need: int) -> bool:
        if need == 2:
            return (all(map(any, rest))
                    and len({tuple(_primitive(v)) for v in rest}) == len(rest))
        for i in range(len(rest) - need + 1):
            c = _lead(rest[i])
            if c is None:
                return False
            if need > 1 and not walk(_eliminate(rest[i:], 0, c)[1:], need - 1):
                return False
        return True

    # r = 0 leaves only the empty set to check, and r > n no set at all.
    return not 0 < r <= len(columns) or walk(columns, r)


def random_uniform_matrix(n: int, r: int, seed: int,
                          max_attempts: int = 1000) -> QMatrix:
    """An r x n integer matrix with entries in [-100, 100] whose column
    matroid is U_{r,n}; resamples whole matrices until uniformity holds.
    Raises CapacityError before drawing when C(n, r), the number of r x r
    minors each draw checks, exceeds MAX_RANDOM_MINORS."""
    import random

    if comb(n, r) > MAX_RANDOM_MINORS:
        raise CapacityError(
            f"U({r},{n}) has C({n}, {r}) = {comb(n, r)} r x r minors to check, "
            f"more than the cap of {MAX_RANDOM_MINORS}"
        )
    rng = random.Random(seed)
    for _ in range(max_attempts):
        grid = [[rng.randint(-100, 100) for _ in range(n)] for _ in range(r)]
        if _every_r_independent(list(zip(*grid)), r):
            return QMatrix.from_rows(grid, cols=n)
    raise RuntimeError(
        f"failed to draw a uniform realization for (n={n}, r={r}) "
        f"in {max_attempts} attempts"
    )


_HANDLERS = {
    "invariants": _cmd_invariants,
    "rmld": _cmd_rmld,
    "score-count": _cmd_score_count,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "uniform": _cmd_uniform,
    "random": _cmd_random,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except CertificationError as exc:
        print(f"certification failure: {exc} (seeds {list(exc.seeds)})",
              file=sys.stderr)
        return EXIT_CERTIFICATION


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
