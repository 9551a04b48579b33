"""Long-lived library process for the `sweep` workload.

usage: python perfbench/sweep_worker.py INPUTS RESULTS [--setup-only] [--trace SPANS]

Imports `mldeg`, builds a matroid from every JSON document in INPUTS, and
prints "ready".  Then it runs one request per matroid, in order and one at a
time, and writes to RESULTS each request's answers and wall time, plus the
time the whole loop took.  The module-level memos of `mldeg` live across
requests, as in any long-running caller.
"""

import json
import sys
from time import perf_counter


def request(mldeg, M) -> dict:
    out = {
        "rmld": mldeg.rmld(M),
        "mld": mldeg.mld(M),
        "score3": mldeg.score_count(M, 3),
        "score3_dc": mldeg.score_count_dc(M, 3),
        "strat2": None,
    }
    if not M.loops():
        report = mldeg.verify_stratification(M, 2)
        out["strat2"] = [report.lhs, report.rhs, report.holds]
    return out


def main() -> int:
    inputs, results = sys.argv[1], sys.argv[2]
    rest = sys.argv[3:]
    tracer = None
    if "--trace" in rest:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    import mldeg

    with open(inputs, encoding="utf-8") as handle:
        matroids = [mldeg.matroid_from_json_dict(doc) for doc in json.load(handle)]
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if "--setup-only" in rest:
        return 0
    traced = tracer.span("sweep.request", request) if tracer else request
    records = []
    loop_start = perf_counter()
    for rid, M in enumerate(matroids):
        start = perf_counter()
        try:
            if tracer:
                answer = tracer.run(rid, traced, mldeg, M)
            else:
                answer = traced(mldeg, M)
        except Exception as exc:  # reported as a failed request, run goes on
            answer = {"error": repr(exc)}
        answer["s"] = perf_counter() - start
        records.append(answer)
    loop_s = perf_counter() - loop_start
    with open(results, "w", encoding="utf-8") as handle:
        json.dump({"loop_s": loop_s, "requests": records}, handle)
    if tracer:
        tracer.dump(rest[rest.index("--trace") + 1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
