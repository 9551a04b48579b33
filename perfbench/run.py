"""End-to-end benchmark of the `mldeg` CLI and library.

usage: python3 perfbench/run.py --workload {degrees,verify,oracle,sweep}
                                --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is run from `src/` with
PYTHONPATH=src, never installed.  One client, closed loop, one request in
flight.  Every CLI request is a fresh `python -m mldeg.cli` process; the
`sweep` workload is one long-lived library process per pass.  A pass is
the workload's whole seeded request list.  The run repeats passes while
another one fits in S seconds (at least one pass), so every run measures
the same instance mix.  Every answer is checked against `exact.py`, and for
the default seed also against the answers recorded in `answers_seed0.json`.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced and
one traced pass and prints the per-layer metrics from the traced one.  The
last line of standard output is the JSON result; results and metadata also
go to .perfbench/results/.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 0
REQUEST_TIMEOUT_S = 60
# No new request starts after this long, so a run ends well inside 180 s.
RUN_LIMIT_S = 140
SETUP_PROBES = 9

END_TO_END_UNITS = {"req_per_s": "1/s", "req_p50_s": "s", "req_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


# -- child processes -----------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], stdout: str | None, stderr: str) -> tuple[int, int | None]:
    """Start argv; stdout goes to a file, or to a pipe whose read end is
    returned when stdout is None."""
    wronly = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, stderr, wronly, 0o644)]
    read_end = None
    if stdout is None:
        read_end, write_end = os.pipe()
        actions.append((os.POSIX_SPAWN_DUP2, write_end, 1))
    else:
        actions.append((os.POSIX_SPAWN_OPEN, 1, stdout, wronly, 0o644))
    try:
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], _env(),
                             file_actions=actions)
    finally:
        if stdout is None:
            os.close(write_end)
    return pid, read_end


def reap(pid: int, timeout: float) -> tuple[int | None, int]:
    """Wait for pid at most timeout seconds (then kill it).  Returns the
    exit code (None when killed for the timeout) and its peak RSS in KiB."""
    fd = os.pidfd_open(pid)
    try:
        timed_out = not select.select([fd], [], [], timeout)[0]
    finally:
        os.close(fd)
    if timed_out:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    return (None if timed_out else os.waitstatus_to_exitcode(status)), usage.ru_maxrss


def wait_ready(read_end: int, timeout: float) -> bool:
    """Read the child's stdout until it prints "ready"."""
    buf = b""
    deadline = perf_counter() + timeout
    try:
        while b"ready" not in buf:
            left = deadline - perf_counter()
            if left <= 0 or not select.select([read_end], [], [], left)[0]:
                return False
            chunk = os.read(read_end, 4096)
            if not chunk:
                return False
            buf += chunk
        return True
    finally:
        os.close(read_end)


# -- answer checks -------------------------------------------------------------


def _ints(items) -> list[int]:
    return [int(x) for x in items]


def observe(kind: str, out: dict) -> dict:
    """The program's answer in the shape of the expected one."""
    if kind == "rmld":
        return {"n": out["n"], "rank": out["rank"], "rmld": int(out["rmld"])}
    if kind == "score-count":
        return {"d": out["d"], "value": int(out["value"]), "rmld": int(out["rmld"]),
                "mld": int(out["mld"])}
    if kind == "invariants":
        return {"n": out["n"], "rank": out["rank"],
                "tutte": sorted([i, j, int(c)] for i, j, c in out["tutte"]),
                "charpoly": _ints(out["charpoly"]), "mobius": int(out["mobius"]),
                "poincare": None if out["poincare"] is None else _ints(out["poincare"]),
                "mld": int(out["mld"]), "rmld": int(out["rmld"]), "loops": out["loops"]}
    if kind == "verify":
        return {"n": out["n"], "rank": out["rank"], "loops": out["loops"],
                "all_passed": out["all_passed"],
                "stratified": sorted(c["d"] for c in out["checks"]
                                     if c["name"] == "stratification"
                                     and c["status"] == "pass")}
    if kind == "oracle":
        return {"predicted": int(out["predicted"]), "count": int(out["count"]),
                "matches": out["matches"]}
    if kind == "sweep":
        return {k: out[k] for k in ("rmld", "mld", "score3", "score3_dc", "strat2")}
    raise ValueError(f"unknown request kind {kind}")


def check(req: dict, out: dict | None, recorded: dict | None) -> tuple[dict | None, str | None]:
    """The observed answer, and None when it is right or else why it is not."""
    if out is None:
        return None, "no output"
    try:
        got = observe(req["kind"], out)
    except (KeyError, TypeError, ValueError) as exc:
        return None, f"malformed output: {exc!r}"
    if got != req["expect"]:
        return got, f"expected {req['expect']}, got {got}"
    if recorded is not None and got != recorded.get(str(req["id"])):
        return got, f"differs from the recorded answer {recorded.get(str(req['id']))}"
    return got, None


# -- passes --------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, workdir: Path, tiny: bool = False):
        self.workload, self.workdir = workload, workdir
        self.requests = workloads.BUILDERS[workload](seed, workdir, tiny)
        self.recorded = None
        answers = BENCH / "answers_seed0.json"
        if seed == DEFAULT_SEED and not tiny and answers.is_file():
            self.recorded = json.loads(answers.read_text()).get(workload)
        self.start = perf_counter()
        self.spans_files: list[Path] = []
        if workload == "sweep":
            self.inputs = workdir / "sweep-inputs.json"
            self.inputs.write_text(json.dumps([r["input"] for r in self.requests]))

    def over_limit(self) -> bool:
        return perf_counter() - self.start > RUN_LIMIT_S

    def setup_times(self) -> list[float]:
        """Process start until ready for the first request, SETUP_PROBES times."""
        if self.workload == "sweep":
            argv = [str(BENCH / "sweep_worker.py"), str(self.inputs),
                    str(self.workdir / "probe.json"), "--setup-only"]
        else:
            argv = ["-c", "import sys, mldeg.cli; sys.stdout.write('ready\\n')"]
        times = []
        for _ in range(SETUP_PROBES):
            start = perf_counter()
            pid, read_end = spawn(argv, None, str(self.workdir / "probe.err"))
            ready = wait_ready(read_end, REQUEST_TIMEOUT_S)
            elapsed = perf_counter() - start
            code, _ = reap(pid, REQUEST_TIMEOUT_S)
            if not ready or code != 0:
                raise RuntimeError(f"set-up probe failed: {(self.workdir / 'probe.err').read_text()}")
            times.append(elapsed)
        return times

    def cli_pass(self, traced: bool, tag: str) -> list[dict]:
        records = []
        out_path, err_path = self.workdir / "out.json", self.workdir / "err.txt"
        for req in self.requests:
            if self.over_limit():
                break
            if traced:
                spans = self.workdir / f"spans-{tag}-{req['id']:04d}.json"
                self.spans_files.append(spans)
                argv = [str(BENCH / "traced_cli.py"), str(spans), str(req["id"]), *req["argv"]]
            else:
                argv = ["-m", "mldeg.cli", *req["argv"]]
            start = perf_counter()
            pid, _ = spawn(argv, str(out_path), str(err_path))
            code, rss = reap(pid, REQUEST_TIMEOUT_S)
            elapsed = perf_counter() - start
            out = None
            try:
                out = json.loads(out_path.read_text())
            except ValueError:
                pass
            answer, reason = check(req, out, self.recorded)
            if code != 0:
                reason = f"exit code {code}: {err_path.read_text()[-300:]}"
            records.append({"id": req["id"], "s": elapsed, "rss_kb": rss,
                            "answer": answer, "error": reason})
        return records

    def sweep_pass(self, traced: bool, tag: str) -> tuple[list[dict], float]:
        results = self.workdir / f"sweep-{tag}.json"
        argv = [str(BENCH / "sweep_worker.py"), str(self.inputs), str(results)]
        if traced:
            spans = self.workdir / f"spans-{tag}.json"
            self.spans_files.append(spans)
            argv += ["--trace", str(spans)]
        err = self.workdir / "sweep-err.txt"
        pid, read_end = spawn(argv, None, str(err))
        wait_ready(read_end, REQUEST_TIMEOUT_S)
        code, rss = reap(pid, max(1.0, RUN_LIMIT_S + 20 - (perf_counter() - self.start)))
        if code != 0:
            reason = f"worker exit code {code}: {err.read_text()[-300:]}"
            return [{"id": r["id"], "s": 0.0, "rss_kb": rss, "answer": None, "error": reason}
                    for r in self.requests], 0.0
        data = json.loads(results.read_text())
        records = []
        for req, out in zip(self.requests, data["requests"]):
            answer, reason = check(req, out, self.recorded)
            if "error" in out:
                reason = out["error"]
            records.append({"id": req["id"], "s": out["s"], "rss_kb": rss,
                            "answer": answer, "error": reason})
        return records, data["loop_s"]

    def one_pass(self, traced: bool, tag: str) -> tuple[list[dict], float]:
        """Records of one pass and the time its requests took."""
        if self.workload == "sweep":
            return self.sweep_pass(traced, tag)
        records = self.cli_pass(traced, tag)
        return records, sum(r["s"] for r in records)

    def timed_passes(self, seconds: float) -> tuple[list[dict], float]:
        records, busy = [], 0.0
        begin = perf_counter()
        while True:
            p0 = perf_counter()
            recs, took = self.one_pass(False, f"p{len(records)}")
            records += recs
            busy += took
            elapsed = perf_counter() - begin
            if elapsed + (perf_counter() - p0) > seconds or self.over_limit():
                return records, busy


# -- metrics -------------------------------------------------------------------


def tail_percentile(pass_size: int) -> int:
    """Highest whole percentile with at least ten requests of one pass above it."""
    return max(0, math.floor(100 * (pass_size - 10) / pass_size))


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(records: list[dict], busy: float, setup: list[float], pct: int) -> dict:
    times = [r["s"] for r in records]
    return {
        "req_per_s": len(records) / busy,
        "req_p50_s": statistics.median(times),
        "req_tail_s": percentile(times, pct),
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024,
        "setup_s": statistics.median(setup),
    }


def aggregate_spans(files: list[Path]) -> dict:
    """Per span name: calls and self seconds (request spans only); counters
    summed over processes, except the bit-size maximum."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    for path in files:
        if not path.is_file():
            continue
        data = json.loads(path.read_text())
        for _sid, name, _start, _end, _parent, request, own in data["spans"]:
            if request is None:
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
        for key, value in data["counters"].items():
            if key == "solver.buchberger.max_coeff_bits":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return {"calls": calls, "self_s": self_s, "counters": counters}


def per_layer(agg: dict) -> dict:
    """The per-layer metrics named in README.md, as {name: (value, unit)}."""
    def calls(*names):
        return sum(agg["calls"].get(n, 0) for n in names)

    def own(*names):
        return sum(agg["self_s"].get(n, 0.0) for n in names)

    def counter(name):
        return agg["counters"].get(name, 0)

    minors = ("matroids.restrict", "matroids.contract_set")
    return {
        "linalg.rref.calls": (calls("linalg.rref"), "count"),
        "linalg.rref.self_s": (own("linalg.rref"), "s"),
        "linalg.restrict_subspace.self_s": (own("linalg.restrict_subspace"), "s"),
        "linalg.contract_subspace.self_s": (own("linalg.contract_subspace"), "s"),
        "linalg.rank_int_rows.calls": (calls("linalg.rank_int_rows"), "count"),
        "linalg.rank_int_rows.self_s": (own("linalg.rank_int_rows"), "s"),
        "matroids.rank.queries": (counter("matroids.rank.queries"), "count"),
        "matroids.minors.built": (calls(*minors), "count"),
        "matroids.minors.self_s": (own(*minors), "s"),
        "matroids.flats.found": (counter("matroids.flats.found"), "count"),
        "matroids.flats.self_s": (own("matroids.flats"), "s"),
        "matroids.closure.calls": (counter("matroids.closure.calls"), "count"),
        "invariants.tutte.calls": (calls("invariants.tutte"), "count"),
        "invariants.tutte.misses": (counter("invariants.tutte.misses"), "count"),
        "invariants.tutte.self_s": (own("invariants.tutte"), "s"),
        "mldegree.score_count_dc.calls": (calls("mldegree.score_count_dc"), "count"),
        "mldegree.score_count_dc.self_s": (own("mldegree.score_count_dc"), "s"),
        "mldegree.verify_stratification.self_s": (own("mldegree.verify_stratification"), "s"),
        "solver.buchberger.self_s": (own("solver.buchberger"), "s"),
        "solver.buchberger.basis_size": (counter("solver.buchberger.basis_size"), "count"),
        "solver.buchberger.max_coeff_bits": (counter("solver.buchberger.max_coeff_bits"), "bits"),
        "solver.count_torus_solutions.self_s": (own("solver.count_torus_solutions"), "s"),
        "solver.count_torus_solutions.standard_monomials":
            (counter("solver.count_torus_solutions.standard_monomials"), "count"),
        "solver.build_score_system.self_s": (own("solver.build_score_system"), "s"),
        "solver.oracle_score_count.resamples":
            (counter("solver.oracle_score_count.resamples"), "count"),
        "cli.main.self_s": (own("cli.main"), "s"),
    }


# -- metadata --------------------------------------------------------------------


def metadata(workload: str, seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "git_sha": sha, "src_sha256": digest.hexdigest()}


# -- main ------------------------------------------------------------------------


def execute(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            tiny: bool = False, plant=None) -> dict:
    """One benchmark run; returns the full result (printed and saved by main).

    plant(requests) may alter the expected answers before the run, which is
    how the self-tests plant a wrong answer."""
    run = Run(workload, seed, workdir, tiny)
    if plant is not None:
        plant(run.requests)
    pct = tail_percentile(len(run.requests))
    if trace:
        base, base_busy = run.one_pass(False, "base")
        traced, traced_busy = run.one_pass(True, "trace")
        records = base + traced
        layers = per_layer(aggregate_spans(run.spans_files))
        layers["trace.req_per_s_ratio"] = ((len(traced) / traced_busy) / (len(base) / base_busy),
                                           "ratio")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        setup = run.setup_times()
        records, busy = run.timed_passes(seconds)
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in end_to_end(records, busy, setup, pct).items()}
    failures = [(r["id"], r["error"]) for r in records if r["error"]]
    return {
        "meta": metadata(workload, seed),
        "trace": int(trace),
        "pass_size": len(run.requests),
        "tail_percentile": pct,
        "attempted": len(records),
        "failed": len(failures),
        "failed_frac": len(failures) / len(records),
        "failures": failures[:10],
        "metrics": metrics,
        "records": records,
        "spans_files": run.spans_files,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mldeg" / "cli.py").is_file():
        print(f"error: no program to benchmark at {ROOT / 'src' / 'mldeg'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    results = ROOT / ".perfbench" / "results"
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        del result["spans_files"]
        result["request_s"] = [[r["id"], r["s"]] for r in result.pop("records")]
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(result) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = result["meta"]
    print(f"# {args.workload} seed={args.seed} python={meta['python']} nproc={meta['nproc']} "
          f"git={meta['git_sha']} src_sha256={meta['src_sha256'][:12]}")
    print(f"# requests={result['attempted']} (pass of {result['pass_size']}) "
          f"failed={result['failed']} failed_frac={result['failed_frac']:.4f} "
          f"tail=p{result['tail_percentile']}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for rid, reason in result["failures"]:
        print(f"# FAILED request {rid}: {reason[:300]}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
