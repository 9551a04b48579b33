"""Record the program's answers for the default seed in answers_seed0.json.

usage: python3 perfbench/record_answers.py

Runs one untraced pass of every workload at the default seed and records
each answer only after it has passed the checks against `exact.py`.  Re-run
it only when a workload's inputs change; the program must not change the
recorded answers.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    os.chdir(run.ROOT)
    answers = {}
    for workload in workloads.WORKLOADS:
        workdir = run.ROOT / ".perfbench" / f"record-{os.getpid()}-{workload}"
        workdir.mkdir(parents=True)
        try:
            bench = run.Run(workload, run.DEFAULT_SEED, workdir)
            bench.recorded = None
            records, _ = bench.one_pass(False, "record")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        failures = [(r["id"], r["error"]) for r in records if r["error"]]
        if failures:
            print(f"{workload}: {len(failures)} wrong answers, nothing recorded: {failures[:3]}",
                  file=sys.stderr)
            return 1
        answers[workload] = {str(r["id"]): r["answer"] for r in records}
        print(f"{workload}: {len(records)} answers")
    path = run.BENCH / "answers_seed0.json"
    path.write_text(json.dumps(answers, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
