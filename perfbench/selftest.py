"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at smoke size (``run.py --smoke``: the
jobs marked ``smoke`` in jobs.py) at the default seed, untraced and traced,
and checks that

* every job's outcome passes the gate: the only failures are the recorded
  seed defects, and golden digests and witnesses match;
* the printed metric names and units are exactly those of BENCHMARK.json,
  and no end-to-end metric is zero;
* every per-layer metric is nonzero on at least one workload;
* ``turaev.family_equations`` runs exactly |G| times per group-michaelis job.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run  # sets sys.path to the checkout's src/
import jobs


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(jobs.DEFAULT_SEED), "--seconds", "0", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _smoke_jobs(workload: str):
    workdir = run.WORK / f"selftest-{workload}"
    try:
        return run.setup(workload, jobs.DEFAULT_SEED, workdir, smoke=True)[1]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems, nonzero = [], set()
    for workload in (w["name"] for w in bench["workloads"]):
        job_list = _smoke_jobs(workload)
        defects = sum(1 for j in job_list if j.defect)
        for trace in (0, 1):
            result = _run(workload, trace)
            where = f"{workload} trace {trace}"
            if not result["correct"]:
                problems.append(f"{where}: a job's outcome differs from the gate")
            if result["failed"] * len(job_list) != result["attempted"] * defects:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed, "
                                f"expected only the {defects} recorded defect jobs per round")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != units[trace]:
                problems.append(f"{where}: metrics {sorted(printed.items())} differ from BENCHMARK.json")
            values = {name: m["value"] for name, m in result["metrics"].items()}
            if trace == 0:
                problems += [f"{where}: {n} is 0" for n, v in values.items() if v == 0]
            else:
                nonzero |= {n for n, v in values.items() if v != 0}
            if trace == 1:
                want = sum(j.facts["degrees"] for j in job_list if j.id.endswith("/group-michaelis"))
                got = values.get("turaev.family_equations.calls")
                if got != want:
                    problems.append(f"{where}: family_equations ran {got} times, expected {want}")
    problems += [f"per-layer metric {n} is 0 on every workload" for n in sorted(set(units[1]) - nonzero)]
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
