"""Record the golden outcome of every benchmark job at the default seed.

    python3 perfbench/record_golden.py

Runs each job of every workload once, refuses to record if any outcome
breaks the facts the mathematics fixes (exit code, verified flag,
dimensions), and writes ``perfbench/golden.json``.  Re-record only when a
change to hopflab's canonical output is intended.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # sets sys.path to the checkout's src/
import jobs


def main() -> int:
    golden, defects, broken = {}, {}, []
    for workload in jobs.WORKLOADS:
        workdir = run.WORK / f"golden-{workload}"
        try:
            _, job_list = run.setup(workload, jobs.DEFAULT_SEED, workdir, smoke=False)
            for job in sorted(job_list, key=lambda j: j.id):
                _, outcome = run.run_job(job)
                if jobs.is_known_defect(job, outcome):
                    defects[job.id] = f"raises {outcome.raised}; documented exit {job.exit}"
                    # The documented outcome, which the fixed program must
                    # match: like the other malformed inputs, an empty stdout.
                    golden[job.id] = jobs.DIGESTS[job.digest]("")
                    continue
                reason = jobs.fact_failure(job, outcome)
                if reason is not None:
                    broken.append(f"{job.id}: {reason}")
                    continue
                golden[job.id] = jobs.DIGESTS[job.digest](outcome.stdout)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if broken:
        print("\n".join(broken), file=sys.stderr)
        return 1
    path = run.HERE / "golden.json"
    path.write_text(
        json.dumps({"seed": jobs.DEFAULT_SEED, "jobs": golden, "known_defects": defects},
                   indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(golden)} golden outcomes and {len(defects)} known defects to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
