"""hopflab benchmark: closed-loop certification workloads.

One client in one process calls ``hopflab.cli.main(argv)`` on canonical JSON
files, sending the next job only when the previous one has returned.  Jobs
run in whole rounds (every job of the workload once, in the order the seed
gives), so each run measures the same mix; rounds repeat until ``--seconds``
have passed and at least ``MIN_ROUNDS`` rounds have run.  Every job's outcome
is checked against ``jobs.verdict`` before its latency counts; a run with an
outcome the gate does not expect exits with status 1.

    python3 perfbench/run.py --workload classical --seed 1 --seconds 32 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a warm-up
round, one round untraced, one with spans and one with scalar call counters,
and prints the per-layer metrics.  The last line of stdout is the result JSON; the lines
before it are a readable summary and the environment block.  Spans and
results are also written under ``perfbench/_out``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"
sys.path[:0] = [str(SRC), str(HERE)]

# Whole rounds a run makes at least, so that each job has repeats to take the
# median of.  The tail is reported at the highest percentile that leaves
# ten samples beyond it after this many rounds, so every run of a workload
# reports the same percentile however many rounds it fits.
MIN_ROUNDS = {"classical": 3, "graded": 4, "rejects": 3}
JOB_TIMEOUT_S = 60
# Set-ups measured per run: one in the run's own process, the others in fresh
# processes between rounds, so that they sample the same stretch of time as
# the jobs do.
SETUP_SAMPLES = 7

perf = time.perf_counter


class JobTimeout(BaseException):
    """Raised in the job's thread when it overruns JOB_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def setup(workload: str, seed: int, workdir: Path, smoke: bool):
    """Import hopflab and write the workload's inputs; return (seconds, jobs)."""
    start = perf()
    import hopflab
    import jobs

    if Path(hopflab.__file__).resolve().parent != SRC / "hopflab":
        raise SystemExit(f"hopflab imported from {hopflab.__file__}, not from {SRC}")
    workdir.mkdir(parents=True, exist_ok=True)
    job_list = jobs.build(workload, seed, workdir, smoke)
    return perf() - start, job_list


def setup_probe(args) -> float:
    """Set-up time of a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_job(job):
    """Run one job in-process; return (latency, Outcome)."""
    from hopflab import cli
    from jobs import Outcome

    out = io.StringIO()
    # Each job starts from a collected heap, as a fresh CLI process would, so
    # the collector's work inside a job does not depend on the job order.
    gc.collect()
    start = perf()
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(job.argv))
        outcome = Outcome(code, out.getvalue())
    except JobTimeout:
        outcome = Outcome(None, out.getvalue(), "timeout")
    except Exception as exc:  # a crash is a job outcome, recorded and checked
        outcome = Outcome(None, out.getvalue(), type(exc).__name__)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return perf() - start, outcome


class Tally:
    """Latencies and outcome checks of the jobs run so far."""

    def __init__(self, golden, seed):
        self.golden, self.seed = golden, seed
        # job id -> latencies of its runs that passed the gate or hit a
        # recorded defect
        self.latencies = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # failures that are not a recorded defect

    def record(self, job, latency, outcome) -> None:
        from jobs import is_known_defect, verdict

        reason = verdict(job, outcome, self.golden, self.seed)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if not is_known_defect(job, outcome):
                self.wrong.append(f"{job.id}: {reason}")
                return
        self.latencies.setdefault(job.id, []).append(latency)


def run_round(jobs, tally, tracer=None) -> float:
    """Run every job once; return the round's wall time."""
    start = perf()
    for job in jobs:
        if tracer is None:
            latency, outcome = run_job(job)
        else:
            with tracer.job(job.id):
                latency, outcome = run_job(job)
        tally.record(job, latency, outcome)
    return perf() - start


def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued
    fraction (Numerical Recipes, betacf)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    return math.exp(log_front) * f / a


def quantile(values, p):
    """Harrell-Davis estimate of the ``p``-quantile: the mean of the sorted
    values weighted by a Beta(p(n+1), (1-p)(n+1)) distribution.

    A job's repeats scatter with the host's speed, and the per-job latencies
    fall in clusters, so a single order statistic jumps with machine noise;
    weighting every value near the quantile keeps the estimate steady
    between runs."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src_files = sorted(SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("classical", "graded", "rejects"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="only the jobs marked smoke in jobs.py (the self-test's size)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = WORK / str(os.getpid())
    try:
        own_setup, job_list = setup(args.workload, args.seed, workdir, args.smoke)
        if args.setup_probe:
            print(own_setup)
            return 0
        return measure(args, own_setup, job_list)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, own_setup, job_list) -> int:
    import jobs
    import spans

    signal.signal(signal.SIGALRM, _on_alarm)
    golden = jobs.load_golden()
    tally = Tally(golden, args.seed)
    # At least eleven samples, so that ten can lie beyond the tail (smoke runs).
    min_rounds = max(MIN_ROUNDS[args.workload], math.ceil(11 / len(job_list)))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")

    if args.trace == 0:
        walls, peaks, setups = [], [], [own_setup]
        start = perf()
        while len(walls) < min_rounds or perf() - start < args.seconds:
            walls.append(run_round(job_list, tally))
            peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            if len(setups) < SETUP_SAMPLES:
                setups.append(setup_probe(args))
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_probe(args))
        # Each job's latency in the run is the median of its repeats.  On a
        # shared host the speed swings both ways, up to 1.7 times faster in
        # bursts of seconds when the core is uncontended and up to 1.5 times
        # slower for minutes, and the share of each changes from run to run;
        # a job's median is the speed most of its repeats saw.
        per_job = [quantile(v, 0.5) for v in tally.latencies.values()]
        # The highest percentile with ten samples beyond it at the run's
        # minimum sample count, so that every run reports the same percentile.
        min_samples = min_rounds * len(job_list)
        tail_p = (min_samples - 10) / min_samples
        metrics = {
            # Jobs that passed the gate per round, over the time a round takes
            # at the per-job latencies.
            "jobs_per_s": ((tally.attempted - tally.failed) / len(walls) / sum(per_job), "1/s"),
            "job_p50_s": (quantile(per_job, 0.5), "s"),
            "job_tail_s": (quantile(per_job, tail_p), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        summary = {"tail_percentile": 100 * tail_p,
                   "samples": sum(len(v) for v in tally.latencies.values()),
                   "jobs_per_s_wall": (tally.attempted - tally.failed) / sum(walls),
                   "round_s": walls, "round_peak_rss_mb": peaks, "setup_s": setups}
    else:
        # A warm-up round first, so that the untraced round it is compared
        # with does not carry first-call costs.
        run_round(job_list, tally)
        plain_wall = run_round(job_list, tally)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_wall = run_round(job_list, tally, tracer=tracer)
        finally:
            tracer.uninstall()
        counters = spans.FieldCounters()
        counters.install()
        try:
            run_round(job_list, tally)
        finally:
            counters.uninstall()
        tracer.write(OUT / f"spans-{stem}.jsonl.gz")
        values = {**tracer.metrics(), **counters.metrics(), spans.OVERHEAD: traced_wall / plain_wall}
        metrics = {name: (values.get(name, 0), unit) for name, unit in spans.per_layer_units().items()}
        summary = {"untraced_round_s": plain_wall, "traced_round_s": traced_wall,
                   "spans": len(tracer.spans)}
    summary["fail_frac"] = tally.failed / tally.attempted

    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    env = environment()
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "summary": summary, "job_latencies_s": tally.latencies, **result},
                   indent=2) + "\n"
    )
    for reason in tally.wrong[:20]:
        print(f"WRONG {reason}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"  attempted = {result['attempted']}, failed = {result['failed']}")
    for key, value in summary.items():
        shown = [round(v, 3) for v in value] if isinstance(value, list) else f"{value:.6g}"
        print(f"  {key} = {shown}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    # A wrong outcome makes the run fail: its timings are not of the program
    # the golden outcomes describe.
    return 1 if tally.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
