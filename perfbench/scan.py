"""Report-only scaling scan over the size ladder in ROADMAP.md.

    python3 perfbench/scan.py

Not a gated workload: each case runs once, in its own subprocess, which
builds the input with ``zoo``, times one in-process ``hopflab.cli.main``
call and checks its exit code.  A case that overruns ``TIMEOUT_S`` or its
``MEM_MB`` address-space cap is recorded as ``timeout`` or ``memory``, never dropped,
so sizes too slow for the workloads still get a line.  Results go to stdout
and to ``perfbench/_out/scan.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time

import run  # sets sys.path to the checkout's src/

TIMEOUT_S = 120
MEM_MB = 1024


def _cases():
    from hopflab import lie, zoo
    from hopflab.fields import FieldSpec
    from hopflab.turaev import cyclic_group, symmetric_group

    q, f2, f3, f5 = (FieldSpec.rationals(), FieldSpec.prime(2), FieldSpec.prime(3),
                     FieldSpec.prime(5))
    fields = (("q", q), ("f5", f5))
    cases = {}
    for n in range(6, 13):
        for tag, f in fields:
            cases[f"kz{n}_{tag}"] = (lambda n=n, f=f: zoo.group_algebra(cyclic_group(n), f), "check")
    cases["ks4_q"] = (lambda: zoo.group_algebra(symmetric_group(4), q), "check")
    for n in (2, 3):
        for tag, f in fields:
            cases[f"gl{n}_{tag}"] = (
                lambda n=n, f=f: lie.commutator_lie(zoo.matrix_algebra(n, f), validate=False), "check")
    for n in (2, 3, 4):
        cases[f"exterior{n}"] = (lambda n=n: zoo.exterior_super(n), "check")
    for name, group, f in (("z3_f3", cyclic_group(3), f3), ("z6_f3", cyclic_group(6), f3),
                           ("z12_f3", cyclic_group(12), f3), ("z16_f2", cyclic_group(16), f2),
                           ("s3_f3", symmetric_group(3), f3), ("s4_f2", symmetric_group(4), f2)):
        cases[f"diag_{name}"] = (lambda g=group, f=f: zoo.diagonal_group_algebra(g, f),
                                 "group-michaelis")
    return cases


def run_case(name: str) -> dict:
    """Child side: build the input, time one CLI call."""
    cap = MEM_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    from hopflab import cli, serialize

    build, command = _cases()[name]
    workdir = run.WORK / f"scan-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        path = workdir / f"{name}.json"
        serialize.save(build(), path)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, str(path)])
        except MemoryError:
            return {"status": "memory", "seconds": time.perf_counter() - start}
        return {
            "status": "ok" if code == 0 else f"exit {code}",
            "seconds": time.perf_counter() - start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--case", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:
        print(json.dumps(run_case(args.case)))
        return 0

    results = {}
    for name, (_, command) in _cases().items():
        cmd = [sys.executable, __file__, "--case", name]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else {
                "status": f"crashed (exit {done.returncode})", "stderr": done.stderr[-500:]}
        except subprocess.TimeoutExpired:
            result = {"status": "timeout", "seconds": TIMEOUT_S}
        result["command"] = command
        results[name] = result
        secs = result.get("seconds")
        print(f"{name:16s} {command:16s} {result['status']:10s} "
              + (f"{secs:9.3f} s" if secs is not None else "")
              + (f"  {result['peak_rss_mb']:.0f} MB" if "peak_rss_mb" in result else ""),
              flush=True)
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "scan.json").write_text(json.dumps(
        {"env": run.environment(), "timeout_s": TIMEOUT_S, "mem_mb": MEM_MB,
         "cases": results}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
