"""Workloads of the hopflab benchmark: input files, jobs and expected outcomes.

Every job is one ``hopflab`` command line run in-process through
``hopflab.cli.main``.  Its expected outcome has two parts:

* facts the mathematics fixes (exit code, verified flag, dimensions), which
  are checked at every workload seed;
* a golden digest of its canonical output, recorded in ``golden.json`` by
  ``record_golden.py``.  It is checked at every seed for jobs whose input
  does not depend on the seed, and at ``DEFAULT_SEED`` only for tampered
  inputs, whose perturbed coefficient the seed chooses.

The seed also fixes the order in which the jobs run.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from hopflab import lie, serialize, turaev, zoo
from hopflab.fields import FieldSpec
from hopflab.turaev import cyclic_group, symmetric_group

DEFAULT_SEED = 0
WORKLOADS = ("classical", "graded", "rejects")

# Exit codes of the hopflab CLI (README): verified, mathematical failure,
# malformed input.
OK, MATH_FAIL, INPUT_ERROR = 0, 1, 2

Q = FieldSpec.rationals()
F2, F3, F5 = FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5)


@dataclass(frozen=True)
class Job:
    """One CLI call and what it must produce."""

    id: str
    argv: Tuple[str, ...]
    exit: int
    digest: str  # how stdout is reduced for the golden compare, see DIGESTS
    facts: Dict = field(default_factory=dict)  # checked at every seed
    seeded: bool = False  # the input file depends on the workload seed
    smoke: bool = False  # part of the self-test's small run
    # Exception the current program raises instead of the documented outcome
    # (a recorded defect): the job still counts as failed, but not as wrong.
    defect: Optional[str] = None


# -- inputs ---------------------------------------------------------------------


def _hopf_objects():
    """Hopf objects of the classical workload: (name, constructor, dims of P and Q)."""
    return [
        ("kz6_q", lambda: zoo.group_algebra(cyclic_group(6), Q), (0, 0)),
        ("ks3_q", lambda: zoo.group_algebra(symmetric_group(3), Q), (0, 0)),
        ("sweedler4_q", lambda: zoo.sweedler4(Q), (0, 0)),
        ("exterior2", lambda: zoo.exterior_super(2), (2, 2)),
        ("exterior3", lambda: zoo.exterior_super(3), (3, 3)),
        ("kz5_f5", lambda: zoo.group_algebra(cyclic_group(5), F5), (1, 1)),
        ("kz8_f5", lambda: zoo.group_algebra(cyclic_group(8), F5), (0, 0)),
        ("trunc7", lambda: zoo.truncated_poly(7), (1, 1)),
        ("trunc11", lambda: zoo.truncated_poly(11), (1, 1)),
        ("fun_z3_f3", lambda: zoo.function_hopf(cyclic_group(3), F3), (0, 0)),
    ]


# Jobs under 0.1 s on the reference machine; the self-test runs only these
# and the dual job.
_SMOKE_OBJECTS = {"sweedler4_q", "exterior2", "kz5_f5", "trunc7", "fun_z3_f3"}

# One `dual` job, so that writing a result (serialize.dumps) is measured.  On
# kZ8/F5 it joins the kZ8 group of jobs in the middle of the latency order,
# which keeps the median inside that group.
_DUAL_OBJECT = "kz8_f5"


def _gl3_f5():
    return lie.commutator_lie(zoo.matrix_algebra(3, F5), validate=False)


def _cocomm_s3():
    return lie.cocommutator_lie_coalgebra(
        zoo.group_algebra(symmetric_group(3), Q), validate=False
    )


def _graded_families():
    """(name, constructor, |G|, degrees whose P_g and Q_g are one-dimensional).

    For the diagonal family of kG over F_p, Q_g is the line spanned by the
    image of g in G^ab (x) F_p, so the count is |G| minus the size of the
    kernel of G -> G^ab (x) F_p; over Q every degree is zero.
    """
    return [
        ("diag_z12_f3", lambda: zoo.diagonal_group_algebra(cyclic_group(12), F3), 12, 8),
        ("diag_z12_q", lambda: zoo.diagonal_group_algebra(cyclic_group(12), Q), 12, 0),
        ("diag_z16_f2", lambda: zoo.diagonal_group_algebra(cyclic_group(16), F2), 16, 8),
        ("diag_s4_f2", lambda: zoo.diagonal_group_algebra(symmetric_group(4), F2), 24, 12),
    ]


def _write(workdir: Path, name: str, data) -> str:
    path = workdir / f"{name}.json"
    text = data if isinstance(data, str) else serialize.canonical_dumps(data)
    path.write_text(text)
    return str(path)


def _bump_q(c: str) -> str:
    return str(Fraction(c) + 1)


def _tamper_entry(rng: random.Random, entries: list, bump) -> None:
    i = rng.randrange(len(entries))
    entries[i] = bump(entries[i])


def _tamper_triple(rng: random.Random, triples: list, bump) -> None:
    t = rng.choice(triples)
    t[3] = bump(t[3])


# -- workloads --------------------------------------------------------------------


def _classical(workdir: Path, rng: random.Random) -> List[Job]:
    jobs = []
    for name, build, (dim_p, dim_q) in _hopf_objects():
        path = _write(workdir, name, serialize.to_jsonable(build()))
        smoke = name in _SMOKE_OBJECTS
        jobs += [
            Job(f"{name}/check", ("check", path), OK, "text", smoke=smoke),
            Job(
                f"{name}/michaelis",
                ("michaelis", path, "--json"),
                OK,
                "json",
                {"verified": True, "dim_p": dim_p, "dim_q": dim_q},
                smoke=smoke,
            ),
            Job(
                f"{name}/integrals",
                ("integrals", path, "--json"),
                OK,
                "json",
                {"dim": 1},
                smoke=smoke,
            ),
        ]
        if name == _DUAL_OBJECT:
            jobs.append(Job(f"{name}/dual", ("dual", path), OK, "text", smoke=True))
    for name, build in (("gl3_f5", _gl3_f5), ("cocomm_s3_q", _cocomm_s3)):
        path = _write(workdir, name, serialize.to_jsonable(build()))
        jobs.append(Job(f"{name}/check", ("check", path), OK, "text"))
    return jobs


def _graded(workdir: Path, rng: random.Random) -> List[Job]:
    jobs = []
    for name, build, order, one_dim in _graded_families():
        path = _write(workdir, name, serialize.to_jsonable(build()))
        smoke = name == "diag_z12_f3"
        jobs += [
            Job(
                f"{name}/group-michaelis",
                ("group-michaelis", path, "--json"),
                OK,
                "json",
                {"verified": True, "degrees": order, "one_dim_degrees": one_dim},
                smoke=smoke,
            ),
            Job(
                f"{name}/michtur1",
                ("michtur1", path, "--json"),
                OK,
                "json",
                {"verified": True},
                smoke=smoke,
            ),
        ]
        # `dagger`, the first step of the graded flow, once.  An odd number of
        # jobs per round puts the median on the middle copies of one job
        # instead of the extreme copies of two, which machine noise moves most.
        if name == "diag_z12_f3":
            jobs.append(Job(f"{name}/dagger", ("dagger", path), OK, "text", smoke=True))
    return jobs


def _rejects(workdir: Path, rng: random.Random) -> List[Job]:
    kz6 = serialize.to_jsonable(zoo.group_algebra(cyclic_group(6), Q))
    sw4 = serialize.to_jsonable(zoo.sweedler4(Q))
    kz8 = serialize.to_jsonable(zoo.group_algebra(cyclic_group(8), F5))
    gl3 = serialize.to_jsonable(_gl3_f5())
    ext3 = serialize.to_jsonable(zoo.exterior_super(3))
    kz5 = serialize.to_jsonable(zoo.group_algebra(cyclic_group(5), F5))
    valid_paths = [
        _write(workdir, "kz6_q", kz6),
        _write(workdir, "sweedler4_q", sw4),
        _write(workdir, "trunc7", serialize.to_jsonable(zoo.truncated_poly(7))),
    ]

    # Seeded tampers: one coefficient each, chosen by the workload seed.
    t_kz6 = copy.deepcopy(kz6)
    _tamper_entry(rng, t_kz6["antipode"]["entries"], _bump_q)
    t_sw4 = copy.deepcopy(sw4)
    _tamper_triple(rng, t_sw4["mult"], _bump_q)
    t_kz8 = copy.deepcopy(kz8)
    _tamper_triple(rng, t_kz8["comult"], lambda c: (c + 1) % 5)
    t_gl3 = copy.deepcopy(gl3)
    _tamper_triple(rng, t_gl3["bracket"], lambda c: (c + 1) % 5)
    t_ext3 = copy.deepcopy(ext3)
    del t_ext3["parity"]
    t_dz12 = serialize.to_jsonable(turaev.dagger(zoo.diagonal_group_algebra(cyclic_group(12), F3)))
    pair = rng.choice(sorted(t_dz12["graded_comult"]))
    _tamper_triple(rng, t_dz12["graded_comult"][pair], lambda c: (c + 1) % 3)
    tampered = {
        "kz6_q_antipode": t_kz6,
        "sweedler4_q_mult": t_sw4,
        "kz8_f5_comult": t_kz8,
        "gl3_f5_bracket": t_gl3,
        "exterior3_no_parity": t_ext3,
        "dagger_diag_z12_f3_comult": t_dz12,
    }

    # Malformed inputs: the loader must refuse each with exit code 2.
    truncated = serialize.canonical_dumps(kz6)
    field_mismatch = copy.deepcopy(kz5)
    field_mismatch["unit"][0] = "1/2"  # a rational scalar in an F_5 file
    shape_mismatch = copy.deepcopy(kz6)
    shape_mismatch["antipode"] = {"rows": 5, "cols": 5, "entries": ["1"] * 25}
    triple_oob = copy.deepcopy(kz6)
    triple_oob["mult"].append([0, 0, kz6["dim"], "1"])
    group_oob = serialize.to_jsonable(cyclic_group(4))
    group_oob["table"][1][2] = 4
    malformed = {
        "truncated": truncated[: len(truncated) // 2],
        "wrong_kind": dict(sw4, kind="hopf-algebra"),
        "field_mismatch": field_mismatch,
        "shape_mismatch": shape_mismatch,
    }
    # Documented as exit 2; the loader and check_group index without a range
    # check, so both raise IndexError out of cli.main today.
    out_of_range = {"triple_index": triple_oob, "group_table": group_oob}

    tampered = {name: _write(workdir, f"tampered_{name}", d) for name, d in tampered.items()}
    malformed = {name: _write(workdir, f"malformed_{name}", d) for name, d in malformed.items()}
    out_of_range = {name: _write(workdir, f"malformed_{name}", d) for name, d in out_of_range.items()}

    jobs = []
    for name, path in tampered.items():
        jobs.append(
            Job(
                f"tampered/{name}/check",
                ("check", path, "--json"),
                MATH_FAIL,
                "check",
                {"ok": False},
                seeded=name != "exterior3_no_parity",
                smoke=name in ("sweedler4_q_mult", "exterior3_no_parity", "dagger_diag_z12_f3_comult"),
            )
        )
    jobs.append(
        Job("tampered/kz6_q_antipode/michaelis", ("michaelis", tampered["kz6_q_antipode"]),
            MATH_FAIL, "text", seeded=True)
    )
    jobs.append(
        Job("tampered/sweedler4_q_mult/dual", ("dual", tampered["sweedler4_q_mult"]),
            MATH_FAIL, "text", seeded=True, smoke=True)
    )
    for name, path in malformed.items():
        jobs.append(Job(f"malformed/{name}/check", ("check", path), INPUT_ERROR, "text", smoke=True))
    for name, path in out_of_range.items():
        jobs.append(
            Job(f"malformed/{name}/check", ("check", path), INPUT_ERROR, "text",
                smoke=True, defect="IndexError")
        )
    suite = valid_paths + [tampered["kz8_f5_comult"], tampered["sweedler4_q_mult"]]
    jobs.append(
        Job("suite/verify-suite", ("verify-suite", *suite), MATH_FAIL, "suite",
            {"statuses": ["ok", "ok", "ok", "AXIOM FAILURE", "AXIOM FAILURE"]},
            seeded=True)
    )
    return jobs


_MAKERS = {"classical": _classical, "graded": _graded, "rejects": _rejects}


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> List[Job]:
    """Write the workload's input files into ``workdir`` and return its jobs,
    in the order the seed gives them."""
    rng = random.Random(seed)
    jobs = _MAKERS[workload](workdir, rng)
    if smoke:
        jobs = [j for j in jobs if j.smoke]
    rng.shuffle(jobs)
    return jobs


# -- outcomes ---------------------------------------------------------------------


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest_json(stdout: str):
    return _sha256(serialize.canonical_dumps(json.loads(stdout)))


def _digest_check(stdout: str):
    """The (name, passed, witness) list without timings: its hash, and the
    failing entries in full so that a changed witness reads plainly."""
    rep = json.loads(stdout)
    checks = [[c["name"], c["passed"], c.get("witness")] for c in rep["checks"]]
    return {
        "object_kind": rep["object_kind"],
        "ok": rep["ok"],
        "failed": [[name, witness] for name, passed, witness in checks if not passed],
        "sha256": _sha256(json.dumps(checks, sort_keys=True)),
    }


def _digest_suite(stdout: str):
    out = []
    for line in stdout.splitlines():
        path, status = line.split(": ", 1)
        out.append([Path(path).name, status])
    return out


DIGESTS = {
    "text": _sha256,
    "json": _digest_json,
    "check": _digest_check,
    "suite": _digest_suite,
}


def _facts_hold(job: Job, stdout: str) -> Optional[str]:
    """Check the seed-independent facts; return a reason when one fails."""
    facts = job.facts
    if not facts:
        return None
    if job.digest == "suite":
        statuses = [line.split(": ", 1)[1] for line in stdout.splitlines()]
        return None if statuses == facts["statuses"] else f"statuses {statuses}"
    data = json.loads(stdout)
    for key in ("verified", "ok", "dim", "dim_p", "dim_q"):
        if key in facts and data.get(key) != facts[key]:
            return f"{key} = {data.get(key)!r}, expected {facts[key]!r}"
    if "degrees" in facts:
        dims = [(d["dim_p"], d["dim_q"]) for d in data["degrees"]]
        ones = sum(1 for d in dims if d == (1, 1))
        if (len(dims) != facts["degrees"] or ones != facts["one_dim_degrees"]
                or any(d not in ((0, 0), (1, 1)) for d in dims)):
            return f"per-degree dims {dims}"
    if job.digest == "check" and not facts.get("ok", True):
        if not any(not c["passed"] and c.get("witness") for c in data["checks"]):
            return "no failing axiom carries a witness"
    return None


@dataclass
class Outcome:
    exit: Optional[int]
    stdout: str
    raised: Optional[str] = None  # exception type name, if cli.main raised


def fact_failure(job: Job, outcome: Outcome) -> Optional[str]:
    """Check the exit code and the seed-independent facts; None if they hold."""
    if outcome.raised is not None:
        return f"raised {outcome.raised}"
    if outcome.exit != job.exit:
        return f"exit {outcome.exit}, expected {job.exit}"
    try:
        return _facts_hold(job, outcome.stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def verdict(job: Job, outcome: Outcome, golden: Dict, seed: int) -> Optional[str]:
    """None when the outcome is the expected one, else the reason it is not."""
    reason = fact_failure(job, outcome)
    if reason is None and (not job.seeded or seed == DEFAULT_SEED):
        try:
            got = DIGESTS[job.digest](outcome.stdout)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        if got != golden.get(job.id):
            reason = f"output digest {got!r} differs from golden {golden.get(job.id)!r}"
    return reason


def is_known_defect(job: Job, outcome: Outcome) -> bool:
    return job.defect is not None and outcome.raised == job.defect


def load_golden() -> Dict:
    return json.loads((Path(__file__).parent / "golden.json").read_text())["jobs"]
