"""Axiom verification reports.

Every ``check_*`` entry point returns a :class:`VerificationReport` listing
each axiom separately with pass/fail, a witness on failure, and the time the
check took.  A single boolean would hide which diagram failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: Optional[dict] = None
    elapsed_s: float = 0.0

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "elapsed_s": self.elapsed_s}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class VerificationReport:
    object_kind: str
    checks: List[AxiomCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> List[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def add(self, check: AxiomCheck) -> None:
        self.checks.append(check)

    def merge(self, other: "VerificationReport", prefix: str = "") -> None:
        for c in other.checks:
            name = f"{prefix}{c.name}" if prefix else c.name
            self.checks.append(AxiomCheck(name, c.passed, c.witness, c.elapsed_s))

    def to_json(self) -> dict:
        return {
            "object_kind": self.object_kind,
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }

    def __str__(self) -> str:
        lines = [f"{self.object_kind}: {'all axioms pass' if self.ok else 'AXIOM FAILURE'}"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}")
            if c.witness is not None:
                lines.append(f"         witness: {c.witness}")
        return "\n".join(lines)


def matrix_axiom(
    report: VerificationReport,
    name: str,
    lhs: Callable[[], dict],
    rhs: Callable[[], dict],
    row_label: Optional[Callable[[int], object]] = None,
    col_label: Optional[Callable[[int], object]] = None,
    transposed: bool = False,
) -> None:
    """Record whether two matrices agree entrywise, with a decoded witness if not.

    ``lhs`` and ``rhs`` take no arguments and return the entries of a matrix
    as a dict keyed by ``(row, col)``, an absent entry being zero; the
    recorded time covers evaluating both and comparing them.  The witness is
    the first differing entry in row-major order.  With ``transposed`` the
    sides are the transposes of the matrices the axiom is about (a dual axiom
    evaluated on transposed maps), and the witness, its order, positions and
    labels refer to those matrices.
    """
    orient = (lambda pair: pair[::-1]) if transposed else (lambda pair: pair)
    start = time.perf_counter()
    left, right = lhs(), rhs()
    witness = None
    if left != right:
        diff = [orient(k) for k in left.keys() | right.keys() if left.get(k, 0) != right.get(k, 0)]
        if diff:
            i, j = min(diff)
            witness = {
                "row": row_label(i) if row_label else i,
                "col": col_label(j) if col_label else j,
                "lhs": str(left.get(orient((i, j)), 0)),
                "rhs": str(right.get(orient((i, j)), 0)),
            }
    report.add(AxiomCheck(name, witness is None, witness, time.perf_counter() - start))
