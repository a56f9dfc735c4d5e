"""Axiom verification reports.

Every ``check_*`` entry point returns a :class:`VerificationReport` listing
each axiom separately with pass/fail, a witness on failure, and the time the
check took.  A single boolean would hide which diagram failed.

A graded check has one row per axiom and block of degrees, tens of thousands
over a group of order 24, nearly all passing.  Each family of graded axioms
is one :class:`AxiomFamily`, which holds only the rows of the blocks where
the sides differ.  ``ok`` and ``failures`` read those; ``checks``,
``to_json``, ``__str__`` and ``merge`` expand every row, in order.
``json_text`` writes ``to_json`` as indented JSON, with the passing rows of a
family filled into a template rather than built.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union


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


def _label(block: Tuple[str, ...]) -> str:
    return f"[{','.join(block)}]" if block else ""


# A row of ``json.dumps(report.to_json(), indent=2, sort_keys=True)``: the
# text before and after its name, for a row with no witness.
_ROW_HEAD = '    {\n      "elapsed_s": %r,\n      "name": "'
_ROW_TAIL = {True: '",\n      "passed": true\n    }', False: '",\n      "passed": false\n    }'}


def _escaped(text: str) -> str:
    """``text`` as the inside of a JSON string literal."""
    return json.dumps(text)[1:-1]


def _row_json(c: AxiomCheck) -> str:
    """The row ``c`` as ``json.dumps`` writes it, indented, inside a report."""
    if c.witness is None:
        return _ROW_HEAD % c.elapsed_s + _escaped(c.name) + _ROW_TAIL[c.passed]
    return "    " + json.dumps(c.to_json(), indent=2, sort_keys=True).replace("\n", "\n    ")


class AxiomFamily:
    """The rows of graded axioms ``names`` over every block of ``arity``
    degrees, a block being a tuple of indices into ``elements``.

    Row ``name[g,h,...]`` comes for each block in lexicographic order, and
    within a block for each name in order.  ``differing`` maps the position
    of a row to the row recorded where the axiom's sides differ; every other
    row passes and is built only when the rows are read.  The first row
    carries ``elapsed_s``, the time the family's evaluation took.
    """

    # A plain class: defining a dataclass costs about 0.3 ms at import.
    def __init__(self, names: Tuple[str, ...], arity: int, elements: Tuple[str, ...],
                 elapsed_s: float) -> None:
        self.names, self.arity, self.elements, self.elapsed_s = names, arity, elements, elapsed_s
        self.differing: Dict[int, AxiomCheck] = {}

    def record(self, block: Tuple[int, ...], i: int, lhs: Callable[[], dict],
               rhs: Callable[[], dict], transposed: bool = False) -> None:
        """The row of axiom ``i`` on ``block`` through :func:`matrix_axiom`."""
        one = VerificationReport("block")
        name = self.names[i] + _label(tuple(self.elements[g] for g in block))
        matrix_axiom(one, name, lhs, rhs, transposed=transposed)
        row = one.checks[0]
        index = functools.reduce(lambda acc, g: acc * len(self.elements) + g, block, 0)
        pos = index * len(self.names) + i  # the row's place in ``rows()``
        self.differing[pos] = replace(row, elapsed_s=row.elapsed_s + self.elapsed_s) if pos == 0 else row

    def recorded(self) -> List[AxiomCheck]:
        """The rows recorded through ``record``, in row order."""
        return [self.differing[pos] for pos in sorted(self.differing)]

    def rows_json(self) -> Iterator[str]:
        """The text of ``rows()`` as :func:`_row_json` writes each row; a
        passing row is filled into a template and never built."""
        names = [_escaped(name) for name in self.names]
        blocks = itertools.product([_escaped(g) for g in self.elements], repeat=self.arity)
        zero, tail = _ROW_HEAD % 0.0, _ROW_TAIL[True]
        pos = 0
        for block in blocks:
            label = _label(block)
            for name in names:
                row = self.differing.get(pos)
                if row is not None:
                    yield _row_json(row)
                else:
                    yield (_ROW_HEAD % self.elapsed_s if pos == 0 else zero) + name + label + tail
                pos += 1

    def rows(self) -> List[AxiomCheck]:
        out = [AxiomCheck(name + _label(block), True)
               for block in itertools.product(self.elements, repeat=self.arity) for name in self.names]
        out[0] = replace(out[0], elapsed_s=self.elapsed_s)
        for pos, row in self.differing.items():
            out[pos] = row
        return out


@dataclass
class VerificationReport:
    object_kind: str
    parts: List[Union[AxiomCheck, AxiomFamily]] = field(default_factory=list)

    def _rows(self, expand) -> Iterator[AxiomCheck]:
        for part in self.parts:
            yield from expand(part) if isinstance(part, AxiomFamily) else (part,)

    @property
    def checks(self) -> List[AxiomCheck]:
        return list(self._rows(AxiomFamily.rows))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self._rows(AxiomFamily.recorded))

    @property
    def failures(self) -> List[AxiomCheck]:
        return [c for c in self._rows(AxiomFamily.recorded) if not c.passed]

    def add(self, part: Union[AxiomCheck, AxiomFamily]) -> None:
        self.parts.append(part)

    def merge(self, other: "VerificationReport", prefix: str = "") -> None:
        for c in other.checks:
            name = f"{prefix}{c.name}" if prefix else c.name
            self.parts.append(AxiomCheck(name, c.passed, c.witness, c.elapsed_s))

    def to_json(self) -> dict:
        return {
            "object_kind": self.object_kind,
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }

    def json_text(self) -> str:
        """``json.dumps(self.to_json(), indent=2, sort_keys=True)``, written one
        row at a time (the C encoder does not indent)."""
        rows = ",\n".join(itertools.chain.from_iterable(
            part.rows_json() if isinstance(part, AxiomFamily) else (_row_json(part),)
            for part in self.parts))
        checks = f"[\n{rows}\n  ]" if rows else "[]"
        return (f'{{\n  "checks": {checks},\n  "object_kind": {json.dumps(self.object_kind)},'
                f'\n  "ok": {json.dumps(self.ok)}\n}}')

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
