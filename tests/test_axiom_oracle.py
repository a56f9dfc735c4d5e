"""Axiom reports against the independent oracle, on every single-coefficient
tamper of the structure maps.

For each input, every entry of every structure matrix (zero or not) is
bumped by one in turn; the library's report, as (name, passed, witness) per
axiom, must equal ``oracle_axiom_check`` exactly, witness labels and values
included.
"""

from dataclasses import replace

import pytest

from hopflab.fields import FieldSpec
from hopflab.hopf import check_hopf
from hopflab.lie import (
    check_lie,
    check_lie_coalgebra,
    cocommutator_lie_coalgebra,
    commutator_lie,
)
from hopflab.linalg import Matrix
from hopflab.turaev import cyclic_group, symmetric_group
from hopflab.zoo import exterior_super, group_algebra, matrix_algebra, sweedler4, truncated_poly
from oracle import oracle_axiom_check

Q = FieldSpec.rationals()
F3 = FieldSpec.prime(3)

STRUCTURE_MAPS = ("mult", "comult", "unit", "counit", "antipode", "bracket", "cobracket")


def inputs():
    ext = exterior_super(2)
    return {
        "kZ3/Q": (group_algebra(cyclic_group(3), Q), check_hopf),
        "sweedler4/Q": (sweedler4(Q), check_hopf),
        "exterior_super(2)": (ext, check_hopf),
        "exterior_super(2) without parity": (replace(ext, parity=None), check_hopf),
        "truncated_poly(3)": (truncated_poly(3), check_hopf),
        "gl2/F3": (commutator_lie(matrix_algebra(2, F3)), check_lie),
        "cocommutator kS3/Q": (
            cocommutator_lie_coalgebra(group_algebra(symmetric_group(3), Q).coalgebra),
            check_lie_coalgebra,
        ),
    }


def _bumped(m: Matrix, r: int, c: int) -> Matrix:
    f = m.field
    data = [list(row) for row in m.data]
    data[r][c] = f.add(data[r][c], f.one)
    return Matrix(f, m.rows, m.cols, tuple(tuple(row) for row in data))


def tampers(obj):
    """(label, object) for the input itself and every single-entry bump."""
    yield "untampered", obj
    for attr in STRUCTURE_MAPS:
        m = getattr(obj, attr, None)
        if m is None:
            continue
        for r in range(m.rows):
            for c in range(m.cols):
                yield f"{attr}[{r},{c}]+1", replace(obj, **{attr: _bumped(m, r, c)})


def report_triples(rep):
    return [(c.name, c.passed, c.witness) for c in rep.checks]


@pytest.mark.parametrize("name", list(inputs()))
def test_report_equals_oracle_on_every_tamper(name):
    obj, checker = inputs()[name]
    mismatches, failing = [], 0
    for label, tampered in tampers(obj):
        got = report_triples(checker(tampered))
        want = oracle_axiom_check(tampered)
        failing += not all(passed for _, passed, _ in got)
        if got != want:
            mismatches.append((label, got, want))
    assert not mismatches, mismatches[:3]
    # the tampers exercise the failure path, not only the passing one
    assert failing > 0


def test_untampered_inputs_pass_except_the_unsigned_exterior_algebra():
    for name, (obj, checker) in inputs().items():
        failed = [c.name for c in checker(obj).failures]
        assert failed == (["compat.comult_mult"] if name.endswith("without parity") else []), name
