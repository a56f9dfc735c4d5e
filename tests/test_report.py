import json
import time
from dataclasses import replace

import pytest

from hopflab.fields import FieldSpec
from hopflab.hopf import check_algebra, check_hopf
from hopflab.lie import check_lie, commutator_lie
from hopflab.report import VerificationReport, matrix_axiom
from hopflab.turaev import (
    FiniteGroup,
    HopfGroupCoalgebra,
    check_group,
    check_hopf_group_algebra,
    check_hopf_group_coalgebra,
    cyclic_group,
    dagger,
    symmetric_group,
)
from hopflab.zoo import diagonal_group_algebra, group_algebra, matrix_algebra
from test_axiom_oracle import GRADED_INPUTS, _bumped, graded_tampers, inputs, tampers
from test_reduced_systems import GRADED, ZOO


def test_elapsed_covers_evaluating_both_sides():
    def slow_identity():
        time.sleep(0.02)
        return {(0, 0): 1, (1, 1): 1}

    rep = VerificationReport("demo")
    matrix_axiom(rep, "slow", slow_identity, slow_identity)
    assert rep.ok
    assert rep.checks[0].elapsed_s >= 0.04


def test_witness_is_first_difference_in_row_major_order():
    rep = VerificationReport("demo")
    lhs = {(0, 2): 1, (1, 0): 5, (1, 1): 3}
    rhs = {(0, 2): 1, (1, 1): 4, (2, 0): 7}
    matrix_axiom(rep, "sparse", lambda: lhs, lambda: rhs, str, lambda j: f"c{j}")
    assert rep.checks[0].witness == {"row": "1", "col": "c0", "lhs": "5", "rhs": "0"}


def test_transposed_witness_is_first_difference_of_the_transposes():
    # The sides differ at (0, 2), (1, 0) and (2, 1): at (2, 0), (0, 1) and
    # (1, 2) of the matrices the axiom is about, whose transposes they are.
    rep = VerificationReport("demo")
    lhs = {(0, 2): 1, (1, 0): 5, (1, 1): 3}
    rhs = {(1, 1): 3, (2, 1): 7}
    matrix_axiom(rep, "dual", lambda: lhs, lambda: rhs, str, lambda j: f"c{j}", transposed=True)
    assert rep.checks[0].witness == {"row": "0", "col": "c1", "lhs": "5", "rhs": "0"}


# -- json_text: the bytes of the indented dump ------------------------------------


def same_bytes(rep) -> bool:
    return rep.json_text() == json.dumps(rep.to_json(), indent=2, sort_keys=True)


def graded_check(h):
    return (check_hopf_group_coalgebra if isinstance(h, HopfGroupCoalgebra)
            else check_hopf_group_algebra)(h)


def test_json_text_of_every_zoo_input():
    reports = [check_hopf(h) for h in ZOO.values()]
    reports += [graded_check(h) for g in GRADED.values() for h in (g, dagger(g))]
    for f in (FieldSpec.rationals(), FieldSpec.prime(2), FieldSpec.prime(5)):
        reports += [check_algebra(matrix_algebra(2, f)), check_lie(commutator_lie(matrix_algebra(2, f)))]
    reports.append(check_group(symmetric_group(3)))
    assert all(map(same_bytes, reports))


@pytest.mark.parametrize("name", list(inputs()))
def test_json_text_of_every_tamper(name):
    obj, checker = inputs()[name]
    assert all(same_bytes(checker(t)) for _, t in tampers(obj))


@pytest.mark.parametrize("name", list(GRADED_INPUTS))
def test_json_text_of_every_graded_tamper(name):
    build, nonzero_stride, zero_stride = GRADED_INPUTS[name]
    for h in (build(), dagger(build(), validate=False)):
        assert all(same_bytes(graded_check(t)) for _, t in graded_tampers(h, nonzero_stride, zero_stride))


def test_json_text_of_diagonal_s4():
    h = diagonal_group_algebra(symmetric_group(4), FieldSpec.prime(2))
    for rep in (check_hopf_group_algebra(h), check_hopf_group_coalgebra(dagger(h))):
        assert len(rep.checks) == 15150 and same_bytes(rep)


def test_json_text_escapes_names_and_writes_empty_reports():
    names = ["e", "ĝ", 'g"2']
    table = cyclic_group(3).table
    graded = diagonal_group_algebra(FiniteGroup.from_table(table, names), FieldSpec.prime(3))
    h = replace(group_algebra(cyclic_group(3), FieldSpec.rationals()), basis_names=tuple(names))
    tampered = replace(h, mult=_bumped(h.mult, 1, 4))
    for rep in (graded_check(graded), check_hopf(tampered), VerificationReport("empty")):
        assert same_bytes(rep)
    assert not check_hopf(tampered).ok
