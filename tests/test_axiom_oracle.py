"""Axiom reports against the independent oracle, on every single-coefficient
tamper of the structure maps.

For each input, every entry of every structure matrix (zero or not) is
bumped by one in turn; the library's report, as (name, passed, witness) per
axiom, must equal ``oracle_axiom_check`` exactly, witness labels and values
included.  Hopf group-algebras and group-coalgebras are compared with
``oracle_graded_axiom_check`` in the same way, on a sample of the entries of
the larger inputs; there the verdict (``ok`` and the names of the failures),
read before the rows, must also agree with the oracle, and reading the rows
twice must give the same rows.
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
from hopflab.turaev import (
    HopfGroupCoalgebra,
    check_hopf_group_algebra,
    check_hopf_group_coalgebra,
    cyclic_group,
    dagger,
    hopf_as_group_coalgebra,
    symmetric_group,
)
from hopflab.zoo import (
    diagonal_group_algebra,
    exterior_super,
    group_algebra,
    matrix_algebra,
    sweedler4,
    truncated_poly,
)
from oracle import oracle_axiom_check, oracle_graded_axiom_check
from test_turaev import concentrated_family, quotient_family, truncated_family

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
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
    return Matrix.from_rows(f, data)


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


# -- graded forms ------------------------------------------------------------


# name -> (builder, nonzero stride, zero stride).  A graded check of a
# multi-dimensional input costs tens of milliseconds, so the sweep samples
# those inputs: every stride-th nonzero and zero entry in enumeration order.
# Full sweeps of all twelve forms take about 10 s; strides of 1 give them.
GRADED_INPUTS = {
    "dagger(diag Z3/F3)": (lambda: dagger(diagonal_group_algebra(cyclic_group(3), F3)), 1, 1),
    "dagger(diag S3/F2)": (lambda: dagger(diagonal_group_algebra(symmetric_group(3), F2)), 3, 1),
    "sweedler4/Q over the trivial group": (lambda: hopf_as_group_coalgebra(sweedler4(Q)), 3, 24),
    "truncated_poly(3) over Z3": (truncated_family, 3, 20),
    "truncated_poly(3) in degree e of Z2": (concentrated_family, 1, 1),
    "kZ6/F3 graded by Z3": (quotient_family, 1, 1),
}


def _graded_maps(h):
    """(path, matrix) for every structure matrix of a graded form; a path is
    the chain of attribute names and tuple indices that reaches it."""
    point = "counit" if isinstance(h, HopfGroupCoalgebra) else "unit"
    graded = "graded_comult" if isinstance(h, HopfGroupCoalgebra) else "graded_mult"
    parts = ("mult", "unit") if isinstance(h, HopfGroupCoalgebra) else ("comult", "counit")
    for g, c in enumerate(h.components):
        for attr in parts:
            yield ("components", g, attr), getattr(c, attr)
    for g, row in enumerate(getattr(h, graded)):
        for k, m in enumerate(row):
            yield (graded, g, k), m
    yield (point,), getattr(h, point)
    for g, s in enumerate(h.antipodes):
        yield ("antipodes", g), s


def _with(obj, path, value):
    """``obj`` with the matrix at ``path`` replaced by ``value``."""
    head, rest = path[0], path[1:]
    if isinstance(obj, tuple):
        return obj[:head] + (_with(obj[head], rest, value) if rest else value,) + obj[head + 1:]
    return replace(obj, **{head: _with(getattr(obj, head), rest, value) if rest else value})


def graded_tampers(h, nonzero_stride, zero_stride):
    """(label, object) for the input and single-entry bumps: every
    ``nonzero_stride``-th nonzero entry and every ``zero_stride``-th zero
    entry, counted in enumeration order."""
    yield "untampered", h
    seen = {True: 0, False: 0}
    for path, m in _graded_maps(h):
        for r in range(m.rows):
            for c in range(m.cols):
                zero = m.data[r][c] == 0
                seen[zero] += 1
                if (seen[zero] - 1) % (zero_stride if zero else nonzero_stride) == 0:
                    yield f"{path}[{r},{c}]+1", _with(h, path, _bumped(m, r, c))


@pytest.mark.parametrize("form", ["given", "dagger"])
@pytest.mark.parametrize("name", list(GRADED_INPUTS))
def test_graded_report_equals_oracle_on_tampers(name, form):
    build, nonzero_stride, zero_stride = GRADED_INPUTS[name]
    h = build() if form == "given" else dagger(build(), validate=False)
    checker = check_hopf_group_coalgebra if isinstance(h, HopfGroupCoalgebra) else check_hopf_group_algebra
    assert checker(h).ok
    mismatches, failing = [], 0
    for label, tampered in graded_tampers(h, nonzero_stride, zero_stride):
        rep = checker(tampered)
        # The verdict is read first, before any row is built.
        verdict = rep.ok, [c.name for c in rep.failures]
        rows = rep.checks
        got = report_triples(rep)
        want = oracle_graded_axiom_check(tampered)
        failing += not all(passed for _, passed, _ in got)
        want_verdict = (all(passed for _, passed, _ in want),
                        [name for name, passed, _ in want if not passed])
        if got != want or verdict != want_verdict or rep.checks != rows:
            mismatches.append((label, verdict, got, want))
    assert not mismatches, mismatches[:3]
    assert failing > 0
