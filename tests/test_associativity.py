"""Associativity certified from a generating set (Light's test).

``sparse.Kernel.associativity`` compares only the columns (i, s, l) with s in
``Kernel.generators``; on a failure it evaluates the whole of both sides.
Here its verdict and witness are compared, on every single-entry tamper of
the multiplication and the comultiplication, with a walk over all n^3
columns, and the generator search is checked against a dense span.
"""

from dataclasses import replace

import pytest

from hopflab import sparse
from hopflab.fields import FieldSpec
from hopflab.hopf import check_algebra, check_coalgebra, tensor_label
from hopflab.linalg import Subspace
from hopflab.report import VerificationReport, matrix_axiom
from hopflab.turaev import cyclic_group, symmetric_group
from hopflab.zoo import exterior_super, function_hopf, group_algebra, sweedler4, truncated_poly
from test_axiom_oracle import _bumped

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)

SWEEP_INPUTS = {
    "sweedler4/Q": lambda: sweedler4(Q),
    "kS3/F3": lambda: group_algebra(symmetric_group(3), F3),
    "kZ4/Q": lambda: group_algebra(cyclic_group(4), Q),
    "truncated_poly(5)": lambda: truncated_poly(5),
    "exterior_super(3)": lambda: exterior_super(3),
}


def full_walk(part, cols, dual: bool):
    """The (co)associativity row of ``part`` with ``cols`` the columns of its
    (transposed) multiplication, from all n^3 columns of both sides."""
    n, k = part.dim, sparse.Kernel(part.field, part.dim)
    cubes = range(n ** 3)
    left = {(r, c): v for c in cubes for r, v in k.product(cols, cols[c // n], {c % n: 1}).items()}
    right = {(r, c): v for c in cubes
             for r, v in k.product(cols, {c // (n * n): 1}, cols[c % (n * n)]).items()}
    lab1, lab3 = tensor_label(part.basis_names, 1), tensor_label(part.basis_names, 3)
    rep = VerificationReport("full walk")
    matrix_axiom(rep, "coassociativity" if dual else "associativity", lambda: left,
                 lambda: right, *((lab3, lab1) if dual else (lab1, lab3)), transposed=dual)
    return rep.checks[0]


def row(check):
    return check.name, check.passed, check.witness


def tampered_parts(h):
    """(label, part, columns of its multiplication, dual) for the algebra and the
    coalgebra of ``h`` and every single-entry +1 bump of ``mult`` and ``comult``."""
    a, c = h.algebra, h.coalgebra
    yield "algebra", a, a.mult.columns, False
    yield "coalgebra", c, c.comult.transpose().columns, True
    for r in range(a.mult.rows):
        for col in range(a.mult.cols):
            t = replace(a, mult=_bumped(a.mult, r, col))
            yield f"mult[{r},{col}]+1", t, t.mult.columns, False
    for r in range(c.comult.rows):
        for col in range(c.comult.cols):
            t = replace(c, comult=_bumped(c.comult, r, col))
            yield f"comult[{r},{col}]+1", t, t.comult.transpose().columns, True


@pytest.mark.parametrize("name", list(SWEEP_INPUTS))
def test_light_verdict_equals_the_full_walk_on_every_tamper(name):
    mismatches, outcomes = [], set()
    for label, part, cols, dual in tampered_parts(SWEEP_INPUTS[name]()):
        got = (check_coalgebra if dual else check_algebra)(part).checks[0]
        want = full_walk(part, cols, dual)
        outcomes.add(got.passed)
        if row(got) != row(want):
            mismatches.append((label, row(got), row(want)))
    assert not mismatches, mismatches[:3]
    assert outcomes == {True, False}


def test_the_sweep_exercises_proper_generating_sets():
    sizes = {}
    for name, build in SWEEP_INPUTS.items():
        h = build()
        sizes[name] = len(sparse.Kernel(h.field, h.dim).generators(h.mult.columns)), h.dim
    assert sum(size < n for size, n in sizes.values()) >= 3, sizes


def product_span(a, gens) -> int:
    """The dimension of the span of the left-normed products of ``gens`` in the
    algebra ``a``, by dense elimination to a fixed point."""
    f, n = a.field, a.dim

    def times(v, s):
        out = [f.zero] * n
        for i, x in enumerate(v):
            if x != 0:
                out = [f.add(y, f.mul(x, z)) for y, z in zip(out, a.mult.col(i * n + s))]
        return out

    span = Subspace.from_vectors(f, n, [[f.one if i == s else f.zero for i in range(n)]
                                        for s in gens])
    while True:
        grown = Subspace.from_vectors(
            f, n, [*span.basis.data, *(times(v, s) for v in span.basis.data for s in gens)])
        if grown.dim == span.dim:
            return span.dim
        span = grown


SEARCH_INPUTS = {
    "kZ12/Q": (lambda: group_algebra(cyclic_group(12), Q), 2),
    "kS4/F2": (lambda: group_algebra(symmetric_group(4), F2), 4),
    "k^Z3/Q": (lambda: function_hopf(cyclic_group(3), Q), 3),  # orthogonal idempotents: S = basis
    "sweedler4/Q": (lambda: sweedler4(Q), 3),
    "exterior_super(3)": (lambda: exterior_super(3), 4),
}


@pytest.mark.parametrize("name", list(SEARCH_INPUTS))
def test_generators_span_the_carrier(name):
    build, size = SEARCH_INPUTS[name]
    a = build().algebra
    gens = sparse.Kernel(a.field, a.dim).generators(a.mult.columns)
    assert len(gens) == size
    assert gens == sorted(gens)
    assert product_span(a, gens) == a.dim


def test_zero_dimensional_carrier():
    k = sparse.Kernel(Q, 0)
    assert k.generators([]) == []
    assert [side() for side in k.associativity([])] == [{}, {}]


def test_certified_pass_leaves_both_sides_empty():
    a = group_algebra(symmetric_group(3), Q).algebra
    sides = sparse.Kernel(a.field, a.dim).associativity(a.mult.columns)
    assert [side() for side in sides] == [{}, {}]
