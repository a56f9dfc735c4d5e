"""The compatibility axioms certified from a generating set.

``sparse.Kernel.comult_mult`` and ``counit_mult`` compare only the columns
(i, s) with s in ``Kernel.generators`` of the multiplication, and only once
Light's test has passed on it (and, with parities, when it is parity-even);
otherwise, or on a differing column, both whole sides are evaluated.  Here
the ``compat.comult_mult`` and ``compat.counit_mult`` rows of
``check_bialgebra`` are compared, on every single-entry tamper of the
multiplication and the comultiplication, with a walk over all n^2 columns.
"""

from dataclasses import replace

import pytest

from hopflab import sparse
from hopflab.fields import FieldSpec
from hopflab.hopf import check_bialgebra, tensor_label
from hopflab.report import VerificationReport, matrix_axiom
from hopflab.turaev import cyclic_group
from hopflab.zoo import group_algebra
from test_associativity import SWEEP_INPUTS
from test_axiom_oracle import _bumped

Q = FieldSpec.rationals()

# kZ3 with g^2 odd and g even: associative, but its product does not respect
# the parities, so the signed product on H (x) H is not associative.  The
# columns (i, s) agree there although the axiom fails, so only the parity
# guard keeps the certificate from passing it.
PARITY_ODD = replace(group_algebra(cyclic_group(3), Q), parity=(0, 0, 1))

INPUTS = {**SWEEP_INPUTS, "kZ3/Q with g^2 odd": lambda: PARITY_ODD}

COMPAT = ("compat.comult_mult", "compat.counit_mult")


def full_walk(b):
    """The two rows of ``COMPAT`` for ``b``, from all n^2 columns of both sides."""
    n, k = b.dim, sparse.Kernel(b.field, b.dim, b.parity)
    m, d = b.mult.columns, b.comult.columns
    eps = b.counit.transpose().columns[0]

    def times(x, y):
        """x y in H (x) H, with (a (x) b)(c (x) e) = sign(b, c) ac (x) be."""
        acc = {}
        for ab, u in x.items():
            a, bb = divmod(ab, n)
            for ce, v in y.items():
                c, e = divmod(ce, n)
                for r, s in m[a * n + c].items():
                    for t, w in m[bb * n + e].items():
                        acc[r * n + t] = acc.get(r * n + t, 0) + k.sign(bb, c) * u * v * s * w
        return k.finish(acc)

    cols = range(n * n)
    delta_m = {(r, c): v for c in cols for r, v in k.apply(d, m[c]).items()}
    products = {(r, c): v for c in cols for r, v in times(d[c // n], d[c % n]).items()}
    eps_m = {(0, c): v for c in cols
             for v in [k.finish({0: sum(eps.get(j, 0) * x for j, x in m[c].items())}).get(0)] if v}
    eps_eps = {(0, c): v for c in cols
               for v in [k.finish({0: eps.get(c // n, 0) * eps.get(c % n, 0)}).get(0)] if v}
    lab2 = tensor_label(b.basis_names, 2)
    rep = VerificationReport("full walk")
    matrix_axiom(rep, COMPAT[0], lambda: delta_m, lambda: products, lab2, lab2)
    matrix_axiom(rep, COMPAT[1], lambda: eps_m, lambda: eps_eps, None, lab2)
    return [(c.name, c.passed, c.witness) for c in rep.checks]


def compat_rows(b):
    return [(c.name, c.passed, c.witness) for c in check_bialgebra(b).checks if c.name in COMPAT]


def tampered(h):
    """(label, bialgebra) for ``h`` and every single-entry +1 bump of ``mult``
    and ``comult``."""
    b = h.bialgebra
    yield "untampered", b
    for attr in ("mult", "comult"):
        m = getattr(b, attr)
        for r in range(m.rows):
            for c in range(m.cols):
                yield f"{attr}[{r},{c}]+1", replace(b, **{attr: _bumped(m, r, c)})


@pytest.mark.parametrize("name", list(INPUTS))
def test_certified_rows_equal_the_full_walk_on_every_tamper(name):
    mismatches, outcomes = [], set()
    for label, b in tampered(INPUTS[name]()):
        got, want = compat_rows(b), full_walk(b)
        outcomes.update(passed for _, passed, _ in got)
        if got != want:
            mismatches.append((label, got, want))
    assert not mismatches, mismatches[:3]
    assert False in outcomes


def test_the_sweep_certifies_passing_rows_from_proper_generating_sets():
    """On every untampered sweep input both rows pass through the certificate,
    from fewer generators than basis vectors on most of them."""
    smaller = 0
    for name, build in SWEEP_INPUTS.items():
        h = build()
        k = sparse.Kernel(h.field, h.dim, h.parity)
        m, d = h.mult.columns, h.comult.columns
        counit = h.counit.transpose().columns[0]
        assert [side() for side in k.comult_mult(m, d)] == [{}, {}], name
        assert [side() for side in k.counit_mult(m, counit)] == [{}, {}], name
        smaller += len(k.generators(m)) < h.dim
    assert smaller >= 3


def test_a_product_that_ignores_the_parities_is_never_certified():
    h = PARITY_ODD
    n, k = h.dim, sparse.Kernel(h.field, h.dim, h.parity)
    m, d = h.mult.columns, h.comult.columns
    lhs, rhs = k.comult_mult(m, d)
    left, right = lhs(), rhs()
    # Light's test passes and every column (i, s) agrees ...
    assert k.associative(m) and not k.parity_even(m)
    column = lambda side, c: {r: v for (r, col), v in side.items() if col == c}  # noqa: E731
    assert all(column(left, i * n + s) == column(right, i * n + s)
               for s in k.generators(m) for i in range(n))
    # ... yet the axiom fails, and the report says so with the full walk's witness.
    assert left != right
    assert not k.decided(m, lambda c: {}, lambda c: {})
    got = compat_rows(h.bialgebra)
    assert got == full_walk(h.bialgebra) and not got[0][1]
