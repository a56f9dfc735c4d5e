"""Systems solved from a generating set against their all-pairs references.

``primitives`` and ``left_integrals`` first solve the rows of the generators
of the algebra on the rows of Delta, then put the solution through every row;
``indecomposables`` spans (ker e)^2 by products I S' and ``g_indecomposables``
checks its product rule on the pairs (a, s), both only when the algebra is
certified associative with a multiplicative counit.  Each answer is compared
with the all-pairs solvers of ``oracle.py`` on the zoo inputs over Q, F2 and
F5, and on tampered inputs run with ``validate=False``, where the shortcuts
do not hold and the full systems must be used.
"""

from dataclasses import replace

import pytest

from hopflab import sparse
from hopflab.errors import InvariantViolation
from hopflab.fields import FieldSpec
from hopflab.hopf import dual_hopf, left_integrals
from hopflab.linalg import Echelon, nullspace
from hopflab.primitives import indecomposables, primitives
from hopflab.turaev import (
    cyclic_group,
    g_indecomposables,
    symmetric_group,
    total_hopf,
    trivial_group,
)
from hopflab.zoo import (
    diagonal_group_algebra,
    exterior_super,
    function_hopf,
    group_algebra,
    sweedler4,
    trivial_hopf,
    truncated_poly,
)
from oracle import (
    oracle_indecomposables,
    oracle_integrals,
    oracle_primitives,
    oracle_product_rule,
    subspace_rows,
)
from test_axiom_oracle import _bumped, _graded_maps, _with
from test_turaev import concentrated_family, quotient_family, truncated_family

Q, F2, F5 = FieldSpec.rationals(), FieldSpec.prime(2), FieldSpec.prime(5)
FIELDS = {"Q": Q, "F2": F2, "F5": F5}
GROUPS = {"Z2": cyclic_group(2), "Z3": cyclic_group(3), "Z4": cyclic_group(4),
          "S3": symmetric_group(3)}


def zoo_inputs():
    """name -> Hopf algebra, for every zoo constructor over Q, F2 and F5."""
    out = {}
    for fname, f in FIELDS.items():
        for gname, g in GROUPS.items():
            out[f"k{gname}/{fname}"] = group_algebra(g, f)
            out[f"k^{gname}/{fname}"] = function_hopf(g, f)
        out[f"trivial/{fname}"] = trivial_hopf(f)
        if f.characteristic != 2:
            out[f"sweedler4/{fname}"] = sweedler4(f)
    out["truncated_poly(2)"] = truncated_poly(2)
    out["truncated_poly(5)"] = truncated_poly(5)
    for n in (1, 2, 3):
        out[f"exterior_super({n})"] = exterior_super(n)
    return out


ZOO = zoo_inputs()


@pytest.fixture
def solved(monkeypatch):
    """The calls of ``Kernel.solutions`` from here on, each as (rows kept,
    all rows, whether the kept rows alone admitted more solutions)."""
    calls, original = [], sparse.Kernel.solutions

    def spy(self, rows, keep):
        space = original(self, rows, keep)
        wider = Echelon(self.field, self.n, (rows[r] for r in keep)).kernel() != space
        calls.append((len(keep), len(rows), wider))
        return space

    monkeypatch.setattr(sparse.Kernel, "solutions", spy)
    return calls


@pytest.mark.parametrize("name", list(ZOO))
def test_systems_equal_the_all_pairs_references(name, solved):
    h = ZOO[name]
    hd = dual_hopf(h)
    assert subspace_rows(primitives(h).space) == oracle_primitives(h)
    assert subspace_rows(primitives(hd).space) == oracle_primitives(hd)
    assert subspace_rows(left_integrals(h)) == oracle_integrals(h)
    assert subspace_rows(indecomposables(h).ker_eps_sq) == oracle_indecomposables(h)["ker_sq"]
    # On a Hopf algebra the rows of the generators already cut out the answer.
    assert solved and not any(wider for _, _, wider in solved)


def test_the_zoo_exercises_proper_generating_sets(solved):
    """The reduced systems and products are smaller than the full ones on
    most zoo inputs, so the comparisons above test the shortcuts."""
    fewer_products = 0
    for h in ZOO.values():
        left_integrals(h)
        kv = nullspace(h.counit).vectors
        fewer_products += len(h.kernel.ideal_generators(h.mult.columns, kv)) < len(kv)
    fewer_rows = sum(kept < rows for kept, rows, _ in solved)
    assert fewer_rows >= len(ZOO) // 3 and fewer_products >= len(ZOO) // 3


GRADED = {f"diag {g}/{f}": diagonal_group_algebra(GROUPS[g], FIELDS[f])
          for g in GROUPS for f in FIELDS}
GRADED["diag trivial/F5"] = diagonal_group_algebra(trivial_group(), F5)


@pytest.mark.parametrize("name", list(GRADED))
def test_product_rule_equals_the_all_pairs_reference(name):
    h = GRADED[name]
    assert oracle_product_rule(total_hopf(h))
    g_indecomposables(h)  # raises if its product rule fails


# -- tampered inputs, validate=False ---------------------------------------------


def bumps(h, attr):
    m = getattr(h, attr)
    for r in range(m.rows):
        for c in range(m.cols):
            yield replace(h, **{attr: _bumped(m, r, c)})


TAMPERED = {"sweedler4/Q": sweedler4(Q), "kZ4/F2": group_algebra(cyclic_group(4), F2),
            "kS3/F5": group_algebra(symmetric_group(3), F5), "truncated_poly(3)": truncated_poly(3)}


def test_systems_of_a_noncoassociative_tamper_are_the_full_systems(solved):
    """Every comult tamper: primitives and integrals equal the references.  On
    some the rows of the generators alone admit more solutions, which the
    check against every row catches."""
    for h in TAMPERED.values():
        for t in bumps(h, "comult"):
            assert subspace_rows(left_integrals(t, validate=False)) == oracle_integrals(t)
            try:
                space = primitives(t, validate=False).space
            except InvariantViolation:  # the restricted bracket, after the solve
                continue
            assert subspace_rows(space) == oracle_primitives(t)
    assert any(wider for _, _, wider in solved)


def test_ker_eps_squared_of_a_nonassociative_tamper_is_spanned_by_all_pairs():
    """Every mult tamper that ``indecomposables`` gets through: (ker e)^2
    equals the all-pairs reference, including tampers where the products
    I S' span less."""
    returned, smaller = 0, 0
    for h in TAMPERED.values():
        for t in bumps(h, "mult"):
            try:
                q = indecomposables(t, validate=False)
            except InvariantViolation:
                continue
            returned += 1
            assert subspace_rows(q.ker_eps_sq) == oracle_indecomposables(t)["ker_sq"]
            k, kv = sparse.Kernel(t.field, t.dim), q.ker_eps.vectors
            reduced = Echelon(t.field, t.dim, (k.product(t.mult.columns, a, s) for a in kv
                                               for s in k.ideal_generators(t.mult.columns, kv)))
            smaller += reduced.dim < q.ker_eps_sq.dim
    assert returned and smaller


def test_product_rule_of_a_tamper_equals_the_all_pairs_reference():
    """Every single-entry tamper of three graded families whose
    ``g_indecomposables`` reaches the product rule: the rule fails exactly
    when it fails on some basis pair of the total Hopf algebra."""
    reached, failed = 0, 0
    for build in (truncated_family, concentrated_family, quotient_family):
        h = build()
        for path, m in _graded_maps(h):
            for r in range(m.rows):
                for c in range(m.cols):
                    t = _with(h, path, _bumped(m, r, c))
                    try:
                        g_indecomposables(t, validate=False)
                        holds = True
                    except InvariantViolation as exc:
                        if "product rule" not in str(exc):
                            continue
                        holds = False
                    reached += 1
                    failed += not holds
                    assert holds == oracle_product_rule(total_hopf(t, validate=False)), (path, r, c)
    assert failed and reached > failed
