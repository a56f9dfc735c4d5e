"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact (tolerance zero) and oracle-backed where a
subspace-valued answer is produced; the independent solvers live in
``tests/oracle.py`` and share no code with the main path.
"""

from dataclasses import replace
from fractions import Fraction

from hopflab.fields import FieldSpec
from hopflab.hopf import (
    check_bialgebra,
    check_hopf,
    dual_hopf,
    left_integrals,
)
from hopflab.lie import check_lie, commutator_lie
from hopflab.primitives import indecomposables, michaelis_verify, primitives
from hopflab.serialize import dumps
from hopflab.turaev import (
    check_hopf_group_algebra,
    check_hopf_group_coalgebra,
    cyclic_group,
    dagger,
    g_indecomposables,
    g_primitives,
    group_michaelis_verify,
    mich_tur1_verify,
    symmetric_group,
)
from hopflab.zoo import (
    diagonal_group_algebra,
    exterior_super,
    function_hopf,
    group_algebra,
    matrix_algebra,
    sweedler4,
    truncated_poly,
)

from oracle import (
    oracle_g_indecomposables,
    oracle_g_primitives,
    oracle_indecomposables,
    oracle_integrals,
    oracle_primitives,
    subspace_rows,
)

Q = FieldSpec.rationals()
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)


def classical_zoo():
    return [
        ("group_algebra(Z2,Q)", group_algebra(cyclic_group(2), Q)),
        ("group_algebra(S3,Q)", group_algebra(symmetric_group(3), Q)),
        ("function_hopf(Z3,F3)", function_hopf(cyclic_group(3), F3)),
        ("sweedler4(Q)", sweedler4(Q)),
        ("truncated_poly(2)", truncated_poly(2)),
        ("truncated_poly(3)", truncated_poly(3)),
        ("truncated_poly(5)", truncated_poly(5)),
        ("exterior_super(1)", exterior_super(1)),
        ("exterior_super(2)", exterior_super(2)),
    ]


def graded_zoo():
    return [
        ("diagonal(Z2,Q)", diagonal_group_algebra(cyclic_group(2), Q)),
        ("diagonal(Z3,F3)", diagonal_group_algebra(cyclic_group(3), F3)),
        ("diagonal(S3,Q)", diagonal_group_algebra(symmetric_group(3), Q)),
    ]


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_axiom_suite():
    for name, h in classical_zoo():
        assert check_hopf(h).ok, name
        assert check_hopf(dual_hopf(h)).ok, f"dual of {name}"
    for name, hga in graded_zoo():
        assert check_hopf_group_algebra(hga).ok, name
        assert check_hopf_group_coalgebra(dagger(hga)).ok, f"dagger of {name}"
    report(1, "every zoo object and its dual/dagger passes all axioms exactly")


def test_criterion_02_involution_round_trips():
    for name, h in classical_zoo():
        assert dumps(dual_hopf(dual_hopf(h))) == dumps(h), name
    for name, hga in graded_zoo():
        assert dumps(dagger(dagger(hga))) == dumps(hga), name
        hgc = dagger(hga)
        assert dumps(dagger(dagger(hgc))) == dumps(hgc), f"dagger of {name}"
    report(2, "double dual and double dagger are byte-identical round trips")


def test_criterion_03_classical_michaelis_with_oracle():
    cases = [
        ("truncated_poly(2)", truncated_poly(2), 1),
        ("truncated_poly(3)", truncated_poly(3), 1),
        ("truncated_poly(5)", truncated_poly(5), 1),
        ("group_algebra(S3,Q)", group_algebra(symmetric_group(3), Q), 0),
        ("sweedler4(Q)", sweedler4(Q), 0),
        ("function_hopf(Z3,F3)", function_hopf(cyclic_group(3), F3), 0),
        ("dual of function_hopf(Z3,F3)", dual_hopf(function_hopf(cyclic_group(3), F3)), 1),
    ]
    for name, h, dim in cases:
        cert = michaelis_verify(h)
        assert cert.verified, (name, cert.failures)
        assert cert.dim_p == cert.dim_q == dim, name
        # independent coefficient-loop solver agrees on every dimension
        assert len(oracle_primitives(dual_hopf(h))) == dim, name
        data = oracle_indecomposables(h)
        assert len(data["free"]) == dim, name
    report(3, "classical duality verified with oracle-confirmed dimensions")


def test_criterion_04_super_michaelis():
    for n, dim in [(1, 1), (2, 2)]:
        h = exterior_super(n)
        cert = michaelis_verify(h)
        assert cert.verified, cert.failures
        assert cert.dim_p == cert.dim_q == dim
    report(4, "parity-mode duality verified on 1 and 2 odd generators")


def test_criterion_05_total_primitives_sit_in_identity_block():
    for name, hga in graded_zoo():
        cert = mich_tur1_verify(hga)
        assert cert.contained_in_e_block, name
        assert cert.spaces_equal, name
        assert cert.verified, name
    report(5, "primitives of every total Hopf algebra are the identity-block ones")


def test_criterion_06_group_graded_duality():
    cases = [
        ("diagonal(Z3,F3)", diagonal_group_algebra(cyclic_group(3), F3),
         ((0, 0), (1, 1), (1, 1))),
        ("diagonal(Z5,F5)", diagonal_group_algebra(cyclic_group(5), F5),
         ((0, 0), (1, 1), (1, 1), (1, 1), (1, 1))),
        ("diagonal(S3,Q)", diagonal_group_algebra(symmetric_group(3), Q),
         tuple((0, 0) for _ in range(6))),
    ]
    for name, hga, dims in cases:
        cert = group_michaelis_verify(hga)
        assert cert.dims == dims, name
        for d in cert.degrees:
            assert d.image_in_primitives, (name, d.name)
            assert d.injective, (name, d.name)
            assert d.dims_equal, (name, d.name)
            assert d.lie_morphism, (name, d.name)
            assert d.beta_well_defined and d.beta_alpha_identity, (name, d.name)
        assert cert.verified, name
    report(6, "graded duality certified per degree, clauses (a)-(d) plus beta.alpha = id")


def test_criterion_07_family_solution_clauses():
    for name, hga, _ in [
        ("diagonal(Z3,F3)", diagonal_group_algebra(cyclic_group(3), F3), None),
        ("diagonal(Z5,F5)", diagonal_group_algebra(cyclic_group(5), F5), None),
        ("diagonal(S3,Q)", diagonal_group_algebra(symmetric_group(3), Q), None),
    ]:
        cert = group_michaelis_verify(hga)
        assert cert.family_components_primitive, name
        assert cert.family_counit_vanishes, name
        # re-check both clauses directly on every family basis vector
        hgc = dagger(hga)
        grp = hga.group
        dims = hgc.dims
        off = [0]
        for d in dims:
            off.append(off[-1] + d)
        prim = g_primitives(hgc)
        for pg in prim:
            for fam in pg.family_space.basis.data:
                for h in grp.elements():
                    block = fam[off[h] : off[h] + dims[h]]
                    assert prim[h].space.contains(block), name
                e = grp.identity
                assert hgc.counit.apply(fam[off[e] : off[e] + dims[e]]) == (hgc.field.zero,)
    report(7, "every family solution is degreewise primitive with vanishing counit")


def test_criterion_08_degreewise_product_rule():
    for name, hga in graded_zoo():
        gi = g_indecomposables(hga)  # internally certifies the rule; re-derive
        total = gi.total
        f = hga.field
        n = total.dim
        for a in range(n):
            for b in range(n):
                xy = total.mult.col(a * n + b)
                lhs = gi.Q.pi.apply(xy)
                ea, eb = total.counit.data[0][a], total.counit.data[0][b]
                rhs = tuple(
                    f.add(f.mul(x, eb), f.mul(ea, y))
                    for x, y in zip(gi.Q.pi.col(a), gi.Q.pi.col(b))
                )
                assert lhs == rhs, name
    report(8, "pi(xy) = pi(x)e(y) + e(x)pi(y) holds bit-exactly on all basis pairs")


def test_criterion_09_lie_functor_soundness():
    assert check_lie(commutator_lie(matrix_algebra(2, Q))).ok
    for name, h in classical_zoo():
        assert check_lie(commutator_lie(h.algebra)).ok, name
    ext = exterior_super(2)
    assert check_lie(commutator_lie(ext.algebra)).ok  # super-Jacobi with signs
    stripped = replace(ext, parity=None)
    rep = check_bialgebra(stripped.bialgebra)
    assert not rep.ok
    assert any(c.name == "compat.comult_mult" for c in rep.failures)
    report(9, "commutator functor sound; sign-sensitivity witnessed by parity stripping")


def test_criterion_10_integrals():
    cases = [
        ("group_algebra(Z2,Q)", group_algebra(cyclic_group(2), Q)),
        ("group_algebra(S3,Q)", group_algebra(symmetric_group(3), Q)),
        ("sweedler4(Q)", sweedler4(Q)),
        ("truncated_poly(3)", truncated_poly(3)),
    ]
    for name, h in cases:
        space = left_integrals(h)
        assert space.dim == 1, name
    for g in [cyclic_group(2), symmetric_group(3)]:
        space = left_integrals(group_algebra(g, Q))
        basis = space.basis.data[0]
        expected = [Fraction(1 if a == g.identity else 0) for a in range(g.order)]
        assert list(basis) == expected  # delta_e up to the canonical scaling
    report(10, "left integral spaces are 1-dimensional, delta_e for group algebras")


def test_criterion_11_oracle_equivalence():
    # P and integrals on every classical zoo object and its dual
    for name, h in classical_zoo():
        for obj in (h, dual_hopf(h)):
            assert subspace_rows(primitives(obj).space) == oracle_primitives(obj), name
            assert subspace_rows(left_integrals(obj)) == oracle_integrals(obj), name
            q = indecomposables(obj)
            data = oracle_indecomposables(obj)
            assert subspace_rows(q.ker_eps) == data["ker"], name
            assert subspace_rows(q.ker_eps_sq) == data["ker_sq"], name
            assert subspace_rows(q.quotient.subspace) == data["kernel"], name
            assert q.quotient.dim == len(data["free"]), name
    # P_g and Q_g on every graded zoo object
    for name, hga in graded_zoo():
        hgc = dagger(hga)
        for g, pg in enumerate(g_primitives(hgc)):
            assert subspace_rows(pg.space) == oracle_g_primitives(hgc, g), name
        gi = g_indecomposables(hga)
        oracle_per_g, _ = oracle_g_indecomposables(hga, gi.total)
        assert [subspace_rows(s) for s in gi.per_g] == oracle_per_g, name
    report(11, "independent brute-force solvers reproduce every canonical basis")
