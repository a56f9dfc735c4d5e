from dataclasses import replace
from fractions import Fraction

import pytest

from hopflab.fields import FieldSpec
from hopflab.hopf import CoalgebraSC, HopfAlgebraSC, check_hopf, dual_hopf
from hopflab.linalg import Matrix
from hopflab.primitives import indecomposables, michaelis_verify, primitives
from hopflab.turaev import (
    FiniteGroup,
    HopfGroupAlgebra,
    check_group,
    check_hopf_group_algebra,
    check_hopf_group_coalgebra,
    cyclic_group,
    dagger,
    family_equations,
    g_indecomposables,
    g_primitives,
    group_michaelis_verify,
    hopf_as_group_algebra,
    hopf_as_group_coalgebra,
    identity_component_hopf,
    mich_tur1_verify,
    symmetric_group,
    total_hopf,
)
from hopflab.zoo import diagonal_group_algebra, group_algebra, sweedler4, truncated_poly

from oracle import (
    oracle_g_indecomposables,
    oracle_g_primitives,
    oracle_g_primitives_definition_form,
    subspace_rows,
)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)


def diag_examples():
    return [
        ("z2Q", diagonal_group_algebra(cyclic_group(2), Q)),
        ("z3F3", diagonal_group_algebra(cyclic_group(3), F3)),
        ("z5F5", diagonal_group_algebra(cyclic_group(5), F5)),
        ("s3Q", diagonal_group_algebra(symmetric_group(3), Q)),
    ]


def truncated_family():
    """truncated_poly(3) over Z3 with H_g = H, mu_{g,h} = m_H and S_g = S: a
    family with multi-dimensional components over a nontrivial group."""
    h, grp = truncated_poly(3), cyclic_group(3)
    order = range(grp.order)
    return HopfGroupAlgebra(
        group=grp,
        components=tuple(h.coalgebra for _ in order),
        graded_mult=tuple(tuple(h.mult for _ in order) for _ in order),
        unit=h.unit,
        antipodes=tuple(h.antipode for _ in order),
    )


def concentrated_family():
    """truncated_poly(3) in degree e of Z2 and 0 in the other degree: a family
    with a 0-dimensional component, dims (3, 0)."""
    h, grp = truncated_poly(3), cyclic_group(2)
    f, dims = h.field, (h.dim, 0)
    empty = CoalgebraSC(field=f, dim=0, basis_names=(), comult=Matrix.zeros(f, 0, 0),
                        counit=Matrix.zeros(f, 1, 0))
    return HopfGroupAlgebra(
        group=grp,
        components=(h.coalgebra, empty),
        graded_mult=tuple(
            tuple(h.mult if g == k == 0 else Matrix.zeros(f, dims[grp.mul(g, k)], dims[g] * dims[k])
                  for k in grp.elements())
            for g in grp.elements()
        ),
        unit=h.unit,
        antipodes=(h.antipode, Matrix.zeros(f, 0, 0)),
    )


def quotient_family():
    """kZ6 over F3 graded by Z6 -> Z3: H_g = span{k_g, k_(g+3)}, with k_a k_b =
    k_(a+b) and S(k_a) = k_(-a).  Its graded multiplications and antipodes are
    permutation blocks off the diagonal, dims (2, 2, 2)."""
    grp = cyclic_group(3)

    def perm(rows, image, cols):
        """The 0/1 matrix whose column j is the basis vector image(j)."""
        return Matrix.from_rows(F3, [[int(image(j) == i) for j in range(cols)] for i in range(rows)])

    def where(a):  # the index of k_a in its component H_(a mod 3)
        return a % 6 // 3

    return HopfGroupAlgebra(
        group=grp,
        components=tuple(
            CoalgebraSC(field=F3, dim=2, basis_names=(f"k{g}", f"k{g + 3}"),
                        comult=perm(4, lambda j: 3 * j, 2), counit=Matrix.from_rows(F3, [[1, 1]]))
            for g in grp.elements()
        ),
        graded_mult=tuple(
            tuple(perm(2, lambda ij, g=g, k=k: where(g + k + 3 * (ij // 2 + ij % 2)), 4)
                  for k in grp.elements())
            for g in grp.elements()
        ),
        unit=Matrix.column(F3, [1, 0]),
        antipodes=tuple(perm(2, lambda i, g=g: where(-g - 3 * i), 2) for g in grp.elements()),
    )


class TestFiniteGroup:
    def test_cyclic_passes(self):
        assert check_group(cyclic_group(3)).ok

    def test_s3_against_triple_loop(self):
        g = symmetric_group(3)
        assert g.order == 6
        rep = check_group(g)
        assert rep.ok
        for a in range(6):
            for b in range(6):
                for c in range(6):
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
        assert g.identity == 0

    def test_broken_table_reports_witness(self):
        g = FiniteGroup.from_table([[0, 1], [1, 1]])
        rep = check_group(g)
        assert not rep.ok
        names = {c.name for c in rep.failures}
        assert "associativity" in names or "inverses" in names
        assert all(c.witness is not None for c in rep.failures)

    def test_inverses(self):
        g = symmetric_group(3)
        for a in range(6):
            assert g.mul(a, g.inv(a)) == 0


class TestGradedChecks:
    @pytest.mark.parametrize("name,hga", diag_examples(), ids=lambda x: x if isinstance(x, str) else "")
    def test_diagonal_passes(self, name, hga):
        assert check_hopf_group_algebra(hga).ok

    @pytest.mark.parametrize("name,hga", diag_examples(), ids=lambda x: x if isinstance(x, str) else "")
    def test_dagger_passes_and_is_involutive(self, name, hga):
        hgc = dagger(hga)
        assert check_hopf_group_coalgebra(hgc).ok
        assert dagger(hgc) == hga

    def test_wrong_antipode_sign_names_the_degree(self):
        hga = diagonal_group_algebra(cyclic_group(3), F3)
        bad_antipodes = list(hga.antipodes)
        bad_antipodes[1] = Matrix.from_rows(F3, [[2]])
        bad = replace(hga, antipodes=tuple(bad_antipodes))
        rep = check_hopf_group_algebra(bad)
        assert not rep.ok
        failing = [c.name for c in rep.failures]
        assert any(name.startswith("antipode") and "[g]" in name for name in failing)

    def test_embedded_hopf_over_trivial_group(self):
        hga = hopf_as_group_algebra(sweedler4(Q))
        assert check_hopf_group_algebra(hga).ok
        hgc = dagger(hga)
        assert check_hopf_group_coalgebra(hgc).ok
        # trivial-group dagger reduces to the classical dual
        assert identity_component_hopf(hgc) == dual_hopf(sweedler4(Q))

    @pytest.mark.parametrize("build", [truncated_family,
                                       lambda: diagonal_group_algebra(symmetric_group(3), Q)],
                             ids=["truncated_family", "diag_s3Q"])
    def test_identity_component_of_group_coalgebra(self, build):
        hgc = dagger(build())
        e = hgc.group.identity
        ae = hgc.components[e]
        assembled = HopfAlgebraSC(
            field=hgc.field,
            dim=ae.dim,
            basis_names=ae.basis_names,
            mult=ae.mult,
            unit=ae.unit,
            comult=hgc.graded_comult[e][e],
            counit=hgc.counit,
            antipode=hgc.antipodes[e],
        )
        assert identity_component_hopf(hgc) == assembled

    def test_parity_inputs_rejected(self):
        from hopflab.errors import ShapeError
        from hopflab.zoo import exterior_super

        with pytest.raises(ShapeError):
            hopf_as_group_algebra(exterior_super(1))
        with pytest.raises(ShapeError):
            hopf_as_group_coalgebra(exterior_super(1))


class TestTotalHopf:
    @pytest.mark.parametrize("g,f", [(cyclic_group(2), Q), (cyclic_group(3), F3),
                                     (symmetric_group(3), Q)],
                             ids=["z2", "z3", "s3"])
    def test_diagonal_total_is_group_algebra(self, g, f):
        assert total_hopf(diagonal_group_algebra(g, f)) == group_algebra(g, f)

    def test_trivial_group_total_is_component(self):
        h = sweedler4(Q)
        assert total_hopf(hopf_as_group_algebra(h)) == h

    @pytest.mark.parametrize("name,hga", diag_examples(), ids=lambda x: x if isinstance(x, str) else "")
    def test_total_passes_check_hopf(self, name, hga):
        assert check_hopf(total_hopf(hga, validate=False)).ok


class TestGPrimitives:
    def test_diag_z3_f3_dimensions(self):
        hgc = dagger(diagonal_group_algebra(cyclic_group(3), F3))
        dims = [p.space.dim for p in g_primitives(hgc)]
        assert dims == [0, 1, 1]

    def test_diag_z3_rational_has_none(self):
        hgc = dagger(diagonal_group_algebra(cyclic_group(3), Q))
        assert [p.space.dim for p in g_primitives(hgc)] == [0, 0, 0]

    def test_family_solutions_are_additive_characters(self):
        hgc = dagger(diagonal_group_algebra(cyclic_group(3), F3))
        p = g_primitives(hgc)[1]
        # the unique family up to scale is c_h = h (additive character)
        assert subspace_rows(p.family_space) == [[0, 1, 2]]

    def test_degree_e_inside_classical_primitives(self):
        for hgc in [
            dagger(diagonal_group_algebra(cyclic_group(3), F3)),
            dagger(diagonal_group_algebra(symmetric_group(3), Q)),
            hopf_as_group_coalgebra(truncated_poly(3)),
        ]:
            pe = g_primitives(hgc)[hgc.group.identity]
            he = identity_component_hopf(hgc)
            classical = primitives(he)
            assert pe.space.is_subspace_of(classical.space)
            for row in pe.space.basis.data:
                assert hgc.counit.apply(row) == (hgc.field.zero,)

    def test_trivial_group_reduces_to_classical(self):
        h = truncated_poly(3)
        hgc = hopf_as_group_coalgebra(h)
        p = g_primitives(hgc)[0]
        assert subspace_rows(p.space) == subspace_rows(primitives(h).space)

    @pytest.mark.parametrize("name,hga", diag_examples(), ids=lambda x: x if isinstance(x, str) else "")
    def test_oracle_agreement(self, name, hga):
        hgc = dagger(hga)
        for g, pg in enumerate(g_primitives(hgc)):
            assert subspace_rows(pg.space) == oracle_g_primitives(hgc, g)

    def test_multidim_family_over_z3(self):
        hga = truncated_family()
        hgc = dagger(hga)
        prims = g_primitives(hgc)
        assert [p.space.dim for p in prims] == [1, 2, 2]
        for g, p in enumerate(prims):
            assert subspace_rows(p.space) == oracle_g_primitives(hgc, g)
        cert = group_michaelis_verify(hga)
        assert cert.verified
        assert cert.dims == ((1, 1), (2, 2), (2, 2))

    def test_multidim_family_brackets_and_families_pinned(self):
        # recorded before the degreewise primitives were read off P(total)
        pinned = [
            ([[0]], [[0, 1, 0, 0, 1, 0, 0, 1, 0]]),
            ([[0, 0, 0, 0], [0, 0, 0, 0]],
             [[0, 0, 0, 1, 0, 0, 2, 0, 0], [0, 1, 0, 0, 1, 0, 0, 1, 0]]),
            ([[0, 0, 0, 0], [0, 0, 0, 0]],
             [[0, 0, 0, 2, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0, 0, 1, 0]]),
        ]
        prims = g_primitives(dagger(truncated_family()))
        assert [([list(r) for r in p.lie.bracket.data], [list(r) for r in p.space_families.data])
                for p in prims] == pinned

    def test_oracle_agreement_multidim_component(self):
        hgc = hopf_as_group_coalgebra(truncated_poly(5))
        assert subspace_rows(g_primitives(hgc)[0].space) == oracle_g_primitives(hgc, 0)


class TestGIndecomposables:
    def test_diag_z3_f3(self):
        gi = g_indecomposables(diagonal_group_algebra(cyclic_group(3), F3))
        assert [s.dim for s in gi.per_g] == [0, 1, 1]

    def test_diag_z2_rational_all_zero(self):
        gi = g_indecomposables(diagonal_group_algebra(cyclic_group(2), Q))
        assert [s.dim for s in gi.per_g] == [0, 0]

    def test_trivial_group_reduces_to_classical(self):
        h = truncated_poly(3)
        gi = g_indecomposables(hopf_as_group_algebra(h))
        q = indecomposables(h)
        assert gi.Q.quotient.dim == q.quotient.dim
        assert gi.per_g[0].dim == q.quotient.dim

    @pytest.mark.parametrize("name,hga", diag_examples(), ids=lambda x: x if isinstance(x, str) else "")
    def test_oracle_agreement(self, name, hga):
        gi = g_indecomposables(hga)
        oracle_per_g, data = oracle_g_indecomposables(hga, gi.total)
        assert [subspace_rows(s) for s in gi.per_g] == oracle_per_g
        assert subspace_rows(gi.Q.ker_eps) == data["ker"]
        assert subspace_rows(gi.Q.ker_eps_sq) == data["ker_sq"]

    @pytest.mark.parametrize("name,hga", diag_examples(), ids=lambda x: x if isinstance(x, str) else "")
    def test_product_rule_on_basis_pairs(self, name, hga):
        # verified internally; re-derive here for two explicit degrees
        gi = g_indecomposables(hga)
        n = gi.total.dim
        f = hga.field
        for a in range(n):
            for b in range(n):
                xy = gi.total.mult.col(a * n + b)
                lhs = gi.Q.pi.apply(xy)
                ea = gi.total.counit.data[0][a]
                eb = gi.total.counit.data[0][b]
                rhs = tuple(
                    f.add(f.mul(x, eb), f.mul(ea, y))
                    for x, y in zip(gi.Q.pi.col(a), gi.Q.pi.col(b))
                )
                assert lhs == rhs


class TestMichTur1:
    @pytest.mark.parametrize("name,hga", diag_examples(), ids=lambda x: x if isinstance(x, str) else "")
    def test_diagonal_examples(self, name, hga):
        cert = mich_tur1_verify(hga)
        assert cert.verified

    def test_trivial_group_tautology(self):
        cert = mich_tur1_verify(hopf_as_group_algebra(truncated_poly(3)))
        assert cert.verified
        assert cert.p_total.dim == 1

    def test_nontrivial_e_component(self):
        # graded structure whose identity component has primitives
        hga = hopf_as_group_algebra(truncated_poly(5))
        cert = mich_tur1_verify(hga)
        assert cert.verified
        assert cert.p_total.dim == 1


class TestGroupMichaelis:
    def test_diag_z3_f3_flagship(self):
        cert = group_michaelis_verify(diagonal_group_algebra(cyclic_group(3), F3))
        assert cert.verified
        assert cert.dims == ((0, 0), (1, 1), (1, 1))

    def test_diag_z5_f5(self):
        cert = group_michaelis_verify(diagonal_group_algebra(cyclic_group(5), F5))
        assert cert.verified
        assert cert.dims == ((0, 0), (1, 1), (1, 1), (1, 1), (1, 1))

    def test_zero_dimensional_component(self):
        cert = group_michaelis_verify(concentrated_family())
        assert cert.verified
        assert cert.dims == ((1, 1), (0, 0))

    def test_quotient_grading_has_primitives_outside_e(self):
        # nonzero P_g for g != e on 2-dimensional components
        cert = group_michaelis_verify(quotient_family())
        assert cert.verified
        assert cert.dims == ((0, 0), (1, 1), (1, 1))

    def test_diag_s3_rational_all_zero(self):
        cert = group_michaelis_verify(diagonal_group_algebra(symmetric_group(3), Q))
        assert cert.verified
        assert all(d == (0, 0) for d in cert.dims)

    def test_family_lemma_clauses(self):
        cert = group_michaelis_verify(diagonal_group_algebra(cyclic_group(3), F3))
        assert cert.family_components_primitive
        assert cert.family_counit_vanishes

    def test_beta_alpha_identity_clause(self):
        cert = group_michaelis_verify(diagonal_group_algebra(cyclic_group(5), F5))
        for d in cert.degrees:
            assert d.beta_alpha_identity
            assert d.beta_well_defined

    def test_trivial_group_reduces_to_classical(self):
        h = truncated_poly(3)
        cert = group_michaelis_verify(hopf_as_group_algebra(h))
        classical = michaelis_verify(h)
        assert cert.verified
        assert cert.dims == ((classical.dim_p, classical.dim_q),)

    def test_certificate_serializes(self):
        import json

        cert = group_michaelis_verify(diagonal_group_algebra(cyclic_group(3), F3))
        blob = json.loads(json.dumps(cert.to_json()))
        assert blob["verified"] is True
        assert len(blob["degrees"]) == 3


class TestJointVersusDefinitionForm:
    """The library cuts out degree-g primitives with the joint system over
    all degree pairs (each solution is a family primitive in every degree at
    once).  The weaker system using only pairs with product g agrees with it
    whenever unit and candidate separate, but is strictly larger for
    one-dimensional components over the rationals; these tests pin the
    implemented semantics down on both sides."""

    def test_agreement_in_characteristic_p(self):
        hgc = dagger(diagonal_group_algebra(cyclic_group(3), F3))
        for g in range(3):
            assert oracle_g_primitives(hgc, g) == oracle_g_primitives_definition_form(hgc, g)

    def test_joint_system_is_strictly_stronger_over_q(self):
        hgc = dagger(diagonal_group_algebra(cyclic_group(2), Q))
        assert oracle_g_primitives_definition_form(hgc, 1) == [[Fraction(1)]]
        assert oracle_g_primitives(hgc, 1) == []
        assert subspace_rows(g_primitives(hgc)[1].space) == []


class TestFamilyEquations:
    def test_system_is_degree_independent(self):
        hgc = dagger(diagonal_group_algebra(cyclic_group(3), F3))
        m = family_equations(hgc)
        assert m.shape == (9, 3)
        # solutions: c_{ab} = c_a + c_b over F3 -> additive characters
        from hopflab.linalg import nullspace

        assert subspace_rows(nullspace(m)) == [[0, 1, 2]]

    @pytest.mark.parametrize("name,hga", diag_examples() + [("truncated_family", truncated_family())],
                             ids=lambda x: x if isinstance(x, str) else "")
    def test_family_space_is_the_solution_space_of_the_system(self, name, hga):
        from hopflab.linalg import nullspace

        hgc = dagger(hga)
        solutions = nullspace(family_equations(hgc))
        assert all(p.family_space == solutions for p in g_primitives(hgc))
