import random
from dataclasses import replace
from fractions import Fraction

import pytest

from hopflab.errors import InvalidStructureError, ShapeError
from hopflab.fields import FieldSpec
from hopflab.hopf import (
    AlgebraSC,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    check_hopf,
    convolution,
    convolution_unit,
    coopposite,
    dual_hopf,
    left_integrals,
    opposite,
    solve_antipode,
)
from hopflab.linalg import Matrix
from hopflab.primitives import indecomposables, michaelis_verify, primitives
from hopflab.serialize import dumps
from hopflab.zoo import (
    diagonal_group_algebra,
    exterior_super,
    function_hopf,
    group_algebra,
    matrix_algebra,
    sweedler4,
    trivial_hopf,
    truncated_poly,
)
from hopflab.turaev import (
    check_hopf_group_algebra,
    check_hopf_group_coalgebra,
    cyclic_group,
    dagger,
    g_primitives,
    group_michaelis_verify,
    mich_tur1_verify,
    symmetric_group,
)

from oracle import oracle_integrals, subspace_rows

Q = FieldSpec.rationals()
F3 = FieldSpec.prime(3)


def zoo_hopf_examples():
    return [
        group_algebra(cyclic_group(2), Q),
        group_algebra(symmetric_group(3), Q),
        function_hopf(cyclic_group(3), F3),
        sweedler4(Q),
        truncated_poly(2),
        truncated_poly(3),
        truncated_poly(5),
        exterior_super(1),
        exterior_super(2),
        trivial_hopf(Q),
    ]


class TestCheckAlgebra:
    def test_matrix_algebra_against_triple_loop(self):
        a = matrix_algebra(2, Q)
        assert check_algebra(a).ok
        # independent oracle: E_ij E_kl = [j=k]E_il on all basis pairs
        n = 2
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        got = a.product(i * n + j, k * n + l)
                        want = [Fraction(0)] * 4
                        if j == k:
                            want[i * n + l] = Fraction(1)
                        assert list(got) == want

    def test_trivial_algebra(self):
        a = trivial_hopf(Q).algebra
        assert check_algebra(a).ok

    def test_wrong_unit_reports_witness(self):
        # Q[x]/(x^2) with the unit deliberately set to x.
        mult = Matrix.from_rows(Q, [[1, 0, 0, 0], [0, 1, 1, 0]])
        bad = AlgebraSC(
            field=Q, dim=2, basis_names=("1", "x"), mult=mult, unit=Matrix.column(Q, [0, 1])
        )
        rep = check_algebra(bad)
        assert not rep.ok
        failed = {c.name for c in rep.failures}
        assert "unit.left" in failed or "unit.right" in failed
        assert all(c.witness is not None for c in rep.failures)

    def test_shape_mismatch_is_input_error(self):
        with pytest.raises(ShapeError):
            AlgebraSC(
                field=Q,
                dim=2,
                basis_names=("a", "b"),
                mult=Matrix.zeros(Q, 2, 3),
                unit=Matrix.column(Q, [1, 0]),
            )


class TestCheckHopf:
    def test_group_algebra_z2(self):
        assert check_hopf(group_algebra(cyclic_group(2), Q)).ok

    def test_sweedler_axioms_and_antipode_order(self):
        h = sweedler4(Q)
        assert check_hopf(h).ok
        s2 = h.antipode @ h.antipode
        assert s2 != Matrix.identity(Q, 4)
        assert s2 @ s2 == Matrix.identity(Q, 4)

    def test_sweedler_with_wrong_parity_fails_compatibility(self):
        h = sweedler4(Q)
        bad = replace(h, parity=(0, 0, 1, 1))
        rep = check_bialgebra(bad.bialgebra)
        assert not rep.ok
        assert any(c.name == "compat.comult_mult" for c in rep.failures)

    @pytest.mark.parametrize("h", zoo_hopf_examples(), ids=lambda h: "-".join(h.basis_names[:2]))
    def test_zoo_and_duals_pass(self, h):
        assert check_hopf(h).ok
        assert check_hopf(dual_hopf(h)).ok

    def test_all_even_parity_coincides_with_unsigned(self):
        # the signed swap with every parity even is bit-identical to the
        # plain transposition, so all checks agree entrywise
        for h in [sweedler4(Q), group_algebra(symmetric_group(3), Q)]:
            even = replace(h, parity=(0,) * h.dim)
            assert even.braiding == h.braiding
            assert [c.passed for c in check_hopf(even).checks] == [
                c.passed for c in check_hopf(h).checks
            ]


class TestConvolution:
    @pytest.mark.parametrize("h", zoo_hopf_examples(), ids=lambda h: "-".join(h.basis_names[:2]))
    def test_antipode_is_convolution_inverse(self, h):
        ident = Matrix.identity(h.field, h.dim)
        c, a = h.coalgebra, h.algebra
        assert convolution(ident, h.antipode, c, a) == convolution_unit(c, a)
        assert convolution(h.antipode, ident, c, a) == convolution_unit(c, a)

    def test_unit_is_neutral(self):
        h = sweedler4(Q)
        ident = Matrix.identity(Q, 4)
        ue = convolution_unit(h.coalgebra, h.algebra)
        assert convolution(h.antipode, ue, h.coalgebra, h.algebra) == h.antipode
        assert convolution(ue, ident, h.coalgebra, h.algebra) == ident

    def test_group_algebra_functionals_multiply_pointwise(self):
        # delta_g * delta_g = delta_g inside the dual of k[Z/2].
        h = group_algebra(cyclic_group(2), Q)
        # realize delta_g as a map H -> k lifted to H -> H via the unit
        delta_g = h.unit @ Matrix.from_rows(Q, [[0, 1]])
        conv = convolution(delta_g, delta_g, h.coalgebra, h.algebra)
        assert conv == delta_g

    def test_associative_unital_on_random_functionals(self):
        rng = random.Random(20240)
        pairs = [
            (sweedler4(Q).coalgebra, sweedler4(Q).algebra),
            (sweedler4(Q).coalgebra, matrix_algebra(2, Q)),
            (group_algebra(cyclic_group(3), F3).coalgebra, function_hopf(cyclic_group(3), F3).algebra),
        ]
        for c, a in pairs:
            ue = convolution_unit(c, a)
            for _ in range(15):
                mats = [
                    Matrix.from_rows(
                        c.field,
                        [[rng.randint(0, 4) for _ in range(c.dim)] for _ in range(a.dim)],
                    )
                    for _ in range(3)
                ]
                f, g, k = mats
                assert convolution(convolution(f, g, c, a), k, c, a) == convolution(
                    f, convolution(g, k, c, a), c, a
                )
                assert convolution(f, ue, c, a) == f
                assert convolution(ue, f, c, a) == f


class TestDual:
    def test_dual_of_group_algebra_is_idempotent_functions(self):
        h = dual_hopf(group_algebra(cyclic_group(2), Q))
        assert check_hopf(h).ok
        # pointwise product on the delta basis: delta_i delta_j = [i=j] delta_i
        for i in range(2):
            for j in range(2):
                want = [Fraction(0)] * 2
                if i == j:
                    want[i] = Fraction(1)
                assert list(h.algebra.product(i, j)) == want

    @pytest.mark.parametrize("h", zoo_hopf_examples(), ids=lambda h: "-".join(h.basis_names[:2]))
    def test_double_dual_is_identity(self, h):
        assert dual_hopf(dual_hopf(h)) == h

    def test_dual_of_trivial(self):
        t = trivial_hopf(Q)
        assert dual_hopf(t).dim == 1
        assert check_hopf(dual_hopf(t)).ok

    def test_invalid_input_rejected(self):
        h = sweedler4(Q)
        bad = replace(h, antipode=Matrix.identity(Q, 4))
        with pytest.raises(InvalidStructureError):
            dual_hopf(bad)


class TestOpposite:
    def test_opposite_of_commutative_is_same(self):
        h = group_algebra(cyclic_group(3), F3)
        assert opposite(h) == h

    def test_coopposite_of_cocommutative_is_same(self):
        h = group_algebra(symmetric_group(3), Q)
        assert coopposite(h) == h

    def test_opposite_of_sweedler_differs(self):
        h = sweedler4(Q)
        hop = opposite(h)
        assert hop != h
        # x g = -g x flips sign: in the opposite, product of (g, x) is -gx.
        assert list(hop.algebra.product(1, 2)) == [0, 0, 0, Fraction(-1)]
        assert check_bialgebra(hop.bialgebra).ok


class TestIntegrals:
    def test_group_algebra_z2_integral_is_delta_e(self):
        space = left_integrals(group_algebra(cyclic_group(2), Q))
        assert subspace_rows(space) == [[Fraction(1), Fraction(0)]]

    def test_sweedler_dimension_one(self):
        assert left_integrals(sweedler4(Q)).dim == 1

    def test_trivial(self):
        assert left_integrals(trivial_hopf(Q)).dim == 1

    @pytest.mark.parametrize("h", zoo_hopf_examples(), ids=lambda h: "-".join(h.basis_names[:2]))
    def test_oracle_agreement(self, h):
        assert subspace_rows(left_integrals(h)) == oracle_integrals(h)


class TestSolveAntipode:
    @pytest.mark.parametrize("h", zoo_hopf_examples(), ids=lambda h: "-".join(h.basis_names[:2]))
    def test_recovers_the_antipode(self, h):
        assert solve_antipode(h.bialgebra) == h.antipode

    def test_no_antipode_returns_none(self):
        # Monoid algebra of {1, x} with x idempotent: a bialgebra whose
        # grouplike x has no inverse, hence no antipode exists.
        from hopflab.hopf import BialgebraSC

        mult = Matrix.from_rows(Q, [[1, 0, 0, 0], [0, 1, 1, 1]])
        comult = Matrix.from_rows(Q, [[1, 0], [0, 0], [0, 0], [0, 1]])
        bial = BialgebraSC(
            field=Q,
            dim=2,
            basis_names=("1", "x"),
            mult=mult,
            unit=Matrix.column(Q, [1, 0]),
            comult=comult,
            counit=Matrix.row_vector(Q, [1, 1]),
        )
        assert check_bialgebra(bial).ok
        assert solve_antipode(bial) is None


# -- stored vectors are read-only ----------------------------------------------
#
# A matrix stores its nonzero entries as vectors that other matrices may share,
# so no computation may change them: the input's canonical text is the same
# after every computation as before.

READ_ONLY_RUNS = [
    lambda h: check_algebra(h.algebra),
    lambda h: check_coalgebra(h.coalgebra),
    check_bialgebra,
    check_hopf,
    primitives,
    indecomposables,
    michaelis_verify,
    left_integrals,
    lambda h: solve_antipode(h.bialgebra),
    dual_hopf,
]


@pytest.mark.parametrize("h", zoo_hopf_examples(), ids=lambda h: "-".join(h.basis_names[:2]))
def test_computations_leave_the_structure_maps_unchanged(h):
    before = dumps(h)
    for run in READ_ONLY_RUNS:
        run(h)
        assert dumps(h) == before, run


def test_graded_computations_leave_the_structure_maps_unchanged():
    h = diagonal_group_algebra(symmetric_group(3), Q)
    hd = dagger(h)
    before = dumps(h), dumps(hd)
    for run in (check_hopf_group_algebra, group_michaelis_verify, mich_tur1_verify,
                lambda _: check_hopf_group_coalgebra(hd), lambda _: g_primitives(hd)):
        run(h)
        assert (dumps(h), dumps(hd)) == before, run
