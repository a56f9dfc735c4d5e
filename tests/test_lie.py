import random
from fractions import Fraction

import pytest

from hopflab.errors import InvalidStructureError
from hopflab.fields import FieldSpec
from hopflab.hopf import dual_hopf
from hopflab.lie import (
    LieAlgebraSC,
    LieCoalgebraSC,
    check_lie,
    check_lie_coalgebra,
    cocommutator_lie_coalgebra,
    commutator_lie,
    dual_lie,
    lie_morphism_check,
)
from hopflab.linalg import Matrix
from hopflab.turaev import cyclic_group, symmetric_group
from hopflab.zoo import (
    exterior_super,
    function_hopf,
    group_algebra,
    matrix_algebra,
    sweedler4,
    truncated_poly,
)

Q = FieldSpec.rationals()
F3 = FieldSpec.prime(3)


def bracket_from_table(field, dim, table):
    """table[(i, j)] = list of (k, coeff); omitted pairs are zero."""
    grid = [[field.zero] * (dim * dim) for _ in range(dim)]
    for (i, j), terms in table.items():
        for k, c in terms:
            grid[k][i * dim + j] = field.coerce(c)
    return Matrix.from_rows(field, grid)


def sl2_like():
    # [h,e] = 2e, [h,f] = -2f, [e,f] = h on basis (h, e, f)
    table = {
        (0, 1): [(1, 2)],
        (1, 0): [(1, -2)],
        (0, 2): [(2, -2)],
        (2, 0): [(2, 2)],
        (1, 2): [(0, 1)],
        (2, 1): [(0, -1)],
    }
    return LieAlgebraSC(field=Q, dim=3, bracket=bracket_from_table(Q, 3, table))


class TestCheckLie:
    def test_sl2_against_brute_force_jacobi(self):
        l = sl2_like()
        assert check_lie(l).ok
        # independent loop: [x,[y,z]] + [z,[x,y]] + [y,[z,x]] = 0 on basis triples
        n = l.dim

        def brk(u, v):
            col = Matrix.column(Q, [a * b for a in u for b in v])
            # bracket matrix times the Kronecker coordinates of u (x) v
            vec = [Fraction(0)] * n
            for i in range(n):
                for j in range(n):
                    c = u[i] * v[j]
                    if c:
                        for k in range(n):
                            vec[k] += c * l.bracket.data[k][i * n + j]
            return vec

        basis = [[Fraction(int(i == t)) for i in range(n)] for t in range(n)]
        for x in basis:
            for y in basis:
                for z in basis:
                    total = [
                        a + b + c
                        for a, b, c in zip(
                            brk(x, brk(y, z)), brk(z, brk(x, y)), brk(y, brk(z, x))
                        )
                    ]
                    assert all(v == 0 for v in total)

    def test_abelian(self):
        l = LieAlgebraSC(field=Q, dim=3, bracket=Matrix.zeros(Q, 3, 9))
        assert check_lie(l).ok

    def test_symmetric_bracket_fails_antisymmetry_with_witness(self):
        table = {(0, 1): [(2, 1)], (1, 0): [(2, 1)]}
        l = LieAlgebraSC(field=Q, dim=3, bracket=bracket_from_table(Q, 3, table))
        rep = check_lie(l)
        assert not rep.ok
        fail = rep.failures[0]
        assert fail.name == "antisymmetry"
        assert fail.witness["col"] == "e0(x)e1"


class TestCommutatorLie:
    def test_matrix_algebra_gives_gl2(self):
        l = commutator_lie(matrix_algebra(2, Q))
        assert check_lie(l).ok
        n = 2
        idx = {(i, j): i * n + j for i in range(n) for j in range(n)}
        # [E00, E01] = E01, [E01, E10] = E00 - E11, [E00, E10] = -E10
        col = l.bracket.col(idx[0, 0] * 4 + idx[0, 1])
        want = [Fraction(0)] * 4
        want[idx[0, 1]] = Fraction(1)
        assert list(col) == want
        col = l.bracket.col(idx[0, 1] * 4 + idx[1, 0])
        want = [Fraction(0)] * 4
        want[idx[0, 0]] = Fraction(1)
        want[idx[1, 1]] = Fraction(-1)
        assert list(col) == want

    def test_commutative_gives_abelian(self):
        l = commutator_lie(group_algebra(cyclic_group(3), F3).algebra)
        assert l.bracket.is_zero()

    def test_exterior_super_self_bracket_vanishes(self):
        h = exterior_super(1)
        l = commutator_lie(h.algebra)
        assert check_lie(l).ok
        # [x, x] = xx + xx = 0 thanks to the Koszul sign
        assert all(v == 0 for v in l.bracket.col(1 * 2 + 1))

    def test_zoo_algebras_all_pass(self):
        algebras = [
            matrix_algebra(2, Q),
            group_algebra(symmetric_group(3), Q).algebra,
            sweedler4(Q).algebra,
            truncated_poly(5).algebra,
            exterior_super(2).algebra,
            function_hopf(cyclic_group(3), F3).algebra,
        ]
        for a in algebras:
            assert check_lie(commutator_lie(a)).ok

    def test_random_group_table_algebras(self):
        rng = random.Random(7)
        groups = [cyclic_group(n) for n in (2, 3, 4, 5, 6)] + [symmetric_group(3)]
        for g in rng.sample(groups, 4):
            a = group_algebra(g, Q).algebra
            assert check_lie(commutator_lie(a)).ok


class TestCocommutator:
    def test_group_algebra_is_cocommutative(self):
        c = cocommutator_lie_coalgebra(group_algebra(symmetric_group(3), Q).coalgebra)
        assert c.cobracket.is_zero()

    def test_sweedler_cobracket_of_x(self):
        h = sweedler4(Q)
        c = cocommutator_lie_coalgebra(h.coalgebra)
        assert check_lie_coalgebra(c).ok
        # Upsilon(x) = x(x)1 + g(x)x - 1(x)x - x(x)g  (basis order 1,g,x,gx)
        col = c.cobracket.col(2)
        expected = {(2, 0): 1, (1, 2): 1, (0, 2): -1, (2, 1): -1}
        for a in range(4):
            for b in range(4):
                assert col[a * 4 + b] == expected.get((a, b), 0)

    def test_transpose_intertwines_constructions(self):
        for h in [sweedler4(Q), truncated_poly(3), group_algebra(cyclic_group(2), Q),
                  exterior_super(2)]:
            lhs = cocommutator_lie_coalgebra(dual_hopf(h).coalgebra)
            rhs = commutator_lie(h.algebra)
            assert lhs.cobracket == rhs.bracket.transpose()
            assert dual_lie(lhs).bracket == rhs.bracket


class TestDualLie:
    def test_dual_of_zero_cobracket_is_abelian(self):
        c = LieCoalgebraSC(field=Q, dim=2, cobracket=Matrix.zeros(Q, 4, 2))
        assert dual_lie(c).bracket.is_zero()

    def test_invalid_input_rejected(self):
        bad = LieCoalgebraSC(
            field=Q,
            dim=2,
            cobracket=Matrix.from_rows(Q, [[1, 0], [0, 0], [0, 0], [0, 0]]),
        )
        with pytest.raises(InvalidStructureError):
            dual_lie(bad)


class TestLieMorphism:
    def test_identity_and_zero(self):
        l = sl2_like()
        assert lie_morphism_check(Matrix.identity(Q, 3), l, l)
        assert lie_morphism_check(Matrix.zeros(Q, 3, 3), l, l)

    def test_scaling_fails_on_nonabelian(self):
        l = sl2_like()
        two = Matrix.identity(Q, 3).scale(2)
        assert not lie_morphism_check(two, l, l)

    def test_scaling_passes_on_abelian(self):
        l = LieAlgebraSC(field=Q, dim=2, bracket=Matrix.zeros(Q, 2, 4))
        assert lie_morphism_check(Matrix.identity(Q, 2).scale(7), l, l)


class TestParityConsistency:
    def test_all_even_parity_matches_unsigned(self):
        a = matrix_algebra(2, Q)
        from dataclasses import replace

        a_even = replace(a, parity=(0, 0, 0, 0))
        assert commutator_lie(a).bracket == commutator_lie(a_even).bracket

    def test_super_jacobi_needs_signs(self):
        h = exterior_super(2)
        assert check_lie(commutator_lie(h.algebra)).ok
