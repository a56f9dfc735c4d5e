import json
from fractions import Fraction

import pytest

from hopflab.fields import FieldSpec
from hopflab.hopf import dual_hopf
from hopflab.lie import check_lie, check_lie_coalgebra
from hopflab.linalg import Matrix, nullspace, tensor
from hopflab.primitives import indecomposables, michaelis_verify, primitives
from hopflab.turaev import cyclic_group, symmetric_group
from hopflab.zoo import (
    exterior_super,
    function_hopf,
    group_algebra,
    sweedler4,
    trivial_hopf,
    truncated_poly,
)

from oracle import oracle_indecomposables, oracle_primitives, subspace_rows

Q = FieldSpec.rationals()
F3 = FieldSpec.prime(3)


def zoo_hopf_examples():
    return [
        group_algebra(cyclic_group(2), Q),
        group_algebra(symmetric_group(3), Q),
        group_algebra(cyclic_group(3), F3),
        function_hopf(cyclic_group(3), F3),
        sweedler4(Q),
        truncated_poly(2),
        truncated_poly(3),
        truncated_poly(5),
        exterior_super(1),
        exterior_super(2),
        trivial_hopf(Q),
    ]


class TestPrimitives:
    def test_sweedler_has_none(self):
        # The 16-equation solve forces every coefficient to zero in char != 2.
        assert primitives(sweedler4(Q)).space.dim == 0

    def test_truncated_poly_3(self):
        p = primitives(truncated_poly(3))
        assert subspace_rows(p.space) == [[0, 1, 0]]
        assert p.lie.bracket.is_zero()

    def test_trivial(self):
        assert primitives(trivial_hopf(Q)).space.dim == 0

    def test_exterior_super_generator(self):
        p = primitives(exterior_super(1))
        assert subspace_rows(p.space) == [[Fraction(0), Fraction(1)]]
        assert p.lie.bracket.is_zero()  # [x, x] = 2 x^2 = 0 in the super sense

    def test_function_hopf_additive_characters(self):
        p = primitives(function_hopf(cyclic_group(3), F3))
        # f(i) = c*i: canonical basis vector (0, 1, 2)
        assert subspace_rows(p.space) == [[0, 1, 2]]

    @pytest.mark.parametrize("h", zoo_hopf_examples(), ids=lambda h: "-".join(h.basis_names[:2]))
    def test_counit_vanishes_on_primitives(self, h):
        p = primitives(h)
        for row in p.space.basis.data:
            assert h.counit.apply(row) == (h.field.zero,)

    @pytest.mark.parametrize("h", zoo_hopf_examples(), ids=lambda h: "-".join(h.basis_names[:2]))
    def test_bracket_closure_certified(self, h):
        p = primitives(h)  # raises InvariantViolation if closure fails
        assert check_lie(p.lie).ok

    @pytest.mark.parametrize("h", zoo_hopf_examples(), ids=lambda h: "-".join(h.basis_names[:2]))
    def test_oracle_agreement(self, h):
        assert subspace_rows(primitives(h).space) == oracle_primitives(h)
        assert subspace_rows(primitives(dual_hopf(h)).space) == oracle_primitives(dual_hopf(h))


class TestIndecomposables:
    def test_group_algebra_z2(self):
        q = indecomposables(group_algebra(cyclic_group(2), Q))
        # (g - 1)^2 = -2 (g - 1) spans ker(counit), so the quotient collapses.
        assert q.quotient.dim == 0
        assert q.ker_eps.dim == 1
        assert q.ker_eps_sq == q.ker_eps

    def test_truncated_poly_3(self):
        q = indecomposables(truncated_poly(3))
        assert q.quotient.dim == 1
        assert subspace_rows(q.ker_eps_sq) == [[0, 0, 1]]
        assert q.lie_co.cobracket.is_zero()

    def test_sweedler(self):
        assert indecomposables(sweedler4(Q)).quotient.dim == 0

    @pytest.mark.parametrize("h", zoo_hopf_examples(), ids=lambda h: "-".join(h.basis_names[:2]))
    def test_projection_laws(self, h):
        q = indecomposables(h)
        assert q.ker_eps_sq.is_subspace_of(q.ker_eps)
        # pi section = id, pi kills the square of the augmentation ideal
        assert q.pi @ q.quotient.section == Matrix.identity(h.field, q.quotient.dim)
        for row in q.ker_eps_sq.basis.data:
            assert all(v == 0 for v in q.pi.apply(row))
        # and within ker eps it kills nothing more
        assert q.ker_eps.intersect(nullspace(q.pi)) == q.ker_eps_sq

    @pytest.mark.parametrize("h", zoo_hopf_examples(), ids=lambda h: "-".join(h.basis_names[:2]))
    def test_cobracket_commuting_square(self, h):
        q = indecomposables(h)
        from hopflab.primitives import cocommutator_matrix

        lhs = q.lie_co.cobracket @ q.pi
        rhs = tensor(q.pi, q.pi) @ cocommutator_matrix(h)
        assert lhs == rhs
        assert check_lie_coalgebra(q.lie_co).ok

    @pytest.mark.parametrize("h", zoo_hopf_examples(), ids=lambda h: "-".join(h.basis_names[:2]))
    def test_oracle_agreement(self, h):
        q = indecomposables(h)
        data = oracle_indecomposables(h)
        assert subspace_rows(q.ker_eps) == data["ker"]
        assert subspace_rows(q.ker_eps_sq) == data["ker_sq"]
        assert subspace_rows(q.quotient.subspace) == data["kernel"]
        assert q.quotient.dim == len(data["free"])


class TestMichaelis:
    @pytest.mark.parametrize(
        "h,dims",
        [
            (truncated_poly(2), 1),
            (truncated_poly(3), 1),
            (truncated_poly(5), 1),
            (group_algebra(symmetric_group(3), Q), 0),
            (sweedler4(Q), 0),
            (function_hopf(cyclic_group(3), F3), 0),
            (group_algebra(cyclic_group(3), F3), 1),
            (trivial_hopf(Q), 0),
        ],
        ids=["t2", "t3", "t5", "kS3", "sw", "fun", "kZ3F3", "triv"],
    )
    def test_classical_instances(self, h, dims):
        cert = michaelis_verify(h)
        assert cert.verified, cert.failures
        assert cert.dim_p == cert.dim_q == dims

    @pytest.mark.parametrize(
        "n,dims", [(1, 1), (2, 2)], ids=["ext1", "ext2"]
    )
    def test_super_instances(self, n, dims):
        cert = michaelis_verify(exterior_super(n))
        assert cert.verified, cert.failures
        assert cert.dim_p == cert.dim_q == dims

    def test_certificate_embeds_reverifiable_data(self):
        h = truncated_poly(3)
        cert = michaelis_verify(h)
        blob = json.dumps(cert.to_json(), sort_keys=True)
        again = json.loads(blob)
        assert again["verified"] is True
        assert again["clauses"] == {
            "image_in_primitives": True,
            "injective": True,
            "dims_equal": True,
            "lie_morphism": True,
        }
        # third-party re-verification with plain linear algebra: alpha columns
        # must solve the primitivity equations of the dual.
        from hopflab.serialize import matrix_from_json

        alpha = matrix_from_json(h.field, again["alpha"], cert.alpha.shape)
        hd = dual_hopf(h)
        ident = Matrix.identity(h.field, h.dim)
        system = hd.comult - tensor(hd.unit, ident) - tensor(ident, hd.unit)
        assert (system @ alpha).is_zero()

    def test_alpha_image_is_dual_of_projection(self):
        h = truncated_poly(3)
        cert = michaelis_verify(h)
        assert cert.alpha == cert.pi.transpose()


# -- Q(kG) against the abelianization ------------------------------------------
#
# For a group algebra I/I^2 = G^ab (x) k, through g - 1 -> g[G,G], so dim Q(kG)
# is the F_p-dimension of G^ab / p G^ab over F_p and 0 over Q.  The subgroup M
# of G generated by the commutators and the p-th powers is the preimage of
# p G^ab, so |G| / |M| = p^(dim Q): read off the group table, no elimination.


def _generated(grp, gens):
    members, frontier = {grp.identity}, [grp.identity]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = grp.mul(a, g)
            if b not in members:
                members.add(b)
                frontier.append(b)
    return members


def abelianization_mod_p_dim(grp, p):
    els = grp.elements()
    commutators = {grp.mul(grp.mul(a, b), grp.mul(grp.inv(a), grp.inv(b))) for a in els for b in els}
    powers = set()
    for a in els:
        x = grp.identity
        for _ in range(p):
            x = grp.mul(x, a)
        powers.add(x)
    index, dim = grp.order // len(_generated(grp, commutators | powers)), 0
    while index > 1:
        assert index % p == 0
        index, dim = index // p, dim + 1
    return dim


@pytest.mark.parametrize(
    "name, p, expected",
    # Every S_n, n >= 2, has abelianization Z2; Z_n is its own.
    [(f"S{n}", p, int(p == 2)) for n in (3, 4, 5) for p in (2, 3)]
    + [(f"Z{n}", p, int(n % p == 0)) for n, p in ((6, 2), (6, 3), (6, 5), (9, 3), (8, 2), (5, 2))],
)
def test_indecomposables_of_a_group_algebra_follow_its_abelianization(name, p, expected):
    grp = (symmetric_group if name[0] == "S" else cyclic_group)(int(name[1:]))
    assert abelianization_mod_p_dim(grp, p) == expected
    q = indecomposables(group_algebra(grp, FieldSpec.prime(p)), validate=False)
    assert q.quotient.dim == expected


def test_indecomposables_of_a_group_algebra_vanish_over_q():
    assert indecomposables(group_algebra(symmetric_group(4), Q), validate=False).quotient.dim == 0
