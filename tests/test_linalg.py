from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflab.errors import FieldMismatchError, ShapeError
from hopflab.fields import FieldSpec
from hopflab.linalg import (
    Echelon,
    Matrix,
    Subspace,
    nullspace,
    quotient,
    rank,
    rref,
    solve_particular,
    swap_map,
    tensor,
)

from oracle import basis_rows, gauss_rref, null_basis

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F5 = FieldSpec.prime(5)


def M(field, rows):
    return Matrix.from_rows(field, rows)


class TestRref:
    def test_rank_one_forced(self):
        red, piv = rref(M(Q, [[2, 4], [1, 2]]))
        assert red == M(Q, [[1, 2], [0, 0]])
        assert piv == (0,)

    def test_identity(self):
        red, piv = rref(Matrix.identity(Q, 3))
        assert red == Matrix.identity(Q, 3)
        assert piv == (0, 1, 2)

    def test_mod2_hand_reduction(self):
        # [[1,1],[1,0]] over F2: r2 += r1 gives [[1,1],[0,1]], then clear up.
        red, piv = rref(M(F2, [[1, 1], [1, 0]]))
        assert red == Matrix.identity(F2, 2)
        assert piv == (0, 1)

    def test_fraction_pivots(self):
        red, piv = rref(M(Q, [["1/2", 1], [1, 3]]))
        assert red == Matrix.identity(Q, 2)


class TestNullspace:
    def test_zero_map(self):
        ns = nullspace(Matrix.zeros(Q, 2, 3))
        assert ns == Subspace.full(Q, 3)

    def test_identity(self):
        ns = nullspace(Matrix.identity(Q, 4))
        assert ns.dim == 0

    def test_hand_solve(self):
        ns = nullspace(M(Q, [[1, 1]]))
        assert ns.basis == M(Q, [[1, -1]])

    def test_mod5(self):
        ns = nullspace(M(F5, [[1, 2]]))
        # x = -2y = 3y; canonical basis scales the pivot to 1.
        assert ns.basis == M(F5, [[1, 2]])
        assert ns.contains([3, 1])


@st.composite
def small_matrix(draw):
    field = draw(st.sampled_from([Q, F2, F5]))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    if field.is_rational:
        scalars = st.integers(-6, 6).map(Fraction)
    else:
        scalars = st.integers(0, field.characteristic - 1)
    data = draw(
        st.lists(st.lists(scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    return Matrix.from_rows(field, data)


class TestProperties:
    @given(small_matrix())
    @settings(max_examples=120, deadline=None)
    def test_rank_nullity(self, m):
        assert rank(m) + nullspace(m).dim == m.cols

    @given(small_matrix())
    @settings(max_examples=60, deadline=None)
    def test_nullspace_annihilated(self, m):
        ns = nullspace(m)
        for row in ns.basis.data:
            assert all(x == 0 for x in m.apply(row))

    @given(small_matrix(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_canonical_equality(self, m, data):
        # Shuffling and rescaling generators must not change the basis.
        space = Subspace.from_vectors(m.field, m.cols, list(m.data))
        perm = data.draw(st.permutations(list(m.data)))
        scaled = []
        for row in perm:
            c = data.draw(st.sampled_from([1, 2, 3]))
            scaled.append([m.field.mul(m.field.coerce(c), x) for x in row])
            scaled.append(row)
        again = Subspace.from_vectors(m.field, m.cols, scaled)
        assert space == again


class TestTensor:
    def test_identities(self):
        assert tensor(Matrix.identity(Q, 2), Matrix.identity(Q, 3)) == Matrix.identity(Q, 6)

    def test_scalars_multiply(self):
        assert tensor(M(Q, [[2]]), M(Q, [[3]])) == M(Q, [[6]])

    def test_strict_associativity(self):
        a = M(Q, [[1, 2], [0, 1]])
        b = M(Q, [[3], [1]])
        c = M(Q, [[1, 1, 0]])
        assert tensor(a, tensor(b, c)) == tensor(tensor(a, b), c)

    def test_functoriality(self):
        a = M(Q, [[1, 2], [3, 4]])
        c = M(Q, [[0, 1], [1, 1]])
        b = M(Q, [[2, 0], [1, 1]])
        d = M(Q, [[1, 1], [0, 2]])
        assert tensor(a @ c, b @ d) == tensor(a, b) @ tensor(c, d)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            tensor(Matrix.identity(Q, 2), Matrix.identity(F2, 2))


class TestSwap:
    def test_trivial(self):
        assert swap_map(Q, 1, 1) == M(Q, [[1]])

    def test_involution(self):
        s = swap_map(Q, 2, 2)
        assert s @ s == Matrix.identity(Q, 4)

    def test_both_odd_gives_sign(self):
        assert swap_map(Q, 1, 1, (1,), (1,)) == M(Q, [[-1]])

    def test_signed_involution(self):
        pa, pb = (0, 1), (1, 1)
        s_ab = swap_map(Q, 2, 2, pa, pb)
        s_ba = swap_map(Q, 2, 2, pb, pa)
        assert s_ba @ s_ab == Matrix.identity(Q, 4)

    def test_rectangular(self):
        s = swap_map(Q, 2, 3)
        t = swap_map(Q, 3, 2)
        assert t @ s == Matrix.identity(Q, 6)

    def test_parity_length_checked(self):
        with pytest.raises(ShapeError):
            swap_map(Q, 2, 2, (0,), None)


class TestSubspaceOps:
    def test_sum(self):
        e1 = Subspace.from_vectors(Q, 3, [[1, 0, 0]])
        e2 = Subspace.from_vectors(Q, 3, [[0, 1, 0]])
        assert e1.sum_with(e2) == Subspace.from_vectors(Q, 3, [[1, 0, 0], [0, 1, 0]])

    def test_intersection_trivial(self):
        diag = Subspace.from_vectors(Q, 2, [[1, 1]])
        e1 = Subspace.from_vectors(Q, 2, [[1, 0]])
        assert diag.intersect(e1).dim == 0

    def test_intersection_nontrivial(self):
        a = Subspace.from_vectors(Q, 3, [[1, 0, 0], [0, 1, 0]])
        b = Subspace.from_vectors(Q, 3, [[0, 1, 0], [0, 0, 1]])
        assert a.intersect(b) == Subspace.from_vectors(Q, 3, [[0, 1, 0]])

    def test_membership(self):
        s = Subspace.from_vectors(Q, 3, [[1, 0, 0], [0, 1, 0]])
        assert s.contains([1, 1, 0])
        assert not s.contains([0, 0, 1])

    def test_coordinates(self):
        s = Subspace.from_vectors(Q, 3, [[1, 0, 2], [0, 1, 1]])
        assert s.coordinates_of([2, 3, 7]) == (Fraction(2), Fraction(3))
        with pytest.raises(ValueError):
            s.coordinates_of([0, 0, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            Subspace.zero(Q, 2).sum_with(Subspace.zero(Q, 3))


class TestQuotient:
    def test_picks_second_coordinate(self):
        q = quotient(2, Subspace.from_vectors(Q, 2, [[1, 0]]))
        assert q.projection == M(Q, [[0, 1]])
        assert q.dim == 1

    def test_zero_subspace(self):
        q = quotient(3, Subspace.zero(Q, 3))
        assert q.projection == Matrix.identity(Q, 3)
        assert q.section == Matrix.identity(Q, 3)

    def test_diagonal_line(self):
        q = quotient(2, Subspace.from_vectors(Q, 2, [[1, 1]]))
        assert q.projection == M(Q, [[-1, 1]])
        assert q.projection @ q.section == Matrix.identity(Q, 1)

    @given(small_matrix())
    @settings(max_examples=60, deadline=None)
    def test_projection_section_laws(self, m):
        s = Subspace.from_vectors(m.field, m.cols, list(m.data))
        q = quotient(m.cols, s)
        assert q.projection @ q.section == Matrix.identity(m.field, q.dim)
        # nullspace of the projection is exactly the subspace
        assert nullspace(q.projection) == s
        # section . projection - id has image inside the subspace
        defect = q.section @ q.projection - Matrix.identity(m.field, m.cols)
        for j in range(m.cols):
            assert s.contains(defect.col(j))


class TestSolve:
    def test_particular_solution_is_canonical(self):
        a = M(Q, [[1, 1, 0]])
        assert solve_particular(a, [5]) == (Fraction(5), Fraction(0), Fraction(0))

    def test_inconsistent(self):
        a = M(Q, [[1, 0], [1, 0]])
        assert solve_particular(a, [1, 2]) is None


# -- the elimination against the independent oracle -------------------------


@st.composite
def oracle_matrix(draw, field=None, cols=None, height=None):
    """A field and a matrix of up to 6 x 8 over it, as plain rows: entries
    are often zero, rationals are often not integers, and zero and repeated
    rows are common.  Zero rows or zero columns are allowed.  ``height``
    fixes the number of rows."""
    if field is None:
        field = draw(st.sampled_from([Q, F2, F5]))
    if cols is None:
        cols = draw(st.integers(0, 8))
    if field.is_rational:
        nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        nonzero = st.integers(1, field.characteristic - 1)
    entry = st.one_of(st.just(0), nonzero).map(field.coerce)
    row = st.lists(entry, min_size=cols, max_size=cols)
    size = {"max_size": 6} if height is None else {"min_size": height, "max_size": height}
    rows = draw(st.lists(st.one_of(row, st.just([field.zero] * cols)), **size))
    if height is None and rows and len(rows) < 6 and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    return field, cols, rows


def _matrix(field, cols, rows):
    return Matrix.from_rows(field, rows) if rows else Matrix.zeros(field, 0, cols)


class TestAgainstOracle:
    @given(oracle_matrix())
    @settings(max_examples=200, deadline=None)
    def test_rref(self, case):
        field, cols, rows = case
        red, pivots = rref(_matrix(field, cols, rows))
        want, want_pivots = gauss_rref(rows, field.characteristic)
        assert red.rows_list() == want
        assert list(pivots) == want_pivots

    @given(oracle_matrix())
    @settings(max_examples=200, deadline=None)
    def test_nullspace(self, case):
        field, cols, rows = case
        got = nullspace(_matrix(field, cols, rows)).basis.rows_list()
        assert got == null_basis(rows, cols, field.characteristic)

    @given(oracle_matrix())
    @settings(max_examples=200, deadline=None)
    def test_from_vectors(self, case):
        field, cols, rows = case
        got = Subspace.from_vectors(field, cols, rows).basis.rows_list()
        assert got == basis_rows(rows, field.characteristic)

    @given(oracle_matrix(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_solve_particular(self, case, data):
        field, cols, rows = case
        rhs = data.draw(st.lists(st.integers(-2, 2).map(field.coerce),
                                 min_size=len(rows), max_size=len(rows)))
        got = solve_particular(_matrix(field, cols, rows), rhs)
        red, pivots = gauss_rref([r + [b] for r, b in zip(rows, rhs)], field.characteristic)
        if cols in pivots:
            assert got is None
        else:
            want = [field.zero] * cols
            for r, pc in enumerate(pivots):
                want[pc] = red[r][cols]
            assert list(got) == want

    @given(oracle_matrix(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_intersect(self, case, data):
        field, cols, rows = case
        other = data.draw(oracle_matrix(field, cols))[2]
        got = Subspace.from_vectors(field, cols, rows).intersect(
            Subspace.from_vectors(field, cols, other))
        # x = sum a_i A_i = sum b_j B_j: solve for (a, b), one equation per coordinate.
        p = field.characteristic
        a, b = basis_rows(rows, p), basis_rows(other, p)
        equations = [[r[j] for r in a] + [-r[j] for r in b] for j in range(cols)]
        coeffs = null_basis(equations, len(a) + len(b), p) if a and b else []
        meets = [[sum(c[i] * a[i][j] for i in range(len(a))) for j in range(cols)] for c in coeffs]
        assert got.basis.rows_list() == basis_rows(meets, p)

    # Matrix arithmetic against the same operations on nested lists.

    @given(oracle_matrix())
    @settings(max_examples=200, deadline=None)
    def test_dense_round_trip_and_transpose(self, case):
        field, cols, rows = case
        m = _matrix(field, cols, rows)
        assert m.shape == (len(rows), cols)
        assert m.data == tuple(map(tuple, rows)) and m.rows_list() == rows
        assert Matrix.from_rows(field, rows).data == m.data
        assert m.transpose().rows_list() == [[r[j] for r in rows] for j in range(cols)]
        assert m == m.transpose().transpose() == _matrix(field, cols, [list(r) for r in rows])

    @given(oracle_matrix(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_sum_difference_and_equality(self, case, data):
        field, cols, rows = case
        other = data.draw(oracle_matrix(field, cols, len(rows)))[2]
        a, b, p = _matrix(field, cols, rows), _matrix(field, cols, other), field.characteristic
        assert (a + b).rows_list() == [[_mod(x + y, p) for x, y in zip(r, s)] for r, s in zip(rows, other)]
        assert (a - b).rows_list() == [[_mod(x - y, p) for x, y in zip(r, s)] for r, s in zip(rows, other)]
        assert (-a).rows_list() == [[_mod(-x, p) for x in r] for r in rows]
        assert (a == b) == (rows == other)

    @given(oracle_matrix(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_product_and_apply(self, case, data):
        field, cols, rows = case
        right = data.draw(oracle_matrix(field, height=cols))
        p, inner = field.characteristic, right[2]
        got = _matrix(field, cols, rows) @ _matrix(*right)
        assert got.shape == (len(rows), right[1])
        assert got.rows_list() == [[_mod(sum(r[t] * inner[t][j] for t in range(cols)), p)
                                    for j in range(right[1])] for r in rows]
        vec = data.draw(oracle_matrix(field, cols, 1))[2][0]
        assert _matrix(field, cols, rows).apply(vec) == tuple(
            _mod(sum(x * y for x, y in zip(r, vec)), p) for r in rows)

    @given(oracle_matrix(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_tensor(self, case, data):
        field, cols, rows = case
        _, b_cols, b_rows = data.draw(oracle_matrix(field))
        got = tensor(_matrix(field, cols, rows), _matrix(field, b_cols, b_rows))
        assert got.shape == (len(rows) * len(b_rows), cols * b_cols)
        assert got.rows_list() == [[_mod(x * y, field.characteristic) for x in r for y in s]
                                   for r in rows for s in b_rows]


def _mod(x, p):
    return x % p if p else x


class TestApplyCoercesInput:
    def test_negative_entry_over_f5(self):
        assert M(F5, [[1, 2], [0, 3]]).apply([-1, 1]) == (1, 3)

    def test_fraction_over_f5_reads_as_a_residue(self):
        # 1/2 is 3 in F5.
        assert M(F5, [[1, 1]]).apply([Fraction(1, 2), 0]) == (3,)

    def test_string_over_q(self):
        assert M(Q, [[2, 0]]).apply(["1/3", "5"]) == (Fraction(2, 3),)


class TestEchelon:
    def test_insert_returns_the_remainder(self):
        e = Echelon(F5, 3)
        assert e.insert({0: 2, 1: 1}) == {0: 2, 1: 1}
        assert e.insert({0: 4, 1: 2}) == {}
        assert e.rows == {0: {0: 1, 1: 3}} and e.dim == 1

    def test_canonical_back_substitutes(self):
        e = Echelon(Q, 3, [{0: 1, 1: 1, 2: 1}, {1: 2, 2: Fraction(1, 2)}])
        assert e.canonical() == [{0: 1, 2: Fraction(3, 4)}, {1: 1, 2: Fraction(1, 4)}]

    def test_kernel_and_free_generators(self):
        e = Echelon(Q, 3, [{0: 1, 1: 2}])
        assert e.free_generators() == {1: {1: 1, 0: -2}, 2: {2: 1}}
        assert e.kernel() == nullspace(M(Q, [[1, 2, 0]]))
