"""Sparse evaluation of structure maps on basis tuples: the axioms and the
invariants built from them.

A structure map is read as the columns its :class:`~hopflab.linalg.Matrix`
stores, each a sparse vector ``{row: coefficient}``: column ``i * n + j`` of
a multiplication or bracket holds ``e_i e_j``, column ``i`` of a
comultiplication holds ``Delta(e_i)`` with ``e_a (x) e_b`` at ``a * n + b``.
Each axiom method of :class:`Kernel` returns a side as a zero-argument
callable, so that :func:`hopflab.report.matrix_axiom` times its evaluation.
A side yields the nonzero entries of the matrix the axiom equates, keyed by
their ``(row, col)`` position under the Kronecker index convention of
:mod:`hopflab.linalg`.  Every entry comes from one basis tuple, so no
Kronecker product or other dense intermediate is built and the cost follows
the number of nonzero structure constants.  A side is the whole matrix, with
one exception: associativity is first certified from a generating set
(Light's test, :meth:`Kernel.associativity`), and after a certified pass both
of its sides hold no entries.  Either way the two sides are equal exactly
when the axiom holds, so :mod:`hopflab.turaev` reads each graded axiom off
the entries where the sides of an axiom of the total Hopf algebra differ, as
one block of them.

Coalgebra axioms are the transposes of algebra axioms: a coalgebra is checked
by running the algebra axioms on the rows of its comultiplication (the
columns of the transposed matrix), and ``matrix_axiom(..., transposed=True)``
reports the witness on the coalgebra's matrices.  The braiding is a signed
permutation of basis tuples (:meth:`Kernel.braided`), never a matrix.

Scalars are the plain Python numbers that a matrix stores: integral
rationals are ``int`` (equal values, far cheaper arithmetic) and prime-field
residues are reduced once per finished entry.  So results go straight into a
:class:`~hopflab.linalg.Matrix` or an :class:`~hopflab.linalg.Echelon`,
which also holds the span of :meth:`Kernel.generators`.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from .fields import FieldSpec, Scalar
from .linalg import Echelon, Parity, Vector, combine, finish

Columns = Sequence[Vector]  # one sparse vector per matrix column
Entries = Dict[Tuple[int, int], Scalar]  # (row, col) -> nonzero entry
Side = Callable[[], Entries]


def zero() -> Entries:
    """The zero matrix, as a side."""
    return {}


class Kernel:
    """Sparse arithmetic on one carrier of dimension ``n`` over one field."""

    def __init__(self, field: FieldSpec, n: int, parity: Optional[Parity] = None) -> None:
        self.field, self.p = field, field.characteristic
        self.n = n
        self.odd = parity if parity is not None else (0,) * n

    def sign(self, a: int, b: int) -> int:
        """Koszul sign of moving e_a past e_b."""
        return -1 if self.odd[a] and self.odd[b] else 1

    def finish(self, acc: Dict[Hashable, Scalar]) -> dict:
        """Reduce accumulated coefficients into the field and drop zeros."""
        return finish(self.p, acc)

    def product(self, m: Columns, x: Vector, y: Vector) -> Vector:
        """The bilinear map with columns ``m`` applied to ``x (x) y``."""
        n, acc = self.n, {}
        for i, a in x.items():
            for j, b in y.items():
                ab = a * b
                for k, c in m[i * n + j].items():
                    acc[k] = acc.get(k, 0) + ab * c
        return self.finish(acc)

    def apply(self, f: Columns, x: Vector) -> Vector:
        """The linear map with columns ``f`` applied to ``x``."""
        return combine(self.p, ((a, f[i]) for i, a in x.items()))

    def apply_pair(self, f: Columns, x: Vector, width: int) -> Vector:
        """``(f (x) f) x`` for ``x`` in H (x) H, where f has ``width`` rows."""
        n, acc = self.n, {}
        for ab, v in x.items():
            a, b = divmod(ab, n)
            for s, y in f[a].items():
                for t, z in f[b].items():
                    acc[s * width + t] = acc.get(s * width + t, 0) + v * y * z
        return self.finish(acc)

    def outer(self, x: Vector, y: Vector) -> Vector:
        """``x (x) y`` in flat coordinates."""
        n = self.n
        return self.finish({a * n + b: s * t for a, s in x.items() for b, t in y.items()})

    def braided(self, b: Columns, s: int) -> Columns:
        """The columns of ``b + s * b c`` for a map ``b`` out of H (x) H and the
        braiding c: column (i, j) is b[ij] + s sign(i, j) b[ji].  With s = -1
        this is the commutator of a multiplication, and, run on the rows of a
        comultiplication, the rows of its cocommutator."""
        return [self._braided_column(b, s, ij) for ij in range(self.n * self.n)]

    def _braided_column(self, b: Columns, s: int, ij: int) -> Vector:
        i, j = divmod(ij, self.n)
        acc = dict(b[ij])
        sg = s * self.sign(i, j)
        for k, v in b[j * self.n + i].items():
            acc[k] = acc.get(k, 0) + sg * v
        return self.finish(acc)

    def side(self, column: Callable[[int], Vector], count: int) -> Side:
        """The side whose column ``c < count`` is ``column(c)``."""
        return lambda: {(r, c): v for c in range(count) for r, v in column(c).items()}

    def identity(self) -> Side:
        """The identity matrix, as a side."""
        return self.side(lambda i: {i: 1}, self.n)

    # -- algebra axioms ----------------------------------------------------------

    def generators(self, m: Columns) -> List[int]:
        """Basis indices S whose left-normed products under ``m`` span the carrier,
        chosen greedily in basis order: each index not in the span of the
        products of those before it."""
        span, gens = Echelon(self.field, self.n), []
        for t in range(self.n):
            if span.dim == self.n:
                break
            if not span.reduce({t: 1}):
                continue
            gens.append(t)
            queue = [{t: 1}, *(self.product(m, w, {t: 1}) for w in span.rows.values())]
            while queue and span.dim < self.n:
                if v := span.insert(queue.pop()):
                    queue.extend(self.product(m, v, {s: 1}) for s in gens)
        return gens

    def associativity(self, m: Columns) -> Tuple[Side, Side]:
        """m (m (x) id) against m (id (x) m); column (i, j, l) is e_i e_j e_l.

        The sides first run Light's test (A. H. Clifford and G. B. Preston, *The
        Algebraic Theory of Semigroups* I, 1961).  The middle factors y with
        (xy)z = x(yz) for all basis x, z form a subspace closed under ``m``,
        even when ``m`` is not associative.  So if it contains the
        :meth:`generators` S, whose products span the carrier, the axiom
        holds: the columns (i, s, l) with s in S certify it.  They are
        compared n at a time, as the associator of e_i and e_s, so no side is
        built on a pass.  After a certified pass both sides are empty, the
        zero matrix; otherwise each is the whole matrix, and the sides differ
        exactly where the axiom fails.
        """
        n = self.n
        full = (self.side(lambda c: self.product(m, m[c // n], {c % n: 1}), n ** 3),
                self.side(lambda c: self.product(m, {c // (n * n): 1}, m[c % (n * n)]), n ** 3))

        @functools.cache
        def certified() -> bool:
            return not any(self._associator(m, i, s) for s in self.generators(m) for i in range(n))

        return tuple((lambda side=side: {} if certified() else side()) for side in full)

    def _associator(self, m: Columns, i: int, j: int) -> Dict[Tuple[int, int], Scalar]:
        """The nonzero entries (r, l) of (e_i e_j) e_l - e_i (e_j e_l), over all l."""
        n, acc = self.n, {}
        for k, a in m[i * n + j].items():
            for l in range(n):
                for r, c in m[k * n + l].items():
                    acc[r, l] = acc.get((r, l), 0) + a * c
        for l in range(n):
            for k, b in m[j * n + l].items():
                for r, c in m[i * n + k].items():
                    acc[r, l] = acc.get((r, l), 0) - b * c
        return self.finish(acc)

    def unit_left(self, m: Columns, unit: Vector) -> Side:
        """m (u (x) id): column j is u e_j."""
        return self.side(lambda j: self.product(m, unit, {j: 1}), self.n)

    def unit_right(self, m: Columns, unit: Vector) -> Side:
        """m (id (x) u): column i is e_i u."""
        return self.side(lambda i: self.product(m, {i: 1}, unit), self.n)

    # -- bialgebra and Hopf axioms -----------------------------------------------

    def comult_mult(self, m: Columns, d: Columns) -> Tuple[Side, Side]:
        """Delta m against (m (x) m)(id (x) c (x) id)(Delta (x) Delta); column (i, j).

        The right side multiplies Delta(e_i) by Delta(e_j) in H (x) H, where
        (x (x) y)(p (x) q) = sign(y, p) xp (x) yq.
        """
        n = self.n

        def rhs_column(ij: int) -> Vector:
            i, j = divmod(ij, n)
            acc: Vector = {}
            for xy, a in d[i].items():
                x, y = divmod(xy, n)
                for pq, b in d[j].items():
                    p, q = divmod(pq, n)
                    ab = self.sign(y, p) * a * b
                    yq = m[y * n + q]
                    for s, c in m[x * n + p].items():
                        for t, e in yq.items():
                            acc[s * n + t] = acc.get(s * n + t, 0) + ab * c * e
            return self.finish(acc)

        return self.side(lambda ij: self.apply(d, m[ij]), n * n), self.side(rhs_column, n * n)

    def comult_unit(self, d: Columns, unit: Vector) -> Tuple[Side, Side]:
        """Delta u against u (x) u."""
        return (self.side(lambda _: self.apply(d, unit), 1),
                self.side(lambda _: self.outer(unit, unit), 1))

    def counit_mult(self, m: Columns, counit: Vector) -> Tuple[Side, Side]:
        """e m against e (x) e; column (i, j)."""
        n, eps = self.n, counit.get
        lhs = lambda ij: self.finish({0: sum(eps(k, 0) * c for k, c in m[ij].items())})
        rhs = lambda ij: self.finish({0: eps(ij // n, 0) * eps(ij % n, 0)})
        return self.side(lhs, n * n), self.side(rhs, n * n)

    def counit_unit(self, unit: Vector, counit: Vector) -> Tuple[Side, Side]:
        """e u against 1."""
        value = lambda _: self.finish({0: sum(x * counit.get(k, 0) for k, x in unit.items())})
        return self.side(value, 1), self.side(lambda _: {0: 1}, 1)

    def antipode(self, m: Columns, d: Columns, s: Columns, left: bool) -> Side:
        """m (S (x) id) Delta when ``left``, else m (id (x) S) Delta; column i."""
        n = self.n

        def column(i: int) -> Vector:
            acc: Vector = {}
            for xy, c in d[i].items():
                x, y = divmod(xy, n)
                term = self.product(m, s[x], {y: 1}) if left else self.product(m, {x: 1}, s[y])
                for k, v in term.items():
                    acc[k] = acc.get(k, 0) + c * v
            return self.finish(acc)

        return self.side(column, n)

    def unit_counit(self, unit: Vector, counit: Vector) -> Side:
        """u e, the target of both antipode axioms; column i."""
        return self.side(lambda i: self.finish({a: x * counit.get(i, 0) for a, x in unit.items()}),
                         self.n)

    # -- Lie axioms --------------------------------------------------------------

    def antisymmetry(self, b: Columns) -> Side:
        """[-,-](id + c): column (i, j) is [e_i, e_j] + sign(i, j) [e_j, e_i]."""
        return self.side(lambda ij: self._braided_column(b, 1, ij), self.n * self.n)

    def jacobi(self, b: Columns) -> Side:
        """[-,-](id (x) [-,-])(id + t_c + w_c); column (i, j, l).

        The column is the signed sum over the three cyclic orders
        [e_i,[e_j,e_l]] + sign(i,l) sign(j,l) [e_l,[e_i,e_j]]
        + sign(i,j) sign(i,l) [e_j,[e_l,e_i]].
        """
        n = self.n

        def lhs() -> Entries:
            nested = [self.product(b, {c // (n * n): 1}, b[c % (n * n)]) for c in range(n ** 3)]

            def column(c: int) -> Vector:
                i, jl = divmod(c, n * n)
                j, l = divmod(jl, n)
                acc = dict(nested[c])
                for sg, term in (
                    (self.sign(i, l) * self.sign(j, l), nested[(l * n + i) * n + j]),
                    (self.sign(i, j) * self.sign(i, l), nested[(j * n + l) * n + i]),
                ):
                    for k, v in term.items():
                        acc[k] = acc.get(k, 0) + sg * v
                return self.finish(acc)

            return self.side(column, n ** 3)()

        return lhs
