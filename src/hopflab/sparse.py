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
three exceptions: associativity, Delta(xy) = Delta(x)Delta(y) and e(xy) =
e(x)e(y) are first certified from a generating set S of the algebra
(:meth:`Kernel.certified`), and after a certified pass both of their sides
hold no entries.  Either way the two sides are equal exactly when the axiom
holds, so :mod:`hopflab.turaev` reads each graded axiom off the entries where
the sides of an axiom of the total Hopf algebra differ, as one block of them.

The certificates rest on one fact: if the y that satisfy a condition on
(x, y) for every x form a subspace closed under the product, the pairs (x, s)
with s in S decide it.  Besides the three axioms, the primitivity and
integral systems, (ker e)^2 and the degreewise product rule are read off S
this way, each falling back to all pairs when its certificate fails.

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
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .fields import FieldSpec, Scalar
from .linalg import Echelon, Parity, Subspace, Vector, combine, finish

Columns = Sequence[Vector]  # one sparse vector per matrix column
Entries = Dict[Tuple[int, int], Scalar]  # (row, col) -> nonzero entry
Side = Callable[[], Entries]
T = TypeVar("T")


def zero() -> Entries:
    """The zero matrix, as a side."""
    return {}


class Kernel:
    """Sparse arithmetic on one carrier of dimension ``n`` over one field."""

    def __init__(self, field: FieldSpec, n: int, parity: Optional[Parity] = None) -> None:
        self.field, self.p = field, field.characteristic
        self.n = n
        self.odd = parity if parity is not None else (0,) * n
        self._found: Dict[Tuple[str, int], tuple] = {}  # (what, id(m)) -> (m, found)

    def _once(self, what: str, m: Columns, find: Callable[[], T]) -> T:
        """``find()``, run once per ``what`` and map ``m`` (held, so its id stays unique)."""
        key = (what, id(m))
        if key not in self._found:
            self._found[key] = (m, find())
        return self._found[key][1]

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

    # -- generating-set certificates ---------------------------------------------

    def generators(self, m: Columns) -> List[int]:
        """Basis indices S whose left-normed products under ``m`` span the carrier,
        chosen greedily in basis order: each index not in the span of the
        products of those before it.  Found once per ``m``."""
        def search() -> List[int]:
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

        return self._once("generators", m, search)

    def associative(self, m: Columns) -> bool:
        """Whether Light's test certifies ``m`` associative (A. H. Clifford and
        G. B. Preston, *The Algebraic Theory of Semigroups* I, 1961), run once
        per ``m``.  The y with (xy)z = x(yz) for all basis x, z form a subspace
        closed under ``m``, so the associators of e_i and e_s, s in the
        :meth:`generators`, decide the axiom.  They run over the nonzero
        products only."""
        def light() -> bool:
            n = self.n
            # The nonzero products (l, e_k e_l) of each left factor e_k.
            by_left = [[(l, col) for l in range(n) if (col := m[k * n + l])] for k in range(n)]
            return not any(self._associator(m, by_left, i, s)
                           for s in self.generators(m) for i in range(n))

        return self._once("associative", m, light)

    def parity_even(self, m: Columns) -> bool:
        """Whether every e_i e_j has parity |i| + |j| (always so without parities)."""
        n, odd = self.n, self.odd
        return not any(odd) or all(odd[k] == odd[ij // n] ^ odd[ij % n]
                                   for ij, col in enumerate(m) for k in col)

    def decided(self, m: Columns, lhs: Callable[[int], Vector], rhs: Callable[[int], Vector]) -> bool:
        """Whether columns ``lhs(c) == rhs(c)`` for every c = (i, j) is certified
        from the columns (i, s), s in the :meth:`generators` of ``m``.  The y
        with the equation at (x, y) for every x must form a subspace closed
        under an associative product; the certificate also needs ``m``
        parity-even, since only then is the signed product on H (x) H
        associative."""
        n = self.n
        return (self.associative(m) and self.parity_even(m) and all(
            lhs(i * n + s) == rhs(i * n + s) for s in self.generators(m) for i in range(n)))

    def certified(self, full: Tuple[Side, Side], passed: Callable[[], bool]) -> Tuple[Side, Side]:
        """An axiom's sides: both empty when ``passed()`` (run at most once)
        certifies it, otherwise the whole sides ``full``."""
        once = functools.cache(passed)
        return tuple((lambda side=side: {} if once() else side()) for side in full)

    def solutions(self, rows: Sequence[Vector], keep: Sequence[int]) -> Subspace:
        """The canonical space {x : r . x = 0 for every r in ``rows``}, solved from
        the rows ``keep`` when each basis vector of their solution satisfies
        every row, which assumes nothing about the rows, else from all rows."""
        space = Echelon(self.field, self.n, (rows[r] for r in keep)).kernel()
        basis = space.vectors
        if basis and len(keep) < len(rows):
            dot = lambda row, v: self.finish({0: sum(x * v.get(k, 0) for k, x in row.items())})
            if any(dot(row, v) for row in rows if row for v in basis):
                return Echelon(self.field, self.n, rows).kernel()
        return space

    def ideal_generators(self, m: Columns, vectors: Iterable[Vector]) -> List[Vector]:
        """Members S' of ``vectors``, greedily in order, such that S' and the
        e_h s, s in S', span them all: if they span a left ideal I, I = S' + H S'."""
        span, gens = Echelon(self.field, self.n), []
        for v in vectors:
            if span.reduce(v):
                gens.append(v)
                span.insert(v)
                for h in range(self.n):
                    span.insert(self.product(m, {h: 1}, v))
        return gens

    # -- algebra axioms ----------------------------------------------------------

    def associativity(self, m: Columns) -> Tuple[Side, Side]:
        """m (m (x) id) against m (id (x) m); column (i, j, l) is e_i e_j e_l,
        :meth:`certified` by :meth:`associative`."""
        n = self.n
        full = (self.side(lambda c: self.product(m, m[c // n], {c % n: 1}), n ** 3),
                self.side(lambda c: self.product(m, {c // (n * n): 1}, m[c % (n * n)]), n ** 3))
        return self.certified(full, lambda: self.associative(m))

    def _associator(self, m: Columns, by_left: list, i: int, j: int) -> Dict[Tuple[int, int], Scalar]:
        """The nonzero entries (r, l) of (e_i e_j) e_l - e_i (e_j e_l), over all
        l; ``by_left[k]`` lists the nonzero products e_k e_l."""
        n, acc = self.n, {}
        for k, a in m[i * n + j].items():
            for l, col in by_left[k]:
                for r, c in col.items():
                    acc[r, l] = acc.get((r, l), 0) + a * c
        for l, col in by_left[j]:
            for k, b in col.items():
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
        (x (x) y)(p (x) q) = sign(y, p) xp (x) yq.  :meth:`decided` from the
        columns (i, s): Delta(x(yz)) = Delta(xy)Delta(z) = Delta(x)Delta(yz).
        """
        n = self.n

        def lhs_column(ij: int) -> Vector:
            return self.apply(d, m[ij])

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

        return self.certified((self.side(lhs_column, n * n), self.side(rhs_column, n * n)),
                              lambda: self.decided(m, lhs_column, rhs_column))

    def comult_unit(self, d: Columns, unit: Vector) -> Tuple[Side, Side]:
        """Delta u against u (x) u."""
        return (self.side(lambda _: self.apply(d, unit), 1),
                self.side(lambda _: self.outer(unit, unit), 1))

    def _counit_columns(self, m: Columns, counit: Vector) -> Tuple[Callable, Callable]:
        """Column (i, j) of e m and of e (x) e."""
        n, eps = self.n, counit.get
        return (lambda ij: self.finish({0: sum(eps(k, 0) * c for k, c in m[ij].items())}),
                lambda ij: self.finish({0: eps(ij // n, 0) * eps(ij % n, 0)}))

    def multiplicative(self, m: Columns, counit: Vector) -> bool:
        """Whether e(xy) = e(x)e(y) is :meth:`decided` from the columns (i, s)."""
        return self.decided(m, *self._counit_columns(m, counit))

    def counit_mult(self, m: Columns, counit: Vector) -> Tuple[Side, Side]:
        """e m against e (x) e; column (i, j), :meth:`certified` by
        :meth:`multiplicative`."""
        n2 = self.n * self.n
        lhs, rhs = self._counit_columns(m, counit)
        return self.certified((self.side(lhs, n2), self.side(rhs, n2)),
                              lambda: self.multiplicative(m, counit))

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
