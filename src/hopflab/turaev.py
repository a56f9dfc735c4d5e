"""Hopf group-algebras, Hopf group-coalgebras, dagger duality and the
group-graded duality between degreewise primitives and indecomposables.

A *Hopf group-algebra* over a finite group G is a family of coalgebras H_g
with graded multiplications ``mu[g][h] : H_g (x) H_h -> H_{gh}`` (coalgebra
morphisms), a unit in H_e, and antipodes ``S_g : H_g -> H_{g^-1}``.  A *Hopf
group-coalgebra* is the dual notion: a family of algebras with co-graded
comultiplications ``delta[g][h] : H_{gh} -> H_g (x) H_h``, a counit on H_e,
and antipodes ``S_g : H_{g^-1} -> H_g``.  Componentwise linear dualization
(``dagger``) exchanges the two notions and is an involution at this locally
finite level.

All groups here are finite with elements indexed 0..n-1, index 0 the
identity; the multiplication table is the single source of truth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import InvalidStructureError, InvariantViolation, ShapeError
from .fields import FieldSpec, same_field
from .hopf import (
    AlgebraSC,
    CoalgebraSC,
    HopfAlgebraSC,
    check_algebra,
    check_coalgebra,
    dual_hopf,
    dual_name,
    read_sparse,
    require_valid,
)
from .lie import LieAlgebraSC, LieCoalgebraSC, check_lie_coalgebra
from .linalg import Matrix, Subspace, nullspace, solve_particular
from .primitives import (
    IndecomposableSpace,
    alpha_clauses,
    indecomposables,
    primitives,
    restricted_bracket,
)
from . import sparse
from .report import AxiomCheck, VerificationReport, matrix_axiom


# -- finite groups -------------------------------------------------------------


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group by its multiplication table of element indices."""

    order: int
    table: Tuple[Tuple[int, ...], ...]
    identity: Optional[int]
    inverse: Tuple[Optional[int], ...]
    element_names: Tuple[str, ...]

    def __post_init__(self) -> None:
        _check_table(self.order, self.table)
        if len(self.element_names) != self.order or len(self.inverse) != self.order:
            raise ShapeError("names/inverses must list one entry per element")

    @staticmethod
    def from_table(table, names=None) -> "FiniteGroup":
        from .serialize import _read

        tbl = tuple(tuple(_read(x, "group table entry") for x in row) for row in table)
        n = len(tbl)
        _check_table(n, tbl)
        names = (tuple(f"g{i}" for i in range(n)) if names is None
                 else _read(names, "group names", str))
        identity = None
        for e in range(n):
            if all(tbl[e][a] == a and tbl[a][e] == a for a in range(n)):
                identity = e
                break
        inverse: List[Optional[int]] = [None] * n
        if identity is not None:
            for a in range(n):
                inv = next(
                    (b for b in range(n) if tbl[a][b] == identity and tbl[b][a] == identity),
                    None,
                )
                inverse[a] = inv
        return FiniteGroup(n, tbl, identity, tuple(inverse), names)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        b = self.inverse[a]
        if b is None:
            raise InvalidStructureError(f"element {a} has no inverse")
        return b

    def elements(self) -> range:
        return range(self.order)


def _check_table(n: int, table) -> None:
    if len(table) != n or any(len(r) != n for r in table):
        raise ShapeError("multiplication table must be order x order")
    if any(not 0 <= x < n for r in table for x in r):
        raise ShapeError(f"multiplication table entries must lie in range({n})")


def check_group(g: FiniteGroup) -> VerificationReport:
    rep = VerificationReport("group")
    n = g.order
    bad = next(
        (
            (a, b, c)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if g.table[g.table[a][b]][c] != g.table[a][g.table[b][c]]
        ),
        None,
    )
    if bad is None:
        rep.add(AxiomCheck("associativity", True))
    else:
        a, b, c = bad
        rep.add(
            AxiomCheck(
                "associativity",
                False,
                {"triple": [g.element_names[a], g.element_names[b], g.element_names[c]]},
            )
        )
    rep.add(AxiomCheck("closure", True))  # FiniteGroup rejects entries outside range(order)
    if g.identity is None:
        rep.add(AxiomCheck("identity", False, {"reason": "no two-sided identity"}))
    else:
        rep.add(AxiomCheck("identity", True))
    missing = [a for a in range(n) if g.inverse[a] is None]
    if missing:
        rep.add(AxiomCheck("inverses", False, {"elements": [g.element_names[a] for a in missing]}))
    else:
        rep.add(AxiomCheck("inverses", True))
    return rep


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    names = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    return FiniteGroup.from_table(table, names)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on {0..n-1}; elements sorted lexicographically, identity first."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    names = ["s" + "".join(str(i) for i in p) for p in perms]
    return FiniteGroup.from_table(table, names)


def trivial_group() -> FiniteGroup:
    return FiniteGroup.from_table([[0]], ["e"])


# -- graded Hopf structures ----------------------------------------------------


class _GradedFamily:
    """What the two graded classes share.  A group-coalgebra's structure maps
    have the transposed shapes of a group-algebra's (``_DUAL``), so one
    validator serves both; ``_MAPS`` names the graded maps and the (co)unit."""

    _MAPS: Tuple[str, str]
    _DUAL: bool

    def __post_init__(self) -> None:
        grp = self.group
        if grp.identity is None or any(i is None for i in grp.inverse):
            raise InvalidStructureError("group table is not a group")
        dims = self.dims
        if len(self.components) != grp.order or len(self.antipodes) != grp.order:
            raise ShapeError("one component and one antipode per group element")
        same_field(self.field, *(c.field for c in self.components))
        if any(c.parity is not None for c in self.components):
            raise ShapeError("graded structures are plain (no component parities)")

        def need(what: str, m: Matrix, shape: Tuple[int, int]) -> None:
            shape = shape[::-1] if self._DUAL else shape
            if m.shape != shape:
                raise ShapeError(f"{what} must be {shape}, got {m.shape}")

        graded, point = self._MAPS
        for g in grp.elements():
            for h in grp.elements():
                need(f"{graded}[{g}][{h}]", getattr(self, graded)[g][h],
                     (dims[grp.mul(g, h)], dims[g] * dims[h]))
        need(point, getattr(self, point), (dims[grp.identity], 1))
        for g in grp.elements():
            need(f"antipode[{g}]", self.antipodes[g], (dims[grp.inv(g)], dims[g]))

    @property
    def field(self) -> FieldSpec:
        return self.components[0].field

    @property
    def dims(self) -> Tuple[int, ...]:
        return tuple(c.dim for c in self.components)


@dataclass(frozen=True)
class HopfGroupAlgebra(_GradedFamily):
    """Family of coalgebras with graded multiplications and antipodes."""

    group: FiniteGroup
    components: Tuple[CoalgebraSC, ...]
    graded_mult: Tuple[Tuple[Matrix, ...], ...]  # [g][h]: H_g (x) H_h -> H_{gh}
    unit: Matrix  # dim(H_e) x 1
    antipodes: Tuple[Matrix, ...]  # [g]: H_g -> H_{g^-1}

    _MAPS = ("graded_mult", "unit")
    _DUAL = False


@dataclass(frozen=True)
class HopfGroupCoalgebra(_GradedFamily):
    """Family of algebras with co-graded comultiplications and antipodes."""

    group: FiniteGroup
    components: Tuple[AlgebraSC, ...]
    graded_comult: Tuple[Tuple[Matrix, ...], ...]  # [g][h]: H_{gh} -> H_g (x) H_h
    counit: Matrix  # 1 x dim(H_e)
    antipodes: Tuple[Matrix, ...]  # [g]: H_{g^-1} -> H_g

    _MAPS = ("graded_comult", "counit")
    _DUAL = True


# The group-coalgebra axiom that each group-algebra axiom of its dagger transposes.
_DUAL_NAMES = {
    "assoc": "coassoc",
    "unit": "counit",
    "mult_coalg_morphism": "comult_alg_morphism",
    "mult_counit": "comult_unit",
    "unit_coalg_morphism": "counit_alg_morphism",
    "unit_counit": "counit_unit",
}


def check_hopf_group_algebra(h: HopfGroupAlgebra) -> VerificationReport:
    rep = VerificationReport("hopf-group-algebra")
    return _hopf_group_axioms(rep, h, h.components, check_coalgebra, dual=False)


def check_hopf_group_coalgebra(h: HopfGroupCoalgebra) -> VerificationReport:
    """The axioms of ``dagger(h)``, which are those of ``h`` transposed,
    reported under the coalgebra names and positions."""
    rep = VerificationReport("hopf-group-coalgebra")
    return _hopf_group_axioms(rep, dagger(h, validate=False), h.components, check_algebra, dual=True)


def _hopf_group_axioms(rep, h: HopfGroupAlgebra, components, check_component, dual: bool):
    """The axioms of the Hopf group-algebra ``h``, with ``components`` checked
    by ``check_component``.  With ``dual``, ``h`` is the dagger of the
    group-coalgebra being checked: every axiom is reported under its dual name
    with the witness on the group-coalgebra's own matrices.

    Each graded axiom is one block of the matching axiom of the total Hopf
    algebra (the direct sum of the components), so it is evaluated by the
    sparse kernel on the total's structure maps, on that block's columns
    only, in block coordinates."""
    grp = h.group
    rep.merge(check_group(grp), "group.")
    if not rep.ok:
        return rep
    nm = grp.element_names
    for g in grp.elements():
        rep.merge(check_component(components[g]), f"H[{nm[g]}].")
    names = _DUAL_NAMES if dual else {}
    dims, off, e = h.dims, _offsets(h.dims), grp.identity
    total = total_hopf(h, validate=False)
    n = total.dim
    mult, comult, unit, counit, s = read_sparse(total)
    k = sparse.Kernel(h.field, n)
    spans = [range(off[g], off[g + 1]) for g in grp.elements()]
    # Re-key a row of the total into H_g, or into H_g (x) H_g.
    into = [lambda r, t=off[g]: r - t for g in grp.elements()]
    into2 = [lambda r, t=off[g], d=dims[g]: (r // n - t) * d + r % n - t for g in grp.elements()]

    def axiom(stem, suffix, lhs, rhs):
        matrix_axiom(rep, names.get(stem, stem) + suffix, lhs, rhs, transposed=dual)

    for g, kk, l in itertools.product(grp.elements(), repeat=3):
        cols = [(a * n + b) * n + c for a in spans[g] for b in spans[kk] for c in spans[l]]
        axiom("assoc", f"[{nm[g]},{nm[kk]},{nm[l]}]",
              *k.associativity(mult, (cols, into[grp.mul(grp.mul(g, kk), l)])))
    for g in grp.elements():
        at = (spans[g], into[g])
        axiom("unit", f".right[{nm[g]}]", k.unit_right(mult, unit, at), k.identity(at))
        axiom("unit", f".left[{nm[g]}]", k.unit_left(mult, unit, at), k.identity(at))
    for g, kk in itertools.product(grp.elements(), repeat=2):
        cols = [a * n + b for a in spans[g] for b in spans[kk]]
        axiom("mult_coalg_morphism", f"[{nm[g]},{nm[kk]}]",
              *k.comult_mult(mult, comult, (cols, into2[grp.mul(g, kk)])))
        axiom("mult_counit", f"[{nm[g]},{nm[kk]}]", *k.counit_mult(mult, counit, (cols, None)))
    axiom("unit_coalg_morphism", "", *k.comult_unit(comult, unit, ([0], into2[e])))
    axiom("unit_counit", "", *k.counit_unit(unit, counit))
    for g in grp.elements():
        at = (spans[g], into[e])
        target = k.unit_counit(unit, counit, at)
        axiom("antipode", f".left[{nm[g]}]", k.antipode(mult, comult, s, True, at), target)
        axiom("antipode", f".right[{nm[g]}]", k.antipode(mult, comult, s, False, at), target)
    return rep


# -- dagger duality -------------------------------------------------------------


def dagger(h, validate: bool = True):
    """Componentwise dual: exchanges Hopf group-algebras and group-coalgebras.

    Every structure map transposes (multiplications become comultiplications
    and vice versa, unit and counit swap, antipodes transpose with source and
    target as dictated by contravariance).  Applying it twice returns the
    input bit-exactly.  Only the input is checked: the axioms of the output
    are those of the input, transposed.
    """
    if isinstance(h, HopfGroupAlgebra):
        check, out, part = check_hopf_group_algebra, HopfGroupCoalgebra, AlgebraSC
        maps = [(c.comult, c.counit) for c in h.components]
    elif isinstance(h, HopfGroupCoalgebra):
        check, out, part = check_hopf_group_coalgebra, HopfGroupAlgebra, CoalgebraSC
        maps = [(a.mult, a.unit) for a in h.components]
    else:
        raise TypeError("dagger expects a Hopf group-algebra or group-coalgebra")
    if validate:
        require_valid(h, check, "dagger input")
    graded, point = (getattr(h, name) for name in h._MAPS)
    return out(
        h.group,
        tuple(
            part(c.field, c.dim, tuple(dual_name(s) for s in c.basis_names), m.transpose(), u.transpose())
            for c, (m, u) in zip(h.components, maps)
        ),
        tuple(tuple(m.transpose() for m in row) for row in graded),
        point.transpose(),
        tuple(s.transpose() for s in h.antipodes),
    )


# -- the total Hopf algebra ------------------------------------------------------


def _offsets(dims: Tuple[int, ...]) -> Tuple[int, ...]:
    out = [0]
    for d in dims:
        out.append(out[-1] + d)
    return tuple(out)


def total_hopf(h: HopfGroupAlgebra, validate: bool = True) -> HopfAlgebraSC:
    """The direct sum of all components as one ordinary Hopf algebra.

    The multiplication is assembled from the graded blocks, the coalgebra
    structure and antipode act blockwise; the grading is forgotten.  Only the
    input is checked: each axiom of the output is, block by block, a graded
    axiom of the input.
    """
    if validate:
        require_valid(h, check_hopf_group_algebra, "total_hopf input")
    grp, f, dims = h.group, h.field, h.dims
    off = _offsets(dims)
    n = off[-1]
    mult: sparse.Columns = [{} for _ in range(n * n)]
    comult: sparse.Columns = [{} for _ in range(n)]
    antipode: sparse.Columns = [{} for _ in range(n)]
    for g in grp.elements():
        d = dims[g]
        for k in grp.elements():
            gk = off[grp.mul(g, k)]
            for ab, col in enumerate(sparse.columns(h.graded_mult[g][k])):
                a, b = divmod(ab, dims[k])
                mult[(off[g] + a) * n + off[k] + b] = {gk + c: v for c, v in col.items()}
        for a, col in enumerate(sparse.columns(h.components[g].comult)):
            comult[off[g] + a] = {(off[g] + c // d) * n + off[g] + c % d: v for c, v in col.items()}
        for a, col in enumerate(sparse.columns(h.antipodes[g])):
            antipode[off[g] + a] = {off[grp.inv(g)] + c: v for c, v in col.items()}
    e = grp.identity
    unit = [f.zero] * off[e] + list(h.unit.col(0)) + [f.zero] * (n - off[e + 1])
    return HopfAlgebraSC(
        field=f,
        dim=n,
        basis_names=tuple(name for c in h.components for name in c.basis_names),
        mult=sparse.matrix(f, n, mult),
        unit=Matrix.column(f, unit),
        comult=sparse.matrix(f, n * n, comult),
        counit=Matrix.row_vector(f, [x for c in h.components for x in c.counit.row(0)]),
        antipode=sparse.matrix(f, n, antipode),
    )


def identity_component_hopf(h) -> HopfAlgebraSC:
    """The identity component of a graded structure as an ordinary Hopf algebra."""
    if isinstance(h, HopfGroupCoalgebra):
        return dual_hopf(identity_component_hopf(dagger(h, validate=False)), validate=False)
    if not isinstance(h, HopfGroupAlgebra):
        raise TypeError("expected a Hopf group-algebra or group-coalgebra")
    e = h.group.identity
    ce = h.components[e]
    return HopfAlgebraSC(
        field=h.field,
        dim=ce.dim,
        basis_names=ce.basis_names,
        mult=h.graded_mult[e][e],
        unit=h.unit,
        comult=ce.comult,
        counit=ce.counit,
        antipode=h.antipodes[e],
    )


def hopf_as_group_algebra(h: HopfAlgebraSC) -> HopfGroupAlgebra:
    """Embed an ordinary Hopf algebra as the single component over the trivial group.

    Graded structures carry no parities, so parity-mode inputs are rejected.
    """
    if h.parity is not None:
        raise ShapeError("graded structures are plain; strip the parity first")
    return HopfGroupAlgebra(
        group=trivial_group(),
        components=(h.coalgebra,),
        graded_mult=((h.mult,),),
        unit=h.unit,
        antipodes=(h.antipode,),
    )


def hopf_as_group_coalgebra(h: HopfAlgebraSC) -> HopfGroupCoalgebra:
    if h.parity is not None:
        raise ShapeError("graded structures are plain; strip the parity first")
    return HopfGroupCoalgebra(
        group=trivial_group(),
        components=(h.algebra,),
        graded_comult=((h.comult,),),
        counit=h.counit,
        antipodes=(h.antipode,),
    )


# -- degreewise primitives -------------------------------------------------------


@dataclass(frozen=True)
class GPrimitiveSpace:
    """The degree-g primitives of a Hopf group-coalgebra H.

    ``family_space`` holds the joint solutions (x_h) of
    ``delta[h][h'] x_{h h'} = 1_h (x) x_{h'} + x_h (x) 1_{h'}`` for all pairs,
    inside the direct sum of all components: the primitives of the Hopf
    algebra T* = dual_hopf(total_hopf(dagger H)).  ``space`` is its
    projection onto the degree-g block, with the commutator bracket of H_g
    restricted to it.  ``space_families`` gives the canonical family solution
    over each basis vector of ``space`` (the RREF-canonical preimage).
    """

    parent: HopfGroupCoalgebra
    g: int
    family_space: Subspace
    space: Subspace
    lie: LieAlgebraSC
    space_families: Matrix  # dim(space) x total_dim


def family_equations(h: HopfGroupCoalgebra) -> Matrix:
    """The stacked linear system cutting out joint primitive families, in
    definition form: one block row per ordered pair (h, h'), over unknowns in
    the direct sum of all components.

    ``g_primitives`` does not solve it; it is the reference that the tests
    compare ``family_space`` against, and ``perfbench/spans.py`` resolves it
    by name.
    """
    grp, f, dims = h.group, h.field, h.dims
    off = _offsets(dims)
    rows: List[List] = []
    for a in grp.elements():
        for b in grp.elements():
            ab = grp.mul(a, b)
            delta = h.graded_comult[a][b].data
            ua, ub = h.components[a].unit.col(0), h.components[b].unit.col(0)
            for i in range(dims[a]):
                for j in range(dims[b]):
                    row = [f.zero] * off[-1]
                    row[off[ab] : off[ab + 1]] = delta[i * dims[b] + j]
                    row[off[b] + j] = f.sub(row[off[b] + j], ua[i])
                    row[off[a] + i] = f.sub(row[off[a] + i], ub[j])
                    rows.append(row)
    return Matrix.from_rows(f, rows) if rows else Matrix.zeros(f, 0, off[-1])


def g_primitives(h: HopfGroupCoalgebra, validate: bool = True) -> Tuple[GPrimitiveSpace, ...]:
    """Primitives of a Hopf group-coalgebra in every degree, each as a Lie algebra.

    The Hopf algebra T* = dual_hopf(total_hopf(dagger h)) has the blocks
    ``delta[a][b]`` as its comultiplication, the family of component units as
    its unit and the componentwise multiplication, so the joint solution
    families are exactly P(T*).  One ``primitives(T*)`` gives the family space
    and certifies that the componentwise commutator of two families is again
    a family; each degree projects it and restricts the commutator of H_g.
    """
    if validate:
        require_valid(h, check_hopf_group_coalgebra, "g_primitives input")
    grp, f, dims = h.group, h.field, h.dims
    off = _offsets(dims)
    total = total_hopf(dagger(h, validate=False), validate=False)
    family_space = primitives(dual_hopf(total, validate=False), validate=False).space

    # Counit vanishes on the identity block of every solution family.
    e = grp.identity
    if any(h.counit.apply(row[off[e] : off[e + 1]])[0] != 0 for row in family_space.basis.data):
        raise InvariantViolation("counit does not vanish on a solution family")

    out = []
    for g in grp.elements():
        proj = [row[off[g] : off[g + 1]] for row in family_space.basis.data]
        space = Subspace.from_vectors(f, dims[g], proj)
        # The canonical family over each basis vector of the projection.
        coeff = Matrix(f, family_space.dim, dims[g], tuple(proj)).transpose()
        sols = []
        for v in space.basis.data:
            sol = solve_particular(coeff, v)
            if sol is None:
                raise InvariantViolation("projection of the family space lost a vector")
            sols.append(sol)
        space_families = Matrix(f, len(sols), family_space.dim, tuple(sols)) @ family_space.basis
        lie = restricted_bracket(h.components[g], space, f"degree-{g} primitives")
        out.append(GPrimitiveSpace(h, g, family_space, space, lie, space_families))
    return tuple(out)


# -- degreewise indecomposables ---------------------------------------------------


@dataclass(frozen=True)
class GIndecomposableSpace:
    """Images of the homogeneous blocks inside Q(total), with Lie cobrackets."""

    parent: HopfGroupAlgebra
    total: HopfAlgebraSC
    Q: IndecomposableSpace
    per_g: Tuple[Subspace, ...]  # inside Q-coordinates
    per_g_lie_co: Tuple[LieCoalgebraSC, ...]


def g_indecomposables(h: HopfGroupAlgebra, validate: bool = True) -> GIndecomposableSpace:
    """Q_g = pi(H_g) inside Q(total), with the restricted Lie cobracket.

    Also re-derives, on all basis pairs, the product rule
    ``pi(x y) = pi(x) e(y) + e(x) pi(y)`` for homogeneous x, y, which is what
    makes the degreewise duality work; failure would be an implementation bug.
    """
    if validate:
        require_valid(h, check_hopf_group_algebra, "g_indecomposables input")
    grp = h.group
    f = h.field
    dims = h.dims
    off = _offsets(dims)
    total = total_hopf(h, validate=False)
    q = indecomposables(total, validate=False)
    n = total.dim
    qdim = q.quotient.dim

    per_g = []
    for g in grp.elements():
        cols = [q.pi.col(off[g] + a) for a in range(dims[g])]
        per_g.append(Subspace.from_vectors(f, qdim, cols))

    # pi(x y) = pi(x) e(y) + e(x) pi(y) on homogeneous basis pairs.
    kt, kq = sparse.Kernel(f, n), sparse.Kernel(f, qdim)
    pi, mult = sparse.columns(q.pi), sparse.columns(total.mult)
    eps = sparse.vector(total.counit.row(0))
    for a in range(n):
        for b in range(n):
            rhs = {t: pi[a].get(t, 0) * eps.get(b, 0) + eps.get(a, 0) * pi[b].get(t, 0)
                   for t in pi[a].keys() | pi[b].keys()}
            if kt.apply(pi, mult[a * n + b]) != kt.finish(rhs):
                raise InvariantViolation("degreewise product rule for pi fails")

    per_g_lie = []
    upsilon_q = sparse.columns(q.lie_co.cobracket)
    for g in grp.elements():
        basis = [sparse.vector(v) for v in per_g[g].basis.data]
        k = len(basis)
        if k == 0:
            per_g_lie.append(LieCoalgebraSC(field=f, dim=0, cobracket=Matrix.zeros(f, 0, 0)))
            continue
        kron_mat = sparse.matrix(f, qdim * qdim, [kq.outer(x, y) for x in basis for y in basis])
        cob_cols = []
        for x in basis:
            sol = solve_particular(kron_mat, sparse.dense(f, qdim * qdim, kq.apply(upsilon_q, x)))
            if sol is None:
                raise InvariantViolation("cobracket does not restrict to a homogeneous image")
            cob_cols.append(sol)
        cob = Matrix(f, k * k, k, tuple(tuple(cob_cols[j][r] for j in range(k)) for r in range(k * k)))
        lc = LieCoalgebraSC(field=f, dim=k, cobracket=cob)
        rep = check_lie_coalgebra(lc)
        if not rep.ok:
            raise InvariantViolation("restricted cobracket fails Lie coalgebra axioms")
        per_g_lie.append(lc)

    return GIndecomposableSpace(
        parent=h, total=total, Q=q, per_g=tuple(per_g), per_g_lie_co=tuple(per_g_lie)
    )


# -- theorem verifiers -------------------------------------------------------------


@dataclass(frozen=True)
class MichTur1Certificate:
    """Record of the check that P(total) is the e-block copy of P(H_e)."""

    total_dim: int
    p_total: Subspace
    p_e_embedded: Subspace
    contained_in_e_block: bool
    spaces_equal: bool

    @property
    def verified(self) -> bool:
        return self.contained_in_e_block and self.spaces_equal

    def to_json(self) -> dict:
        from .serialize import matrix_to_json

        return {
            "certificate": "total-primitives/1",
            "total_dim": self.total_dim,
            "p_total_basis": matrix_to_json(self.p_total.basis),
            "p_e_embedded_basis": matrix_to_json(self.p_e_embedded.basis),
            "contained_in_e_block": self.contained_in_e_block,
            "spaces_equal": self.spaces_equal,
            "verified": self.verified,
        }


def mich_tur1_verify(h: HopfGroupAlgebra, validate: bool = True) -> MichTur1Certificate:
    """Certify that the primitives of the total Hopf algebra all sit in the
    identity block and coincide with the classical primitives of H_e."""
    if validate:
        require_valid(h, check_hopf_group_algebra, "mich_tur1_verify input")
    f, dims, e = h.field, h.dims, h.group.identity
    off = _offsets(dims)
    total = total_hopf(h, validate=False)
    p_total = primitives(total, validate=False)
    p_e = primitives(identity_component_hopf(h), validate=False)

    def embed(rows):
        """The span of vectors of H_e, as vectors of the direct sum."""
        before, after = (f.zero,) * off[e], (f.zero,) * (total.dim - off[e + 1])
        return Subspace.from_vectors(f, total.dim, [before + tuple(r) + after for r in rows])

    p_e_embedded = embed(p_e.space.basis.data)
    e_block = embed(Matrix.identity(f, dims[e]).data)
    contained = p_total.space.is_subspace_of(e_block)
    equal = p_total.space == p_e_embedded
    return MichTur1Certificate(
        total_dim=total.dim,
        p_total=p_total.space,
        p_e_embedded=p_e_embedded,
        contained_in_e_block=contained,
        spaces_equal=equal,
    )


@dataclass(frozen=True)
class DegreeCertificate:
    """Per-degree record for the graded duality check."""

    g: int
    name: str
    dim_p: int
    dim_q: int
    alpha: Matrix  # dim(H_g) x dim(Q_g)
    beta: Matrix  # dim(Q_g) x dim(P_g)
    image_in_primitives: bool
    injective: bool
    dims_equal: bool
    lie_morphism: bool
    beta_well_defined: bool
    beta_alpha_identity: bool
    failures: Tuple[str, ...]

    @property
    def verified(self) -> bool:
        return (
            self.image_in_primitives
            and self.injective
            and self.dims_equal
            and self.lie_morphism
            and self.beta_well_defined
            and self.beta_alpha_identity
        )

    def to_json(self) -> dict:
        from .serialize import matrix_to_json

        return {
            "degree": self.name,
            "dim_p": self.dim_p,
            "dim_q": self.dim_q,
            "alpha": matrix_to_json(self.alpha),
            "beta": matrix_to_json(self.beta),
            "clauses": {
                "image_in_primitives": self.image_in_primitives,
                "injective": self.injective,
                "dims_equal": self.dims_equal,
                "lie_morphism": self.lie_morphism,
                "beta_well_defined": self.beta_well_defined,
                "beta_alpha_identity": self.beta_alpha_identity,
            },
            "verified": self.verified,
            "failures": list(self.failures),
        }


@dataclass(frozen=True)
class GroupMichaelisCertificate:
    """Record of the degreewise duality P_g(dagger H) = Q_g(H)^* over all g.

    Also carries the two structural facts about solution families that the
    duality rests on: every component of a family is itself primitive in its
    own degree, and the counit kills the identity component.
    """

    group: FiniteGroup
    degrees: Tuple[DegreeCertificate, ...]
    family_components_primitive: bool
    family_counit_vanishes: bool

    @property
    def verified(self) -> bool:
        return (
            all(d.verified for d in self.degrees)
            and self.family_components_primitive
            and self.family_counit_vanishes
        )

    @property
    def dims(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((d.dim_p, d.dim_q) for d in self.degrees)

    def to_json(self) -> dict:
        return {
            "certificate": "group-michaelis/1",
            "group_order": self.group.order,
            "degrees": [d.to_json() for d in self.degrees],
            "family_components_primitive": self.family_components_primitive,
            "family_counit_vanishes": self.family_counit_vanishes,
            "verified": self.verified,
        }


def group_michaelis_verify(h: HopfGroupAlgebra, validate: bool = True) -> GroupMichaelisCertificate:
    """Certify the graded duality: for every degree g, the dual of Q_g(H) is
    carried isomorphically onto P_g(dagger H) by alpha(f) = f . pi_g, with
    inverse beta(p)([x]) = p(x) built from the canonical solution families."""
    if validate:
        require_valid(h, check_hopf_group_algebra, "group_michaelis_verify input")
    grp = h.group
    f = h.field
    dims = h.dims
    off = _offsets(dims)
    hd = dagger(h, validate=False)
    gind = g_indecomposables(h, validate=False)
    prims = g_primitives(hd, validate=False)

    degrees: List[DegreeCertificate] = []
    for g in grp.elements():
        pg = prims[g]
        qg = gind.per_g[g]
        k = qg.dim
        pi_g_cols = [gind.Q.pi.col(off[g] + a) for a in range(dims[g])]
        pi_hat = Matrix(
            f,
            k,
            dims[g],
            tuple(
                tuple(qg.coordinates_of(col)[i] for col in pi_g_cols) for i in range(k)
            ),
        )
        alpha = pi_hat.transpose()  # dims[g] x k
        image_ok, injective, dims_equal, lie_ok, coord_mat, failures = alpha_clauses(
            alpha, pg.space, pg.lie, gind.per_g_lie_co[g],
            f"alpha column {{t}} not a degree-{g} primitive functional",
            "dim Q_g = {q} but dim P_g = {p}",
        )

        # beta(p) evaluates p on canonical representatives of Q_g classes;
        # well-definedness means p kills everything pi_hat kills.
        reps = []
        beta_defined = True
        for j in range(k):
            target = [f.one if i == j else f.zero for i in range(k)]
            x = solve_particular(pi_hat, target)
            if x is None:
                beta_defined = False
                failures.append(f"no representative found for Q_g basis vector {j}")
                break
            reps.append(x)
        if beta_defined:
            on_fibers = pg.space.basis @ nullspace(pi_hat).basis.transpose()
            i = next((i for i, row in enumerate(on_fibers.data) if any(row)), None)
            if i is not None:
                beta_defined = False
                failures.append(f"primitive functional {i} not constant on pi_g fibers")
        if beta_defined:
            beta = Matrix(f, k, dims[g], tuple(reps)) @ pg.space.basis.transpose()
        else:
            beta = Matrix.zeros(f, k, pg.space.dim)
        beta_alpha = False
        if beta_defined and coord_mat is not None:
            beta_alpha = beta @ coord_mat == Matrix.identity(f, k)
            if not beta_alpha:
                failures.append("beta . alpha is not the identity on Q_g^*")

        degrees.append(
            DegreeCertificate(
                g=g,
                name=grp.element_names[g],
                dim_p=pg.space.dim,
                dim_q=k,
                alpha=alpha,
                beta=beta,
                image_in_primitives=image_ok,
                injective=injective,
                dims_equal=dims_equal,
                lie_morphism=lie_ok,
                beta_well_defined=beta_defined,
                beta_alpha_identity=beta_alpha,
                failures=tuple(failures),
            )
        )

    # Structural facts about solution families, checked across all degrees:
    # each component of a canonical family is itself primitive in its degree,
    # and the counit vanishes on the identity component.
    comp_primitive = True
    counit_vanishes = True
    e = grp.identity
    for pg in prims:
        for fam in pg.space_families.data:
            for idx in grp.elements():
                block = fam[off[idx] : off[idx] + dims[idx]]
                if not prims[idx].space.contains(block):
                    comp_primitive = False
            eps_val = hd.counit.apply(fam[off[e] : off[e] + dims[e]])[0]
            if eps_val != 0:
                counit_vanishes = False

    return GroupMichaelisCertificate(
        group=grp,
        degrees=tuple(degrees),
        family_components_primitive=comp_primitive,
        family_counit_vanishes=counit_vanishes,
    )
