"""Primitive elements, indecomposables, and the duality between them.

For a finite-dimensional Hopf algebra H over an exact field:

* ``primitives(H)`` solves the linear system ``Delta x = 1 (x) x + x (x) 1``
  exactly and equips the solution space P(H) with the restricted commutator
  bracket (closure is certified, not assumed).

* ``indecomposables(H)`` forms Q(H) = I / I^2 for I = ker(counit), realized
  as the quotient of H by I^2 + k.1 with the canonical projection
  ``pi(x) = [x - e(x) 1]``, and equips it with the commutator Lie cobracket
  pushed through ``pi`` (the factorization is certified).

* ``michaelis_verify(H)`` machine-checks the duality isomorphism
  P(H^*) = Q(H)^*: the map ``alpha(f) = f . pi`` is certified to land in
  P(H^*), to be injective onto a space of the right dimension, and to be a
  morphism of Lie algebras.  In parity mode the same code verifies the super
  variant.

Over a field of characteristic 0 a finite-dimensional Hopf algebra has no
nonzero primitives, so the interesting instances here live over F_p; the
characteristic-0 runs certify that both sides vanish together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .errors import InvariantViolation
from .hopf import AlgebraSC, HopfAlgebraSC, check_hopf, dual_hopf, require_valid
from .lie import (
    LieAlgebraSC,
    LieCoalgebraSC,
    check_lie,
    check_lie_coalgebra,
    cocommutator_lie_coalgebra,
    dual_lie,
    lie_morphism_check,
)
from .linalg import (
    Echelon, Matrix, QuotientSpace, Subspace, nullspace, quotient, rank, subspace_parities,
)
from . import sparse


@dataclass(frozen=True)
class PrimitiveSpace:
    """P(H) with its Lie algebra structure on the canonical basis."""

    parent: HopfAlgebraSC
    space: Subspace
    lie: LieAlgebraSC


@dataclass(frozen=True)
class IndecomposableSpace:
    """Q(H) = ker e / (ker e)^2 with its Lie coalgebra structure.

    ``pi`` maps all of H onto Q; its kernel is (ker e)^2 + k.1, so within
    ker e it annihilates exactly (ker e)^2.
    """

    parent: HopfAlgebraSC
    ker_eps: Subspace
    ker_eps_sq: Subspace
    quotient: QuotientSpace
    pi: Matrix  # dim(Q) x dim(H)
    lie_co: LieCoalgebraSC


def cocommutator_matrix(h: HopfAlgebraSC) -> Matrix:
    return cocommutator_lie_coalgebra(h.coalgebra, validate=False).cobracket


def restricted_bracket(h: AlgebraSC, space: Subspace, where: str) -> LieAlgebraSC:
    """Commutator bracket of the algebra ``h`` restricted to a subspace, with
    closure and the Lie axioms certified; ``where`` prefixes the error."""
    f, n = h.field, h.dim
    k = sparse.Kernel(f, n, h.parity)
    bracket_h = k.braided(h.mult.columns, -1)
    basis = space.vectors
    p = len(basis)
    cols = []
    for a in range(p):
        for b in range(p):
            w = k.product(bracket_h, basis[a], basis[b])
            if space.echelon.reduce(w):
                raise InvariantViolation(
                    f"{where}: bracket of basis vectors {a},{b} leaves the subspace"
                )
            cols.append(space.coordinates(w))
    lie = LieAlgebraSC(
        field=f,
        dim=p,
        bracket=Matrix(f, p, p * p, cols),
        parity=subspace_parities(space, h.parity),
    )
    rep = check_lie(lie)
    if not rep.ok:
        raise InvariantViolation(f"{where}: restricted bracket fails Lie axioms")
    return lie


def primitives(h: HopfAlgebraSC, validate: bool = True) -> PrimitiveSpace:
    """The space of x with Delta x = 1 (x) x + x (x) 1, as a Lie algebra.

    Read on the algebra H^* on the rows of Delta, x is primitive exactly when
    it is a derivation x(ab) = x(a) b(1) + a(1) x(b) (M. E. Sweedler, *Hopf
    Algebras*, 1969).  The b with that for every a are closed under the
    product, so the rows (a, s) with s in the generating set of H^* are
    solved first, and :meth:`~hopflab.sparse.Kernel.solutions` checks that
    against every row.
    """
    if validate:
        require_valid(h, check_hopf, "primitives input")
    space = _primitive_space(h)
    lie = restricted_bracket(h, space, "primitives")
    return PrimitiveSpace(parent=h, space=space, lie=lie)


def _primitive_space(h: HopfAlgebraSC) -> Subspace:
    """The solutions of Delta x = 1 (x) x + x (x) 1; the n^2 rows of the system
    are gone once it returns."""
    f, n = h.field, h.dim
    k = sparse.Kernel(f, n)
    rows = h.comult.transpose().columns
    # Row (a, b) of Delta - 1 (x) id - id (x) 1: the rows of Delta, each row
    # that the unit changes copied first.
    system = list(rows)
    for a, u in h.unit.columns[0].items():
        for j in range(n):
            for r in (a * n + j, j * n + a):
                system[r] = {**system[r], j: system[r].get(j, 0) - u}
    return k.solutions(system, [a * n + s for a in range(n) for s in k.generators(rows)])


def indecomposables(h: HopfAlgebraSC, validate: bool = True) -> IndecomposableSpace:
    """Q(H) = ker e / (ker e)^2 with the induced commutator Lie cobracket."""
    if validate:
        require_valid(h, check_hopf, "indecomposables input")
    f, n = h.field, h.dim
    k = h.kernel  # holds what check_hopf(h) certified
    mult = h.mult.columns
    ker_eps = nullspace(h.counit)
    kv = ker_eps.vectors
    # (ker e)^2 = I I for I = ker e.  When H is associative and e
    # multiplicative (both certified by ``multiplicative``), I is an ideal and
    # I = S' + H S' gives I I = I S'; otherwise all basis pairs span it.
    counit = h.counit.transpose().columns[0]
    right = k.ideal_generators(mult, kv) if k.multiplicative(mult, counit) else kv
    ker_eps_sq = Echelon(f, n, (k.product(mult, a, b) for a in kv for b in right)).subspace()
    if not ker_eps_sq.is_subspace_of(ker_eps):
        raise InvariantViolation("(ker e)^2 not contained in ker e")
    # pi(x) = [x - e(x) 1] factors through H / ((ker e)^2 + k.1); adding the
    # line k.1 to the kernel absorbs the normalization x -> x - e(x) 1.
    kernel = Echelon(f, n, [*ker_eps_sq.vectors, h.unit.columns[0]]).subspace()
    quot = quotient(n, kernel)
    pi = quot.projection
    normalize = Matrix.identity(f, n) - h.unit @ h.counit
    if pi @ normalize != pi:
        raise InvariantViolation("projection does not absorb the counit normalization")
    # upsilon_Q = (pi (x) pi) upsilon_H section, column by column on the
    # nonzeros of the cocommutator upsilon_H = Delta - c Delta.
    q, pi_cols = quot.dim, pi.columns
    # (pi (x) pi) upsilon_H
    pushed = [k.apply_pair(pi_cols, y, q) for y in cocommutator_matrix(h).columns]
    upsilon_q = [k.apply(pushed, s) for s in quot.section.columns]
    if any(k.apply(upsilon_q, x) != y for x, y in zip(pi_cols, pushed)):
        raise InvariantViolation("commutator cobracket does not factor through pi")
    q_parity = None
    if h.parity is not None:
        free = [c for c in range(n) if c not in kernel.echelon.rows]
        q_parity = tuple(h.parity[c] for c in free)
    cobracket = Matrix(f, q * q, q, upsilon_q)
    lie_co = LieCoalgebraSC(field=f, dim=q, cobracket=cobracket, parity=q_parity)
    rep = check_lie_coalgebra(lie_co)
    if not rep.ok:
        raise InvariantViolation("induced cobracket fails Lie coalgebra axioms")
    return IndecomposableSpace(
        parent=h,
        ker_eps=ker_eps,
        ker_eps_sq=ker_eps_sq,
        quotient=quot,
        pi=pi,
        lie_co=lie_co,
    )


def alpha_clauses(alpha: Matrix, p: Subspace, p_lie: LieAlgebraSC, q_lie_co: LieCoalgebraSC,
                  not_primitive: str, dims_differ: str):
    """The four duality clauses of alpha : Q^* -> P, whose columns are alpha
    of the dual basis of Q: each column lies in ``p``; alpha is injective;
    dim Q = dim P; alpha intertwines the bracket dual to ``q_lie_co`` with
    ``p_lie`` (checked only when the first and third clauses hold).  The
    failure texts are ``not_primitive.format(t=column)`` and
    ``dims_differ.format(q=dim Q, p=dim P)``.

    Returns the four verdicts, alpha in the coordinates of ``p`` (None when
    the Lie clause was not checked) and the failure texts.
    """
    q = alpha.cols
    failures: List[str] = []
    image_ok = True
    for t, col in enumerate(alpha.columns):
        if p.echelon.reduce(col):
            image_ok = False
            failures.append(not_primitive.format(t=t))
    injective = rank(alpha) == q
    if not injective:
        failures.append("alpha has a nontrivial kernel")
    dims_equal = q == p.dim
    if not dims_equal:
        failures.append(dims_differ.format(q=q, p=p.dim))
    lie_ok, coord_mat = False, None
    if image_ok and dims_equal:
        coord_mat = Matrix(alpha.field, p.dim, q, tuple(map(p.coordinates, alpha.columns)))
        lie_ok = lie_morphism_check(coord_mat, dual_lie(q_lie_co, validate=False), p_lie)
        if not lie_ok:
            failures.append("alpha does not intertwine the Lie brackets")
    return image_ok, injective, dims_equal, lie_ok, coord_mat, failures


@dataclass(frozen=True)
class MichaelisCertificate:
    """A re-verifiable record of the duality check P(H^*) = Q(H)^*.

    All matrices needed to re-run the four clauses with plain linear algebra
    are embedded: the projection ``pi``, the comparison map ``alpha`` and the
    canonical bases of both sides.
    """

    dim_p: int
    dim_q: int
    pi: Matrix
    alpha: Matrix  # dim(H) x dim(Q): columns are alpha of the dual basis of Q
    p_basis: Matrix
    q_section: Matrix
    image_in_primitives: bool
    injective: bool
    dims_equal: bool
    lie_morphism: bool
    failures: Tuple[str, ...]

    @property
    def verified(self) -> bool:
        return self.image_in_primitives and self.injective and self.dims_equal and self.lie_morphism

    def to_json(self) -> dict:
        from .serialize import matrix_to_json

        return {
            "certificate": "michaelis/1",
            "dim_p": self.dim_p,
            "dim_q": self.dim_q,
            "pi": matrix_to_json(self.pi),
            "alpha": matrix_to_json(self.alpha),
            "p_basis": matrix_to_json(self.p_basis),
            "q_section": matrix_to_json(self.q_section),
            "clauses": {
                "image_in_primitives": self.image_in_primitives,
                "injective": self.injective,
                "dims_equal": self.dims_equal,
                "lie_morphism": self.lie_morphism,
            },
            "verified": self.verified,
            "failures": list(self.failures),
        }


def michaelis_verify(h: HopfAlgebraSC, validate: bool = True) -> MichaelisCertificate:
    """Certify P(H^*) = Q(H)^* via alpha(f) = f . pi on a concrete instance.

    The isomorphism is certified as (injective + equal finite dimensions)
    together with the Lie-morphism property of alpha; a failing clause is
    reported in the certificate rather than raised, since it would be a
    counterexample to the implementation, not to the theorem.
    """
    if validate:
        require_valid(h, check_hopf, "michaelis_verify input")
    hd = dual_hopf(h, validate=False)
    p_space = primitives(hd, validate=False)
    q_space = indecomposables(h, validate=False)
    alpha = q_space.pi.transpose()
    image_ok, injective, dims_equal, lie_ok, _, failures = alpha_clauses(
        alpha, p_space.space, p_space.lie, q_space.lie_co,
        "alpha column {t} is not primitive in the dual", "dim Q = {q} but dim P(dual) = {p}",
    )
    return MichaelisCertificate(
        dim_p=p_space.space.dim,
        dim_q=q_space.quotient.dim,
        pi=q_space.pi,
        alpha=alpha,
        p_basis=p_space.space.basis,
        q_section=q_space.quotient.section,
        image_in_primitives=image_ok,
        injective=injective,
        dims_equal=dims_equal,
        lie_morphism=lie_ok,
        failures=tuple(failures),
    )
