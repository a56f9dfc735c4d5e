"""Lie algebras and Lie coalgebras by structure constants.

A Lie algebra is a bracket matrix ``[-,-] : L (x) L -> L`` (dim x dim^2)
satisfying, as exact matrix identities,

    antisymmetry   [-,-] (id + c) = 0
    Jacobi         [-,-] (id (x) [-,-]) (id + t_c + w_c) = 0

where ``c`` is the symmetry of ``L (x) L`` and ``t_c``, ``w_c`` are the two
3-cycles on ``L (x) L (x) L`` built from it.  A Lie coalgebra is the formal
dual: a cobracket ``Y : C -> C (x) C`` with the transposed axioms.  With a
parity vector the symmetry carries Koszul signs and the same formulas define
Lie superalgebras.  The checks evaluate both identities on basis tuples
(:mod:`hopflab.sparse`); a Lie coalgebra is checked as the Lie algebra of its
transposed cobracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import InvalidStructureError, ShapeError
from .fields import FieldSpec, same_field
from .hopf import AlgebraSC, CoalgebraSC, check_algebra, check_coalgebra, default_names, require_valid, tensor_label
from .linalg import Matrix, Parity, tensor
from . import sparse
from .report import VerificationReport, matrix_axiom


@dataclass(frozen=True)
class LieAlgebraSC:
    field: FieldSpec
    dim: int
    bracket: Matrix  # dim x dim^2
    parity: Optional[Parity] = None
    basis_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        n = self.dim
        if self.bracket.shape != (n, n * n):
            raise ShapeError(f"bracket must be {n}x{n * n}, got {self.bracket.shape}")
        same_field(self.field, self.bracket.field)
        if self.parity is not None and len(self.parity) != n:
            raise ShapeError("parity length does not match dim")

    @property
    def names(self) -> Tuple[str, ...]:
        return self.basis_names if self.basis_names is not None else default_names(self.dim)


@dataclass(frozen=True)
class LieCoalgebraSC:
    field: FieldSpec
    dim: int
    cobracket: Matrix  # dim^2 x dim
    parity: Optional[Parity] = None
    basis_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        n = self.dim
        if self.cobracket.shape != (n * n, n):
            raise ShapeError(f"cobracket must be {n * n}x{n}, got {self.cobracket.shape}")
        same_field(self.field, self.cobracket.field)
        if self.parity is not None and len(self.parity) != n:
            raise ShapeError("parity length does not match dim")

    @property
    def names(self) -> Tuple[str, ...]:
        return self.basis_names if self.basis_names is not None else default_names(self.dim)


def _lie_axioms(rep, names, bracket, l, dual) -> None:
    """Antisymmetry and Jacobi of the sparse ``bracket`` on the carrier of
    ``l``; with ``dual`` the same axioms of the Lie coalgebra ``l`` whose
    transposes they are, reported on its matrices."""
    k = sparse.Kernel(l.field, l.dim, l.parity)
    lab1, lab2, lab3 = (tensor_label(l.names, f) for f in (1, 2, 3))
    antisym, jacobi = names
    matrix_axiom(rep, antisym, k.antisymmetry(bracket), sparse.zero,
                 *((lab2, lab1) if dual else (lab1, lab2)), transposed=dual)
    matrix_axiom(rep, jacobi, k.jacobi(bracket), sparse.zero,
                 *((lab3, lab1) if dual else (lab1, lab3)), transposed=dual)


def check_lie(l: LieAlgebraSC) -> VerificationReport:
    rep = VerificationReport("lie-algebra")
    _lie_axioms(rep, ("antisymmetry", "jacobi"), sparse.columns(l.bracket), l, dual=False)
    return rep


def check_lie_coalgebra(c: LieCoalgebraSC) -> VerificationReport:
    rep = VerificationReport("lie-coalgebra")
    _lie_axioms(rep, ("co-antisymmetry", "co-jacobi"), sparse.rows(c.cobracket), c, dual=True)
    return rep


def commutator_lie(a: AlgebraSC, validate: bool = True) -> LieAlgebraSC:
    """The commutator Lie algebra of an associative algebra: m - m c."""
    if validate:
        require_valid(a, check_algebra, "commutator_lie input")
    k = sparse.Kernel(a.field, a.dim, a.parity)
    return LieAlgebraSC(
        field=a.field,
        dim=a.dim,
        bracket=sparse.matrix(a.field, a.dim, k.braided(sparse.columns(a.mult), -1)),
        parity=a.parity,
        basis_names=a.basis_names,
    )


def cocommutator_lie_coalgebra(c: CoalgebraSC, validate: bool = True) -> LieCoalgebraSC:
    """The commutator Lie cobracket of a coalgebra: Delta - c Delta."""
    if validate:
        require_valid(c, check_coalgebra, "cocommutator input")
    k = sparse.Kernel(c.field, c.dim, c.parity)
    return LieCoalgebraSC(
        field=c.field,
        dim=c.dim,
        cobracket=sparse.matrix(c.field, c.dim, k.braided(sparse.rows(c.comult), -1)).transpose(),
        parity=c.parity,
        basis_names=c.basis_names,
    )


def dual_lie(c: LieCoalgebraSC, validate: bool = True) -> LieAlgebraSC:
    """The Lie algebra on the dual of a Lie coalgebra: transposed cobracket."""
    if validate:
        rep = check_lie_coalgebra(c)
        if not rep.ok:
            raise InvalidStructureError("dual_lie input fails axioms", rep)
    return LieAlgebraSC(
        field=c.field,
        dim=c.dim,
        bracket=c.cobracket.transpose(),
        parity=c.parity,
        basis_names=c.basis_names,
    )


def lie_morphism_check(f: Matrix, l1: LieAlgebraSC, l2: LieAlgebraSC) -> bool:
    """True iff f [x,y] = [f x, f y] as matrices."""
    same_field(f.field, l1.field, l2.field)
    if f.shape != (l2.dim, l1.dim):
        raise ShapeError("morphism shape does not match the Lie algebras")
    return f @ l1.bracket == l2.bracket @ tensor(f, f)
