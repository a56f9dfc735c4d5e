"""Algebras, coalgebras, bialgebras and Hopf algebras by structure constants.

A structure is a handful of matrices over an exact field, each stored as its
nonzero entries (:class:`~hopflab.linalg.Matrix`):

* multiplication  m : H (x) H -> H   as a (dim x dim^2) matrix,
* unit            u : k -> H         as a column vector,
* comultiplication D : H -> H (x) H  as a (dim^2 x dim) matrix,
* counit          e : H -> k         as a row vector,
* antipode        S : H -> H         as a square matrix.

Holding matrices (rather than rank-3 coefficient tables) makes every axiom a
matrix identity, verified exactly by ``check_*`` with per-axiom witnesses;
the checks evaluate those identities on basis tuples over the stored nonzero
constants (:mod:`hopflab.sparse`), never forming the composite matrices.  An
optional parity vector turns on the Koszul sign rule: the braiding used in
the bialgebra compatibility axiom, commutators and opposites then picks up a
-1 on odd (x) odd.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from .errors import InvalidStructureError, ShapeError
from .fields import FieldSpec, same_field
from .linalg import Matrix, Parity, Subspace, solve, swap_map, tensor
from . import sparse
from .report import VerificationReport, matrix_axiom


def _check_parity(parity: Optional[Parity], dim: int) -> None:
    if parity is not None and len(parity) != dim:
        raise ShapeError("parity length does not match dimension")


def default_names(dim: int) -> Tuple[str, ...]:
    return tuple(f"e{i}" for i in range(dim))


def dual_name(name: str) -> str:
    """Involutive renaming for dual bases: append '*' / strip a trailing '*'."""
    return name[:-1] if name.endswith("*") else name + "*"


def tensor_label(names: Tuple[str, ...], factors: int) -> Callable[[int], str]:
    n = len(names)

    def label(idx: int) -> str:
        parts = []
        for _ in range(factors):
            parts.append(names[idx % n])
            idx //= n
        return "(x)".join(reversed(parts))

    return label


@dataclass(frozen=True)
class AlgebraSC:
    """Unital associative algebra given by structure constants."""

    field: FieldSpec
    dim: int
    basis_names: Tuple[str, ...]
    mult: Matrix  # dim x dim^2
    unit: Matrix  # dim x 1
    parity: Optional[Parity] = None

    def __post_init__(self) -> None:
        n = self.dim
        if len(self.basis_names) != n:
            raise ShapeError("basis_names length does not match dim")
        if self.mult.shape != (n, n * n):
            raise ShapeError(f"mult must be {n}x{n * n}, got {self.mult.shape}")
        if self.unit.shape != (n, 1):
            raise ShapeError(f"unit must be {n}x1, got {self.unit.shape}")
        same_field(self.field, self.mult.field, self.unit.field)
        _check_parity(self.parity, n)

    def product(self, i: int, j: int) -> Tuple:
        """Structure constants of e_i * e_j as a coefficient vector."""
        return self.mult.col(i * self.dim + j)


@dataclass(frozen=True)
class CoalgebraSC:
    """Counital coassociative coalgebra given by structure constants."""

    field: FieldSpec
    dim: int
    basis_names: Tuple[str, ...]
    comult: Matrix  # dim^2 x dim
    counit: Matrix  # 1 x dim
    parity: Optional[Parity] = None

    def __post_init__(self) -> None:
        n = self.dim
        if len(self.basis_names) != n:
            raise ShapeError("basis_names length does not match dim")
        if self.comult.shape != (n * n, n):
            raise ShapeError(f"comult must be {n * n}x{n}, got {self.comult.shape}")
        if self.counit.shape != (1, n):
            raise ShapeError(f"counit must be 1x{n}, got {self.counit.shape}")
        same_field(self.field, self.comult.field, self.counit.field)
        _check_parity(self.parity, n)


@dataclass(frozen=True)
class BialgebraSC:
    """Algebra and coalgebra on one carrier with the compatibility axioms."""

    field: FieldSpec
    dim: int
    basis_names: Tuple[str, ...]
    mult: Matrix
    unit: Matrix
    comult: Matrix
    counit: Matrix
    parity: Optional[Parity] = None

    def __post_init__(self) -> None:
        self.algebra  # shape validation happens in the part constructors
        self.coalgebra

    @property
    def algebra(self) -> AlgebraSC:
        return AlgebraSC(self.field, self.dim, self.basis_names, self.mult, self.unit, self.parity)

    @property
    def coalgebra(self) -> CoalgebraSC:
        return CoalgebraSC(
            self.field, self.dim, self.basis_names, self.comult, self.counit, self.parity
        )

    @functools.cached_property
    def kernel(self) -> sparse.Kernel:
        """The sparse kernel of this carrier, one per object, so that what it
        certifies about the multiplication is found once."""
        return sparse.Kernel(self.field, self.dim, self.parity)

    @property
    def braiding(self) -> Matrix:
        """The (parity-aware) symmetry H (x) H -> H (x) H."""
        return swap_map(self.field, self.dim, self.dim, self.parity, self.parity)


@dataclass(frozen=True)
class HopfAlgebraSC(BialgebraSC):
    """Bialgebra with an antipode matrix attached.

    The antipode is required input and is *not* solved for here; see
    :func:`solve_antipode` for the convenience solver.
    """

    antipode: Matrix = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.antipode is None or self.antipode.shape != (self.dim, self.dim):
            raise ShapeError("antipode must be a dim x dim matrix")
        same_field(self.field, self.antipode.field)

    @property
    def bialgebra(self) -> BialgebraSC:
        return BialgebraSC(
            self.field,
            self.dim,
            self.basis_names,
            self.mult,
            self.unit,
            self.comult,
            self.counit,
            self.parity,
        )


# -- axiom checks ------------------------------------------------------------


def _unital_associative(rep, k, names, mult, unit, a, dual) -> None:
    """Associativity and both unit laws of the sparse ``mult`` and ``unit`` on
    the carrier of ``a``, in the kernel ``k``; with ``dual`` the same axioms
    of the coalgebra ``a`` whose transposes they are, reported on its
    matrices."""
    lab1 = tensor_label(a.basis_names, 1)
    lab3 = tensor_label(a.basis_names, 3)
    assoc, left, right = names
    matrix_axiom(rep, assoc, *k.associativity(mult), *((lab3, lab1) if dual else (lab1, lab3)),
                 transposed=dual)
    matrix_axiom(rep, left, k.unit_left(mult, unit), k.identity(), lab1, lab1, transposed=dual)
    matrix_axiom(rep, right, k.unit_right(mult, unit), k.identity(), lab1, lab1, transposed=dual)


_ALGEBRA = ("associativity", "unit.left", "unit.right")
_COALGEBRA = ("coassociativity", "counit.left", "counit.right")


def check_algebra(a: AlgebraSC) -> VerificationReport:
    rep = VerificationReport("algebra")
    mult, unit = a.mult.columns, a.unit.columns[0]
    _unital_associative(rep, sparse.Kernel(a.field, a.dim), _ALGEBRA, mult, unit, a, dual=False)
    return rep


def check_coalgebra(c: CoalgebraSC) -> VerificationReport:
    rep = VerificationReport("coalgebra")
    comult, counit = c.comult.transpose().columns, c.counit.transpose().columns[0]
    _unital_associative(rep, sparse.Kernel(c.field, c.dim), _COALGEBRA, comult, counit, c,
                        dual=True)
    return rep


def read_sparse(b: BialgebraSC) -> tuple:
    """The structure maps of ``b`` as sparse vectors: the columns of ``mult``
    and ``comult``, the unit and counit vectors and, for a Hopf algebra, the
    columns of the antipode (else None)."""
    s = getattr(b, "antipode", None)
    return (b.mult.columns, b.comult.columns, b.unit.columns[0],
            b.counit.transpose().columns[0], None if s is None else s.columns)


def check_bialgebra(b: BialgebraSC, maps: Optional[tuple] = None) -> VerificationReport:
    """The algebra, coalgebra and compatibility axioms of ``b``; ``maps`` is
    ``read_sparse(b)`` when the caller has already read it.  The algebra and
    compatibility axioms run in ``b.kernel``, the coalgebra axioms in a kernel
    that does not keep the rows of Delta."""
    rep = VerificationReport("bialgebra")
    mult, comult, unit, counit, _ = maps or read_sparse(b)
    k = b.kernel
    _unital_associative(rep, k, _ALGEBRA, mult, unit, b, dual=False)
    _unital_associative(rep, sparse.Kernel(b.field, b.dim), _COALGEBRA,
                        b.comult.transpose().columns, counit, b, dual=True)
    lab2 = tensor_label(b.basis_names, 2)
    matrix_axiom(rep, "compat.comult_mult", *k.comult_mult(mult, comult), lab2, lab2)
    matrix_axiom(rep, "compat.comult_unit", *k.comult_unit(comult, unit), lab2)
    matrix_axiom(rep, "compat.counit_mult", *k.counit_mult(mult, counit), None, lab2)
    matrix_axiom(rep, "compat.counit_unit", *k.counit_unit(unit, counit))
    return rep


def check_hopf(h: HopfAlgebraSC) -> VerificationReport:
    rep = VerificationReport("hopf")
    maps = read_sparse(h)
    rep.merge(check_bialgebra(h, maps))
    mult, comult, unit, counit, s = maps
    k = h.kernel
    target = k.unit_counit(unit, counit)
    lab1 = tensor_label(h.basis_names, 1)
    matrix_axiom(rep, "antipode.left", k.antipode(mult, comult, s, left=True), target, lab1, lab1)
    matrix_axiom(rep, "antipode.right", k.antipode(mult, comult, s, left=False), target, lab1, lab1)
    return rep


def require_valid(obj, checker, what: str):
    rep = checker(obj)
    if not rep.ok:
        names = ", ".join(c.name for c in rep.failures)
        raise InvalidStructureError(f"{what} fails axioms: {names}", rep)
    return obj


# -- operations ----------------------------------------------------------------


def convolution(f: Matrix, g: Matrix, c: CoalgebraSC, a: AlgebraSC) -> Matrix:
    """Convolution product m (f (x) g) Delta of two maps C -> A."""
    same_field(f.field, g.field, c.field, a.field)
    if f.shape != (a.dim, c.dim) or g.shape != (a.dim, c.dim):
        raise ShapeError("convolution operands must be maps C -> A")
    return a.mult @ tensor(f, g) @ c.comult


def convolution_unit(c: CoalgebraSC, a: AlgebraSC) -> Matrix:
    return a.unit @ c.counit


def dual_hopf(h: HopfAlgebraSC, validate: bool = True) -> HopfAlgebraSC:
    """The dual Hopf algebra on the dual basis.

    Structure constants transpose: multiplication of the dual is the
    transposed comultiplication and so on.  Dualizing twice gives back the
    input bit-exactly.
    """
    if validate:
        require_valid(h, check_hopf, "dual_hopf input")
    return HopfAlgebraSC(
        field=h.field,
        dim=h.dim,
        basis_names=tuple(dual_name(s) for s in h.basis_names),
        mult=h.comult.transpose(),
        unit=h.counit.transpose(),
        comult=h.mult.transpose(),
        counit=h.unit.transpose(),
        parity=h.parity,
        antipode=h.antipode.transpose(),
    )


def opposite(h: HopfAlgebraSC) -> HopfAlgebraSC:
    """Multiplication reversed through the braiding; same antipode attached.

    The antipode axiom of the result is not asserted; re-run
    :func:`check_hopf` if it matters for the use at hand.
    """
    return replace(h, mult=h.mult @ h.braiding)


def coopposite(h: HopfAlgebraSC) -> HopfAlgebraSC:
    """Comultiplication reversed through the braiding; same antipode attached."""
    return replace(h, comult=h.braiding @ h.comult)


def left_integrals(h: HopfAlgebraSC, validate: bool = True) -> Subspace:
    """Left integrals on H: functionals t with f * t = f(1) t for all f.

    Returned as a subspace of the dual (coordinates in the dual basis),
    computed as the nullspace of the linear system obtained by letting f
    range over the dual basis.  The f with f * t = f(1) t are closed under
    the product of H^* (the algebra on the rows of Delta), so the rows of f
    in its generating set are solved first, and
    :meth:`~hopflab.sparse.Kernel.solutions` checks that against every row.
    """
    if validate:
        require_valid(h, check_hopf, "left_integrals input")
    n = h.dim
    k = sparse.Kernel(h.field, n)
    # Row (i, j): sum_l Delta[(i,l),j] t_l - unit_i t_j = 0.
    rows: list = [{} for _ in range(n * n)]
    for j, delta in enumerate(h.comult.columns):
        for il, x in delta.items():
            i, l = divmod(il, n)
            rows[i * n + j][l] = x
    for i, u in h.unit.columns[0].items():
        for j in range(n):
            rows[i * n + j][j] = rows[i * n + j].get(j, 0) - u
    gens = k.generators(h.comult.transpose().columns)
    return k.solutions(rows, [s * n + j for s in gens for j in range(n)])


def solve_antipode(b: BialgebraSC) -> Optional[Matrix]:
    """Solve m (S (x) id) Delta = u e for S and confirm the right-hand axiom.

    Returns the antipode when the bialgebra admits one, else None.  A matrix
    satisfying both convolution-inverse axioms is unique, so the solution, if
    it verifies, is the antipode.
    """
    f, n = b.field, b.dim
    mult, comult, unit, counit, _ = read_sparse(b)
    k = sparse.Kernel(f, n)
    # Row (l, j) of the system is entry (l, j) of m (S (x) id) Delta, flattened
    # row-major; its coefficient on S[r, c] is the sum over y of
    # Delta(e_j)[c, y] m(e_r, e_y)[l].
    system: list = [{} for _ in range(n * n)]
    for j in range(n):
        for cy, d in comult[j].items():
            c, y = divmod(cy, n)
            for r in range(n):
                for l, v in mult[r * n + y].items():
                    row = system[l * n + j]
                    row[r * n + c] = row.get(r * n + c, 0) + d * v
    target = {a * n + i: x for (a, i), x in k.unit_counit(unit, counit)().items()}  # u e, flattened
    x = solve(f, n * n, system, target)
    if x is None:
        return None
    s = Matrix(f, n, n, [{r: x[r * n + c] for r in range(n) if r * n + c in x} for c in range(n)])
    right = k.antipode(mult, comult, s.columns, left=False)()
    return s if right == k.unit_counit(unit, counit)() else None
