"""Exact linear algebra: matrices, the elimination, subspaces, quotients,
tensor products.

Matrices are immutable, with entries in an exact field (see
:mod:`hopflab.fields`), and store only their nonzero entries, one sparse
vector ``{row: entry}`` per column; equality is entrywise and exact.
Arithmetic runs on plain Python numbers and reduces each finished entry once
(:func:`finish`), with no per-entry call into :class:`FieldSpec`.  Every
elimination of the package (``rref``, ``rank``, ``nullspace``, solving, the
:class:`Subspace` operations and ``quotient``) runs in one place,
:class:`Echelon`, on sparse rows ``{index: coefficient}``.  Its results come
back through the canonical reduced row-echelon form, which depends only on
the span, so they are the same bits whatever order the rows arrive in.

Tensor (Kronecker) index convention, used everywhere in the package: the
basis vector ``e_i (x) f_j`` of ``V (x) W`` sits at flat index
``i * dim(W) + j``, for rows and columns alike.  Under this convention
``tensor`` is strictly associative on the nose, so structure constants
round-trip bit-exactly through any re-bracketing.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ShapeError
from .fields import FieldSpec, Scalar, same_field

Parity = Tuple[int, ...]  # one 0 (even) / 1 (odd) per basis index
Vector = Dict[int, Scalar]  # index -> nonzero coefficient

EVEN, ODD = 0, 1


def parity_to_json(parity: Parity) -> list:
    return ["odd" if p else "even" for p in parity]


def parity_from_json(data: Sequence[str]) -> Parity:
    table = {"even": EVEN, "odd": ODD}
    if any(s not in table for s in data):
        raise ValueError(f"parity entries must be 'even' or 'odd', got {list(data)!r}")
    return tuple(table[s] for s in data)


def all_even(dim: int) -> Parity:
    return (EVEN,) * dim


@dataclass(frozen=True)
class Matrix:
    """Matrix over an exact field, stored as its nonzero entries:
    ``columns[j]`` is the sparse vector ``{row: entry}`` of column j, in the
    plain scalars of :class:`Echelon`.  The stored vectors are never mutated,
    so matrices may share them; ``data``, ``col`` and ``flat`` are dense
    views."""

    field: FieldSpec
    rows: int
    cols: int
    columns: Tuple[Vector, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative matrix dimensions")
        if type(self.columns) is not tuple:
            object.__setattr__(self, "columns", tuple(self.columns))
        if len(self.columns) != self.cols:
            raise ShapeError(
                f"{len(self.columns)} columns for declared shape {self.rows}x{self.cols}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(field: FieldSpec, rows: Iterable[Iterable]) -> "Matrix":
        """The matrix with the given dense rows, each entry read by ``field.coerce``."""
        rows = [[field.coerce(x) for x in row] for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeError(f"rows of unequal length for {len(rows)}x{ncols}")
        return Matrix.of_rows(field, ncols, [vector(r) for r in rows])

    @staticmethod
    def of_rows(field: FieldSpec, width: int, rows: Sequence[Vector]) -> "Matrix":
        """The matrix whose rows are the sparse vectors ``rows`` of length ``width``."""
        return Matrix(field, width, len(rows), tuple(rows)).transpose()

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, tuple({} for _ in range(cols)))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        return Matrix(field, n, n, tuple({j: 1} for j in range(n)))

    @staticmethod
    def column(field: FieldSpec, vec: Iterable) -> "Matrix":
        vec = [field.coerce(x) for x in vec]
        return Matrix(field, len(vec), 1, (vector(vec),))  # 0x1 for an empty vec

    @staticmethod
    def row_vector(field: FieldSpec, vec: Iterable) -> "Matrix":
        return Matrix.from_rows(field, [list(vec)])

    # -- accessors ---------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def data(self) -> Tuple[Tuple[Scalar, ...], ...]:
        """The dense rows."""
        return tuple(map(tuple, self.rows_list()))

    def col(self, j: int) -> Tuple[Scalar, ...]:
        return dense(self.rows, self.columns[j])

    def rows_list(self) -> list:
        """Entries as plain nested lists (for serialization and oracles)."""
        grid = [[0] * self.cols for _ in range(self.rows)]
        for c, col in enumerate(self.columns):
            for r, x in col.items():
                grid[r][c] = x
        return grid

    def flat(self) -> Tuple[Scalar, ...]:
        return tuple(x for r in self.rows_list() for x in r)

    def is_zero(self) -> bool:
        return not any(self.columns)

    # -- arithmetic --------------------------------------------------------

    def _plus(self, sign: int, other: "Matrix") -> "Matrix":
        """``self + sign * other``."""
        f = same_field(self.field, other.field)
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        p = f.characteristic
        return Matrix(f, self.rows, self.cols, tuple(
            combine(p, ((1, a), (sign, b))) for a, b in zip(self.columns, other.columns)))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(1, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(-1, other)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        f = self.field
        c = plain(f.coerce(c))
        return Matrix(f, self.rows, self.cols,
                      tuple(combine(f.characteristic, ((c, col),)) for col in self.columns))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        f = same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ShapeError(f"cannot compose {self.shape} with {other.shape}")
        return Matrix(f, self.rows, other.cols, tuple(map(self.image, other.columns)))

    def image(self, v: Vector) -> Vector:
        """The matrix times the sparse column vector ``v``."""
        cols = self.columns
        return combine(self.field.characteristic, ((x, cols[k]) for k, x in v.items()))

    def apply(self, vec: Sequence) -> Tuple[Scalar, ...]:
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.cols:
            raise ShapeError(f"vector length {len(vec)} vs {self.cols} columns")
        return dense(self.rows, self.image(vector([self.field.coerce(x) for x in vec])))

    def transpose(self) -> "Matrix":
        out: List[Vector] = [{} for _ in range(self.rows)]
        for c, col in enumerate(self.columns):
            for r, x in col.items():
                out[r][c] = x
        return Matrix(self.field, self.cols, self.rows, tuple(out))

    def __str__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"[{body}]"


def tensor(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with flat index (i, j) -> i * dim_b + j."""
    f = same_field(a.field, b.field)
    p, h = f.characteristic, b.rows
    cols = (finish(p, {i * h + j: x * y for i, x in u.items() for j, y in v.items()})
            for u in a.columns for v in b.columns)
    return Matrix(f, a.rows * h, a.cols * b.cols, tuple(cols))


def apply_middle_swap(
    m: Matrix,
    dim_x: int,
    dim_a: int,
    dim_b: int,
    dim_y: int,
    parity_a: Optional[Parity] = None,
    parity_b: Optional[Parity] = None,
) -> Matrix:
    """Compose ``id_X (x) c_{A,B} (x) id_Y`` with ``m``, whose rows are indexed
    by X (x) A (x) B (x) Y: the braiding is a signed permutation of rows."""
    if m.rows != dim_x * dim_a * dim_b * dim_y:
        raise ShapeError("row count does not factor as X*A*B*Y")
    pa, pb = parity_a or all_even(dim_a), parity_b or all_even(dim_b)
    moved = []  # row -> (its new index, the sign it picks up)
    for src in range(m.rows):
        xab, y = divmod(src, dim_y)
        xa, b = divmod(xab, dim_b)
        x, a = divmod(xa, dim_a)
        moved.append((((x * dim_b + b) * dim_a + a) * dim_y + y, -1 if pa[a] and pb[b] else 1))
    p = m.field.characteristic
    return Matrix(m.field, m.rows, m.cols, tuple(
        finish(p, {moved[r][0]: moved[r][1] * x for r, x in col.items()}) for col in m.columns))


def swap_map(
    field: FieldSpec,
    dim_a: int,
    dim_b: int,
    parity_a: Optional[Parity] = None,
    parity_b: Optional[Parity] = None,
) -> Matrix:
    """The symmetry V (x) W -> W (x) V as a matrix.

    Sends ``e_i (x) f_j`` to ``(-1)^(|e_i||f_j|) f_j (x) e_i``; the sign is -1
    exactly when both parities are odd (Koszul rule).  With no parities given
    this is the plain transposition permutation.
    """
    if parity_a is not None and len(parity_a) != dim_a:
        raise ShapeError("parity_a length does not match dim_a")
    if parity_b is not None and len(parity_b) != dim_b:
        raise ShapeError("parity_b length does not match dim_b")
    pa = parity_a if parity_a is not None else all_even(dim_a)
    pb = parity_b if parity_b is not None else all_even(dim_b)
    p, n = field.characteristic, dim_a * dim_b
    cols = (finish(p, {j * dim_a + i: -1 if pa[i] and pb[j] else 1})
            for i in range(dim_a) for j in range(dim_b))
    return Matrix(field, n, n, tuple(cols))


# -- the elimination -----------------------------------------------------------


def plain(x: Scalar) -> Scalar:
    """``x``, read as an ``int`` when it is an integral rational: an equal value
    with far cheaper arithmetic."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def vector(values: Sequence[Scalar]) -> Vector:
    """The nonzero entries of a dense vector."""
    return {i: plain(x) for i, x in enumerate(values) if x != 0}


def finish(p: int, acc: dict) -> dict:
    """Accumulated coefficients reduced into the field of characteristic ``p``,
    with the zeros dropped."""
    if p:
        return {k: r for k, x in acc.items() if (r := x % p)}
    return {k: plain(x) for k, x in acc.items() if x != 0}


def combine(p: int, terms: Iterable[Tuple[Scalar, Vector]]) -> Vector:
    """The linear combination of the vectors v with the coefficients c, over
    the pairs (c, v) of ``terms``, in the field of characteristic ``p``."""
    acc: Vector = {}
    for c, v in terms:
        for k, x in v.items():
            acc[k] = acc.get(k, 0) + c * x
    return finish(p, acc)


def dense(n: int, v: Vector) -> Tuple[Scalar, ...]:
    """``v`` as a length-``n`` tuple."""
    out = [0] * n
    for i, x in v.items():
        out[i] = x
    return tuple(out)


class Echelon:
    """A subspace of k^width held as sparse pivot rows: each row has
    coefficient 1 at its pivot, its smallest index, and no two rows share a
    pivot.  All elimination in the package runs here.

    Scalars are plain Python numbers: residues modulo p, reduced once per
    finished row, and over the rationals ``int`` while a value stays
    integral, else ``Fraction``.
    """

    def __init__(self, field: FieldSpec, width: int, vectors: Iterable[Vector] = ()) -> None:
        self.field, self.width, self.p = field, width, field.characteristic
        self.rows: Dict[int, Vector] = {}  # pivot -> row
        self.pivots: List[int] = []  # sorted
        for v in vectors:
            self.insert(v)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v: Vector) -> Vector:
        """``v`` minus its component along the rows: zero exactly when ``v`` is in
        the span, and otherwise nonzero at no pivot."""
        p, acc = self.p, dict(v)
        for pivot in self.pivots:  # a row only reaches indices above its pivot
            if not acc:
                break
            c = acc.pop(pivot, 0)
            if p:
                c %= p
            if c:
                for k, x in self.rows[pivot].items():
                    if k != pivot:
                        acc[k] = acc.get(k, 0) - c * x
        return finish(self.p, acc)

    def insert(self, v: Vector) -> Vector:
        """Reduce ``v`` and add the remainder, if nonzero, as a row scaled to 1
        at its pivot; return the remainder."""
        r = self.reduce(v)
        if r:
            pivot = min(r)
            c, row = r[pivot], r
            if c != 1:
                p, inv = self.p, self.field.inv(c)
                row = {k: (x * inv) % p if p else plain(x * inv) for k, x in r.items()}
            self.rows[pivot] = row
            bisect.insort(self.pivots, pivot)
        return r

    def canonical(self) -> List[Vector]:
        """The rows in pivot order, back-substituted in place so that each is zero
        at every other pivot: the unique reduced row-echelon basis of the span."""
        rows = self.rows
        for pivot in reversed(self.pivots):  # the rows below are already reduced
            above = [q for q in rows[pivot] if q != pivot and q in rows]
            if above:
                acc = dict(rows[pivot])
                for q in above:
                    c = acc.pop(q)
                    for k, x in rows[q].items():
                        if k != q:
                            acc[k] = acc.get(k, 0) - c * x
                rows[pivot] = finish(self.p, acc)
        return [rows[q] for q in self.pivots]

    def free_generators(self) -> Dict[int, Vector]:
        """For each non-pivot index c, the solution of the rows' equations whose
        free coordinates are 1 at c and 0 elsewhere: e_c minus r[c] e_q over
        the canonical rows r, q the pivot of r."""
        gens = {c: {c: 1} for c in range(self.width) if c not in self.rows}
        for pivot, row in zip(self.pivots, self.canonical()):
            for k, x in row.items():
                if k != pivot:
                    gens[k][pivot] = -x
        return {c: finish(self.p, g) for c, g in gens.items()}

    def subspace(self) -> "Subspace":
        """The span, in canonical form."""
        return Subspace(self.width, Matrix.of_rows(self.field, self.width, self.canonical()))

    def kernel(self) -> "Subspace":
        """The solution space {x : r . x = 0 for every row r}, in canonical form."""
        return Echelon(self.field, self.width, self.free_generators().values()).subspace()


def solve(field: FieldSpec, width: int, rows: Sequence[Vector], rhs: Vector) -> Optional[Vector]:
    """One x with ``rows[i] . x == rhs[i]`` for every i, or None.  The free
    variables are zero, so the choice is canonical and repeated runs give
    bit-identical representatives."""
    aug = Echelon(field, width + 1, ({**r, width: rhs[i]} if i in rhs else r
                                    for i, r in enumerate(rows)))
    if width in aug.rows:
        return None
    return {pivot: row[width] for pivot, row in zip(aug.pivots, aug.canonical()) if width in row}


def rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row-echelon form and its pivot columns, exactly."""
    e = Echelon(m.field, m.cols, m.transpose().columns)
    rows = e.canonical() + [{}] * (m.rows - e.dim)
    return Matrix.of_rows(m.field, m.cols, rows), tuple(e.pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace(m: Matrix) -> "Subspace":
    """The solution space {x : m x = 0} in canonical form."""
    return Echelon(m.field, m.cols, m.transpose().columns).kernel()


def solve_particular(a: Matrix, b: Sequence) -> Optional[Tuple[Scalar, ...]]:
    """One solution of ``a x = b`` (free variables set to zero), or None; see
    :func:`solve`."""
    if len(b) != a.rows:
        raise ShapeError("right-hand side length mismatch")
    x = solve(a.field, a.cols, a.transpose().columns, vector(b))
    return None if x is None else dense(a.cols, x)


# -- subspaces ---------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of k^n held by its unique RREF basis.

    Two Subspace values are equal as sets iff their basis matrices are
    entrywise equal, so equality is decidable and canonical.
    """

    ambient_dim: int
    basis: Matrix  # rows form an RREF basis; 0 rows for the zero subspace

    def __post_init__(self) -> None:
        if self.basis.cols != self.ambient_dim:
            raise ShapeError("basis width does not match ambient dimension")

    @staticmethod
    def zero(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zeros(field, 0, ambient_dim))

    @staticmethod
    def full(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(field, ambient_dim))

    @staticmethod
    def from_vectors(field: FieldSpec, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        span = Echelon(field, ambient_dim)
        for v in vectors:
            if len(v) != ambient_dim:
                raise ShapeError("generator length does not match ambient dimension")
            span.insert(vector(v))
        return span.subspace()

    @property
    def field(self) -> FieldSpec:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    @functools.cached_property
    def echelon(self) -> Echelon:
        """The basis as an :class:`Echelon`, built once per subspace; read it,
        do not add to it."""
        return Echelon(self.field, self.ambient_dim, self.basis.transpose().columns)

    @property
    def vectors(self) -> List[Vector]:
        """The basis rows as sparse vectors (the rows of :attr:`echelon`, which
        are already canonical); read them, do not change them."""
        return [self.echelon.rows[q] for q in self.echelon.pivots]

    @property
    def pivots(self) -> Tuple[int, ...]:
        return tuple(self.echelon.pivots)

    def coordinates(self, v: Vector) -> Vector:
        """The coordinates of the member ``v`` in the RREF basis: its entries at the pivots."""
        return {i: v[q] for i, q in enumerate(self.echelon.pivots) if q in v}

    def contains(self, vec: Sequence) -> bool:
        if len(vec) != self.ambient_dim:
            raise ShapeError("vector length does not match ambient dimension")
        return not self.echelon.reduce(vector(vec))

    def coordinates_of(self, vec: Sequence) -> Tuple[Scalar, ...]:
        """Coefficients of ``vec`` in the RREF basis; raises if not a member."""
        if not self.contains(vec):
            raise ValueError("vector is not in the subspace")
        return dense(self.dim, self.coordinates(vector(vec)))

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Echelon(self.field, self.ambient_dim, self.vectors + other.vectors).subspace()

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: in an echelon of the rows (a | a), a in self, and (b | 0),
        b in other, the rows with their pivot in the right half are (0 | x) for
        x running through a basis of the intersection."""
        self._check_compatible(other)
        n = self.ambient_dim
        stacked = Echelon(self.field, 2 * n)
        for a in self.vectors:
            stacked.insert({**a, **{n + k: x for k, x in a.items()}})
        for b in other.vectors:
            stacked.insert(b)
        right = ({k - n: x for k, x in row.items()} for q, row in stacked.rows.items() if q >= n)
        return Echelon(self.field, n, right).subspace()

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return not any(other.echelon.reduce(v) for v in self.vectors)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimensions differ")
        same_field(self.field, other.field)


# -- quotient spaces ---------------------------------------------------------


@dataclass(frozen=True)
class QuotientSpace:
    """k^n / S with an explicit projection/section pair.

    Quotient coordinates are the non-pivot coordinates of the RREF basis of
    ``S`` (a deterministic choice), so ``projection @ section == id`` and the
    nullspace of ``projection`` is exactly ``S``.
    """

    ambient_dim: int
    subspace: Subspace
    section: Matrix  # ambient_dim x q
    projection: Matrix  # q x ambient_dim

    @property
    def dim(self) -> int:
        return self.projection.rows


def quotient(ambient_dim: int, s: Subspace) -> QuotientSpace:
    """The projection's rows are the free-column generators of ``s``, those
    that :func:`nullspace` solves with; the section is the inclusion of the
    free coordinates."""
    if s.ambient_dim != ambient_dim:
        raise ShapeError("subspace ambient dimension mismatch")
    f, n = s.field, ambient_dim
    gens = s.echelon.free_generators()
    section = Matrix(f, n, len(gens), tuple({c: 1} for c in gens))
    return QuotientSpace(n, s, section, Matrix.of_rows(f, n, list(gens.values())))


# -- parity helpers ----------------------------------------------------------


def homogeneous_parity(v: Vector, ambient_parity: Parity) -> int:
    """Parity of a homogeneous sparse vector; raises on mixed-parity support."""
    seen = {ambient_parity[i] for i in v}
    if len(seen) > 1:
        raise ValueError("vector mixes even and odd basis directions")
    return seen.pop() if seen else EVEN


def subspace_parities(space: Subspace, ambient_parity: Optional[Parity]) -> Optional[Parity]:
    """Induced parities of an RREF basis, or None when the ambient has none."""
    if ambient_parity is None:
        return None
    return tuple(homogeneous_parity(v, ambient_parity) for v in space.vectors)
