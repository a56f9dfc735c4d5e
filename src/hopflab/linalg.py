"""Exact linear algebra: matrices, the elimination, subspaces, quotients,
tensor products.

Matrices are immutable and dense with entries in an exact field (see
:mod:`hopflab.fields`); equality is entrywise and exact.  Every elimination
of the package (``rref``, ``rank``, ``nullspace``, solving, the
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
    return tuple(table[s] for s in data)


def all_even(dim: int) -> Parity:
    return (EVEN,) * dim


@dataclass(frozen=True)
class Matrix:
    """Dense matrix over an exact field, stored as a tuple of row tuples."""

    field: FieldSpec
    rows: int
    cols: int
    data: Tuple[Tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative matrix dimensions")
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ShapeError(
                f"entry grid does not match declared shape {self.rows}x{self.cols}"
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(field: FieldSpec, rows: Iterable[Iterable]) -> "Matrix":
        data = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        return Matrix(field, nrows, ncols, data)

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return Matrix(field, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return Matrix(
            field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))
        )

    @staticmethod
    def column(field: FieldSpec, vec: Iterable) -> "Matrix":
        return Matrix.row_vector(field, vec).transpose()  # 0x1 for an empty vec

    @staticmethod
    def row_vector(field: FieldSpec, vec: Iterable) -> "Matrix":
        return Matrix.from_rows(field, [list(vec)])

    # -- accessors ---------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def row(self, i: int) -> Tuple[Scalar, ...]:
        return self.data[i]

    def col(self, j: int) -> Tuple[Scalar, ...]:
        return tuple(r[j] for r in self.data)

    def rows_list(self) -> list:
        """Entries as plain nested lists (for serialization and oracles)."""
        return [list(r) for r in self.data]

    def flat(self) -> Tuple[Scalar, ...]:
        return tuple(x for r in self.data for x in r)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        f = same_field(self.field, other.field)
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        add = f.add
        return Matrix(
            f,
            self.rows,
            self.cols,
            tuple(
                tuple(add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.data, other.data)
            ),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(
            self.field, self.rows, self.cols, tuple(tuple(neg(x) for x in r) for r in self.data)
        )

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        return Matrix(
            f, self.rows, self.cols, tuple(tuple(f.mul(c, x) for x in r) for r in self.data)
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        f = same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ShapeError(f"cannot compose {self.shape} with {other.shape}")
        add, mul, zero = f.add, f.mul, f.zero
        bdata = other.data
        out = []
        for arow in self.data:
            acc = [zero] * other.cols
            for k, a in enumerate(arow):
                if a == 0:
                    continue
                brow = bdata[k]
                acc = [add(s, mul(a, b)) for s, b in zip(acc, brow)]
            out.append(tuple(acc))
        return Matrix(f, self.rows, other.cols, tuple(out))

    def apply(self, vec: Sequence) -> Tuple[Scalar, ...]:
        """Matrix times column vector, returned as a tuple."""
        f = self.field
        v = [f.coerce(x) for x in vec]
        if len(v) != self.cols:
            raise ShapeError(f"vector length {len(v)} vs {self.cols} columns")
        add, mul, zero = f.add, f.mul, f.zero
        out = []
        for r in self.data:
            s = zero
            for a, x in zip(r, v):
                if a != 0 and x != 0:
                    s = add(s, mul(a, x))
            out.append(s)
        return tuple(out)

    def transpose(self) -> "Matrix":
        data = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return Matrix(self.field, self.cols, self.rows, data)

    def __str__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"[{body}]"


def tensor(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with flat index (i, j) -> i * dim_b + j."""
    f = same_field(a.field, b.field)
    mul = f.mul
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = []
    for ia in range(a.rows):
        arow = a.data[ia]
        for ib in range(b.rows):
            brow = b.data[ib]
            row = []
            for x in arow:
                if x == 0:
                    row.extend([f.zero] * b.cols)
                else:
                    row.extend(mul(x, y) for y in brow)
            out.append(tuple(row))
    return Matrix(f, rows, cols, tuple(out))


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
    out: list = [None] * m.rows
    for src in range(m.rows):
        xab, y = divmod(src, dim_y)
        xa, b = divmod(xab, dim_b)
        x, a = divmod(xa, dim_a)
        row = m.data[src]
        flipped = tuple(map(m.field.neg, row)) if pa[a] and pb[b] else row
        out[((x * dim_b + b) * dim_a + a) * dim_y + y] = flipped
    return Matrix(m.field, m.rows, m.cols, tuple(out))


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
    one, zero = field.one, field.zero
    minus_one = field.neg(one)
    n = dim_a * dim_b
    grid = [[zero] * n for _ in range(n)]
    for i in range(dim_a):
        for j in range(dim_b):
            src = i * dim_b + j
            dst = j * dim_a + i
            grid[dst][src] = minus_one if (pa[i] and pb[j]) else one
    return Matrix(field, n, n, tuple(tuple(r) for r in grid))


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
    return {k: x for k, x in acc.items() if x != 0}


def dense(field: FieldSpec, n: int, v: Vector) -> Tuple[Scalar, ...]:
    """``v`` as a length-``n`` tuple of canonical scalars."""
    out = [field.zero] * n
    for i, x in v.items():
        out[i] = field.coerce(x)
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
        return gens

    def subspace(self) -> "Subspace":
        """The span, in canonical form."""
        f, n = self.field, self.width
        rows = self.canonical()
        return Subspace(n, Matrix(f, len(rows), n, tuple(dense(f, n, r) for r in rows)))

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
    f = m.field
    e = Echelon(f, m.cols, map(vector, m.data))
    rows = tuple(dense(f, m.cols, r) for r in e.canonical())
    zero = (f.zero,) * m.cols
    return Matrix(f, m.rows, m.cols, rows + (zero,) * (m.rows - e.dim)), tuple(e.pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace(m: Matrix) -> "Subspace":
    """The solution space {x : m x = 0} in canonical form."""
    return Echelon(m.field, m.cols, map(vector, m.data)).kernel()


def solve_particular(a: Matrix, b: Sequence) -> Optional[Tuple[Scalar, ...]]:
    """One solution of ``a x = b`` (free variables set to zero), or None; see
    :func:`solve`."""
    if len(b) != a.rows:
        raise ShapeError("right-hand side length mismatch")
    x = solve(a.field, a.cols, [vector(r) for r in a.data], vector(b))
    return None if x is None else dense(a.field, a.cols, x)


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
        return Echelon(self.field, self.ambient_dim, map(vector, self.basis.data))

    @property
    def pivots(self) -> Tuple[int, ...]:
        return tuple(self.echelon.pivots)

    def contains(self, vec: Sequence) -> bool:
        if len(vec) != self.ambient_dim:
            raise ShapeError("vector length does not match ambient dimension")
        return not self.echelon.reduce(vector(vec))

    def coordinates_of(self, vec: Sequence) -> Tuple[Scalar, ...]:
        """Coefficients of ``vec`` in the RREF basis; raises if not a member."""
        if not self.contains(vec):
            raise ValueError("vector is not in the subspace")
        coerce = self.field.coerce
        return tuple(coerce(vec[p]) for p in self.echelon.pivots)

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_vectors(self.field, self.ambient_dim, self.basis.data + other.basis.data)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: in an echelon of the rows (a | a), a in self, and (b | 0),
        b in other, the rows with their pivot in the right half are (0 | x) for
        x running through a basis of the intersection."""
        self._check_compatible(other)
        n = self.ambient_dim
        stacked = Echelon(self.field, 2 * n)
        for a in map(vector, self.basis.data):
            stacked.insert({**a, **{n + k: x for k, x in a.items()}})
        for b in map(vector, other.basis.data):
            stacked.insert(b)
        right = ({k - n: x for k, x in row.items()} for q, row in stacked.rows.items() if q >= n)
        return Echelon(self.field, n, right).subspace()

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(other.contains(row) for row in self.basis.data)

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
    slot = {c: t for t, c in enumerate(gens)}
    q = len(slot)
    sect = tuple(dense(f, q, {slot[c]: 1} if c in slot else {}) for c in range(n))
    proj = tuple(dense(f, n, g) for g in gens.values())
    return QuotientSpace(n, s, Matrix(f, n, q, sect), Matrix(f, q, n, proj))


# -- parity helpers ----------------------------------------------------------


def homogeneous_parity(vec: Sequence, ambient_parity: Parity) -> int:
    """Parity of a homogeneous vector; raises on mixed-parity support."""
    seen = {ambient_parity[i] for i, x in enumerate(vec) if x != 0}
    if len(seen) > 1:
        raise ValueError("vector mixes even and odd basis directions")
    return seen.pop() if seen else EVEN


def subspace_parities(space: Subspace, ambient_parity: Optional[Parity]) -> Optional[Parity]:
    """Induced parities of an RREF basis, or None when the ambient has none."""
    if ambient_parity is None:
        return None
    return tuple(homogeneous_parity(row, ambient_parity) for row in space.basis.data)
