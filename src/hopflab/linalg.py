"""Dense exact linear algebra: matrices, subspaces, quotients, tensor products.

Everything here is immutable and pure.  Matrices are dense with entries in an
exact field (see :mod:`hopflab.fields`); equality is entrywise and exact.

Tensor (Kronecker) index convention, used everywhere in the package: the
basis vector ``e_i (x) f_j`` of ``V (x) W`` sits at flat index
``i * dim(W) + j``, for rows and columns alike.  Under this convention
``tensor`` is strictly associative on the nose, so structure constants
round-trip bit-exactly through any re-bracketing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .errors import ShapeError
from .fields import FieldSpec, Scalar, same_field

Parity = Tuple[int, ...]  # one 0 (even) / 1 (odd) per basis index

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
        return Matrix.from_rows(field, [[x] for x in vec])

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


def hstack(a: Matrix, b: Matrix) -> Matrix:
    f = same_field(a.field, b.field)
    if a.rows != b.rows:
        raise ShapeError("hstack needs equal row counts")
    return Matrix(f, a.rows, a.cols + b.cols, tuple(ra + rb for ra, rb in zip(a.data, b.data)))


def vstack(a: Matrix, b: Matrix) -> Matrix:
    f = same_field(a.field, b.field)
    if a.cols != b.cols:
        raise ShapeError("vstack needs equal column counts")
    return Matrix(f, a.rows + b.rows, a.cols, a.data + b.data)


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


# -- row reduction and solving ----------------------------------------------


def rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row-echelon form and its pivot columns, exactly."""
    f = m.field
    rows = [list(r) for r in m.data]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = f.inv(rows[r][c])
        if inv != f.one:
            rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(f, nrows, ncols, tuple(tuple(row) for row in rows)), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace(m: Matrix) -> "Subspace":
    """The solution space {x : m x = 0} in canonical form.

    It depends only on the row space of ``m``, so only the distinct nonzero
    rows enter the elimination.
    """
    f = m.field
    rows = tuple(dict.fromkeys(r for r in m.data if any(r)))
    red, pivots = rref(Matrix(f, len(rows), m.cols, rows))
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    gens = []
    for fc in free:
        v = [f.zero] * m.cols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red.data[r][fc])
        gens.append(v)
    return Subspace.from_vectors(f, m.cols, gens)


def solve_particular(a: Matrix, b: Sequence) -> Optional[Tuple[Scalar, ...]]:
    """One solution of ``a x = b`` (free variables set to zero), or None.

    The choice is the RREF-canonical one, so repeated runs give bit-identical
    representatives.
    """
    f = a.field
    bcol = Matrix.column(f, b)
    if bcol.rows != a.rows:
        raise ShapeError("right-hand side length mismatch")
    red, pivots = rref(hstack(a, bcol))
    if a.cols in pivots:
        return None
    x = [f.zero] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.data[r][a.cols]
    return tuple(x)


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
        rows = [list(v) for v in vectors]
        if not rows:
            return Subspace.zero(field, ambient_dim)
        m = Matrix.from_rows(field, rows)
        if m.cols != ambient_dim:
            raise ShapeError("generator length does not match ambient dimension")
        red, pivots = rref(m)
        basis = Matrix(field, len(pivots), ambient_dim, red.data[: len(pivots)])
        return Subspace(ambient_dim, basis)

    @property
    def field(self) -> FieldSpec:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def pivots(self) -> Tuple[int, ...]:
        piv = []
        for row in self.basis.data:
            piv.append(next(j for j, x in enumerate(row) if x != 0))
        return tuple(piv)

    def reduce(self, vec: Sequence) -> Tuple[Scalar, ...]:
        """Residue of ``vec`` after clearing all pivot coordinates."""
        f = self.field
        v = [f.coerce(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise ShapeError("vector length does not match ambient dimension")
        for row, p in zip(self.basis.data, self.pivots):
            c = v[p]
            if c != 0:
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, vec: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def coordinates_of(self, vec: Sequence) -> Tuple[Scalar, ...]:
        """Coefficients of ``vec`` in the RREF basis; raises if not a member."""
        f = self.field
        v = tuple(f.coerce(x) for x in vec)
        coords = tuple(v[p] for p in self.pivots)
        if not all(x == 0 for x in self.reduce(v)):
            raise ValueError("vector is not in the subspace")
        return coords

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        gens = list(self.basis.data) + list(other.basis.data)
        return Subspace.from_vectors(self.field, self.ambient_dim, gens)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        f = self.field
        ra, rb = self.dim, other.dim
        if ra == 0 or rb == 0:
            return Subspace.zero(f, self.ambient_dim)
        stacked = vstack(self.basis, -other.basis).transpose()  # n x (ra+rb)
        coeffs = nullspace(stacked)
        gens = []
        for crow in coeffs.basis.data:
            vec = [f.zero] * self.ambient_dim
            for i in range(ra):
                c = crow[i]
                if c != 0:
                    vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, self.basis.data[i])]
            gens.append(vec)
        return Subspace.from_vectors(f, self.ambient_dim, gens)

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
    if s.ambient_dim != ambient_dim:
        raise ShapeError("subspace ambient dimension mismatch")
    f = s.field
    pivots = s.pivots
    pivot_set = set(pivots)
    free = [c for c in range(ambient_dim) if c not in pivot_set]
    q = len(free)
    zero, one = f.zero, f.one
    proj = [[zero] * ambient_dim for _ in range(q)]
    for t, fc in enumerate(free):
        proj[t][fc] = one
        for r, pc in enumerate(pivots):
            proj[t][pc] = f.neg(s.basis.data[r][fc])
    sect = [[zero] * q for _ in range(ambient_dim)]
    for t, fc in enumerate(free):
        sect[fc][t] = one
    return QuotientSpace(
        ambient_dim,
        s,
        Matrix(f, ambient_dim, q, tuple(tuple(r) for r in sect)),
        Matrix(f, q, ambient_dim, tuple(tuple(r) for r in proj)),
    )


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
