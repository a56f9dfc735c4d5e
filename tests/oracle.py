"""Independent brute-force solvers used to cross-check the library.

Every function here re-derives its answer from explicit coefficient loops
over the raw structure constants and reduces with its own Gaussian
elimination over plain Python numbers.  Nothing is shared with the main
implementation except reading the stored constants, so agreement between
the two paths is meaningful evidence.

Subspaces are returned as canonical RREF bases (lists of coefficient lists),
directly comparable with the main path's ``Subspace.basis`` rows.
"""

from __future__ import annotations

from fractions import Fraction


def _norm(x, p):
    return x if p == 0 else x % p


def gauss_rref(rows, p):
    """Reduced row echelon form over Q (p == 0) or F_p, with pivot columns."""
    rows = [[_norm(x, p) for x in r] for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = Fraction(1, 1) / Fraction(rows[r][c]) if p == 0 else pow(rows[r][c], -1, p)
        rows[r] = [_norm(x * inv, p) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [_norm(x - f * y, p) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def basis_rows(rows, p):
    red, pivots = gauss_rref(rows, p)
    return [red[i] for i in range(len(pivots))]


def null_basis(rows, ncols, p):
    """Canonical RREF basis of {x : rows . x = 0}."""
    red, pivots = gauss_rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    gens = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1 if p else Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = _norm(-red[r][fc], p)
        gens.append(v)
    return basis_rows(gens, p)


def subspace_rows(space):
    """Main-path subspace basis as plain lists, for comparison."""
    return [list(r) for r in space.basis.data]


# -- classical solvers ---------------------------------------------------------


def oracle_primitives(h):
    """Basis of {x : Delta x = 1 (x) x + x (x) 1} by direct coefficient loops."""
    n = h.dim
    p = h.field.characteristic
    com = h.comult.rows_list()
    unit = [r[0] for r in h.unit.rows_list()]
    rows = []
    for a in range(n):
        for b in range(n):
            row = []
            for c in range(n):
                v = com[a * n + b][c]
                if b == c:
                    v = v - unit[a]
                if a == c:
                    v = v - unit[b]
                row.append(_norm(v, p))
            rows.append(row)
    return null_basis(rows, n, p)


def oracle_integrals(h):
    """Basis of {t : f * t = f(1) t for all f} by direct coefficient loops."""
    n = h.dim
    p = h.field.characteristic
    com = h.comult.rows_list()
    unit = [r[0] for r in h.unit.rows_list()]
    rows = []
    for i in range(n):
        for j in range(n):
            row = []
            for l in range(n):
                v = com[i * n + l][j]
                if l == j:
                    v = v - unit[i]
                row.append(_norm(v, p))
            rows.append(row)
    return null_basis(rows, n, p)


def _product_vector(mult_rows, n, p, avec, bvec):
    out = [0] * n
    for i in range(n):
        if avec[i] == 0:
            continue
        for j in range(n):
            if bvec[j] == 0:
                continue
            coeff = avec[i] * bvec[j]
            col = i * n + j
            for c in range(n):
                if mult_rows[c][col] != 0:
                    out[c] = _norm(out[c] + coeff * mult_rows[c][col], p)
    return out


def oracle_indecomposables(h):
    """Kernel data and projection for Q(H) = ker e / (ker e)^2.

    Returns a dict with the RREF bases of ker(counit), of its square, of the
    full kernel of pi (square plus the unit line), the free coordinates, and
    a ``pi`` callable implementing the same deterministic convention the main
    path documents (clear pivot coordinates, read off the free ones).
    """
    n = h.dim
    p = h.field.characteristic
    mult_rows = h.mult.rows_list()
    counit = h.counit.rows_list()[0]
    unit = [r[0] for r in h.unit.rows_list()]
    ker = null_basis([counit], n, p)
    prods = [_product_vector(mult_rows, n, p, a, b) for a in ker for b in ker]
    ker_sq = basis_rows(prods, p)
    kernel_red, kernel_piv = gauss_rref(prods + [unit], p)
    kernel = [kernel_red[i] for i in range(len(kernel_piv))]
    free = [c for c in range(n) if c not in kernel_piv]

    def pi(vec):
        v = [_norm(x, p) for x in vec]
        for row, pc in zip(kernel, kernel_piv):
            c = v[pc]
            if c != 0:
                v = [_norm(x - c * y, p) for x, y in zip(v, row)]
        return [v[c] for c in free]

    return {"ker": ker, "ker_sq": ker_sq, "kernel": kernel, "free": free, "pi": pi}


# -- graded solvers -------------------------------------------------------------


def _g_primitive_rows(hgc, pairs):
    """Equation rows for the given list of degree pairs, by explicit loops."""
    grp = hgc.group
    p = hgc.field.characteristic
    dims = list(hgc.dims)
    off = [0]
    for d in dims:
        off.append(off[-1] + d)
    total = off[-1]
    rows = []
    for a, b in pairs:
        ab = grp.mul(a, b)
        delta = hgc.graded_comult[a][b].rows_list()
        unit_a = [r[0] for r in hgc.components[a].unit.rows_list()]
        unit_b = [r[0] for r in hgc.components[b].unit.rows_list()]
        for r1 in range(dims[a]):
            for r2 in range(dims[b]):
                row = [0] * total
                for c in range(dims[ab]):
                    row[off[ab] + c] = _norm(row[off[ab] + c] + delta[r1 * dims[b] + r2][c], p)
                row[off[b] + r2] = _norm(row[off[b] + r2] - unit_a[r1], p)
                row[off[a] + r1] = _norm(row[off[a] + r1] - unit_b[r2], p)
                rows.append(row)
    return rows, off, total


def oracle_g_primitives(hgc, g):
    """Degree-g projection of the joint primitive-family system.

    Stacks one equation block per ordered pair of degrees (the same joint
    semantics the library implements), built by explicit loops and reduced
    with the oracle's own elimination.
    """
    grp = hgc.group
    p = hgc.field.characteristic
    pairs = [(a, b) for a in range(grp.order) for b in range(grp.order)]
    rows, off, total = _g_primitive_rows(hgc, pairs)
    fam = null_basis(rows, total, p)
    proj = [row[off[g] : off[g] + hgc.dims[g]] for row in fam]
    return basis_rows(proj, p)


def oracle_g_primitives_definition_form(hgc, g):
    """Degree-g solutions using only the pairs whose product is g.

    This weaker system can have a strictly larger projection than the joint
    one (e.g. one-dimensional components over the rationals, where the
    distinguished primitive candidate is collinear with the unit); it is kept
    here to pin down which semantics the library implements.
    """
    grp = hgc.group
    p = hgc.field.characteristic
    pairs = [
        (a, b) for a in range(grp.order) for b in range(grp.order) if grp.mul(a, b) == g
    ]
    rows, off, total = _g_primitive_rows(hgc, pairs)
    fam = null_basis(rows, total, p)
    proj = [row[off[g] : off[g] + hgc.dims[g]] for row in fam]
    return basis_rows(proj, p)


def oracle_g_indecomposables(hga, total_hopf):
    """Per-degree images in Q(total) using the oracle's own quotient pipeline."""
    p = hga.field.characteristic
    dims = list(hga.dims)
    off = [0]
    for d in dims:
        off.append(off[-1] + d)
    data = oracle_indecomposables(total_hopf)
    n = total_hopf.dim
    out = []
    for g in range(hga.group.order):
        imgs = []
        for a in range(dims[g]):
            vec = [0] * n
            vec[off[g] + a] = 1 if p else Fraction(1)
            imgs.append(data["pi"](vec))
        out.append(basis_rows(imgs, p))
    return out, data


# -- axiom checks -----------------------------------------------------------------


def _plain(x):
    """Integral rationals as int: equal values, much cheaper arithmetic."""
    return x.numerator if x.denominator == 1 else x


def _coeffs3(mat, n, comult):
    """Structure constants as T[i][j][k]: for a multiplication, e_i e_j has
    T[i][j][k] on e_k; for a comultiplication, Delta(e_i) has T[i][j][k] on
    e_j (x) e_k."""
    rows = [[_plain(x) for x in r] for r in mat.rows_list()]
    if comult:
        return [[[rows[j * n + k][i] for k in range(n)] for j in range(n)] for i in range(n)]
    return [[[rows[k][i * n + j] for k in range(n)] for j in range(n)] for i in range(n)]


def _first_difference(lhs, rhs, p, row_factors, col_factors, names):
    """(passed, witness) for two dense grids, first differing entry in
    row-major order, positions decoded into basis labels when factors > 0."""
    n = len(names)

    def label(idx, factors):
        if factors == 0:
            return idx
        parts = []
        for _ in range(factors):
            idx, r = divmod(idx, n)
            parts.append(names[r])
        return "(x)".join(reversed(parts))

    for r, (lrow, rrow) in enumerate(zip(lhs, rhs)):
        for c, (a, b) in enumerate(zip(lrow, rrow)):
            a, b = _norm(a, p), _norm(b, p)
            if a != b:
                return False, {
                    "row": label(r, row_factors),
                    "col": label(c, col_factors),
                    "lhs": str(a),
                    "rhs": str(b),
                }
    return True, None


def _grid(nrows, ncols, entry):
    return [[entry(r, c) for c in range(ncols)] for r in range(nrows)]


def oracle_axiom_check(obj):
    """(name, passed, witness) for every axiom of a Hopf algebra, Lie algebra
    or Lie coalgebra, in the library's report order.

    Each side of each axiom is built as a dense grid, every entry summed by
    explicit loops over the structure constants; the witness is the first
    differing entry in row-major order, labelled like the library's reports.
    """
    n = obj.dim
    p = obj.field.characteristic
    names = list(obj.basis_names) if obj.basis_names is not None else [f"e{i}" for i in range(n)]
    odd = list(obj.parity) if obj.parity is not None else [0] * n
    rng = range(n)

    def sg(a, b):
        return -1 if odd[a] and odd[b] else 1

    def trip(c):
        return c // (n * n), c // n % n, c % n

    out = []

    def axiom(name, nrows, ncols, lhs, rhs, row_factors=0, col_factors=0):
        passed, witness = _first_difference(
            _grid(nrows, ncols, lhs), _grid(nrows, ncols, rhs), p, row_factors, col_factors, names
        )
        out.append((name, passed, witness))

    if hasattr(obj, "bracket"):
        B = _coeffs3(obj.bracket, n, comult=False)
        axiom("antisymmetry", n, n * n,
              lambda k, c: B[c // n][c % n][k] + sg(c // n, c % n) * B[c % n][c // n][k],
              lambda k, c: 0, 1, 2)

        def jacobi(k, c):
            i, j, l = trip(c)
            total = 0
            for r in rng:
                total += B[j][l][r] * B[i][r][k]
                total += sg(i, l) * sg(j, l) * B[i][j][r] * B[l][r][k]
                total += sg(i, j) * sg(i, l) * B[l][i][r] * B[j][r][k]
            return total

        axiom("jacobi", n, n ** 3, jacobi, lambda k, c: 0, 1, 3)
        return out

    if hasattr(obj, "cobracket"):
        C = _coeffs3(obj.cobracket, n, comult=True)
        axiom("co-antisymmetry", n * n, n,
              lambda ab, i: C[i][ab // n][ab % n] + sg(ab // n, ab % n) * C[i][ab % n][ab // n],
              lambda ab, i: 0, 2, 1)

        def twice(i, a, b, c):  # (id (x) delta) delta (e_i) at e_a (x) e_b (x) e_c
            return sum(C[i][a][r] * C[r][b][c] for r in rng if C[i][a][r])

        def cojacobi(abc, i):
            a, b, c = trip(abc)
            return (twice(i, a, b, c) + sg(a, b) * sg(a, c) * twice(i, b, c, a)
                    + sg(c, a) * sg(c, b) * twice(i, c, a, b))

        axiom("co-jacobi", n ** 3, n, cojacobi, lambda abc, i: 0, 3, 1)
        return out

    M = _coeffs3(obj.mult, n, comult=False)
    D = _coeffs3(obj.comult, n, comult=True)
    u = [_plain(r[0]) for r in obj.unit.rows_list()]
    eps = [_plain(x) for x in obj.counit.rows_list()[0]]
    S = [[_plain(x) for x in r] for r in obj.antipode.rows_list()]  # S(e_i) has S[k][i] on e_k
    delta = lambda k, c: 1 if k == c else 0  # noqa: E731

    axiom("associativity", n, n ** 3,
          lambda k, c: sum(M[trip(c)[0]][trip(c)[1]][r] * M[r][trip(c)[2]][k] for r in rng),
          lambda k, c: sum(M[trip(c)[1]][trip(c)[2]][r] * M[trip(c)[0]][r][k] for r in rng), 1, 3)
    axiom("unit.left", n, n, lambda k, j: sum(u[r] * M[r][j][k] for r in rng), delta, 1, 1)
    axiom("unit.right", n, n, lambda k, i: sum(u[r] * M[i][r][k] for r in rng), delta, 1, 1)
    axiom("coassociativity", n ** 3, n,
          lambda abc, i: sum(D[i][r][trip(abc)[2]] * D[r][trip(abc)[0]][trip(abc)[1]] for r in rng),
          lambda abc, i: sum(D[i][trip(abc)[0]][r] * D[r][trip(abc)[1]][trip(abc)[2]] for r in rng),
          3, 1)
    axiom("counit.left", n, n, lambda b, i: sum(eps[a] * D[i][a][b] for a in rng), delta, 1, 1)
    axiom("counit.right", n, n, lambda a, i: sum(eps[b] * D[i][a][b] for b in rng), delta, 1, 1)

    def braided_product(ab, ij):
        a, b = divmod(ab, n)
        i, j = divmod(ij, n)
        total = 0
        for x in rng:
            for y in rng:
                if D[i][x][y] == 0:
                    continue
                for q in rng:
                    for s in rng:
                        if D[j][q][s] != 0:
                            total += D[i][x][y] * D[j][q][s] * sg(y, q) * M[x][q][a] * M[y][s][b]
        return total

    axiom("compat.comult_mult", n * n, n * n,
          lambda ab, ij: sum(M[ij // n][ij % n][r] * D[r][ab // n][ab % n] for r in rng),
          braided_product, 2, 2)
    axiom("compat.comult_unit", n * n, 1,
          lambda ab, _: sum(u[r] * D[r][ab // n][ab % n] for r in rng),
          lambda ab, _: u[ab // n] * u[ab % n], 2, 0)
    axiom("compat.counit_mult", 1, n * n,
          lambda _, ij: sum(M[ij // n][ij % n][r] * eps[r] for r in rng),
          lambda _, ij: eps[ij // n] * eps[ij % n], 0, 2)
    axiom("compat.counit_unit", 1, 1, lambda *_: sum(u[r] * eps[r] for r in rng), lambda *_: 1)

    def antipode(k, i, left):
        total = 0
        for x in rng:
            for y in rng:
                if D[i][x][y] != 0:
                    for r in rng:
                        if left:
                            total += D[i][x][y] * S[r][x] * M[r][y][k]
                        else:
                            total += D[i][x][y] * S[r][y] * M[x][r][k]
        return total

    axiom("antipode.left", n, n, lambda k, i: antipode(k, i, True), lambda k, i: u[k] * eps[i], 1, 1)
    axiom("antipode.right", n, n, lambda k, i: antipode(k, i, False), lambda k, i: u[k] * eps[i], 1, 1)
    return out
