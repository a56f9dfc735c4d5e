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


def oracle_product_rule(h):
    """Whether pi(x y) = pi(x) e(y) + e(x) pi(y) holds on every basis pair of
    ``h``, with the projection pi of ``oracle_indecomposables``."""
    n = h.dim
    p = h.field.characteristic
    pi = oracle_indecomposables(h)["pi"]
    mult_rows = h.mult.rows_list()
    eps = h.counit.rows_list()[0]
    basis = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    images = [pi(v) for v in basis]
    for a in range(n):
        for b in range(n):
            lhs = pi(_product_vector(mult_rows, n, p, basis[a], basis[b]))
            rhs = [_norm(x * eps[b] + eps[a] * y, p) for x, y in zip(images[a], images[b])]
            if lhs != rhs:
                return False
    return True


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


def _recorder(out, p, names, prefix=""):
    """An ``axiom(name, nrows, ncols, lhs, rhs, row_factors, col_factors)``
    that builds both sides as dense grids and appends (name, passed, witness)
    to ``out``."""

    def axiom(name, nrows, ncols, lhs, rhs, row_factors=0, col_factors=0):
        passed, witness = _first_difference(
            _grid(nrows, ncols, lhs), _grid(nrows, ncols, rhs), p, row_factors, col_factors, names
        )
        out.append((prefix + name, passed, witness))

    return axiom


def _trip(n):
    return lambda c: (c // (n * n), c // n % n, c % n)


def _algebra_axioms(axiom, M, u, n):
    """Associativity and both unit laws of constants M[i][j][k], unit u."""
    rng, trip = range(n), _trip(n)
    delta = lambda k, c: 1 if k == c else 0  # noqa: E731
    axiom("associativity", n, n ** 3,
          lambda k, c: sum(M[trip(c)[0]][trip(c)[1]][r] * M[r][trip(c)[2]][k] for r in rng),
          lambda k, c: sum(M[trip(c)[1]][trip(c)[2]][r] * M[trip(c)[0]][r][k] for r in rng), 1, 3)
    axiom("unit.left", n, n, lambda k, j: sum(u[r] * M[r][j][k] for r in rng), delta, 1, 1)
    axiom("unit.right", n, n, lambda k, i: sum(u[r] * M[i][r][k] for r in rng), delta, 1, 1)


def _coalgebra_axioms(axiom, D, eps, n):
    """Coassociativity and both counit laws of constants D[i][j][k], counit eps."""
    rng, trip = range(n), _trip(n)
    delta = lambda k, c: 1 if k == c else 0  # noqa: E731
    axiom("coassociativity", n ** 3, n,
          lambda abc, i: sum(D[i][r][trip(abc)[2]] * D[r][trip(abc)[0]][trip(abc)[1]] for r in rng),
          lambda abc, i: sum(D[i][trip(abc)[0]][r] * D[r][trip(abc)[1]][trip(abc)[2]] for r in rng),
          3, 1)
    axiom("counit.left", n, n, lambda b, i: sum(eps[a] * D[i][a][b] for a in rng), delta, 1, 1)
    axiom("counit.right", n, n, lambda a, i: sum(eps[b] * D[i][a][b] for b in rng), delta, 1, 1)


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

    trip = _trip(n)
    out = []
    axiom = _recorder(out, p, names)

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
    _algebra_axioms(axiom, M, u, n)
    _coalgebra_axioms(axiom, D, eps, n)

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


def _block(mat, rows, cols):
    """A structure matrix as plain nested lists, integral rationals as int."""
    data = [[_plain(x) for x in r] for r in mat.rows_list()]
    assert len(data) == rows and all(len(r) == cols for r in data)
    return data


def _group_axioms(grp):
    """The library's ``group.*`` entries, from the table by explicit loops."""
    n, t, names = grp.order, grp.table, grp.element_names
    bad = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)
           if t[t[a][b]][c] != t[a][t[b][c]]]
    out = [("group.associativity", not bad,
            {"triple": [names[x] for x in bad[0]]} if bad else None),
           ("group.closure", True, None)]
    ids = [e for e in range(n) if all(t[e][a] == a == t[a][e] for a in range(n))]
    out.append(("group.identity", bool(ids), None if ids else {"reason": "no two-sided identity"}))
    missing = [a for a in range(n)
               if not ids or not any(t[a][b] == ids[0] == t[b][a] for b in range(n))]
    out.append(("group.inverses", not missing,
                {"elements": [names[a] for a in missing]} if missing else None))
    return out


def _zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def _nonzero(m, rows, cols):
    """Nonzero entries of a structure matrix, as {(row, col): value}."""
    return {(r, c): x for r, row in enumerate(_block(m, rows, cols)) for c, x in enumerate(row) if x}


def oracle_graded_axiom_check(h):
    """(name, passed, witness) for every axiom of a Hopf group-algebra or
    group-coalgebra, in the library's report order.

    Each form is checked on its own structure maps: a group-coalgebra is not
    dualized first.  Components get the classical (co)algebra axioms with
    labelled witnesses.  Each graded axiom builds both sides as dense grids,
    summing products of structure constants by explicit loops, and reports
    the raw ``(row, col)`` of the first differing entry in row-major order.
    """
    grp = h.group
    p = h.field.characteristic
    out = _group_axioms(grp)
    if not all(passed for _, passed, _ in out):
        return out
    order = grp.order
    e = grp.identity
    inv = [next(b for b in range(order) if grp.mul(a, b) == e) for a in range(order)]
    d = list(h.dims)
    coalgebra_form = hasattr(h, "graded_comult")
    for g in range(order):
        c = h.components[g]
        axiom = _recorder(out, p, list(c.basis_names), f"H[{grp.element_names[g]}].")
        if coalgebra_form:
            _algebra_axioms(axiom, _coeffs3(c.mult, d[g], comult=False),
                            [_plain(r[0]) for r in c.unit.rows_list()], d[g])
        else:
            _coalgebra_axioms(axiom, _coeffs3(c.comult, d[g], comult=True),
                              [_plain(x) for x in c.counit.rows_list()[0]], d[g])

    def axiom(name, lhs, rhs):
        passed, witness = _first_difference(lhs, rhs, p, 0, 0, [])
        out.append((name, passed, witness))

    graded = _graded_coalgebra_axioms if coalgebra_form else _graded_algebra_axioms
    graded(h, axiom, grp, inv, d)
    return out


def _graded_algebra_axioms(h, axiom, grp, inv, d):
    G, mul, e, nm = range(grp.order), grp.mul, grp.identity, grp.element_names
    # Mu[g][k][a][b]: (r, v) with v the coefficient of e_r in mu_{g,k}(e_a (x) e_b)
    Mu = [[None] * grp.order for _ in G]
    for g in G:
        for k in G:
            Mu[g][k] = [[[] for _ in range(d[k])] for _ in range(d[g])]
            for (r, ab), v in _nonzero(h.graded_mult[g][k], d[mul(g, k)], d[g] * d[k]).items():
                Mu[g][k][ab // d[k]][ab % d[k]].append((r, v))
    # D[g][a]: (x, y, v) with v the coefficient of e_x (x) e_y in Delta_g(e_a)
    D, eps = [], []
    for g in G:
        D.append([[] for _ in range(d[g])])
        for (xy, a), v in _nonzero(h.components[g].comult, d[g] * d[g], d[g]).items():
            D[g][a].append((xy // d[g], xy % d[g], v))
        eps.append(_block(h.components[g].counit, 1, d[g])[0])
    u = [r[0] for r in _block(h.unit, d[e], 1)]
    S = [_block(h.antipodes[g], d[inv[g]], d[g]) for g in G]

    def identity(n):
        return [[int(r == c) for c in range(n)] for r in range(n)]

    for g in G:
        for k in G:
            for l in G:
                gk, kl = mul(g, k), mul(k, l)
                lhs, rhs = _zeros(d[mul(gk, l)], d[g] * d[k] * d[l]), _zeros(d[mul(gk, l)], d[g] * d[k] * d[l])
                for a in range(d[g]):
                    for b in range(d[k]):
                        for z in range(d[l]):
                            col = (a * d[k] + b) * d[l] + z
                            for s, v in Mu[g][k][a][b]:
                                for r, w in Mu[gk][l][s][z]:
                                    lhs[r][col] += v * w
                            for s, v in Mu[k][l][b][z]:
                                for r, w in Mu[g][kl][a][s]:
                                    rhs[r][col] += v * w
                axiom(f"assoc[{nm[g]},{nm[k]},{nm[l]}]", lhs, rhs)
    for g in G:
        right, left = _zeros(d[g], d[g]), _zeros(d[g], d[g])
        for a in range(d[g]):
            for s in range(d[e]):
                for r, w in Mu[g][e][a][s]:
                    right[r][a] += u[s] * w
                for r, w in Mu[e][g][s][a]:
                    left[r][a] += u[s] * w
        axiom(f"unit.right[{nm[g]}]", right, identity(d[g]))
        axiom(f"unit.left[{nm[g]}]", left, identity(d[g]))
    for g in G:
        for k in G:
            gk = mul(g, k)
            lhs, rhs = _zeros(d[gk] * d[gk], d[g] * d[k]), _zeros(d[gk] * d[gk], d[g] * d[k])
            counit_lhs, counit_rhs = _zeros(1, d[g] * d[k]), _zeros(1, d[g] * d[k])
            for a in range(d[g]):
                for b in range(d[k]):
                    col = a * d[k] + b
                    for s, v in Mu[g][k][a][b]:
                        for x, y, w in D[gk][s]:
                            lhs[x * d[gk] + y][col] += v * w
                        counit_lhs[0][col] += v * eps[gk][s]
                    for a1, a2, v in D[g][a]:
                        for b1, b2, w in D[k][b]:
                            for x, m1 in Mu[g][k][a1][b1]:
                                for y, m2 in Mu[g][k][a2][b2]:
                                    rhs[x * d[gk] + y][col] += v * w * m1 * m2
                    counit_rhs[0][col] = eps[g][a] * eps[k][b]
            axiom(f"mult_coalg_morphism[{nm[g]},{nm[k]}]", lhs, rhs)
            axiom(f"mult_counit[{nm[g]},{nm[k]}]", counit_lhs, counit_rhs)
    lhs = _zeros(d[e] * d[e], 1)
    for s in range(d[e]):
        for x, y, w in D[e][s]:
            lhs[x * d[e] + y][0] += u[s] * w
    axiom("unit_coalg_morphism", lhs, [[u[xy // d[e]] * u[xy % d[e]]] for xy in range(d[e] * d[e])])
    axiom("unit_counit", [[sum(eps[e][s] * u[s] for s in range(d[e]))]], [[1]])
    for g in G:
        gi = inv[g]
        target = [[u[r] * eps[g][a] for a in range(d[g])] for r in range(d[e])]
        left, right = _zeros(d[e], d[g]), _zeros(d[e], d[g])
        for a in range(d[g]):
            for x, y, v in D[g][a]:
                for t in range(d[gi]):
                    for r, w in Mu[gi][g][t][y]:
                        left[r][a] += v * S[g][t][x] * w
                    for r, w in Mu[g][gi][x][t]:
                        right[r][a] += v * S[g][t][y] * w
        axiom(f"antipode.left[{nm[g]}]", left, target)
        axiom(f"antipode.right[{nm[g]}]", right, target)


def _graded_coalgebra_axioms(h, axiom, grp, inv, d):
    G, mul, e, nm = range(grp.order), grp.mul, grp.identity, grp.element_names
    # Dl[g][k][s]: (x, y, v) with v the coefficient of e_x (x) e_y in delta_{g,k}(e_s)
    Dl = [[None] * grp.order for _ in G]
    for g in G:
        for k in G:
            gk = mul(g, k)
            Dl[g][k] = [[] for _ in range(d[gk])]
            for (xy, s), v in _nonzero(h.graded_comult[g][k], d[g] * d[k], d[gk]).items():
                Dl[g][k][s].append((xy // d[k], xy % d[k], v))
    # M[g][a][b]: (r, v) with v the coefficient of e_r in e_a e_b inside H_g
    M, uc = [], []
    for g in G:
        M.append([[[] for _ in range(d[g])] for _ in range(d[g])])
        for (r, ab), v in _nonzero(h.components[g].mult, d[g], d[g] * d[g]).items():
            M[g][ab // d[g]][ab % d[g]].append((r, v))
        uc.append([r[0] for r in _block(h.components[g].unit, d[g], 1)])
    eps = _block(h.counit, 1, d[e])[0]
    S = [_block(h.antipodes[g], d[g], d[inv[g]]) for g in G]

    def identity(n):
        return [[int(r == c) for c in range(n)] for r in range(n)]

    for g in G:
        for k in G:
            for l in G:
                gk, kl, gkl = mul(g, k), mul(k, l), mul(mul(g, k), l)
                lhs, rhs = _zeros(d[g] * d[k] * d[l], d[gkl]), _zeros(d[g] * d[k] * d[l], d[gkl])
                for s in range(d[gkl]):
                    for t, z, v in Dl[gk][l][s]:
                        for x, y, w in Dl[g][k][t]:
                            lhs[(x * d[k] + y) * d[l] + z][s] += v * w
                    for x, t, v in Dl[g][kl][s]:
                        for y, z, w in Dl[k][l][t]:
                            rhs[(x * d[k] + y) * d[l] + z][s] += v * w
                axiom(f"coassoc[{nm[g]},{nm[k]},{nm[l]}]", lhs, rhs)
    for g in G:
        right, left = _zeros(d[g], d[g]), _zeros(d[g], d[g])
        for s in range(d[g]):
            for x, t, v in Dl[g][e][s]:
                right[x][s] += v * eps[t]
            for t, x, v in Dl[e][g][s]:
                left[x][s] += eps[t] * v
        axiom(f"counit.right[{nm[g]}]", right, identity(d[g]))
        axiom(f"counit.left[{nm[g]}]", left, identity(d[g]))
    for g in G:
        for k in G:
            gk = mul(g, k)
            lhs, rhs = _zeros(d[g] * d[k], d[gk] * d[gk]), _zeros(d[g] * d[k], d[gk] * d[gk])
            for s in range(d[gk]):
                for t in range(d[gk]):
                    col = s * d[gk] + t
                    for r, v in M[gk][s][t]:
                        for x, y, w in Dl[g][k][r]:
                            lhs[x * d[k] + y][col] += v * w
                    for x1, y1, v in Dl[g][k][s]:
                        for x2, y2, w in Dl[g][k][t]:
                            for x, m1 in M[g][x1][x2]:
                                for y, m2 in M[k][y1][y2]:
                                    rhs[x * d[k] + y][col] += v * w * m1 * m2
            axiom(f"comult_alg_morphism[{nm[g]},{nm[k]}]", lhs, rhs)
            unit_lhs = _zeros(d[g] * d[k], 1)
            for r in range(d[gk]):
                for x, y, w in Dl[g][k][r]:
                    unit_lhs[x * d[k] + y][0] += uc[gk][r] * w
            axiom(f"comult_unit[{nm[g]},{nm[k]}]", unit_lhs,
                  [[uc[g][xy // d[k]] * uc[k][xy % d[k]]] for xy in range(d[g] * d[k])])
    lhs = _zeros(1, d[e] * d[e])
    for s in range(d[e]):
        for t in range(d[e]):
            for r, v in M[e][s][t]:
                lhs[0][s * d[e] + t] += v * eps[r]
    axiom("counit_alg_morphism", lhs, [[eps[st // d[e]] * eps[st % d[e]] for st in range(d[e] * d[e])]])
    axiom("counit_unit", [[sum(eps[r] * uc[e][r] for r in range(d[e]))]], [[1]])
    for g in G:
        gi = inv[g]
        target = [[uc[g][x] * eps[s] for s in range(d[e])] for x in range(d[g])]
        left, right = _zeros(d[g], d[e]), _zeros(d[g], d[e])
        for s in range(d[e]):
            for a, b, v in Dl[gi][g][s]:
                for t in range(d[g]):
                    for x, w in M[g][t][b]:
                        left[x][s] += v * S[g][t][a] * w
            for a, b, v in Dl[g][gi][s]:
                for t in range(d[g]):
                    for x, w in M[g][a][t]:
                        right[x][s] += v * S[g][t][b] * w
        axiom(f"antipode.left[{nm[g]}]", left, target)
        axiom(f"antipode.right[{nm[g]}]", right, target)
