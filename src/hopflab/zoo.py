"""Deterministic constructors for the worked examples used throughout.

Every constructor output passes its full axiom suite exactly, and identical
inputs give bit-identical serializations.  The characteristic-p examples are
the ones with nonzero primitive/indecomposable spaces: over a field of
characteristic 0 every finite-dimensional Hopf algebra has P = 0.

Taft algebras beyond the 4-dimensional one are deliberately absent: they
need primitive roots of unity, and the scalar types here stop at Q and F_p
(no cyclotomic extensions).
"""

from __future__ import annotations

from math import comb
from typing import Dict, Tuple

from .fields import FieldSpec
from .hopf import AlgebraSC, CoalgebraSC, HopfAlgebraSC, dual_hopf
from .linalg import Matrix, finish
from .turaev import FiniteGroup, HopfGroupAlgebra, trivial_group


def _map(f: FieldSpec, rows: int, cols: int, entries: Dict[int, Dict[int, int]]) -> Matrix:
    """The matrix whose column c has the integer entries ``entries[c]``
    ``{row: value}`` (none if c is absent), read in ``f``."""
    p = f.characteristic
    return Matrix(f, rows, cols, tuple(finish(p, entries.get(c, {})) for c in range(cols)))


def group_algebra(g: FiniteGroup, f: FieldSpec) -> HopfAlgebraSC:
    """The group algebra kG: grouplike basis, S the inversion permutation."""
    n = g.order
    return HopfAlgebraSC(
        field=f,
        dim=n,
        basis_names=g.element_names,
        mult=_map(f, n, n * n, {a * n + b: {g.mul(a, b): 1} for a in range(n) for b in range(n)}),
        unit=_map(f, n, 1, {0: {g.identity: 1}}),
        comult=_map(f, n * n, n, {a: {a * n + a: 1} for a in range(n)}),
        counit=_map(f, 1, n, {a: {0: 1} for a in range(n)}),
        antipode=_map(f, n, n, {a: {g.inv(a): 1} for a in range(n)}),
    )


def function_hopf(g: FiniteGroup, f: FieldSpec) -> HopfAlgebraSC:
    """Functions on G with pointwise product: the dual of the group algebra."""
    return dual_hopf(group_algebra(g, f), validate=False)


def sweedler4(f: FieldSpec) -> HopfAlgebraSC:
    """The 4-dimensional Hopf algebra with g^2 = 1, x^2 = 0, x g = -g x.

    Its antipode has order 4, so it separates S^2 from the identity.  Needs
    characteristic different from 2.
    """
    if f.characteristic == 2:
        raise ValueError("this algebra degenerates in characteristic 2")
    names = ("1", "g", "x", "gx")
    prods: Dict[Tuple[int, int], Dict[int, int]] = {}  # the products that are not zero
    for j in range(4):
        prods[(0, j)] = {j: 1}
        prods[(j, 0)] = {j: 1}
    prods[(1, 1)] = {0: 1}
    prods[(1, 2)] = {3: 1}
    prods[(1, 3)] = {2: 1}
    prods[(2, 1)] = {3: -1}
    prods[(3, 1)] = {2: -1}
    coprods = {
        0: {(0, 0): 1},
        1: {(1, 1): 1},
        2: {(2, 0): 1, (1, 2): 1},
        3: {(3, 1): 1, (0, 3): 1},
    }
    return HopfAlgebraSC(
        field=f,
        dim=4,
        basis_names=names,
        mult=_map(f, 4, 16, {i * 4 + j: terms for (i, j), terms in prods.items()}),
        unit=_map(f, 4, 1, {0: {0: 1}}),
        comult=_map(f, 16, 4, {i: {a * 4 + b: c for (a, b), c in terms.items()}
                               for i, terms in coprods.items()}),
        counit=_map(f, 1, 4, {0: {0: 1}, 1: {0: 1}}),
        antipode=_map(f, 4, 4, {0: {0: 1}, 1: {1: 1}, 2: {3: -1}, 3: {2: 1}}),
    )


def truncated_poly(p: int) -> HopfAlgebraSC:
    """F_p[x]/(x^p) with x primitive and binomial comultiplication.

    The flagship small example with nonzero primitives at finite dimension:
    the binomial coefficients below p never vanish, so P = span{x}.
    """
    f = FieldSpec.prime(p)
    names = tuple("1" if k == 0 else ("x" if k == 1 else f"x{k}") for k in range(p))
    return HopfAlgebraSC(
        field=f,
        dim=p,
        basis_names=names,
        mult=_map(f, p, p * p, {i * p + j: {i + j: 1} for i in range(p) for j in range(p - i)}),
        unit=_map(f, p, 1, {0: {0: 1}}),
        comult=_map(f, p * p, p, {k: {j * p + (k - j): comb(k, j) for j in range(k + 1)}
                                  for k in range(p)}),
        counit=_map(f, 1, p, {0: {0: 1}}),
        antipode=_map(f, p, p, {k: {k: (-1) ** k} for k in range(p)}),
    )


def _wedge_sign(s: int, t: int) -> int:
    """Sign of merging sorted index sets (bitmasks) s and t by transpositions."""
    sign = 1
    for b_t in range(t.bit_length()):
        if t >> b_t & 1:
            higher_in_s = bin(s >> (b_t + 1)).count("1")
            if higher_in_s % 2:
                sign = -sign
    return sign


def exterior_super(n: int) -> HopfAlgebraSC:
    """The exterior algebra on n odd primitive generators, over Q.

    Basis indexed by subsets (bitmasks) of {0..n-1}; all generators are odd,
    so the Koszul sign rule is what makes x_i^2 = 0 compatible with
    Delta(x_i) = x_i (x) 1 + 1 (x) x_i.  Parity mode is mandatory: with all
    parities forced even the bialgebra compatibility fails.
    """
    if n < 1:
        raise ValueError("need at least one generator")
    f = FieldSpec.rationals()
    dim = 1 << n

    def subset_name(s: int) -> str:
        if s == 0:
            return "1"
        return "".join(f"x{i}" for i in range(n) if s >> i & 1)

    names = tuple(subset_name(s) for s in range(dim))
    parity = tuple(bin(s).count("1") % 2 for s in range(dim))

    mult = {s * dim + t: {s | t: _wedge_sign(s, t)}
            for s in range(dim) for t in range(dim) if not s & t}
    comult = {}
    for s in range(dim):
        # Expand the product of (x_i (x) 1 + 1 (x) x_i) over i in s, using the
        # Koszul product (a (x) b)(c (x) d) = (-1)^{|b||c|} ac (x) bd.
        terms: Dict[Tuple[int, int], int] = {(0, 0): 1}
        for i in range(n):
            if not (s >> i & 1):
                continue
            new: Dict[Tuple[int, int], int] = {}
            for (a, b), c in terms.items():
                if not (a & (1 << i)):
                    sign = (-1) ** bin(b).count("1") * _wedge_sign(a, 1 << i)
                    key = (a | (1 << i), b)
                    new[key] = new.get(key, 0) + c * sign
                if not (b & (1 << i)):
                    sign = _wedge_sign(b, 1 << i)
                    key = (a, b | (1 << i))
                    new[key] = new.get(key, 0) + c * sign
            terms = {k: v for k, v in new.items() if v}
        comult[s] = {a * dim + b: c for (a, b), c in terms.items()}

    return HopfAlgebraSC(
        field=f,
        dim=dim,
        basis_names=names,
        mult=_map(f, dim, dim * dim, mult),
        unit=_map(f, dim, 1, {0: {0: 1}}),
        comult=_map(f, dim * dim, dim, comult),
        counit=_map(f, 1, dim, {0: {0: 1}}),
        parity=parity,
        antipode=_map(f, dim, dim, {s: {s: (-1) ** parity[s]} for s in range(dim)}),
    )


def diagonal_group_algebra(g: FiniteGroup, f: FieldSpec) -> HopfGroupAlgebra:
    """kG spread out as a graded family of lines: H_g = k.g.

    The total Hopf algebra of this family is the plain group algebra, and it
    is the smallest family with nonzero degreewise indecomposables in
    characteristic p.
    """
    one_mat = Matrix.from_rows(f, [[1]])
    components = tuple(
        CoalgebraSC(
            field=f,
            dim=1,
            basis_names=(g.element_names[a],),
            comult=one_mat,
            counit=one_mat,
        )
        for a in g.elements()
    )
    graded_mult = tuple(tuple(one_mat for _ in g.elements()) for _ in g.elements())
    antipodes = tuple(one_mat for _ in g.elements())
    return HopfGroupAlgebra(
        group=g,
        components=components,
        graded_mult=graded_mult,
        unit=one_mat,
        antipodes=antipodes,
    )


def matrix_algebra(n: int, f: FieldSpec) -> AlgebraSC:
    """The full matrix algebra on matrix units: E_ij E_kl = [j=k] E_il."""
    if n < 1:
        raise ValueError("need n >= 1")
    dim = n * n
    names = tuple(f"E{i}{j}" for i in range(n) for j in range(n))
    mult = {(i * n + j) * dim + (j * n + l): {i * n + l: 1}
            for i in range(n) for j in range(n) for l in range(n)}
    return AlgebraSC(
        field=f,
        dim=dim,
        basis_names=names,
        mult=_map(f, dim, dim * dim, mult),
        unit=_map(f, dim, 1, {0: {i * n + i: 1 for i in range(n)}}),
    )


def trivial_hopf(f: FieldSpec) -> HopfAlgebraSC:
    """The base field as a Hopf algebra."""
    return group_algebra(trivial_group(), f)
