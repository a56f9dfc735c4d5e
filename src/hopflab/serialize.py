"""Canonical JSON serialization for every object kind.

Formats
-------
* ``hopf-sc/1``: algebras, coalgebras, bialgebras, Hopf algebras.  Structure
  constants go out as sparse triple lists sorted lexicographically
  (``[i, j, k, coeff]`` meaning ``e_i e_j`` has ``coeff`` on ``e_k`` for
  multiplications, and ``Delta(e_i)`` has ``coeff`` on ``e_j (x) e_k`` for
  comultiplications); unspecified entries are zero.  Antipodes are dense
  matrices ``{rows, cols, entries}`` in row-major order.
* ``lie-sc/1``: brackets/cobrackets with the same triple conventions.
* ``group/1``: a finite group as ``{order, identity, table, names}``.
* ``turaev/1``: graded structures; graded maps are keyed ``"g,h"``.

Rational scalars serialize as reduced strings ``"a/b"`` with positive b
(integers as ``"a"``); prime-field scalars as integer residues.  Emission is
canonical: sorted keys, no whitespace, one trailing newline, zero
coefficients omitted, so load -> save is byte-identical on conformant files
and involutions like double-dualization round-trip exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .fields import FieldSpec
from .hopf import AlgebraSC, BialgebraSC, CoalgebraSC, HopfAlgebraSC
from .lie import LieAlgebraSC, LieCoalgebraSC
from .linalg import Matrix, parity_from_json, parity_to_json
from .turaev import FiniteGroup, HopfGroupAlgebra, HopfGroupCoalgebra

KINDS = (
    "algebra",
    "coalgebra",
    "bialgebra",
    "hopf",
    "lie",
    "liecoalg",
    "group",
    "turaev-alg",
    "turaev-coalg",
)


# -- matrices and vectors -----------------------------------------------------


def _read(x, what: str, field=None):
    """``x`` as a JSON integer; given a ``FieldSpec``, as a scalar of it; given
    ``str``, as a tuple of names from a list of strings.  An integer is an
    ``int`` that is not a ``bool``; a scalar is never a ``bool``."""
    if field is None:
        if type(x) is int:
            return x
        kind = "an integer"
    elif field is str:
        if type(x) is list and all(type(s) is str for s in x):
            return tuple(x)
        kind = "a list of strings"
    elif type(x) is not bool:
        return field.scalar_from_json(x)
    else:
        kind = "a scalar"
    raise ValueError(f"{what} must be {kind}, got {x!r}")


def matrix_to_json(m: Matrix) -> dict:
    enc = m.field.scalar_to_json
    return {"rows": m.rows, "cols": m.cols, "entries": [enc(x) for x in m.flat()]}


def matrix_from_json(field: FieldSpec, data: dict) -> Matrix:
    rows, cols = _read(data["rows"], "matrix rows"), _read(data["cols"], "matrix cols")
    entries = [_read(x, "matrix entry", field) for x in data["entries"]]
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match matrix shape")
    grid = tuple(tuple(entries[i * cols : (i + 1) * cols]) for i in range(rows))
    return Matrix(field, rows, cols, grid)


def _vector_to_json(field: FieldSpec, vec) -> list:
    return [field.scalar_to_json(x) for x in vec]


# -- sparse triple lists -------------------------------------------------------


def mult_to_triples(m: Matrix, dim_l: int, dim_r: int) -> list:
    """Triples [i, j, k, coeff]: e_i e_j has coeff on e_k (column (i,j), row k)."""
    enc = m.field.scalar_to_json
    out = []
    for i in range(dim_l):
        for j in range(dim_r):
            col = i * dim_r + j
            for k in range(m.rows):
                v = m.data[k][col]
                if v != 0:
                    out.append([i, j, k, enc(v)])
    out.sort(key=lambda t: (t[0], t[1], t[2]))
    return out


def _triple(field: FieldSpec, t, bounds) -> tuple:
    """``[i, j, k, coeff]`` with each index checked against its dimension and
    the coefficient read as a scalar of ``field``."""
    if len(t) != 4:
        raise ValueError(f"triple {t!r} does not have four entries")
    i, j, k, c = t
    try:
        i, j, k = _read(i, "index"), _read(j, "index"), _read(k, "index")
        c = _read(c, "coefficient", field)
    except ValueError as exc:
        raise ValueError(f"triple {list(t)}: {exc}") from None
    for x, bound in zip((i, j, k), bounds):
        if not 0 <= x < bound:
            raise ValueError(f"triple {list(t)} has index {x} outside range({bound})")
    return i, j, k, c


def mult_from_triples(field: FieldSpec, rows: int, dim_l: int, dim_r: int, triples) -> Matrix:
    grid = [[field.zero] * (dim_l * dim_r) for _ in range(rows)]
    for t in triples:
        i, j, k, c = _triple(field, t, (dim_l, dim_r, rows))
        grid[k][i * dim_r + j] = c
    return Matrix(field, rows, dim_l * dim_r, tuple(tuple(r) for r in grid))


def comult_to_triples(m: Matrix, dim_l: int, dim_r: int) -> list:
    """Triples [i, j, k, coeff]: Delta(e_i) has coeff on e_j (x) e_k (row (j,k), column i)."""
    enc = m.field.scalar_to_json
    out = []
    for i in range(m.cols):
        for j in range(dim_l):
            for k in range(dim_r):
                v = m.data[j * dim_r + k][i]
                if v != 0:
                    out.append([i, j, k, enc(v)])
    out.sort(key=lambda t: (t[0], t[1], t[2]))
    return out


def comult_from_triples(field: FieldSpec, cols: int, dim_l: int, dim_r: int, triples) -> Matrix:
    grid = [[field.zero] * cols for _ in range(dim_l * dim_r)]
    for t in triples:
        i, j, k, c = _triple(field, t, (cols, dim_l, dim_r))
        grid[j * dim_r + k][i] = c
    return Matrix(field, dim_l * dim_r, cols, tuple(tuple(r) for r in grid))


# -- classical structures --------------------------------------------------------


def _sc_header(obj, kind: str, schema: str) -> dict:
    names = obj.basis_names
    if names is None:
        names = [f"e{i}" for i in range(obj.dim)]
    out = {
        "schema": schema,
        "kind": kind,
        "field": obj.field.to_json(),
        "dim": obj.dim,
        "basis_names": list(names),
    }
    if getattr(obj, "parity", None) is not None:
        out["parity"] = parity_to_json(obj.parity)
    return out


# Each classical kind: its class, schema and structure maps.
_CLASSICAL = {
    "hopf": (HopfAlgebraSC, "hopf-sc/1", ("mult", "unit", "comult", "counit", "antipode")),
    "bialgebra": (BialgebraSC, "hopf-sc/1", ("mult", "unit", "comult", "counit")),
    "algebra": (AlgebraSC, "hopf-sc/1", ("mult", "unit")),
    "coalgebra": (CoalgebraSC, "hopf-sc/1", ("comult", "counit")),
    "lie": (LieAlgebraSC, "lie-sc/1", ("bracket",)),
    "liecoalg": (LieCoalgebraSC, "lie-sc/1", ("cobracket",)),
}

# Each graded kind: its class, its components' class and their two maps.
_GRADED = {
    "turaev-alg": (HopfGroupAlgebra, CoalgebraSC, ("comult", "counit")),
    "turaev-coalg": (HopfGroupCoalgebra, AlgebraSC, ("mult", "unit")),
}

# The triple form of each (co)multiplication and (co)bracket, graded or not.
_MULT, _COMULT = (mult_to_triples, mult_from_triples), (comult_to_triples, comult_from_triples)
_TRIPLES = {"mult": _MULT, "bracket": _MULT, "graded_mult": _MULT,
            "comult": _COMULT, "cobracket": _COMULT, "graded_comult": _COMULT}


def _map_to_json(name: str, m: Matrix, *dims: int):
    """The structure map ``name``: triples on factors of dimensions ``dims``,
    a dense antipode, or the entry list of a (co)unit."""
    if name in _TRIPLES:
        return _TRIPLES[name][0](m, *dims)
    return matrix_to_json(m) if name == "antipode" else _vector_to_json(m.field, m.flat())


def _map_from_json(field: FieldSpec, name: str, data, *dims: int) -> Matrix:
    """The inverse of ``_map_to_json``; for triples ``dims`` is the dimension
    of the unfactored side followed by those of the two factors."""
    if name in _TRIPLES:
        return _TRIPLES[name][1](field, *dims, data)
    if name == "antipode":
        return matrix_from_json(field, data)
    what = f"{name} entry"
    vec = [_read(x, what, field) for x in data]
    return Matrix.column(field, vec) if name == "unit" else Matrix.row_vector(field, vec)


def to_jsonable(obj) -> dict:
    for kind, (cls, schema, maps) in _CLASSICAL.items():
        if isinstance(obj, cls):
            out = _sc_header(obj, kind, schema)
            for name in maps:
                out[name] = _map_to_json(name, getattr(obj, name), obj.dim, obj.dim)
            return out
    if isinstance(obj, FiniteGroup):
        return {"schema": "group/1", "kind": "group", **group_to_json(obj)}
    if isinstance(obj, (HopfGroupAlgebra, HopfGroupCoalgebra)):
        return _turaev_to_json(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def group_to_json(g: FiniteGroup) -> dict:
    return {
        "order": g.order,
        "identity": g.identity,
        "table": [list(r) for r in g.table],
        "names": list(g.element_names),
    }


def group_from_json(data: dict) -> FiniteGroup:
    g = FiniteGroup.from_table(data["table"], data.get("names"))
    if "identity" in data and _read(data["identity"], "group identity") != g.identity:
        raise ValueError("declared identity disagrees with the table")
    if "order" in data and _read(data["order"], "group order") != g.order:
        raise ValueError("declared order disagrees with the table")
    return g


def _turaev_to_json(h) -> dict:
    kind = next(k for k, (cls, _, _) in _GRADED.items() if isinstance(h, cls))
    maps, (graded, point) = _GRADED[kind][2], h._MAPS
    f, dims, grp = h.field, h.dims, h.group
    return {
        "schema": "turaev/1",
        "kind": kind,
        "field": f.to_json(),
        "group": group_to_json(grp),
        "components": [
            {"dim": c.dim, "basis_names": list(c.basis_names),
             **{name: _map_to_json(name, getattr(c, name), c.dim, c.dim) for name in maps}}
            for c in h.components
        ],
        graded: {
            f"{g},{k}": _map_to_json(graded, getattr(h, graded)[g][k], dims[g], dims[k])
            for g in grp.elements()
            for k in grp.elements()
        },
        point: _map_to_json(point, getattr(h, point)),
        "antipodes": {str(g): matrix_to_json(h.antipodes[g]) for g in grp.elements()},
    }


def from_jsonable(data: dict, kind: Optional[str] = None):
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    kind = kind or data.get("kind")
    if kind == "lie-coalgebra":
        kind = "liecoalg"
    if kind not in KINDS:
        raise ValueError(f"unknown object kind {kind!r}")
    if kind == "group":
        return group_from_json(data)
    field = FieldSpec.from_json(data["field"])
    if kind in _GRADED:
        return _turaev_from_json(field, data, kind)
    dim = _read(data["dim"], "dim")
    cls, _, maps = _CLASSICAL[kind]
    return cls(
        field=field,
        dim=dim,
        basis_names=_read(data.get("basis_names", [f"e{i}" for i in range(dim)]),
                          "basis_names", str),
        parity=parity_from_json(data["parity"]) if "parity" in data else None,
        **{name: _map_from_json(field, name, data[name], dim, dim, dim) for name in maps},
    )


def _turaev_from_json(field: FieldSpec, data: dict, kind: str):
    cls, part, maps = _GRADED[kind]
    graded, point = cls._MAPS
    group = group_from_json(data["group"])
    comps = data["components"]
    dims = [_read(c["dim"], "component dim") for c in comps]
    if len(dims) != group.order:
        raise ValueError(f"{len(dims)} components for a group of order {group.order}")
    elements = group.elements()
    return cls(
        group,
        tuple(
            part(field=field, dim=d,
                 basis_names=_read(c["basis_names"], "component basis_names", str),
                 **{name: _map_from_json(field, name, c[name], d, d, d) for name in maps})
            for c, d in zip(comps, dims)
        ),
        tuple(
            tuple(
                _map_from_json(field, graded, data[graded][f"{g},{k}"],
                               dims[group.mul(g, k)], dims[g], dims[k])
                for k in elements
            )
            for g in elements
        ),
        _map_from_json(field, point, data[point]),
        tuple(matrix_from_json(field, data["antipodes"][str(g)]) for g in elements),
    )


# -- canonical text ---------------------------------------------------------------


def canonical_dumps(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def dumps(obj) -> str:
    return canonical_dumps(to_jsonable(obj))


def save(obj, path) -> None:
    Path(path).write_text(dumps(obj))


def load(path, kind: Optional[str] = None):
    data = json.loads(Path(path).read_text())
    return from_jsonable(data, kind)
