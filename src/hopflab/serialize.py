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


def matrix_to_json(m: Matrix) -> dict:
    enc = m.field.scalar_to_json
    return {"rows": m.rows, "cols": m.cols, "entries": [enc(x) for x in m.flat()]}


def matrix_from_json(field: FieldSpec, data: dict) -> Matrix:
    rows, cols = int(data["rows"]), int(data["cols"])
    entries = [field.scalar_from_json(x) for x in data["entries"]]
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match matrix shape")
    grid = tuple(tuple(entries[i * cols : (i + 1) * cols]) for i in range(rows))
    return Matrix(field, rows, cols, grid)


def _vector_to_json(field: FieldSpec, vec) -> list:
    return [field.scalar_to_json(x) for x in vec]


def _vector_from_json(field: FieldSpec, data) -> list:
    return [field.scalar_from_json(x) for x in data]


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


def _triple(t, bounds) -> tuple:
    """``[i, j, k, coeff]`` with each index checked against its dimension."""
    if len(t) != 4:
        raise ValueError(f"triple {t!r} does not have four entries")
    idx = tuple(int(x) for x in t[:3])
    for x, bound in zip(idx, bounds):
        if not 0 <= x < bound:
            raise ValueError(f"triple {list(t)} has index {x} outside range({bound})")
    return (*idx, t[3])


def mult_from_triples(field: FieldSpec, rows: int, dim_l: int, dim_r: int, triples) -> Matrix:
    grid = [[field.zero] * (dim_l * dim_r) for _ in range(rows)]
    for t in triples:
        i, j, k, c = _triple(t, (dim_l, dim_r, rows))
        grid[k][i * dim_r + j] = field.scalar_from_json(c)
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
        i, j, k, c = _triple(t, (cols, dim_l, dim_r))
        grid[j * dim_r + k][i] = field.scalar_from_json(c)
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


def to_jsonable(obj) -> dict:
    if isinstance(obj, HopfAlgebraSC):
        out = _sc_header(obj, "hopf", "hopf-sc/1")
        out["mult"] = mult_to_triples(obj.mult, obj.dim, obj.dim)
        out["unit"] = _vector_to_json(obj.field, obj.unit.col(0))
        out["comult"] = comult_to_triples(obj.comult, obj.dim, obj.dim)
        out["counit"] = _vector_to_json(obj.field, obj.counit.row(0))
        out["antipode"] = matrix_to_json(obj.antipode)
        return out
    if isinstance(obj, BialgebraSC):
        out = _sc_header(obj, "bialgebra", "hopf-sc/1")
        out["mult"] = mult_to_triples(obj.mult, obj.dim, obj.dim)
        out["unit"] = _vector_to_json(obj.field, obj.unit.col(0))
        out["comult"] = comult_to_triples(obj.comult, obj.dim, obj.dim)
        out["counit"] = _vector_to_json(obj.field, obj.counit.row(0))
        return out
    if isinstance(obj, AlgebraSC):
        out = _sc_header(obj, "algebra", "hopf-sc/1")
        out["mult"] = mult_to_triples(obj.mult, obj.dim, obj.dim)
        out["unit"] = _vector_to_json(obj.field, obj.unit.col(0))
        return out
    if isinstance(obj, CoalgebraSC):
        out = _sc_header(obj, "coalgebra", "hopf-sc/1")
        out["comult"] = comult_to_triples(obj.comult, obj.dim, obj.dim)
        out["counit"] = _vector_to_json(obj.field, obj.counit.row(0))
        return out
    if isinstance(obj, LieAlgebraSC):
        out = _sc_header(obj, "lie", "lie-sc/1")
        out["bracket"] = mult_to_triples(obj.bracket, obj.dim, obj.dim)
        return out
    if isinstance(obj, LieCoalgebraSC):
        out = _sc_header(obj, "liecoalg", "lie-sc/1")
        out["cobracket"] = comult_to_triples(obj.cobracket, obj.dim, obj.dim)
        return out
    if isinstance(obj, FiniteGroup):
        return {"schema": "group/1", "kind": "group", **group_to_json(obj)}
    if isinstance(obj, HopfGroupAlgebra):
        return hga_to_json(obj)
    if isinstance(obj, HopfGroupCoalgebra):
        return hgc_to_json(obj)
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
    if "identity" in data and data["identity"] != g.identity:
        raise ValueError("declared identity disagrees with the table")
    if "order" in data and int(data["order"]) != g.order:
        raise ValueError("declared order disagrees with the table")
    return g


def hga_to_json(h: HopfGroupAlgebra) -> dict:
    f = h.field
    dims = h.dims
    comps = []
    for c in h.components:
        comps.append(
            {
                "dim": c.dim,
                "basis_names": list(c.basis_names),
                "comult": comult_to_triples(c.comult, c.dim, c.dim),
                "counit": _vector_to_json(f, c.counit.row(0)),
            }
        )
    graded = {}
    for g in h.group.elements():
        for k in h.group.elements():
            graded[f"{g},{k}"] = mult_to_triples(h.graded_mult[g][k], dims[g], dims[k])
    return {
        "schema": "turaev/1",
        "kind": "turaev-alg",
        "field": f.to_json(),
        "group": group_to_json(h.group),
        "components": comps,
        "graded_mult": graded,
        "unit": _vector_to_json(f, h.unit.col(0)),
        "antipodes": {str(g): matrix_to_json(h.antipodes[g]) for g in h.group.elements()},
    }


def hgc_to_json(h: HopfGroupCoalgebra) -> dict:
    f = h.field
    dims = h.dims
    comps = []
    for a in h.components:
        comps.append(
            {
                "dim": a.dim,
                "basis_names": list(a.basis_names),
                "mult": mult_to_triples(a.mult, a.dim, a.dim),
                "unit": _vector_to_json(f, a.unit.col(0)),
            }
        )
    graded = {}
    for g in h.group.elements():
        for k in h.group.elements():
            graded[f"{g},{k}"] = comult_to_triples(h.graded_comult[g][k], dims[g], dims[k])
    return {
        "schema": "turaev/1",
        "kind": "turaev-coalg",
        "field": f.to_json(),
        "group": group_to_json(h.group),
        "components": comps,
        "graded_comult": graded,
        "counit": _vector_to_json(f, h.counit.row(0)),
        "antipodes": {str(g): matrix_to_json(h.antipodes[g]) for g in h.group.elements()},
    }


def _parity_of(data: dict):
    return parity_from_json(data["parity"]) if "parity" in data else None


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
    if kind in ("turaev-alg", "turaev-coalg"):
        return _turaev_from_json(field, data, kind)
    dim = int(data["dim"])
    names = tuple(data.get("basis_names", [f"e{i}" for i in range(dim)]))
    parity = _parity_of(data)
    if kind == "lie":
        bracket = mult_from_triples(field, dim, dim, dim, data["bracket"])
        return LieAlgebraSC(field=field, dim=dim, bracket=bracket, parity=parity, basis_names=names)
    if kind == "liecoalg":
        cobracket = comult_from_triples(field, dim, dim, dim, data["cobracket"])
        return LieCoalgebraSC(
            field=field, dim=dim, cobracket=cobracket, parity=parity, basis_names=names
        )
    pieces = {}
    if kind in ("algebra", "bialgebra", "hopf"):
        pieces["mult"] = mult_from_triples(field, dim, dim, dim, data["mult"])
        pieces["unit"] = Matrix.column(field, _vector_from_json(field, data["unit"]))
    if kind in ("coalgebra", "bialgebra", "hopf"):
        pieces["comult"] = comult_from_triples(field, dim, dim, dim, data["comult"])
        pieces["counit"] = Matrix.row_vector(field, _vector_from_json(field, data["counit"]))
    common = dict(field=field, dim=dim, basis_names=names, parity=parity)
    if kind == "algebra":
        return AlgebraSC(**common, **pieces)
    if kind == "coalgebra":
        return CoalgebraSC(**common, **pieces)
    if kind == "bialgebra":
        return BialgebraSC(**common, **pieces)
    antipode = matrix_from_json(field, data["antipode"])
    return HopfAlgebraSC(**common, **pieces, antipode=antipode)


def _turaev_from_json(field: FieldSpec, data: dict, kind: str):
    group = group_from_json(data["group"])
    dims = [int(c["dim"]) for c in data["components"]]
    if len(dims) != group.order:
        raise ValueError(f"{len(dims)} components for a group of order {group.order}")
    antipodes = tuple(
        matrix_from_json(field, data["antipodes"][str(g)]) for g in group.elements()
    )
    if kind == "turaev-alg":
        comps = tuple(
            CoalgebraSC(
                field=field,
                dim=dims[g],
                basis_names=tuple(data["components"][g]["basis_names"]),
                comult=comult_from_triples(
                    field, dims[g], dims[g], dims[g], data["components"][g]["comult"]
                ),
                counit=Matrix.row_vector(
                    field, _vector_from_json(field, data["components"][g]["counit"])
                ),
            )
            for g in group.elements()
        )
        graded = tuple(
            tuple(
                mult_from_triples(
                    field,
                    dims[group.mul(g, k)],
                    dims[g],
                    dims[k],
                    data["graded_mult"][f"{g},{k}"],
                )
                for k in group.elements()
            )
            for g in group.elements()
        )
        unit = Matrix.column(field, _vector_from_json(field, data["unit"]))
        return HopfGroupAlgebra(
            group=group, components=comps, graded_mult=graded, unit=unit, antipodes=antipodes
        )
    comps = tuple(
        AlgebraSC(
            field=field,
            dim=dims[g],
            basis_names=tuple(data["components"][g]["basis_names"]),
            mult=mult_from_triples(
                field, dims[g], dims[g], dims[g], data["components"][g]["mult"]
            ),
            unit=Matrix.column(field, _vector_from_json(field, data["components"][g]["unit"])),
        )
        for g in group.elements()
    )
    graded = tuple(
        tuple(
            comult_from_triples(
                field,
                dims[group.mul(g, k)],
                dims[g],
                dims[k],
                data["graded_comult"][f"{g},{k}"],
            )
            for k in group.elements()
        )
        for g in group.elements()
    )
    counit = Matrix.row_vector(field, _vector_from_json(field, data["counit"]))
    return HopfGroupCoalgebra(
        group=group, components=comps, graded_comult=graded, counit=counit, antipodes=antipodes
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
