"""Command-line surface: load JSON objects, run checks and computations,
emit machine-readable certificates and human-readable reports.

Exit codes are a stable API: 0 everything verified, 1 mathematical failure
(an axiom or certificate clause is false), 2 malformed or mismatched input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import InvalidStructureError, ShapeError
from .fields import FieldSpec
from .hopf import (
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    check_hopf,
    dual_hopf,
    left_integrals,
)
from .lie import check_lie, check_lie_coalgebra
from .primitives import indecomposables, michaelis_verify, primitives
from .serialize import dumps, load, to_jsonable
from .turaev import (
    FiniteGroup,
    HopfGroupAlgebra,
    HopfGroupCoalgebra,
    check_group,
    check_hopf_group_algebra,
    check_hopf_group_coalgebra,
    cyclic_group,
    dagger,
    g_indecomposables,
    g_primitives,
    group_michaelis_verify,
    mich_tur1_verify,
    symmetric_group,
    trivial_group,
)
from . import zoo

OK, MATH_FAIL, INPUT_ERROR = 0, 1, 2

CHECKERS = {
    "algebra": check_algebra,
    "coalgebra": check_coalgebra,
    "bialgebra": check_bialgebra,
    "hopf": check_hopf,
    "lie": check_lie,
    "liecoalg": check_lie_coalgebra,
    "group": check_group,
    "turaev-alg": check_hopf_group_algebra,
    "turaev-coalg": check_hopf_group_coalgebra,
}


def _load(path, kind=None):
    try:
        return load(path, kind)
    except FileNotFoundError as exc:
        raise CliInputError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CliInputError(f"malformed input {path}: {exc}")


class CliInputError(Exception):
    pass


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _run_check(path: str, kind, as_json: bool) -> int:
    obj = _load(path, kind)
    kind = kind or to_jsonable(obj)["kind"]
    checker = CHECKERS.get(kind)
    if checker is None:
        raise CliInputError(f"no checker for kind {kind!r}")
    rep = checker(obj)
    if as_json:
        print(json.dumps(rep.to_json(), indent=2, sort_keys=True))
    else:
        print(rep)
    return OK if rep.ok else MATH_FAIL


def cmd_check(args) -> int:
    return _run_check(args.path, args.kind, args.json)


def cmd_dual(args) -> int:
    obj = _load(args.path, "hopf")
    try:
        out = dual_hopf(obj)
    except InvalidStructureError as exc:
        print(f"input is not a Hopf algebra: {exc}", file=sys.stderr)
        return MATH_FAIL
    _emit(dumps(out), args.output)
    return OK


def cmd_dagger(args) -> int:
    obj = _load(args.path)
    if not isinstance(obj, (HopfGroupAlgebra, HopfGroupCoalgebra)):
        raise CliInputError("dagger expects a turaev-alg or turaev-coalg object")
    try:
        out = dagger(obj)
    except InvalidStructureError as exc:
        print(f"input fails its axiom check: {exc}", file=sys.stderr)
        return MATH_FAIL
    _emit(dumps(out), args.output)
    return OK


def _print_subspace(label: str, space, names=None) -> None:
    print(f"{label}: dimension {space.dim}")
    for row in space.basis.data:
        if names:
            terms = [
                f"({x})*{names[i]}" for i, x in enumerate(row) if x != 0
            ]
            print("  " + " + ".join(terms))
        else:
            print("  [" + " ".join(str(x) for x in row) + "]")


def cmd_primitives(args) -> int:
    h = _load(args.path, "hopf")
    try:
        p = primitives(h)
    except InvalidStructureError as exc:
        print(exc, file=sys.stderr)
        return MATH_FAIL
    if args.json:
        from .serialize import matrix_to_json

        print(
            json.dumps(
                {
                    "dim": p.space.dim,
                    "basis": matrix_to_json(p.space.basis),
                    "bracket": matrix_to_json(p.lie.bracket),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        _print_subspace("primitive elements", p.space, h.basis_names)
    return OK


def cmd_indecomposables(args) -> int:
    h = _load(args.path, "hopf")
    try:
        q = indecomposables(h)
    except InvalidStructureError as exc:
        print(exc, file=sys.stderr)
        return MATH_FAIL
    if args.json:
        from .serialize import matrix_to_json

        print(
            json.dumps(
                {
                    "dim": q.quotient.dim,
                    "ker_counit_dim": q.ker_eps.dim,
                    "ker_counit_sq_dim": q.ker_eps_sq.dim,
                    "pi": matrix_to_json(q.pi),
                    "section": matrix_to_json(q.quotient.section),
                    "cobracket": matrix_to_json(q.lie_co.cobracket),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"indecomposables: dimension {q.quotient.dim}")
        print(f"  ker(counit) dimension {q.ker_eps.dim}, square dimension {q.ker_eps_sq.dim}")
    return OK


def cmd_michaelis(args) -> int:
    h = _load(args.path, "hopf")
    try:
        cert = michaelis_verify(h)
    except InvalidStructureError as exc:
        print(exc, file=sys.stderr)
        return MATH_FAIL
    if args.json:
        print(json.dumps(cert.to_json(), indent=2, sort_keys=True))
    else:
        print(f"dim P(dual) = {cert.dim_p}, dim Q = {cert.dim_q}")
        print("verified" if cert.verified else f"FAILED: {'; '.join(cert.failures)}")
    return OK if cert.verified else MATH_FAIL


def _resolve_degree(group: FiniteGroup, g: str) -> int:
    if g in group.element_names:
        return group.element_names.index(g)
    try:
        idx = int(g)
    except ValueError:
        raise CliInputError(f"unknown group element {g!r}")
    if not 0 <= idx < group.order:
        raise CliInputError(f"degree index {idx} out of range")
    return idx


def cmd_gprimitives(args) -> int:
    h = _load(args.path, "turaev-coalg")
    g = _resolve_degree(h.group, args.g)
    try:
        p = g_primitives(h)[g]
    except InvalidStructureError as exc:
        print(exc, file=sys.stderr)
        return MATH_FAIL
    if args.json:
        from .serialize import matrix_to_json

        print(
            json.dumps(
                {
                    "degree": h.group.element_names[g],
                    "dim": p.space.dim,
                    "basis": matrix_to_json(p.space.basis),
                    "family_dim": p.family_space.dim,
                    "family_basis": matrix_to_json(p.family_space.basis),
                    "bracket": matrix_to_json(p.lie.bracket),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"degree {h.group.element_names[g]}: dim P_g = {p.space.dim} "
              f"(joint family space dim {p.family_space.dim})")
    return OK


def cmd_gindecomposables(args) -> int:
    h = _load(args.path, "turaev-alg")
    try:
        q = g_indecomposables(h)
    except InvalidStructureError as exc:
        print(exc, file=sys.stderr)
        return MATH_FAIL
    if args.json:
        from .serialize import matrix_to_json

        print(
            json.dumps(
                {
                    "dim_q_total": q.Q.quotient.dim,
                    "per_degree": {
                        h.group.element_names[g]: {
                            "dim": q.per_g[g].dim,
                            "basis": matrix_to_json(q.per_g[g].basis),
                        }
                        for g in h.group.elements()
                    },
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        dims = ", ".join(
            f"{h.group.element_names[g]}:{q.per_g[g].dim}" for g in h.group.elements()
        )
        print(f"dim Q(total) = {q.Q.quotient.dim}; per degree: {dims}")
    return OK


def cmd_group_michaelis(args) -> int:
    h = _load(args.path, "turaev-alg")
    try:
        cert = group_michaelis_verify(h)
    except InvalidStructureError as exc:
        print(exc, file=sys.stderr)
        return MATH_FAIL
    if args.json:
        print(json.dumps(cert.to_json(), indent=2, sort_keys=True))
    else:
        dims = ", ".join(
            f"{d.name}: P={d.dim_p} Q={d.dim_q}" for d in cert.degrees
        )
        print(f"per-degree dimensions: {dims}")
        print("verified" if cert.verified else "FAILED")
        for d in cert.degrees:
            for msg in d.failures:
                print(f"  degree {d.name}: {msg}")
    return OK if cert.verified else MATH_FAIL


def cmd_michtur1(args) -> int:
    h = _load(args.path, "turaev-alg")
    try:
        cert = mich_tur1_verify(h)
    except InvalidStructureError as exc:
        print(exc, file=sys.stderr)
        return MATH_FAIL
    if args.json:
        print(json.dumps(cert.to_json(), indent=2, sort_keys=True))
    else:
        print(f"dim P(total) = {cert.p_total.dim}")
        print("contained in identity block:", cert.contained_in_e_block)
        print("equals primitives of identity component:", cert.spaces_equal)
    return OK if cert.verified else MATH_FAIL


def cmd_integrals(args) -> int:
    h = _load(args.path, "hopf")
    try:
        space = left_integrals(h)
    except InvalidStructureError as exc:
        print(exc, file=sys.stderr)
        return MATH_FAIL
    if args.json:
        from .serialize import matrix_to_json

        print(json.dumps({"dim": space.dim, "basis": matrix_to_json(space.basis)},
                         indent=2, sort_keys=True))
    else:
        _print_subspace("left integrals (dual coordinates)", space,
                        tuple(n + "*" for n in h.basis_names))
    return OK


def _parse_field(text: str) -> FieldSpec:
    if text == "Q":
        return FieldSpec.rationals()
    if text.startswith("Fp:"):
        return FieldSpec.prime(int(text.split(":", 1)[1]))
    raise CliInputError(f"unknown field {text!r} (use Q or Fp:<p>)")


def _parse_group(text: str) -> FiniteGroup:
    if text == "trivial":
        return trivial_group()
    if text.startswith("z"):
        return cyclic_group(int(text[1:]))
    if text.startswith("s"):
        return symmetric_group(int(text[1:]))
    raise CliInputError(f"unknown group {text!r} (use zN, sN or trivial)")


def cmd_zoo(args) -> int:
    field = _parse_field(args.field)
    name = args.name
    if name == "group-algebra":
        obj = zoo.group_algebra(_parse_group(args.group), field)
    elif name == "function-hopf":
        obj = zoo.function_hopf(_parse_group(args.group), field)
    elif name == "sweedler4":
        obj = zoo.sweedler4(field)
    elif name == "truncated-poly":
        if args.p is None:
            raise CliInputError("truncated-poly needs --p")
        obj = zoo.truncated_poly(args.p)
    elif name == "exterior-super":
        if args.n is None:
            raise CliInputError("exterior-super needs --n")
        obj = zoo.exterior_super(args.n)
    elif name == "diagonal-group-algebra":
        obj = zoo.diagonal_group_algebra(_parse_group(args.group), field)
    elif name == "matrix-algebra":
        if args.n is None:
            raise CliInputError("matrix-algebra needs --n")
        obj = zoo.matrix_algebra(args.n, field)
    elif name == "trivial":
        obj = zoo.trivial_hopf(field)
    else:
        raise CliInputError(f"unknown zoo constructor {name!r}")
    _emit(dumps(obj), args.output)
    return OK


def cmd_verify_suite(args) -> int:
    def one(path):
        try:
            obj = _load(path, args.kind)
            kind = args.kind or to_jsonable(obj)["kind"]
            rep = CHECKERS[kind](obj)
            return (OK if rep.ok else MATH_FAIL, f"{path}: {'ok' if rep.ok else 'AXIOM FAILURE'}")
        except (CliInputError, KeyError) as exc:
            return (INPUT_ERROR, f"{path}: input error: {exc}")

    results = [one(path) for path in args.paths]
    for _, line in results:
        print(line)
    codes = [c for c, _ in results]
    if INPUT_ERROR in codes:
        return INPUT_ERROR
    return MATH_FAIL if MATH_FAIL in codes else OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopflab",
        description="exact verification and duality computations for Hopf-type structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("check", cmd_check, help="verify the axioms of a serialized object")
    p.add_argument("path")
    p.add_argument("--kind", choices=sorted(CHECKERS), default=None)
    p.add_argument("--json", action="store_true")

    p = add("dual", cmd_dual, help="dual Hopf algebra")
    p.add_argument("path")
    p.add_argument("-o", "--output", default=None)

    p = add("dagger", cmd_dagger, help="componentwise dual of a graded structure")
    p.add_argument("path")
    p.add_argument("-o", "--output", default=None)

    for name, fn in [
        ("primitives", cmd_primitives),
        ("indecomposables", cmd_indecomposables),
        ("michaelis", cmd_michaelis),
        ("gindecomposables", cmd_gindecomposables),
        ("group-michaelis", cmd_group_michaelis),
        ("michtur1", cmd_michtur1),
        ("integrals", cmd_integrals),
    ]:
        p = add(name, fn)
        p.add_argument("path")
        p.add_argument("--json", action="store_true")

    p = add("gprimitives", cmd_gprimitives, help="degree-g primitives of a group-coalgebra")
    p.add_argument("path")
    p.add_argument("--g", required=True, help="group element name or index")
    p.add_argument("--json", action="store_true")

    p = add("zoo", cmd_zoo, help="emit a built-in example object")
    p.add_argument("name")
    p.add_argument("--field", default="Q")
    p.add_argument("--group", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("-o", "--output", default=None)

    p = add("verify-suite", cmd_verify_suite, help="check several files, one after another")
    p.add_argument("paths", nargs="+")
    p.add_argument("--kind", choices=sorted(CHECKERS), default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except ShapeError as exc:
        print(f"error: inconsistent shapes: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
