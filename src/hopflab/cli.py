"""Command-line surface: load JSON objects, run checks and computations,
emit machine-readable certificates and human-readable reports.

Exit codes are a stable API: 0 everything verified, 1 mathematical failure
(an axiom or certificate clause is false), 2 malformed or mismatched input
(bad ``zoo`` arguments included), 3 internal error (any other exception,
reported as one ``internal error:`` line, without a traceback).

Subcommands run from tables (``COMMANDS``, ``DUALS``, ``ZOO``) whose rows
call the library through this module's names, so that a wrapper installed
on those names (the benchmark's spans) sees every call.
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
from .serialize import dumps, load, matrix_to_json, to_jsonable
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

OK, MATH_FAIL, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3

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


class CliInputError(Exception):
    pass


def _load(path, kind=None):
    try:
        return load(path, kind)
    except FileNotFoundError as exc:
        raise CliInputError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CliInputError(f"malformed input {path}: {exc}")


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _checked(path: str, kind):
    """The axiom report of ``path``, loaded as ``kind`` or as the kind it declares."""
    obj = _load(path, kind)
    return CHECKERS[kind or to_jsonable(obj)["kind"]](obj)


def _check(args) -> int:
    rep = _checked(args.path, args.kind)
    print(json.dumps(rep.to_json(), indent=2, sort_keys=True) if args.json else rep)
    return OK if rep.ok else MATH_FAIL


def _verify_suite(args) -> int:
    results = []
    for path in args.paths:
        try:
            ok = _checked(path, args.kind).ok
            results.append((OK if ok else MATH_FAIL, f"{path}: {'ok' if ok else 'AXIOM FAILURE'}"))
        except CliInputError as exc:
            results.append((INPUT_ERROR, f"{path}: input error: {exc}"))
    print(*(line for _, line in results), sep="\n")
    return max(code for code, _ in results)  # input errors outrank failures


# Each dual: the kind it loads (None: as declared, which must be graded), the
# dual, the stderr prefix when the input fails its check, and its help.
DUALS = {
    "dual": ("hopf", lambda h: dual_hopf(h), "input is not a Hopf algebra", "dual Hopf algebra"),
    "dagger": (None, lambda h: dagger(h), "input fails its axiom check",
               "componentwise dual of a graded structure"),
}


def _write_dual(args) -> int:
    kind, dual, prefix, _ = DUALS[args.command]
    obj = _load(args.path, kind)
    if kind is None and not isinstance(obj, (HopfGroupAlgebra, HopfGroupCoalgebra)):
        raise CliInputError("dagger expects a turaev-alg or turaev-coalg object")
    try:
        out = dual(obj)
    except InvalidStructureError as exc:
        print(f"{prefix}: {exc}", file=sys.stderr)
        return MATH_FAIL
    _emit(dumps(out), args.output)
    return OK


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


def _basis_text(label: str, space, names) -> str:
    rows = (" + ".join(f"({x})*{names[i]}" for i, x in enumerate(row) if x != 0)
            for row in space.basis.data)
    return "\n".join([f"{label}: dimension {space.dim}", *("  " + r for r in rows)])


# Each computing subcommand: the kind it loads and compute(obj, args); the
# ``--json`` payload and the text, both of (obj, result); the verdict of the
# result, or None to exit 0 whenever the computation ran.
COMMANDS = {
    "primitives": (
        "hopf", lambda h, a: primitives(h),
        lambda h, p: {"dim": p.space.dim, "basis": matrix_to_json(p.space.basis),
                      "bracket": matrix_to_json(p.lie.bracket)},
        lambda h, p: _basis_text("primitive elements", p.space, h.basis_names),
        None),
    "indecomposables": (
        "hopf", lambda h, a: indecomposables(h),
        lambda h, q: {"dim": q.quotient.dim, "ker_counit_dim": q.ker_eps.dim,
                      "ker_counit_sq_dim": q.ker_eps_sq.dim, "pi": matrix_to_json(q.pi),
                      "section": matrix_to_json(q.quotient.section),
                      "cobracket": matrix_to_json(q.lie_co.cobracket)},
        lambda h, q: f"indecomposables: dimension {q.quotient.dim}\n  ker(counit) dimension "
                     f"{q.ker_eps.dim}, square dimension {q.ker_eps_sq.dim}",
        None),
    "michaelis": (
        "hopf", lambda h, a: michaelis_verify(h),
        lambda h, c: c.to_json(),
        lambda h, c: f"dim P(dual) = {c.dim_p}, dim Q = {c.dim_q}\n"
                     + ("verified" if c.verified else f"FAILED: {'; '.join(c.failures)}"),
        lambda c: c.verified),
    "gindecomposables": (
        "turaev-alg", lambda h, a: g_indecomposables(h),
        lambda h, q: {"dim_q_total": q.Q.quotient.dim, "per_degree": {
            h.group.element_names[g]: {"dim": q.per_g[g].dim, "basis": matrix_to_json(q.per_g[g].basis)}
            for g in h.group.elements()}},
        lambda h, q: f"dim Q(total) = {q.Q.quotient.dim}; per degree: " + ", ".join(
            f"{h.group.element_names[g]}:{q.per_g[g].dim}" for g in h.group.elements()),
        None),
    "group-michaelis": (
        "turaev-alg", lambda h, a: group_michaelis_verify(h),
        lambda h, c: c.to_json(),
        lambda h, c: "\n".join([
            "per-degree dimensions: " + ", ".join(f"{d.name}: P={d.dim_p} Q={d.dim_q}" for d in c.degrees),
            "verified" if c.verified else "FAILED",
            *(f"  degree {d.name}: {msg}" for d in c.degrees for msg in d.failures)]),
        lambda c: c.verified),
    "michtur1": (
        "turaev-alg", lambda h, a: mich_tur1_verify(h),
        lambda h, c: c.to_json(),
        lambda h, c: f"dim P(total) = {c.p_total.dim}\ncontained in identity block: "
                     f"{c.contained_in_e_block}\nequals primitives of identity component: {c.spaces_equal}",
        lambda c: c.verified),
    "integrals": (
        "hopf", lambda h, a: left_integrals(h),
        lambda h, s: {"dim": s.dim, "basis": matrix_to_json(s.basis)},
        lambda h, s: _basis_text("left integrals (dual coordinates)", s,
                                 tuple(n + "*" for n in h.basis_names)),
        None),
    # The result is (degree, its primitives).  The degree is resolved first,
    # so a bad --g is exit 2 even on an input that fails its check.
    "gprimitives": (
        "turaev-coalg", lambda h, a: (g := _resolve_degree(h.group, a.g), g_primitives(h)[g]),
        lambda h, r: {"degree": h.group.element_names[r[0]], "dim": r[1].space.dim,
                      "basis": matrix_to_json(r[1].space.basis), "family_dim": r[1].family_space.dim,
                      "family_basis": matrix_to_json(r[1].family_space.basis),
                      "bracket": matrix_to_json(r[1].lie.bracket)},
        lambda h, r: f"degree {h.group.element_names[r[0]]}: dim P_g = {r[1].space.dim} "
                     f"(joint family space dim {r[1].family_space.dim})",
        None),
}


def _compute(args) -> int:
    kind, compute, payload, text, verdict = COMMANDS[args.command]
    h = _load(args.path, kind)
    try:
        result = compute(h, args)
    except InvalidStructureError as exc:
        print(exc, file=sys.stderr)
        return MATH_FAIL
    print(json.dumps(payload(h, result), indent=2, sort_keys=True) if args.json else text(h, result))
    return OK if verdict is None or verdict(result) else MATH_FAIL


# Each zoo name: its constructor and the options it is called with, in order.
ZOO = {
    "group-algebra": (zoo.group_algebra, ("group", "field")),
    "function-hopf": (zoo.function_hopf, ("group", "field")),
    "sweedler4": (zoo.sweedler4, ("field",)),
    "truncated-poly": (zoo.truncated_poly, ("p",)),
    "exterior-super": (zoo.exterior_super, ("n",)),
    "diagonal-group-algebra": (zoo.diagonal_group_algebra, ("group", "field")),
    "matrix-algebra": (zoo.matrix_algebra, ("n", "field")),
    "trivial": (zoo.trivial_hopf, ("field",)),
}


def _zoo_option(args, option: str):
    """The value of ``--option`` for ``zoo args.name``, a field or group parsed."""
    text = getattr(args, option)
    if text is None:
        raise CliInputError(f"{args.name} needs --{option}")
    if option == "field":
        if text == "Q":
            return FieldSpec.rationals()
        if text.startswith("Fp:"):
            return FieldSpec.prime(int(text[3:]))
        raise CliInputError(f"unknown field {text!r} (use Q or Fp:<p>)")
    if option == "group":
        if text == "trivial":
            return trivial_group()
        if text[:1] in ("z", "s"):
            return (cyclic_group if text[0] == "z" else symmetric_group)(int(text[1:]))
        raise CliInputError(f"unknown group {text!r} (use zN, sN or trivial)")
    return text


def _zoo(args) -> int:
    """Emit a zoo object.  ``--field`` is read first, whichever the name; an
    option that does not parse, or that the constructor rejects, is exit 2."""
    try:
        field = _zoo_option(args, "field")
        if args.name not in ZOO:
            raise CliInputError(f"unknown zoo constructor {args.name!r}")
        make, options = ZOO[args.name]
        obj = make(*(field if o == "field" else _zoo_option(args, o) for o in options))
    except ShapeError:
        raise  # reported by main() as inconsistent shapes, like any other command's
    except ValueError as exc:
        raise CliInputError(f"zoo {args.name}: {exc}") from None
    _emit(dumps(obj), args.output)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopflab",
        description="exact verification and duality computations for Hopf-type structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, path="path", **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument(path, **({"nargs": "+"} if path == "paths" else {}))
        return p

    p = add("check", _check, help="verify the axioms of a serialized object")
    p.add_argument("--kind", choices=sorted(CHECKERS), default=None)
    p.add_argument("--json", action="store_true")

    for name, (*_, helptext) in DUALS.items():
        add(name, _write_dual, help=helptext).add_argument("-o", "--output", default=None)

    for name in COMMANDS:
        if name == "gprimitives":
            p = add(name, _compute, help="degree-g primitives of a group-coalgebra")
            p.add_argument("--g", required=True, help="group element name or index")
        else:
            p = add(name, _compute)
        p.add_argument("--json", action="store_true")

    p = add("zoo", _zoo, "name", help="emit a built-in example object")
    p.add_argument("--field", default="Q")
    p.add_argument("--group", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("-o", "--output", default=None)

    p = add("verify-suite", _verify_suite, "paths", help="check several files, one after another")
    p.add_argument("--kind", choices=sorted(CHECKERS), default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except ShapeError as exc:
        print(f"error: inconsistent shapes: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
