import contextlib
import hashlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopflab import cli
from hopflab.cli import main
from hopflab.errors import InvariantViolation
from hopflab.fields import FieldSpec
from hopflab.serialize import MAX_MAP_ENTRIES, dumps, load
from hopflab.turaev import cyclic_group, dagger
from hopflab.lie import commutator_lie
from hopflab.zoo import (
    diagonal_group_algebra,
    exterior_super,
    group_algebra,
    matrix_algebra,
    sweedler4,
    truncated_poly,
)

Q = FieldSpec.rationals()
F3 = FieldSpec.prime(3)


@pytest.fixture
def sweedler_file(tmp_path):
    path = tmp_path / "sweedler.json"
    path.write_text(dumps(sweedler4(Q)))
    return path


@pytest.fixture
def diag_z3_file(tmp_path):
    path = tmp_path / "diag_z3_f3.json"
    path.write_text(dumps(diagonal_group_algebra(cyclic_group(3), F3)))
    return path


class TestCheck:
    def test_valid_hopf_exits_zero(self, sweedler_file, capsys):
        assert main(["check", str(sweedler_file), "--kind", "hopf"]) == 0
        assert "all axioms pass" in capsys.readouterr().out

    def test_tampered_antipode_exits_one_with_witness(self, tmp_path, capsys):
        data = json.loads(dumps(sweedler4(Q)))
        data["antipode"]["entries"][5] = "-1"  # S(g) = -g breaks the axiom
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path), "--kind", "hopf"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness" in out

    def test_truncated_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(dumps(sweedler4(Q))[:50])
        assert main(["check", str(path), "--kind", "hopf"]) == 2

    def test_kind_from_file(self, sweedler_file):
        assert main(["check", str(sweedler_file)]) == 0

    def test_directory_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot read {tmp_path}: ")

    def test_json_report(self, sweedler_file, capsys):
        assert main(["check", str(sweedler_file), "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["ok"] is True
        assert {c["name"] for c in blob["checks"]} >= {"associativity", "antipode.left"}


class TestOutOfRangeIndices:
    """Indices outside the declared dimensions are bad input: exit 2, an
    ``error:`` line on stderr, nothing on stdout."""

    def _rejected(self, tmp_path, capsys, data, command="check"):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main([command, str(path), *(["--g", "g"] if command == "gprimitives" else [])]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")
        return err

    @pytest.mark.parametrize("key", ["mult", "comult"])
    def test_triple_index_equal_to_dim(self, tmp_path, capsys, key):
        data = json.loads(dumps(group_algebra(cyclic_group(3), Q)))
        data[key][0][2] = 3
        self._rejected(tmp_path, capsys, data)

    @pytest.mark.parametrize("key", ["mult", "comult"])
    def test_negative_triple_index(self, tmp_path, capsys, key):
        data = json.loads(dumps(group_algebra(cyclic_group(3), Q)))
        data[key][0][2] = -1
        self._rejected(tmp_path, capsys, data)
        self._rejected(tmp_path, capsys, data, "michaelis")

    def test_lie_bracket_index_equal_to_dim(self, tmp_path, capsys):
        data = json.loads(dumps(commutator_lie(matrix_algebra(2, Q))))
        data["bracket"][0][0] = 4
        self._rejected(tmp_path, capsys, data)

    def test_graded_triple_index_equal_to_dim(self, tmp_path, capsys):
        data = json.loads(dumps(diagonal_group_algebra(cyclic_group(3), F3)))
        data["graded_mult"]["1,2"][0][1] = 1
        self._rejected(tmp_path, capsys, data)

    def test_graded_file_missing_a_component(self, tmp_path, capsys):
        data = json.loads(dumps(diagonal_group_algebra(cyclic_group(3), F3)))
        data["components"].pop()
        self._rejected(tmp_path, capsys, data)

    def test_group_table_entry_equal_to_order(self, tmp_path, capsys):
        data = json.loads(dumps(cyclic_group(3)))
        data["table"][1][2] = 3
        self._rejected(tmp_path, capsys, data)
        graded = json.loads(dumps(diagonal_group_algebra(cyclic_group(3), F3)))
        graded["group"]["table"][1][2] = 3
        self._rejected(tmp_path, capsys, graded, "group-michaelis")

    def test_group_table_with_a_short_row(self, tmp_path, capsys):
        data = json.loads(dumps(cyclic_group(3)))
        data["table"][1] = [1]
        self._rejected(tmp_path, capsys, data)
        graded = json.loads(dumps(diagonal_group_algebra(cyclic_group(3), F3)))
        graded["group"]["table"][1] = [1]
        self._rejected(tmp_path, capsys, graded)
        self._rejected(tmp_path, capsys, graded, "group-michaelis")


class TestMalformedValues:
    """Well-formed JSON holding a value of the wrong kind is bad input too:
    exit 2, an ``error:`` line on stderr, nothing on stdout."""

    _rejected = TestOutOfRangeIndices._rejected

    def test_top_level_json_list(self, tmp_path, capsys):
        self._rejected(tmp_path, capsys, [json.loads(dumps(sweedler4(Q)))])

    def test_zero_denominator_coefficient(self, tmp_path, capsys):
        data = json.loads(dumps(sweedler4(Q)))
        data["mult"][0][3] = "1/0"
        self._rejected(tmp_path, capsys, data)

    # An integer field holds an ``int`` that is not a ``bool``; a scalar is
    # never a ``bool``.  The message names the field at fault.

    def test_triple_index_true(self, tmp_path, capsys):
        data = json.loads(dumps(sweedler4(Q)))
        data["mult"][0][1] = True
        assert "triple" in self._rejected(tmp_path, capsys, data)

    @pytest.mark.parametrize("index", ["0", 0.0], ids=["string", "float"])
    def test_triple_index_not_an_int(self, tmp_path, capsys, index):
        data = json.loads(dumps(sweedler4(Q)))
        data["comult"][0][0] = index
        assert "triple" in self._rejected(tmp_path, capsys, data)

    @pytest.mark.parametrize("dim", ["4", 4.5], ids=["string", "float"])
    def test_dim_not_an_int(self, tmp_path, capsys, dim):
        data = json.loads(dumps(sweedler4(Q)))
        data["dim"] = dim
        assert "dim" in self._rejected(tmp_path, capsys, data)

    def test_antipode_rows_string(self, tmp_path, capsys):
        data = json.loads(dumps(sweedler4(Q)))
        data["antipode"]["rows"] = "4"
        assert "rows" in self._rejected(tmp_path, capsys, data)

    # A 0 x n antipode has no entries, so its entry count matches for any n;
    # the declared shape is checked before n empty columns are built.

    def test_antipode_with_no_rows_and_huge_cols(self, tmp_path, capsys):
        data = json.loads(dumps(sweedler4(Q)))
        data["antipode"].update(rows=0, cols=10 ** 12, entries=[])
        assert "matrix shape" in self._rejected(tmp_path, capsys, data)

    @pytest.mark.parametrize("dual", [False, True], ids=["algebra", "coalgebra"])
    def test_graded_antipode_with_no_rows_and_huge_cols(self, tmp_path, capsys, dual):
        h = diagonal_group_algebra(cyclic_group(3), F3)
        data = json.loads(dumps(dagger(h) if dual else h))
        data["antipodes"]["1"].update(rows=0, cols=10 ** 12, entries=[])
        assert "matrix shape" in self._rejected(tmp_path, capsys, data)

    def test_field_characteristic_string(self, tmp_path, capsys):
        data = json.loads(dumps(truncated_poly(3)))
        data["field"]["p"] = "3"
        assert "field p" in self._rejected(tmp_path, capsys, data)

    @pytest.mark.parametrize("entry", [True, "1"], ids=["true", "string"])
    def test_group_table_entry_not_an_int(self, tmp_path, capsys, entry):
        data = json.loads(dumps(cyclic_group(3)))
        data["table"][0][1] = entry
        assert "table" in self._rejected(tmp_path, capsys, data)

    def test_graded_component_dim_string(self, tmp_path, capsys):
        data = json.loads(dumps(diagonal_group_algebra(cyclic_group(3), F3)))
        data["components"][1]["dim"] = "1"
        assert "dim" in self._rejected(tmp_path, capsys, data)

    def test_coefficient_true(self, tmp_path, capsys):
        data = json.loads(dumps(sweedler4(Q)))
        data["mult"][0][3] = True
        assert "coefficient" in self._rejected(tmp_path, capsys, data)


    # A (co)multiplication's list of columns is sized by the declared
    # dimensions before any triple is read, so a map over ``MAX_MAP_ENTRIES``
    # is bad input, named in the message, rather than a ``MemoryError``.

    def test_huge_dim(self, tmp_path, capsys):
        data = json.loads(dumps(sweedler4(Q)))
        data["dim"] = 10 ** 6
        assert "mult" in self._rejected(tmp_path, capsys, data)
        del data["basis_names"]
        assert "mult" in self._rejected(tmp_path, capsys, data, "michaelis")

    def test_huge_graded_component_dim(self, tmp_path, capsys):
        data = json.loads(dumps(diagonal_group_algebra(cyclic_group(3), F3)))
        data["components"][1]["dim"] = 10 ** 6
        assert "comult" in self._rejected(tmp_path, capsys, data)
        assert "comult" in self._rejected(tmp_path, capsys, data, "group-michaelis")

    def test_map_entry_bound(self, tmp_path, capsys):
        # exterior_super(8) has 2**8 basis vectors: its maps just fit.
        assert (2 ** 8) ** 3 <= MAX_MAP_ENTRIES < (2 ** 8 + 1) ** 3
        data = json.loads(dumps(commutator_lie(matrix_algebra(2, Q))))
        data["dim"] = 2 ** 8 + 1
        assert "bracket" in self._rejected(tmp_path, capsys, data)

    # Names are lists of strings: a basis name that is not a string used to
    # pass ``check`` and crash whatever renamed or labelled the basis.

    @pytest.mark.parametrize("command", ["check", "dual", "michaelis"])
    def test_basis_name_not_a_string(self, tmp_path, capsys, command):
        data = json.loads(dumps(sweedler4(Q)))
        data["basis_names"][0] = 0
        assert "basis_names" in self._rejected(tmp_path, capsys, data, command)

    def test_basis_name_not_a_string_in_a_failing_axiom(self, tmp_path, capsys):
        data = json.loads(dumps(sweedler4(Q)))
        data["basis_names"][0] = 0
        data["antipode"]["entries"][5] = "-1"
        assert "basis_names" in self._rejected(tmp_path, capsys, data)

    def test_basis_names_a_string(self, tmp_path, capsys):
        data = json.loads(dumps(sweedler4(Q)))
        data["basis_names"] = "1gxy"
        assert "basis_names" in self._rejected(tmp_path, capsys, data)

    @pytest.mark.parametrize("command", ["check", "group-michaelis", "dagger"])
    def test_component_basis_name_not_a_string(self, tmp_path, capsys, command):
        data = json.loads(dumps(diagonal_group_algebra(cyclic_group(3), F3)))
        data["components"][1]["basis_names"][0] = 0
        assert "component basis_names" in self._rejected(tmp_path, capsys, data, command)

    def test_group_names_not_strings(self, tmp_path, capsys):
        data = json.loads(dumps(cyclic_group(3)))
        data["names"] = [0, 1, 2]
        assert "group names" in self._rejected(tmp_path, capsys, data)
        graded = json.loads(dumps(dagger(diagonal_group_algebra(cyclic_group(3), F3))))
        graded["group"]["names"] = [0, 1, 2]
        assert "group names" in self._rejected(tmp_path, capsys, graded, "gprimitives")


class TestDualDagger:
    def test_dual_round_trip(self, sweedler_file, tmp_path):
        out1 = tmp_path / "dual.json"
        out2 = tmp_path / "dual2.json"
        assert main(["dual", str(sweedler_file), "-o", str(out1)]) == 0
        assert main(["dual", str(out1), "-o", str(out2)]) == 0
        assert out2.read_text() == sweedler_file.read_text()

    def test_dagger_round_trip(self, diag_z3_file, tmp_path):
        out1 = tmp_path / "dag.json"
        out2 = tmp_path / "dag2.json"
        assert main(["dagger", str(diag_z3_file), "-o", str(out1)]) == 0
        assert main(["dagger", str(out1), "-o", str(out2)]) == 0
        assert out2.read_text() == diag_z3_file.read_text()

    def test_dagger_rejects_classical_hopf(self, sweedler_file):
        assert main(["dagger", str(sweedler_file)]) == 2


class TestComputations:
    def test_primitives_trivial(self, tmp_path, capsys):
        path = tmp_path / "trivial.json"
        path.write_text(dumps(group_algebra(cyclic_group(1), Q)))
        assert main(["primitives", str(path)]) == 0
        assert "dimension 0" in capsys.readouterr().out

    def test_michaelis_truncated(self, tmp_path, capsys):
        path = tmp_path / "t3.json"
        path.write_text(dumps(truncated_poly(3)))
        assert main(["michaelis", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dim P(dual) = 1, dim Q = 1" in out

    def test_group_michaelis_flagship(self, diag_z3_file, capsys):
        assert main(["group-michaelis", str(diag_z3_file)]) == 0
        out = capsys.readouterr().out
        assert "e: P=0 Q=0" in out and "g: P=1 Q=1" in out

    def test_group_michaelis_json_certificate(self, diag_z3_file, capsys):
        assert main(["group-michaelis", str(diag_z3_file), "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["verified"] is True

    def test_michtur1(self, diag_z3_file):
        assert main(["michtur1", str(diag_z3_file)]) == 0

    def test_gprimitives_by_name_and_index(self, diag_z3_file, tmp_path, capsys):
        dag = tmp_path / "dag.json"
        main(["dagger", str(diag_z3_file), "-o", str(dag)])
        assert main(["gprimitives", str(dag), "--g", "g"]) == 0
        assert "dim P_g = 1" in capsys.readouterr().out
        assert main(["gprimitives", str(dag), "--g", "0"]) == 0
        assert "dim P_g = 0" in capsys.readouterr().out
        assert main(["gprimitives", str(dag), "--g", "nope"]) == 2

    def test_gindecomposables(self, diag_z3_file, capsys):
        assert main(["gindecomposables", str(diag_z3_file)]) == 0
        assert "e:0, g:1, g2:1" in capsys.readouterr().out

    def test_integrals(self, tmp_path, capsys):
        path = tmp_path / "kz2.json"
        path.write_text(dumps(group_algebra(cyclic_group(2), Q)))
        assert main(["integrals", str(path)]) == 0
        assert "dimension 1" in capsys.readouterr().out


class TestZoo:
    def test_emits_loadable_object(self, tmp_path):
        out = tmp_path / "sw.json"
        assert main(["zoo", "sweedler4", "--field", "Q", "-o", str(out)]) == 0
        assert load(out) == sweedler4(Q)

    def test_diagonal_with_group_flag(self, tmp_path):
        out = tmp_path / "d.json"
        assert main([
            "zoo", "diagonal-group-algebra", "--group", "z3", "--field", "Fp:3",
            "-o", str(out),
        ]) == 0
        assert load(out) == diagonal_group_algebra(cyclic_group(3), F3)

    def test_trivial(self, tmp_path, capsys):
        assert main(["zoo", "trivial"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["dim"] == 1

    def test_unknown_name_exits_two(self):
        assert main(["zoo", "frobnicator"]) == 2

    def test_bad_field_exits_two(self):
        assert main(["zoo", "sweedler4", "--field", "R"]) == 2

    # Arguments that a constructor or an option reader rejects are bad input:
    # exit 2, an ``error:`` line, nothing on stdout (no traceback, no exit 1).
    @pytest.mark.parametrize("args", [
        "group-algebra",
        "sweedler4 --field Fp:4",
        "sweedler4 --field Fp:x",
        "group-algebra --group zx",
        "sweedler4 --field Fp:2",
        "truncated-poly --p 4",
        "exterior-super --n -1",
        "matrix-algebra --n 0",
    ])
    def test_bad_arguments_exit_two(self, args, capsys):
        assert main(["zoo", *args.split()]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1


class TestVerifySuite:
    def test_mixed_files(self, sweedler_file, diag_z3_file, tmp_path, capsys):
        assert main(["verify-suite", str(sweedler_file), str(diag_z3_file)]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == 2

    def test_failure_propagates(self, tmp_path, sweedler_file):
        data = json.loads(dumps(sweedler4(Q)))
        data["antipode"]["entries"][5] = "-1"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["verify-suite", str(sweedler_file), str(bad)]) == 1

    def test_input_error_dominates(self, sweedler_file, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("{")
        assert main(["verify-suite", str(sweedler_file), str(junk)]) == 2

    def test_directory_is_an_input_error_of_its_own(self, sweedler_file, tmp_path, capsys):
        assert main(["verify-suite", str(sweedler_file), str(tmp_path)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"{sweedler_file}: ok"
        assert lines[1].startswith(f"{tmp_path}: input error: cannot read {tmp_path}: ")

    def test_deterministic_output_order(self, sweedler_file, diag_z3_file, capsys):
        main(["verify-suite", str(sweedler_file), str(diag_z3_file)])
        first = capsys.readouterr().out
        main(["verify-suite", str(sweedler_file), str(diag_z3_file)])
        second = capsys.readouterr().out
        assert first == second


class TestInternalError:
    """Any other exception is a bug in hopflab: exit 3 and one line on stderr."""

    def test_unexpected_exception_exits_three(self, sweedler_file, capsys, monkeypatch):
        def broken(h):
            raise InvariantViolation("broken invariant")

        monkeypatch.setattr(cli, "michaelis_verify", broken)
        assert main(["michaelis", str(sweedler_file)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: InvariantViolation: broken invariant\n"


# -- the exit-code contract under fuzzing --------------------------------------
#
# One value of a canonical file of each schema is replaced or deleted; every
# command must still exit 0, 1 or 2 without a traceback.

_DIAG = diagonal_group_algebra(cyclic_group(3), F3)
FUZZ_DOCUMENTS = [
    json.loads(dumps(obj))
    for obj in (sweedler4(Q), commutator_lie(matrix_algebra(2, F3)), cyclic_group(3),
                _DIAG, dagger(_DIAG))
]
FUZZ_VALUES = [None, True, 0, -1, 10 ** 12, 1.5, "0", "x", "1/0", [], {}]
FUZZ_COMMANDS = [["check"], ["dual"], ["michaelis"], ["dagger"], ["gprimitives", "--g", "g"]]


def _value_paths(x, prefix=()):
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _value_paths(value, prefix + (key,))


FUZZ_TARGETS = [(d, path) for d, doc in enumerate(FUZZ_DOCUMENTS) for path in _value_paths(doc)]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(target=st.sampled_from(FUZZ_TARGETS),
       value=st.sampled_from(FUZZ_VALUES + ["<delete>"]))
# A huge dimension, which the sampled examples never draw: on a classical
# file, on a graded component and on an antipode.
@example(target=(0, ("dim",)), value=10 ** 12)
@example(target=(3, ("components", 1, "dim")), value=10 ** 12)
@example(target=(0, ("antipode", "rows")), value=10 ** 12)
def test_mutated_files_keep_the_exit_code_contract(target, value, tmp_path_factory):
    d, path = target
    data = json.loads(json.dumps(FUZZ_DOCUMENTS[d]))
    node = data
    for key in path[:-1]:
        node = node[key]
    if value == "<delete>":
        del node[path[-1]]
    else:
        node[path[-1]] = value
    file = tmp_path_factory.getbasetemp() / "fuzz.json"
    file.write_text(json.dumps(data))
    for command in FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(file), *command[1:]])
        assert code in (0, 1, 2), (command, path, value, err.getvalue())
        assert "Traceback" not in err.getvalue()


# -- every CLI output, pinned ------------------------------------------------------
#
# Each case is a command line whose words name either an input below or a
# literal argument.  Its stdout and stderr (input directory masked, report
# timings zeroed) are pinned by the first 16 hex digits of their SHA-256,
# together with the exit code.


def _tampered_sweedler():
    data = json.loads(dumps(sweedler4(Q)))
    data["antipode"]["entries"][5] = "-1"
    return json.dumps(data)


PIN_INPUTS = {
    "sweedler4_q": lambda: dumps(sweedler4(Q)),
    "trunc3": lambda: dumps(truncated_poly(3)),
    "exterior2": lambda: dumps(exterior_super(2)),
    "diag_z3": lambda: dumps(diagonal_group_algebra(cyclic_group(3), F3)),
    "diag_z3_dagger": lambda: dumps(dagger(diagonal_group_algebra(cyclic_group(3), F3))),
    "tampered": _tampered_sweedler,
    "malformed": lambda: dumps(sweedler4(Q))[:50],
}

_COMPUTING = ("primitives", "indecomposables", "michaelis", "integrals",
              "gprimitives --g g", "gindecomposables", "group-michaelis", "michtur1")

PIN_CASES = [
    *(f"{cmd}{form} {name}" for cmd in _COMPUTING for form in ("", " --json")
      for name in PIN_INPUTS),
    *(f"check{form} {name}" for form in ("", " --json") for name in PIN_INPUTS),
    *(f"{cmd} {name}" for cmd in ("dual", "dagger") for name in PIN_INPUTS),
    "gprimitives --g 0 diag_z3_dagger",
    "gprimitives --g 3 diag_z3_dagger",
    "gprimitives --g nope diag_z3_dagger",
    "verify-suite " + " ".join(PIN_INPUTS),
    "verify-suite --kind hopf sweedler4_q tampered",
    "zoo trivial --field Fp:5",
    "zoo sweedler4 --field Fp:3",
    "zoo group-algebra --group s3 --field Fp:2",
    "zoo function-hopf --group z3",
    "zoo truncated-poly --p 3",
    "zoo truncated-poly",
    "zoo exterior-super --n 2",
    "zoo diagonal-group-algebra --group trivial",
    "zoo matrix-algebra --n 2 --field Fp:2",
    "zoo frobnicator",
]

CLI_PINS = {
    'primitives sweedler4_q': (0, '8b09366134f82bb0', 'e3b0c44298fc1c14'),
    'primitives trunc3': (0, 'b7d81a0bb9dca08e', 'e3b0c44298fc1c14'),
    'primitives exterior2': (0, 'fe8bd4d21ccd69e2', 'e3b0c44298fc1c14'),
    'primitives diag_z3': (2, 'e3b0c44298fc1c14', '3f73b1a82aea546e'),
    'primitives diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'fd4a03db5ce3033e'),
    'primitives tampered': (1, 'e3b0c44298fc1c14', 'f668d90854e13f8b'),
    'primitives malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'primitives --json sweedler4_q': (0, 'e77730c3b46b1c70', 'e3b0c44298fc1c14'),
    'primitives --json trunc3': (0, 'f90f8ddc14ce5a50', 'e3b0c44298fc1c14'),
    'primitives --json exterior2': (0, '06b4db4402f0eb8b', 'e3b0c44298fc1c14'),
    'primitives --json diag_z3': (2, 'e3b0c44298fc1c14', '3f73b1a82aea546e'),
    'primitives --json diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'fd4a03db5ce3033e'),
    'primitives --json tampered': (1, 'e3b0c44298fc1c14', 'f668d90854e13f8b'),
    'primitives --json malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'indecomposables sweedler4_q': (0, 'd83e827f42571e95', 'e3b0c44298fc1c14'),
    'indecomposables trunc3': (0, 'd0f52a7f7d5b41d6', 'e3b0c44298fc1c14'),
    'indecomposables exterior2': (0, 'c195864d03de8461', 'e3b0c44298fc1c14'),
    'indecomposables diag_z3': (2, 'e3b0c44298fc1c14', '3f73b1a82aea546e'),
    'indecomposables diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'fd4a03db5ce3033e'),
    'indecomposables tampered': (1, 'e3b0c44298fc1c14', '85f15a81359f36ec'),
    'indecomposables malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'indecomposables --json sweedler4_q': (0, '397d101138fd0522', 'e3b0c44298fc1c14'),
    'indecomposables --json trunc3': (0, '1ad154f4ab45095a', 'e3b0c44298fc1c14'),
    'indecomposables --json exterior2': (0, '6bb1879314763399', 'e3b0c44298fc1c14'),
    'indecomposables --json diag_z3': (2, 'e3b0c44298fc1c14', '3f73b1a82aea546e'),
    'indecomposables --json diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'fd4a03db5ce3033e'),
    'indecomposables --json tampered': (1, 'e3b0c44298fc1c14', '85f15a81359f36ec'),
    'indecomposables --json malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'michaelis sweedler4_q': (0, '9b1e6736ac0aadd5', 'e3b0c44298fc1c14'),
    'michaelis trunc3': (0, '1f61628c10a22585', 'e3b0c44298fc1c14'),
    'michaelis exterior2': (0, '9b7441ebe548a128', 'e3b0c44298fc1c14'),
    'michaelis diag_z3': (2, 'e3b0c44298fc1c14', '3f73b1a82aea546e'),
    'michaelis diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'fd4a03db5ce3033e'),
    'michaelis tampered': (1, 'e3b0c44298fc1c14', '7097551ce26ce743'),
    'michaelis malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'michaelis --json sweedler4_q': (0, 'a44258261e23fd7b', 'e3b0c44298fc1c14'),
    'michaelis --json trunc3': (0, '3350379a1f9118b6', 'e3b0c44298fc1c14'),
    'michaelis --json exterior2': (0, '6a8509adf26f51ea', 'e3b0c44298fc1c14'),
    'michaelis --json diag_z3': (2, 'e3b0c44298fc1c14', '3f73b1a82aea546e'),
    'michaelis --json diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'fd4a03db5ce3033e'),
    'michaelis --json tampered': (1, 'e3b0c44298fc1c14', '7097551ce26ce743'),
    'michaelis --json malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'integrals sweedler4_q': (0, 'b1889b146233b448', 'e3b0c44298fc1c14'),
    'integrals trunc3': (0, 'a1a5dd85c8f8a7a2', 'e3b0c44298fc1c14'),
    'integrals exterior2': (0, 'f9de44a4cee8f0ab', 'e3b0c44298fc1c14'),
    'integrals diag_z3': (2, 'e3b0c44298fc1c14', '3f73b1a82aea546e'),
    'integrals diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'fd4a03db5ce3033e'),
    'integrals tampered': (1, 'e3b0c44298fc1c14', '53b95520776574a7'),
    'integrals malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'integrals --json sweedler4_q': (0, 'e54a520f5b5bf2d1', 'e3b0c44298fc1c14'),
    'integrals --json trunc3': (0, '64ce72b56c4de2e9', 'e3b0c44298fc1c14'),
    'integrals --json exterior2': (0, 'e54a520f5b5bf2d1', 'e3b0c44298fc1c14'),
    'integrals --json diag_z3': (2, 'e3b0c44298fc1c14', '3f73b1a82aea546e'),
    'integrals --json diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'fd4a03db5ce3033e'),
    'integrals --json tampered': (1, 'e3b0c44298fc1c14', '53b95520776574a7'),
    'integrals --json malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'gprimitives --g g sweedler4_q': (2, 'e3b0c44298fc1c14', '3cf3769c967e35c9'),
    'gprimitives --g g trunc3': (2, 'e3b0c44298fc1c14', '51cd0819ee539c81'),
    'gprimitives --g g exterior2': (2, 'e3b0c44298fc1c14', 'e5295d416034365b'),
    'gprimitives --g g diag_z3': (2, 'e3b0c44298fc1c14', '784ae3c6d2aef760'),
    'gprimitives --g g diag_z3_dagger': (0, '540979f1f6ccec58', 'e3b0c44298fc1c14'),
    'gprimitives --g g tampered': (2, 'e3b0c44298fc1c14', '56f48da3b736f8fa'),
    'gprimitives --g g malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'gprimitives --g g --json sweedler4_q': (2, 'e3b0c44298fc1c14', '3cf3769c967e35c9'),
    'gprimitives --g g --json trunc3': (2, 'e3b0c44298fc1c14', '51cd0819ee539c81'),
    'gprimitives --g g --json exterior2': (2, 'e3b0c44298fc1c14', 'e5295d416034365b'),
    'gprimitives --g g --json diag_z3': (2, 'e3b0c44298fc1c14', '784ae3c6d2aef760'),
    'gprimitives --g g --json diag_z3_dagger': (0, '35476fb28adaa9d0', 'e3b0c44298fc1c14'),
    'gprimitives --g g --json tampered': (2, 'e3b0c44298fc1c14', '56f48da3b736f8fa'),
    'gprimitives --g g --json malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'gindecomposables sweedler4_q': (2, 'e3b0c44298fc1c14', '3cf3769c967e35c9'),
    'gindecomposables trunc3': (2, 'e3b0c44298fc1c14', '51cd0819ee539c81'),
    'gindecomposables exterior2': (2, 'e3b0c44298fc1c14', 'e5295d416034365b'),
    'gindecomposables diag_z3': (0, '14ac3282d4e2bb18', 'e3b0c44298fc1c14'),
    'gindecomposables diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'f7f12e2e77a85469'),
    'gindecomposables tampered': (2, 'e3b0c44298fc1c14', '56f48da3b736f8fa'),
    'gindecomposables malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'gindecomposables --json sweedler4_q': (2, 'e3b0c44298fc1c14', '3cf3769c967e35c9'),
    'gindecomposables --json trunc3': (2, 'e3b0c44298fc1c14', '51cd0819ee539c81'),
    'gindecomposables --json exterior2': (2, 'e3b0c44298fc1c14', 'e5295d416034365b'),
    'gindecomposables --json diag_z3': (0, '0e3e6a0b16a994dc', 'e3b0c44298fc1c14'),
    'gindecomposables --json diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'f7f12e2e77a85469'),
    'gindecomposables --json tampered': (2, 'e3b0c44298fc1c14', '56f48da3b736f8fa'),
    'gindecomposables --json malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'group-michaelis sweedler4_q': (2, 'e3b0c44298fc1c14', '3cf3769c967e35c9'),
    'group-michaelis trunc3': (2, 'e3b0c44298fc1c14', '51cd0819ee539c81'),
    'group-michaelis exterior2': (2, 'e3b0c44298fc1c14', 'e5295d416034365b'),
    'group-michaelis diag_z3': (0, 'b12256b4dbadbcab', 'e3b0c44298fc1c14'),
    'group-michaelis diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'f7f12e2e77a85469'),
    'group-michaelis tampered': (2, 'e3b0c44298fc1c14', '56f48da3b736f8fa'),
    'group-michaelis malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'group-michaelis --json sweedler4_q': (2, 'e3b0c44298fc1c14', '3cf3769c967e35c9'),
    'group-michaelis --json trunc3': (2, 'e3b0c44298fc1c14', '51cd0819ee539c81'),
    'group-michaelis --json exterior2': (2, 'e3b0c44298fc1c14', 'e5295d416034365b'),
    'group-michaelis --json diag_z3': (0, '235729d19a66ad23', 'e3b0c44298fc1c14'),
    'group-michaelis --json diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'f7f12e2e77a85469'),
    'group-michaelis --json tampered': (2, 'e3b0c44298fc1c14', '56f48da3b736f8fa'),
    'group-michaelis --json malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'michtur1 sweedler4_q': (2, 'e3b0c44298fc1c14', '3cf3769c967e35c9'),
    'michtur1 trunc3': (2, 'e3b0c44298fc1c14', '51cd0819ee539c81'),
    'michtur1 exterior2': (2, 'e3b0c44298fc1c14', 'e5295d416034365b'),
    'michtur1 diag_z3': (0, 'a52d44b71e7e99c2', 'e3b0c44298fc1c14'),
    'michtur1 diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'f7f12e2e77a85469'),
    'michtur1 tampered': (2, 'e3b0c44298fc1c14', '56f48da3b736f8fa'),
    'michtur1 malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'michtur1 --json sweedler4_q': (2, 'e3b0c44298fc1c14', '3cf3769c967e35c9'),
    'michtur1 --json trunc3': (2, 'e3b0c44298fc1c14', '51cd0819ee539c81'),
    'michtur1 --json exterior2': (2, 'e3b0c44298fc1c14', 'e5295d416034365b'),
    'michtur1 --json diag_z3': (0, '1fdd9df042ee563e', 'e3b0c44298fc1c14'),
    'michtur1 --json diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'f7f12e2e77a85469'),
    'michtur1 --json tampered': (2, 'e3b0c44298fc1c14', '56f48da3b736f8fa'),
    'michtur1 --json malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'check sweedler4_q': (0, '5dee39bc07a3fcb9', 'e3b0c44298fc1c14'),
    'check trunc3': (0, '5dee39bc07a3fcb9', 'e3b0c44298fc1c14'),
    'check exterior2': (0, '5dee39bc07a3fcb9', 'e3b0c44298fc1c14'),
    'check diag_z3': (0, 'd2ffb64f95b0a3cf', 'e3b0c44298fc1c14'),
    'check diag_z3_dagger': (0, '853e9c66174ee16e', 'e3b0c44298fc1c14'),
    'check tampered': (1, 'e80b5b15544c7673', 'e3b0c44298fc1c14'),
    'check malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'check --json sweedler4_q': (0, '49f7cd3400d92d5c', 'e3b0c44298fc1c14'),
    'check --json trunc3': (0, '49f7cd3400d92d5c', 'e3b0c44298fc1c14'),
    'check --json exterior2': (0, '49f7cd3400d92d5c', 'e3b0c44298fc1c14'),
    'check --json diag_z3': (0, '9def0d851528af9b', 'e3b0c44298fc1c14'),
    'check --json diag_z3_dagger': (0, '67c10f1e25faea50', 'e3b0c44298fc1c14'),
    'check --json tampered': (1, '0de2a2d9c304326d', 'e3b0c44298fc1c14'),
    'check --json malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'dual sweedler4_q': (0, '0811cb604944d308', 'e3b0c44298fc1c14'),
    'dual trunc3': (0, 'cab202bb2b00129e', 'e3b0c44298fc1c14'),
    'dual exterior2': (0, 'e57b1bb57c5bb69c', 'e3b0c44298fc1c14'),
    'dual diag_z3': (2, 'e3b0c44298fc1c14', '3f73b1a82aea546e'),
    'dual diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'fd4a03db5ce3033e'),
    'dual tampered': (1, 'e3b0c44298fc1c14', 'c68b5d9bdc7bbd81'),
    'dual malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'dagger sweedler4_q': (2, 'e3b0c44298fc1c14', '9e1bbcbb1b9baf0d'),
    'dagger trunc3': (2, 'e3b0c44298fc1c14', '9e1bbcbb1b9baf0d'),
    'dagger exterior2': (2, 'e3b0c44298fc1c14', '9e1bbcbb1b9baf0d'),
    'dagger diag_z3': (0, 'ed4b3fc7cbe560fe', 'e3b0c44298fc1c14'),
    'dagger diag_z3_dagger': (0, '49c417905fefe6bd', 'e3b0c44298fc1c14'),
    'dagger tampered': (2, 'e3b0c44298fc1c14', '9e1bbcbb1b9baf0d'),
    'dagger malformed': (2, 'e3b0c44298fc1c14', 'd9391afe46a2353e'),
    'gprimitives --g 0 diag_z3_dagger': (0, '39ec7a5700d9b7a0', 'e3b0c44298fc1c14'),
    'gprimitives --g 3 diag_z3_dagger': (2, 'e3b0c44298fc1c14', 'ff55163d8edabde4'),
    'gprimitives --g nope diag_z3_dagger': (2, 'e3b0c44298fc1c14', '80d84f8acdf81bfe'),
    'verify-suite sweedler4_q trunc3 exterior2 diag_z3 diag_z3_dagger tampered malformed': (2, 'c062b7bc37960c94', 'e3b0c44298fc1c14'),
    'verify-suite --kind hopf sweedler4_q tampered': (1, '02fb93f0d1836e79', 'e3b0c44298fc1c14'),
    'zoo trivial --field Fp:5': (0, '70a89c4e1fda83e7', 'e3b0c44298fc1c14'),
    'zoo sweedler4 --field Fp:3': (0, '5b7bac8520d6bf47', 'e3b0c44298fc1c14'),
    'zoo group-algebra --group s3 --field Fp:2': (0, '132db47a5fd58751', 'e3b0c44298fc1c14'),
    'zoo function-hopf --group z3': (0, '7e7505e2e22db454', 'e3b0c44298fc1c14'),
    'zoo truncated-poly --p 3': (0, 'b0c465f18b40be17', 'e3b0c44298fc1c14'),
    'zoo truncated-poly': (2, 'e3b0c44298fc1c14', '71562bd51d4f7e68'),
    'zoo exterior-super --n 2': (0, 'c1ba86d93aa3fed7', 'e3b0c44298fc1c14'),
    'zoo diagonal-group-algebra --group trivial': (0, 'ce79e890e594bc25', 'e3b0c44298fc1c14'),
    'zoo matrix-algebra --n 2 --field Fp:2': (0, 'ac1facf2025307d7', 'e3b0c44298fc1c14'),
    'zoo frobnicator': (2, 'e3b0c44298fc1c14', 'f0f20ae37a26806e'),
}


@pytest.fixture(scope="module")
def pin_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pins")
    for name, text in PIN_INPUTS.items():
        (d / f"{name}.json").write_text(text())
    return d


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pinned_run(case: str, d, capsys):
    """(exit code, digest of stdout, digest of stderr) of one pinned case."""
    argv = [str(d / f"{w}.json") if w in PIN_INPUTS else w for w in case.split()]
    code = main(argv)
    out, err = capsys.readouterr()
    mask = lambda s: re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0', s.replace(str(d), "<dir>"))
    return code, _sha(mask(out)), _sha(mask(err))


@pytest.mark.parametrize("case", PIN_CASES)
def test_output_is_pinned(case, pin_dir, capsys):
    assert pinned_run(case, pin_dir, capsys) == CLI_PINS[case]


def test_one_parser_serves_a_sequence_of_calls(pin_dir, capsys):
    # main() builds its parser once per process, so a call must leave nothing
    # behind for the next: not a computation, a zoo error, an argparse error
    # or --help.
    def exits(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, capsys.readouterr()

    sequence = ["michaelis --json trunc3", "zoo truncated-poly", "check --json tampered"]
    for case in sequence:
        assert pinned_run(case, pin_dir, capsys) == CLI_PINS[case]
    help_code, help_text = exits(["--help"])
    assert help_code == 0 and "group-michaelis" in help_text.out
    assert exits(["check", "--kind", "nope", "x"])[0] == 2
    assert exits(["michaelis"])[0] == 2
    for case in [*sequence, "zoo frobnicator", "gprimitives --g 3 diag_z3_dagger"]:
        assert pinned_run(case, pin_dir, capsys) == CLI_PINS[case]
    assert exits(["--help"]) == (help_code, help_text)
    assert cli.build_parser() is cli.build_parser()
