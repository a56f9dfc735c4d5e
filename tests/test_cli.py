import json

import pytest

from hopflab.cli import main
from hopflab.fields import FieldSpec
from hopflab.serialize import dumps, load
from hopflab.turaev import cyclic_group
from hopflab.lie import commutator_lie
from hopflab.zoo import (
    diagonal_group_algebra,
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
        assert main([command, str(path)]) == 2
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

    def test_deterministic_output_order(self, sweedler_file, diag_z3_file, capsys):
        main(["verify-suite", str(sweedler_file), str(diag_z3_file)])
        first = capsys.readouterr().out
        main(["verify-suite", str(sweedler_file), str(diag_z3_file)])
        second = capsys.readouterr().out
        assert first == second
