import hashlib
import json

import pytest

from hopflab.fields import FieldSpec
from hopflab.hopf import dual_hopf
from hopflab.lie import LieAlgebraSC, commutator_lie
from hopflab.linalg import Matrix
from hopflab.serialize import (
    canonical_dumps,
    dumps,
    from_jsonable,
    matrix_from_json,
    matrix_to_json,
    mult_to_triples,
)
from hopflab.turaev import cyclic_group, dagger, symmetric_group
from hopflab.zoo import (
    diagonal_group_algebra,
    exterior_super,
    group_algebra,
    matrix_algebra,
    sweedler4,
    truncated_poly,
)

from test_turaev import concentrated_family, truncated_family

Q = FieldSpec.rationals()
F3 = FieldSpec.prime(3)


def all_objects():
    return [
        sweedler4(Q),
        exterior_super(2),
        truncated_poly(3),
        group_algebra(symmetric_group(3), Q),
        matrix_algebra(2, Q),
        sweedler4(Q).coalgebra,
        sweedler4(Q).bialgebra,
        commutator_lie(matrix_algebra(2, Q)),
        symmetric_group(3),
        diagonal_group_algebra(cyclic_group(3), F3),
        dagger(diagonal_group_algebra(cyclic_group(3), F3)),
    ]


class TestScalarFormat:
    def test_rationals_as_reduced_strings(self):
        m = Matrix.from_rows(Q, [["2/4", -3]])
        assert matrix_to_json(m)["entries"] == ["1/2", "-3"]

    def test_prime_field_as_residues(self):
        m = Matrix.from_rows(F3, [[5, -1]])
        assert matrix_to_json(m)["entries"] == [2, 2]

    def test_matrix_shape_round_trip(self):
        m = Matrix.from_rows(Q, [[1, "1/3"], [0, 2]])
        assert matrix_from_json(Q, matrix_to_json(m), m.shape) == m


class TestTripleLists:
    def test_sorted_lexicographically(self):
        h = sweedler4(Q)
        triples = mult_to_triples(h.mult, 4, 4)
        keys = [(t[0], t[1], t[2]) for t in triples]
        assert keys == sorted(keys)

    def test_zero_entries_omitted(self):
        h = truncated_poly(3)
        triples = mult_to_triples(h.mult, 3, 3)
        assert all(t[3] != 0 for t in triples)
        # x2 * x = 0, so no triple with (2, 1, *)
        assert all((t[0], t[1]) != (2, 1) for t in triples)


class TestRoundTrips:
    @pytest.mark.parametrize("obj", all_objects(), ids=lambda o: type(o).__name__)
    def test_load_save_byte_identical(self, obj):
        text = dumps(obj)
        again = from_jsonable(json.loads(text))
        assert again == obj
        assert dumps(again) == text

    def test_dual_dual_byte_identical(self):
        for h in [sweedler4(Q), truncated_poly(5), exterior_super(1),
                  group_algebra(symmetric_group(3), Q)]:
            assert dumps(dual_hopf(dual_hopf(h))) == dumps(h)

    def test_dagger_dagger_byte_identical(self):
        for hga in [
            diagonal_group_algebra(cyclic_group(2), Q),
            diagonal_group_algebra(cyclic_group(3), F3),
            diagonal_group_algebra(symmetric_group(3), Q),
        ]:
            assert dumps(dagger(dagger(hga))) == dumps(hga)
            hgc = dagger(hga)
            assert dumps(dagger(dagger(hgc))) == dumps(hgc)

    def test_parity_survives(self):
        h = exterior_super(2)
        again = from_jsonable(json.loads(dumps(h)))
        assert again.parity == h.parity


class TestGradedBytes:
    """Both graded forms are emitted and loaded by one body; the SHA-256 of
    their canonical text was recorded before the two forms were folded."""

    PINNED = {
        "truncated_family": (truncated_family,
                             "26862531437f9d690815848cf6628d59512ec7990a577754260f7b790477ff69",
                             "eca6d1adfeedc0968ac0716e3a00c713ca54a5fd213826960cf1ecf5ae3cb35c"),
        "diag S3/Q": (lambda: diagonal_group_algebra(symmetric_group(3), Q),
                      "c4d508be42479dd3d441e67fae28fd082aee390f9178049000f1a99e48859abb",
                      "4d866cf5da4a72c78091ee1b5d00e7f6d1da542a00d9ae493d89f89f5993417d"),
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_dumps_pinned_and_load_dump_identical(self, name):
        build, alg_digest, coalg_digest = self.PINNED[name]
        hga = build()
        for obj, digest in ((hga, alg_digest), (dagger(hga), coalg_digest)):
            text = dumps(obj)
            assert hashlib.sha256(text.encode()).hexdigest() == digest
            assert dumps(from_jsonable(json.loads(text))) == text

    def test_zero_dimensional_component_round_trips(self):
        # dims (3, 0): the dagger's 0-dimensional component has a 0x1 unit
        hga = concentrated_family()
        for obj in (hga, dagger(hga)):
            text = dumps(obj)
            again = from_jsonable(json.loads(text))
            assert dumps(again) == text
            assert again == obj
            assert dagger(dagger(again)) == obj


class TestKinds:
    def test_kind_dispatch(self):
        data = json.loads(dumps(sweedler4(Q)))
        assert data["kind"] == "hopf"
        assert data["schema"] == "hopf-sc/1"
        obj = from_jsonable(data, "hopf")
        assert obj == sweedler4(Q)

    def test_kind_mismatch_raises(self):
        data = json.loads(dumps(sweedler4(Q)))
        del data["antipode"]
        with pytest.raises(KeyError):
            from_jsonable(data, "hopf")

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            from_jsonable({"kind": "frobnicator"})

    def test_lie_round_trip_with_defaults(self):
        l = LieAlgebraSC(field=Q, dim=2, bracket=Matrix.zeros(Q, 2, 4))
        text = dumps(l)
        again = from_jsonable(json.loads(text))
        assert again.bracket == l.bracket
        assert dumps(again) == text


class TestCanonicalText:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_dumps({"b": 1, "a": 2})
        assert text == '{"a":2,"b":1}\n'

    def test_group_identity_validated(self):
        data = json.loads(dumps(symmetric_group(3)))
        data["identity"] = 3
        with pytest.raises(ValueError):
            from_jsonable(data)
