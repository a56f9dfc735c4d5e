"""Certificates stay byte-identical, and the invariants they rest on agree
with the independent oracle on every object of the classical benchmark.

The pinned digests are SHA-256 of the canonical JSON (sorted keys, no
whitespace) of ``hopflab michaelis --json`` and ``hopflab group-michaelis
--json``; they were recorded before the invariants moved onto the sparse
kernel (the three over Q, where elimination does real work, before it moved
onto ``linalg.Echelon``), so any change to a certificate's bytes fails here.
"""

import hashlib
import json

import pytest

from hopflab.cli import main
from hopflab.fields import FieldSpec
from hopflab.hopf import dual_hopf
from hopflab.linalg import Matrix
from hopflab.primitives import indecomposables, primitives
from hopflab.serialize import canonical_dumps, dumps
from hopflab.turaev import cyclic_group, g_indecomposables, symmetric_group
from hopflab.zoo import (
    diagonal_group_algebra,
    exterior_super,
    function_hopf,
    group_algebra,
    sweedler4,
    truncated_poly,
)

from oracle import oracle_g_indecomposables, oracle_indecomposables, oracle_primitives, subspace_rows
from test_turaev import truncated_family

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)

PINNED = {
    "kS4/F2": ("michaelis", lambda: group_algebra(symmetric_group(4), F2),
               "61763c3a877c1fac3ae5a0e6e190dcfd67b3b5d76655a0e853f95f29072cfa63"),
    "exterior_super(3)": ("michaelis", lambda: exterior_super(3),
                          "53631434cb3f30911952c95d93f2f9b436327257d8cd71925d9e459f77e7fde0"),
    "truncated_poly(7)": ("michaelis", lambda: truncated_poly(7),
                          "c1b597d722d15e6291a16ad461595f01b5b8c1aa3fd40a332e9fc8b196703137"),
    "diag S4/F2": ("group-michaelis", lambda: diagonal_group_algebra(symmetric_group(4), F2),
                   "127168278dcb2618e93d8b8484383be988b68422ee6951e80487ad460c416ffc"),
    "truncated_poly(3) over Z3": ("group-michaelis", truncated_family,
                                  "25e5f4eb0f628b80d1f3093dd14379ef4bfc00d38f98fb2dfd6052c435675d2b"),
    "kS4/Q": ("michaelis", lambda: group_algebra(symmetric_group(4), Q),
              "0c44a3e8ff4a752dc53524cff59c10d9434cb66af93fff69eeb47ab8beec2066"),
    "kZ30/Q": ("michaelis", lambda: group_algebra(cyclic_group(30), Q),
               "a0a79b7f8e278728b8e70de2d2181c52990996df3641848103bb25fd8f3d0551"),
    "diag Z12/Q": ("group-michaelis", lambda: diagonal_group_algebra(cyclic_group(12), Q),
                   "b5f555aef3869706746ee84b4c545cd3e1eb7ef2e503292eb3fba8b7940cff3c"),
}

# The Hopf objects of the benchmark's `classical` workload.
CLASSICAL = {
    "kZ6/Q": lambda: group_algebra(cyclic_group(6), Q),
    "kS3/Q": lambda: group_algebra(symmetric_group(3), Q),
    "sweedler4/Q": lambda: sweedler4(Q),
    "exterior_super(2)": lambda: exterior_super(2),
    "exterior_super(3)": lambda: exterior_super(3),
    "kZ5/F5": lambda: group_algebra(cyclic_group(5), F5),
    "kZ8/F5": lambda: group_algebra(cyclic_group(8), F5),
    "truncated_poly(7)": lambda: truncated_poly(7),
    "truncated_poly(11)": lambda: truncated_poly(11),
    "k^Z3/F3": lambda: function_hopf(cyclic_group(3), F3),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_certificate_bytes_are_pinned(name, tmp_path, capsys):
    command, build, digest = PINNED[name]
    path = tmp_path / "input.json"
    path.write_text(dumps(build()))
    assert main([command, str(path), "--json"]) == 0
    text = canonical_dumps(json.loads(capsys.readouterr().out))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", list(CLASSICAL))
def test_classical_benchmark_invariants_agree_with_oracle(name):
    h = CLASSICAL[name]()
    for obj in (h, dual_hopf(h)):
        assert subspace_rows(primitives(obj).space) == oracle_primitives(obj)
        q = indecomposables(obj)
        data = oracle_indecomposables(obj)
        assert subspace_rows(q.ker_eps) == data["ker"]
        assert subspace_rows(q.ker_eps_sq) == data["ker_sq"]
        assert subspace_rows(q.quotient.subspace) == data["kernel"]
        basis = Matrix.identity(obj.field, obj.dim).data
        assert [list(q.pi.apply(e)) for e in basis] == [data["pi"](e) for e in basis]


def test_z3_family_indecomposables_agree_with_oracle():
    hga = truncated_family()
    gi = g_indecomposables(hga)
    oracle_per_g, data = oracle_g_indecomposables(hga, gi.total)
    assert [s.dim for s in gi.per_g] == [1, 2, 2]
    assert [subspace_rows(s) for s in gi.per_g] == oracle_per_g
    assert subspace_rows(gi.Q.ker_eps_sq) == data["ker_sq"]
    assert subspace_rows(gi.Q.quotient.subspace) == data["kernel"]
