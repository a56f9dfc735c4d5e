"""Group-graded Hopf structures and the degreewise duality.

A Hopf group-algebra spreads a Hopf-like structure over a finite group G:
one coalgebra component per element, multiplications graded along the group
law, antipodes S_g : H_g -> H_{g^-1}.  The dagger construction dualizes
componentwise and exchanges these with Hopf group-coalgebras.

Two facts get machine-certified here on the diagonal family H_g = k.g:

* the primitives of the assembled total Hopf algebra all live in the
  identity component;
* for every degree g, the dual of Q_g (the image of H_g in the
  indecomposables of the total) is isomorphic as a Lie algebra to the
  degree-g primitives of the dagger, via alpha(f) = f . pi_g, with an
  explicit inverse beta certified by beta . alpha = id.

Over F_p the off-identity degrees carry 1-dimensional spaces (additive
characters of the group); over Q everything vanishes, and the certificates
confirm that both sides vanish together.
"""

from hopflab import FieldSpec
from hopflab.turaev import (
    cyclic_group,
    dagger,
    g_indecomposables,
    g_primitives,
    group_michaelis_verify,
    mich_tur1_verify,
    symmetric_group,
    total_hopf,
)
from hopflab.zoo import diagonal_group_algebra, group_algebra

F3 = FieldSpec.prime(3)
Q = FieldSpec.rationals()

print("=== The diagonal family over Z/3, F3 ===")
hga = diagonal_group_algebra(cyclic_group(3), F3)
total = total_hopf(hga)
print("  total Hopf algebra equals k[Z/3]:", total == group_algebra(cyclic_group(3), F3))

cert1 = mich_tur1_verify(hga)
print("  P(total) inside the identity block:", cert1.contained_in_e_block)
print("  P(total) == P(H_e):", cert1.spaces_equal)
print()

print("=== Degreewise primitives of the dagger ===")
hgc = dagger(hga)
for g, p in enumerate(g_primitives(hgc)):
    fam = [list(r) for r in p.family_space.basis.data]
    print(f"  degree {hga.group.element_names[g]}: dim {p.space.dim}, joint families {fam}")
print("  (the family (0, 1, 2) is the additive character h -> h of Z/3)")
print()

print("=== Degreewise indecomposables of the family ===")
gi = g_indecomposables(hga)
print("  dim Q(total):", gi.Q.quotient.dim)
print("  per degree:", [s.dim for s in gi.per_g])
print()

print("=== The full graded duality certificate ===")
cert = group_michaelis_verify(hga)
for d in cert.degrees:
    print(f"  degree {d.name}: dim P = {d.dim_p}, dim Q = {d.dim_q}, "
          f"beta.alpha = id: {d.beta_alpha_identity}")
print("  family components all primitive in their own degree:",
      cert.family_components_primitive)
print("  verified:", cert.verified)
print()

print("=== Over the rationals every degree vanishes, and that is certified too ===")
cert_q = group_michaelis_verify(diagonal_group_algebra(symmetric_group(3), Q))
print("  diag(S3, Q) dims:", cert_q.dims, "verified:", cert_q.verified)
