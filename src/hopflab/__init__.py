"""hopflab: exact-arithmetic Hopf algebra computations.

Structure-constant representations of (co/bi/Hopf) algebras over Q or F_p,
Lie (co)algebras, primitives and indecomposables with certified duality
between them, and the group-graded (Turaev) generalization with its dagger
duality.  All arithmetic is exact; every axiom check and certificate clause
is an exact matrix identity.
"""

from .errors import (
    FieldMismatchError,
    InvalidStructureError,
    InvariantViolation,
    ShapeError,
)
from .fields import FieldSpec
from .hopf import (
    AlgebraSC,
    BialgebraSC,
    CoalgebraSC,
    HopfAlgebraSC,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    check_hopf,
    convolution,
    convolution_unit,
    coopposite,
    dual_hopf,
    left_integrals,
    opposite,
    solve_antipode,
)
from .lie import (
    LieAlgebraSC,
    LieCoalgebraSC,
    check_lie,
    check_lie_coalgebra,
    cocommutator_lie_coalgebra,
    commutator_lie,
    dual_lie,
    lie_morphism_check,
)
from .linalg import (
    Matrix,
    QuotientSpace,
    Subspace,
    nullspace,
    quotient,
    rank,
    rref,
    swap_map,
    tensor,
)
from .primitives import (
    IndecomposableSpace,
    MichaelisCertificate,
    PrimitiveSpace,
    indecomposables,
    michaelis_verify,
    primitives,
)
from .report import VerificationReport
from .turaev import (
    FiniteGroup,
    GIndecomposableSpace,
    GPrimitiveSpace,
    GroupMichaelisCertificate,
    HopfGroupAlgebra,
    HopfGroupCoalgebra,
    MichTur1Certificate,
    check_group,
    check_hopf_group_algebra,
    check_hopf_group_coalgebra,
    cyclic_group,
    dagger,
    g_indecomposables,
    g_primitives,
    group_michaelis_verify,
    hopf_as_group_algebra,
    hopf_as_group_coalgebra,
    identity_component_hopf,
    mich_tur1_verify,
    symmetric_group,
    total_hopf,
    trivial_group,
)
from . import serialize, zoo

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
