"""Exact engine for the semi-infinite Weil complex of a graded Lie algebra,
its N=2 and S'(2,alpha) superconformal actions, and the associated
Kahler-type operator package, verified on finite truncation boxes."""

from .scalars import QI, ZERO, ONE, I, parse_qi, format_qi
from .liealg import (
    LieAlgebraSpec,
    GradedBackend,
    StructureError,
    CheckReport,
    abelian,
    builtin_sl2_orthonormal,
    check_jacobi,
    check_invariant_form,
    loop_backend,
    witt_backend,
    fmu_backend,
    parse_backend,
)
from .fock import (
    GenKey,
    FockMonomial,
    FockVector,
    Box,
    VACUUM,
    apply_generator,
    enumerate_box,
    parse_monomial,
    format_monomial,
)
from .fieldops import (
    Operator,
    FieldOperator,
    SumOperator,
    build_differential_d,
    build_differential_parts,
    build_dc,
    build_koszul_h,
    build_n2_family,
    build_s2alpha_family,
    build_sl2_EHF,
    build_theta_adjoint,
    build_witt_rep,
    hermitian_form,
    hodge_form,
    pairing_form,
    split_d1_d2,
    star,
    super_commutator,
)
from .sca import (
    SCAElement,
    SuperVectorField,
    derext_action,
    kahler_bracket,
    n2_bracket,
    psi,
    s2a_basis_bracket,
    s2a_bracket,
    spectral_flow,
    vf_bracket,
    vf_realize,
)
from .verify import (
    RelationReport,
    _lazy_submodule,
    check_chain_identities,
    check_d_compatibility,
    check_relative_derext,
    check_representation,
    claimed_charge,
    extract_central_charge,
    n2_builder,
    n2_table,
    s2a_builder,
    s2a_table,
)

# only the cohomology and kahler commands need this module: it runs on
# first use, and these package names resolve through it (PEP 562)
cohomology = _lazy_submodule("cohomology")
_COHOMOLOGY_NAMES = frozenset((
    "Matrix",
    "GradedPiece",
    "PieceRow",
    "cohomology_table",
    "harmonic_lefschetz_report",
    "kahler_matrix_checks",
    "koszul_single_pair_report",
    "piece_basis",
))


def __getattr__(name):
    if name in _COHOMOLOGY_NAMES:
        return getattr(cohomology, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
