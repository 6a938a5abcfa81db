"""Verification toolkit for the curvature calculus of period-domain bundles.

The pieces: an exterior algebra on the coordinate 1-forms of a symmetric
period matrix (extform), closed curvature forms and their finite-difference
oracle (curvature), Chern/Segre forms by independent routes (charforms),
exact rational rank arguments for symmetric maps (symmaps), affine slices
and their real-symplectic picture (slices), and named suites behind a CLI
(suites, cli).
"""

from .charforms import (
    chern_classes,
    chern_total,
    check_average_wedge_powers,
    check_chern_segre_equality,
    check_pointwise_identity,
    check_positivity_and_vanishing,
    segre_by_inverse,
    segre_by_moments,
    segre_by_quadrature,
)
from .curvature import (
    curvature_fd,
    curvature_pairing_form,
    curvature_package,
    fd_relative_error,
    fundamental_form,
    line_hermitian_form,
    matched_dual_vector,
)
from .errors import HodgecheckError
from .extform import ExtForm, FormMatrix, restrict_to_plane
from .linalg import (
    LinSubspace,
    SiegelPoint,
    SymMap,
    make_siegel_point,
    subspace_distance,
)
from .report import VerificationReport, canonical_json, strip_timing
from .sampling import derive_rng, random_siegel_point, random_subspace
from .slices import (
    AffineSlice,
    check_embedded_subspace_invariance,
    complex_structure,
    real_embedding,
    slice_member,
    standard_symplectic,
)
from .suites import SUITES, RunConfig, run_suites
from .symmaps import (
    RationalSymMap,
    annihilator_rigidity_suite,
    check_evaluation_degeneracy,
    find_rank_ones,
    pencil_rank_profile,
    rank_locus_tangent_check,
    wperp,
    wperp_exact,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSlice",
    "ExtForm",
    "FormMatrix",
    "HodgecheckError",
    "LinSubspace",
    "RationalSymMap",
    "RunConfig",
    "SUITES",
    "SiegelPoint",
    "SymMap",
    "VerificationReport",
    "annihilator_rigidity_suite",
    "canonical_json",
    "chern_classes",
    "chern_total",
    "check_average_wedge_powers",
    "check_chern_segre_equality",
    "check_embedded_subspace_invariance",
    "check_evaluation_degeneracy",
    "check_pointwise_identity",
    "check_positivity_and_vanishing",
    "complex_structure",
    "curvature_fd",
    "curvature_package",
    "curvature_pairing_form",
    "derive_rng",
    "fd_relative_error",
    "find_rank_ones",
    "fundamental_form",
    "line_hermitian_form",
    "make_siegel_point",
    "matched_dual_vector",
    "pencil_rank_profile",
    "random_siegel_point",
    "random_subspace",
    "rank_locus_tangent_check",
    "real_embedding",
    "restrict_to_plane",
    "run_suites",
    "segre_by_inverse",
    "segre_by_moments",
    "segre_by_quadrature",
    "slice_member",
    "standard_symplectic",
    "strip_timing",
    "subspace_distance",
    "wperp",
    "wperp_exact",
]
