"""Equivariant-degree bifurcation toolkit for symmetric elliptic systems on the unit disc.

The package computes, for a symmetric sublinear Laplace system on the planar
disc, the Burnside-ring basic degrees of its irreducible symmetry blocks, the
local bifurcation invariants at every eigenvalue crossing of the linearization,
and global verdicts certifying unbounded branches of non-radial solutions.
"""

from .bifurcation import (
    BifurcationProblem,
    BranchCertificate,
    FoldingProfile,
    GlobalVerdict,
    LocalInvariant,
    branch_certificates,
    folding_profile,
    global_verdict,
    local_invariant,
    rabinowitz_sum,
    theorem_bounded_coeff,
)
from .burnside import BurnsideElement
from .degrees import (
    basic_degree,
    basic_degree_direct,
    degree_product,
    fold_element,
)
from .groups import (
    CharacterTable,
    FiniteGroup,
    OrthogonalAction,
    Permutation,
    SubgroupClass,
    cyclic_group,
    direct_product,
    group_from_generators,
    n_count,
    symmetric_group,
)
from .model_io import (
    Model,
    bundled_config,
    bundled_model,
    load_model,
    model_kernel_mode,
    report_json,
    run_report,
)
from .orbit_types import (
    AmbientContext,
    Irrep,
    OrbitType,
    fixed_dim_irrep,
    fold,
    leq,
    maximal_types,
    n_amalgam,
    orbit_types,
    parse_symbol,
)
from .spectrum import (
    BesselZeroTable,
    CriticalPoint,
    EigenvalueCurve,
    KernelMode,
    bessel_j,
    bessel_zero,
    critical_points,
    index_sets,
    kernel_mode,
)

__version__ = "0.2.0"
