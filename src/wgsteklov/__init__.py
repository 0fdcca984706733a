"""Weak Galerkin finite elements for Steklov eigenvalue problems.

Computes lower-bound approximations of Steklov eigenvalues on triangulated
polygonal domains, with a condensed generalized eigensolver, a companion
boundary-flux source problem, and a guaranteed-lower-bound certificate
pathway.
"""

from .assembly import (
    AlphaStabilizer,
    DofMap,
    GammaStabilizer,
    NegInvLog,
    PowerEps,
    WgOperatorPair,
    assemble,
    gamma_of_h,
    interpolate,
)
from .eigen import (
    CondensedPencil,
    EigenResult,
    NumericalError,
    condense,
    solve_condensed,
    solve_pair,
)
from .glb import Certificate, GlbConfig, estimate_delta, glb_criterion, run_glb_study
from .harness import (
    ConvergenceReport,
    SQUARE_REFERENCE_EIGENVALUES,
    StudyConfig,
    export_eigenfunction_field,
    main,
    run_eigen_study,
    run_source_study,
)
from .mesh import (
    DOMAIN_AREA,
    DOMAINS,
    L_SHAPE,
    UNIT_SQUARE,
    Mesh,
    build_structured_mesh,
    locate_cell,
    mesh_stats,
    mesh_to_json,
)
from .polyquad import (
    CellBasis,
    EdgeBasis,
    QuadratureRule,
    dim_pk,
    edge_quadrature,
    triangle_quadrature,
)
from .source import (
    ManufacturedSolution,
    discrete_v_norm,
    exponential_solution,
    projection_errors,
    solve_source,
    v_norm_error,
    x_norm_error,
)
from .wgcore import (
    LocalCell,
    LocalKernels,
    epsilon_h_diagnostic,
    local_factor,
    weak_gradient_map,
)

__version__ = "0.1.0"
