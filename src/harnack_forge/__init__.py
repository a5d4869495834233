"""Sharp Harnack bounds for hypoelliptic kinetic diffusions.

The package constructs the sharp matrix bound N(t) on the Hessian of
log-densities of kinetic Fokker-Planck equations (Riccati integration,
matrix exponentials, and five closed-form curvature regimes), the
optimal-control costs entering the integrated Harnack inequality, and
verifies the resulting matrix, scalar, and integrated inequalities
against exact Gaussian solutions and a finite-difference solver.
"""

from .closed_forms import (
    CASE1,
    CASE2,
    CASE3,
    CASE4,
    CASE5,
    DomainError,
    ErrataRow,
    ORACLE_CALIBRATED,
    PRINTED,
    Regime,
    SFuncs,
    assemble_bound,
    classify,
    errata_csv,
    eval_sfuncs,
    printed_sfuncs,
    reconcile,
)
from .control_cost import (
    ControlPath,
    ControlProblem,
    KernelHarnackReport,
    TranscribeResult,
    cost_csv,
    energy_cost,
    harnack_rhs,
    log_harnack_rhs,
    transcribe_cost,
    verify_harnack_kernel,
)
from .gaussian_kernel import (
    GaussianState,
    chapman_gap,
    density,
    free_covariance,
    grid_density,
    kernel_state,
    log_density,
    log_hessian,
    pde_residual,
    propagate,
    scalar_sharpness_gap,
    sharpness_gap,
    transport_matrix,
)
from .kinetic_pde import (
    CFLError,
    EvolveReport,
    GridField,
    HarnackCheckReport,
    QuadraticPotential,
    UntestableRegionError,
    ZeroPotential,
    compute_h,
    curvature_of,
    evolve,
    kernel_field,
    load_snapshot,
    make_grid,
    save_snapshot,
    snapshot_csv,
    verify_matrix_harnack,
    verify_scalar_harnack,
)
from .riccati_engine import (
    BlockSym2n,
    CapError,
    ComparisonReport,
    CurvatureBound,
    InputError,
    M3SingularityError,
    SingularityError,
    StepUnderflowError,
    StructuralPair,
    S_from_M,
    bound_N,
    build_structural,
    comparison_check,
    exponential_route_residual,
    fundamental_M,
    hamiltonian_matrix,
    integrate_S,
    residual_defect,
    small_time_S,
    stationary_N,
    trajectory_to_csv,
)

__version__ = "0.1.0"

# The imports above declare each public name once: __all__ lists every name
# they bind that is neither private nor a submodule.
from types import ModuleType as _Module
__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and type(v) is not _Module)
