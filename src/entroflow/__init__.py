"""Entropy-ascent flows on matrix exponential families with marginal-entropy
constraints: BKM geometry, constraint projectors, dissipative/reversible flow
integration, and modular (thermal-lock) diagnostics.
"""

from .classical import (
    JointDistribution,
    classical_origin_infeasible,
    random_joint_distribution,
    shannon_entropies,
)
from .constraint import (
    ConstraintGeometry,
    constraint_geometry,
    constraint_gradient,
    constraint_hessian,
    constraint_max,
    soft_mode_count,
    stiffness_spectrum,
)
from .errors import (
    BoundaryStateError,
    ConservationError,
    DegenerateProjectionError,
    EntroflowError,
    FullyConstrainedError,
    IntegrationError,
    NumericalDegeneracyError,
    UnsupportedShapeError,
)
from .expfamily import (
    ExpFamilyPoint,
    bkm_kernel_matrix,
    make_point,
    params_from_state,
    state_from_params,
)
from .flow import (
    FlowConfig,
    Trajectory,
    entropy_time_fit,
    integrate,
)
from .modular import (
    gibbs_entropy_derivative,
    gibbs_lock_residual,
    modular_energy_sum,
    modular_hamiltonian,
    total_modular_consistency,
)
from .operators import (
    OperatorBasis,
    SubsystemShape,
    as_shape,
    exp_divided_difference,
    exp_second_divided_difference,
    gell_mann_basis,
    product_basis,
)
from .states import (
    entropy_of_spectrum,
    gibbs_state,
    lme_origin,
    marginal_entropies,
    multi_information,
    random_density_matrix,
    random_hermitian,
    regularized_origin,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryStateError",
    "ConservationError",
    "ConstraintGeometry",
    "DegenerateProjectionError",
    "EntroflowError",
    "ExpFamilyPoint",
    "FlowConfig",
    "FullyConstrainedError",
    "IntegrationError",
    "JointDistribution",
    "NumericalDegeneracyError",
    "OperatorBasis",
    "SubsystemShape",
    "Trajectory",
    "UnsupportedShapeError",
    "as_shape",
    "bkm_kernel_matrix",
    "classical_origin_infeasible",
    "constraint_geometry",
    "constraint_gradient",
    "constraint_hessian",
    "constraint_max",
    "entropy_of_spectrum",
    "entropy_time_fit",
    "exp_divided_difference",
    "exp_second_divided_difference",
    "gell_mann_basis",
    "gibbs_entropy_derivative",
    "gibbs_lock_residual",
    "gibbs_state",
    "integrate",
    "lme_origin",
    "make_point",
    "marginal_entropies",
    "modular_energy_sum",
    "modular_hamiltonian",
    "multi_information",
    "params_from_state",
    "product_basis",
    "random_density_matrix",
    "random_hermitian",
    "random_joint_distribution",
    "regularized_origin",
    "shannon_entropies",
    "soft_mode_count",
    "state_from_params",
    "stiffness_spectrum",
    "total_modular_consistency",
    "von_neumann_entropy",
]
