"""Variational free energy of mixed even p-spin models with vector spins.

The package evaluates the discrete-path variational functional of these
models (a nested Gaussian recursion plus deterministic corrections),
optimizes its sup-inf form, and cross-checks every computable piece against
independent oracles: cascade simulation, exact small-system enumeration,
and closed-form identities.
"""

from .errors import BudgetError, InfeasibleError, NumericalError, ValidationError
from .mixing import (
    MixedModel,
    hamiltonian_covariance,
    sum_all,
    theta_matrix,
    validate_gram,
    xi_matrix,
    xi_prime_matrix,
)
from .parisi import (
    EvalSpec,
    OptimizerSpec,
    Path,
    eval_inner,
    eval_parisi,
    eval_phi,
    eval_phi_smoothed,
    guerra_bound,
    optimize,
    path_distance,
    phi_grad_lambda,
    phi_star,
    lambda_zero,
)
from .prior import (
    ConstraintHull,
    ModifierMatrix,
    SpinPrior,
    build_modifier,
    hull_membership,
    ising_prior,
    modifier_lipschitz_ratio,
    overlap,
    self_overlap,
    truncate_constraint,
)
from .rpc import (
    CascadeTree,
    TreeGaussianField,
    ancestor_depth,
    log_sum_split_check,
    sample_cascade,
    sample_fields,
    simulate_phi,
    simulate_y_functional,
    y_functional_closed_form,
)
from .system import (
    DisorderSample,
    PerturbationSpec,
    PerturbationTerm,
    constrained_free_energy,
    exact_free_energy,
    gg_discrepancy,
    hamiltonian,
    hamiltonian_covariance_mc,
    perturbation_covariance_mc,
    perturbation_h,
    perturbation_h_theta,
    sample_disorder,
)

__version__ = "0.1.0"
