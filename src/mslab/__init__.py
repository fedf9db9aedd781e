"""mslab: numerical laboratory for derivative and interpolation constants
on model spaces of the unit disc.

The package computes, exactly at desk scale, the norm of differentiation on
the n-dimensional space of rational functions with prescribed poles
(restricted to the Hardy or Bergman target), and the constant of minimum
Dirichlet-norm interpolation on finite disc configurations, together with
the closed-form envelopes that bracket both families and the audit reports
for the envelope pieces that fail numerically.
"""

from .bernstein import (
    BernsteinResult,
    BoundEnvelope,
    EnPrimeAudit,
    RatioRow,
    Step2Report,
    asymptotic_ratio_sweep,
    bernstein_constant_sigma,
    constant_from_basis,
    default_alternation_depth,
    en_prime_bergman_audit,
    eq4_envelope,
    step2_expansion_check,
    step2_test_function,
    sup_constant_search,
    z2_upper_hardy,
)
from .blaschke import (
    MalmquistBasis,
    PoleConfiguration,
    blaschke_factor_eval,
    blaschke_product_eval,
    malmquist_basis,
    malmquist_basis_auto,
    model_projection,
    multiplicity_groups,
    parse_sigma_spec,
)
from .errors import CertificationError
from .hermitian import (
    Eigenpair,
    HermitianMatrix,
    eigenvalues,
    gram_matrix,
    max_eigenpair,
    max_generalized_eigenpair,
    min_norm_solve,
)
from .interpolation import (
    Eq9Bounds,
    InterpResult,
    dirichlet_kernel_diag,
    interp_exact,
    interp_lower_eq9,
    interp_upper_projection,
    single_point_closed_form,
    theoremB_envelopes,
    theoremB_test_function,
)
from .quadrature import (
    DiscQuadrature,
    MoebiusReport,
    bergman_norm_quadrature,
    hardy_norm_circle,
    moebius_invariance_check,
)
from .series import (
    NormKind,
    TaylorSeries,
    add,
    cauchy_kernel_series,
    compose_with_blaschke_factor,
    differentiate,
    evaluate,
    inner,
    multiply,
    norm,
    norm_sq,
    policy_truncation,
    polynomial,
    scale,
)
from .verification import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "BernsteinResult",
    "BoundEnvelope",
    "CertificationError",
    "CheckResult",
    "DiscQuadrature",
    "Eigenpair",
    "EnPrimeAudit",
    "Eq9Bounds",
    "HermitianMatrix",
    "InterpResult",
    "MalmquistBasis",
    "MoebiusReport",
    "NormKind",
    "PoleConfiguration",
    "RatioRow",
    "Step2Report",
    "TaylorSeries",
    "add",
    "asymptotic_ratio_sweep",
    "bergman_norm_quadrature",
    "bernstein_constant_sigma",
    "blaschke_factor_eval",
    "blaschke_product_eval",
    "cauchy_kernel_series",
    "compose_with_blaschke_factor",
    "constant_from_basis",
    "default_alternation_depth",
    "differentiate",
    "dirichlet_kernel_diag",
    "eigenvalues",
    "en_prime_bergman_audit",
    "eq4_envelope",
    "evaluate",
    "gram_matrix",
    "hardy_norm_circle",
    "inner",
    "interp_exact",
    "interp_lower_eq9",
    "interp_upper_projection",
    "malmquist_basis",
    "malmquist_basis_auto",
    "max_eigenpair",
    "max_generalized_eigenpair",
    "min_norm_solve",
    "model_projection",
    "moebius_invariance_check",
    "multiply",
    "multiplicity_groups",
    "norm",
    "norm_sq",
    "parse_sigma_spec",
    "policy_truncation",
    "polynomial",
    "run_all",
    "scale",
    "single_point_closed_form",
    "step2_expansion_check",
    "step2_test_function",
    "sup_constant_search",
    "theoremB_envelopes",
    "theoremB_test_function",
    "z2_upper_hardy",
    "__version__",
]
