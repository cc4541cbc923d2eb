"""Fixed-point solving with Lorentz-cone monotone-convergence certificates.

The iterate sequence of a declared contraction is paired with a scalar
majorant sequence so that the pair is monotone increasing and bounded in
the order induced by the Lorentz cone; the certificate module verifies
those order relations independently and turns them into rigorous error
bounds.
"""

__version__ = "0.3.0"

from .cone import (
    AugmentedPoint,
    TolerancePolicy,
    as_vector,
    leq_lorentz,
    lorentz_contains,
    norm,
)
from .contraction import (
    Affine,
    Constant,
    ContractionSpec,
    KeplerScalar,
    ScaledRotation,
    ValidationReport,
    empirical_lipschitz,
    evaluate,
    evaluate_batch,
    spectral_norm,
    validate_contraction,
)
from .engine import (
    APosteriori,
    APriori,
    FixedCount,
    IterationTrace,
    StopReason,
    a_priori_iterations,
    augmented_step,
    run,
    t_closed_form,
)
from .certificate import (
    ConvergenceCertificate,
    OmegaSpec,
    canonical_omega_witness,
    default_witnesses,
    omega_bounds,
    omega_contains,
    omega_t_floor,
    sample_omega,
    verify_certificate,
)
from .problems import (
    ProblemInstance,
    builtin,
    builtin_catalog,
    reference_fixed_point,
    reference_residual,
)
from .errors import (
    ConeFixpointError,
    DimensionMismatchError,
    InvalidInputError,
    InvalidSpecError,
    InvalidWitnessError,
    NotAContractionError,
    ProblemFileError,
    UnsupportedInstanceError,
)

__all__ = [
    "__version__",
    "AugmentedPoint", "TolerancePolicy", "as_vector", "leq_lorentz",
    "lorentz_contains", "norm",
    "Affine", "Constant", "ContractionSpec", "KeplerScalar", "ScaledRotation",
    "ValidationReport", "empirical_lipschitz", "evaluate", "evaluate_batch",
    "spectral_norm", "validate_contraction",
    "APosteriori", "APriori", "FixedCount", "IterationTrace", "StopReason",
    "a_priori_iterations", "augmented_step", "run", "t_closed_form",
    "ConvergenceCertificate", "OmegaSpec", "canonical_omega_witness",
    "default_witnesses", "omega_bounds", "omega_contains", "omega_t_floor",
    "sample_omega", "verify_certificate",
    "ProblemInstance", "builtin", "builtin_catalog", "reference_fixed_point",
    "reference_residual",
    "ConeFixpointError", "DimensionMismatchError", "InvalidInputError",
    "InvalidSpecError", "InvalidWitnessError", "NotAContractionError",
    "ProblemFileError", "UnsupportedInstanceError",
]
