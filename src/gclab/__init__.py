"""Two-mode Gaussian states in uncorrelated Gaussian channels.

Covariance-matrix value types, mixedness and entanglement functionals, the
exact dissipative channel map, and entanglement-time analysis.
"""

from .channels import (
    BathSpec,
    ChannelSpec,
    asymptotic_covariance,
    nm_from_phenomenological,
    phenomenological_from_nm,
)
from .entanglement import (
    NEVER,
    EntanglementTimeResult,
    InvariantPolynomials,
    entanglement_time,
    invariant_polynomials,
    real_quartic_roots,
    separability_quartic,
    squeezed_thermal_tent,
    symmetric_tent_bounds,
)
from .errors import (
    ComplexSpectrumError,
    DomainError,
    GclabError,
    InvalidStateError,
    MethodDisagreementError,
    NonSymmetricMatrixError,
    NotEntangledAtStartError,
    NotSymmetricStateError,
    NumericalDegeneracyError,
    UnphysicalChannelError,
)
from .evolution import (
    EvolutionProblem,
    MetricsRow,
    evolve,
    evolve_ode_oracle,
    metrics_at,
    time_series,
)
from .states import (
    CovarianceMatrix,
    NegativityResult,
    StandardForm,
    SymplecticInvariants,
    SymplecticSpectrum,
    ValidationReport,
    entropy_kernel,
    local_invariants,
    log_negativity,
    mutual_information,
    purity,
    require_bona_fide,
    squeezed_thermal_state,
    standard_form_from_invariants,
    symmetric_ppt_eigenvalue,
    symplectic_spectrum,
    validate_covariance,
    von_neumann_entropy,
)

__version__ = "0.1.0"
