"""Structure-preserving simulator for i*drho/dt = [H, f(rho)].

Deformations f with f(0)=0, f(1)=1 (power law f(x)=x**q in particular)
keep pure-state dynamics linear while mixed states precess at
eigenvalue-dependent rates. Integration is by unitary conjugation with
the divided-difference generator, so spectra, Casimirs Tr(rho^n) and the
deformed energy are conserved structurally. Includes the two-subsystem
extension, nonextensive thermodynamics (S_q, U_q, F = U_q - T S_q,
the q-equilibrium of any Hamiltonian), classical-ensemble averaging with dephasing
diagnostics, and a JSON-config CLI (`nvne run`).
"""

from .composite import (
    CompositeSystem,
    composite_energy,
    evolve_composite,
    reduction_consistency,
)
from .deformation import CoefficientSeries, DeformationFunction, PowerLaw
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    evolve,
    invariant_report,
    larmor_frequency,
    precession_frequency,
)
from .ensemble import (
    EnsembleSpec,
    dephasing_analytic,
    ensemble_average,
    evolve_node,
    gauss_legendre,
    sin_psi_half_weight,
    tilted_weight,
)
from .errors import ConfigError, DomainError, IoError, NumericalFailure, NvneError
from .hermitian import (
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    bloch_state,
    matrix_function,
    partial_trace,
    pure_state,
    random_density_matrix,
    random_hermitian,
    trace_distance,
    trace_norm,
    validate_density,
)
from .structure import (
    ObservableFunctional,
    casimir_functional,
    finite_difference_gradient,
    generator,
    hamiltonian_function,
    poisson_bracket,
    q_average_functional,
    trace_polynomial_functional,
)
from .thermo import (
    EquilibriumResult,
    ThermoParams,
    free_energy,
    q_equilibrium,
    tsallis_entropy,
)

__version__ = "0.1.0"
