"""Structure-preserving simulator for i*drho/dt = [H, f(rho)].

Deformations f with f(0)=0, f(1)=1 (power law f(x)=x**q in particular)
keep pure-state dynamics linear while mixed states precess at
eigenvalue-dependent rates. Integration is by unitary conjugation with
the divided-difference generator, so spectra, Casimirs Tr(rho^n) and the
deformed energy are conserved structurally. Includes the two-subsystem
extension, nonextensive thermodynamics (S_q, U_q, F = U_q - T S_q,
the q-equilibrium of any Hamiltonian), classical-ensemble averaging with dephasing
diagnostics, and a JSON-config CLI (`nvne run`). Names are imported from
their modules.
"""

# the names perfbench/ reads as nvne.<name>
from .composite import CompositeSystem, evolve_composite, reduction_consistency
from .deformation import PowerLaw
from .dynamics import IntegratorConfig
from .hermitian import SIGMA_X, SIGMA_Z, random_density_matrix, random_hermitian

__version__ = "0.1.0"
