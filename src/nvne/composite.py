"""Two-subsystem extension with reduced-density-matrix feedback.

The joint state evolves under

    i d/dt rho_AB = [G_I(rho_I) (x) 1 + 1 (x) G_II(rho_II), rho_AB]

with G_I, G_II the divided-difference generators of the reductions. The two
generator terms commute, so the step unitary factors as U_I (x) U_II, and
each reduction obeys its own isospectral equation (Czachor, Phys. Rev. A 57
(1998) 4122). evolve_composite therefore runs each reduction once through
dynamics.evolve and forms the joint state at the record points, with
eigenvectors kron(W_I, W_II) V_0, where W = V(t) V(0)^dagger, and the
invariant spectrum of rho_AB(0); its energy log is the sum of the two runs'
energy maps, and the joint Trajectory holds the two runs. reduction_consistency
compares them with the partial traces of the joint stack (one
hermitian.partial_trace call): it checks the assembly of the joint state from
its reductions' runs, not the step.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .deformation import PowerLaw
from .dynamics import IntegratorConfig, Trajectory, _record, _record_times, evolve, record_count
from .errors import DomainError
from .hermitian import DensityMatrix, partial_trace, require_hermitian, trace_norm, validate_density


@dataclass(frozen=True)
class CompositeSystem:
    dim_1: int
    dim_2: int
    h1: np.ndarray
    h2: np.ndarray
    q1: float
    q2: float
    f1: PowerLaw = field(init=False, repr=False)
    f2: PowerLaw = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "f1", PowerLaw(q=self.q1))
        object.__setattr__(self, "f2", PowerLaw(q=self.q2))
        object.__setattr__(self, "h1", require_hermitian(self.h1, what="H_I"))
        object.__setattr__(self, "h2", require_hermitian(self.h2, what="H_II"))
        if self.h1.shape != (self.dim_1, self.dim_1) or self.h2.shape != (self.dim_2, self.dim_2):
            raise DomainError("subsystem Hamiltonian shapes do not match dims")


def evolve_composite(rho0: DensityMatrix, sys: CompositeSystem, cfg: IntegratorConfig) -> Trajectory:
    """Midpoint integration of the joint equation, one evolve per reduction; the
    logged energy is the conserved two-system Hamiltonian function."""
    d = sys.dim_1 * sys.dim_2
    if rho0.dim != d:
        raise DomainError(f"joint state dim {rho0.dim} != {sys.dim_1}*{sys.dim_2}")
    # evolve checks the stacks of each reduction; the joint ones are larger
    record_count(cfg.n_steps, cfg.record_every, d)
    runs = tuple(evolve(validate_density(red), h, f, cfg) for red, h, f in
                 zip(partial_trace(rho0.matrix, (sys.dim_1, sys.dim_2)), (sys.h1, sys.h2), (sys.f1, sys.f2)))
    # W = V(t) V(0)^dagger of each reduction
    w1, w2 = (r.eigenvectors @ r.eigenvectors[0].conj().T for r in runs)
    vs = np.einsum("tij,tkl->tikjl", w1, w2).reshape(-1, d, d) @ rho0.eigenvectors
    vs[0] = rho0.eigenvectors
    return _record(rho0, vs, cfg, lambda b: sum(r._energy(b) for r in runs), runs)


def reduction_consistency(traj_ab: Trajectory, sys: CompositeSystem, cfg: IntegratorConfig) -> dict:
    """The worst trace-norm gap between each partial trace of the joint run
    traj_ab and the run of that reduction that traj_ab holds, as
    max_deviation_I and max_deviation_II. Integrates nothing; DomainError if
    traj_ab is no joint run of evolve_composite at sys's dims and cfg's times."""
    dims = (sys.dim_1, sys.dim_2)
    if (tuple(r.eigenvalues.shape[0] for r in traj_ab.reductions) != dims
            or not np.array_equal(_record_times(cfg, sys.dim_1 * sys.dim_2), traj_ab.times)):
        raise DomainError(f"reduction_consistency needs a joint run of evolve_composite at dims {dims}, recorded "
                          f"at the times of the integrator config; the run holds {len(traj_ab.times)} times")
    return {f"max_deviation_{side}": float(np.max(trace_norm(reds - run.matrices)))
            for side, reds, run in zip(("I", "II"), partial_trace(traj_ab.matrices, dims), traj_ab.reductions)}
