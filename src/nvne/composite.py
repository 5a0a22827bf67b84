"""Two-subsystem extension with reduced-density-matrix feedback.

The joint state evolves under

    i d/dt rho_AB = [G_I(rho_I) (x) 1 + 1 (x) G_II(rho_II), rho_AB]

with G_I, G_II the divided-difference generators of the reductions. The two
generator terms commute, so the step unitary factors as U_I (x) U_II, and
each reduction obeys its own isospectral equation: its spectrum and kernel
are constants of the flow. evolve_composite therefore steps the
eigenvectors V_I, V_II of the two reductions through dynamics._advance
(kernels taken once from the initial reductions) and forms the joint state
at the record points, with eigenvectors kron(W_I, W_II) V_0, where
W = V(t) V(0)^dagger, and the invariant spectrum of rho_AB(0); the energy
log comes from the spectra and eigenvector stacks of the reductions. Every
reduction here, of one state or of the whole recorded stack, comes from one
hermitian.partial_trace call, and the partial traces of the joint trajectory
track the independently integrated subsystem equations to round-off.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .deformation import PowerLaw
from .dynamics import IntegratorConfig, Trajectory, _advance, _record, evolve, record_count
from .errors import DomainError
from .hermitian import DensityMatrix, partial_trace, require_hermitian, trace_norm, validate_density
from .structure import _kernel, hamiltonian_function


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
    """Midpoint integration of the joint equation; the logged
    energy is the conserved two-system Hamiltonian function."""
    d = sys.dim_1 * sys.dim_2
    if rho0.dim != d:
        raise DomainError(f"joint state dim {rho0.dim} != {sys.dim_1}*{sys.dim_2}")
    # _advance checks the stacks of each reduction; the joint ones are larger
    record_count(cfg.n_steps, cfg.record_every, d)
    runs = []
    for red, h, f in zip(partial_trace(rho0.matrix, (sys.dim_1, sys.dim_2)), (sys.h1, sys.h2), (sys.f1, sys.f2)):
        red = validate_density(red)
        runs.append((red.eigenvalues, _advance(red.eigenvectors, h, _kernel(red.eigenvalues, f),
                                               cfg.dt, cfg.n_steps, cfg.record_every), h, f))
    # W = V(t) V(0)^dagger of each reduction
    w1, w2 = (v @ v[0].conj().T for _, v, _, _ in runs)
    vs = np.einsum("tij,tkl->tikjl", w1, w2).reshape(-1, d, d) @ rho0.eigenvectors
    vs[0] = rho0.eigenvectors
    # the energies of the reductions V(t) diag(w) V(t)^dagger, from their stacks
    return _record(rho0, vs, cfg, lambda b: sum(hamiltonian_function((w, v[b]), h, f) for w, v, h, f in runs))


def reduction_consistency(traj_ab: Trajectory, sys: CompositeSystem, cfg: IntegratorConfig) -> dict:
    """Evolve each reduction of the initial state under its own single-system
    equation and compare against the partial traces of the joint run at the
    recorded times: the worst trace-norm gap of each reduction, as
    max_deviation_I and max_deviation_II."""
    gaps = {}
    for side, reds, h, f in zip(("I", "II"), partial_trace(traj_ab.matrices, (sys.dim_1, sys.dim_2)),
                                (sys.h1, sys.h2), (sys.f1, sys.f2)):
        own = evolve(validate_density(reds[0]), h, f, cfg)
        if not np.array_equal(own.times, traj_ab.times):
            raise DomainError("reduction_consistency needs the integrator config of the joint run: "
                              f"its times differ from the joint run's {len(traj_ab.times)} recorded times")
        gaps[f"max_deviation_{side}"] = float(np.max(trace_norm(reds - own.matrices)))
    return gaps
