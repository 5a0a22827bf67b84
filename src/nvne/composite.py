"""Two-subsystem extension with reduced-density-matrix feedback.

The joint state evolves under

    i d/dt rho_AB = [G_I(rho_I) (x) 1 + 1 (x) G_II(rho_II), rho_AB]

with rho_I, rho_II recomputed from the joint state at every (half-)step.
Because the two generator terms commute, the step unitary factors as a
Kronecker product of the subsystem unitaries, which makes the partial
trace of the joint trajectory track the independently integrated
subsystem equations to round-off.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deformation import PowerLaw
from .dynamics import IntegratorConfig, Trajectory, _with_invariants, invariant_report
from .errors import DimensionMismatch, DomainError
from .hermitian import (
    DensityMatrix,
    _zero_round_off,
    partial_trace,
    partial_trace_matrix,
    require_hermitian,
    trace_norm,
    validate_density,
)
from .structure import _divided_difference_transform, _eigenbasis_diagonal


@dataclass(frozen=True)
class CompositeSystem:
    dim_1: int
    dim_2: int
    h1: np.ndarray
    h2: np.ndarray
    q1: float
    q2: float

    def __post_init__(self):
        if self.q1 <= 0 or self.q2 <= 0:
            raise DomainError(f"subsystem exponents must be positive, got {self.q1}, {self.q2}")
        object.__setattr__(self, "h1", require_hermitian(self.h1, what="H_I"))
        object.__setattr__(self, "h2", require_hermitian(self.h2, what="H_II"))
        if self.h1.shape != (self.dim_1, self.dim_1) or self.h2.shape != (self.dim_2, self.dim_2):
            raise DimensionMismatch("subsystem Hamiltonian shapes do not match dims")

    @property
    def f1(self) -> PowerLaw:
        return PowerLaw(q=self.q1)

    @property
    def f2(self) -> PowerLaw:
        return PowerLaw(q=self.q2)


def _subsystem_unitary(red: np.ndarray, h: np.ndarray, f: PowerLaw, dt: float) -> np.ndarray:
    w, v = np.linalg.eigh(red)
    g = _divided_difference_transform(_zero_round_off(w), v, h, f)
    gw, gv = np.linalg.eigh(g)
    return (gv * np.exp(-1j * gw * dt)) @ gv.conj().T


def _joint_unitary(m: np.ndarray, sys: CompositeSystem, dt: float) -> np.ndarray:
    dims = (sys.dim_1, sys.dim_2)
    u1 = _subsystem_unitary(partial_trace_matrix(m, dims, "I"), sys.h1, sys.f1, dt)
    u2 = _subsystem_unitary(partial_trace_matrix(m, dims, "II"), sys.h2, sys.f2, dt)
    return np.kron(u1, u2)


def evolve_composite(rho0: DensityMatrix, sys: CompositeSystem, cfg: IntegratorConfig) -> Trajectory:
    """Midpoint (or Euler) integration of the joint equation; the logged
    energy is the conserved two-system Hamiltonian function."""
    d = sys.dim_1 * sys.dim_2
    if rho0.dim != d:
        raise DimensionMismatch(f"joint state dim {rho0.dim} != {sys.dim_1}*{sys.dim_2}")
    m = rho0.matrix.copy()
    times = [0.0]
    mats = [m]
    n = cfg.n_steps
    for k in range(1, n + 1):
        if cfg.scheme == "midpoint":
            u_half = _joint_unitary(m, sys, cfg.dt / 2)
            m_half = u_half @ m @ u_half.conj().T
            u = _joint_unitary(m_half, sys, cfg.dt)
        else:
            u = _joint_unitary(m, sys, cfg.dt)
        m = u @ m @ u.conj().T
        if k % cfg.record_every == 0 or k == n:
            times.append(k * cfg.dt)
            mats.append(m)
    states = tuple(validate_density(x) for x in mats)
    matrices = np.stack([s.matrix for s in states])
    times = np.asarray(times)
    for a in (times, matrices):
        a.setflags(write=False)
    return _with_invariants(times, states, matrices,
                            lambda block: [composite_energy(s, sys) for s in block])


def composite_energy(state: DensityMatrix, sys: CompositeSystem) -> float:
    """Sum of the subsystem q-averages evaluated on the reductions."""
    dims = (sys.dim_1, sys.dim_2)
    r1 = partial_trace(state, dims, "I")
    r2 = partial_trace(state, dims, "II")
    e1 = float(np.sum(sys.f1.f(r1.eigenvalues) * _eigenbasis_diagonal(r1.eigenvectors, sys.h1)))
    e2 = float(np.sum(sys.f2.f(r2.eigenvalues) * _eigenbasis_diagonal(r2.eigenvectors, sys.h2)))
    return e1 + e2


@dataclass(frozen=True)
class ClosureReport:
    """Worst-case trace-norm gap between the reduced joint trajectory and
    the independently evolved subsystem trajectories."""

    max_deviation_1: float
    max_deviation_2: float
    joint_invariants: object

    @property
    def max_deviation(self) -> float:
        return max(self.max_deviation_1, self.max_deviation_2)


def reduction_consistency(traj_ab: Trajectory, sys: CompositeSystem, cfg: IntegratorConfig) -> ClosureReport:
    """Evolve each reduction of the initial state under its own single-system
    equation and compare against the partial traces of the joint run at the
    recorded times."""
    from .dynamics import evolve  # local import avoids a cycle at module load

    dims = (sys.dim_1, sys.dim_2)
    r1_traj = evolve(partial_trace(traj_ab.states[0], dims, "I"), sys.h1, sys.f1, cfg)
    r2_traj = evolve(partial_trace(traj_ab.states[0], dims, "II"), sys.h2, sys.f2, cfg)
    by_time_1 = {round(t, 12): s for t, s in zip(r1_traj.times, r1_traj.states)}
    by_time_2 = {round(t, 12): s for t, s in zip(r2_traj.times, r2_traj.states)}
    dev1 = 0.0
    dev2 = 0.0
    for t, s in zip(traj_ab.times, traj_ab.states):
        key = round(float(t), 12)
        if key not in by_time_1:
            continue
        red1 = partial_trace(s, dims, "I")
        red2 = partial_trace(s, dims, "II")
        dev1 = max(dev1, trace_norm(red1.matrix - by_time_1[key].matrix))
        dev2 = max(dev2, trace_norm(red2.matrix - by_time_2[key].matrix))
    return ClosureReport(
        max_deviation_1=dev1,
        max_deviation_2=dev2,
        joint_invariants=invariant_report(traj_ab),
    )
