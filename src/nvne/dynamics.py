"""Isospectral time integration of i*drho/dt = [H, f(rho)].

Steps conjugate the state with exp(-i G dt) where G is the
divided-difference generator, so spectrum, trace and positivity are
preserved by construction; discretization error lives only in the orbit
phase. The midpoint scheme evaluates G at a half-step state (second
order); the Euler scheme uses the initial G (first order, kept for
convergence studies).

The step loop writes the eigenvectors of every recorded state into a
preallocated (T, d, d) stack. The spectrum is invariant, so after the loop
the recorded matrices and the whole invariant log are computed in batched
numpy calls over blocks of that stack (RECORD_BLOCK_BYTES of complex
entries each). The logged eigenvalues come from one eigvalsh per block of
the materialized matrices, an independent check of the spectrum the
integrator holds fixed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .deformation import DeformationFunction
from .errors import DomainError, SignalTooWeak
from .hermitian import (
    DensityMatrix,
    _zero_round_off,
    density_from_spectrum,
    hermitian_part,
    require_hermitian,
)
from .structure import hamiltonian_function

SCHEMES = ("midpoint", "euler")

# bytes of complex entries per block of the recording and invariant pass:
# bounds the temporaries of the batched calls (1,024 states at d = 2, one
# state at d = 64)
RECORD_BLOCK_BYTES = 65536


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 1e-3
    t_final: float = 10.0
    scheme: str = "midpoint"
    record_every: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.dt) and np.isfinite(self.t_final)):
            raise DomainError(f"dt and t_final must be finite, got dt={self.dt}, "
                              f"t_final={self.t_final}")
        if self.dt <= 0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        if self.t_final <= 0:
            raise DomainError(f"t_final must be positive, got {self.t_final}")
        if self.dt > self.t_final:
            raise DomainError(f"dt={self.dt} exceeds t_final={self.t_final}")
        if self.record_every < 1:
            raise DomainError(f"record_every must be >= 1, got {self.record_every}")
        if self.scheme not in SCHEMES:
            raise DomainError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")

    @property
    def n_steps(self) -> int:
        return int(np.ceil(self.t_final / self.dt - 1e-12))


@dataclass(frozen=True)
class Trajectory:
    """Recorded states with per-time invariants (C_1..C_5 and the energy).

    matrices is the read-only (T, d, d) stack of the recorded density
    matrices; the states of an evolve run after the first are views into it.
    """

    times: np.ndarray
    states: tuple
    invariant_log: dict
    matrices: np.ndarray

    def __len__(self) -> int:
        return len(self.states)

    def element(self, i: int, j: int) -> np.ndarray:
        return self.matrices[:, i, j]


def _expm_generator(g: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i g dt) for Hermitian g via its spectral decomposition.

    2x2 generators use the closed form of the same decomposition: writing
    g = a*1 + w.sigma, the unitary is
    exp(-i a dt) (cos(|w| dt) 1 - i sin(|w| dt) w_hat.sigma).
    """
    if g.shape == (2, 2):
        a = 0.5 * (g[0, 0] + g[1, 1]).real
        wx = g[0, 1].real
        wy = -g[0, 1].imag
        wz = 0.5 * (g[0, 0] - g[1, 1]).real
        norm = np.sqrt(wx * wx + wy * wy + wz * wz)
        theta = norm * dt
        c = np.cos(theta)
        if norm < 1e-300:
            sn = 0.0
        else:
            sn = np.sin(theta) / norm
        u = np.array(
            [
                [c - 1j * sn * wz, -1j * sn * (wx - 1j * wy)],
                [-1j * sn * (wx + 1j * wy), c + 1j * sn * wz],
            ]
        )
        return np.exp(-1j * a * dt) * u
    gw, gv = np.linalg.eigh(g)
    return (gv * np.exp(-1j * gw * dt)) @ gv.conj().T


def _rotate(w: np.ndarray, v: np.ndarray, g: np.ndarray, dt: float):
    """Conjugate the spectral pair (w, V) by exp(-i g dt): V <- U V."""
    return w, _expm_generator(g, dt) @ v


def step(
    rho: DensityMatrix, h: np.ndarray, f: DeformationFunction, dt: float, scheme: str = "midpoint"
) -> DensityMatrix:
    """One unitary-conjugation step of size dt."""
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    h = require_hermitian(h, what="hamiltonian")
    w, v = rho.eigenvalues, rho.eigenvectors
    kernel = f.divided_difference(w[:, None], w[None, :])
    w, v = _step_spectral(w, v, h, kernel, dt, scheme)
    return density_from_spectrum(w, v)


def _step_spectral(w, v, h, kernel, dt, scheme):
    # the eigenvalues (hence the divided-difference kernel) are invariants
    # of the flow, so the kernel is computed once per trajectory
    vh_ = v.conj().T
    g1 = v @ ((vh_ @ h @ v) * kernel) @ vh_
    if scheme == "euler":
        return _rotate(w, v, g1, dt)
    if scheme != "midpoint":
        raise DomainError(f"unknown scheme {scheme!r}")
    _, vmid = _rotate(w, v, g1, dt / 2)
    vmid_h = vmid.conj().T
    g2 = vmid @ ((vmid_h @ h @ vmid) * kernel) @ vmid_h
    return _rotate(w, v, g2, dt)


def evolve(
    rho0: DensityMatrix, h: np.ndarray, f: DeformationFunction, cfg: IntegratorConfig
) -> Trajectory:
    """Integrate to t_final, recording every record_every steps (plus the
    initial and final states)."""
    h = require_hermitian(h, what="hamiltonian")
    w, v = rho0.eigenvalues, rho0.eigenvectors
    kernel = f.divided_difference(w[:, None], w[None, :])
    n, every = cfg.n_steps, cfg.record_every
    count = 1 + n // every + (n % every != 0)
    times = np.empty(count)
    vs = np.empty((count, rho0.dim, rho0.dim), dtype=complex)
    times[0], vs[0] = 0.0, v
    r = 1
    for k in range(1, n + 1):
        w, v = _step_spectral(w, v, h, kernel, cfg.dt, cfg.scheme)
        if k % every == 0 or k == n:
            times[r], vs[r] = k * cfg.dt, v
            r += 1
    # the step leaves the eigenvalues untouched, so every recorded state
    # shares the spectrum of rho0, with round-off zeros as in
    # density_from_spectrum
    w = _zero_round_off(w)
    matrices = np.empty_like(vs)
    matrices[0] = rho0.matrix
    for b in _blocks(1, count, rho0.dim):
        vb = vs[b]
        matrices[b] = hermitian_part((vb * w) @ vb.conj().swapaxes(1, 2))
    for a in (times, vs, matrices, w):
        a.setflags(write=False)
    states = (rho0,) + tuple(
        DensityMatrix(matrix=m, eigenvalues=w, eigenvectors=u)
        for m, u in zip(matrices[1:], vs[1:])
    )
    return _with_invariants(times, states, matrices,
                            lambda block: hamiltonian_function(block, h, f))


def _blocks(start: int, stop: int, dim: int) -> list:
    size = max(1, RECORD_BLOCK_BYTES // (16 * dim * dim))
    return [slice(lo, min(lo + size, stop)) for lo in range(start, stop, size)]


def _with_invariants(times, states, matrices, energy) -> Trajectory:
    """Trajectory with the invariant log of its recorded matrices, taken in
    blocks of the stack; energy maps a tuple of states to their energies."""
    count, dim = matrices.shape[:2]
    log = {
        "eigenvalues": np.empty((count, dim)),
        "Hq": np.empty(count),
        "hermiticity": np.empty(count),
        "min_eigenvalue": np.empty(count),
    }
    for n in range(1, 6):
        log[f"C{n}"] = np.empty(count)
    for b in _blocks(0, count, dim):
        m = matrices[b]
        # eigenvalues recomputed from the materialized matrices so the log
        # reflects what a consumer of the states would see (ascending)
        ev = np.linalg.eigvalsh(m)
        log["eigenvalues"][b] = ev
        for n in range(1, 6):
            log[f"C{n}"][b] = np.sum(ev**n, axis=1)
        log["Hq"][b] = energy(states[b])
        log["hermiticity"][b] = np.max(np.abs(m - m.conj().swapaxes(1, 2)), axis=(1, 2))
        log["min_eigenvalue"][b] = ev[:, 0]
    return Trajectory(times=times, states=states, invariant_log=log, matrices=matrices)


@dataclass(frozen=True)
class InvariantReport:
    eigenvalue_drift: float
    casimir_drift: dict = field(repr=False)
    max_casimir_drift: float = 0.0
    energy_drift: float = 0.0
    max_hermiticity_defect: float = 0.0
    max_negativity: float = 0.0


def _relative_drift(series: np.ndarray) -> float:
    ref = series[0]
    return float(np.max(np.abs(series - ref)) / max(abs(ref), 1e-12))


def invariant_report(traj: Trajectory) -> InvariantReport:
    """Worst-case drift of spectrum, Casimirs and energy over the run."""
    log = traj.invariant_log
    ev = log["eigenvalues"]
    eig_drift = float(np.max(np.abs(ev - ev[0])))
    casimirs = {f"C{n}": _relative_drift(log[f"C{n}"]) for n in range(1, 6)}
    return InvariantReport(
        eigenvalue_drift=eig_drift,
        casimir_drift=casimirs,
        max_casimir_drift=max(casimirs.values()),
        energy_drift=_relative_drift(log["Hq"]),
        max_hermiticity_defect=float(np.max(log["hermiticity"])),
        max_negativity=float(max(0.0, -np.min(log["min_eigenvalue"]))),
    )


def precession_frequency(traj: Trajectory, element: tuple[int, int]) -> float:
    """|d/dt arg rho_ij| from an unwrapped least-squares phase fit."""
    i, j = element
    signal = traj.element(i, j)
    mags = np.abs(signal)
    if np.any(mags < 1e-6):
        raise SignalTooWeak(
            f"|rho_{i}{j}| dips to {float(np.min(mags)):.3e}; phase fit unreliable"
        )
    phase = np.unwrap(np.angle(signal))
    slope = np.polyfit(traj.times, phase, 1)[0]
    return float(abs(slope))


def larmor_frequency(lam: float, f: DeformationFunction, mu: float) -> float:
    """Predicted precession rate 2*mu*(f(lam) - f(1-lam))/(2*lam - 1),
    with the derivative limit at lam = 1/2."""
    return float(2.0 * mu * f.divided_difference(lam, 1.0 - lam))
