"""Isospectral time integration of i*drho/dt = [H, f(rho)].

Steps conjugate the state with exp(-i G dt) where G is the
divided-difference generator, so spectrum, trace and positivity are
preserved by construction; discretization error lives only in the orbit
phase. Each step is the midpoint rule: G is evaluated at a half-step
state, which makes it second order. All stepping goes through _advance.
The eigenvalues are invariants, so the divided-difference kernel K is
taken once per trajectory, and _advance steps in one of two branches:

- d = 2: the same step on Python complex scalars with the closed-form
  SU(2) exponential, which agrees with the numpy path to round-off and is
  about 5x faster;
- d >= 3: numpy in the eigenframe of the state. The generator there is
  A = (V^H H V) o K, and each exponential exp(-i A tau) is a scaled Taylor
  polynomial (_expi), so no eigendecomposition runs while stepping.

The step loop writes the eigenvectors of every recorded state into a
preallocated (T, d, d) stack. The spectrum is invariant, so after the loop
the recorded matrices and the whole invariant log are computed in batched
numpy calls over blocks of that stack (RECORD_BLOCK_BYTES of complex
entries each). The logged eigenvalues come from one eigvalsh per block of
the materialized matrices, an independent check of the spectrum the
integrator holds fixed. Composite runs record through the same pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformation import DeformationFunction
from .errors import DomainError, NumericalFailure
from .hermitian import TOL_HERM, DensityMatrix, _zero_round_off, hermitian_part, require_hermitian
from .structure import _eigenframe_generator, _kernel, hamiltonian_function

# bytes of complex entries per block of the recording and invariant pass:
# bounds the temporaries of the batched calls (1,024 states at d = 2, one
# state at d = 64)
RECORD_BLOCK_BYTES = 65536

# smallest |rho_ij| the precession phase fit accepts
PHASE_FIT_FLOOR = 1e-6

# exp(-i G tau) at d >= 3 (Higham, SIMAX 26 (2005); Al-Mohy & Higham,
# SIMAX 31 (2009)): the Taylor terms of degree 9 on add at most
# 2 ||X||^9/9! <= 2^-53 ||X|| for ||X|| <= TAYLOR_THETA (about 0.046),
# since each is below a tenth of the one before
TAYLOR_THETA = (math.factorial(9) * 2.0**-54) ** (1 / 8)
# Paterson-Stockmeyer in X, X^2, X^3: p(X) = 1 + L0 + X^3 (L1 + X^3 L2),
# row r of the matrix holding the coefficients of L_r
TAYLOR_COEFFS = np.array([1.0 / math.factorial(k) for k in range(1, 9)] + [0.0]).reshape(3, 3)
# each squaring at most doubles the round-off of the exponential; past this
# many squarings that bound, 2^s eps, exceeds TOL_HERM
MAX_SQUARINGS = int(math.log2(TOL_HERM / np.finfo(float).eps))


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 1e-3
    t_final: float = 10.0
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
        if not isinstance(self.record_every, (int, np.integer)):
            raise DomainError(f"record_every must be an integer, got {self.record_every!r}")
        if self.record_every < 1:
            raise DomainError(f"record_every must be >= 1, got {self.record_every}")

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


def _advance(v, h, kernel, dt, n, every):
    """Take n steps from the eigenvectors v, yielding (k, V) after every
    every-th step and after the last. The kernel is fixed: the eigenvalues
    are invariants of the flow."""
    if v.shape == (2, 2):
        try:
            yield from _advance_su2(v, h, kernel, dt, n, every)
        except ValueError as exc:
            # math.cos and math.sin of an infinite phase: G overflowed
            raise NumericalFailure(f"2x2 step failed, the generator overflowed: {exc}") from exc
        return
    for k in range(1, n + 1):
        v = _step_spectral(v, h, kernel, dt)
        if k % every == 0 or k == n:
            yield k, v


def _step_spectral(v, h, kernel, dt):
    """One midpoint step at d >= 3, taken in the eigenframe.

    With A(W) the eigenframe generator of unitary W, exp(-i G(W) tau) =
    W exp(-i A(W) tau) W^H. The half step is W = V E1 with
    E1 = exp(-i A(V) dt/2), and the full step exp(-i G(W) dt) V is
    W E2 E1^H with E2 = exp(-i A(W) dt): no product returns to the lab
    frame and no eigendecomposition is taken.
    """
    e1 = _expi(_eigenframe_generator(v, h, kernel), dt / 2)
    w = v @ e1
    e2 = _expi(_eigenframe_generator(w, h, kernel), dt)
    return w @ e2 @ e1.conj().T


def _expi(a, tau):
    """exp(-i a tau) for a square a and tau > 0: the degree-8 Taylor
    polynomial of X = -i a tau 2^-s by Paterson-Stockmeyer, squared s times,
    with s the least that brings ||X||_F below TAYLOR_THETA.

    A non-finite ||a tau||_F, or one that needs more than MAX_SQUARINGS
    squarings, raises NumericalFailure.
    """
    dim = a.shape[0]
    norm = math.sqrt(np.vdot(a, a).real) * tau
    if not math.isfinite(norm):
        raise NumericalFailure(f"generator norm ||G dt||_F = {norm} is not finite")
    s = max(0, math.frexp(norm / TAYLOR_THETA)[1])
    if s > MAX_SQUARINGS:
        raise NumericalFailure(f"step too stiff: ||G dt||_F = {norm:.3e} needs {s} squarings "
                               f"of the exponential (at most {MAX_SQUARINGS}); reduce dt")
    powers = np.empty((3, dim, dim), dtype=complex)
    x, x2, x3 = powers
    np.multiply(a, -1j * tau / 2**s, out=x)
    np.matmul(x, x, out=x2)
    np.matmul(x2, x, out=x3)
    # the L_r of TAYLOR_COEFFS, from one real product on the real view
    l0, l1, l2 = (TAYLOR_COEFFS @ powers.view(float).reshape(3, -1)).view(complex).reshape(3, dim, dim)
    # e = p(X) - 1, squared as (1 + e)^2 - 1 so that the identity does not
    # swamp the small entries of the early squares
    e = l0 + x3 @ (l1 + x3 @ l2)
    for _ in range(s):
        e = 2.0 * e + e @ e
    e.reshape(-1)[:: dim + 1] += 1.0
    return e


def _advance_su2(v, h, kernel, dt, n, every):
    """_advance at d = 2 on Python complex scalars, V = (a, b, c, d) row-major.

    The generator is that of _step_spectral; writing G = m*1 + w.sigma,
    exp(-i G tau) = exp(-i m tau) (cos(|w| tau) 1 - i sin(|w| tau) w_hat.sigma).
    """
    (h00, h01), (h10, h11) = h.tolist()
    (k00, k01), (k10, k11) = kernel.tolist()

    def rotate(gv, tau, v):
        """exp(-i G tau) V, with G the generator at the eigenvectors gv."""
        a, b, c, d = gv
        # A = (V^H H V) o K, B = V A and G = B V^H, Hermitian
        ha, hb = h00 * a + h01 * c, h00 * b + h01 * d
        hc, hd = h10 * a + h11 * c, h10 * b + h11 * d
        ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
        a00, a01 = (ac * ha + cc * hc) * k00, (ac * hb + cc * hd) * k01
        a10, a11 = (bc * ha + dc * hc) * k10, (bc * hb + dc * hd) * k11
        b00, b01 = a * a00 + b * a10, a * a01 + b * a11
        b10, b11 = c * a00 + d * a10, c * a01 + d * a11
        g00, g01, g11 = (b00 * ac + b01 * bc).real, b00 * cc + b01 * dc, (b10 * cc + b11 * dc).real
        mean, wz, wx, wy = 0.5 * (g00 + g11), 0.5 * (g00 - g11), g01.real, -g01.imag
        norm = math.sqrt(wx * wx + wy * wy + wz * wz)
        cs = math.cos(norm * tau)
        sn = 0.0 if norm < 1e-300 else math.sin(norm * tau) / norm
        phase = complex(math.cos(mean * tau), -math.sin(mean * tau))
        u00, u01 = phase * complex(cs, -sn * wz), phase * complex(-sn * wy, -sn * wx)
        u10, u11 = phase * complex(sn * wy, -sn * wx), phase * complex(cs, sn * wz)
        a, b, c, d = v
        return u00 * a + u01 * c, u00 * b + u01 * d, u10 * a + u11 * c, u10 * b + u11 * d

    v = tuple(v.ravel().tolist())
    for k in range(1, n + 1):
        v = rotate(rotate(v, dt / 2, v), dt, v)
        if k % every == 0 or k == n:
            yield k, np.array(v).reshape(2, 2)


def evolve(
    rho0: DensityMatrix, h: np.ndarray, f: DeformationFunction, cfg: IntegratorConfig
) -> Trajectory:
    """Integrate to t_final, recording every record_every steps (plus the
    initial and final states)."""
    h = require_hermitian(h, what="hamiltonian")
    if h.shape[0] != rho0.dim:
        raise DomainError(f"hamiltonian dim {h.shape[0]} != state dim {rho0.dim}")
    kernel = _kernel(rho0.eigenvalues, f)
    steps = _advance(rho0.eigenvectors, h, kernel, cfg.dt, cfg.n_steps, cfg.record_every)
    return _record(rho0, steps, cfg, lambda block: hamiltonian_function(block, h, f))


def _blocks(start: int, stop: int, dim: int) -> list:
    size = max(1, RECORD_BLOCK_BYTES // (16 * dim * dim))
    return [slice(lo, min(lo + size, stop)) for lo in range(start, stop, size)]


def _record(rho0: DensityMatrix, steps, cfg: IntegratorConfig, energy) -> Trajectory:
    """Trajectory of rho0 from the (k, V) pairs that steps yields at the
    record points of cfg, V being the eigenvectors of the state after k
    steps. The recorded matrices and their invariant log are taken in
    blocks of the stack; energy maps a tuple of states to their energies."""
    n, every, dim = cfg.n_steps, cfg.record_every, rho0.dim
    count = 1 + n // every + (n % every != 0)
    times = np.empty(count)
    vs = np.empty((count, dim, dim), dtype=complex)
    times[0], vs[0] = 0.0, rho0.eigenvectors
    for r, (k, v) in enumerate(steps, 1):
        times[r], vs[r] = k * cfg.dt, v
    if not np.all(np.isfinite(vs)):
        raise NumericalFailure("the integrator produced non-finite eigenvectors")
    # the step leaves the eigenvalues untouched, so every recorded state
    # shares the spectrum of rho0, with round-off zeros as in
    # density_from_spectrum
    w = _zero_round_off(rho0.eigenvalues)
    matrices = np.empty_like(vs)
    matrices[0] = rho0.matrix
    for b in _blocks(1, count, dim):
        vb = vs[b]
        matrices[b] = hermitian_part((vb * w) @ vb.conj().swapaxes(1, 2))
    for a in (times, vs, matrices, w):
        a.setflags(write=False)
    states = (rho0,) + tuple(
        DensityMatrix(matrix=m, eigenvalues=w, eigenvectors=u)
        for m, u in zip(matrices[1:], vs[1:])
    )
    log = {
        "eigenvalues": np.empty((count, dim)),
        "Hq": np.empty(count),
        "hermiticity": np.empty(count),
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
    return Trajectory(times=times, states=states, invariant_log=log, matrices=matrices)


@dataclass(frozen=True)
class InvariantReport:
    eigenvalue_drift: float
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
    return InvariantReport(
        eigenvalue_drift=float(np.max(np.abs(ev - ev[0]))),
        max_casimir_drift=max(_relative_drift(log[f"C{n}"]) for n in range(1, 6)),
        energy_drift=_relative_drift(log["Hq"]),
        max_hermiticity_defect=float(np.max(log["hermiticity"])),
        max_negativity=float(max(0.0, -np.min(ev[:, 0]))),
    )


def precession_frequency(traj: Trajectory, element: tuple[int, int]) -> float:
    """|d/dt arg rho_ij| from an unwrapped least-squares phase fit; a
    |rho_ij| below PHASE_FIT_FLOOR anywhere raises NumericalFailure."""
    i, j = element
    signal = traj.matrices[:, i, j]
    mags = np.abs(signal)
    if np.any(mags < PHASE_FIT_FLOOR):
        raise NumericalFailure(
            f"|rho_{i}{j}| dips to {float(np.min(mags)):.3e}; phase fit unreliable"
        )
    phase = np.unwrap(np.angle(signal))
    slope = np.polyfit(traj.times, phase, 1)[0]
    return float(abs(slope))


def larmor_frequency(lam, f: DeformationFunction, mu: float) -> float | np.ndarray:
    """Predicted precession rate 2*mu*(f(lam) - f(1-lam))/(2*lam - 1),
    with the derivative limit at lam = 1/2, elementwise over an array lam;
    a scalar lam gives a float."""
    omega = 2.0 * mu * f.divided_difference(lam, 1.0 - lam)
    return float(omega) if np.ndim(omega) == 0 else omega
