"""Isospectral time integration of i*drho/dt = [H, f(rho)].

Steps conjugate the state with exp(-i G dt) where G is the
divided-difference generator, so spectrum, trace and positivity are
preserved by construction; discretization error lives only in the orbit
phase. Each step is the midpoint rule: G is evaluated at a half-step
state, which makes it second order. All stepping goes through _advance,
which returns the (T, d, d) stack of eigenvectors at the record points,
filled in place. The eigenvalues are invariants, so the divided-difference
kernel K is taken once per trajectory, and _advance steps in two branches:

- d = 2: Python floats in Bloch form. With beta = K_01, G = beta H +
  V diag(c) V^H with c_i = (K_ii - beta)(V^H H V)_ii, whose traceless part
  is w = beta h + (c_0 - c_1)/2 n for the Bloch vectors h of H and n of
  V's first column; exp(-i G tau) is cos(|w| tau) - i sin(|w| tau)
  w_hat.sigma times a global phase, which cancels in every state and is
  dropped. So det V is invariant, and only V's first column is stepped;
- d >= 3: numpy in the eigenframe of the state. The generator there is
  A = (V^H H V) o K, and each exp(-i A tau) is a Taylor polynomial whose
  degree follows ||A tau|| (_expm1): no eigendecomposition while stepping.

The spectrum is invariant, so after the loop the recorded matrices are
computed in batched numpy calls over blocks of the stack (RECORD_BLOCK_BYTES
of complex entries each); a Trajectory holds them as arrays and builds its
invariant log in the same blocks on first read, which runs that never read
it skip. The logged eigenvalues come from one eigvalsh per block of the
materialized matrices, an independent check of the spectrum the integrator
holds fixed. Composite runs go through evolve and the same pass.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .deformation import DeformationFunction
from .errors import DomainError, NumericalFailure
from .hermitian import TOL_HERM, DensityMatrix, hermitian_part, require_hermitian
from .structure import _kernel, hamiltonian_function

# bytes of complex entries per block of the recording and invariant pass:
# bounds the temporaries of the batched calls (1,024 states at d = 2, one
# state at d = 64)
RECORD_BLOCK_BYTES = 65536

# bytes that the recorded stacks of one run (eigenvectors and matrices,
# 32 d^2 bytes a state) may take: 8.4 million states at d = 2, 8,192 at d = 64
RECORD_BUDGET_BYTES = 2**30

# smallest |rho_ij| the precession phase fit accepts
PHASE_FIT_FLOOR = 1e-6

# exp(X) for X = -i G tau at d >= 3 (Higham, SIMAX 26 (2005); Al-Mohy &
# Higham, SIMAX 31 (2009)): past degree m the Taylor terms add at most
# 2 ||X||^(m+1)/(m+1)! <= 2^-53 ||X|| for ||X|| <= theta_m, since each is
# below a tenth of the one before. Degree m -> (theta_m, coefficients) for
# Paterson-Stockmeyer in X..X^n: p(X) - 1 = L0 + X^n (L1 + X^n (L2 ...)),
# row r holding the coefficients of L_r; theta_m is 2.9e-4, 8.1e-3 and
# 0.046, for 2, 3 and 4 matrix products
TAYLOR = {m: ((math.factorial(m + 1) * 2.0**-54) ** (1 / m),
              np.array([1.0 / math.factorial(j) for j in range(1, m + 1)] + [0.0] * (-m % n)).reshape(-1, n))
          for m, n in ((4, 2), (6, 3), (8, 3))}
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
        if max(float(self.t_final) / float(self.dt), self.record_every) > sys.maxsize:
            raise DomainError(f"dt={self.dt} makes {float(self.t_final) / float(self.dt):.3e} steps and "
                              f"record_every={self.record_every}: each must fit an index")

    @property
    def n_steps(self) -> int:
        return int(np.ceil(self.t_final / self.dt - 1e-12))


@dataclass(frozen=True)
class Trajectory:
    """A recorded run as read-only arrays: times (T,), the invariant spectrum
    eigenvalues (d,), the recorded eigenvectors and matrices (T, d, d), and
    the invariant log (C1..C5, Hq, recomputed eigenvalues, hermiticity),
    computed on first read from the energy map of a slice of the stack;
    reductions, the runs of a composite run's two reductions, or none."""

    times: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    matrices: np.ndarray
    _energy: Callable = field(repr=False, compare=False)
    reductions: tuple = field(default=(), repr=False, compare=False)

    @property
    def states(self) -> tuple:
        """The recorded states, as DensityMatrix views into the stacks."""
        return tuple(DensityMatrix(matrix=m, eigenvalues=self.eigenvalues, eigenvectors=v)
                     for m, v in zip(self.matrices, self.eigenvectors))

    @functools.cached_property
    def invariant_log(self) -> dict:
        count, dim = self.matrices.shape[:2]
        log = {"eigenvalues": np.empty((count, dim))}
        log.update((key, np.empty(count)) for key in ["Hq", "hermiticity"] + [f"C{n}" for n in range(1, 6)])
        for b in _blocks(0, count, dim):
            m = self.matrices[b]
            # eigenvalues recomputed from the materialized matrices so the log
            # reflects what a consumer of the states would see (ascending)
            ev = np.linalg.eigvalsh(m)
            log["eigenvalues"][b] = ev
            for n in range(1, 6):
                log[f"C{n}"][b] = np.sum(ev**n, axis=1)
            log["Hq"][b] = self._energy(b)
            log["hermiticity"][b] = np.max(np.abs(m - m.conj().swapaxes(1, 2)), axis=(1, 2))
        return log


def record_count(n: int, every: int, dim: int) -> int:
    """1 + ceil(n/every), the states that an n-step run recording every
    every steps holds (the start and the last included); DomainError if
    their stacks at dimension dim would pass RECORD_BUDGET_BYTES."""
    count = 1 + -(-n // every)
    if 32 * dim * dim * count > RECORD_BUDGET_BYTES:
        raise DomainError(f"{n} steps recorded every {every} give {count} states of dim {dim}, "
                          f"past the {RECORD_BUDGET_BYTES >> 30} GiB budget of recorded stacks")
    return count


def _advance(v, h, kernel, dt, n, every):
    """The eigenvectors after every every-th of n steps from v and after the
    last: the (T, d, d) stack of the record points, row 0 = v. The kernel is
    fixed: the eigenvalues are invariants of the flow."""
    vs = np.empty((record_count(n, every, v.shape[0]),) + v.shape, dtype=complex)
    sizes = itertools.chain(itertools.repeat(every, n // every), [n % every] * (n % every != 0))
    vs[0] = v
    if v.shape == (2, 2):
        try:
            cols = np.array(_advance_su2(v, h, kernel, dt, sizes)).view(complex).reshape(-1, 2)
        except ValueError as exc:
            # math.cos and math.sin of an infinite phase: G overflowed
            raise NumericalFailure(f"2x2 step failed, the generator overflowed: {exc}") from exc
        # the steps are in SU(2): the second column stays det(v) (-conj(c), conj(a))
        det = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
        vs[1:, :, 0], vs[1:, :, 1] = cols, det * cols[:, ::-1].conj() * [-1.0, 1.0]
        return vs
    # once per run: an overflowing generator raises instead of printing a warning
    with np.errstate(over="raise", invalid="raise"):
        try:
            k_half, k_full = -0.5j * dt * kernel, -1j * dt * kernel
            for r, size in enumerate(sizes, 1):
                for _ in range(size):
                    v = _step_spectral(v, h, k_half, k_full)
                vs[r] = v
        except FloatingPointError as exc:
            raise NumericalFailure(f"step failed, the generator overflowed: {exc}") from exc
    return vs


def _step_spectral(v, h, k_half, k_full):
    """One midpoint step at d >= 3, taken in the eigenframe, with the kernel
    scaled to k_half = -i K dt/2 and k_full = -i K dt.

    With A(W) the eigenframe generator of unitary W, exp(-i G(W) tau) =
    W exp(-i A(W) tau) W^H. The half step is W = V E1 with
    E1 = exp(-i A(V) dt/2), and the full step exp(-i G(W) dt) V is
    W E2 E1^H with E2 = exp(-i A(W) dt): no product returns to the lab
    frame and no eigendecomposition is taken. Each E = 1 + e is applied as
    V E = V + V e.
    """
    e1 = _expm1(v.conj().T.dot(h).dot(v), k_half)
    w = v + v.dot(e1)
    e2 = _expm1(w.conj().T.dot(h).dot(w), k_full)
    u = w + w.dot(e2)
    return u + u.dot(e1.conj().T)


def _expm1(b, k):
    """exp(X) - 1 for the skew-Hermitian X = b o k, k a matrix or a scalar:
    p(X) - 1 for the Taylor polynomial p of the least degree m in TAYLOR
    with ||X||_F <= theta_m, by Paterson-Stockmeyer; past theta_8, that of
    degree 8 at X 2^-s, squared s times, with s the least that brings
    ||X 2^-s||_F below theta_8.

    A non-finite ||X||_F, or one that needs more than MAX_SQUARINGS
    squarings, raises NumericalFailure.
    """
    dim = b.shape[0]
    powers = np.empty((3, dim, dim), dtype=complex)
    x = np.multiply(b, k, out=powers[0])
    norm = math.sqrt(np.vdot(x, x).real)
    if not math.isfinite(norm):
        raise NumericalFailure(f"generator norm ||G dt||_F = {norm} is not finite")
    for theta, coeffs in TAYLOR.values():
        if norm <= theta:
            break
    s = max(0, math.frexp(norm / theta)[1])
    if s > MAX_SQUARINGS:
        raise NumericalFailure(f"step too stiff: ||G dt||_F = {norm:.3e} needs {s} squarings "
                               f"of the exponential (at most {MAX_SQUARINGS}); reduce dt")
    if s:
        x *= 2.0**-s
    n = coeffs.shape[1]
    for j in range(1, n):
        powers[j - 1].dot(x, out=powers[j])
    # the L_r of coeffs, from one real product on the real view; e = p(X) - 1
    # and its squares (1 + e)^2 - 1 keep the identity from swamping the
    # small entries
    *ls, e = (coeffs @ powers[:n].view(float).reshape(n, -1)).view(complex).reshape(-1, dim, dim)
    for l in reversed(ls):
        e = l + powers[n - 1].dot(e)
    for _ in range(s):
        e = 2.0 * e + e.dot(e)
    return e


def _advance_su2(v, h, kernel, dt, sizes):
    """The first column (a, c) of V at d = 2, stepped on Python floats by
    exp(-i w.sigma tau) (see the module docstring) size steps at a time for
    each size in sizes: one flat list of Re a, Im a, Re c, Im c after each."""
    (h00, h01), (_, h11) = h.tolist()
    (k00, beta), (_, k11) = kernel.tolist()
    hx, hy, hz = h01.real, -h01.imag, 0.5 * h00.real - 0.5 * h11.real
    bx, by, bz = beta * hx, beta * hy, beta * hz
    # (c_0 - c_1)/2 = p + r h.n, with (V^H H V)_ii = h_0 +- h.n
    p = 0.5 * (k00 - k11) * (0.5 * h00.real + 0.5 * h11.real)
    r = 0.5 * (k00 + k11) - beta
    cos, sin, sqrt = math.cos, math.sin, math.sqrt

    def rotor(ar, ai, cr, ci, tau):  # cos(|w| tau), sin(|w| tau) w_hat at the column (a, c)
        nx, ny = 2.0 * (ar * cr + ai * ci), 2.0 * (ar * ci - ai * cr)
        nz = ar * ar + ai * ai - cr * cr - ci * ci
        g = p + r * (hx * nx + hy * ny + hz * nz)
        wx, wy, wz = bx + g * nx, by + g * ny, bz + g * nz
        norm = sqrt(wx * wx + wy * wy + wz * wz)
        sn = 0.0 if norm < 1e-300 else sin(norm * tau) / norm
        return cos(norm * tau), sn * wx, sn * wy, sn * wz

    (a, _), (c, _) = v.tolist()
    ar, ai, cr, ci = a.real, a.imag, c.real, c.imag
    half, out = 0.5 * dt, []
    for size in sizes:
        for _ in range(size):
            # the half step needs only the first column of W = exp(-i G dt/2) V
            cs, x, y, z = rotor(ar, ai, cr, ci, half)
            cs, x, y, z = rotor(cs * ar + z * ai + x * ci - y * cr, cs * ai - z * ar - x * cr - y * ci,
                                cs * cr - z * ci + x * ai + y * ar, cs * ci + z * cr - x * ar + y * ai, dt)
            ar, ai, cr, ci = (cs * ar + z * ai + x * ci - y * cr, cs * ai - z * ar - x * cr - y * ci,
                              cs * cr - z * ci + x * ai + y * ar, cs * ci + z * cr - x * ar + y * ai)
        out += (ar, ai, cr, ci)
    return out


def evolve(rho0: DensityMatrix, h: np.ndarray, f: DeformationFunction, cfg: IntegratorConfig) -> Trajectory:
    """Integrate to t_final, recording every record_every steps, the start and the end."""
    h = require_hermitian(h, what="hamiltonian")
    if h.shape[0] != rho0.dim:
        raise DomainError(f"hamiltonian dim {h.shape[0]} != state dim {rho0.dim}")
    kernel = _kernel(rho0.eigenvalues, f)
    vs = _advance(rho0.eigenvectors, h, kernel, cfg.dt, cfg.n_steps, cfg.record_every)
    return _record(rho0, vs, cfg, lambda b: hamiltonian_function((rho0.eigenvalues, vs[b]), h, f))


def _blocks(start: int, stop: int, dim: int) -> list:
    size = max(1, RECORD_BLOCK_BYTES // (16 * dim * dim))
    return [slice(lo, min(lo + size, stop)) for lo in range(start, stop, size)]


def _record_times(cfg: IntegratorConfig, dim: int) -> np.ndarray:
    """The times of cfg's record points, for stacks at dimension dim (see record_count)."""
    count = record_count(cfg.n_steps, cfg.record_every, dim)
    return np.minimum(np.arange(count) * cfg.record_every, cfg.n_steps) * cfg.dt


def _record(rho0: DensityMatrix, vs: np.ndarray, cfg: IntegratorConfig, energy, reductions=()) -> Trajectory:
    """Trajectory of rho0 from vs, its eigenvectors at the record points of
    cfg (see _advance), with the matrices taken in blocks of the stack;
    energy maps a slice of the stack to the energies of its states."""
    if not np.all(np.isfinite(vs)):
        raise NumericalFailure("the integrator produced non-finite eigenvectors")
    count, dim = vs.shape[:2]
    times = _record_times(cfg, dim)
    # the step leaves the eigenvalues untouched, so every recorded state
    # shares the spectrum of rho0, whose round-off zeros its constructor set
    w = rho0.eigenvalues
    matrices = np.empty_like(vs)
    matrices[0] = rho0.matrix
    for b in _blocks(1, count, dim):
        vb = vs[b]
        matrices[b] = hermitian_part((vb * w) @ vb.conj().swapaxes(1, 2))
    for a in (times, vs, matrices, w):
        a.setflags(write=False)
    return Trajectory(times=times, eigenvalues=w, eigenvectors=vs, matrices=matrices, _energy=energy, reductions=reductions)


def _relative_drift(series: np.ndarray) -> float:
    ref = series[0]
    return float(np.max(np.abs(series - ref)) / max(abs(ref), 1e-12))


def invariant_report(traj: Trajectory) -> dict:
    """Worst-case drift of spectrum, Casimirs and energy over the run, and the
    largest Hermiticity defect and negativity, keyed by their measured names."""
    log = traj.invariant_log
    ev = log["eigenvalues"]
    return {
        "eigenvalue_drift": float(np.max(np.abs(ev - ev[0]))),
        "casimir_drift": max(_relative_drift(log[f"C{n}"]) for n in range(1, 6)),
        "energy_drift": _relative_drift(log["Hq"]),
        "hermiticity": float(np.max(log["hermiticity"])),
        "negativity": float(max(0.0, -np.min(ev[:, 0]))),
    }


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


def spin_z_mu(h: np.ndarray) -> float | None:
    """mu of a field h = -mu sigma_z: h 2x2 with |h_01| and |Tr h| at most TOL_HERM; else None."""
    spin_z = h.shape == (2, 2) and abs(h[0, 1]) <= TOL_HERM and abs(h[0, 0] + h[1, 1]) <= TOL_HERM
    return float(-h[0, 0].real) if spin_z else None


def larmor_frequency(lam, f: DeformationFunction, mu: float) -> float | np.ndarray:
    """Predicted precession rate 2*mu*(f(lam) - f(1-lam))/(2*lam - 1),
    with the derivative limit at lam = 1/2, elementwise over an array lam;
    a scalar lam gives a float."""
    omega = 2.0 * mu * f.divided_difference(lam, 1.0 - lam)
    return float(omega) if np.ndim(omega) == 0 else omega
