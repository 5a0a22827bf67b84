"""Classical mixtures of spin initial conditions and their dephasing.

A weight density w(lam, phi, psi) over [0,1] x [0,pi] x [0,2pi] (measure
dlam sin(phi) dphi dpsi) is averaged with Gauss-Legendre product
quadrature. Each node evolves isospectrally; for H = -mu sigma_z the
closed-form node motion (phi, lam frozen, psi(t) = psi0 - omega(lam) t)
is used, with the integrator as fallback and cross-check.

The closed form needs no per-node work at a given time. Since omega
depends on lam only and cos(psi - omega t) = cos psi cos omega t +
sin psi sin omega t, the phi and psi sums are taken once per spec: the
per-lam moments A_c(lam) = sum w c sin(phi) cos(psi) and A_s(lam) (same
with sin psi, c = lam - 1/2), the sigma_z coefficient and the total
weight. The product rule is walked one lam node at a time, on an
n_phi x n_psi slice (EnsembleSpec._slices), and by nothing else:
construction sums the moments from the slices in the pass that checks
the normalization, and the integrated path evolves their nodes, so no
array over the product grid is built. The Larmor rates on the lam nodes
are cached per (n_lam, f, mu), after which an average costs O(n_lam).
Averages and node states are built from their Bloch vectors in closed
form (hermitian._qubit_state), with no eigensolver. The integrated
fallback steps every node with n = ceil(t/dt) steps of size t/n, so it
ends at t exactly, and validates only the sum. dephasing_analytic
builds the same average from the reduced lam integral; the dephasing
signal |rho_01| is read off either state's matrix.

Note on the shipped sin(psi/2) weight: the transverse components of its
average vanish identically for every power-law deformation, because the
lam integrand is odd about lam = 1/2 while omega(lam) is even. The
quadrature is authoritative here; the tilted weight (extra factor 2*lam)
breaks that symmetry and exhibits genuine dephasing decay.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .deformation import DeformationFunction
from .dynamics import RECORD_BUDGET_BYTES, IntegratorConfig, evolve, larmor_frequency, spin_z_mu
from .errors import DomainError, NumericalFailure
from .hermitian import DensityMatrix, _qubit_state, bloch_state, require_hermitian, validate_density

NORMALIZATION_TOL = 1e-8
# most quadrature nodes of a spec (22,369,621, the record budget at 48 bytes a
# node); it bounds the nodes that construction walks and that each integrated
# average evolves
MAX_NODES = RECORD_BUDGET_BYTES // 48
# most points of one Gauss-Legendre rule (11,585): leggauss builds an n x n
# companion matrix, which must fit the record budget
MAX_RULE_NODES = math.isqrt(RECORD_BUDGET_BYTES // 8)


def sin_psi_half_weight(lam, phi, psi):
    """w = (1/8) sin(psi/2); normalized against the sin(phi) measure."""
    return (1.0 / 8.0) * np.sin(np.asarray(psi) / 2.0) * np.ones_like(np.asarray(lam, dtype=float))


def tilted_weight(lam, phi, psi):
    """w = 2*lam * (1/8) sin(psi/2); lam-asymmetric variant that actually
    dephases (documented deviation; the symmetric weight has no transverse
    signal to decay)."""
    return 2.0 * lam * (1.0 / 8.0) * np.sin(psi / 2.0)


WEIGHTS = {"sin-psi-half": sin_psi_half_weight, "tilted-lambda": tilted_weight}


@functools.lru_cache(maxsize=64, typed=True)
def gauss_legendre(n: int, a: float, b: float):
    """n-point Gauss-Legendre nodes and weights on [a, b].

    Rules are cached per (n, a, b), typed so that 2.0 and True never read
    the rules of 2 and 1, and shared, so the arrays are read-only.
    DomainError: n not a (non-bool) integer from 1 to MAX_RULE_NODES.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"the point count of a Gauss-Legendre rule must be an integer at least 1, got {n!r}")
    if n > MAX_RULE_NODES:
        raise DomainError(f"a {n}-point Gauss-Legendre rule is past the bound of {MAX_RULE_NODES} points")
    x, w = np.polynomial.legendre.leggauss(int(n))
    nodes, weights = 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=64)
def _larmor_rates(n_lam: int, f: DeformationFunction, mu: float) -> np.ndarray:
    """larmor_frequency on the n_lam Gauss-Legendre lam nodes of [0, 1],
    cached per (n_lam, f, mu) like gauss_legendre, so read-only."""
    omega = larmor_frequency(gauss_legendre(n_lam, 0.0, 1.0)[0], f, mu)
    omega.flags.writeable = False
    return omega


@dataclass(frozen=True)
class EnsembleSpec:
    """Weight density plus quadrature sizes, deformation and field."""

    weight: Callable
    f: DeformationFunction
    h: np.ndarray
    n_lam: int = 32
    n_phi: int = 32
    n_psi: int = 32
    # from construction: the field strength of H = -mu sigma_z, None for any other field
    mu: float | None = field(init=False, compare=False)
    # from construction: total weight, sigma_z coefficient, A_c, A_s, omega (None unless mu is set)
    moments: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = require_hermitian(self.h, what="ensemble H")
        if h.shape != (2, 2):
            raise DomainError("ensemble spins are 2x2; H must be 2x2")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "mu", spin_z_mu(h))
        for name in ("n_lam", "n_phi", "n_psi"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
                raise DomainError(f"{name} must be an integer at least 1, got {n!r}")
        if self.n_lam * self.n_phi * self.n_psi > MAX_NODES:
            raise DomainError(f"{self.n_lam * self.n_phi * self.n_psi} quadrature nodes are past the "
                              f"{RECORD_BUDGET_BYTES >> 30} GiB budget of the grids")
        # rows: the weight against 1, sin(phi) cos(psi), sin(phi) sin(psi), cos(phi)
        (lam, _), (phi, _), (psi, _) = self.rules()
        by_phi = np.stack([np.ones_like(phi), np.sin(phi), np.sin(phi), np.cos(phi)])
        by_psi = np.stack([np.ones_like(psi), np.cos(psi), np.sin(psi), np.ones_like(psi)])
        sums = np.stack([np.sum((by_phi @ w) * by_psi, axis=1) for _, _, _, w in self._slices()], axis=1)
        sums[1:] *= lam - 0.5
        norm = float(np.sum(sums[0]))
        if not abs(norm - 1.0) <= NORMALIZATION_TOL:
            raise DomainError(f"weight quadrature normalizes to {norm!r}, expected 1 "
                              f"within {NORMALIZATION_TOL:.0e}")
        omega = None if self.mu is None else _larmor_rates(self.n_lam, self.f, self.mu)
        object.__setattr__(self, "moments", (norm, float(np.sum(sums[3])), sums[1], sums[2], omega))

    def rules(self):
        """The 1-D Gauss-Legendre (nodes, weights) of lam on [0, 1], phi on
        [0, pi] and psi on [0, 2 pi]."""
        return (gauss_legendre(self.n_lam, 0.0, 1.0), gauss_legendre(self.n_phi, 0.0, np.pi),
                gauss_legendre(self.n_psi, 0.0, 2.0 * np.pi))

    def _slices(self):
        """The product rule one lam node at a time, in lam order: lam, the
        n_phi x n_psi grids of phi and psi, and their node weights
        w(lam, phi, psi) sin(phi) w_lam w_phi w_psi."""
        (lam, wl), (phi, wp), (psi, ws) = self.rules()
        big_p, big_s = np.meshgrid(phi, psi, indexing="ij")
        sin_p = np.sin(big_p)
        for lam_i, wl_i in zip(lam, wl):
            w = self.weight(np.full_like(big_p, lam_i), big_p, big_s) * sin_p * wl_i * wp[:, None] * ws
            yield lam_i, big_p, big_s, w


def _rotated(a_c, a_s, omega: np.ndarray, t: float) -> tuple:
    """(sum a_c cos + a_s sin, sum a_s cos - a_c sin) at phases omega t; NumericalFailure if one is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        wt = omega * t
    if not np.all(np.isfinite(wt)):
        raise NumericalFailure(f"the phase omega*t is not finite at t = {t:g}, omega up to {np.max(np.abs(omega)):.3e}")
    cos_wt, sin_wt = np.cos(wt), np.sin(wt)
    return float(np.sum(a_c * cos_wt + a_s * sin_wt)), float(np.sum(a_s * cos_wt - a_c * sin_wt))


def ensemble_average(spec: EnsembleSpec, t: float, cfg: IntegratorConfig | None = None) -> DensityMatrix:
    """Quadrature-weighted average of the node states at time t."""
    if not (np.isfinite(t) and t >= 0):
        raise DomainError(f"time must be finite and nonnegative, got {t}")
    total, coeff_z, a_c, a_s, omega = spec.moments
    if omega is not None:
        rot_c, rot_s = _rotated(a_c, a_s, omega, t)
        return _qubit_state(-rot_c, -rot_s, coeff_z, trace=total)
    if cfg is None:
        raise DomainError("integrator config required when H is not -mu*sigma_z")
    return _ensemble_average_integrated(spec, t, cfg)


def _ensemble_average_integrated(spec: EnsembleSpec, t: float, cfg: IntegratorConfig) -> DensityMatrix:
    run_cfg = None
    if t > 0:
        # n whole steps of size t/n, so the run ends at t, not at ceil(t/dt)*dt
        n = max(1, int(np.ceil(t / cfg.dt - 1e-12)))
        run_cfg = IntegratorConfig(dt=t / n, t_final=t, record_every=10**9)
    acc = np.zeros((2, 2), dtype=complex)
    for lam, big_p, big_s, w in spec._slices():
        for phi, psi, w_k in zip(big_p.flat, big_s.flat, w.flat):
            state = bloch_state(lam=lam, phi=phi, psi=psi)
            acc += w_k * (state.matrix if run_cfg is None
                          else evolve(state, spec.h, spec.f, run_cfg).matrices[-1])
    return validate_density(acc)


def evolve_node(spec: EnsembleSpec, lam: float, phi: float, psi: float, t: float) -> DensityMatrix:
    """Closed-form node state at time t (frozen spectrum, rotated azimuth)."""
    if spec.mu is None:
        raise DomainError("closed-form node evolution needs H = -mu*sigma_z")
    omega = larmor_frequency(lam, spec.f, spec.mu)
    return bloch_state(lam=lam, phi=phi, psi=psi - omega * t)


def dephasing_analytic(t: float, f: DeformationFunction, mu: float, n_lam: int = 64,
                       lam_density: Callable | None = None) -> DensityMatrix:
    """Averaged state 1/2 + cx sigma_x + cy sigma_y from the reduced lam
    integral (Gauss-Legendre):

        cx = (pi/24) int u(lam) (2 lam - 1) cos(omega(lam) t) dlam
        cy = -(pi/24) int u(lam) (2 lam - 1) sin(omega(lam) t) dlam

    u = 1 reproduces the sin(psi/2) weight after the phi and psi averages
    (factors pi/2 and -1/6). The sign of cy follows the quadrature, which
    is authoritative for this artifact.
    """
    if n_lam < 16:
        raise DomainError(f"n_lam must be at least 16, got {n_lam}")
    lam, wl = gauss_legendre(n_lam, 0.0, 1.0)
    u = np.ones_like(lam) if lam_density is None else lam_density(lam)
    sum_cos, minus_sum_sin = _rotated(wl * u * (2.0 * lam - 1.0), 0.0, _larmor_rates(n_lam, f, mu), t)
    return _qubit_state((np.pi / 24.0) * sum_cos, (np.pi / 24.0) * minus_sum_sin, 0.0)
