"""Nonextensive thermodynamics: entropy S_q, internal energy U_q, free
energy F = U_q - T S_q, and the spin-1/2 equilibrium.

F doubles as the energy-Casimir stability function: with Phi(C_1, C_q) =
-T (C_1 - C_q)/(q - 1) one has F = U_q + Phi identically, so extremizing
F is the energy-Casimir test and equilibria with positive curvature are
dynamically stable fixed points. Units: k_B = 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalFailure
from .hermitian import DensityMatrix
from .structure import q_average

Q_ONE_THRESHOLD = 1e-8


@dataclass(frozen=True)
class ThermoParams:
    q: float
    beta: float
    mu: float

    def __post_init__(self):
        if self.q <= 0:
            raise DomainError(f"q must be positive, got {self.q}")
        if self.beta <= 0:
            raise DomainError(f"beta must be positive, got {self.beta}")
        if self.mu <= 0:
            raise DomainError(f"mu must be positive, got {self.mu}")

    @property
    def temperature(self) -> float:
        return 1.0 / self.beta


def entropy_from_eigenvalues(eigenvalues: np.ndarray, q: float, trace: float = 1.0) -> float:
    w = np.asarray(eigenvalues, dtype=float)
    if q <= 0:
        raise DomainError(f"q must be positive, got {q}")
    if abs(q - 1.0) < Q_ONE_THRESHOLD:
        pos = w[w > 0]
        return float(-np.sum(pos * np.log(pos)))
    return float((trace - np.sum(np.clip(w, 0.0, None) ** q)) / (q - 1.0))


def tsallis_entropy(rho: DensityMatrix, q: float) -> float:
    """S_q = (Tr rho - Tr rho^q)/(q - 1); the q -> 1 branch returns the
    von Neumann entropy -sum(lam ln lam) with 0 ln 0 = 0."""
    return entropy_from_eigenvalues(rho.eigenvalues, q, trace=float(np.sum(rho.eigenvalues)))


def free_energy(rho: DensityMatrix, h: np.ndarray, p: ThermoParams) -> float:
    """F = U_q - T S_q, with U_q = q_average(rho, h, q) = Tr(rho^q H)."""
    return q_average(rho, h, p.q) - p.temperature * tsallis_entropy(rho, p.q)


def spin_free_energy(lam: float, p: ThermoParams) -> float:
    """F(lam) for the two-level state diag(lam, 1-lam) aligned with the
    field (cos phi = 1), H = -mu sigma_z."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lam must lie in [0, 1], got {lam}")
    u = -p.mu * (lam**p.q - (1.0 - lam) ** p.q)
    s = entropy_from_eigenvalues(np.array([lam, 1.0 - lam]), p.q)
    return u - p.temperature * s


def spin_free_energy_gradient(lam: float, p: ThermoParams) -> float:
    """Analytic dF/dlam of the aligned spin free energy.

    Used for the stationarity assertion: near the domain boundary the
    equilibrium sits close to lam = 1 where a finite-difference probe's
    truncation error would swamp the 1e-8 stationarity tolerance.
    """
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lam must lie strictly inside (0, 1), got {lam}")
    la, lb = lam, 1.0 - lam
    if abs(p.q - 1.0) < Q_ONE_THRESHOLD:
        return float(-2.0 * p.mu + p.temperature * np.log(la / lb))
    du = -p.mu * p.q * (la ** (p.q - 1.0) + lb ** (p.q - 1.0))
    ds = -p.q * (la ** (p.q - 1.0) - lb ** (p.q - 1.0)) / (p.q - 1.0)
    return float(du - p.temperature * ds)


def stability_second_derivative(p: ThermoParams, lam: float) -> float:
    """Analytic d^2F/dlam^2 of the aligned spin free energy, q [T (a + b) -
    mu (q-1) (a - b)] with a = lam^(q-2), b = (1-lam)^(q-2); T (1/lam +
    1/(1-lam)) at q = 1. Exact up to lam -> 1, where a difference probe
    would step outside [0, 1]."""
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lam must lie strictly inside (0, 1), got {lam}")
    if abs(p.q - 1.0) < Q_ONE_THRESHOLD:
        return float(p.temperature * (1.0 / lam + 1.0 / (1.0 - lam)))
    a, b = lam ** (p.q - 2.0), (1.0 - lam) ** (p.q - 2.0)
    return float(p.q * (p.temperature * (a + b) - p.mu * (p.q - 1.0) * (a - b)))


@dataclass(frozen=True)
class EquilibriumResult:
    lam: float
    free_energy: float
    second_derivative: float


def _gibbs_lambda(p: ThermoParams) -> float:
    bm = p.beta * p.mu
    return float(np.exp(bm) / (2.0 * np.cosh(bm)))


def spin_equilibrium(p: ThermoParams) -> EquilibriumResult:
    """Solve (lam/(1-lam))**(q-1) = (1 + x)/(1 - x), x = (q-1) beta mu, in
    closed form: lam = 1/(1 + exp(-2 artanh(x)/(q-1))), in (1/2, 1).

    Outside 0 < |q-1| beta mu < 1 the closed form is invalid and
    DomainError is raised; q = 1 takes the Gibbs limit.
    """
    if abs(p.q - 1.0) < Q_ONE_THRESHOLD:
        lam = _gibbs_lambda(p)
    else:
        x = (p.q - 1.0) * p.beta * p.mu
        if abs(x) >= 1.0:
            raise DomainError(
                f"|q-1|*beta*mu = {abs(x):.6g} >= 1; closed-form equilibrium invalid"
            )
        lam = float(1.0 / (1.0 + np.exp(-2.0 * np.arctanh(x) / (p.q - 1.0))))

    # the closed form gives lam to round-off, but dF/dlam there is a
    # cancellation of terms that grow with T, so its round-off residue, and
    # with it the 1e-8 stationarity check, scales with T
    grad = spin_free_energy_gradient(lam, p)
    if abs(grad) > 1e-8 * max(1.0, p.temperature):
        raise NumericalFailure(
            f"equilibrium candidate lam={lam!r} has |dF/dlam| = {abs(grad):.3e}"
        )
    return EquilibriumResult(
        lam=float(lam),
        free_energy=spin_free_energy(lam, p),
        second_derivative=stability_second_derivative(p, lam),
    )
