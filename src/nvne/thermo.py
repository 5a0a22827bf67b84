"""Nonextensive thermodynamics: entropy S_q and the q-equilibrium of any
Hamiltonian, the minimizer of the free energy F = U_q - T S_q, with U_q =
structure.hamiltonian_function.

F doubles as the energy-Casimir stability function: with Phi(C_1, C_q) =
-T (C_1 - C_q)/(q - 1) one has F = U_q + Phi identically, so extremizing
F is the energy-Casimir test and equilibria with positive curvature are
dynamically stable fixed points. Units: k_B = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformation import PowerLaw
from .errors import DomainError, NumericalFailure
from .hermitian import require_hermitian

Q_ONE_THRESHOLD = 1e-8


@dataclass(frozen=True)
class ThermoParams:
    q: float
    beta: float

    def __post_init__(self):
        PowerLaw(self.q)  # the exponent rule, NaN included, lives in PowerLaw
        if not self.beta > 0:
            raise DomainError(f"beta must be positive, got {self.beta}")
        if not math.isfinite(1.0 / float(self.beta)):
            raise DomainError(f"beta = {self.beta:g} has no finite temperature 1/beta")

    @property
    def temperature(self) -> float:
        return 1.0 / self.beta


def tsallis_entropy(eigenvalues: np.ndarray, q: float) -> float:
    """S_q = (sum w - sum w^q)/(q - 1) over the eigenvalues w of a state;
    the q -> 1 branch returns the von Neumann entropy -sum(w ln w) with
    0 ln 0 = 0."""
    w = np.asarray(eigenvalues, dtype=float)
    if abs(q - 1.0) < Q_ONE_THRESHOLD:
        pos = w[w > 0]
        return float(-np.sum(pos * np.log(pos)))
    return float((np.sum(w) - np.sum(PowerLaw(q).f(w))) / (q - 1.0))


@dataclass(frozen=True)
class EquilibriumResult:
    """The q-equilibrium in the eigenbasis of H, in ascending energy: the
    populations p_i, F, dF/dp_i and the diagonal Hessian d^2F/dp_i^2."""

    populations: np.ndarray
    free_energy: float
    gradient: np.ndarray
    hessian: np.ndarray


def q_equilibrium(h: np.ndarray, p: ThermoParams) -> EquilibriumResult:
    """The minimizer of F = U_q - T S_q, U_q = Tr(rho^q H) (Curado and Tsallis,
    J. Phys. A 24 (1991) L69). It commutes with H; over the energies E_i of H,
    p_i ~ (1 + (q-1) beta E_i)^(-1/(q-1)), each from its own log weight, never
    as 1 minus the others (-beta E_i for |q-1| < Q_ONE_THRESHOLD). With S_q =
    (sum p - sum p^q)/(q-1), dF/dp_i = q p^(q-1) E + T (1 + q expm1((q-1) ln p)
    /(q-1)) and d^2F/dp_i^2 = q p^(q-2) ((q-1) E + T) > 0, at q = 1 too.
    DomainError: some 1 + (q-1) beta E_i <= 0. NumericalFailure: a population
    or Hessian entry out of float range, or a spread of dF/dp_i over i (0 where
    F is stationary on the simplex) above 1e-8 max(1, T, max_i |q p_i^(q-1) E_i|),
    the scale of the terms whose cancellation leaves it.
    """
    energies = np.linalg.eigvalsh(require_hermitian(h, what="H"))
    q, t = p.q, p.temperature
    x = (q - 1.0) * p.beta * energies
    if np.any(x <= -1.0):
        raise DomainError(f"1 + (q-1)*beta*E = {1 + np.min(x):.6g} <= 0; no q-equilibrium")
    near_one = abs(q - 1.0) < Q_ONE_THRESHOLD
    log_p = -p.beta * energies if near_one else -np.log1p(x) / (q - 1.0)
    log_p -= np.max(log_p)
    log_p -= np.log(np.sum(np.exp(log_p)))
    pops = np.exp(log_p)
    if np.min(pops) < np.finfo(float).tiny:
        raise NumericalFailure(f"q-equilibrium population {float(np.min(pops)):.3e} "
                               f"is out of floating-point range at beta = {p.beta:g}")
    # at extreme q, 0 * inf: the check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        hess = q * np.exp((q - 2.0) * log_p) * ((q - 1.0) * energies + t)
    if not np.all(np.isfinite(hess)):
        raise NumericalFailure(f"q-equilibrium Hessian entry {hess[~np.isfinite(hess)][0]:.3e} is out of "
                               f"floating-point range at q = {q:g}, beta = {p.beta:g}")
    q_log = log_p if near_one else np.expm1((q - 1.0) * log_p) / (q - 1.0)
    energy_terms = q * np.exp((q - 1.0) * log_p) * energies
    grad = energy_terms + t * (1.0 + q * q_log)
    f = float(np.sum(pops**q * energies)) - t * tsallis_entropy(pops, q)
    if np.ptp(grad) > 1e-8 * max(1.0, t, float(np.max(np.abs(energy_terms)))):
        raise NumericalFailure(f"q-equilibrium {pops!r} has gradient spread {np.ptp(grad):.3e}")
    return EquilibriumResult(pops, f, grad, hess)
