"""Hamiltonian structure of the nonlinear von Neumann equation.

The energy <H>_f = Tr{f(rho) H} of a state (U_q = Tr(rho^q H) for the power
law) is the Hamiltonian of i drho/dt = [H, f(rho)] under the Lie-Poisson
bracket, realized here in closed matrix form

    {A, B}(rho) = -i Tr(rho [grad A, grad B])

instead of through explicit gl(n) structure constants: the dynamics
generator is the gradient of U_f, and Tr(rho^n) are Casimirs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .deformation import DeformationFunction, PowerLaw
from .errors import DomainError, NumericalFailure
from .hermitian import DensityMatrix, hermitian_part, hermiticity_defect

FD_STEP = 1e-6


def hamiltonian_function(rho, h: np.ndarray, f: DeformationFunction):
    """Energy Tr[f(rho) H] of a DensityMatrix rho (Tr(rho^q H) = U_q for a
    PowerLaw). A pair (w, V) of a spectrum and a (T, d, d) eigenvector stack
    gives the array of the energies of the states V diag(w) V^dagger from one
    batched eigenbasis diagonal.
    """
    w, v = rho if isinstance(rho, tuple) else (rho.eigenvalues, rho.eigenvectors)
    energies = np.sum(f.f(w) * _eigenbasis_diagonal(v, np.asarray(h, dtype=complex)), axis=-1)
    return energies if energies.ndim else float(energies)


def _eigenbasis_diagonal(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Real diagonal of V^dagger H V, for one eigenvector matrix or a stack."""
    return np.sum(v.conj() * (h @ v), axis=-2).real


def _kernel(eigenvalues: np.ndarray, f: DeformationFunction) -> np.ndarray:
    """K_ij = divided difference of f at (lambda_i, lambda_j); the diagonal
    carries f'(lambda_i) (0 where the derivative diverges)."""
    return f.divided_difference(eigenvalues[:, None], eigenvalues[None, :])


def _divided_difference_transform(v: np.ndarray, h: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """G = V A V^dagger for A = (V^dagger H V) o K, the generator in the
    frame of the eigenvectors V, with K the divided-difference kernel. Not
    symmetrized."""
    return v @ ((v.conj().T @ h @ v) * kernel) @ v.conj().T


@dataclass(frozen=True)
class ObservableFunctional:
    """Real functional of the state with a Hermitian gradient.

    gradient(rho) returns, at a DensityMatrix rho, the matrix G with
    dA = Tr(X G) for Hermitian perturbations X.
    """

    evaluator: Callable
    gradient: Callable


def finite_difference_gradient(evaluator: Callable, m: np.ndarray) -> np.ndarray:
    """Central differences over every complex matrix entry (real and
    imaginary parts separately), assembled into the Hermitian gradient.

    The evaluator must accept slightly non-Hermitian arguments (matrix
    polynomials do). The raw Wirtinger-style derivative matrix must come
    out Hermitian on its own; a defect beyond 1e-6 raises NumericalFailure.
    """
    dim = m.shape[0]
    raw = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            d_re = (evaluator(m + FD_STEP * e) - evaluator(m - FD_STEP * e)) / (2 * FD_STEP)
            d_im = (evaluator(m + 1j * FD_STEP * e) - evaluator(m - 1j * FD_STEP * e)) / (2 * FD_STEP)
            if not (np.isfinite(d_re) and np.isfinite(d_im)):
                raise NumericalFailure(f"finite difference diverged at entry ({i}, {j})")
            # holomorphic dA/drho_ij = d_re - i*d_im lands at grad_ji so that
            # dA = Tr(X grad) for Hermitian perturbations X
            raw[j, i] = d_re - 1j * d_im
    defect = hermiticity_defect(raw)
    if defect > 1e-6:
        raise NumericalFailure(
            f"finite-difference gradient non-Hermitian by {defect:.3e} (tol 1e-06)"
        )
    return hermitian_part(raw)


def _trace_functional(terms, b) -> ObservableFunctional:
    """A(rho) = sum_k c_k Tr[f_k(rho) B] over the pairs (c_k, f_k) of terms,
    B the identity if b is None. The gradient at a DensityMatrix is the
    divided-difference transform of B with the kernel sum_k c_k K_(f_k);
    the value is sum_k c_k sum_i f_k(w_i) (V^dagger B V)_ii from eigh of the
    Hermitian part of the argument, which to first order equals Tr[f(M) B]
    for the non-Hermitian M of finite differences, polynomial f or not.
    For terms [(1, f)] and B = H the gradient is the generator G of the flow,
    [G, rho] = [H, f(rho)]."""
    b = None if b is None else np.asarray(b, dtype=complex)

    def evaluate(m: np.ndarray) -> float:
        w, v = np.linalg.eigh(hermitian_part(m))
        diag = 1.0 if b is None else _eigenbasis_diagonal(v, b)
        return float(np.sum(sum(c * f.f(w) for c, f in terms) * diag))

    def grad(rho: DensityMatrix) -> np.ndarray:
        kernel = sum(c * _kernel(rho.eigenvalues, f) for c, f in terms)
        unit = np.eye(rho.dim, dtype=complex) if b is None else b
        return hermitian_part(_divided_difference_transform(rho.eigenvectors, unit, kernel))

    return ObservableFunctional(evaluator=evaluate, gradient=grad)


def trace_polynomial_functional(coeffs, b: np.ndarray) -> ObservableFunctional:
    """A(rho) = Tr[(sum_k coeffs[k-1] rho^k) B]."""
    return _trace_functional([(float(c), PowerLaw(k)) for k, c in enumerate(coeffs, start=1)], b)


def casimir_functional(n: int) -> ObservableFunctional:
    """C_n = Tr rho^n, for an order n >= 1; its gradient is n rho^(n-1)."""
    if n < 1:
        raise DomainError(f"Casimir order must be a positive integer, got {n}")
    return _trace_functional([(1.0, PowerLaw(n))], None)


def q_average_functional(h: np.ndarray, q: float) -> ObservableFunctional:
    """<H>_q = Tr rho^q H."""
    return _trace_functional([(1.0, PowerLaw(q))], h)


def poisson_bracket(a: ObservableFunctional, b: ObservableFunctional, rho: DensityMatrix) -> float:
    """{A, B}(rho) = -i Tr(rho [grad A, grad B]); antisymmetric by
    construction and insensitive to adding multiples of the identity to
    either gradient."""
    ga = a.gradient(rho)
    gb = b.gradient(rho)
    comm = ga @ gb - gb @ ga
    value = -1j * np.trace(rho.matrix @ comm)
    return float(value.real)
