"""Hamiltonian structure of the nonlinear von Neumann equation.

The scalar energy <H>_f = Tr{(Tr rho) f(rho/Tr rho) H} is 1-homogeneous in
rho. Its variation yields the state-dependent effective Hamiltonian whose
commutator with rho reproduces [H, f(rho)]; Tr(rho^n) are Casimirs of the
underlying Lie-Poisson bracket, realized here in closed matrix form

    {A, B}(rho) = -i Tr(rho [grad A, grad B])

instead of through explicit gl(n) structure constants.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .deformation import DeformationFunction, PowerLaw
from .errors import DomainError, NumericalFailure
from .hermitian import (
    DensityMatrix,
    hermitian_part,
    hermiticity_defect,
    require_hermitian,
)

FD_STEP = 1e-6
# eigenvalues at or below this are the kernel of rho in effective_hamiltonian
KERNEL_TOL = 1e-10


def _as_matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def hamiltonian_function(rho, h: np.ndarray, f: DeformationFunction):
    """Energy (Tr rho) * Tr[f(rho / Tr rho) H].

    Accepts a DensityMatrix or any Hermitian PSD matrix with positive
    trace; 1-homogeneous under rho -> c*rho. A pair (w, V) of a spectrum
    and a (T, d, d) eigenvector stack gives the array of the energies of
    the states V diag(w) V^dagger from one batched eigenbasis diagonal.
    """
    h = np.asarray(h, dtype=complex)
    if isinstance(rho, tuple):
        w, v = rho
        return np.sum(f.f(w) * _eigenbasis_diagonal(v, h), axis=1)
    if isinstance(rho, DensityMatrix):
        w, v = rho.eigenvalues, rho.eigenvectors
        tau = 1.0
    else:
        m = require_hermitian(_as_matrix(rho), what="state")
        w, v = np.linalg.eigh(m)
        tau = float(np.sum(w))
        if tau < 1e-12:
            raise DomainError(f"hamiltonian_function needs Tr > 0, got {tau:.3e}")
        if np.min(w) < -1e-12 * max(tau, 1.0):
            raise DomainError(f"state must be PSD, min eigenvalue {np.min(w):.3e}")
        w = np.clip(w, 0.0, None) / tau
    return float(tau * np.sum(f.f(w) * _eigenbasis_diagonal(v, h)))


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


def generator(rho: DensityMatrix, h: np.ndarray, f: DeformationFunction) -> np.ndarray:
    """Hermitian G with [G, rho] = [H, f(rho)].

    Built in the rho eigenbasis from divided differences of f; degenerate
    pairs take f' at the common eigenvalue, or 0 where f' diverges. The
    latter applies to kernel pairs of a pure or rank-deficient state, whose
    zero eigenvalues are exact because the state constructors set
    round-off eigenvalues to 0.
    """
    kernel = _kernel(rho.eigenvalues, f)
    return hermitian_part(_divided_difference_transform(rho.eigenvectors, h, kernel))


def effective_hamiltonian(rho: DensityMatrix, h: np.ndarray, f: DeformationFunction) -> np.ndarray:
    """Variational derivative of the 1-homogeneous energy at a normalized state.

    Equals the divided-difference transform of H plus the scalar terms
    (Tr[f(rho) H] - Tr[rho f'(rho) H]) * identity, so that
    Tr[rho Heff(rho)] reproduces the energy exactly.
    """
    w = rho.eigenvalues
    if isinstance(f, PowerLaw) and f.q < 1.0 and np.any(w <= KERNEL_TOL):
        raise DomainError(
            f"f'(0) diverges for q={f.q} < 1; effective Hamiltonian undefined "
            "on the kernel of rho"
        )
    g = _divided_difference_transform(rho.eigenvectors, h, _kernel(w, f))
    ht_diag = _eigenbasis_diagonal(rho.eigenvectors, h)
    scalar = float(np.sum(f.f(w) * ht_diag) - np.sum(w * f.fprime(w) * ht_diag))
    return hermitian_part(g + scalar * np.eye(rho.dim))


def q_average(rho: DensityMatrix, h: np.ndarray, q: float) -> float:
    """Tr(rho^q H), the internal energy of the power-law theory."""
    return hamiltonian_function(rho, h, PowerLaw(q=q))


@dataclass(frozen=True)
class ObservableFunctional:
    """Real functional of the state with a Hermitian gradient.

    gradient(rho) returns the matrix G with dA = Tr(X G) for Hermitian
    perturbations X.
    """

    evaluator: Callable
    gradient: Callable
    name: str = "functional"

    def __call__(self, rho) -> float:
        return float(self.evaluator(_as_matrix(rho)))


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


def trace_polynomial_functional(coeffs, b: np.ndarray, name: str = "trace-poly") -> ObservableFunctional:
    """A(rho) = Tr[(sum_k coeffs[k-1] rho^k) B] with its analytic gradient
    sum_k c_k sum_{a+b=k-1} rho^a B rho^b."""
    coeffs = tuple(float(c) for c in coeffs)
    b = np.asarray(b, dtype=complex)

    def evaluate(m: np.ndarray) -> float:
        acc = np.zeros_like(b)
        p = np.eye(m.shape[0], dtype=complex)
        for c in coeffs:
            p = p @ m
            acc = acc + c * p
        return float(np.trace(acc @ b).real)

    def grad(rho) -> np.ndarray:
        m = _as_matrix(rho)
        dim = m.shape[0]
        powers = [np.eye(dim, dtype=complex)]
        for _ in range(len(coeffs)):
            powers.append(powers[-1] @ m)
        out = np.zeros((dim, dim), dtype=complex)
        for k, c in enumerate(coeffs, start=1):
            if c == 0.0:
                continue
            out = out + c * sum(powers[a] @ b @ powers[k - 1 - a] for a in range(k))
        return hermitian_part(out)

    return ObservableFunctional(evaluator=evaluate, gradient=grad, name=name)


def casimir_functional(n: int) -> ObservableFunctional:
    """C_n = Tr rho^n with gradient n rho^(n-1), for an order n >= 1."""
    if n < 1:
        raise DomainError(f"Casimir order must be a positive integer, got {n}")

    def evaluate(m: np.ndarray) -> float:
        return float(np.trace(np.linalg.matrix_power(m, n)).real)

    def grad(rho) -> np.ndarray:
        m = _as_matrix(rho)
        return hermitian_part(n * np.linalg.matrix_power(m, n - 1))

    return ObservableFunctional(evaluator=evaluate, gradient=grad, name=f"C{n}")


def q_average_functional(h: np.ndarray, q: float) -> ObservableFunctional:
    """<H>_q = Tr rho^q H with the divided-difference gradient."""
    h = np.asarray(h, dtype=complex)
    f = PowerLaw(q=q)

    def evaluate(m: np.ndarray) -> float:
        if float(q) == int(q):
            return float(np.trace(np.linalg.matrix_power(m, int(q)) @ h).real)
        w, v = np.linalg.eigh(hermitian_part(m))
        diag = _eigenbasis_diagonal(v, h)
        return float(np.sum(f.f(np.clip(w, 0.0, None)) * diag))

    def grad(rho) -> np.ndarray:
        if isinstance(rho, DensityMatrix):
            w, v = rho.eigenvalues, rho.eigenvectors
        else:
            w, v = np.linalg.eigh(require_hermitian(_as_matrix(rho)))
        return hermitian_part(_divided_difference_transform(v, h, _kernel(w, f)))

    return ObservableFunctional(evaluator=evaluate, gradient=grad, name=f"<H>_{q:g}")


def poisson_bracket(a: ObservableFunctional, b: ObservableFunctional, rho) -> float:
    """{A, B}(rho) = -i Tr(rho [grad A, grad B]); antisymmetric by
    construction and insensitive to adding multiples of the identity to
    either gradient."""
    m = _as_matrix(rho)
    ga = a.gradient(rho)
    gb = b.gradient(rho)
    comm = ga @ gb - gb @ ga
    value = -1j * np.trace(m @ comm)
    return float(value.real)
