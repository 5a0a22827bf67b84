"""Reference implementations that tests compare the package against. The
package itself never forms f(rho) as a matrix, rebuilds a state one at a
time from a spectrum it already holds, or differentiates a functional entry
by entry."""
from typing import Callable

import numpy as np

from nvne.errors import NumericalFailure
from nvne.hermitian import DensityMatrix, _zero_round_off, hermitian_part, hermiticity_defect

FD_STEP = 1e-6


def matrix_function(state: DensityMatrix, f) -> np.ndarray:
    """f applied on the spectrum: V diag(f(lambda_i)) V^dagger.

    f is a DeformationFunction. Raises DomainError, via the deformation, if
    a clearly negative eigenvalue meets a non-integer power.
    """
    w, v = state.eigenvalues, state.eigenvectors
    return hermitian_part((v * f.f(w)) @ v.conj().T)


def density_from_spectrum(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> DensityMatrix:
    """Assemble a state from a known spectral decomposition (trusted path).

    The per-state form of the batched recording in dynamics._record (its
    test oracle). Eigenvalues in [-TOL_HERM, TOL_HERM/10] become exactly 0,
    as in validate_density.
    """
    w = _zero_round_off(np.asarray(eigenvalues, dtype=float))
    v = np.ascontiguousarray(eigenvectors, dtype=complex)
    mat = hermitian_part((v * w) @ v.conj().T)
    for a in (mat, w, v):
        a.setflags(write=False)
    return DensityMatrix(matrix=mat, eigenvalues=w, eigenvectors=v)


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
