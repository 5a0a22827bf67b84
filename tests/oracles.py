"""Reference implementations that tests compare the package against. The
package itself never forms f(rho) as a matrix or rebuilds a state one at a
time from a spectrum it already holds."""
import numpy as np

from nvne.hermitian import DensityMatrix, _zero_round_off, hermitian_part


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
