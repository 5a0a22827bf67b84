"""Validated Hermitian matrix algebra for density-matrix dynamics.

Everything is dense complex numpy; matrix functions f(rho) go through the
eigendecomposition (exact on the spectrum, no Taylor series), which also
covers fractional powers x**q that have no expansion at 0. (The
integrator's propagator exp(-i G dt) is a different matter: see
dynamics._expm1.) Every validated state, from eigh or in closed form,
passes the one checked tail, _checked_state.

Conventions: hbar = k_B = 1; subsystem I is the slow (leftmost) Kronecker
index. partial_trace returns both reductions as raw arrays, of one matrix or
of a stack; a caller that needs a state validates it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalFailure

TOL_HERM = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger)/2 of a matrix or of each matrix in a stack.

    Halved before the sum, so that entries near the largest float do not
    overflow; this is bitwise (A + A^dagger)/2 wherever that is finite and
    not subnormal.
    """
    half = 0.5 * a
    half += half.conj().swapaxes(-1, -2)
    return half


def hermiticity_defect(a: np.ndarray) -> float:
    """Max absolute elementwise deviation from the conjugate transpose."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def require_hermitian(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """The Hermitian part of a square, finite matrix within TOL_HERM of Hermitian.

    NaN or infinite entries raise DomainError: the defect below is a >
    comparison, which is False for NaN.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"{what} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{what} has NaN or infinite entries")
    defect = hermiticity_defect(a)
    if defect > TOL_HERM:
        raise DomainError(f"{what} deviates from Hermiticity by {defect:.3e} (tol {TOL_HERM:.1e})")
    return hermitian_part(a)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state.

    Construct through validate_density (or the helpers below); the raw
    constructor trusts its inputs. Instances are immutable; the backing
    arrays are write-protected.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.sum(self.eigenvalues**2))


def _zero_round_off(w: np.ndarray) -> np.ndarray:
    """Eigenvalues at or below TOL_HERM/10 set to exactly 0 (a new array).

    Two-sided on purpose: x**q with q < 1 is not Lipschitz at 0, so a
    round-off eigenvalue of 1e-19 would turn the divided differences of a
    pure state into entries of order 1e9 instead of the exact-zero rule.
    The upper edge sits a decade below TOL_HERM so that the repair moves no
    eigenvalue by TOL_HERM or more: zeroing a genuine eigenvalue of exactly
    TOL_HERM, then renormalizing, shifted both eigenvalues of a qubit by
    TOL_HERM plus round-off. Negative eigenvalues down to -TOL_HERM all
    become 0.
    """
    return np.where(w <= 0.1 * TOL_HERM, 0.0, w)


def validate_density(matrix: np.ndarray) -> DensityMatrix:
    """Validate and repair a candidate state.

    The matrix is symmetrized, eigenvalues in [-TOL_HERM, TOL_HERM/10]
    become exactly 0, and the trace is renormalized to 1. Anything worse is
    a DomainError, not a silent repair: a Hermiticity defect beyond
    TOL_HERM, an eigenvalue below -TOL_HERM, |Tr| < TOL_HERM, NaN or
    infinite entries. A failed eigensolver raises NumericalFailure.
    """
    try:
        w, v = np.linalg.eigh(require_hermitian(matrix, what="state"))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    return _checked_state(w, v)


def _checked_state(w: np.ndarray, v: np.ndarray) -> DensityMatrix:
    """V diag(w) V^dagger for the ascending spectrum w (a new float array) and
    eigenvectors V of a finite Hermitian matrix, with the checks and repairs
    of validate_density: round-off eigenvalues are zeroed once, then w sums to 1."""
    trace = w.sum()
    if abs(trace) < TOL_HERM:
        raise DomainError(f"state trace {trace:.3e} too close to zero")
    if w[0] < -TOL_HERM:
        raise DomainError(f"state has eigenvalue {w[0]:.3e} below -{TOL_HERM:.1e}")
    w = _zero_round_off(w)
    total = w.sum()
    if total < TOL_HERM:
        raise DomainError(f"state trace {total:.3e} after clipping too close to zero")
    w /= total
    mat = hermitian_part((v * w) @ v.conj().T)
    for a in (mat, w, v):
        a.setflags(write=False)
    return DensityMatrix(matrix=mat, eigenvalues=w, eigenvectors=v)


def pure_state(vector: np.ndarray) -> DensityMatrix:
    """|psi><psi| for a vector psi with a nonzero entry (normalized internally).

    psi is first scaled by the power of two that puts its largest real or
    imaginary part in [1/2, 1): exact, so the norm neither under- nor
    overflows at any scale, and a vector whose norm did not is normalized to
    the same bits.
    """
    parts = np.ascontiguousarray(vector, dtype=complex).reshape(-1).view(float)
    peak = np.max(np.abs(parts), initial=0.0)
    if peak == 0.0:
        raise DomainError("cannot build a pure state from the zero vector")
    psi = np.ldexp(parts, -np.frexp(peak)[1]).view(complex)
    psi = psi / np.linalg.norm(psi)
    return validate_density(np.outer(psi, psi.conj()))


def partial_trace(m: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The reductions (rho_I, rho_II) of a bipartite matrix, or of each matrix
    in a (T, d, d) stack, as arrays; a caller that needs a state validates it."""
    m = np.asarray(m, dtype=complex)
    d1, d2 = int(dims[0]), int(dims[1])
    if m.shape[-2:] != (d1 * d2, d1 * d2):
        raise DomainError(f"state of shape {m.shape} does not factor as ({d1}x{d2})^2")
    t = m.reshape(*m.shape[:-2], d1, d2, d1, d2)
    return np.einsum("...ijkj->...ik", t), np.einsum("...ijil->...jl", t)


def _qubit_state(x: float, y: float, z: float, trace: float = 1.0) -> DensityMatrix:
    """validate_density(trace/2 + x sx + y sy + z sz), with the same checks and repairs,
    from the spectrum trace/2 -+ r, r = |(x, y, z)|, and eigenvectors in closed form."""
    r = math.hypot(x, y, z)
    if not (math.isfinite(r) and math.isfinite(trace)):
        raise DomainError("state has NaN or infinite entries")
    # (a, c): the eigenvector of +r, (1 + |z|/r, (x + iy)/r) over its norm, swapped
    # and conjugated for z < 0: free of cancellation, and of underflow at small r.
    # V is in SU(2), the identity at r = 0
    a, c = 0.0, 1.0
    if r:
        u = 1.0 + abs(z) / r
        s = math.sqrt(2.0 * u)
        p, e = u / s, complex(x / r, y / r) / s
        a, c = (p, e) if z >= 0.0 else (e.conjugate(), p)
    return _checked_state(np.array([0.5 * trace - r, 0.5 * trace + r]),
                          np.array([[c.conjugate(), a], [-a.conjugate(), c]], dtype=complex))


def bloch_state(*, lam, phi, psi) -> DensityMatrix:
    """State with eigenvalues {lam, 1-lam}, lam in [0, 1], polar angle phi
    and azimuth psi:

        rho = 1/2 + (2*lam-1)/2 * [cos(phi) sz - sin(phi)(cos(psi) sx + sin(psi) sy)]
    """
    lam, phi, psi = float(lam), float(phi), float(psi)
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lam must lie in [0, 1], got {lam}")
    if not (math.isfinite(phi) and math.isfinite(psi)):
        raise DomainError(f"state has NaN or infinite entries: phi={phi}, psi={psi}")
    c = 0.5 * (2.0 * lam - 1.0)
    s = c * math.sin(phi)
    return _qubit_state(-s * math.cos(psi), -s * math.sin(psi), c * math.cos(phi))


def trace_norm(a: np.ndarray):
    """Sum of absolute eigenvalues of a Hermitian matrix (a float), or of
    each matrix in a stack (an array)."""
    norms = np.sum(np.abs(np.linalg.eigvalsh(hermitian_part(a))), axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def trace_distance(a: DensityMatrix | np.ndarray, b: DensityMatrix | np.ndarray) -> float | np.ndarray:
    """Half the trace norm of a - b: a float, or an array over a stack in a or b."""
    ma = a.matrix if isinstance(a, DensityMatrix) else np.asarray(a)
    mb = b.matrix if isinstance(b, DensityMatrix) else np.asarray(b)
    return 0.5 * trace_norm(ma - mb)


def random_hermitian(dim: int, rng: np.random.Generator, spectral_norm: float | None = None) -> np.ndarray:
    """A random Hermitian dim x dim matrix, scaled to spectral_norm > 0 if given."""
    if spectral_norm is not None and not spectral_norm > 0:
        raise DomainError(f"spectral_norm must be positive, got {spectral_norm}")
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = hermitian_part(a)
    if spectral_norm is not None:
        h = h * (spectral_norm / np.linalg.norm(h, 2))
    return h


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state rho = A A^dagger / Tr."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return validate_density(m / np.trace(m).real)
