import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvne.deformation import PowerLaw
from nvne.errors import DomainError, NumericalFailure
from nvne.hermitian import (
    SIGMA_X,
    SIGMA_Z,
    TOL_HERM,
    DensityMatrix,
    _qubit_state,
    bloch_state,
    hermitian_part,
    partial_trace,
    pure_state,
    random_density_matrix,
    random_hermitian,
    require_hermitian,
    trace_distance,
    trace_norm,
    validate_density,
)

from nvne.structure import casimir_functional

from conftest import make_states
from oracles import matrix_function

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def brute_force_partial_trace(m, dims, keep):
    """Independent index-contraction oracle."""
    d1, d2 = dims
    if keep == "I":
        out = np.zeros((d1, d1), dtype=complex)
        for i in range(d1):
            for k in range(d1):
                for j in range(d2):
                    out[i, k] += m[i * d2 + j, k * d2 + j]
    else:
        out = np.zeros((d2, d2), dtype=complex)
        for j in range(d2):
            for l in range(d2):
                for i in range(d1):
                    out[j, l] += m[i * d2 + j, i * d2 + l]
    return out


class TestValidateDensity:
    def test_already_valid_unchanged(self):
        rho = validate_density(np.diag([0.5, 0.5]).astype(complex))
        assert np.allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-15)

    def test_clip_and_renormalize_boundary(self):
        rho = validate_density(np.diag([1 + 1e-13, -1e-13]).astype(complex))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.all(rho.eigenvalues >= 0)
        assert np.isclose(np.sum(rho.eigenvalues), 1.0, atol=1e-14)

    def test_not_positive(self):
        m = np.array([[0.5, 1j], [-1j, 0.5]])  # eigenvalues -0.5, 1.5
        with pytest.raises(DomainError, match="state has eigenvalue -5.000e-01 below -1.0e-12"):
            validate_density(m)

    def test_not_hermitian(self):
        with pytest.raises(DomainError, match="state deviates from Hermiticity by 3.000e-01"):
            validate_density(np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex))

    def test_zero_trace(self):
        with pytest.raises(DomainError, match="state trace .* too close to zero"):
            validate_density(np.diag([1e-13, -1e-13]).astype(complex))

    def test_non_square(self):
        with pytest.raises(DomainError, match=re.escape("state must be square, got shape (2, 3)")):
            validate_density(np.zeros((2, 3), dtype=complex))

    def test_invariants_on_random_states(self, rng):
        for rho in make_states(rng):
            assert np.allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)
            assert np.isclose(np.trace(rho.matrix).real, 1.0, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(rho.matrix)) >= -1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)],
                             ids=["nan", "inf", "nan-imaginary"])
    def test_non_finite_entries_rejected(self, bad):
        # every other check compares with <, which is False for NaN
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(DomainError, match="NaN or infinite"):
            validate_density(m)

    def test_all_nan_state_rejected(self):
        with pytest.raises(DomainError):
            validate_density(np.full((2, 2), np.nan))

    def test_eigensolver_failure_is_numerical_failure(self, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalFailure, match="eigensolver failed: Eigenvalues did not converge"):
            validate_density(np.diag([0.75, 0.25]).astype(complex))

    def test_matrix_is_write_protected(self, rng):
        rho = random_density_matrix(2, rng)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestSpectralDecompose:
    """The eigendecomposition that validate_density returns with the state."""

    def test_diagonal(self):
        spec = validate_density(np.diag([0.25, 0.75]).astype(complex))
        assert np.allclose(spec.eigenvalues, [0.25, 0.75])
        assert np.allclose(np.abs(spec.eigenvectors), np.eye(2))

    def test_sigma_x(self):
        # the state along sigma_x: off-diagonal input
        spec = validate_density(0.5 * IDENTITY_2 + 0.25 * SIGMA_X)
        assert np.allclose(spec.eigenvalues, [0.25, 0.75])

    def test_degenerate(self):
        spec = validate_density(0.5 * IDENTITY_2)
        assert np.allclose(spec.eigenvalues, [0.5, 0.5])
        v = spec.eigenvectors
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_reconstruction_and_unitarity(self, rng):
        for rho in make_states(rng):
            spec = validate_density(rho.matrix)
            v = spec.eigenvectors
            rec = (v * spec.eigenvalues) @ v.conj().T
            assert np.linalg.norm(rec - rho.matrix) <= 1e-10 * max(np.linalg.norm(rho.matrix), 1)
            assert np.linalg.norm(v.conj().T @ v - np.eye(rho.dim)) < 1e-10

    def test_ascending(self, rng):
        for rho in make_states(rng):
            w = validate_density(rho.matrix).eigenvalues
            assert np.all(np.diff(w) >= 0)


class TestMatrixFunction:
    def test_projector_fixed_by_any_f(self):
        rho = validate_density(np.diag([1.0, 0.0]).astype(complex))
        out = matrix_function(rho, PowerLaw(q=2.0))
        assert np.allclose(out, rho.matrix, atol=1e-14)

    def test_elementwise_square(self):
        rho = validate_density(np.diag([0.75, 0.25]).astype(complex))
        out = matrix_function(rho, PowerLaw(q=2.0))
        assert np.allclose(out, np.diag([0.5625, 0.0625]), atol=1e-14)

    @pytest.mark.parametrize("q", [0.5, 1.7, 3.0])
    def test_scalar_case(self, q):
        rho = validate_density(0.5 * IDENTITY_2)
        out = matrix_function(rho, PowerLaw(q=q))
        assert np.allclose(out, 2.0 ** (-q) * IDENTITY_2, atol=1e-14)

    def test_identity_reconstructs(self, rng):
        for rho in make_states(rng):
            out = matrix_function(rho, PowerLaw(q=1.0))
            rel = np.linalg.norm(out - rho.matrix) / np.linalg.norm(rho.matrix)
            assert rel < 1e-10

    def test_commutes_with_source(self, rng):
        for rho in make_states(rng):
            out = matrix_function(rho, PowerLaw(q=2.5))
            comm = out @ rho.matrix - rho.matrix @ out
            assert np.linalg.norm(comm) < 1e-10

    def test_trace_matches_eigenvalue_sum(self, rng):
        for rho in make_states(rng):
            for n in (2, 3):
                lhs = float(np.trace(matrix_function(rho, PowerLaw(q=float(n)))).real)
                assert lhs == pytest.approx(casimir_functional(n).evaluator(rho.matrix), abs=1e-12)

    def test_negative_eigenvalue_noninteger_power(self):
        # the raw constructor trusts its inputs: eigenvalues -1, 1
        spec = DensityMatrix(matrix=SIGMA_Z, eigenvalues=np.array([-1.0, 1.0]),
                             eigenvectors=IDENTITY_2)
        with pytest.raises(DomainError):
            matrix_function(spec, PowerLaw(q=1.5))


class TestTensorAndPartialTrace:
    def test_projector_product(self):
        p = validate_density(np.diag([1.0, 0.0]).astype(complex))
        joint = validate_density(np.kron(p.matrix, p.matrix))
        assert np.allclose(joint.matrix, np.diag([1, 0, 0, 0]))

    def test_identity_product(self):
        mixed = validate_density(0.5 * IDENTITY_2)
        joint = validate_density(np.kron(mixed.matrix, mixed.matrix))
        assert np.allclose(joint.matrix, np.eye(4) / 4)

    def test_sigma_z_times_identity(self):
        # the first factor sits on the slow index
        up = validate_density(np.diag([1.0, 0.0]).astype(complex))
        mixed = validate_density(0.5 * IDENTITY_2)
        joint = validate_density(np.kron(up.matrix, mixed.matrix))
        assert np.allclose(joint.matrix, np.diag([0.5, 0.5, 0, 0]))

    def test_product_state_reduction(self):
        a = validate_density(np.diag([0.75, 0.25]).astype(complex))
        b = validate_density(np.diag([0.6, 0.4]).astype(complex))
        red, _ = partial_trace(validate_density(np.kron(a.matrix, b.matrix)).matrix, (2, 2))
        assert np.allclose(red, a.matrix, atol=1e-14)

    def test_bell_state_reduction(self):
        bell = pure_state(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
        red, _ = partial_trace(bell.matrix, (2, 2))
        assert np.allclose(red, 0.5 * np.eye(2), atol=1e-12)

    def test_keep_second(self):
        rho = validate_density(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
        _, red = partial_trace(rho.matrix, (2, 2))
        assert np.allclose(red, np.diag([1.0, 0.0]), atol=1e-14)

    def test_dimension_mismatch(self, rng):
        rho = random_density_matrix(4, rng)
        message = "state of shape (4, 4) does not factor as (3x2)^2"
        with pytest.raises(DomainError, match=re.escape(message)):
            partial_trace(rho.matrix, (3, 2))

    def test_against_brute_force(self, rng):
        for d1, d2 in [(2, 2), (2, 3), (3, 2), (4, 2)]:
            rho = random_density_matrix(d1 * d2, rng)
            for keep, got in zip(("I", "II"), partial_trace(rho.matrix, (d1, d2))):
                want = brute_force_partial_trace(rho.matrix, (d1, d2), keep)
                assert np.allclose(got, want, atol=1e-12)
            # a (T, d, d) stack, reduced in one call, matrix by matrix
            stack = np.array([random_density_matrix(d1 * d2, rng).matrix for _ in range(3)])
            for keep, d, reds in zip(("I", "II"), (d1, d2), partial_trace(stack, (d1, d2))):
                assert reds.shape == (3, d, d)
                for m, got in zip(stack, reds):
                    assert np.allclose(got, brute_force_partial_trace(m, (d1, d2), keep), atol=1e-12)

    def test_round_trip_random_products(self, rng):
        for d1, d2 in [(2, 2), (3, 4), (4, 3)]:
            a = random_density_matrix(d1, rng)
            b = random_density_matrix(d2, rng)
            joint = validate_density(np.kron(a.matrix, b.matrix))
            red_a, red_b = partial_trace(joint.matrix, (d1, d2))
            assert np.max(np.abs(red_a - a.matrix)) < 1e-12
            assert np.max(np.abs(red_b - b.matrix)) < 1e-12


class TestBloch:
    def test_pure_spin_up(self):
        rho = bloch_state(lam=1.0, phi=0.0, psi=0.0)
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_maximally_mixed_any_angles(self):
        rho = bloch_state(lam=0.5, phi=1.234, psi=4.321)
        assert np.allclose(rho.matrix, 0.5 * IDENTITY_2, atol=1e-14)

    def test_equatorial_state(self):
        rho = bloch_state(lam=0.75, phi=np.pi / 2, psi=0.0)
        assert np.allclose(rho.matrix, 0.5 * IDENTITY_2 - 0.25 * SIGMA_X, atol=1e-12)
        assert np.allclose(np.sort(np.linalg.eigvalsh(rho.matrix)), [0.25, 0.75], atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            bloch_state(lam=1.2, phi=0.0, psi=0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        lam=st.floats(0.0, 1.0),
        phi=st.floats(0.0, np.pi),
        psi=st.floats(0.0, 2 * np.pi),
    )
    def test_eigenvalues_are_lam_pair(self, lam, phi, psi):
        rho = bloch_state(lam=lam, phi=phi, psi=psi)
        w = np.sort(np.linalg.eigvalsh(rho.matrix))
        assert np.allclose(w, sorted([lam, 1.0 - lam]), atol=1e-12)

    def test_eigenvalue_at_tolerance_kept_within_tolerance(self):
        # the round-off repair must not move an eigenvalue of exactly the
        # validation tolerance by more than that tolerance
        rho = bloch_state(lam=1e-12, phi=0.375, psi=4.0)
        w = np.sort(np.linalg.eigvalsh(rho.matrix))
        assert np.allclose(w, [1e-12, 1.0 - 1e-12], atol=1e-12)

    def test_matches_docstring_formula(self):
        # the Bloch vector of the docstring formula rebuilds the state
        lam, phi, psi = 0.9, 0.7, 1.1
        rho = bloch_state(lam=lam, phi=phi, psi=psi)
        n = (2 * lam - 1) * np.array([-np.sin(phi) * np.cos(psi), -np.sin(phi) * np.sin(psi),
                                      np.cos(phi)])
        rebuilt = 0.5 * (IDENTITY_2 + n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)
        assert np.allclose(rebuilt, rho.matrix, atol=1e-12)


def bloch_vectors(count, rng):
    """count seeded Bloch forms (x, y, z, trace) of states with eigenvalues
    trace (lam, 1 - lam): lam anywhere in [0, 1], at the pure ends and at
    1/2 (r = 0); phi anywhere and near 0 and pi (|x|, |y| << |z|, both
    signs of z); a third of the traces from 0.5 to 2, the rest 1."""
    lam = rng.uniform(0.0, 1.0, count)
    lam[0::10], lam[1::10], lam[2::10] = 0.0, 1.0, 0.5
    phi = rng.uniform(0.0, np.pi, count)
    phi[3::10], phi[4::10] = rng.uniform(0.0, 1e-8, count // 10), np.pi - rng.uniform(0.0, 1e-8, count // 10)
    psi = rng.uniform(0.0, 2.0 * np.pi, count)
    trace = np.where(np.arange(count) % 3 == 0, rng.uniform(0.5, 2.0, count), 1.0)
    c = trace * (lam - 0.5)
    return zip(-c * np.sin(phi) * np.cos(psi), -c * np.sin(phi) * np.sin(psi), c * np.cos(phi), trace)


def bloch_matrix(x, y, z, trace):
    """trace/2 + x sx + y sy + z sz, entry by entry (no 0 * inf)."""
    return np.array([[0.5 * trace + z, complex(x, -y)], [complex(x, y), 0.5 * trace - z]])


class TestPureState:
    @pytest.mark.parametrize("vector, unit", [
        ([1e-300, 0.0], [1.0, 0.0]),
        ([1e-200, 1e-200], [1.0, 1.0]),
        ([1e300, 1e300], [1.0, 1.0]),
        ([1.5e308 + 1.5e308j, 0.0], [1.0 + 1.0j, 0.0]),
    ], ids=["1e-300", "1e-200", "1e300", "modulus-past-float-max"])
    def test_scale_free(self, vector, unit):
        # from near the smallest float to past the largest, scale does not change the state
        assert np.array_equal(pure_state(vector).matrix, pure_state(unit).matrix)

    def test_unit_scale_vector_normalized_as_by_its_norm(self, rng):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        unit = psi / np.linalg.norm(psi)
        assert np.array_equal(pure_state(psi).matrix,
                              validate_density(np.outer(unit, unit.conj())).matrix)


class TestQubitState:
    def test_matches_validate_density(self):
        # the closed form is within 4.4e-16 of the exact matrix over 20,000
        # seeded states, the eigh route of validate_density within 1.2e-15:
        # so the two agree within the sum of their own bounds
        for x, y, z, trace in bloch_vectors(2000, np.random.default_rng(2022)):
            got = _qubit_state(x, y, z, trace)
            want = validate_density(bloch_matrix(x, y, z, trace))
            v = got.eigenvectors
            assert np.max(np.abs(got.matrix - bloch_matrix(x, y, z, trace) / trace)) < 1e-15
            assert np.max(np.abs(got.matrix - want.matrix)) < 2e-15
            assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) < 1e-15
            assert np.max(np.abs(v.conj().T @ v - IDENTITY_2)) < 1e-15
            assert np.max(np.abs((v * got.eigenvalues) @ v.conj().T - got.matrix)) < 1e-15
            for a in (got.matrix, got.eigenvalues, got.eigenvectors):
                assert not a.flags.writeable

    def test_round_off_eigenvalue_is_zero(self):
        # the lower eigenvalue -5e-13 lies inside the repair window
        state = _qubit_state(0.0, 0.0, 0.5 + 5e-13)
        assert state.eigenvalues.tolist() == [0.0, 1.0]
        assert np.array_equal(state.matrix, np.diag([1.0, 0.0]).astype(complex))

    def test_round_off_is_zeroed_once(self):
        # the lower eigenvalue 1.5e-13 lies above the repair window and, over
        # the trace 2, 7.5e-14 inside it: zeroed after renormalizing, it left
        # a spectrum that summed to 1 - 7.5e-14
        x, y, z, trace = 0.0, 0.0, 1.0 - 1.5e-13, 2.0
        got = _qubit_state(x, y, z, trace)
        want = validate_density(bloch_matrix(x, y, z, trace))
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.matrix, want.matrix)
        assert got.eigenvalues[0] > 0.0 and np.sum(got.eigenvalues) == 1.0

    @pytest.mark.parametrize("r", [1e-17, 1e-160, 1e-300])
    def test_small_bloch_vector_keeps_v_unitary(self, r):
        # 2 r (r + |z|) underflows below r = 1e-154; the eigenvectors do not
        for x, y, z in [(r, 0.0, 0.0), (0.6 * r, 0.24 * r, -0.76 * r), (0.0, 0.0, -r)]:
            v = _qubit_state(x, y, z).eigenvectors
            assert np.max(np.abs(v.conj().T @ v - IDENTITY_2)) < 1e-15

    @pytest.mark.parametrize("xyzt", [
        (np.nan, 0.0, 0.0, 1.0), (0.0, np.inf, 0.0, 1.0), (0.0, 0.0, -np.inf, 1.0),
        (0.0, 0.0, 0.0, np.nan), (0.0, 0.0, 0.0, np.inf),
        (0.0, 0.0, 0.5 + 2 * TOL_HERM, 1.0),  # eigenvalue -2e-12
        (0.3, 0.0, 0.0, 0.1 * TOL_HERM),  # trace too close to zero
    ], ids=["x-nan", "y-inf", "z-minus-inf", "trace-nan", "trace-inf", "negative", "trace-zero"])
    def test_rejects_what_validate_density_rejects(self, xyzt):
        x, y, z, trace = xyzt
        with pytest.raises(DomainError):
            _qubit_state(x, y, z, trace)
        with pytest.raises(DomainError):
            validate_density(bloch_matrix(x, y, z, trace))

    @pytest.mark.parametrize("angles", [(np.inf, 0.3), (0.3, -np.inf), (np.nan, 0.3), (0.3, np.nan)])
    def test_bloch_state_rejects_non_finite_angles(self, angles):
        with pytest.raises(DomainError, match="NaN or infinite"):
            bloch_state(lam=0.75, phi=angles[0], psi=angles[1])


class TestHermitianPart:
    def test_bitwise_half_sum_in_range(self, rng):
        # halving before the sum changes no bit where the sum is finite and
        # normal, for one matrix and for a stack
        for shape in [(4, 4), (5, 3, 3)]:
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            assert np.array_equal(hermitian_part(a), 0.5 * (a + a.conj().swapaxes(-1, -2)))

    def test_entries_near_float_max_stay_finite(self):
        # 1.5e308 + 1.5e308 overflows; the Hermitian part of a Hermitian
        # matrix is the matrix itself
        h = np.diag([1.5e308, -1.5e308, 0.5]).astype(complex)
        h[0, 2], h[2, 0] = 1e308 + 1e308j, 1e308 - 1e308j
        assert np.array_equal(hermitian_part(h), h)
        assert np.array_equal(require_hermitian(h), h)


class TestRandomHermitian:
    @pytest.mark.parametrize("norm", [-1.0, 0.0, float("nan")])
    def test_non_positive_spectral_norm_rejected(self, rng, norm):
        with pytest.raises(DomainError, match="spectral_norm must be positive"):
            random_hermitian(2, rng, spectral_norm=norm)


class TestNorms:
    def test_trace_norm_diagonal(self):
        assert trace_norm(np.diag([0.3, -0.7]).astype(complex)) == pytest.approx(1.0)

    def test_trace_distance_orthogonal_pure(self):
        a = pure_state(np.array([1.0, 0.0]))
        b = pure_state(np.array([0.0, 1.0]))
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
