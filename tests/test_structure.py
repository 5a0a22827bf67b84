
import numpy as np
import pytest

from nvne.deformation import CoefficientSeries, PowerLaw
from nvne.errors import DomainError, NumericalFailure
from nvne.hermitian import (
    SIGMA_X,
    SIGMA_Z,
    pure_state,
    random_density_matrix,
    random_hermitian,
    validate_density,
)
from nvne.structure import (
    _trace_functional,
    casimir_functional,
    hamiltonian_function,
    poisson_bracket,
    q_average_functional,
    trace_polynomial_functional,
    ObservableFunctional,
)

from conftest import make_states
from oracles import finite_difference_gradient, matrix_function


def comm(a, b):
    return a @ b - b @ a


class TestHamiltonianFunction:
    def test_q2_oracle(self):
        rho = validate_density(np.diag([0.75, 0.25]).astype(complex))
        assert hamiltonian_function(rho, -SIGMA_Z, PowerLaw(q=2.0)) == pytest.approx(-0.5)

    def test_pure_state_reduces_to_linear_average(self, rng):
        # tolerance 1e-7: eigh leaves ~1e-16 noise in the kernel eigenvalues
        # of an outer-product state, which x**0.5 amplifies to ~1e-8
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        rho = pure_state(psi)
        h = random_hermitian(3, rng)
        expected = float(np.real(np.trace(rho.matrix @ h)))
        for q in (0.5, 2.0, 3.0):
            assert hamiltonian_function(rho, h, PowerLaw(q=q)) == pytest.approx(expected, abs=1e-7)

    def test_maximally_mixed_traceless_field(self):
        rho = validate_density(0.5 * np.eye(2, dtype=complex))
        for q in (0.5, 2.0, 3.0):
            assert hamiltonian_function(rho, -SIGMA_Z, PowerLaw(q=q)) == pytest.approx(0.0, abs=1e-14)


class TestGenerator:
    def test_q1_returns_field(self, rng):
        rho = random_density_matrix(3, rng)
        h = random_hermitian(3, rng)
        # for f = id the kernel is all ones
        assert np.allclose(_trace_functional([(1.0, PowerLaw(q=1.0))], h).gradient(rho), h, atol=1e-12)

    def test_spin_sigma_z_coefficient(self):
        # diag(lam, 1-lam), H = -mu sigma_z: the sigma_z coefficient of the
        # generator is -mu*q*(lam^(q-1) + (1-lam)^(q-1))/2
        mu, lam = 1.0, 0.75
        rho = validate_density(np.diag([lam, 1 - lam]).astype(complex))
        for q in (1.5, 2.0, 3.0):
            g = _trace_functional([(1.0, PowerLaw(q=q))], -mu * SIGMA_Z).gradient(rho)
            gamma = 0.5 * (g[1, 1] - g[0, 0]).real
            expected = mu * q * (lam ** (q - 1) + (1 - lam) ** (q - 1)) / 2
            assert gamma == pytest.approx(expected, abs=1e-12)
            offdiag = g - np.diag(np.diag(g))
            assert np.linalg.norm(offdiag) < 1e-14

    def test_q2_spin_case_is_field_up_to_identity(self):
        # the identity part, -1/2 here, commutes with every state
        rho = validate_density(np.diag([0.75, 0.25]).astype(complex))
        g = _trace_functional([(1.0, PowerLaw(q=2.0))], -SIGMA_Z).gradient(rho)
        assert np.allclose(g, -SIGMA_Z - 0.5 * np.eye(2), atol=1e-13)

    def test_commutator_matches_field_commutator(self, rng):
        f = PowerLaw(q=2.5)
        for rho in make_states(rng, dims=(3,), per_dim=3):
            h = random_hermitian(3, rng)
            lhs = comm(_trace_functional([(1.0, f)], h).gradient(rho), rho.matrix)
            rhs = comm(h, matrix_function(rho, f))
            assert np.linalg.norm(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("q", [0.5, 1.5, 2.0, 3.0])
    def test_equals_q_average_gradient(self, rng, q):
        # one route from U_q to the flow: the generator is the gradient of U_q
        for dim in range(2, 7):
            rho = random_density_matrix(dim, rng)
            h = random_hermitian(dim, rng)
            g = _trace_functional([(1.0, PowerLaw(q=q))], h).gradient(rho)
            assert np.array_equal(g, q_average_functional(h, q).gradient(rho))

    def test_commutator_identity_random(self, rng):
        for q in (0.5, 1.5, 2.0, 3.0):
            f = PowerLaw(q=q)
            for rho in make_states(rng, dims=(2, 4), per_dim=2):
                h = random_hermitian(rho.dim, rng)
                g = _trace_functional([(1.0, f)], h).gradient(rho)
                lhs = comm(g, rho.matrix)
                rhs = comm(h, matrix_function(rho, f))
                assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_commutator_identity_degenerate(self, rng):
        f = PowerLaw(q=2.0)
        # rank-deficient and repeated-eigenvalue states
        states = [
            validate_density(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)),
            validate_density(np.diag([0.4, 0.4, 0.2, 0.0]).astype(complex)),
            validate_density(np.eye(4, dtype=complex) / 4),
        ]
        for rho in states:
            h = random_hermitian(4, rng)
            g = _trace_functional([(1.0, f)], h).gradient(rho)
            lhs = comm(g, rho.matrix)
            rhs = comm(h, matrix_function(rho, f))
            assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_pure_state_recovers_linear_dynamics(self, rng):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = pure_state(psi)
        h = random_hermitian(4, rng)
        for q in (0.5, 2.0, 3.0):
            g = _trace_functional([(1.0, PowerLaw(q=q))], h).gradient(rho)
            assert np.linalg.norm(comm(g, rho.matrix) - comm(h, rho.matrix)) < 1e-7

    def test_maximally_mixed_fixed_point(self, rng):
        rho = validate_density(np.eye(3, dtype=complex) / 3)
        h = random_hermitian(3, rng)
        g = _trace_functional([(1.0, PowerLaw(q=2.0))], h).gradient(rho)
        assert np.linalg.norm(comm(g, rho.matrix)) < 1e-12

    def test_divided_difference_value(self):
        # eigenvalues 0.75/0.25 with q=2 give off-diagonal factor exactly 1
        rho = validate_density(np.diag([0.75, 0.25]).astype(complex))
        g = _trace_functional([(1.0, PowerLaw(q=2.0))], -SIGMA_X).gradient(rho)
        assert g[0, 1] == pytest.approx(-1.0)

    def test_series_deformation(self, rng):
        f = CoefficientSeries(coeffs=(0.3, 0.2, 0.5))
        rho = random_density_matrix(3, rng)
        h = random_hermitian(3, rng)
        g = _trace_functional([(1.0, f)], h).gradient(rho)
        assert np.linalg.norm(comm(g, rho.matrix) - comm(h, matrix_function(rho, f))) < 1e-10


class TestCasimirAndAverages:
    def test_casimir_values(self):
        mixed = validate_density(0.5 * np.eye(2, dtype=complex))
        assert casimir_functional(2).evaluator(mixed.matrix) == pytest.approx(0.5)
        rho = validate_density(np.diag([0.75, 0.25]).astype(complex))
        assert casimir_functional(2).evaluator(rho.matrix) == pytest.approx(0.625)

    def test_pure_state_casimirs_all_one(self, rng):
        rho = pure_state(rng.normal(size=3) + 1j * rng.normal(size=3))
        for n in range(1, 6):
            assert casimir_functional(n).evaluator(rho.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_casimir_rejects_nonpositive_order(self):
        with pytest.raises(DomainError):
            casimir_functional(0)

    def test_q_average_oracle(self):
        rho = validate_density(np.diag([0.75, 0.25]).astype(complex))
        assert hamiltonian_function(rho, -SIGMA_Z, PowerLaw(2.0)) == pytest.approx(-0.5)

    def test_q_average_q1_is_plain_average(self, rng):
        rho = random_density_matrix(3, rng)
        h = random_hermitian(3, rng)
        assert hamiltonian_function(rho, h, PowerLaw(1.0)) == pytest.approx(
            float(np.real(np.trace(rho.matrix @ h))), abs=1e-12)

    def test_q_average_pure_state(self, rng):
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        rho = pure_state(psi)
        h = random_hermitian(3, rng)
        expected = float(np.real(psi.conj() @ h @ psi))
        for q in (0.5, 2.0, 3.3):
            assert hamiltonian_function(rho, h, PowerLaw(q)) == pytest.approx(expected, abs=1e-7)


class TestGradients:
    def test_fd_matches_analytic_polynomial(self, rng):
        rho = random_density_matrix(3, rng)
        b = random_hermitian(3, rng)
        func = trace_polynomial_functional([0.2, -0.4, 1.2], b)
        analytic = func.gradient(rho)
        fd = finite_difference_gradient(func.evaluator, rho.matrix)
        assert np.max(np.abs(analytic - fd)) / np.max(np.abs(analytic)) < 1e-5

    def test_fd_matches_analytic_integer_q_average(self, rng):
        rho = random_density_matrix(3, rng)
        h = random_hermitian(3, rng)
        func = q_average_functional(h, 2.0)
        analytic = func.gradient(rho)
        fd = finite_difference_gradient(func.evaluator, rho.matrix)
        assert np.max(np.abs(analytic - fd)) / np.max(np.abs(analytic)) < 1e-5

    @pytest.mark.parametrize("functional", [
        lambda h: q_average_functional(h, 0.7),
        lambda h: q_average_functional(h, 2.5),
        lambda h: casimir_functional(4),
    ], ids=["q_average-0.7", "q_average-2.5", "casimir-4"])
    def test_fd_matches_analytic_at_d5(self, rng, functional):
        # non-integer q and B = identity take the same spectral value and
        # divided-difference gradient as the trace polynomials
        rho = random_density_matrix(5, rng)
        func = functional(random_hermitian(5, rng))
        analytic = func.gradient(rho)
        fd = finite_difference_gradient(func.evaluator, rho.matrix)
        assert np.max(np.abs(analytic - fd)) / np.max(np.abs(analytic)) < 1e-5

    def test_casimir_gradient(self, rng):
        rho = random_density_matrix(3, rng)
        func = casimir_functional(3)
        assert np.allclose(func.gradient(rho), 3 * np.linalg.matrix_power(rho.matrix, 2),
                           atol=1e-12)

    def test_gradient_failure_on_asymmetric_evaluator(self, rng):
        rho = random_density_matrix(2, rng)

        def lopsided(m):
            return float(m[0, 1].real)  # not a function of a Hermitian argument

        with pytest.raises(NumericalFailure, match="finite-difference gradient non-Hermitian by"):
            finite_difference_gradient(lopsided, rho.matrix)


class TestPoissonBracket:
    def test_self_bracket_zero(self, rng):
        rho = random_density_matrix(3, rng)
        func = trace_polynomial_functional([1.0], random_hermitian(3, rng))
        assert poisson_bracket(func, func, rho) == 0.0

    def test_antisymmetry(self, rng):
        rho = random_density_matrix(3, rng)
        a = trace_polynomial_functional([0.5, 0.5], random_hermitian(3, rng))
        b = trace_polynomial_functional([1.5, -0.5], random_hermitian(3, rng))
        assert abs(poisson_bracket(a, b, rho) + poisson_bracket(b, a, rho)) < 1e-8

    def test_casimirs_commute_with_everything(self, rng):
        for _ in range(3):
            rho = random_density_matrix(4, rng)
            func = trace_polynomial_functional(rng.normal(size=3), random_hermitian(4, rng))
            for n in range(1, 5):
                assert abs(poisson_bracket(casimir_functional(n), func, rho)) < 1e-6

    def test_casimirs_commute_with_fd_functionals(self, rng):
        rho = random_density_matrix(3, rng)
        b = random_hermitian(3, rng)
        def evaluate(m):
            return float(np.trace(m @ m @ b).real)

        fd_func = ObservableFunctional(
            evaluator=evaluate,
            gradient=lambda state: finite_difference_gradient(evaluate, state.matrix))
        for n in (1, 2, 3):
            assert abs(poisson_bracket(casimir_functional(n), fd_func, rho)) < 1e-6

    def test_q_averages_commute(self, rng):
        rho = random_density_matrix(3, rng)
        h = random_hermitian(3, rng)
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                val = poisson_bracket(q_average_functional(h, float(n)),
                                      q_average_functional(h, float(m)), rho)
                assert abs(val) < 1e-6

    def test_energy_generates_motion(self, rng):
        # d/dt F = {F, <H>_f} along i drho/dt = [H, f(rho)]
        from nvne.dynamics import IntegratorConfig, evolve

        rho = random_density_matrix(3, rng)
        h = random_hermitian(3, rng, spectral_norm=1.0)
        f = PowerLaw(q=2.0)
        obs = trace_polynomial_functional([0.0, 1.0], random_hermitian(3, rng))
        energy = q_average_functional(h, 2.0)
        bracket_rate = poisson_bracket(obs, energy, rho)
        dt = 1e-5
        traj = evolve(rho, h, f, IntegratorConfig(dt=dt, t_final=2 * dt, record_every=1))
        numeric_rate = (obs.evaluator(traj.states[2].matrix) - obs.evaluator(traj.states[0].matrix)) / (2 * dt)
        assert bracket_rate == pytest.approx(numeric_rate, rel=1e-4, abs=1e-8)

    def test_leibniz_rule(self, rng):
        rho = random_density_matrix(3, rng)
        a = trace_polynomial_functional([1.0], random_hermitian(3, rng))
        b = trace_polynomial_functional([0.0, 1.0], random_hermitian(3, rng))
        c = trace_polynomial_functional([0.5, 0.5], random_hermitian(3, rng))

        def product_functional(f1, f2):
            def ev(m):
                return f1.evaluator(m) * f2.evaluator(m)

            def grad(state):
                m = state.matrix
                return f1.evaluator(m) * f2.gradient(state) + f2.evaluator(m) * f1.gradient(state)

            return ObservableFunctional(evaluator=ev, gradient=grad)

        ab = product_functional(a, b)
        lhs = poisson_bracket(ab, c, rho)
        rhs = (a.evaluator(rho.matrix) * poisson_bracket(b, c, rho)
               + poisson_bracket(a, c, rho) * b.evaluator(rho.matrix))
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-6)

    def test_gauge_invariance_under_identity_shift(self, rng):
        rho = random_density_matrix(3, rng)
        h = random_hermitian(3, rng)
        a = q_average_functional(h, 2.0)
        b = trace_polynomial_functional([0.3, 0.7], random_hermitian(3, rng))

        def shifted_grad(state):
            return a.gradient(state) + 5.0 * np.eye(3)

        a_shifted = ObservableFunctional(evaluator=a.evaluator, gradient=shifted_grad)
        assert poisson_bracket(a, b, rho) == pytest.approx(
            poisson_bracket(a_shifted, b, rho), abs=1e-12)
