import re

import numpy as np
import pytest

from nvne.deformation import PowerLaw
from nvne.dynamics import IntegratorConfig, evolve
from nvne.errors import DomainError
from nvne.hermitian import (
    SIGMA_Z,
    bloch_state,
    pure_state,
    random_density_matrix,
    random_hermitian,
    trace_distance,
    validate_density,
)
from nvne.structure import q_average
from nvne.thermo import (
    ThermoParams,
    free_energy,
    spin_equilibrium,
    spin_free_energy,
    spin_free_energy_gradient,
    stability_second_derivative,
    tsallis_entropy,
)

from conftest import make_states


class TestEntropy:
    def test_pure_state_zero(self, rng):
        rho = pure_state(rng.normal(size=3) + 1j * rng.normal(size=3))
        for q in (0.5, 2.0, 3.0):
            assert tsallis_entropy(rho, q) == pytest.approx(0.0, abs=1e-7)

    def test_q2_oracle(self):
        rho = validate_density(np.diag([0.75, 0.25]).astype(complex))
        assert tsallis_entropy(rho, 2.0) == pytest.approx(0.375)

    def test_shannon_limit(self):
        rho = validate_density(0.5 * np.eye(2, dtype=complex))
        assert tsallis_entropy(rho, 1.0) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_nonnegative_zero_iff_pure(self, rng):
        for q in (0.5, 2.0, 3.0):
            for rho in make_states(rng, dims=(2, 3), per_dim=3):
                s = tsallis_entropy(rho, q)
                assert s >= 0.0
                if abs(rho.purity() - 1.0) >= 1e-10:
                    assert s > 1e-6

    def test_continuity_at_q_equals_one(self, rng):
        rho = random_density_matrix(3, rng)
        s1 = tsallis_entropy(rho, 1.0)
        gaps = []
        for eps in (1e-3, 1e-4):
            gap = max(abs(tsallis_entropy(rho, 1.0 + eps) - s1),
                      abs(tsallis_entropy(rho, 1.0 - eps) - s1))
            gaps.append(gap / eps)
        # difference shrinks linearly in |q-1| with a stable constant
        assert gaps[1] < gaps[0] * 1.5
        assert gaps[1] > 0

    def test_rejects_nonpositive_q(self, rng):
        with pytest.raises(DomainError):
            tsallis_entropy(random_density_matrix(2, rng), 0.0)


class TestEnergies:
    def test_bloch_closed_form(self):
        # U_q = -mu cos(phi) (lam^q - (1-lam)^q)
        mu, lam, phi, q = 1.0, 0.75, 0.6, 2.0
        rho = bloch_state(lam=lam, phi=phi, psi=0.3)
        expected = -mu * np.cos(phi) * (lam**q - (1 - lam) ** q)
        assert q_average(rho, -mu * SIGMA_Z, q) == pytest.approx(expected, abs=1e-12)

    def test_aligned_oracle(self):
        rho = bloch_state(lam=0.75, phi=0.0, psi=0.0)
        assert q_average(rho, -SIGMA_Z, 2.0) == pytest.approx(-0.5)

    def test_balanced_state_zero(self):
        rho = bloch_state(lam=0.5, phi=0.9, psi=0.1)
        for q in (0.5, 2.0, 3.0):
            assert q_average(rho, -SIGMA_Z, q) == pytest.approx(0.0, abs=1e-12)


class TestFreeEnergy:
    def test_pure_excited(self):
        rho = validate_density(np.diag([0.0, 1.0]).astype(complex))
        p = ThermoParams(q=2.0, beta=1.0, mu=1.0)
        assert free_energy(rho, -SIGMA_Z, p) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_oracle(self):
        rho = validate_density(np.diag([0.75, 0.25]).astype(complex))
        p = ThermoParams(q=2.0, beta=1.0, mu=1.0)
        assert free_energy(rho, -SIGMA_Z, p) == pytest.approx(-0.875)

    def test_maximally_mixed_oracle(self):
        rho = validate_density(0.5 * np.eye(2, dtype=complex))
        p = ThermoParams(q=2.0, beta=1.0, mu=1.0)
        assert free_energy(rho, -SIGMA_Z, p) == pytest.approx(-0.5)

    def test_energy_casimir_identity(self, rng):
        # F = U_q + Phi(C_1, C_q) identically in rho, Phi = -T (C_1 - C_q)/(q - 1)
        p = ThermoParams(q=2.5, beta=0.7, mu=1.3)
        for rho in make_states(rng, dims=(2, 3), per_dim=3):
            h = random_hermitian(rho.dim, rng)
            lhs = free_energy(rho, h, p)
            c1, cq = np.sum(rho.eigenvalues), np.sum(rho.eigenvalues**p.q)
            rhs = q_average(rho, h, p.q) - p.temperature * (c1 - cq) / (p.q - 1.0)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_spin_free_energy_consistent_with_matrix_form(self):
        p = ThermoParams(q=2.0, beta=0.5, mu=1.0)
        for lam in (0.55, 0.75, 0.9):
            rho = bloch_state(lam=lam, phi=0.0, psi=0.0)
            assert spin_free_energy(lam, p) == pytest.approx(
                free_energy(rho, -p.mu * SIGMA_Z, p), abs=1e-12)


class TestSpinEquilibrium:
    def test_q2_closed_form(self):
        res = spin_equilibrium(ThermoParams(q=2.0, beta=0.5, mu=1.0))
        assert res.lam == pytest.approx(0.75, abs=1e-10)
        assert res.second_derivative > 0

    def test_closed_form_ratio_oracle(self):
        # the closed-form result must satisfy the defining ratio equation
        for q, beta in ((1.5, 0.9), (2.0, 0.3), (3.0, 0.4), (0.5, 1.2)):
            p = ThermoParams(q=q, beta=beta, mu=1.0)
            res = spin_equilibrium(p)
            lhs = (res.lam / (1 - res.lam)) ** (q - 1.0)
            x = (q - 1.0) * beta * p.mu
            assert lhs == pytest.approx((1 + x) / (1 - x), rel=1e-9)

    def test_gibbs_limit(self):
        p = ThermoParams(q=1.0, beta=0.5, mu=1.0)
        res = spin_equilibrium(p)
        assert res.lam == pytest.approx(np.exp(0.5) / (np.exp(0.5) + np.exp(-0.5)), abs=1e-12)
        for eps in (1e-6, -1e-6):
            near = spin_equilibrium(ThermoParams(q=1.0 + eps, beta=0.5, mu=1.0))
            assert near.lam == pytest.approx(res.lam, abs=1e-6)

    def test_boundary_adjacent(self):
        res = spin_equilibrium(ThermoParams(q=2.0, beta=0.999, mu=1.0))
        assert res.lam / (1 - res.lam) == pytest.approx(1999.0, rel=1e-9)
        assert res.lam == pytest.approx(0.9995, abs=1e-9)

    def test_curvature_next_to_the_domain_edge(self):
        # |x| = 0.99999 < 1 puts lam within 5e-6 of 1; at q = 2 the
        # curvature is 4 T exactly
        res = spin_equilibrium(ThermoParams(q=2.0, beta=0.99999, mu=1.0))
        assert res.lam == pytest.approx(0.999995, abs=1e-9)
        assert res.second_derivative == pytest.approx(4.0 / 0.99999, rel=1e-12)

    def test_out_of_domain(self):
        message = "|q-1|*beta*mu = {} >= 1; closed-form equilibrium invalid"
        with pytest.raises(DomainError, match=re.escape(message.format(1))):
            spin_equilibrium(ThermoParams(q=2.0, beta=1.0, mu=1.0))
        with pytest.raises(DomainError, match=re.escape(message.format(1.2))):
            spin_equilibrium(ThermoParams(q=3.0, beta=0.6, mu=1.0))

    def test_stationarity_and_stability_on_grid(self):
        for q in (0.5, 0.8, 1.2, 1.5, 2.0, 3.0):
            for c in (0.2, 0.5, 0.8):
                p = ThermoParams(q=q, beta=c / abs(q - 1.0), mu=1.0)
                res = spin_equilibrium(p)
                assert abs(spin_free_energy_gradient(res.lam, p)) < 1e-8
                assert res.second_derivative > 0
                assert 0.5 < res.lam < 1.0

    def test_equilibrium_state_matrix(self):
        res = spin_equilibrium(ThermoParams(q=2.0, beta=0.5, mu=1.0))
        state = bloch_state(lam=res.lam, phi=0.0, psi=0.0)
        assert np.allclose(state.matrix, np.diag([0.75, 0.25]), atol=1e-10)


class TestStability:
    def test_second_derivative_positive_at_equilibrium(self):
        p = ThermoParams(q=2.0, beta=0.5, mu=1.0)
        assert stability_second_derivative(p, 0.75) > 0

    def test_entropy_dominated_limit(self):
        # beta -> 0: minimum moves to lam = 1/2 and stays a minimum
        p = ThermoParams(q=2.0, beta=1e-6, mu=1.0)
        res = spin_equilibrium(p)
        assert res.lam == pytest.approx(0.5, abs=1e-5)
        assert stability_second_derivative(p, 0.5) > 0

    @staticmethod
    def central_difference(p, lam, h=1e-5):
        return (spin_free_energy(lam + h, p) - spin_free_energy(lam - h, p)) / (2 * h)

    def test_off_equilibrium_gradient_nonzero(self):
        p = ThermoParams(q=2.0, beta=0.5, mu=1.0)
        assert abs(self.central_difference(p, 0.99)) > 1e-3

    def test_fd_and_analytic_gradient_agree(self):
        p = ThermoParams(q=2.5, beta=0.4, mu=1.0)
        for lam in (0.55, 0.7, 0.9):
            assert self.central_difference(p, lam) == pytest.approx(
                spin_free_energy_gradient(lam, p), rel=1e-6)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
    def test_closed_form_curvature_matches_central_difference(self, q):
        p, h = ThermoParams(q=q, beta=0.5, mu=1.0), 1e-4
        for lam in (0.55, 0.75, 0.9):
            fd = (spin_free_energy(lam + h, p) - 2 * spin_free_energy(lam, p)
                  + spin_free_energy(lam - h, p)) / h**2
            assert stability_second_derivative(p, lam) == pytest.approx(fd, rel=1e-5)

    def test_dynamic_stability_of_perturbed_equilibrium(self):
        # tilt the equilibrium by phi = 0.1 and confirm the orbit stays
        # within twice the initial trace distance
        p = ThermoParams(q=2.0, beta=0.5, mu=1.0)
        res = spin_equilibrium(p)
        equilibrium = bloch_state(lam=res.lam, phi=0.0, psi=0.0)
        perturbed = bloch_state(lam=res.lam, phi=0.1, psi=0.0)
        d0 = trace_distance(perturbed, equilibrium)
        cfg = IntegratorConfig(dt=1e-3, t_final=20.0, record_every=100)
        traj = evolve(perturbed, -p.mu * SIGMA_Z, PowerLaw(q=p.q), cfg)
        worst = max(trace_distance(s, equilibrium) for s in traj.states)
        assert worst <= 2.0 * d0

