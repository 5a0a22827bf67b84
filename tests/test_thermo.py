import re

import numpy as np
import pytest

from nvne.deformation import PowerLaw
from nvne.dynamics import IntegratorConfig, evolve
from nvne.errors import DomainError, NumericalFailure
from nvne.hermitian import (
    SIGMA_Z,
    bloch_state,
    pure_state,
    random_density_matrix,
    random_hermitian,
    trace_distance,
    validate_density,
)
from nvne.structure import hamiltonian_function
from nvne.thermo import ThermoParams, q_equilibrium, tsallis_entropy

from conftest import make_states


class TestEntropy:
    def test_pure_state_zero(self, rng):
        rho = pure_state(rng.normal(size=3) + 1j * rng.normal(size=3))
        for q in (0.5, 2.0, 3.0):
            assert tsallis_entropy(rho.eigenvalues, q) == pytest.approx(0.0, abs=1e-7)

    def test_q2_oracle(self):
        rho = validate_density(np.diag([0.75, 0.25]).astype(complex))
        assert tsallis_entropy(rho.eigenvalues, 2.0) == pytest.approx(0.375)

    def test_shannon_limit(self):
        rho = validate_density(0.5 * np.eye(2, dtype=complex))
        assert tsallis_entropy(rho.eigenvalues, 1.0) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_nonnegative_zero_iff_pure(self, rng):
        for q in (0.5, 2.0, 3.0):
            for rho in make_states(rng, dims=(2, 3), per_dim=3):
                s = tsallis_entropy(rho.eigenvalues, q)
                assert s >= 0.0
                if abs(rho.purity() - 1.0) >= 1e-10:
                    assert s > 1e-6

    def test_continuity_at_q_equals_one(self, rng):
        rho = random_density_matrix(3, rng)
        s1 = tsallis_entropy(rho.eigenvalues, 1.0)
        gaps = []
        for eps in (1e-3, 1e-4):
            gap = max(abs(tsallis_entropy(rho.eigenvalues, 1.0 + eps) - s1),
                      abs(tsallis_entropy(rho.eigenvalues, 1.0 - eps) - s1))
            gaps.append(gap / eps)
        # difference shrinks linearly in |q-1| with a stable constant
        assert gaps[1] < gaps[0] * 1.5
        assert gaps[1] > 0

    def test_rejects_nonpositive_q(self, rng):
        with pytest.raises(DomainError):
            tsallis_entropy(random_density_matrix(2, rng).eigenvalues, 0.0)

    def test_rejects_nan_q(self, rng):
        with pytest.raises(DomainError):
            tsallis_entropy(random_density_matrix(2, rng).eigenvalues, np.nan)


class TestEnergies:
    def test_bloch_closed_form(self):
        # U_q = -mu cos(phi) (lam^q - (1-lam)^q)
        mu, lam, phi, q = 1.0, 0.75, 0.6, 2.0
        rho = bloch_state(lam=lam, phi=phi, psi=0.3)
        expected = -mu * np.cos(phi) * (lam**q - (1 - lam) ** q)
        assert hamiltonian_function(rho, -mu * SIGMA_Z, PowerLaw(q)) == pytest.approx(expected, abs=1e-12)

    def test_aligned_oracle(self):
        rho = bloch_state(lam=0.75, phi=0.0, psi=0.0)
        assert hamiltonian_function(rho, -SIGMA_Z, PowerLaw(2.0)) == pytest.approx(-0.5)

    def test_balanced_state_zero(self):
        rho = bloch_state(lam=0.5, phi=0.9, psi=0.1)
        for q in (0.5, 2.0, 3.0):
            assert hamiltonian_function(rho, -SIGMA_Z, PowerLaw(q)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("q, beta", [(np.nan, 1.0), (2.0, np.nan)], ids=["q-nan", "beta-nan"])
def test_thermo_params_reject_nan(q, beta):
    with pytest.raises(DomainError):
        ThermoParams(q=q, beta=beta)


def test_thermo_params_reject_infinite_temperature():
    # 1/beta overflows; the populations, 1/2 each, do not
    with pytest.raises(DomainError, match="no finite temperature"):
        ThermoParams(q=2.0, beta=1e-320)


@pytest.mark.parametrize("q, beta, quantity", [(1.0, 1000.0, "population"), (1e308, 8e-309, "Hessian")])
def test_out_of_range_equilibrium_names_the_quantity(q, beta, quantity):
    with pytest.raises(NumericalFailure, match=f"q-equilibrium {quantity} "):
        q_equilibrium(-SIGMA_Z, ThermoParams(q=q, beta=beta))


def spin_free_energy(lam, p, mu=1.0):
    """F = U_q - T S_q of the state diag(lam, 1 - lam) aligned with H = -mu sigma_z."""
    rho = validate_density(np.diag([lam, 1.0 - lam]).astype(complex))
    return hamiltonian_function(rho, -mu * SIGMA_Z, PowerLaw(p.q)) - p.temperature * tsallis_entropy(rho.eigenvalues, p.q)


def spin_equilibrium(q, beta, mu=1.0):
    return q_equilibrium(-mu * SIGMA_Z, ThermoParams(q=q, beta=beta))


class TestFreeEnergy:
    def test_pure_excited(self):
        p = ThermoParams(q=2.0, beta=1.0)
        assert spin_free_energy(0.0, p) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_oracle(self):
        p = ThermoParams(q=2.0, beta=1.0)
        assert spin_free_energy(0.75, p) == pytest.approx(-0.875)

    def test_maximally_mixed_oracle(self):
        p = ThermoParams(q=2.0, beta=1.0)
        assert spin_free_energy(0.5, p) == pytest.approx(-0.5)

    def test_energy_casimir_identity(self, rng):
        # F = U_q + Phi(C_1, C_q) identically in rho, Phi = -T (C_1 - C_q)/(q - 1)
        p = ThermoParams(q=2.5, beta=0.7)
        for rho in make_states(rng, dims=(2, 3), per_dim=3):
            h = random_hermitian(rho.dim, rng)
            u_q = hamiltonian_function(rho, h, PowerLaw(p.q))
            lhs = u_q - p.temperature * tsallis_entropy(rho.eigenvalues, p.q)
            c1, cq = np.sum(rho.eigenvalues), np.sum(rho.eigenvalues**p.q)
            rhs = u_q - p.temperature * (c1 - cq) / (p.q - 1.0)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_equilibrium_free_energy_consistent_with_matrix_form(self):
        for q, beta in ((2.0, 0.5), (0.5, 1.2), (1.0, 0.5)):
            res = spin_equilibrium(q, beta, mu=1.3)
            assert res.free_energy == pytest.approx(
                spin_free_energy(res.populations[0], ThermoParams(q=q, beta=beta), mu=1.3), abs=1e-12)


class TestSpinEquilibrium:
    def test_q2_closed_form(self):
        res = spin_equilibrium(2.0, 0.5)
        assert res.populations[0] == pytest.approx(0.75, abs=1e-10)
        assert np.sum(res.hessian) > 0

    def test_closed_form_ratio_oracle(self):
        # the closed-form result must satisfy the defining ratio equation
        for q, beta in ((1.5, 0.9), (2.0, 0.3), (3.0, 0.4), (0.5, 1.2)):
            lam, other = spin_equilibrium(q, beta).populations
            lhs = (lam / other) ** (q - 1.0)
            x = (q - 1.0) * beta
            assert lhs == pytest.approx((1 + x) / (1 - x), rel=1e-9)

    def test_gibbs_limit(self):
        res = spin_equilibrium(1.0, 0.5)
        lam = res.populations[0]
        assert lam == pytest.approx(np.exp(0.5) / (np.exp(0.5) + np.exp(-0.5)), abs=1e-12)
        for eps in (1e-6, -1e-6):
            near = spin_equilibrium(1.0 + eps, 0.5)
            assert near.populations[0] == pytest.approx(lam, abs=1e-6)

    def test_boundary_adjacent(self):
        lam, other = spin_equilibrium(2.0, 0.999).populations
        assert lam / other == pytest.approx(1999.0, rel=1e-9)
        assert lam == pytest.approx(0.9995, abs=1e-9)

    def test_curvature_next_to_the_domain_edge(self):
        # |x| = 0.99999 < 1 puts lam within 5e-6 of 1; at q = 2 the
        # curvature is 4 T exactly
        res = spin_equilibrium(2.0, 0.99999)
        assert res.populations[0] == pytest.approx(0.999995, abs=1e-9)
        assert np.sum(res.hessian) == pytest.approx(4.0 / 0.99999, rel=1e-12)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.947])
    def test_q_below_one_next_to_the_domain_edge(self, q):
        # |q-1| beta mu = 1 - 1e-15: the energy term q p^(q-1) E of the
        # excited population reaches about 1e15, so round-off alone spreads
        # dF/dp_i by 0.025-0.45; the spread is bounded relative to that term
        res = spin_equilibrium(q, (1.0 - 1e-15) / abs(q - 1.0))
        scale = np.max(np.abs(q * res.populations ** (q - 1.0)))
        assert np.ptp(res.gradient) <= 1e-14 * scale
        assert res.populations[0] == pytest.approx(1.0, abs=1e-15)
        assert np.all(res.hessian > 0)

    def test_out_of_domain(self):
        # at d = 2, 1 + (q-1) beta E_0 = 1 - |q-1| beta mu
        message = "1 + (q-1)*beta*E = {} <= 0; no q-equilibrium"
        with pytest.raises(DomainError, match=re.escape(message.format(0))):
            spin_equilibrium(2.0, 1.0)
        with pytest.raises(DomainError, match=re.escape(message.format(-0.2))):
            spin_equilibrium(3.0, 0.6)

    def test_stationarity_and_stability_on_grid(self):
        for q in (0.5, 0.8, 1.2, 1.5, 2.0, 3.0):
            for c in (0.2, 0.5, 0.8):
                res = spin_equilibrium(q, c / abs(q - 1.0))
                assert np.ptp(res.gradient) < 1e-8
                assert np.sum(res.hessian) > 0
                assert 0.5 < res.populations[0] < 1.0

    def test_equilibrium_state_matrix(self):
        res = spin_equilibrium(2.0, 0.5)
        state = bloch_state(lam=res.populations[0], phi=0.0, psi=0.0)
        assert np.allclose(state.matrix, np.diag([0.75, 0.25]), atol=1e-10)


class TestStability:
    def test_hessian_positive_at_equilibrium(self):
        assert np.all(spin_equilibrium(2.0, 0.5).hessian > 0)

    def test_entropy_dominated_limit(self):
        # beta -> 0: minimum moves to lam = 1/2 and stays a minimum
        res = spin_equilibrium(2.0, 1e-6)
        assert res.populations[0] == pytest.approx(0.5, abs=1e-5)
        assert np.sum(res.hessian) > 0

    @staticmethod
    def central_difference(p, lam, h=1e-5):
        return (spin_free_energy(lam + h, p) - spin_free_energy(lam - h, p)) / (2 * h)

    def test_off_equilibrium_gradient_nonzero(self):
        p = ThermoParams(q=2.0, beta=0.5)
        assert abs(self.central_difference(p, 0.99)) > 1e-3

    @staticmethod
    def params_for(lam, q):
        """ThermoParams whose spin equilibrium is lam: (lam/(1-lam))**(q-1) =
        (1+x)/(1-x) gives x = (q-1) beta = tanh((q-1) L/2), L = ln(lam/(1-lam))."""
        half_log = 0.5 * np.log(lam / (1.0 - lam))
        beta = half_log if q == 1.0 else np.tanh((q - 1.0) * half_log) / (q - 1.0)
        return ThermoParams(q=q, beta=beta)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
    def test_gradient_matches_central_difference(self, q):
        # dF/dlam = g_0 - g_1, which vanishes at the equilibrium; central
        # differences of F on diagonal states find the same zero
        for lam in (0.55, 0.75, 0.9):
            p = self.params_for(lam, q)
            res = q_equilibrium(-SIGMA_Z, p)
            assert res.populations[0] == pytest.approx(lam, abs=1e-12)
            analytic = res.gradient[0] - res.gradient[1]
            assert self.central_difference(p, res.populations[0]) == pytest.approx(analytic, abs=1e-8)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
    def test_closed_form_curvature_matches_central_difference(self, q):
        # d^2F/dlam^2 = H_00 + H_11
        h = 1e-4
        for lam in (0.55, 0.75, 0.9):
            p = self.params_for(lam, q)
            res = q_equilibrium(-SIGMA_Z, p)
            fd = (spin_free_energy(lam + h, p) - 2 * spin_free_energy(lam, p)
                  + spin_free_energy(lam - h, p)) / h**2
            assert np.sum(res.hessian) == pytest.approx(fd, rel=1e-5)

    def test_dynamic_stability_of_perturbed_equilibrium(self):
        # tilt the equilibrium by phi = 0.1 and confirm the orbit stays
        # within twice the initial trace distance
        p = ThermoParams(q=2.0, beta=0.5)
        lam = q_equilibrium(-SIGMA_Z, p).populations[0]
        equilibrium = bloch_state(lam=lam, phi=0.0, psi=0.0)
        perturbed = bloch_state(lam=lam, phi=0.1, psi=0.0)
        d0 = trace_distance(perturbed, equilibrium)
        cfg = IntegratorConfig(dt=1e-3, t_final=20.0, record_every=100)
        traj = evolve(perturbed, -SIGMA_Z, PowerLaw(q=p.q), cfg)
        worst = max(trace_distance(s, equilibrium) for s in traj.states)
        assert worst <= 2.0 * d0


class TestQEquilibrium:
    """The q-equilibrium of a random 5x5 H at q = 2, beta = 0.8, inside the
    domain since |E_i| <= 1 < 1/((q-1) beta)."""

    @staticmethod
    def random_case(rng):
        h = random_hermitian(5, rng, spectral_norm=1.0)
        p = ThermoParams(q=2.0, beta=0.8)
        return h, np.linalg.eigh(h)[1], p, q_equilibrium(h, p)

    @staticmethod
    def f_at(pops, v, h, p):
        """F = U_q - T S_q at the state with populations pops in the eigenbasis v of H."""
        rho = validate_density((v * pops) @ v.conj().T)
        return hamiltonian_function(rho, h, PowerLaw(p.q)) - p.temperature * tsallis_entropy(rho.eigenvalues, p.q)

    def test_stationary_with_positive_hessian(self, rng):
        h, v, p, res = self.random_case(rng)
        assert np.ptp(res.gradient) <= 1e-12
        assert np.all(res.hessian > 0)
        assert np.sum(res.populations) == pytest.approx(1.0, abs=1e-15)
        assert res.free_energy == pytest.approx(self.f_at(res.populations, v, h, p), abs=1e-12)

    def test_minimum_against_perturbed_diagonal_states(self, rng):
        # F(p + eps d) - F(p) is the second variation eps^2/2 sum H_ii d_i^2
        # (the gradient term vanishes on the simplex), and positive
        h, v, p, res = self.random_case(rng)
        for _ in range(20):
            d = rng.normal(size=5)
            d -= d.mean()
            for eps in (1e-2, 1e-3):
                step = eps * d / np.max(np.abs(d)) * np.min(res.populations) / 2
                rise = self.f_at(res.populations + step, v, h, p) - res.free_energy
                assert rise > 0
                assert rise == pytest.approx(0.5 * np.sum(res.hessian * step**2), rel=0.05)

    def test_populations_commute_with_h(self, rng):
        h, v, p, res = self.random_case(rng)
        rho = (v * res.populations) @ v.conj().T
        assert np.max(np.abs(rho @ h - h @ rho)) < 1e-14
        # ascending energy, so descending populations at q = 2
        assert np.all(np.diff(res.populations) < 0)
