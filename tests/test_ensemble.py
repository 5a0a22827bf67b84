import dataclasses
import tracemalloc

import numpy as np
import pytest

from nvne.deformation import PowerLaw
from nvne.dynamics import IntegratorConfig, evolve, invariant_report, larmor_frequency
from nvne.ensemble import (
    EnsembleSpec,
    _larmor_rates,
    dephasing_analytic,
    ensemble_average,
    evolve_node,
    gauss_legendre,
    sin_psi_half_weight,
    tilted_weight,
)
from nvne.errors import DomainError, NumericalFailure
from nvne.hermitian import SIGMA_X, SIGMA_Z, bloch_state

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def make_spec(weight=sin_psi_half_weight, q=3.0, n=16, mu=1.0):
    return EnsembleSpec(weight=weight, f=PowerLaw(q=q), h=-mu * SIGMA_Z,
                        n_lam=n, n_phi=n, n_psi=n)


def analytic_transverse(t, f, mu, n_lam, lam_density):
    """(cx, cy) of dephasing_analytic = 1/2 + cx sigma_x + cy sigma_y."""
    rho_01 = dephasing_analytic(t, f, mu, n_lam=n_lam, lam_density=lam_density).matrix[0, 1]
    return rho_01.real, -rho_01.imag


def product_grid(spec):
    """(lam, phi, psi, node weight) over the whole product rule of spec,
    built from its 1-D rules."""
    (lam, wl), (phi, wp), (psi, ws) = spec.rules()
    big_l, big_p, big_s = np.meshgrid(lam, phi, psi, indexing="ij")
    w = spec.weight(big_l, big_p, big_s) * np.sin(big_p) * wl[:, None, None] * wp[:, None] * ws
    return big_l, big_p, big_s, w


def direct_node_sum(spec, t):
    """Closed-form average as a sum over every (lam, phi, psi) node at time t."""
    lam, phi, psi, w = product_grid(spec)
    psi_t = psi - 2.0 * spec.mu * spec.f.divided_difference(lam, 1.0 - lam) * t
    c = 0.5 * (2.0 * lam - 1.0)
    coeff_z = np.sum(w * c * np.cos(phi))
    coeff_x = -np.sum(w * c * np.sin(phi) * np.cos(psi_t))
    coeff_y = -np.sum(w * c * np.sin(phi) * np.sin(psi_t))
    return (0.5 * np.sum(w) * IDENTITY_2 + coeff_x * SIGMA_X + coeff_y * SIGMA_Y
            + coeff_z * SIGMA_Z)


class TestEnsembleSpec:
    def test_sin_psi_half_weight_normalized(self):
        assert float(np.sum(product_grid(make_spec())[3])) == pytest.approx(1.0, abs=1e-10)

    def test_tilted_weight_normalized(self):
        assert float(np.sum(product_grid(make_spec(weight=tilted_weight))[3])) == pytest.approx(1.0, abs=1e-10)

    def test_unnormalized_weight_rejected(self):
        with pytest.raises(DomainError):
            make_spec(weight=lambda lam, phi, psi: 0.3 * sin_psi_half_weight(lam, phi, psi))

    def test_nan_weight_rejected(self):
        # NaN is not greater than any tolerance, so the check must not ask that
        with pytest.raises(DomainError, match="normalizes to nan"):
            make_spec(weight=lambda lam, phi, psi: np.full(np.shape(lam), np.nan))

    def test_closed_form_never_allocates_the_product_grid(self):
        # one 128^3 float array alone is 16 MiB
        tracemalloc.start()
        try:
            spec = make_spec(weight=tilted_weight, n=128)
            ensemble_average(spec, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_integrated_average_never_allocates_the_product_grid(self):
        # 4,096 nodes in a tilted field; the product grid's four float arrays
        # alone are 32 bytes per node, the slices here 16 floats each, and the
        # Python objects of the call, which do not grow with the grid, about
        # 13 KiB measured
        sizes = (256, 4, 4)
        (_, wl), (phi, wp), (_, ws) = (gauss_legendre(n, 0.0, b) for n, b in zip(sizes, (1.0, np.pi, 2.0 * np.pi)))
        scale = 1.0 / (np.sum(wl) * np.sum(np.sin(phi) * wp) * np.sum(ws))
        spec = EnsembleSpec(weight=lambda lam, phi, psi: np.full(np.shape(lam), scale), f=PowerLaw(q=3.0),
                            h=-SIGMA_X, n_lam=sizes[0], n_phi=sizes[1], n_psi=sizes[2])
        tracemalloc.start()
        try:
            ensemble_average(spec, 0.0, IntegratorConfig(dt=0.1, t_final=0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 256 * 4 * 4

    @pytest.mark.parametrize("sizes", [(0, 8, 8), (8, 2.5, 8), (8, 8, -1), (True, 8, 8), (8, 8, "8")],
                             ids=["zero", "fraction", "negative", "bool", "string"])
    def test_sizes_must_be_positive_integers(self, sizes):
        with pytest.raises(DomainError, match="must be an integer at least 1"):
            EnsembleSpec(weight=tilted_weight, f=PowerLaw(q=3.0), h=-SIGMA_Z,
                         **dict(zip(("n_lam", "n_phi", "n_psi"), sizes)))

    def test_budget_counts_the_grids_peak(self):
        # 282^3 nodes keep 0.67 GiB of grids but peak past 1 GiB while built
        with pytest.raises(DomainError, match="budget of the grids"):
            make_spec(n=282)

    def test_gauss_legendre_exactness(self):
        # degree-5 polynomial integrated exactly by 3 nodes
        x, w = gauss_legendre(3, 0.0, 1.0)
        assert np.sum(w * x**5) == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_gauss_legendre_rule_is_read_only(self):
        x, w = gauss_legendre(5, 0.0, 1.0)
        assert gauss_legendre(5, 0.0, 1.0)[0] is x
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_larmor_rates_are_cached_read_only(self):
        f = PowerLaw(q=3.0)
        omega = _larmor_rates(64, f, 1.0)
        assert _larmor_rates(64, PowerLaw(q=3.0), 1.0) is omega
        assert np.array_equal(omega, larmor_frequency(gauss_legendre(64, 0.0, 1.0)[0], f, 1.0))
        with pytest.raises(ValueError):
            omega[0] = 0.0

    def test_non_hermitian_field_rejected(self):
        # its h[0, 1] is 0 and its trace 0, the closed-form test's only checks
        with pytest.raises(DomainError, match=r"ensemble H deviates from Hermiticity by 5\.000e\+00"):
            EnsembleSpec(weight=tilted_weight, f=PowerLaw(q=3.0),
                         h=np.array([[-1.0, 0.0], [5.0, 1.0]]), n_lam=8, n_phi=8, n_psi=8)

    def test_mu_extraction(self):
        assert make_spec(mu=1.7).mu == pytest.approx(1.7)
        tilted = EnsembleSpec(weight=tilted_weight, f=PowerLaw(q=3.0), h=-(SIGMA_Z + SIGMA_X),
                              n_lam=8, n_phi=8, n_psi=8)
        assert tilted.mu is None
        with pytest.raises(DomainError, match=r"closed-form node evolution needs H = -mu\*sigma_z"):
            evolve_node(tilted, 0.7, 1.0, 0.5, 1.0)

    def test_rule_past_the_budget_is_never_built(self, monkeypatch):
        # leggauss would build a 20000 x 20000 companion matrix (3.2 GB)
        def fail(n):
            raise AssertionError(f"a {n}-point rule was built")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", fail)
        with pytest.raises(DomainError, match="past the bound of 11585 points"):
            EnsembleSpec(weight=tilted_weight, f=PowerLaw(q=3.0), h=-SIGMA_Z, n_lam=20000, n_phi=1, n_psi=1)
        with pytest.raises(DomainError, match="past the bound of 11585 points"):
            dephasing_analytic(1.0, PowerLaw(q=3.0), 1.0, n_lam=20000)

    @pytest.mark.parametrize("n", [2.5, 0, -3, True, 2.0], ids=["fraction", "zero", "negative", "bool", "float"])
    def test_rule_size_must_be_a_positive_integer(self, n):
        # 2.5 built a 2-point rule, 0 and -3 ended in numpy's ValueError, and
        # True and 2.0 read the cached rules of 1 and 2
        gauss_legendre(1, 0.0, 1.0), gauss_legendre(2, 0.0, 1.0)
        with pytest.raises(DomainError, match="rule must be an integer at least 1"):
            gauss_legendre(n, 0.0, 1.0)

    def test_analytic_rule_size_must_be_an_integer(self):
        # n_lam = 20.5 quietly used 20 points
        with pytest.raises(DomainError, match="rule must be an integer at least 1, got 20.5"):
            dephasing_analytic(1.0, PowerLaw(q=3.0), 1.0, n_lam=20.5)


class TestQuadratureAgainstAnalytic:
    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0, 20.0])
    def test_sin_psi_half_weight_matches_lam_integral(self, t):
        spec = make_spec(n=32)
        avg = ensemble_average(spec, t)
        ana = dephasing_analytic(t, spec.f, 1.0, n_lam=64)
        assert np.max(np.abs(avg.matrix - ana.matrix)) < 1e-5

    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0, 20.0])
    def test_tilted_weight_matches_lam_integral(self, t):
        # the asymmetric weight has a nonzero transverse signal, so this
        # cross-check pins the sign conventions of the analytic formula
        spec = make_spec(weight=tilted_weight, n=32)
        avg = ensemble_average(spec, t)
        ana = dephasing_analytic(t, spec.f, 1.0, n_lam=64, lam_density=lambda lam: 2 * lam)
        assert np.max(np.abs(avg.matrix - ana.matrix)) < 1e-5

    def test_sin_psi_half_weight_t0_is_maximally_mixed(self):
        avg = ensemble_average(make_spec(n=32), 0.0)
        assert np.max(np.abs(avg.matrix - 0.5 * np.eye(2))) < 1e-6

    def test_sin_psi_half_weight_average_is_maximally_mixed_at_all_times(self):
        # the lam integrand is odd about 1/2 while omega(lam) is even, so
        # the transverse components cancel identically for every t
        spec = make_spec(n=32)
        for t in (0.0, 2.5, 7.0, 50.0, 200.0):
            avg = ensemble_average(spec, t)
            assert np.max(np.abs(avg.matrix - 0.5 * np.eye(2))) < 1e-12

    def test_q1_off_diagonal_magnitude_constant(self):
        spec = make_spec(weight=tilted_weight, q=1.0, n=24)
        mags = [abs(ensemble_average(spec, t).matrix[0, 1]) for t in (0.0, 3.0, 11.0)]
        assert np.max(np.abs(np.array(mags) - mags[0])) < 1e-8

    def test_q2_off_diagonal_magnitude_constant(self):
        # lam^2-(1-lam)^2 = 2 lam - 1 makes omega constant: no dephasing
        spec = make_spec(weight=tilted_weight, q=2.0, n=24)
        mags = [abs(ensemble_average(spec, t).matrix[0, 1]) for t in (0.0, 3.0, 11.0)]
        assert np.max(np.abs(np.array(mags) - mags[0])) < 1e-8

    def test_q3_tilted_weight_dephases(self):
        spec = make_spec(weight=tilted_weight, q=3.0, n=32)
        m0 = abs(ensemble_average(spec, 0.0).matrix[0, 1])
        m50 = abs(ensemble_average(spec, 50.0).matrix[0, 1])
        assert m0 > 0.04
        assert m50 < 0.5 * m0

    def test_riemann_lebesgue_decay_tilted(self):
        # late-time value from the analytic integral with enough nodes to
        # resolve the oscillation; decays well below the early-time peak
        f = PowerLaw(q=3.0)
        early = max(
            abs(analytic_transverse(t, f, 1.0, 256, lambda lam: 2 * lam)[0])
            + abs(analytic_transverse(t, f, 1.0, 256, lambda lam: 2 * lam)[1])
            for t in np.linspace(0.0, 20.0, 81)
        )
        late_cx, late_cy = analytic_transverse(200.0, f, 1.0, 1024, lambda lam: 2 * lam)
        assert abs(late_cx) + abs(late_cy) < 0.1 * early


class TestClosedFormMoments:
    @pytest.mark.parametrize("weight", [sin_psi_half_weight, tilted_weight])
    def test_matches_direct_node_sum(self, weight):
        spec = make_spec(weight=weight, n=32)
        for t in (0.0, 0.7, 40.0):
            avg = ensemble_average(spec, t)
            assert np.max(np.abs(avg.matrix - direct_node_sum(spec, t))) < 1e-14

    @pytest.mark.parametrize("n_lam, n_phi, n_psi", [(12, 20, 28), (33, 7, 16)])
    @pytest.mark.parametrize("weight", [sin_psi_half_weight, tilted_weight])
    def test_non_cubic_grid_matches_direct_node_sum(self, weight, n_lam, n_phi, n_psi):
        # unequal axes, so that a slice taken along the wrong axis shows
        spec = EnsembleSpec(weight=weight, f=PowerLaw(q=3.0), h=-SIGMA_Z,
                            n_lam=n_lam, n_phi=n_phi, n_psi=n_psi)
        total = np.sum(product_grid(spec)[3])
        assert abs(spec.moments[0] - total) < 1e-15
        for t in (0.0, 0.7, 40.0):
            # at 7 phi nodes the weights sum to 1 - 9e-13; the average has unit trace
            avg = ensemble_average(spec, t)
            assert np.max(np.abs(avg.matrix - direct_node_sum(spec, t) / total)) < 1e-14

    def test_replaced_spec_has_its_own_moments(self):
        spec = make_spec(weight=tilted_weight, q=3.0)
        first = ensemble_average(spec, 5.0).matrix
        other = dataclasses.replace(spec, f=PowerLaw(q=2.5))
        second = ensemble_average(other, 5.0).matrix
        assert np.max(np.abs(first - second)) > 1e-3
        assert np.max(np.abs(second - direct_node_sum(other, 5.0))) < 1e-14
        assert np.array_equal(ensemble_average(spec, 5.0).matrix, first)


class TestNodes:
    def test_closed_form_matches_integrator(self):
        # midpoint phase error grows like dt^2 * t, so the 1e-8 cross-check
        # tolerance corresponds to horizons of a few time units at dt=1e-3
        spec = make_spec(n=16)
        cfg = IntegratorConfig(dt=2.5e-4, t_final=2.0, record_every=10**9)
        for lam, phi, psi in [(0.7, 1.1, 0.4), (0.55, 2.0, 3.9), (0.95, 0.6, 5.1)]:
            rho0 = bloch_state(lam=lam, phi=phi, psi=psi)
            traj = evolve(rho0, spec.h, spec.f, cfg)
            closed = evolve_node(spec, lam, phi, psi, traj.times[-1])
            assert np.max(np.abs(traj.states[-1].matrix - closed.matrix)) < 1e-8

    def test_node_isospectrality_under_integration(self):
        spec = make_spec(n=16)
        cfg = IntegratorConfig(dt=1e-3, t_final=5.0, record_every=500)
        traj = evolve(bloch_state(lam=0.8, phi=1.3, psi=0.2), spec.h, spec.f, cfg)
        assert invariant_report(traj)["eigenvalue_drift"] < 1e-9

    def test_linearity_of_averaging(self):
        # two-point mixture average equals the weighted sum of the
        # individually evolved states
        spec = make_spec(n=16)
        t = 3.0
        w1, w2 = 0.3, 0.7
        node1 = evolve_node(spec, 0.7, 1.0, 0.5, t)
        node2 = evolve_node(spec, 0.9, 2.0, 1.5, t)
        mixture = w1 * node1.matrix + w2 * node2.matrix
        direct = w1 * evolve_node(spec, 0.7, 1.0, 0.5, t).matrix \
            + w2 * evolve_node(spec, 0.9, 2.0, 1.5, t).matrix
        assert np.array_equal(mixture, direct)

    def test_purity_of_average_non_increasing_tilted(self):
        spec = make_spec(weight=tilted_weight, q=3.0, n=32)
        purities = [ensemble_average(spec, t).purity() for t in (0.0, 5.0, 10.0, 20.0, 50.0)]
        for earlier, later in zip(purities, purities[1:]):
            assert later <= earlier + 1e-4

    def test_purity_constant_for_sin_psi_half_weight(self):
        spec = make_spec(n=32)
        purities = [ensemble_average(spec, t).purity() for t in (0.0, 5.0, 50.0)]
        assert np.allclose(purities, 0.5, atol=1e-10)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_or_negative_time(self, t):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            ensemble_average(make_spec(n=8), t)

    @pytest.mark.parametrize("t, mu", [(1e308, 1.0), (0.0, 1e308)], ids=["late-t", "infinite-omega"])
    def test_non_finite_phase_raises_numerical_failure(self, t, mu):
        # omega t overflows, or omega is infinite at t = 0: no numpy warning
        # (an error under this suite's filter) and no NaN state
        with pytest.raises(NumericalFailure, match=r"phase omega\*t is not finite"):
            ensemble_average(make_spec(n=8, mu=mu), t)
        with pytest.raises(NumericalFailure, match=r"phase omega\*t is not finite"):
            dephasing_analytic(t, PowerLaw(q=3.0), mu)


class TestIntegratorFallback:
    def test_non_spin_z_field_requires_config(self):
        spec = EnsembleSpec(weight=sin_psi_half_weight, f=PowerLaw(q=2.0), h=-SIGMA_X,
                            n_lam=8, n_phi=8, n_psi=8)
        with pytest.raises(DomainError):
            ensemble_average(spec, 1.0)

    def test_integrated_path_matches_closed_form(self):
        # run the integrator fallback on a spin-z spec and compare with the
        # closed-form node evolution used on the fast path
        from nvne.ensemble import _ensemble_average_integrated

        spec = EnsembleSpec(weight=tilted_weight, f=PowerLaw(q=3.0), h=-SIGMA_Z,
                            n_lam=6, n_phi=6, n_psi=6)
        cfg = IntegratorConfig(dt=1e-2, t_final=1.0)
        t = 1.0
        direct = ensemble_average(spec, t)
        integrated = _ensemble_average_integrated(spec, t, cfg)
        assert np.max(np.abs(direct.matrix - integrated.matrix)) < 1e-5


    def test_integrated_path_takes_one_eigendecomposition(self, monkeypatch):
        # the 2x6x6 tilted grid of the benchmark's probe: the nodes are built
        # in closed form and their runs never read an invariant log, so the
        # only eigensolver call is the validation of the summed average
        spec = EnsembleSpec(weight=tilted_weight, f=PowerLaw(q=3.0), h=-(0.8 * SIGMA_Z + 0.6 * SIGMA_X),
                            n_lam=2, n_phi=6, n_psi=6)
        calls = []

        def counted(solver):
            def call(*args, **kwargs):
                calls.append(solver.__name__)
                return solver(*args, **kwargs)
            return call

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        ensemble_average(spec, 0.1, IntegratorConfig(dt=0.05, t_final=0.1))
        assert len(calls) <= 1, calls

    def test_integrated_path_ends_at_requested_time(self):
        # dt does not divide t: the run takes ceil(t/dt) steps of size t/n
        # and must still end at t, not at ceil(t/dt)*dt = 1.2
        from nvne.ensemble import _ensemble_average_integrated

        spec = EnsembleSpec(weight=tilted_weight, f=PowerLaw(q=3.0), h=-SIGMA_Z,
                            n_lam=6, n_phi=6, n_psi=6)
        cfg = IntegratorConfig(dt=0.3, t_final=1.0)
        integrated = _ensemble_average_integrated(spec, 1.0, cfg)
        assert np.max(np.abs(ensemble_average(spec, 1.0).matrix - integrated.matrix)) < 1e-3


class TestAnalyticFormula:
    def test_t0_exactly_mixed_for_symmetric_density(self):
        ana = dephasing_analytic(0.0, PowerLaw(q=3.0), 1.0, n_lam=64)
        assert np.max(np.abs(ana.matrix - 0.5 * np.eye(2))) < 1e-15

    def test_needs_enough_nodes(self):
        with pytest.raises(DomainError):
            dephasing_analytic(1.0, PowerLaw(q=3.0), 1.0, n_lam=8)

    def test_omega_limit_at_half(self):
        # divided-difference limit at lam = 1/2: omega = 2 mu f'(1/2)
        f = PowerLaw(q=3.0)
        assert 2.0 * f.divided_difference(0.5, 0.5) == pytest.approx(2 * 3 * 0.25)

    def test_sigma_x_coefficient_oracle_t0(self):
        # int 2*lam*(2*lam-1) dlam = 1/3 so cx = pi/72 for the tilted density
        cx, cy = analytic_transverse(0.0, PowerLaw(q=3.0), 1.0, 64, lambda lam: 2 * lam)
        assert cx == pytest.approx(np.pi / 72.0, abs=1e-12)
        assert cy == pytest.approx(0.0, abs=1e-14)
        # and so does the quadrature average of the tilted weight
        avg = ensemble_average(make_spec(weight=tilted_weight, n=32), 0.0)
        assert abs(avg.matrix[0, 1]) == pytest.approx(np.pi / 72.0, rel=1e-6)
