import inspect

import numpy as np
import pytest

import nvne.dynamics
from nvne.composite import CompositeSystem, evolve_composite
from nvne.deformation import PowerLaw
from nvne.dynamics import (
    MAX_SQUARINGS,
    RECORD_BLOCK_BYTES,
    RECORD_BUDGET_BYTES,
    TAYLOR,
    IntegratorConfig,
    _advance,
    _blocks,
    _expm1,
    _record,
    _step_spectral,
    evolve,
    invariant_report,
    larmor_frequency,
    precession_frequency,
    record_count,
    spin_z_mu,
)
from nvne.errors import DomainError, NumericalFailure
from nvne.hermitian import (
    SIGMA_Z,
    bloch_state,
    hermiticity_defect,
    pure_state,
    random_density_matrix,
    random_hermitian,
    trace_distance,
    validate_density,
)
from nvne.structure import (
    _divided_difference_transform,
    _trace_functional,
    hamiltonian_function,
)

from oracles import density_from_spectrum

# theta_m of the Taylor exponential, by degree m
THETA = {m: theta for m, (theta, _) in TAYLOR.items()}


def eigh_propagator(v, h, kernel, tau):
    """exp(-i G tau) with G the generator at the eigenvectors v, from an
    eigh of G in the lab frame."""
    gw, gu = np.linalg.eigh(_divided_difference_transform(v, h, kernel))
    return (gu * np.exp(-1j * gw * tau)) @ gu.conj().T


def one_stage_step(v, h, kernel, dt):
    """exp(-i G dt) V with G taken at V itself: the one-stage (Euler)
    rule, exact when G is the same at every state."""
    return eigh_propagator(v, h, kernel, dt) @ v


def eigh_midpoint_step(v, h, kernel, dt):
    """The midpoint step with both exponentials from eigh of the lab-frame
    generator: the former d >= 3 step, the oracle for _step_spectral."""
    return eigh_propagator(eigh_propagator(v, h, kernel, dt / 2) @ v, h, kernel, dt) @ v


def spectral_step(v, h, kernel, dt):
    """_step_spectral with the kernel scaled once, as _advance scales it."""
    return _step_spectral(v, h, -0.5j * dt * kernel, -1j * dt * kernel)


def advance_with(step):
    """_advance with the given step rule at every dimension: the stack of
    the eigenvectors at the record points, row 0 = v."""
    def advance(v, h, kernel, dt, n, every):
        vs = [v]
        for k in range(1, n + 1):
            v = step(v, h, kernel, dt)
            if k % every == 0 or k == n:
                vs.append(v)
        return np.array(vs)

    return advance


# a step stream that is not the integrator's, for the parts of evolve that
# do not depend on the rule
one_stage_steps = advance_with(one_stage_step)


def per_state_evolve(rho0, h, f, cfg, advance=_advance):
    """The integrator with one density_from_spectrum, eigvalsh and energy
    call per recorded state: the oracle for the recorded stack and the
    block pass of evolve. It steps through the same seam as evolve."""
    w = rho0.eigenvalues
    kernel = f.divided_difference(w[:, None], w[None, :])
    vs = advance(rho0.eigenvectors, h, kernel, cfg.dt, cfg.n_steps, cfg.record_every)
    steps = [k for k in range(1, cfg.n_steps + 1)
             if k % cfg.record_every == 0 or k == cfg.n_steps]
    assert vs.shape == (1 + len(steps), rho0.dim, rho0.dim)
    assert np.array_equal(vs[0], rho0.eigenvectors)
    times = [0.0] + [k * cfg.dt for k in steps]
    states = [rho0] + [density_from_spectrum(w, v) for v in vs[1:]]
    log = {key: [] for key in ("eigenvalues", "Hq", "hermiticity", "C1", "C2", "C3", "C4", "C5")}
    for s in states:
        ev = np.sort(np.linalg.eigvalsh(s.matrix))
        log["eigenvalues"].append(ev)
        for n in range(1, 6):
            log[f"C{n}"].append(float(np.sum(ev**n)))
        log["Hq"].append(hamiltonian_function(s, h, f))
        log["hermiticity"].append(hermiticity_defect(s.matrix))
    return np.asarray(times), states, {key: np.asarray(x) for key, x in log.items()}


def direct_sum_oracle(dim, f, rng):
    """A rotated direct sum of dim/2 qubits and its exact flow under f:
    rho = W (+)_k rho_k W^H and H = W (+)_k H_k W^H, with a Haar-random
    unitary W, weighted random 2x2 states rho_k and 2x2 fields H_k. The flow is
    covariant under W and f keeps the blocks apart, and on a 2x2 block
    [H_k, f(rho_k)] = beta_k [H_k, rho_k] with beta_k = f[l_k0, l_k1], the
    divided difference at its eigenvalues. So each block evolves exactly as
    exp(-i beta_k H_k t) rho_k exp(i beta_k H_k t). Returns (rho, H, exact),
    exact(t) the matrix at time t.

    What it cannot see: a kernel entry across two blocks multiplies a zero
    entry of V^H H V, so errors in those entries leave the flow unchanged.
    """
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w, r = np.linalg.qr(z)
    w = w * (np.diag(r) / np.abs(np.diag(r)))
    rhos = [p * random_density_matrix(2, rng).matrix for p in rng.dirichlet(np.ones(dim // 2))]
    hs = [random_hermitian(2, rng, spectral_norm=1.0) for _ in rhos]
    betas = [f.divided_difference(*np.linalg.eigvalsh(r)) for r in rhos]

    def rotated(blocks):
        m = np.zeros((dim, dim), dtype=complex)
        for k, b in enumerate(blocks):
            m[2 * k:2 * k + 2, 2 * k:2 * k + 2] = b
        return w @ m @ w.conj().T

    def exact(t):
        us = []
        for beta, h in zip(betas, hs):
            e, v = np.linalg.eigh(h)
            us.append((v * np.exp(-1j * beta * e * t)) @ v.conj().T)
        return rotated([u @ r @ u.conj().T for u, r in zip(us, rhos)])

    return validate_density(rotated(rhos)), rotated(hs), exact


def one_step(rho, h, f, dt):
    """One integrator step of size dt."""
    return evolve(rho, h, f, IntegratorConfig(dt=dt, t_final=dt)).states[-1]


def seeded_problem(dim, pure, seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(dim, rng, spectral_norm=1.0)
    if pure:
        return pure_state(rng.normal(size=dim) + 1j * rng.normal(size=dim)), h
    return random_density_matrix(dim, rng), h


class TestIntegratorConfig:
    def test_rejects_bad_dt(self):
        with pytest.raises(DomainError):
            IntegratorConfig(dt=0.0, t_final=1.0)

    def test_rejects_dt_beyond_t_final(self):
        with pytest.raises(DomainError):
            IntegratorConfig(dt=2.0, t_final=1.0)

    @pytest.mark.parametrize("dt, t_final", [(float("nan"), 1.0), (1e-3, float("inf"))])
    def test_rejects_non_finite(self, dt, t_final):
        with pytest.raises(DomainError, match="finite"):
            IntegratorConfig(dt=dt, t_final=t_final)

    @pytest.mark.parametrize("record_every", [2.5, 2.0, "2"])
    def test_rejects_non_integer_record_every(self, record_every):
        with pytest.raises(DomainError, match="record_every must be an integer"):
            IntegratorConfig(dt=1e-2, t_final=0.1, record_every=record_every)

    @pytest.mark.parametrize("kwargs", [{"dt": 1e-300}, {"dt": np.float64(5e-324)}, {"record_every": 10**30}],
                             ids=["dt", "dt-steps-overflow", "record_every"])
    def test_rejects_counts_past_an_index(self, kwargs):
        with pytest.raises(DomainError, match="fit an index"):
            IntegratorConfig(**{"t_final": 10.0, **kwargs})

    def test_step_count(self):
        assert IntegratorConfig(dt=1e-3, t_final=10.0).n_steps == 10000

    @pytest.mark.parametrize("dim", [2, 3])
    def test_advance_refuses_stacks_past_the_budget(self, rng, dim):
        # n steps recorded at each give n + 1 states, one more than the budget
        # holds: refused before any step or allocation
        n = RECORD_BUDGET_BYTES // (32 * dim * dim)
        assert record_count(n - 1, 1, dim) == n
        rho = random_density_matrix(dim, rng)
        with pytest.raises(DomainError, match="past the 1 GiB budget"):
            _advance(rho.eigenvectors, random_hermitian(dim, rng), np.ones((dim, dim)), 1e-3, n, 1)


class TestStep:
    def test_commuting_state_is_fixed(self, rng):
        rho = validate_density(np.diag([0.7, 0.3]).astype(complex))
        out = one_step(rho, -SIGMA_Z, PowerLaw(q=2.0), 1e-2)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_maximally_mixed_fixed(self, rng):
        rho = validate_density(np.eye(3, dtype=complex) / 3)
        h = random_hermitian(3, rng)
        out = one_step(rho, h, PowerLaw(q=2.0), 1e-2)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-13)

    def test_pure_state_matches_linear_step(self, rng):
        rho = bloch_state(lam=1.0, phi=np.pi / 3, psi=0.2)
        dt = 1e-3
        out_q = one_step(rho, -SIGMA_Z, PowerLaw(q=2.0), dt)
        out_1 = one_step(rho, -SIGMA_Z, PowerLaw(q=1.0), dt)
        assert np.max(np.abs(out_q.matrix - out_1.matrix)) < 1e-9  # O(dt^3)

    def test_azimuth_advances_by_omega_dt(self):
        lam, dt = 0.75, 1e-3
        rho = bloch_state(lam=lam, phi=np.pi / 2, psi=0.0)
        out = one_step(rho, -SIGMA_Z, PowerLaw(q=2.0), dt)
        # rho_01 = -(2 lam - 1)/2 sin(phi) e^{-i psi}; psi -> psi - omega dt,
        # so arg(rho_01) advances by +omega dt (ratio avoids the branch cut)
        dphase = np.angle(out.matrix[0, 1] / rho.matrix[0, 1])
        omega = larmor_frequency(lam, PowerLaw(q=2.0), 1.0)
        assert omega == pytest.approx(2.0)
        assert dphase == pytest.approx(omega * dt, rel=1e-9)

    def test_spectrum_preserved_per_step(self, rng):
        rho = random_density_matrix(4, rng)
        h = random_hermitian(4, rng)
        out = one_step(rho, h, PowerLaw(q=2.5), 1e-2)
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(out.matrix)),
            np.sort(np.linalg.eigvalsh(rho.matrix)),
            atol=1e-12,
        )


class TestEvolve:
    def test_parameters(self):
        # the config's record_every is the one record schedule of a run
        assert list(inspect.signature(evolve).parameters) == ["rho0", "h", "f", "cfg"]

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_hamiltonian_rejected(self, rng, dim, bad):
        # NaN compares False against the Hermiticity tolerance, so only a
        # finiteness check rejects it
        h = np.eye(dim, dtype=complex)
        h[0, 1] = h[1, 0] = bad
        rho = random_density_matrix(dim, rng)
        with pytest.raises(DomainError, match="NaN or infinite"):
            evolve(rho, h, PowerLaw(q=2.0), IntegratorConfig(dt=1e-2, t_final=0.1))
        with pytest.raises(DomainError, match="NaN or infinite"):
            CompositeSystem(dim_1=dim, dim_2=2, h1=h, h2=-SIGMA_Z, q1=2.0, q2=2.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_hamiltonian_near_float_max_raises_numerical_failure(self, rng, dim):
        # finite, but H + H^dagger overflows and so does the generator: a
        # NumericalFailure, neither a NaN trajectory nor a numpy error
        h = np.diag([1.5e308, -1.5e308, 0.5][:dim]).astype(complex)
        rho = random_density_matrix(dim, rng)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalFailure):
            evolve(rho, h, PowerLaw(q=2.0), IntegratorConfig(dt=1e-2, t_final=0.1))

    @pytest.mark.parametrize("dim, h_dim", [(2, 3), (3, 2)])
    def test_hamiltonian_dim_mismatch_rejected(self, rng, dim, h_dim):
        rho = random_density_matrix(dim, rng)
        h = random_hermitian(h_dim, rng)
        # d = 2 steps through the scalar SU(2) kernel, d = 3 through numpy
        with pytest.raises(DomainError, match=f"hamiltonian dim {h_dim} != state dim {dim}"):
            evolve(rho, h, PowerLaw(q=2.0), IntegratorConfig(dt=1e-2, t_final=0.1))

    def test_fixed_point_trajectory(self, rng):
        rho = validate_density(0.5 * np.eye(2, dtype=complex))
        h = random_hermitian(2, rng)
        traj = evolve(rho, h, PowerLaw(q=2.0), IntegratorConfig(dt=1e-2, t_final=10.0,
                                                                record_every=100))
        for s in traj.states:
            assert np.allclose(s.matrix, rho.matrix, atol=1e-12)

    def test_linear_spin_precession_frequency(self):
        rho = bloch_state(lam=0.75, phi=np.pi / 2, psi=0.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=5.0)
        traj = evolve(rho, -SIGMA_Z, PowerLaw(q=1.0), cfg)
        assert precession_frequency(traj, (0, 1)) == pytest.approx(2.0, abs=1e-6)

    def test_q2_spin_same_frequency_frozen_spectrum(self):
        rho = bloch_state(lam=0.75, phi=np.pi / 2, psi=0.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=5.0)
        traj = evolve(rho, -SIGMA_Z, PowerLaw(q=2.0), cfg)
        assert precession_frequency(traj, (0, 1)) == pytest.approx(2.0, abs=1e-6)
        rep = invariant_report(traj)
        assert rep["eigenvalue_drift"] < 1e-11

    def test_times_strictly_increasing(self, rng):
        rho = random_density_matrix(2, rng)
        traj = evolve(rho, random_hermitian(2, rng), PowerLaw(q=2.0),
                      IntegratorConfig(dt=1e-2, t_final=0.5, record_every=7))
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == pytest.approx(0.5)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_spectrum_invariance_long_run(self, q, dim):
        # states are smoothed with the maximally mixed state: for q < 1 the
        # generator's f' diverges at small eigenvalues and the midpoint
        # energy-error coefficient grows like lam_min^(q-2), so the 1e-8
        # bound presumes spectra bounded away from rank deficiency
        rng = np.random.default_rng(100 * dim + int(10 * q))
        raw = random_density_matrix(dim, rng)
        rho = validate_density(0.9 * raw.matrix + 0.1 * np.eye(dim) / dim)
        h = random_hermitian(dim, rng, spectral_norm=1.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=10.0, record_every=200)
        traj = evolve(rho, h, PowerLaw(q=q), cfg)
        rep = invariant_report(traj)
        assert rep["eigenvalue_drift"] < 1e-9
        assert rep["casimir_drift"] < 1e-8
        assert rep["energy_drift"] < 1e-8
        assert rep["hermiticity"] < 1e-12
        assert rep["negativity"] < 1e-12

    def test_pure_state_tracks_linear_trajectory(self):
        # bound 1e-8 per step on the trace distance to exp(-iHt) rho exp(iHt)
        rho = bloch_state(lam=1.0, phi=np.pi / 3, psi=0.1)
        cfg = IntegratorConfig(dt=1e-3, t_final=2.0, record_every=100)
        for q in (0.5, 2.0, 3.0):
            traj = evolve(rho, -SIGMA_Z, PowerLaw(q=q), cfg)
            for t, s in zip(traj.times, traj.states):
                steps = max(round(t / cfg.dt), 1)
                u = np.diag(np.exp([1j * t, -1j * t]))
                assert trace_distance(s, u @ rho.matrix @ u.conj().T) < 1e-8 * steps

    def test_pure_state_q_below_one_tracks_exact_linear_evolution(self, rng):
        # round-off eigenvalues near 0 must not meet the infinite slope of
        # x**q at q < 1: G stays of order ||H|| and the orbit stays linear
        rho = pure_state(rng.normal(size=4) + 1j * rng.normal(size=4))
        h = random_hermitian(4, rng, spectral_norm=1.0)
        f = PowerLaw(q=0.5)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, record_every=100)
        traj = evolve(rho, h, f, cfg)
        w, v = np.linalg.eigh(h)
        for t, s in zip(traj.times, traj.states):
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            assert trace_distance(s, u @ rho.matrix @ u.conj().T) < 1e-6
            # the divided-difference kernel has entries in {0, 1, q}, so
            # ||G|| <= 3 ||H||
            assert np.max(np.abs(_trace_functional([(1.0, f)], h).gradient(s))) < 3.0

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_convergence_order_of_midpoint(self, dim):
        # q=3 tilted spin has a genuine second-order error (q=2 and
        # equatorial states are integrated exactly); at d >= 3 a random
        # mixed state in a random unit-norm field
        if dim == 2:
            rho, h = bloch_state(lam=0.75, phi=np.pi / 3, psi=0.3), -SIGMA_Z
        else:
            rho, h = seeded_problem(dim, False, seed=dim)
        f = PowerLaw(q=3.0)

        def end_state(dt):
            cfg = IntegratorConfig(dt=dt, t_final=2.0, record_every=10**9)
            return evolve(rho, h, f, cfg).states[-1].matrix

        ref = end_state(4e-4)
        err1 = np.linalg.norm(end_state(4e-3) - ref)
        err2 = np.linalg.norm(end_state(2e-3) - ref)
        assert err1 / err2 == pytest.approx(4.0, rel=0.2)


class TestRecordedStack:
    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("scheme", ["midpoint", "euler"])
    @pytest.mark.parametrize("pure", [False, True], ids=["mixed", "pure"])
    @pytest.mark.parametrize("q", [0.5, 2.0])
    @pytest.mark.parametrize("dim", [2, 3, 16])
    def test_matches_per_state_oracle(self, dim, q, pure, scheme, record_every):
        # midpoint: evolve itself; euler: its recording pass on the orbit of
        # the one-stage rule, which the pass must take just the same
        rho, h = seeded_problem(dim, pure, seed=10 * dim + int(4 * q))
        f = PowerLaw(q=q)
        cfg = IntegratorConfig(dt=1e-2, t_final=0.3, record_every=record_every)
        if scheme == "midpoint":
            advance, traj = _advance, evolve(rho, h, f, cfg)
        else:
            advance = one_stage_steps
            w = rho.eigenvalues
            kernel = f.divided_difference(w[:, None], w[None, :])
            vs = advance(rho.eigenvectors, h, kernel, cfg.dt, cfg.n_steps, cfg.record_every)
            traj = _record(rho, vs, cfg, lambda b: hamiltonian_function((w, vs[b]), h, f))
        times, states, log = per_state_evolve(rho, h, f, cfg, advance)
        assert np.array_equal(traj.times, times)
        assert set(traj.invariant_log) == set(log)
        for key, value in log.items():
            assert np.array_equal(traj.invariant_log[key], value), key
        assert np.array_equal(traj.matrices, np.array([s.matrix for s in states]))
        assert np.array_equal(traj.eigenvectors, np.array([s.eigenvectors for s in states]))
        for got, want in zip(traj.states, states, strict=True):
            assert np.array_equal(got.matrix, want.matrix)
            assert np.array_equal(got.eigenvalues, want.eigenvalues)
            assert np.array_equal(got.eigenvectors, want.eigenvectors)

    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_log_is_built_on_first_read(self, dim):
        # nothing of the log exists until it is read; then it is the eager
        # per-state oracle's, and later reads return the same arrays
        rho, h = seeded_problem(dim, False, seed=dim)
        f = PowerLaw(q=1.5)
        cfg = IntegratorConfig(dt=1e-2, t_final=0.5, record_every=3)
        traj = evolve(rho, h, f, cfg)
        assert "invariant_log" not in vars(traj)
        log = traj.invariant_log
        for key, value in per_state_evolve(rho, h, f, cfg)[2].items():
            assert np.array_equal(log[key], value), key
        assert traj.invariant_log is log

    @pytest.mark.parametrize("dim", [2, 3])
    def test_records_at_multiples_of_every_and_the_end(self, dim):
        # the rows of a run recording every step at the multiples of every
        # and at the end, which every does not divide
        n, every = 25, 7
        rho, h = seeded_problem(dim, False, seed=dim)
        f = PowerLaw(q=1.5)
        full = evolve(rho, h, f, IntegratorConfig(dt=1e-2, t_final=n * 1e-2))
        traj = evolve(rho, h, f, IntegratorConfig(dt=1e-2, t_final=n * 1e-2, record_every=every))
        rows = sorted({0, n, *range(every, n, every)})
        assert np.array_equal(traj.times, full.times[rows])
        assert np.array_equal(traj.eigenvectors, full.eigenvectors[rows])
        assert np.array_equal(traj.matrices, full.matrices[rows])

    def test_block_boundary_at_d16(self):
        # more recorded states than fit in one block
        per_block = RECORD_BLOCK_BYTES // (16 * 16 * 16)
        rho, h = seeded_problem(16, False, seed=5)
        f = PowerLaw(q=1.5)
        cfg = IntegratorConfig(dt=1e-2, t_final=(2 * per_block + 3) * 1e-2)
        traj = evolve(rho, h, f, cfg)
        assert len(traj.times) > 2 * per_block
        _, states, log = per_state_evolve(rho, h, f, cfg)
        for key, value in log.items():
            assert np.array_equal(traj.invariant_log[key], value), key
        assert np.array_equal(traj.matrices, np.array([s.matrix for s in states]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stacks_are_read_only_and_back_the_states(self, rng, dim):
        rho = random_density_matrix(dim, rng)
        traj = evolve(rho, random_hermitian(dim, rng), PowerLaw(q=2.0),
                      IntegratorConfig(dt=1e-2, t_final=0.1, record_every=3))
        assert traj.matrices.shape == traj.eigenvectors.shape == (len(traj.times), dim, dim)
        assert np.array_equal(traj.eigenvalues, rho.eigenvalues)
        for a in (traj.times, traj.eigenvalues, traj.eigenvectors, traj.matrices):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            traj.matrices[0, 0, 0] = 1.0
        assert np.array_equal(traj.matrices[0], rho.matrix)
        assert np.array_equal(traj.eigenvectors[0], rho.eigenvectors)
        for s in traj.states:
            assert np.shares_memory(s.matrix, traj.matrices)
            assert np.shares_memory(s.eigenvectors, traj.eigenvectors)
            assert not s.matrix.flags.writeable
            assert not s.eigenvectors.flags.writeable
        assert np.array_equal(traj.matrices[:, 0, 1], [s.matrix[0, 1] for s in traj.states])

    def test_records_the_spectrum_of_the_start(self):
        # 7.5e-14 is an eigenvalue of the validated start (zeroed before, not
        # after, the spectrum is renormalized); zeroed again on recording, it
        # read as an eigenvalue drift of 7.5e-14 and a recorded trace of 1 - 7.5e-14
        c, s = np.cos(0.3), np.sin(0.3)
        u = np.array([[c, -s], [s, c]])
        rho = validate_density(u @ np.diag([2.0 - 1.5e-13, 1.5e-13]) @ u.T)
        assert 0.0 < rho.eigenvalues[0] < 1e-13
        traj = evolve(rho, -SIGMA_Z, PowerLaw(q=0.5), IntegratorConfig(dt=1e-2, t_final=0.05))
        assert np.array_equal(traj.eigenvalues, rho.eigenvalues)
        assert invariant_report(traj)["eigenvalue_drift"] < 1e-15

    @pytest.mark.parametrize("pure", [False, True], ids=["mixed", "pure"])
    def test_stack_energy_equals_per_state_floats(self, rng, pure):
        h = random_hermitian(4, rng)
        f = PowerLaw(q=0.7)
        w = seeded_problem(4, pure, seed=3)[0].eigenvalues
        vs = np.array([random_density_matrix(4, rng).eigenvectors for _ in range(6)])
        energies = hamiltonian_function((w, vs), h, f)
        assert energies.shape == (len(vs),)
        assert np.array_equal(energies, [hamiltonian_function(density_from_spectrum(w, v), h, f)
                                         for v in vs])


class TestSU2Kernel:
    @pytest.mark.parametrize("numpy_step", [spectral_step, eigh_midpoint_step],
                             ids=["midpoint", "eigh-midpoint"])
    @pytest.mark.parametrize("pure", [False, True], ids=["mixed", "pure"])
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
    def test_matches_numpy_step(self, q, pure, numpy_step):
        # the scalar kernel against the numpy step on the same 2x2 input;
        # the gap is round-off accumulated over the run
        rho, h = seeded_problem(2, pure, seed=int(4 * q) + 10 * pure)
        w, v = rho.eigenvalues, rho.eigenvectors
        kernel = PowerLaw(q=q).divided_difference(w[:, None], w[None, :])
        n, dt = 2000, 1e-3
        stack = _advance(v, h, kernel, dt, n, n)
        assert stack.shape == (2, 2, 2)
        v_scalar = stack[-1]
        v_numpy = v
        for _ in range(n):
            v_numpy = numpy_step(v_numpy, h, kernel, dt)
        got = density_from_spectrum(w, v_scalar).matrix
        want = density_from_spectrum(w, v_numpy).matrix
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("pure", [False, True], ids=["mixed", "pure"])
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
    def test_bloch_form_of_the_generator(self, q, pure):
        # the kernel's w = beta h + (c_0 - c_1)/2 n, with beta = K_01,
        # c_i = (K_ii - beta)(V^H H V)_ii and n the Bloch vector of V's
        # first column, is the traceless part of G = V ((V^H H V) o K) V^H
        # (a random V and a tilted H from each seed)
        for seed in range(20):
            rho, h = seeded_problem(2, pure, seed=100 * seed + int(4 * q))
            w, v = rho.eigenvalues, rho.eigenvectors
            kernel = PowerLaw(q=q).divided_difference(w[:, None], w[None, :])
            g = _divided_difference_transform(v, h, kernel)
            want = [g[0, 1].real, -g[0, 1].imag, 0.5 * (g[0, 0] - g[1, 1]).real]
            beta = kernel[0, 1]
            c = (np.diag(kernel) - beta) * np.einsum("ji,jk,ki->i", v.conj(), h, v).real
            a0, c0 = v[:, 0]
            n = [2 * (a0.conjugate() * c0).real, 2 * (a0.conjugate() * c0).imag,
                 abs(a0) ** 2 - abs(c0) ** 2]
            bloch_h = [h[0, 1].real, -h[0, 1].imag, 0.5 * (h[0, 0] - h[1, 1]).real]
            got = beta * np.array(bloch_h) + 0.5 * (c[0] - c[1]) * np.array(n)
            assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("diag, h_diag", [((0.7, 0.3), (-1.0, 1.0)),
                                              ((0.25, 0.75), (3.0, 1.0))],
                             ids=["generic", "generator-proportional-to-identity"])
    def test_commuting_state_is_fixed(self, diag, h_diag):
        # at q = 2 the second pair gives G = 1.5 * identity, so |w| = 0
        # exactly and the exponential takes its norm < 1e-300 branch (a
        # division by zero without it); 500 steps of unit-modulus phase
        # factors leave round-off of order 1e-14 on the diagonal
        rho = validate_density(np.diag(diag).astype(complex))
        h = np.diag(h_diag).astype(complex)
        traj = evolve(rho, h, PowerLaw(q=2.0), IntegratorConfig(dt=1e-2, t_final=5.0))
        assert np.max(np.abs(traj.matrices - rho.matrix)) < 1e-12


class TestEigenframeStep:
    @pytest.mark.parametrize("pure", [False, True], ids=["mixed", "pure"])
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("dim", [3, 4, 8, 16])
    def test_matches_eigh_midpoint_step(self, dim, q, pure):
        # the same scheme with its exponentials from eigh in the lab frame;
        # the gap is round-off accumulated over 1,000 steps
        rho, h = seeded_problem(dim, pure, seed=10 * dim + int(4 * q) + pure)
        f = PowerLaw(q=q)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, record_every=100)
        traj = evolve(rho, h, f, cfg)
        _, states, _ = per_state_evolve(rho, h, f, cfg, advance_with(eigh_midpoint_step))
        assert np.max(np.abs(traj.matrices - [s.matrix for s in states])) < 1e-12

    @pytest.mark.parametrize("half_norm", [THETA[4] / 2, (THETA[4] + THETA[6]) / 2,
                                           (THETA[6] + THETA[8]) / 2, 1.5],
                             ids=["degree4", "degree6", "degree8", "degree8-s6"])
    def test_stiff_step_matches_eigh_midpoint_step(self, half_norm):
        # ||A(V) dt/2||_F = half_norm picks the degree of the half step's
        # exponential; at 1.5 it squares that of degree 8 six times
        rho, h = seeded_problem(4, False, seed=0)
        f = PowerLaw(q=2.0)
        w, v = rho.eigenvalues, rho.eigenvectors
        a = (v.conj().T @ h @ v) * f.divided_difference(w[:, None], w[None, :])
        dt = 2.0 * half_norm / np.linalg.norm(a)
        assert 2**5 < 1.5 / THETA[8] <= 2**6
        cfg = IntegratorConfig(dt=dt, t_final=100 * dt, record_every=10)
        traj = evolve(rho, h, f, cfg)
        _, states, _ = per_state_evolve(rho, h, f, cfg, advance_with(eigh_midpoint_step))
        assert np.max(np.abs(traj.matrices - [s.matrix for s in states])) < 1e-12

    def test_steps_take_no_eigendecomposition(self, monkeypatch):
        # the eigensolvers count only while _advance runs, except eigvalsh,
        # which the invariant log calls once per block when it is first read
        calls = {"eigh": 0, "eigvalsh": 0, "stepping": 0}
        stepping = [False]

        def counted(name):
            solver = getattr(np.linalg, name)

            def call(*args, **kwargs):
                calls["stepping" if stepping[0] else name] += 1
                return solver(*args, **kwargs)

            return call

        def advance(*args):
            stepping[0] = True
            try:
                return _advance(*args)
            finally:
                stepping[0] = False

        rho, h = seeded_problem(16, False, seed=1)
        system = CompositeSystem(dim_1=4, dim_2=4, h1=seeded_problem(4, False, 3)[1],
                                 h2=seeded_problem(4, False, 4)[1], q1=1.5, q2=2.5)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.1, record_every=10)
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        monkeypatch.setattr(nvne.dynamics, "_advance", advance)
        traj = evolve(rho, h, PowerLaw(q=2.0), cfg)
        assert calls == {"eigh": 0, "eigvalsh": 0, "stepping": 0}
        traj.invariant_log
        assert calls == {"eigh": 0, "eigvalsh": len(_blocks(0, len(traj.times), 16)), "stepping": 0}
        evolve_composite(rho, system, cfg)
        assert calls["stepping"] == 0


class TestDirectSum:
    @staticmethod
    def error_ratios(dim, q):
        """The errors at t = 2 against direct_sum_oracle for dt = 2e-2, 1e-2
        and 5e-3: the two ratios of successive errors, and the last error."""
        f = PowerLaw(q=q)
        rho, h, exact = direct_sum_oracle(dim, f, np.random.default_rng(1000 * dim + int(10 * q)))
        errors = [np.max(np.abs(evolve(rho, h, f, IntegratorConfig(dt=dt, t_final=2.0, record_every=1000))
                                .matrices[-1] - exact(2.0))) for dt in (2e-2, 1e-2, 5e-3)]
        return np.array(errors[:-1]) / errors[1:], errors[-1]

    @pytest.mark.parametrize("q", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_midpoint_is_second_order(self, dim, q):
        # halving dt divides the error by 4; at d = 64 and q = 3 the error is
        # already round-off (1e-14), where the ratio says nothing
        ratios, finest = self.error_ratios(dim, q)
        if finest > 1e-13:
            assert np.all((3.6 <= ratios) & (ratios <= 4.4)), ratios

    @pytest.mark.parametrize("dim", [4, 16])
    def test_catches_a_first_order_step(self, monkeypatch, dim):
        # the Lie-Euler step exp(-i A(V) dt) V in place of the midpoint rule
        def lie_euler(v, h, k_half, k_full):
            return v + v.dot(_expm1(v.conj().T.dot(h).dot(v), k_full))

        monkeypatch.setattr(nvne.dynamics, "_step_spectral", lie_euler)
        ratios, finest = self.error_ratios(dim, 2.0)
        assert finest > 1e-13 and np.all(ratios < 2.2), ratios


class TestExpm1:
    # ||a tau||_F in the middle of the degree-4 and degree-6 ranges, at
    # 0.99 and 1.01 of each theta_m, then in the middle of each scaling
    # branch s = 0..10 of degree 8, then 50 (s = 11)
    NORMS = {"m4": THETA[4] / 2, "m6": (THETA[4] + THETA[6]) / 2,
             **{f"{c}theta{m}": c * THETA[m] for m in THETA for c in (0.99, 1.01)},
             **{f"s{s}": THETA[8] * 2.0 ** (s - 0.5) for s in range(11)}, "s11": 50.0}

    @pytest.mark.parametrize("norm", NORMS.values(), ids=NORMS.keys())
    @pytest.mark.parametrize("dim", [3, 8, 64])
    def test_matches_spectral_exponential(self, dim, norm):
        tau = 0.5
        a = random_hermitian(dim, np.random.default_rng(dim))
        a *= norm / (tau * np.linalg.norm(a))
        w, u = np.linalg.eigh(a)
        got = np.eye(dim) + _expm1(a, -1j * tau)
        assert np.max(np.abs(got - (u * np.exp(-1j * w * tau)) @ u.conj().T)) < 1e-13 * max(1.0, norm)
        assert np.max(np.abs(got.conj().T @ got - np.eye(dim))) < 1e-13

    @pytest.mark.parametrize("m", list(THETA))
    @pytest.mark.parametrize("dim", [3, 8])
    def test_each_degree_meets_its_truncation_bound(self, dim, m):
        # at 0.99 theta_m, e = p(X) - 1 is within a few eps ||X||_F of
        # exp(X) - 1 from 30-digit mpmath, closer than the eigh oracle above
        # resolves: degree m - 2 would miss by about ||X||^(m-1)/(m-1)!,
        # 8.6e-14 below theta_8
        mpmath = pytest.importorskip("mpmath")
        a = random_hermitian(dim, np.random.default_rng(dim))
        x = -1j * a * (0.99 * THETA[m] / np.linalg.norm(a))
        with mpmath.workdps(30):
            want = np.array((mpmath.expm(mpmath.matrix(x.tolist())) - mpmath.eye(dim)).tolist(), dtype=complex)
        assert np.max(np.abs(_expm1(x, 1.0) - want)) < 4 * np.finfo(float).eps * np.linalg.norm(x)

    @pytest.mark.parametrize("dim", [3, 8])
    def test_zero_matrix_gives_identity(self, dim):
        zero = np.zeros((dim, dim), dtype=complex)
        assert np.array_equal(np.eye(dim) + _expm1(zero, -0.7j), np.eye(dim))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_norm_raises(self, bad):
        a = np.eye(3, dtype=complex)
        a[0, 0] = bad
        # inf * (-1e-3j) has a real part inf * 0, which warns outside the
        # errstate of _advance; the norm check is what is tested here
        with pytest.raises(NumericalFailure, match="not finite"), np.errstate(invalid="ignore"):
            _expm1(a, -1e-3j)

    def test_too_many_squarings_raise(self):
        a = np.diag([1.0, -1.0, 0.0]).astype(complex)
        tau = THETA[8] * 2.0**MAX_SQUARINGS / np.sqrt(2.0)
        assert np.all(np.isfinite(_expm1(a, -0.99j * tau)))
        with pytest.raises(NumericalFailure, match="reduce dt"):
            _expm1(a, -1.01j * tau)


class TestLinearLimit:
    # every kernel entry equal to c makes G = c H at every state, so the
    # midpoint step is the exact propagator exp(-i c H dt) up to round-off

    def test_pure_state_linear_f_is_exact_conjugation(self):
        rho, h = seeded_problem(4, True, seed=7)
        traj = evolve(rho, h, PowerLaw(q=1.0), IntegratorConfig(dt=1e-3, t_final=1.0,
                                                                record_every=250))
        w, v = np.linalg.eigh(h)
        for t, m in zip(traj.times, traj.matrices):
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            assert np.max(np.abs(m - u @ rho.matrix @ u.conj().T)) < 1e-12

    def test_maximally_mixed_stays_fixed(self, rng):
        rho = validate_density(np.eye(3, dtype=complex) / 3)
        traj = evolve(rho, random_hermitian(3, rng), PowerLaw(q=2.5),
                      IntegratorConfig(dt=1e-2, t_final=5.0, record_every=50))
        assert np.max(np.abs(traj.matrices - rho.matrix)) < 1e-12


class TestLarmorLaw:
    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_frequency_grid(self, q):
        f = PowerLaw(q=q)
        cfg = IntegratorConfig(dt=1e-3, t_final=5.0)
        for lam in np.arange(0.55, 0.96, 0.1):
            rho = bloch_state(lam=lam, phi=np.pi / 2, psi=0.0)
            traj = evolve(rho, -SIGMA_Z, f, cfg)
            measured = precession_frequency(traj, (0, 1))
            predicted = 2.0 * (lam**q - (1 - lam) ** q) / (2 * lam - 1)
            assert measured == pytest.approx(predicted, rel=1e-5)
            sz = (traj.matrices[:, 0, 0] - traj.matrices[:, 1, 1]).real
            assert np.max(np.abs(sz - sz[0])) < 1e-9

    def test_phi_is_constant(self):
        # polar angle (hence sigma_z component) frozen even off the equator
        rho = bloch_state(lam=0.8, phi=1.0, psi=0.5)
        traj = evolve(rho, -SIGMA_Z, PowerLaw(q=3.0),
                      IntegratorConfig(dt=1e-3, t_final=5.0, record_every=50))
        sz = (traj.matrices[:, 0, 0] - traj.matrices[:, 1, 1]).real
        assert np.max(np.abs(sz - sz[0])) < 1e-8

    @pytest.mark.parametrize("h, mu", [
        (-1.3 * SIGMA_Z, 1.3),
        (np.diag([-1.0, 1.0]), 1.0),
        # |h_01| and |Tr h| within TOL_HERM, and past it
        (np.array([[-1.0, 1e-13], [1e-13, 1.0 + 1e-13]]), 1.0),
        (np.array([[-1.0, 1e-11], [1e-11, 1.0]]), None),
        (np.diag([0.0, 2.0]), None),
        (np.diag([-1.0, 1.0, 0.0]), None),
    ], ids=["preset", "matrix", "near-z", "tilted", "traced", "3x3"])
    def test_spin_z_mu(self, h, mu):
        assert spin_z_mu(h.astype(complex)) == mu

    def test_spec_example_lam09_q3(self):
        assert larmor_frequency(0.9, PowerLaw(q=3.0), 1.0) == pytest.approx(1.82, abs=1e-12)

    def test_array_lam_matches_scalar_calls(self):
        f, lams = PowerLaw(q=3.0), np.array([0.1, 0.5, 0.9])
        assert type(larmor_frequency(0.9, f, 1.3)) is float
        assert np.array_equal(larmor_frequency(lams, f, 1.3),
                              [larmor_frequency(lam, f, 1.3) for lam in lams])

    def test_signal_too_weak(self, rng):
        rho = validate_density(np.diag([0.7, 0.3]).astype(complex))
        traj = evolve(rho, -SIGMA_Z, PowerLaw(q=2.0),
                      IntegratorConfig(dt=1e-2, t_final=1.0))
        with pytest.raises(NumericalFailure, match="phase fit unreliable"):
            precession_frequency(traj, (0, 1))
