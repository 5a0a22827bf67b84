import dataclasses
import re
import sys

import numpy as np
import pytest

from nvne import cli, dynamics
from nvne.composite import (
    CompositeSystem,
    evolve_composite,
    reduction_consistency,
)
from nvne.deformation import PowerLaw
from nvne.dynamics import IntegratorConfig
from nvne.errors import DomainError
from nvne.hermitian import (
    SIGMA_X,
    SIGMA_Z,
    _zero_round_off,
    hermiticity_defect,
    partial_trace,
    pure_state,
    random_density_matrix,
    random_hermitian,
    trace_distance,
    validate_density,
)
from nvne.presets import PRESETS
from nvne.structure import _divided_difference_transform, _kernel, hamiltonian_function


def spin_system(q1=1.5, q2=2.5, mu1=1.0, mu2=0.7):
    return CompositeSystem(dim_1=2, dim_2=2, h1=-mu1 * SIGMA_Z, h2=-mu2 * SIGMA_Z,
                           q1=q1, q2=q2)


def joint_scheme_oracle(rho0, sys_, cfg):
    """The per-half-step joint midpoint scheme: at every (half-)step both
    reductions are re-extracted from the joint matrix, each generator is
    rebuilt from an eigh of its reduction and exponentiated through its own
    eigh, and the joint unitary is the kron of the two. Returns the recorded
    matrices."""
    d1, d2 = sys_.dim_1, sys_.dim_2

    def subsystem_unitary(red, h, f, tau):
        w, v = np.linalg.eigh(red)
        gw, gv = np.linalg.eigh(_divided_difference_transform(v, h, _kernel(_zero_round_off(w), f)))
        return (gv * np.exp(-1j * gw * tau)) @ gv.conj().T

    def joint_unitary(m, tau):
        t = m.reshape(d1, d2, d1, d2)
        return np.kron(subsystem_unitary(np.einsum("ijkj->ik", t), sys_.h1, sys_.f1, tau),
                       subsystem_unitary(np.einsum("ijil->jl", t), sys_.h2, sys_.f2, tau))

    m = rho0.matrix
    mats = [m]
    for k in range(1, cfg.n_steps + 1):
        u = joint_unitary(m, cfg.dt / 2)
        u = joint_unitary(u @ m @ u.conj().T, cfg.dt)
        m = u @ m @ u.conj().T
        if k % cfg.record_every == 0 or k == cfg.n_steps:
            mats.append(m)
    return np.array(mats)


def count_advance(monkeypatch):
    """The list of the state dimensions of every call of dynamics._advance,
    through the binding of any nvne module that holds it."""
    calls, original = [], dynamics._advance

    def counted(v, *args):
        calls.append(v.shape[0])
        return original(v, *args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nvne" and getattr(module, "_advance", None) is original:
            monkeypatch.setattr(module, "_advance", counted)
    return calls


class TestCompositeSystem:
    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(DomainError):
            CompositeSystem(dim_1=2, dim_2=2, h1=SIGMA_Z, h2=SIGMA_Z, q1=0.0, q2=2.0)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DomainError, match="subsystem Hamiltonian shapes do not match dims"):
            CompositeSystem(dim_1=3, dim_2=2, h1=SIGMA_Z, h2=SIGMA_Z, q1=1.0, q2=1.0)

    def test_rejects_wrong_state_dim(self, rng):
        sys_ = spin_system()
        rho = random_density_matrix(3, rng)
        with pytest.raises(DomainError, match=re.escape("joint state dim 3 != 2*2")):
            evolve_composite(rho, sys_, IntegratorConfig(dt=1e-2, t_final=0.1))

    def test_refuses_joint_stacks_past_the_budget(self, rng, monkeypatch):
        # 11 records: 1,408 B of stacks per reduction, within a 2,000 B budget,
        # and 5,632 B of joint stacks, past it, as evolve at d = 4 finds
        monkeypatch.setattr(dynamics, "RECORD_BUDGET_BYTES", 2000)
        cfg = IntegratorConfig(dt=0.1, t_final=1.0, record_every=1)
        rho = random_density_matrix(4, rng)
        with pytest.raises(DomainError, match="11 states of dim 4"):
            dynamics.evolve(rho, random_hermitian(4, rng), PowerLaw(q=2.0), cfg)
        with pytest.raises(DomainError, match="11 states of dim 4"):
            evolve_composite(rho, spin_system(), cfg)


class TestEvolveComposite:
    def test_commuting_product_state_constant(self):
        a = validate_density(np.diag([0.7, 0.3]).astype(complex))
        b = validate_density(np.diag([0.6, 0.4]).astype(complex))
        joint = validate_density(np.kron(a.matrix, b.matrix))
        traj = evolve_composite(joint, spin_system(), IntegratorConfig(dt=1e-2, t_final=1.0))
        for s in traj.states:
            assert np.allclose(s.matrix, joint.matrix, atol=1e-12)

    def test_product_state_stays_product(self, rng):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(2, rng)
        joint = validate_density(np.kron(a.matrix, b.matrix))
        sys_ = spin_system()
        cfg = IntegratorConfig(dt=1e-3, t_final=2.0, record_every=100)
        traj = evolve_composite(joint, sys_, cfg)
        for m, ra, rb in zip(traj.matrices, *partial_trace(traj.matrices, (2, 2))):
            assert np.max(np.abs(np.kron(ra, rb) - m)) < 1e-7

    def test_bell_reduction_is_fixed_point(self):
        bell = pure_state(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
        sys_ = CompositeSystem(dim_1=2, dim_2=2, h1=-SIGMA_Z,
                               h2=np.zeros((2, 2), dtype=complex), q1=2.0, q2=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=2.0, record_every=100)
        traj = evolve_composite(bell, sys_, cfg)
        for red in partial_trace(traj.matrices, (2, 2))[0]:
            assert np.allclose(red, 0.5 * np.eye(2), atol=1e-10)

    def test_casimirs_and_spectrum_conserved(self, rng):
        rho = random_density_matrix(4, rng)
        cfg = IntegratorConfig(dt=1e-3, t_final=10.0, record_every=100)
        traj = evolve_composite(rho, spin_system(), cfg)
        log = traj.invariant_log
        ev = log["eigenvalues"]
        assert np.max(np.abs(ev - ev[0])) < 1e-9
        for n in range(1, 5):
            series = log[f"C{n}"]
            assert np.max(np.abs(series - series[0])) / abs(series[0]) < 1e-8

    def test_energy_conserved(self, rng):
        rho = random_density_matrix(4, rng)
        cfg = IntegratorConfig(dt=1e-3, t_final=5.0, record_every=100)
        traj = evolve_composite(rho, spin_system(), cfg)
        hq = traj.invariant_log["Hq"]
        assert np.max(np.abs(hq - hq[0])) < 1e-8

    @pytest.mark.parametrize("dims, record_every", [((2, 2), 1), ((2, 3), 4)])
    def test_log_matches_per_state_oracle(self, rng, dims, record_every):
        # the composite run shares the block logger of evolve; the oracle is
        # the per-state loop it replaced. The run takes Hq from the spectra
        # and eigenvector stacks of the reductions, the oracle from the
        # partial traces of each joint state: equal up to round-off
        # (4.4e-15 at most over 120 seeded runs of O(1) energies)
        sys_ = CompositeSystem(dim_1=dims[0], dim_2=dims[1],
                               h1=random_hermitian(dims[0], rng),
                               h2=random_hermitian(dims[1], rng), q1=1.5, q2=0.7)
        rho = random_density_matrix(dims[0] * dims[1], rng)
        traj = evolve_composite(rho, sys_, IntegratorConfig(dt=1e-2, t_final=0.3,
                                                            record_every=record_every))
        # built on first read, below
        assert "invariant_log" not in vars(traj)
        oracle = {key: [] for key in traj.invariant_log}
        for s in traj.states:
            ev = np.sort(np.linalg.eigvalsh(s.matrix))
            oracle["eigenvalues"].append(ev)
            for n in range(1, 6):
                oracle[f"C{n}"].append(float(np.sum(ev**n)))
            oracle["Hq"].append(sum(hamiltonian_function(validate_density(red), h, f) for red, h, f in
                                    zip(partial_trace(s.matrix, dims), (sys_.h1, sys_.h2), (sys_.f1, sys_.f2))))
            oracle["hermiticity"].append(hermiticity_defect(s.matrix))
        hq = oracle.pop("Hq")
        assert np.max(np.abs(traj.invariant_log["Hq"] - hq)) < 1e-13
        for key, value in oracle.items():
            assert np.array_equal(traj.invariant_log[key], np.asarray(value)), key
        assert np.array_equal(traj.matrices, np.array([s.matrix for s in traj.states]))
        assert not traj.matrices.flags.writeable

    @pytest.mark.parametrize("oracle", [joint_scheme_oracle], ids=["midpoint"])
    @pytest.mark.parametrize("qs", [(1.5, 2.5), (0.5, 3.0), (1.0, 1.0)], ids=str)
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)], ids=str)
    def test_matches_joint_scheme_oracle(self, dims, qs, oracle):
        # stepping the reductions on their own and forming the joint state at
        # record points is the joint scheme with its invariants held fixed
        rng = np.random.default_rng(100 * dims[0] + 10 * dims[1] + int(2 * qs[0]))
        sys_ = CompositeSystem(dim_1=dims[0], dim_2=dims[1],
                               h1=random_hermitian(dims[0], rng, spectral_norm=1.0),
                               h2=random_hermitian(dims[1], rng, spectral_norm=1.0),
                               q1=qs[0], q2=qs[1])
        rho = random_density_matrix(dims[0] * dims[1], rng)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, record_every=100)
        traj = evolve_composite(rho, sys_, cfg)
        want = oracle(rho, sys_, cfg)
        assert traj.matrices.shape == want.shape
        assert np.max(np.abs(traj.matrices - want)) < 1e-12

    def test_purity_of_reductions_constant(self, rng):
        rho = random_density_matrix(4, rng)
        cfg = IntegratorConfig(dt=1e-3, t_final=5.0, record_every=100)
        traj = evolve_composite(rho, spin_system(), cfg)
        purities = np.array(
            [validate_density(red).purity() for red in partial_trace(traj.matrices, (2, 2))[0]]
        )
        assert np.max(np.abs(purities - purities[0])) < 1e-8


class TestReductionConsistency:
    def test_entangled_closure(self, rng):
        rho = random_density_matrix(4, rng)  # generic states are entangled
        sys_ = spin_system(q1=1.5, q2=2.5)
        cfg = IntegratorConfig(dt=1e-3, t_final=10.0, record_every=50)
        traj = evolve_composite(rho, sys_, cfg)
        report = reduction_consistency(traj, sys_, cfg)
        assert max(report.values()) < 1e-7

    def test_product_closure(self, rng):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(2, rng)
        joint = validate_density(np.kron(a.matrix, b.matrix))
        sys_ = spin_system()
        cfg = IntegratorConfig(dt=1e-3, t_final=10.0, record_every=50)
        report = reduction_consistency(evolve_composite(joint, sys_, cfg), sys_, cfg)
        assert max(report.values()) < 1e-7

    def test_pure_product_q_below_one_follows_linear_dynamics(self, rng):
        # the reductions of a product of pure states are pure up to round-off;
        # that round-off must not meet the infinite slope of x**q at q < 1
        a = pure_state(rng.normal(size=2) + 1j * rng.normal(size=2))
        b = pure_state(rng.normal(size=3) + 1j * rng.normal(size=3))
        h1 = random_hermitian(2, rng, spectral_norm=1.0)
        h2 = random_hermitian(3, rng, spectral_norm=1.0)
        sys_ = CompositeSystem(dim_1=2, dim_2=3, h1=h1, h2=h2, q1=0.5, q2=0.5)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, record_every=100)
        traj = evolve_composite(validate_density(np.kron(a.matrix, b.matrix)), sys_, cfg)
        assert max(reduction_consistency(traj, sys_, cfg).values()) < 1e-6
        for reds, r0, h in zip(partial_trace(traj.matrices, (2, 3)), (a, b), (sys_.h1, sys_.h2)):
            w, v = np.linalg.eigh(h)
            for t, red in zip(traj.times, reds):
                u = (v * np.exp(-1j * w * t)) @ v.conj().T
                assert trace_distance(red, u @ r0.matrix @ u.conj().T) < 1e-6

    def test_rejects_config_of_another_run(self, rng):
        # with another dt only t = 0 is shared, which used to read as a
        # deviation of exactly 0
        rho = random_density_matrix(4, rng)
        sys_ = spin_system()
        traj = evolve_composite(rho, sys_, IntegratorConfig(dt=1e-2, t_final=0.3))
        with pytest.raises(DomainError, match="times"):
            reduction_consistency(traj, sys_, IntegratorConfig(dt=3e-3, t_final=0.3))

    def test_each_reduction_integrated_once(self, rng, monkeypatch):
        # evolve_composite runs each reduction once, and reduction_consistency
        # compares against those runs instead of integrating them again
        sys_ = CompositeSystem(dim_1=2, dim_2=3, h1=random_hermitian(2, rng), h2=random_hermitian(3, rng),
                               q1=1.5, q2=0.7)
        cfg = IntegratorConfig(dt=1e-2, t_final=0.3, record_every=4)
        calls = count_advance(monkeypatch)
        reduction_consistency(evolve_composite(random_density_matrix(6, rng), sys_, cfg), sys_, cfg)
        assert calls == [2, 3]

    def test_criterion6_run_integrates_each_reduction_once(self, monkeypatch):
        calls = count_advance(monkeypatch)
        assert cli.run_scenario(PRESETS["criterion6-composite-closure"]).passed
        assert calls == [2, 2]

    def test_rejects_single_run(self):
        # a 4x4 run of evolve holds no reduced runs to compare with
        sys_ = spin_system()
        cfg = IntegratorConfig(dt=1e-2, t_final=0.3)
        rho = random_density_matrix(4, np.random.default_rng(0))
        h = np.kron(sys_.h1, np.eye(2)) + np.kron(np.eye(2), sys_.h2)
        with pytest.raises(DomainError, match="joint run of evolve_composite"):
            reduction_consistency(dynamics.evolve(rho, h, sys_.f1, cfg), sys_, cfg)

    def test_rejects_system_of_other_dims(self):
        # the partial traces of a 2x2 run at dims (4, 1) have no reduced runs
        # of their shape
        sys_ = spin_system()
        cfg = IntegratorConfig(dt=1e-2, t_final=0.3)
        traj = evolve_composite(random_density_matrix(4, np.random.default_rng(0)), sys_, cfg)
        other = CompositeSystem(dim_1=4, dim_2=1, h1=np.kron(sys_.h1, np.eye(2)), h2=np.zeros((1, 1)),
                                q1=1.5, q2=2.5)
        with pytest.raises(DomainError, match=re.escape("dims (4, 1)")):
            reduction_consistency(traj, other, cfg)

    def test_closure_sees_a_joint_run_that_does_not_move(self):
        # the joint matrices held at their start read 0.60 and 0.44 against
        # the reduced runs; the true run reads 5.4e-15
        sys_ = spin_system()
        cfg = IntegratorConfig(dt=1e-2, t_final=1.0, record_every=10)
        traj = evolve_composite(random_density_matrix(4, np.random.default_rng(0)), sys_, cfg)
        held = dataclasses.replace(traj, matrices=np.broadcast_to(traj.matrices[0], traj.matrices.shape))
        assert min(reduction_consistency(held, sys_, cfg).values()) >= 0.1
        assert max(reduction_consistency(traj, sys_, cfg).values()) <= 1e-12

    def test_maximally_mixed_fixed_point(self):
        joint = validate_density(np.eye(4, dtype=complex) / 4)
        sys_ = spin_system()
        cfg = IntegratorConfig(dt=1e-2, t_final=1.0)
        traj = evolve_composite(joint, sys_, cfg)
        report = reduction_consistency(traj, sys_, cfg)
        assert max(report.values()) < 1e-12
        for s in traj.states:
            assert np.allclose(s.matrix, joint.matrix, atol=1e-13)

    def test_composite_energy_matches_subsystem_averages(self, rng):
        # the logged energy of the start, from the spectra and eigenvectors of
        # the reductions
        rho = random_density_matrix(4, rng)
        sys_ = spin_system()

        e = evolve_composite(rho, sys_, IntegratorConfig(dt=1e-2, t_final=1e-2)).invariant_log["Hq"][0]
        r1, r2 = partial_trace(rho.matrix, (2, 2))
        e1 = hamiltonian_function(validate_density(r1), sys_.h1, PowerLaw(sys_.q1))
        e2 = hamiltonian_function(validate_density(r2), sys_.h2, PowerLaw(sys_.q2))
        assert e == pytest.approx(e1 + e2, abs=1e-12)


class TestNoSignalling:
    @pytest.mark.parametrize("q", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)], ids=str)
    def test_partner_hamiltonian_leaves_rho_I_alone(self, dims, q):
        # a nonlinear equation can signal through an entangled partner (Gisin,
        # Phys. Lett. A 143 (1990) 1). Two H_II from one entangled mixed start
        # give the same rho_I under the reduced-density composite, both in the
        # oracle that steps the joint state and in evolve_composite (3.4e-14 at
        # most), and not under the naive joint equation
        # i drho/dt = [H_I (x) 1 + 1 (x) H_II, rho^q] (4.7e-3 at least)
        rng = np.random.default_rng(11)
        rho = random_density_matrix(dims[0] * dims[1], rng)
        h1, h2 = (-SIGMA_Z + 0.3 * SIGMA_X if dims[0] == 2 else random_hermitian(3, rng, spectral_norm=1.0),
                  -SIGMA_Z if dims[1] == 2 else random_hermitian(3, rng, spectral_norm=1.0))
        cfg = IntegratorConfig(dt=1e-2, t_final=5.0, record_every=50)
        rho_1 = {"oracle": [], "composite": [], "naive": []}
        for mu2 in (0.7, 2.0):
            sys_ = CompositeSystem(dim_1=dims[0], dim_2=dims[1], h1=h1, h2=mu2 * h2, q1=q, q2=q)
            joint_h = np.kron(h1, np.eye(dims[1])) + np.kron(np.eye(dims[0]), mu2 * h2)
            for name, mats in (("oracle", joint_scheme_oracle(rho, sys_, cfg)),
                               ("composite", evolve_composite(rho, sys_, cfg).matrices),
                               ("naive", dynamics.evolve(rho, joint_h, PowerLaw(q), cfg).matrices)):
                rho_1[name].append(partial_trace(mats, dims)[0])
        gaps = {name: float(np.max(trace_distance(*pair))) for name, pair in rho_1.items()}
        assert gaps["oracle"] <= 1e-12 and gaps["composite"] <= 1e-12
        assert gaps["naive"] >= 1e-3
