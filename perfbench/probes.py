"""Fixed probe calls for the traced run.

`step_probes` times pairs of `evolve` calls on one seeded input per
dimension that differ only in `record_every`: the sparse call gives the
cost of a step, the difference the cost of recording a state.

`layer_probes` calls each layer once on small fixed inputs, under the
tracer. Its spans stand in for a layer that the workload itself never
calls, so that every per-layer time is measured on every workload.
"""
from __future__ import annotations

import json
import statistics
import tempfile
from pathlib import Path

import numpy as np

# dimension -> steps per call; record_every=1 is timed as well where listed
STEPS = {2: 1000, 4: 500, 16: 200, 64: 40}
RECORDED = (2, 64)
REPEATS = 3


def step_probes(nvne, seed, clock) -> dict:
    rng = np.random.default_rng([seed, 7])
    out = {}
    for dim, n in STEPS.items():
        h = nvne.random_hermitian(dim, rng, spectral_norm=1.0)
        rho = nvne.random_density_matrix(dim, rng)
        f = nvne.PowerLaw(q=2.0)
        times = {}
        for every in (n, 1) if dim in RECORDED else (n,):
            cfg = nvne.IntegratorConfig(dt=1e-3, t_final=n * 1e-3, record_every=every)
            runs = []
            for _ in range(REPEATS):
                t0 = clock()
                traj = nvne.dynamics.evolve(rho, h, f, cfg)
                runs.append(clock() - t0)
            times[every] = (statistics.median(runs), len(traj.times))
        sparse_s, sparse_rec = times[n]
        out[f"dynamics.step_us.d{dim}"] = sparse_s / n * 1e6
        if dim in RECORDED:
            dense_s, dense_rec = times[1]
            out[f"dynamics.record_us.d{dim}"] = (dense_s - sparse_s) / (dense_rec - sparse_rec) * 1e6
    return out


def layer_probes(nvne, workdir: Path, clock):
    """Returns (bytes written, spec build time)."""
    cli, ens = nvne.cli, nvne.ensemble
    out = Path(tempfile.mkdtemp(dir=workdir))
    cfg = {
        "kind": "evolve", "label": "probe",
        "system": {"dim": 2, "hamiltonian": {"preset": "spin-z", "mu": 1.0}}, "q": 2.0,
        "state": {"bloch": {"lam": 0.8, "phi": 1.0, "psi": 0.3}},
        "integrator": {"dt": 1e-3, "t_final": 0.2, "record_every": 1},
        "measure": {"precession": {"element": [0, 1]}},
    }
    path = out / "probe.json"
    path.write_text(json.dumps(cfg))
    cli.run_scenario(cli.load_config(str(path)), out_dir=out / "outputs")
    written = sum(p.stat().st_size for p in (out / "outputs").glob("*.csv"))

    z = nvne.SIGMA_Z
    sys_ = nvne.CompositeSystem(dim_1=2, dim_2=2, h1=-z, h2=-0.7 * z, q1=1.5, q2=2.5)
    icfg = nvne.IntegratorConfig(dt=1e-3, t_final=0.05, record_every=10)
    rho = nvne.random_density_matrix(4, np.random.default_rng(0))
    nvne.reduction_consistency(nvne.evolve_composite(rho, sys_, icfg), sys_, icfg)

    f = nvne.PowerLaw(q=3.0)
    t0 = clock()
    spec = ens.EnsembleSpec(weight=ens.sin_psi_half_weight, f=f, h=-z, n_lam=8, n_phi=8, n_psi=8)
    spec_s = clock() - t0
    for t in (0.5, 1.0, 1.5):
        ens.ensemble_average(spec, t)
        ens.dephasing_analytic(t, f, 1.0)
    tilted = ens.EnsembleSpec(weight=ens.tilted_weight, f=f, h=-(0.8 * z + 0.6 * nvne.SIGMA_X),
                              n_lam=2, n_phi=6, n_psi=6)
    ens.ensemble_average(tilted, 0.1, nvne.IntegratorConfig(dt=0.05, t_final=0.1))
    return written, spec_s
