"""Seeded workloads of the nvne benchmark.

A workload turns a seed into inputs (`setup`), then into one fixed round of
work (`work`, the timed part), and checks that round's results (`check`)
and, once per run, the program's results against references the benchmark
computes itself (`reference`). Scenarios go through `nvne run`
(`nvne.cli.main`) in-process; the `[PASS]`/`[FAIL]` assertion lines it
prints are counted as checks, as is its exit code.

The independent references are:
- the closed-form Larmor rate and precession of 2x2 spin-z states: f(rho)
  is affine in rho for 2x2 states, so rho(t) = exp(-iHbt) rho0 exp(iHbt)
  with b = (lam**q - (1-lam)**q) / (2*lam - 1) exactly;
- the same per-node formula, averaged with the benchmark's own quadrature,
  for ensembles in a tilted field;
- exp(-iHt) rho0 exp(iHt) for pure states, whose dynamics are linear;
- the benchmark's own partial traces of composite runs against separate
  runs of each subsystem.

Checks marked `known_defect` are pure states with q < 1 at d >= 3: a pair
of near-zero eigenvalues takes the divergent derivative limit of the
divided difference and the state leaves the linear orbit (see ROADMAP.md).
They count as failed; any other failure makes the run incorrect.

No decay-ratio check is made for the sin(psi/2) weight: its averaged
transverse components vanish identically for every power law (the lam
integrand is odd about 1/2 while the node frequency is even), so the ratio
would compare round-off with round-off. That is a property of the weight,
not of the code.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ASSERTION = re.compile(r"^\s+\[(PASS|FAIL)\] (\S+): value=(\S+) ")

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])

STEP_TOL = 1e-6  # trajectory vs closed form, where the step size sets the error
LARMOR_TOL = 1e-5  # relative error of the fitted precession rate
CLOSURE_TOL = 1e-7  # partial traces vs separate subsystem runs (round-off)


@dataclass
class Check:
    name: str
    passed: bool
    value: float = float("nan")
    known_defect: bool = False


@dataclass
class Scenario:
    name: str
    cfg: dict
    path: Path | None = None
    writes_outputs: bool = False
    known_defect: bool = False


@dataclass
class Inputs:
    scenarios: list
    extra: dict = field(default_factory=dict)


def check_value(name, value, tol, known_defect=False) -> Check:
    value = float(value)
    return Check(name, bool(value <= tol), value, known_defect)


def bloch(lam, phi, psi) -> np.ndarray:
    c = 0.5 * (2.0 * lam - 1.0)
    d = np.cos(phi) * SZ - np.sin(phi) * (np.cos(psi) * SX + np.sin(psi) * SY)
    return 0.5 * np.eye(2) + c * d


def rate(lam, q) -> float:
    """b with f(lam) - f(1-lam) = b (2 lam - 1) for f(x) = x**q."""
    return (lam**q - (1.0 - lam) ** q) / (2.0 * lam - 1.0)


def conjugate(h, t, rho) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return u @ rho @ u.conj().T


def partial_traces(m, d1, d2):
    t = m.reshape(d1, d2, d1, d2)
    return np.einsum("ijkj->ik", t), np.einsum("ijil->jl", t)


def pairs(m) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def parse_scenario(cli, path: Path) -> dict:
    """Load a generated config and run every parse step the CLI has for it."""
    cfg = cli.load_config(str(path))
    kind = cfg["kind"]
    system = cfg["system"]
    if kind == "evolve":
        dim = system["dim"]
        cli.parse_hamiltonian(system["hamiltonian"], "system.hamiltonian", dim)
        cli.parse_state(cfg["state"], "state", dim)
        cli.parse_deformation(cfg)
        cli.parse_integrator(cfg)
    elif kind == "composite":
        d1, d2 = system["dims"]
        cli.parse_hamiltonian(system["h1"], "system.h1", d1)
        cli.parse_hamiltonian(system["h2"], "system.h2", d2)
        cli.parse_state(cfg["state"], "state", d1 * d2)
        cli.parse_integrator(cfg)
    elif kind == "ensemble":
        cli.parse_hamiltonian(system["hamiltonian"], "system.hamiltonian", 2)
        cli.parse_deformation(cfg)
    return cfg


def write_scenarios(cli, scenarios, workdir: Path, clock) -> float:
    """Write each config as JSON and parse it back; returns the parse time."""
    parse_s = 0.0
    for sc in scenarios:
        sc.path = workdir / f"{sc.name}.json"
        sc.path.write_text(json.dumps(sc.cfg))
        t0 = clock()
        parse_scenario(cli, sc.path)
        parse_s += clock() - t0
    return parse_s


def run_cli(cli, sc: Scenario, out_root: Path | None):
    argv = ["run", str(sc.path)]
    if sc.writes_outputs:
        argv += ["--out", str(out_root / sc.name)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed run, not a benchmark crash
            code = f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue()


def cli_checks(sc: Scenario, code, text: str) -> list:
    """One check per printed assertion line, plus one that the run ended
    with the exit code its assertions imply."""
    out = []
    for line in text.splitlines():
        m = ASSERTION.match(line)
        if m:
            out.append(Check(f"{sc.name}/{m.group(2)}", m.group(1) == "PASS",
                             float(m.group(3)), sc.known_defect))
    expected = 0 if all(c.passed for c in out) else 1
    out.append(Check(f"{sc.name}/exit", bool(out) and code == expected))
    return out


def read_trajectory(path: Path):
    """(times, states) from trajectory.csv (elements column-major, re/im pairs)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    dim = int(round(np.sqrt((data.shape[1] - 7) / 2)))
    cols = data[:, 1:1 + 2 * dim * dim]
    z = cols[:, 0::2] + 1j * cols[:, 1::2]
    return data[:, 0], z.reshape(-1, dim, dim).transpose(0, 2, 1)


def csv_bytes(root: Path) -> int:
    """Bytes of the CSV outputs. summary.json is left out: it holds a
    wall-clock time, so its length changes from run to run."""
    return sum(p.stat().st_size for p in root.rglob("*.csv"))


class Workload:
    name = ""

    def scenarios(self, rng) -> Inputs:
        raise NotImplementedError

    def setup(self, nvne, seed: int, workdir: Path, clock):
        """Inputs from the seed; returns (inputs, parse_s, spec_s)."""
        inp = self.scenarios(np.random.default_rng(seed))
        parse_s = write_scenarios(nvne.cli, inp.scenarios, workdir, clock)
        t0 = clock()
        self.build_specs(nvne, inp)
        return inp, parse_s, clock() - t0 if inp.extra.get("specs") else 0.0

    def build_specs(self, nvne, inp) -> None:
        pass

    def work(self, nvne, inp, out_root: Path) -> dict:
        return {sc.name: run_cli(nvne.cli, sc, out_root) for sc in inp.scenarios}

    def check(self, nvne, inp, raw, out_root: Path):
        """(checks, figures) for one round."""
        checks = []
        for sc in inp.scenarios:
            checks += cli_checks(sc, *raw[sc.name])
        return checks, {}

    def reference(self, nvne, inp):
        """(checks, figures) made once per run against independent references."""
        return [], {}


# ---------------------------------------------------------------------------


class QubitSweep(Workload):
    """2x2 spin-z scenarios that record densely and write outputs."""

    name = "qubit-sweep"

    def scenarios(self, rng) -> Inputs:
        seeded_field = {"preset": "spin-z", "mu": float(rng.uniform(0.8, 1.2))}

        def angles():
            return float(rng.uniform(0.4, np.pi - 0.4)), float(rng.uniform(0.0, 2.0 * np.pi))

        # The phase error of a 2x2 step grows with cos(phi), mu and q, and
        # with lam towards 1 (it vanishes at phi = pi/2). The grid keeps phi,
        # mu and its stiffest corner (lam = 0.95, q = 3) fixed, so the worst
        # case does not depend on which other points a seed draws.
        lams = [0.55, *np.sort(rng.uniform(0.6, 0.9, 2)).tolist(), 0.95]
        q_values = [float(rng.uniform(1.5, 2.5)), 3.0]
        larmor = {
            "kind": "evolve", "label": "larmor",
            "system": {"dim": 2, "hamiltonian": {"preset": "spin-z", "mu": 1.0}},
            "q": q_values[0],
            "state": {"bloch": {"lam": lams[1], "phi": np.pi / 3, "psi": float(rng.uniform(0.0, 6.0))}},
            "integrator": {"dt": 1e-3, "t_final": 1.0, "record_every": 1},
            "measure": {"larmor_grid": {"lams": lams, "q_values": q_values}},
            "assertions": {"omega_relative_error": LARMOR_TOL, "sz_drift": 1e-9},
        }
        phi, psi = angles()
        pure = {
            "kind": "evolve", "label": "pure", "system": {"dim": 2, "hamiltonian": seeded_field},
            "q": float(rng.uniform(1.5, 3.0)), "state": {"bloch": {"lam": 1.0, "phi": phi, "psi": psi}},
            "integrator": {"dt": 1e-3, "t_final": 1.0, "record_every": 100},
            "measure": {"compare_linear": {"q_values": [2.0, 3.0]}},
            "assertions": {"linear_trace_distance": STEP_TOL},
        }
        phi, psi = angles()
        convergence = {
            "kind": "evolve", "label": "convergence", "system": {"dim": 2, "hamiltonian": seeded_field},
            "q": float(rng.uniform(1.5, 3.0)),
            "state": {"bloch": {"lam": float(rng.uniform(0.6, 0.9)), "phi": phi, "psi": psi}},
            "integrator": {"dt": 1e-3, "t_final": 1.0, "record_every": 10},
            "measure": {"convergence": {"dt": 4e-3, "t_final": 1.0, "reference_divisor": 10}},
            "assertions": {"convergence_ratio_min": 3.2, "convergence_ratio_max": 4.8},
        }
        return Inputs([Scenario(c["label"], c, writes_outputs=True)
                       for c in (larmor, pure, convergence)])

    def check(self, nvne, inp, raw, out_root):
        checks, _ = super().check(nvne, inp, raw, out_root)
        worst = 0.0
        for sc in inp.scenarios:
            cfg, out = sc.cfg, out_root / sc.name
            mu = cfg["system"]["hamiltonian"]["mu"]
            b = cfg["state"]["bloch"]
            h = -mu * SZ
            try:
                times, states = read_trajectory(out / "trajectory.csv")
                summary = json.loads((out / "summary.json").read_text())
            except (OSError, ValueError) as exc:
                checks.append(Check(f"{sc.name}/outputs_readable {exc}", False))
                continue
            icfg = cfg["integrator"]
            n_steps = int(np.ceil(icfg["t_final"] / icfg["dt"] - 1e-12))
            expected_rows = n_steps // icfg["record_every"] + 1 + (n_steps % icfg["record_every"] > 0)
            checks.append(Check(f"{sc.name}/recorded_states", len(times) == expected_rows, len(times)))
            rho0 = bloch(b["lam"], b["phi"], b["psi"])
            k = rate(b["lam"], cfg["q"])
            gap = max(np.max(np.abs(s - conjugate(h * k, t, rho0))) for t, s in zip(times, states))
            checks.append(check_value(f"{sc.name}/trajectory_vs_closed_form", gap, STEP_TOL))
            for p in summary["headline"].get("larmor_grid", {}).get("points", ()):
                exact = 2.0 * mu * rate(p["lam"], p["q"])
                rel = abs(p["omega_measured"] - exact) / exact
                worst = max(worst, rel)
                checks.append(check_value(f"{sc.name}/larmor_rate_q{p['q']:.3f}_lam{p['lam']:.3f}",
                                          rel, LARMOR_TOL))
        return checks, {"phase_error": worst, "bytes_written": csv_bytes(out_root)}


# ---------------------------------------------------------------------------


class DenseMixed(Workload):
    """Random Hamiltonians and states at d = 4..64, composites and pure
    states, all through the CLI without outputs."""

    name = "dense-mixed"

    def scenarios(self, rng) -> Inputs:
        def seed():
            return int(rng.integers(2**31))

        def h_random():
            return {"random": {"seed": seed(), "spectral_norm": 1.0}}

        out = []
        # (dim, t_final, record_every): d = 64 is BLAS-bound, d = 4 overhead-bound.
        # The energy is conserved only up to the step-size error, and the CLI
        # reports its drift relative to <H>_q at t = 0, which a random
        # Hamiltonian can put near 0 (6e-8 seen at d = 16, q = 0.85), so only
        # the invariants exact up to round-off are asserted here.
        for dim, t_final, every in ((4, 1.0, 50), (4, 1.0, 50), (16, 0.5, 25), (64, 0.15, 15)):
            out.append(Scenario(f"mixed-d{dim}-{len(out)}", {
                "kind": "evolve", "system": {"dim": dim, "hamiltonian": h_random()},
                "q": float(rng.uniform(0.5, 3.0)), "state": {"random": {"seed": seed()}},
                "integrator": {"dt": 1e-3, "t_final": t_final, "record_every": every},
                "assertions": {"eigenvalue_drift": 1e-9, "casimir_drift": 1e-8,
                               "hermiticity": 1e-12},
            }))
        # the 2x2 composite starts from a product of Bloch states with fixed
        # spectra and polar angles (seeded azimuths), so the step-size error
        # of its reductions, measured against the closed form, is seed-stable
        product = np.kron(bloch(0.8, np.pi / 3, rng.uniform(0.0, 6.0)),
                          bloch(0.7, np.pi / 3, rng.uniform(0.0, 6.0)))
        composites = (
            ((2, 2), {"preset": "spin-z", "mu": 1.0}, {"preset": "spin-z", "mu": 0.7}, (1.5, 2.5),
             {"matrix": pairs(product)}),
            ((4, 4), h_random(), h_random(), tuple(rng.uniform(1.2, 3.0, 2).tolist()),
             {"random": {"seed": seed()}}),
        )
        for (d1, d2), h1, h2, (q1, q2), state in composites:
            out.append(Scenario(f"composite-{d1}x{d2}", {
                "kind": "composite",
                "system": {"dims": [d1, d2], "h1": h1, "h2": h2, "q1": q1, "q2": q2},
                "state": state,
                "integrator": {"dt": 1e-3, "t_final": 0.3, "record_every": 30},
                "assertions": {"closure": CLOSURE_TOL, "casimir_drift": 1e-8,
                               "eigenvalue_drift": 1e-9},
            }))
        for dim in (3, 4, 8):
            h = h_random()
            vec = rng.normal(size=(dim, 2)).tolist()
            for q in (0.5, 2.0, 3.0):
                out.append(Scenario(f"pure-d{dim}-q{q:g}", {
                    "kind": "evolve", "system": {"dim": dim, "hamiltonian": h},
                    "q": q, "state": {"pure": vec},
                    "integrator": {"dt": 1e-3, "t_final": 0.25, "record_every": 250},
                    "measure": {"compare_linear": True},
                    "assertions": {"linear_trace_distance": STEP_TOL},
                }, known_defect=q < 1.0))
        return Inputs(out)

    def reference(self, nvne, inp):
        cli, dyn, comp, herm = nvne.cli, nvne.dynamics, nvne.composite, nvne.hermitian
        checks = []
        worst = 0.0
        for sc in inp.scenarios:
            cfg = sc.cfg
            system = cfg["system"]
            icfg = cli.parse_integrator(cfg)
            if sc.name.startswith("pure"):
                dim = system["dim"]
                h = cli.parse_hamiltonian(system["hamiltonian"], "h", dim)
                vec = np.asarray(cfg["state"]["pure"])
                psi = vec[:, 0] + 1j * vec[:, 1]
                psi = psi / np.linalg.norm(psi)
                rho0 = np.outer(psi, psi.conj())
                end = dyn.evolve(herm.validate_density(rho0), h, nvne.PowerLaw(q=cfg["q"]), icfg)
                gap = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(
                    end.states[-1].matrix - conjugate(h, end.times[-1], rho0))))
                checks.append(check_value(f"{sc.name}/vs_exact_linear", gap, STEP_TOL,
                                          sc.known_defect))
            elif cfg["kind"] == "composite":
                d1, d2 = system["dims"]
                hs = [cli.parse_hamiltonian(system[k], k, d) for k, d in (("h1", d1), ("h2", d2))]
                qs = (system["q1"], system["q2"])
                sys_ = comp.CompositeSystem(dim_1=d1, dim_2=d2, h1=hs[0], h2=hs[1], q1=qs[0], q2=qs[1])
                joint = comp.evolve_composite(cli.parse_state(cfg["state"], "state", d1 * d2), sys_, icfg)
                reduced = [partial_traces(s.matrix, d1, d2) for s in joint.states]
                for k in range(2):
                    sub = dyn.evolve(herm.validate_density(reduced[0][k]), hs[k],
                                     nvne.PowerLaw(q=qs[k]), icfg)
                    gap = max(np.max(np.abs(r[k] - s.matrix)) for r, s in zip(reduced, sub.states))
                    checks.append(check_value(f"{sc.name}/subsystem{k + 1}_vs_own_run", gap,
                                              CLOSURE_TOL))
                    if hs[k].shape == (2, 2):
                        rho0 = reduced[0][k]
                        lam = float(np.max(np.linalg.eigvalsh(rho0)))
                        hb = hs[k] * rate(lam, qs[k])
                        rel = max(abs(r[k][0, 1] - conjugate(hb, t, rho0)[0, 1])
                                  for r, t in zip(reduced, joint.times)) / abs(rho0[0, 1])
                        worst = max(worst, rel)
                        checks.append(check_value(f"{sc.name}/subsystem{k + 1}_vs_closed_form",
                                                  rel, LARMOR_TOL))
        return checks, {"phase_error": worst}


# ---------------------------------------------------------------------------


# The integrated path runs in a fixed field and deformation, with a fixed
# number of steps per time; only its first time is seeded. Its relative error
# grows with t and dt, so the worst case sits at the fixed last time (t = 1,
# dt = 1/40) and does not depend on the seed.
TILTED_Q = 3.0
TILTED_H = -(np.cos(0.7) * SZ + np.sin(0.7) * SX)
TILTED_STEPS = (24, 40)
TILTED_GRID = (2, 8, 8)


class EnsembleDephasing(Workload):
    """Closed-form ensemble averages, the integrated path in a tilted field,
    and per-node integrator cross-checks."""

    name = "ensemble-dephasing"

    def scenarios(self, rng) -> Inputs:
        q = float(rng.uniform(2.0, 3.0))
        mu = float(rng.uniform(0.8, 1.2))
        node_check = {
            "kind": "ensemble", "label": "node-check",
            "system": {"hamiltonian": {"preset": "spin-z", "mu": mu}}, "q": q,
            "ensemble": {"weight": "sin-psi-half", "n_lam": 16, "n_phi": 16, "n_psi": 16},
            "times": [1.0],
            "node_check": {"count": 3, "t_final": 0.3, "dt": 2.5e-4, "crosscheck_t_final": 0.2},
            "assertions": {"analytic_match": 1e-5, "node_eigenvalue_drift": 1e-9,
                           "node_crosscheck": 1e-8},
        }
        return Inputs([Scenario("node-check", node_check)], {
            "q": q, "mu": mu, "times": np.sort(rng.uniform(0.0, 40.0, 120)).tolist(),
            "tilted_times": (float(rng.uniform(0.3, 0.7)), 1.0),
        })

    def build_specs(self, nvne, inp) -> None:
        ens, x = nvne.ensemble, inp.extra
        f = nvne.PowerLaw(q=x["q"])
        x["specs"] = [
            (ens.EnsembleSpec(weight=ens.WEIGHTS[w], f=f, h=-x["mu"] * SZ), density)
            for w, density in (("sin-psi-half", None), ("tilted-lambda", lambda lam: 2.0 * lam))
        ]
        n_lam, n_phi, n_psi = TILTED_GRID
        x["tilted_spec"] = ens.EnsembleSpec(weight=ens.tilted_weight, f=nvne.PowerLaw(q=TILTED_Q), h=TILTED_H,
                                            n_lam=n_lam, n_phi=n_phi, n_psi=n_psi)

    def work(self, nvne, inp, out_root):
        ens, x = nvne.ensemble, inp.extra
        raw = super().work(nvne, inp, out_root)
        raw["analytic_gap"] = [
            max(float(np.max(np.abs(ens.ensemble_average(spec, t).matrix - ens.dephasing_analytic(
                t, spec.f, x["mu"], n_lam=64, lam_density=density).matrix))) for t in x["times"])
            for spec, density in x["specs"]
        ]
        raw["tilted"] = [
            ens.ensemble_average(x["tilted_spec"], t,
                                 nvne.dynamics.IntegratorConfig(dt=t / n, t_final=t)).matrix
            for t, n in zip(x["tilted_times"], TILTED_STEPS)
        ]
        return raw

    def check(self, nvne, inp, raw, out_root):
        checks, _ = super().check(nvne, inp, raw, out_root)
        for (spec, _), gap in zip(inp.extra["specs"], raw["analytic_gap"]):
            checks.append(check_value(f"closed-form-{spec.weight.__name__}/vs_analytic", gap, 1e-5))
        worst = 0.0
        for t, avg in zip(inp.extra["tilted_times"], raw["tilted"]):
            ref = self.tilted_reference(inp, t)
            rel = float(np.max(np.abs(avg - ref)) / np.max(np.abs(ref - 0.5 * np.eye(2))))
            worst = max(worst, rel)
            checks.append(check_value(f"tilted-t{t:.3f}/vs_exact_nodes", rel, 1e-3))
        return checks, {"phase_error": worst}

    @staticmethod
    def tilted_reference(inp, t) -> np.ndarray:
        """Quadrature average of exp(-iHbt) rho0 exp(iHbt) over the nodes,
        with the benchmark's own Gauss-Legendre grid and weight."""
        x = inp.extra
        cache = x.setdefault("tilted_ref", {})
        if t in cache:
            return cache[t]
        grids = []
        for n, hi in zip(TILTED_GRID, (1.0, np.pi, 2.0 * np.pi)):
            nodes, weights = np.polynomial.legendre.leggauss(n)
            grids.append((0.5 * hi * (nodes + 1.0), 0.5 * hi * weights))
        acc = np.zeros((2, 2), dtype=complex)
        for lam, wl in zip(*grids[0]):
            w_h, v_h = np.linalg.eigh(TILTED_H * rate(lam, TILTED_Q))
            u = (v_h * np.exp(-1j * w_h * t)) @ v_h.conj().T
            for phi, wp in zip(*grids[1]):
                for psi, ws in zip(*grids[2]):
                    weight = 2.0 * lam * np.sin(psi / 2.0) / 8.0 * np.sin(phi) * wl * wp * ws
                    acc += weight * (u @ bloch(lam, phi, psi) @ u.conj().T)
        cache[t] = acc
        return acc


WORKLOADS = {w.name: w for w in (QubitSweep(), DenseMixed(), EnsembleDephasing())}
