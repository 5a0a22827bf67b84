import copy
import importlib.util
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nvne
from nvne.cli import load_config, main, run_scenario
from nvne.errors import ConfigError, DomainError, NumericalFailure
from nvne.presets import PRESETS


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def tiny_evolve_config():
    return {
        "kind": "evolve",
        "label": "tiny",
        "system": {"dim": 2, "hamiltonian": {"preset": "spin-z", "mu": 1.0}},
        "q": 2.0,
        "state": {"bloch": {"lam": 0.75, "phi": 1.5707963267948966, "psi": 0.0}},
        "integrator": {"dt": 1e-2, "t_final": 1.0, "record_every": 10},
        "measure": {"precession": {"element": [0, 1]}},
        "assertions": {"eigenvalue_drift": 1e-9, "omega_relative_error": 1e-3},
    }


def run_module(*args):
    """`python -m` args in a separate process that imports this nvne."""
    src = str(Path(nvne.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    # as pytest turns an in-process RuntimeWarning into an error, so that a leaked one fails
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def run_in_subprocess(path, *args):
    """`nvne run --quiet` (plus args) in a separate process, so that an
    uncaught exception shows on stderr."""
    return run_module("nvne", "run", str(path), "--quiet", *args)


def with_leaf(base, key, value):
    """A copy of the config base with the dotted key set to value."""
    cfg = json.loads(json.dumps(base))
    *parents, leaf = key.split(".")
    node = cfg
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value
    return cfg


def assert_run_and_check_exit_2(tmp_path, capsys, cfg, key):
    """run exits 2 naming key without a traceback, and check, which runs the
    same parse, prints the same config error line."""
    path = write_config(tmp_path, cfg)
    proc = run_in_subprocess(path)
    assert proc.returncode == 2, proc.stderr
    assert f"config key {key} " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert main(["check", str(path)]) == 2
    error_line = [line for line in proc.stderr.splitlines() if line.startswith("config error:")]
    assert capsys.readouterr().err.splitlines() == error_line


# [re, im] entries of diag(-1, 1) with |h_01| = 1e-13, a field along z up
# to round-off, and of sigma_x
NEAR_Z = [[[-1.0, 0.0], [1e-13, 0.0]], [[1e-13, 0.0], [1.0, 0.0]]]
SIGMA_X_ENTRIES = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]

# smallest valid config of each kind that reaches the keys below
CAST_BASES = {
    "evolve": {
        "kind": "evolve",
        "system": {"dim": 2, "hamiltonian": {"random": {"seed": 1, "spectral_norm": 1.0}}},
        "q": 2.0,
        "state": {"random": {"seed": 2}},
        "integrator": {"dt": 1e-2, "t_final": 0.1},
        "measure": {"compare_linear": {"q_values": [1.5]},
                    "convergence": {"dt": 2e-2, "t_final": 0.1}},
    },
    "larmor": {**tiny_evolve_config(),
               "measure": {"precession": {"element": [0, 1]},
                           "larmor_grid": {"lams": [0.75], "q_values": [2.0]},
                           "stability_reference": {"bloch": {"lam": 0.75, "phi": 1.0, "psi": 0.0}}}},
    "composite": {
        "kind": "composite",
        "system": {"dims": [2, 2], "h1": {"preset": "spin-z", "mu": 1.0},
                   "h2": {"preset": "spin-z", "mu": 0.7}, "q1": 1.5, "q2": 2.5},
        "state": {"random": {"seed": 3}},
        "integrator": {"dt": 1e-2, "t_final": 0.1},
    },
    "equilibrium": {
        "kind": "equilibrium",
        "thermo": {"q": 2.0, "beta": 0.5, "mu": 1.0},
        "gibbs_check": {"beta": 0.5, "mu": 1.0},
        "grid": {"q_values": [2.0], "domain_products": [0.5]},
    },
    "bracket-check": {"kind": "bracket-check"},
    "series": {**{k: v for k, v in tiny_evolve_config().items() if k != "q"},
               "deformation": {"coeffs": [0.5, 0.5]}},
    "ensemble": {
        "kind": "ensemble",
        "system": {"hamiltonian": {"preset": "spin-z", "mu": 1.0}},
        "q": 3.0,
        "ensemble": {"weight": "tilted-lambda", "n_lam": 16, "n_phi": 16, "n_psi": 16},
        "times": [0.0],
        "decay": {"t_late": 30.0},
    },
}

MALFORMED_CASTS = [
    ("evolve", "system.dim", "x"),
    ("evolve", "system.dim", 0),
    ("evolve", "system.hamiltonian.random.seed", "x"),
    ("evolve", "system.hamiltonian.random.spectral_norm", "x"),
    ("evolve", "system.hamiltonian.random.spectral_norm", -1.0),
    ("evolve", "system.hamiltonian.random.spectral_norm", 0.0),
    ("evolve", "state.random.seed", -1),
    ("evolve", "measure.convergence.reference_divisor", "x"),
    ("evolve", "measure.compare_linear.q_values", ["x"]),
    ("larmor", "measure.precession.element", ["x", 1]),
    ("larmor", "measure.precession.element", [0, 2]),
    ("larmor", "measure.larmor_grid.lams", ["x"]),
    ("larmor", "measure.larmor_grid.q_values", "x"),
    ("composite", "system.dims", ["x", 2]),
    ("equilibrium", "gibbs_check.epsilon", "x"),
    ("equilibrium", "grid.q_values", ["x"]),
    ("equilibrium", "thermo.mu", 0.0),
    ("equilibrium", "gibbs_check.mu", -1.0),
    # wrong container types
    ("evolve", "state.pure", [["x", 0.0], [1.0, 0.0]]),
    ("evolve", "measure", [1]),
    ("evolve", "measure.convergence", 3),
    ("evolve", "assertions", [1]),
    ("series", "deformation.coeffs", ["x"]),
    ("equilibrium", "grid", [1]),
    # values their domain objects reject
    ("evolve", "measure.compare_linear.q_values", [-1]),
    ("larmor", "measure.larmor_grid.lams", [2.0]),
    # a start with no transverse signal, which a field along z keeps at 0
    ("larmor", "measure.larmor_grid.lams", [0.5]),
    ("evolve", "measure.convergence.dt", 5.0),
    ("ensemble", "node_check.dt", -0.01),
    # a step count and a record_every that do not fit an index
    ("evolve", "integrator.dt", 1e-300),
    ("evolve", "integrator.record_every", 10**30),
    # 10^10 recorded states, about 1.3 TB of stacks at d = 2, which check
    # accepted and run died allocating
    ("evolve", "integrator", {"dt": 1e-9, "t_final": 10.0}),
    # a cross-check horizon past the node run it is read from
    ("ensemble", "node_check.crosscheck_t_final", 30.0),
    # spins outside the q-equilibrium domain |q-1| beta mu < 1, which check
    # accepted and run rejected (1 + (q-1) beta E = 0 at the first)
    ("equilibrium", "thermo", {"q": 2.0, "beta": 0.5, "mu": 2.0}),
    ("equilibrium", "gibbs_check", {"beta": 0.5, "mu": 3e6}),
    ("evolve", "q", -1),
    ("evolve", "state.pure", [[0.0, 0.0], [0.0, 0.0]]),
    ("ensemble", "times", [-1.0]),
    ("composite", "state", {"bloch": {"lam": 0.75, "phi": 0.0, "psi": 0.0}}),
    ("ensemble", "system.hamiltonian",
     {"matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}),
    # counts below 1
    ("ensemble", "node_check.count", 0),
    ("ensemble", "ensemble.n_lam", 0),
    ("ensemble", "ensemble.n_phi", 0),
    ("ensemble", "ensemble.n_psi", 0),
    # a rule whose n x n companion matrix is past the record budget, which
    # check ended in a traceback building
    ("ensemble", "ensemble.n_lam", 10**7),
    # more nodes to check than the grid has, whose index array check ended
    # in a traceback allocating
    ("ensemble", "node_check.count", 10**15),
    # empty lists of points, which made their assertions pass on nothing
    ("larmor", "measure.larmor_grid.lams", []),
    ("larmor", "measure.larmor_grid.q_values", []),
    ("ensemble", "times", []),
    ("equilibrium", "grid.q_values", []),
    ("equilibrium", "grid.domain_products", []),
    ("evolve", "measure.compare_linear.q_values", []),
    # single-key rules of a domain object, named at the key rather than at
    # the object that holds it
    ("composite", "system.q1", -1),
    ("composite", "system.q1", 0),
    ("composite", "system.q2", -1),
    ("composite", "system.q2", 0),
    ("equilibrium", "thermo.q", -1),
    ("equilibrium", "thermo.q", 0),
    ("equilibrium", "thermo.beta", -1),
    ("equilibrium", "thermo.beta", 0),
    ("equilibrium", "gibbs_check.beta", -1),
    ("equilibrium", "gibbs_check.beta", 0),
    ("equilibrium", "grid.q_values", [-1]),
    ("equilibrium", "grid.q_values", [0]),
    ("equilibrium", "grid.domain_products", [-1]),
    ("equilibrium", "grid.domain_products", [0]),
    ("equilibrium", "grid.domain_products", [1]),
    ("equilibrium", "grid.domain_products", [1.5]),
    ("larmor", "state.bloch.lam", -1),
    ("larmor", "measure.stability_reference.bloch.lam", -1),
    # a misspelt measure name
    ("larmor", "measure.precesion", {"element": [0, 1]}),
    # keys that no parse reads: integrator keys other than dt, t_final and
    # record_every, misspelt keys in every section, a second Hamiltonian form
    ("evolve", "integrator.record_evry", 5),
    ("evolve", "integrator.scheme", "euler"),
    ("evolve", "integrater", {"dt": 1e-2, "t_final": 0.1}),
    ("evolve", "measure.convergence.reference_divisr", 3),
    ("evolve", "system.hamiltonian.random.spectral_nrm", 1.0),
    ("evolve", "state.random.sed", 2),
    ("larmor", "system.hamiltonian.matrix", [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]),
    ("composite", "system.q3", 2.0),
    ("equilibrium", "gibbs_check.epsilom", 1e-6),
    ("ensemble", "node_check.dtt", 1e-3),
    ("ensemble", "decay.sampels", 201),
    ("bracket-check", "n_functional", 20),
    # and settings that no longer exist, at their old defaults
    ("evolve", "output", {"dir": "out", "formats": ["csv", "json"]}),
    ("equilibrium", "gibbs_check.epsilon", 1e-6),
    ("ensemble", "decay.window", [0.0, 20.0]),
    ("ensemble", "decay.samples", 201),
    ("bracket-check", "dim", 3),
    ("bracket-check", "seed", 7),
    ("bracket-check", "n_functionals", 20),
    ("bracket-check", "casimir_orders", 4),
    ("bracket-check", "average_orders", 3),
    ("series", "deformation.kind", "series"),
    ("series", "deformation.q", 2.0),
    # the non-JSON token NaN, which json.loads reads; check printed label=nan
    ("evolve", "label", float("nan")),
]


class TestConfigValidation:
    def test_missing_kind(self, tmp_path):
        path = write_config(tmp_path, {"label": "x"})
        with pytest.raises(ConfigError, match="kind"):
            load_config(str(path))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_error_names_offending_key(self, tmp_path):
        cfg = tiny_evolve_config()
        cfg["integrator"]["dt"] = -1.0
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match="integrator"):
            run_scenario(load_config(str(path)))

    def test_nonhermitian_matrix_rejected(self, tmp_path):
        cfg = tiny_evolve_config()
        cfg["system"]["hamiltonian"] = {
            "matrix": [[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        }
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match="hamiltonian"):
            run_scenario(load_config(str(path)))

    def test_unknown_assertion_name(self, tmp_path):
        cfg = tiny_evolve_config()
        cfg["assertions"] = {"no_such_quantity": 1.0}
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match="no_such_quantity"):
            run_scenario(load_config(str(path)))


class TestExitCodes:
    def test_run_success(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_evolve_config())
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_check_only(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_evolve_config())
        assert main(["check", str(path)]) == 0
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_2(self, tmp_path):
        path = write_config(tmp_path, {"kind": "no-such-kind"})
        assert main(["run", str(path)]) == 2

    def test_assertion_failure_exit_1(self, tmp_path):
        cfg = tiny_evolve_config()
        cfg["assertions"]["omega_relative_error"] = 1e-30
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path), "--quiet"]) == 1

    def test_domain_error_exit_3(self, tmp_path, monkeypatch, capsys):
        # a domain error raised during a run, past every check of the parse
        def fail(*args, **kwargs):
            raise DomainError("no such state")

        path = write_config(tmp_path, tiny_evolve_config())
        assert main(["check", str(path)]) == 0
        monkeypatch.setattr(nvne.dynamics, "evolve", fail)
        assert main(["run", str(path)]) == 3
        assert capsys.readouterr().err.splitlines() == ["domain error: no such state"]

    @pytest.mark.parametrize("product", [0.99, 0.999])
    def test_equilibrium_next_to_the_domain_edge(self, tmp_path, capsys, product):
        # the excited population, about 3e-12 and 3e-17 here, is formed on
        # its own rather than as 1 - lam
        cfg = {**CAST_BASES["equilibrium"],
               "grid": {"q_values": [1.2], "domain_products": [product]},
               "assertions": {"grid_stationarity": 1e-8, "grid_second_derivative_positive": 0.0}}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("product", [-1, 0])
    def test_domain_product_error_quotes_the_product(self, tmp_path, capsys, product):
        # not the beta = c / (|q-1| mu) derived from it, which the config never set
        cfg = with_leaf(CAST_BASES["equilibrium"], "grid.domain_products", [product])
        assert main(["check", str(write_config(tmp_path, cfg))]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: config key grid.domain_products must lie in (0, 1), got {product}\n"
        assert "beta" not in err

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
                             ids=["not-utf8", "nested-1e5-deep"])
    def test_unparsable_config_file_exit_2_names_file(self, tmp_path, capsys, content):
        # a UnicodeDecodeError and a RecursionError, which ended in tracebacks
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"config file {path}" in err

    @pytest.mark.parametrize("key", ["assertions", "dim"], ids=["top-level", "nested"])
    def test_repeated_key_exit_2(self, tmp_path, capsys, key):
        # json.loads kept a repeated key's last value without a word: check
        # said ok and run exited 0 on a failing first assertions block
        cfg = {**tiny_evolve_config(), "assertions": {"eigenvalue_drift": -1.0}}
        text = json.dumps(cfg)
        if key == "assertions":
            text = text[:-1] + ', "assertions": {}}'
        else:
            text = text.replace('"dim": 2', '"dim": 4, "dim": 2')
        path = tmp_path / "scenario.json"
        path.write_text(text)
        for command in (["check", str(path)], ["run", str(path), "--quiet"]):
            assert main(command) == 2
            assert capsys.readouterr().err == f"config error: config key {key} is repeated in one object\n"

    @pytest.mark.parametrize("mu", [0.5, 2.0, 4.0])
    def test_grid_that_check_accepts_runs(self, tmp_path, capsys, mu):
        # a domain product c = |q-1| beta mu in (0, 1) keeps every grid point
        # inside the domain whatever thermo.mu is; a beta of c/|q-1| put the
        # q = 0.5 points at 1 - 0.8 mu < 0 for mu = 2 and 4, and run exited 3
        cfg = {"kind": "equilibrium", "thermo": {"q": 2.0, "beta": 0.2, "mu": mu},
               "grid": {"q_values": [0.5, 3.0], "domain_products": [0.8, 0.99]},
               "assertions": {"grid_stationarity": 1e-8, "grid_second_derivative_positive": 0.0}}
        path = write_config(tmp_path, cfg)
        assert main(["check", str(path)]) == 0
        assert main(["run", str(path), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_underflowing_population_exit_3(self, tmp_path):
        # exp(-2000) underflows: one error line, no numpy RuntimeWarning
        cfg = {"kind": "equilibrium", "thermo": {"q": 1, "beta": 1000, "mu": 1}}
        path = write_config(tmp_path, cfg)
        proc = run_in_subprocess(path)
        assert proc.returncode == 3, proc.stderr
        assert [line for line in proc.stderr.splitlines() if line] == [
            "error: q-equilibrium population 0.000e+00 is out of floating-point range at beta = 1000"]
        # check finds the equilibrium as run does
        assert main(["check", str(path)]) == 3

    @pytest.mark.parametrize("key, value", [("thermo.beta", 1e-320), ("gibbs_check.beta", 1e-320),
                                            ("grid.domain_products", [1e-320]), ("grid.q_values", [1e308])])
    def test_beta_without_finite_temperature_exit_2(self, tmp_path, key, value):
        # T = 1/beta = inf: run exited 3, calling an in-range population of 1/2 out of range
        proc = run_in_subprocess(write_config(tmp_path, with_leaf(PRESETS["criterion4-equilibrium"], key, value)))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"config error: config key {key} is invalid: beta = ")
        assert proc.stderr.endswith(" has no finite temperature 1/beta\n")

    @pytest.mark.parametrize("section, key, value", [
        ("integrator", "dt", float("nan")),
        ("integrator", "t_final", float("inf")),
        ("integrator", "record_every", "x"),
        (None, "q", float("nan")),
    ])
    def test_malformed_value_exit_2_names_key(self, tmp_path, section, key, value):
        cfg = tiny_evolve_config()
        (cfg[section] if section else cfg)[key] = value
        proc = run_in_subprocess(write_config(tmp_path, cfg))
        assert proc.returncode == 2, proc.stderr
        assert f"config key {section + '.' if section else ''}{key} " in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind, key, value", MALFORMED_CASTS,
                             ids=[f"{kind}:{key}={value}" for kind, key, value in MALFORMED_CASTS])
    def test_malformed_cast_exit_2_names_key(self, tmp_path, capsys, kind, key, value):
        assert_run_and_check_exit_2(tmp_path, capsys, with_leaf(CAST_BASES[kind], key, value), key)

    @pytest.mark.parametrize("base, key, value, named", [
        # spin-z is 2x2 whatever system.dim says: check accepted it and run exited 3
        ("larmor", "system.dim", 4, "system.hamiltonian.preset"),
        # sizes past the record budget at any step count, whose Hamiltonian or
        # state check ended in a traceback building
        ("evolve", "system.dim", 10**7, "integrator"),
        ("composite", "system.dims", [10**6, 10**6], "integrator"),
    ], ids=["spin-z-dim-4", "dim-1e7", "dims-1e6"])
    def test_size_error_exit_2_names_key(self, tmp_path, capsys, base, key, value, named):
        assert_run_and_check_exit_2(tmp_path, capsys, with_leaf(CAST_BASES[base], key, value), named)

    def test_quadrature_grid_past_budget_exit_2(self, tmp_path, monkeypatch, capsys):
        # 10^9 nodes; each rule is within the budget, the product grid is not
        def fail(*args):
            raise AssertionError("a quadrature rule was built")

        monkeypatch.setattr(nvne.ensemble, "gauss_legendre", fail)
        sizes = {"n_lam": 1000, "n_phi": 1000, "n_psi": 1000}
        path = write_config(tmp_path, with_leaf(CAST_BASES["ensemble"], "ensemble",
                                                {"weight": "tilted-lambda", **sizes}))
        for command in ("check", "run"):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr().err.startswith(
                "config error: config key ensemble is invalid: 1000000000 quadrature nodes ")

    @pytest.mark.parametrize("sizes, count", [((16, 16, 16), 3), ((4, 6, 10), 5), ((1, 1, 1), 1)])
    def test_node_check_never_builds_the_product_grid(self, tmp_path, monkeypatch, sizes, count):
        # a flat weight normalized on this grid, so that 1 x 1 x 1 constructs too
        (_, wl), (phi, wp), (_, ws) = (nvne.ensemble.gauss_legendre(n, 0.0, b)
                                       for n, b in zip(sizes, (1.0, np.pi, 2.0 * np.pi)))
        scale = 1.0 / (np.sum(wl) * np.sum(np.sin(phi) * wp) * np.sum(ws))

        def flat(lam, phi, psi):
            return np.full(np.shape(lam), scale)

        monkeypatch.setitem(nvne.ensemble.WEIGHTS, "tilted-lambda", flat)
        shape = dict(zip(("n_lam", "n_phi", "n_psi"), sizes))
        # the node choice read off the product grid, as the node check once did
        spec = nvne.ensemble.EnsembleSpec(weight=flat, f=nvne.PowerLaw(q=3.0), h=-nvne.SIGMA_Z, **shape)
        grid = np.meshgrid(*(nodes for nodes, _ in spec.rules()), indexing="ij")
        idx = np.linspace(0, grid[0].size - 1, count).astype(int)
        expected = [tuple(float(x.flat[i]) for x in grid) for i in idx]
        chosen = []
        evolve_node = nvne.ensemble.evolve_node

        def record(spec, lam, phi, psi, t):
            chosen.append((lam, phi, psi))
            return evolve_node(spec, lam, phi, psi, t)

        monkeypatch.setattr(nvne.ensemble, "evolve_node", record)
        cfg = with_leaf(CAST_BASES["ensemble"], "ensemble", {"weight": "tilted-lambda", **shape})
        cfg["node_check"] = {"count": count, "t_final": 0.5, "dt": 1e-2}
        path = write_config(tmp_path, cfg)
        assert main(["check", str(path)]) == 0
        assert main(["run", str(path), "--quiet"]) == 0
        assert chosen == expected

    def test_cast_bases_validate(self, tmp_path):
        # so that each cast above is the only error in its config
        for kind, cfg in CAST_BASES.items():
            assert main(["check", str(write_config(tmp_path, cfg, f"{kind}.json"))]) == 0

    @pytest.mark.parametrize("key", ["q_values", "domain_products"])
    def test_grid_without_points_exit_2(self, tmp_path, capsys, key):
        cfg = json.loads(json.dumps(CAST_BASES["equilibrium"]))
        del cfg["grid"][key]
        assert main(["check", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == f"config error: missing config key: grid.{key}\n"

    def test_empty_decay_section_exit_2(self, tmp_path, capsys):
        # a section is given when its key is present, so an empty one misses
        # t_late rather than measuring nothing
        path = write_config(tmp_path, {**CAST_BASES["ensemble"], "decay": {},
                                       "assertions": {"decay_ratio": 0.5}})
        for command in ("check", "run"):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr().err == "config error: missing config key: decay.t_late\n"

    def test_empty_node_check_section_runs_the_defaults(self, tmp_path, monkeypatch):
        # 4 nodes, each run to t = 20 at dt = 1e-3, recording every 2000
        # steps, the steps to the cross-check at t = 2
        runs, evolve = [], nvne.dynamics.evolve

        def recorded(rho0, h, f, icfg, **kwargs):
            runs.append((icfg.dt, icfg.t_final, icfg.record_every, kwargs))
            return evolve(rho0, h, f, icfg, **kwargs)

        monkeypatch.setattr(nvne.dynamics, "evolve", recorded)
        cfg = {**CAST_BASES["ensemble"], "node_check": {},
               "assertions": {"node_eigenvalue_drift": 1e-9, "node_crosscheck": 1e-7}}
        assert main(["check", str(write_config(tmp_path, cfg))]) == 0
        report = run_scenario(cfg)
        assert report.passed
        assert runs == [(1e-3, 20.0, 2000, {})] * 4

    @pytest.mark.parametrize("key, value", [("state.bloch.lam", 0.5), ("state.bloch.phi", 0.0)])
    def test_precession_without_signal_exit_2(self, tmp_path, capsys, key, value):
        # |rho_01| = |2 lam - 1| sin(phi) / 2 is 0, and a field along z keeps
        # it there, so run's phase fit would fail after integrating
        assert_run_and_check_exit_2(tmp_path, capsys, with_leaf(CAST_BASES["larmor"], key, value),
                                    "measure.precession.element")

    @pytest.mark.parametrize("matrix, bloch", [
        # a field along z up to round-off, |h_01| = 1e-13, at the maximally
        # mixed start, which commutes with H
        (NEAR_Z, {"lam": 0.5, "phi": 1.0, "psi": 0.0}),
        # ... and at a start that does not, with |rho_01| = sin(1e-7) / 2
        (NEAR_Z, {"lam": 1.0, "phi": 1e-7, "psi": 0.0}),
        # H = sigma_x, of which the maximally mixed start is a fixed point
        (SIGMA_X_ENTRIES, {"lam": 0.5, "phi": 1.0, "psi": 0.0}),
        # ... and a start along z, whose rho_01 leaves 0 under it
        (SIGMA_X_ENTRIES, {"lam": 0.75, "phi": 0.0, "psi": 0.0}),
    ], ids=["near-z-mixed", "near-z-tilted", "sigma-x-mixed", "sigma-x-along-z"])
    def test_precession_start_below_floor_exit_2(self, tmp_path, capsys, matrix, bloch):
        # the phase fit reads |rho_01| at t = 0 too, so run would exit 3 after integrating
        cfg = {**tiny_evolve_config(), "system": {"dim": 2, "hamiltonian": {"matrix": matrix}},
               "state": {"bloch": bloch}, "measure": {"precession": {}}, "assertions": {}}
        assert_run_and_check_exit_2(tmp_path, capsys, cfg, "measure.precession.element")

    @pytest.mark.parametrize("key", ["decay.t_late", "system.hamiltonian.mu"])
    def test_overflowing_ensemble_phase_exit_3(self, tmp_path, key):
        # omega t past the float range (or an infinite omega at t = 0) names
        # the phase, with no numpy warning on the way
        cfg = with_leaf(CAST_BASES["ensemble"], key, 1e308)
        proc = run_in_subprocess(write_config(tmp_path, cfg))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: the phase omega*t is not finite at t = "), proc.stderr
        assert "Warning" not in proc.stderr

    def test_unwritable_out_exit_3(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        proc = run_in_subprocess(write_config(tmp_path, tiny_evolve_config()), "--out", str(blocker))
        assert proc.returncode == 3, proc.stderr
        assert "error: cannot write outputs" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("dim", [2, 3])
    def test_hamiltonian_near_float_max_exit_3(self, tmp_path, dim):
        # finite entries pass check; H + H^dagger and the generator overflow,
        # which run reports as a numerical failure, without a traceback
        diag = [1.5e308, -1.5e308, 0.5][:dim]
        matrix = [[[diag[i] if i == j else 0.0, 0.0] for j in range(dim)] for i in range(dim)]
        path = write_config(tmp_path, {
            "kind": "evolve", "system": {"dim": dim, "hamiltonian": {"matrix": matrix}},
            "q": 2.0, "state": {"random": {"seed": 2}}, "integrator": {"dt": 1e-2, "t_final": 0.1}})
        assert main(["check", str(path)]) == 0
        proc = run_in_subprocess(path)
        assert proc.returncode == 3, proc.stderr
        assert any(line.startswith("error: ") for line in proc.stderr.splitlines()), proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr, proc.stderr

    def test_numerical_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        def fail(traj, element):
            raise NumericalFailure("phase fit unreliable")

        monkeypatch.setattr(nvne.dynamics, "precession_frequency", fail)
        assert main(["run", str(write_config(tmp_path, tiny_evolve_config())), "--quiet"]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: phase fit unreliable"]
        assert "Traceback" not in captured.err + captured.out

    def test_numerical_failure_in_parse_exit_3(self, tmp_path, monkeypatch, capsys):
        # a failed eigensolver while a state matrix is validated is no bad key
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        cfg = {**tiny_evolve_config(), "state": {"matrix": [[[0.75, 0.0], [0.0, 0.0]],
                                                            [[0.0, 0.0], [0.25, 0.0]]]}}
        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert main(["check", str(write_config(tmp_path, cfg))]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: eigensolver failed: eigenvalues did not converge"]

    @pytest.mark.parametrize("key, edit", [
        ("times", lambda cfg: cfg.update(times=[1.0, float("nan")])),
        ("ensemble.n_lam", lambda cfg: cfg["ensemble"].update(n_lam="x")),
        ("decay.samples", lambda cfg: cfg["decay"].update(samples=2.5)),
    ], ids=["times-nan", "n_lam-string", "samples-fraction"])
    def test_malformed_ensemble_value_exit_2_names_key(self, tmp_path, capsys, key, edit):
        # a NaN time used to give a NaN average that passed every assertion
        cfg = {
            "kind": "ensemble",
            "system": {"hamiltonian": {"preset": "spin-z", "mu": 1.0}},
            "q": 3.0,
            "ensemble": {"weight": "tilted-lambda", "n_lam": 16, "n_phi": 16, "n_psi": 16},
            "times": [0.0, 1.0],
            "decay": {"t_late": 30.0},
            "assertions": {"analytic_match": 1e-4},
        }
        edit(cfg)
        assert main(["run", str(write_config(tmp_path, cfg)), "--quiet"]) == 2
        assert f"config key {key} " in capsys.readouterr().err

    def test_out_flag_is_the_only_output_directory(self, tmp_path, monkeypatch):
        # an NVNE_OUT in the environment chooses no directory
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("NVNE_OUT", str(tmp_path / "env_out"))
        path = write_config(tmp_path, tiny_evolve_config())
        assert main(["run", str(path), "--quiet"]) == 0
        assert sorted(tmp_path.iterdir()) == [path]
        assert main(["run", str(path), "--out", "flag_out", "--quiet"]) == 0
        assert sorted(p.name for p in (tmp_path / "flag_out").iterdir()) == [
            "plotdata.csv", "summary.json", "trajectory.csv"]
        assert not (tmp_path / "env_out").exists()


def leaf_paths(node, path=()):
    """Key paths of every leaf of a JSON tree (empty containers count as leaves)."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path]
    return [p for key, child in children for p in leaf_paths(child, path + (key,))] or [path]


DELETE = object()
INSERT = object()  # adds an unknown key to the object that holds the leaf
FUZZ_POOL = [DELETE, INSERT, None, -1, 0, 0.5, "x", [], {}, [1], True, float("nan")]


class TestFuzzedConfigs:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(base=st.sampled_from(sorted(CAST_BASES)), data=st.data())
    def test_check_and_run_agree(self, tmp_path, capsys, base, data):
        cfg = json.loads(json.dumps(CAST_BASES[base]))
        *parents, leaf = data.draw(st.sampled_from(leaf_paths(cfg)), label="leaf")
        value = data.draw(st.sampled_from(FUZZ_POOL), label="value")
        node = owner = cfg
        for key in parents:
            node = node[key]
            owner = node if isinstance(node, dict) else owner
        if value is DELETE:
            del node[leaf]
        elif value is INSERT:
            owner["unknown_key"] = 1
        else:
            node[leaf] = value
        path = str(write_config(tmp_path, cfg))
        check = main(["check", path])
        run = main(["run", path, "--quiet"])
        capsys.readouterr()
        assert check in (0, 2, 3) and run in (0, 1, 2, 3)
        assert (check == 2) == (run == 2), (check, run, cfg)
        if value is INSERT:
            assert check == 2, cfg

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_extreme_numbers_parse(self, tmp_path, capsys, name):
        # every numeric leaf of the preset at each extreme: check exits 0, 2 or
        # 3 with no exception and no warning, and a beta of 1e-320, whose
        # temperature 1/beta overflows, is a config error
        failures = []
        for *parents, leaf in leaf_paths(PRESETS[name]):
            for value in (1e308, -1e308, 1e-320):
                cfg = json.loads(json.dumps(PRESETS[name]))
                node = cfg
                for key in parents:
                    node = node[key]
                if isinstance(node[leaf], bool) or not isinstance(node[leaf], (int, float)):
                    break
                node[leaf] = value
                path = str(write_config(tmp_path, cfg))
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    try:
                        code = main(["check", path])
                    except Exception as exc:
                        code = repr(exc)
                beta = value == 1e-320 and ("beta" in parents + [leaf] or "domain_products" in parents)
                if code not in ((2,) if beta else (0, 2, 3)):
                    failures.append((*parents, leaf, value, code))
        capsys.readouterr()
        assert not failures


DECLARED = pytest.mark.parametrize(
    "cfg", [PRESETS[name] for name in sorted(PRESETS)] + list(CAST_BASES.values()),
    ids=sorted(PRESETS) + [f"cast-{kind}" for kind in CAST_BASES])


class TestDeclaredNames:
    @DECLARED
    def test_declared_names_are_measured(self, cfg):
        # the results' top-level numbers are exactly the names an assertion
        # may read; every other value sits in a block named for its measure
        names, run = nvne.cli.KINDS[cfg["kind"]](cfg)
        results = run()[0]
        assert set(names) == {key for key, value in results.items() if not isinstance(value, dict)}

    @DECLARED
    def test_assertions_read_the_headline(self, cfg):
        # every declared name asserted, each valued as its headline entry
        names = nvne.cli.KINDS[cfg["kind"]](cfg)[0]
        report = run_scenario({**cfg, "assertions": {**dict.fromkeys(names, 0.0), **cfg.get("assertions", {})}})
        assert {a.name for a in report.assertions} == set(names)
        assert all(a.value == report.headline[a.name] for a in report.assertions)

    @pytest.mark.parametrize("order", [1, -1], ids=["declared", "reversed"])
    def test_larmor_grid_keeps_the_worst_case(self, monkeypatch, order):
        # the run's own point (lam = 0.95, q = 3) has a larger phase error and
        # sz drift than the grid's points (0.55 at q = 1 and 1.5), in either measure order
        monkeypatch.setattr(nvne.cli, "MEASURES", dict(list(nvne.cli.MEASURES.items())[::order]))
        cfg = {"kind": "evolve", "system": {"dim": 2, "hamiltonian": {"preset": "spin-z", "mu": 1.0}},
               "q": 3.0, "state": {"bloch": {"lam": 0.95, "phi": 1.0, "psi": 0.0}},
               "integrator": {"dt": 2e-2, "t_final": 2.0}, "measure": {"precession": {}}}
        alone = run_scenario(cfg).headline
        grid = {"larmor_grid": {"lams": [0.55], "q_values": [1.0, 1.5]}}
        both = run_scenario({**cfg, "measure": {"precession": {}, **grid}}).headline
        only_grid = run_scenario({**cfg, "measure": grid}).headline
        assert alone["omega_relative_error"] > 1e-5 and alone["sz_drift"] > 1e-7
        assert both["omega_relative_error"] == alone["omega_relative_error"]
        assert both["sz_drift"] == only_grid["sz_drift"] == alone["sz_drift"]
        assert only_grid["omega_relative_error"] < 1e-7
        # at q = 1 every eigenvalue precesses at 2 mu
        assert only_grid["larmor_grid"]["points"][0]["omega_measured"] == pytest.approx(2.0, abs=1e-12)


class TestOutputs:
    def test_trajectory_csv_layout(self, tmp_path):
        out = tmp_path / "out"
        report = run_scenario(tiny_evolve_config(), out_dir=out)
        assert report.passed
        header = (out / "trajectory.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "t"
        assert header[1:5] == ["re_rho_00", "im_rho_00", "re_rho_10", "im_rho_10"]
        assert header[-6:] == ["C1", "C2", "C3", "C4", "C5", "Hq"]

    def test_constant_columns_for_fixed_point(self, tmp_path):
        cfg = tiny_evolve_config()
        cfg["state"] = {"bloch": {"lam": 0.5, "phi": 0.0, "psi": 0.0}}
        cfg["measure"] = {}
        cfg["assertions"] = {"eigenvalue_drift": 1e-12}
        run_scenario(cfg, out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        for col in ("C1", "C2", "C3", "C4", "C5", "Hq"):
            values = np.array([float(row[header.index(col)]) for row in rows])
            assert np.max(np.abs(values - values[0])) < 1e-12

    def test_energy_column_conserved_q2(self, tmp_path):
        out = tmp_path / "out"
        run_scenario(tiny_evolve_config(), out_dir=out)
        lines = (out / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        hq = np.array([float(line.split(",")[header.index("Hq")]) for line in lines[1:]])
        assert np.max(np.abs(hq - hq[0])) < 1e-8

    def test_summary_round_trip(self, tmp_path):
        out = tmp_path / "out"
        cfg = tiny_evolve_config()
        run_scenario(cfg, out_dir=out)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"] == cfg
        rerun = run_scenario(summary["config"], out_dir=tmp_path / "out2")
        assert rerun.passed
        assert all("threshold" in a for a in summary["assertions"])
        assert summary["headline"]["precession"]["omega_measured"] == pytest.approx(2.0, abs=1e-5)
        assert summary["headline"]["precession"]["omega_predicted"] == pytest.approx(2.0)

    def test_spin_z_field_spelt_as_a_matrix(self, tmp_path):
        # -sigma_z as a matrix is the spin-z preset's field: precession
        # predicts the Larmor rate and larmor_grid runs, as for the preset
        cfg = {**tiny_evolve_config(), "measure": {
            "precession": {}, "larmor_grid": {"lams": [0.6, 0.9], "q_values": [2.0, 3.0]}}}
        matrix = with_leaf(cfg, "system.hamiltonian", {"matrix": [[[-1.0, 0.0], [0.0, 0.0]],
                                                                  [[0.0, 0.0], [1.0, 0.0]]]})
        assert main(["run", str(write_config(tmp_path, matrix)), "--quiet"]) == 0
        assert run_scenario(matrix).headline == run_scenario(cfg).headline

    def test_precession_predicts_from_the_larger_eigenvalue(self):
        # a start at lam = 0.25, given as a Bloch state or as its matrix,
        # precesses at the rate of lam = 0.75
        cfg = tiny_evolve_config()
        rho = nvne.hermitian.bloch_state(lam=0.25, phi=1.0, psi=0.5).matrix
        starts = [{"bloch": {"lam": 0.25, "phi": 1.0, "psi": 0.5}},
                  {"matrix": np.stack([rho.real, rho.imag], axis=-1).tolist()}]
        for state in starts:
            report = run_scenario({**cfg, "state": state})
            assert report.passed
            assert report.headline["precession"]["omega_predicted"] == pytest.approx(2.0, rel=1e-12)

    def test_summary_is_strict_json(self, tmp_path):
        # criterion 7's decay ratio is inf, which json.dumps wrote as the bare
        # token Infinity: not JSON, so a strict parser rejected the file
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        run_scenario(PRESETS["criterion7-dephasing"], out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
        assert float(summary["headline"]["decay_ratio"]) == np.inf
        assert [a["value"] for a in summary["assertions"] if a["name"] == "decay_ratio"] == ["inf"]

    def test_csv_bytes_match_per_element_format(self, tmp_path):
        # one "%.17g" format per row writes what format(x, ".17g") per
        # element wrote, on special values, signed zeros and subnormals too
        values = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                  1.7976931348623157e308, 0.1, -1.0 / 3.0, 1e16, 123456789.0, 2.0**-1074 * 3]
        rows = np.array(values * 2).reshape(4, -1)
        header = [f"c{i}" for i in range(rows.shape[1])]
        nvne.cli.write_series_csv(rows, header, tmp_path / "a.csv")
        want = "\n".join([",".join(header)] + [",".join(format(float(x), ".17g") for x in row)
                                               for row in rows]) + "\n"
        assert (tmp_path / "a.csv").read_bytes() == want.encode()
        nvne.cli.write_series_csv([tuple(row) for row in rows], header, tmp_path / "b.csv")
        assert (tmp_path / "b.csv").read_bytes() == want.encode()

    def test_deterministic_csv(self, tmp_path):
        cfg = tiny_evolve_config()
        run_scenario(cfg, out_dir=tmp_path / "a")
        run_scenario(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
            (tmp_path / "b" / "trajectory.csv").read_bytes()

    def test_ensemble_plotdata(self, tmp_path):
        cfg = {
            "kind": "ensemble",
            "system": {"hamiltonian": {"preset": "spin-z", "mu": 1.0}},
            "q": 3.0,
            "ensemble": {"weight": "tilted-lambda", "n_lam": 16, "n_phi": 16, "n_psi": 16},
            "times": [0.0, 1.0],
            "decay": {"t_late": 30.0},
            "assertions": {"analytic_match": 1e-4, "decay_ratio": 0.9},
        }
        report = run_scenario(cfg, out_dir=tmp_path / "out")
        assert report.passed
        lines = (tmp_path / "out" / "plotdata.csv").read_text().splitlines()
        assert lines[0] == "t,offdiag_abs"
        assert len(lines) == 203  # 201 window samples + late point + header

    def test_decay_run_takes_no_purity(self, monkeypatch):
        # with a decay section the window is the plot, so the per-times
        # purity column, which no output showed, is not computed
        def fail(self):
            raise AssertionError("purity computed")

        monkeypatch.setattr(nvne.hermitian.DensityMatrix, "purity", fail)
        assert run_scenario(PRESETS["dephasing-demo-tilted"]).headline["analytic_match"] < 1e-12

    @pytest.mark.parametrize("cfg", [PRESETS["criterion4-equilibrium"], tiny_evolve_config()],
                             ids=["equilibrium", "evolve"])
    def test_summary_lists_every_output(self, tmp_path, cfg):
        # summary.json lists itself too: its path is recorded before it is written
        report = run_scenario(cfg, out_dir=tmp_path)
        assert report.outputs[-1] == str(tmp_path / "summary.json")
        assert json.loads((tmp_path / "summary.json").read_text())["outputs"] == report.outputs

    @pytest.mark.parametrize("weight, ratio", [("sin-psi-half", np.inf), ("tilted-lambda", 0.054054)])
    def test_decay_ratio_of_a_signal(self, weight, ratio):
        # the literal weight's average has no transverse signal: its window
        # peak is round-off (about 2e-17), whose ratio would be noise
        cfg = copy.deepcopy(PRESETS["dephasing-demo-tilted"])
        cfg["ensemble"]["weight"] = weight
        headline = run_scenario(cfg).headline
        assert headline["decay_ratio"] == pytest.approx(ratio, rel=1e-5)
        assert (headline["decay"]["window_peak"] <= nvne.hermitian.TOL_HERM) == (weight == "sin-psi-half")

    @staticmethod
    def short_node_check():
        # 337 steps to the cross-check, which do not divide the run's 1000
        base = PRESETS["dephasing-demo-tilted"]
        cfg = {**base, "times": [1.0],
               "node_check": {"count": 2, "t_final": 1.0, "dt": 1e-3, "crosscheck_t_final": 0.337},
               "assertions": {**base["assertions"], "node_crosscheck": 1e-8}}
        del cfg["decay"]
        return cfg

    def test_node_check_records_every_n_cross_steps_and_reads_row_1(self, monkeypatch):
        # the run records at steps 0, 337, 674 and 1000, and its state at 337
        # is that of a 337-step run
        cfg = self.short_node_check()
        runs, evolve = [], nvne.dynamics.evolve

        def recorded(*args, **kwargs):
            runs.append((args, evolve(*args, **kwargs)))
            return runs[-1][1]

        monkeypatch.setattr(nvne.dynamics, "evolve", recorded)
        report = run_scenario(cfg)
        assert report.passed and len(runs) == 2
        for (rho0, h, f, _), traj in runs:
            assert traj.times.tolist() == [0.0, 0.337, 0.674, 1.0]
            short = evolve(rho0, h, f, nvne.IntegratorConfig(dt=1e-3, t_final=0.337))
            assert np.array_equal(traj.matrices[1], short.matrices[-1])

    def test_node_crosscheck_catches_a_step_error(self, monkeypatch):
        # steps 1 % too long move row 1 off the closed form at t_cross; row 0,
        # the start, would not show them
        cfg = self.short_node_check()
        assert run_scenario(cfg).passed
        advance = nvne.dynamics._advance
        monkeypatch.setattr(nvne.dynamics, "_advance",
                            lambda v, h, kernel, dt, *rest: advance(v, h, kernel, 1.01 * dt, *rest))
        report = run_scenario(cfg)
        assert not report.passed and report.headline["node_crosscheck"] > 1e-6


def kernel_pair_12_off(w, f):
    """The kernel with pair (1, 2) 1 % off, an error only d >= 3 has."""
    kernel = nvne.structure._kernel(w, f)
    if w.size >= 3:
        kernel[[1, 2], [2, 1]] *= 1.01
    return kernel


class TestCompositeAndBracketKinds:
    def test_composite_scenario(self, tmp_path):
        cfg = {
            "kind": "composite",
            "system": {
                "dims": [2, 2],
                "h1": {"preset": "spin-z", "mu": 1.0},
                "h2": {"preset": "spin-z", "mu": 0.7},
                "q1": 1.5,
                "q2": 2.5,
            },
            "state": {"random": {"seed": 5}},
            "integrator": {"dt": 1e-2, "t_final": 1.0, "record_every": 10},
            "assertions": {"closure": 1e-6, "eigenvalue_drift": 1e-10},
        }
        report = run_scenario(cfg, out_dir=tmp_path / "out")
        assert report.passed
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_bracket_scenario(self, tmp_path):
        report = run_scenario(PRESETS["criterion8-bracket-algebra"], out_dir=tmp_path)
        assert report.passed and report.outputs == [str(tmp_path / "summary.json")]

    @pytest.mark.parametrize("wrong_kernel", [
        lambda w, f: nvne.structure._kernel(w, f) + 0.3,
        lambda w, f: np.ones((w.size, w.size)),
        lambda w, f: nvne.structure._kernel(w, nvne.PowerLaw(f.q + 0.01)),
        kernel_pair_12_off,
    ], ids=["plus-0.3", "all-ones", "q-plus-0.01", "pair-12-one-percent-d3"])
    def test_bracket_scenario_sees_a_wrong_integrator_kernel(self, monkeypatch, wrong_kernel):
        # Hamilton's equation ties U_q to evolve; the three older values hold
        # for any symmetric kernel, so they cannot see the integrator's
        cfg = PRESETS["criterion8-bracket-algebra"]
        clean = run_scenario(cfg).headline
        monkeypatch.setattr(nvne.dynamics, "_kernel", wrong_kernel)
        report = run_scenario(cfg)
        failed = {a.name for a in report.assertions if not a.passed}
        assert failed == {"hamilton_gap", "hamilton_ratio"}
        older = ("casimir_bracket", "average_bracket", "antisymmetry")
        assert [report.headline[k] for k in older] == [clean[k] for k in older]


def benchmark_workloads(monkeypatch):
    """perfbench/workloads.py, loaded from its file without editing it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads


class TestPresets:
    def test_all_presets_validate(self, tmp_path, capsys):
        # through python -m nvne.presets --list and --write DIR, as the README shows them
        listed = run_module("nvne.presets", "--list")
        assert listed.returncode == 0 and listed.stdout.splitlines() == sorted(PRESETS)
        written = run_module("nvne.presets", "--write", str(tmp_path))
        assert written.returncode == 0
        paths = written.stdout.splitlines()
        assert paths == [str(tmp_path / f"{name}.json") for name in sorted(PRESETS)]
        for path in paths:
            assert main(["check", path]) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_configs_validate(self, tmp_path, monkeypatch, capsys, seed):
        # every config the benchmark workloads generate, which a config error
        # would count as failed operations
        for workload in benchmark_workloads(monkeypatch).WORKLOADS.values():
            for sc in workload.scenarios(np.random.default_rng(seed)).scenarios:
                cfg_path = write_config(tmp_path, sc.cfg, f"{workload.name}-{sc.name}.json")
                assert main(["check", str(cfg_path)]) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_setup_runs(self, tmp_path, monkeypatch, seed):
        # setup calls the parse_* functions and EnsembleSpec with the plain
        # config dicts, outside nvne check; a break there fails every run
        for workload in benchmark_workloads(monkeypatch).WORKLOADS.values():
            (tmp_path / workload.name).mkdir()
            inputs = workload.setup(nvne, seed, tmp_path / workload.name, time.perf_counter)[0]
            assert all(sc.path.is_file() for sc in inputs.scenarios)

    def test_benchmark_reads_every_larmor_point(self, tmp_path, monkeypatch):
        # the benchmark's phase_error is the worst of these points, read with
        # .get(..., {}), so a summary without them would read as an error of 0
        scenarios = benchmark_workloads(monkeypatch).WORKLOADS["qubit-sweep"].scenarios(np.random.default_rng(3))
        cfg = next(sc.cfg for sc in scenarios.scenarios if sc.name == "larmor")
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"]) == 0
        points = json.loads((out / "summary.json").read_text())["headline"]["larmor_grid"]["points"]
        grid = cfg["measure"]["larmor_grid"]
        assert sorted((p["q"], p["lam"]) for p in points) == sorted(
            (q, lam) for q in grid["q_values"] for lam in grid["lams"])
        assert all(isinstance(p["omega_measured"], float) for p in points)

    def test_equilibrium_preset_runs(self, tmp_path):
        report = run_scenario(PRESETS["criterion4-equilibrium"], out_dir=tmp_path)
        assert report.passed and report.outputs == [str(tmp_path / "summary.json")]
        assert report.headline["equilibrium"]["lambda_eq"] == pytest.approx(0.75, abs=1e-10)


class TestRecipes:
    """The README's recipes step by step: `python -m nvne.presets --write
    configs/`, then `nvne run configs/<name>.json --out out/<name>`."""

    @pytest.fixture
    def configs(self, tmp_path, capsys):
        assert nvne.presets.main(["--write", str(tmp_path / "configs")]) == 0
        capsys.readouterr()
        return tmp_path / "configs"

    @staticmethod
    def run(config):
        out = config.parent.parent / "out" / config.stem
        return main(["run", str(config), "--out", str(out), "--quiet"]), out

    @staticmethod
    def summary(out):
        return json.loads((out / "summary.json").read_text())

    def test_precession_sweep(self, configs):
        code, out = self.run(configs / "criterion3-larmor.json")
        assert code == 0
        points = self.summary(out)["headline"]["larmor_grid"]["points"]
        lams = [round(0.55 + 0.05 * i, 2) for i in range(9)]
        assert sorted((p["q"], p["lam"]) for p in points) == [(q, lam) for q in (2.0, 3.0) for lam in lams]
        assert all(p["omega_measured"] == pytest.approx(p["omega_predicted"], rel=1e-5) for p in points)

    def test_precession_sweep_at_q_one(self, configs):
        # adding 1.0 to q_values gives 9 more points, each precessing at 2 mu
        config = configs / "criterion3-larmor.json"
        cfg = json.loads(config.read_text())
        cfg["measure"]["larmor_grid"]["q_values"].append(1.0)
        config.write_text(json.dumps(cfg))
        code, out = self.run(config)
        assert code == 0
        points = self.summary(out)["headline"]["larmor_grid"]["points"]
        at_one = [p for p in points if p["q"] == 1.0]
        assert len(points) == 27 and len(at_one) == 9
        assert all(abs(p["omega_measured"] - 2.0) <= 2e-15 for p in at_one)

    def test_dephasing_demo(self, configs):
        literal, literal_out = self.run(configs / "criterion7-dephasing.json")
        tilted, tilted_out = self.run(configs / "dephasing-demo-tilted.json")
        # the literal weight exits 1 on its known red decay_ratio alone
        assert (literal, tilted) == (1, 0)
        assert [a["name"] for a in self.summary(literal_out)["assertions"] if not a["passed"]] == ["decay_ratio"]

        def offdiag(out):
            lines = (out / "plotdata.csv").read_text().splitlines()
            assert lines[0] == "t,offdiag_abs"
            return [float(line.split(",")[1]) for line in lines[1:]]

        # round-off for sin(psi/2); a decay from pi/72 for the tilted weight
        assert max(offdiag(literal_out)) < 1e-15
        tilted_abs = offdiag(tilted_out)
        assert tilted_abs[0] == pytest.approx(np.pi / 72, rel=1e-6)
        assert tilted_abs[-1] < 0.1 * tilted_abs[0]
        for out in (literal_out, tilted_out):
            match = {a["name"]: a["value"] for a in self.summary(out)["assertions"]}["analytic_match"]
            assert match < 1e-15

    def test_acceptance_sweep(self, configs):
        outputs = {"evolve": {"summary.json", "trajectory.csv"},
                   "composite": {"summary.json", "trajectory.csv"},
                   "ensemble": {"summary.json", "plotdata.csv"}}
        for config in sorted(configs.glob("*.json")):
            code, out = self.run(config)
            assert code == (1 if config.stem == "criterion7-dephasing" else 0), config.stem
            kind = PRESETS[config.stem]["kind"]
            written = {p.name for p in out.iterdir()}
            assert "summary.json" in written and outputs.get(kind, set()) <= written, (config.stem, written)
