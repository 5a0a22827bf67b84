import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nvne
from nvne import presets
from nvne.cli import load_config, main, run_scenario
from nvne.errors import ConfigError, NumericalFailure


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


def run_in_subprocess(path, *args):
    """`nvne run --quiet` (plus args) in a separate process, so that an
    uncaught exception shows on stderr."""
    src = str(Path(nvne.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, "-m", "nvne", "run", str(path), "--quiet", *args],
                          capture_output=True, text=True, env=env, timeout=120)


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
                           "larmor_grid": {"lams": [0.75], "q_values": [2.0]}}},
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
    # empty lists of points, which made their assertions pass on nothing
    ("larmor", "measure.larmor_grid.lams", []),
    ("larmor", "measure.larmor_grid.q_values", []),
    ("ensemble", "times", []),
    ("equilibrium", "grid.q_values", []),
    ("equilibrium", "grid.domain_products", []),
    ("evolve", "measure.compare_linear.q_values", []),
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

    def test_domain_error_exit_3(self, tmp_path):
        cfg = {
            "kind": "equilibrium",
            "thermo": {"q": 3.0, "beta": 0.9, "mu": 1.0},  # |q-1| beta mu > 1
            "assertions": {},
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path)]) == 3

    @pytest.mark.parametrize("product", [0.99, 0.999])
    def test_equilibrium_next_to_the_domain_edge(self, tmp_path, capsys, product):
        # the excited population, about 3e-12 and 3e-17 here, is formed on
        # its own rather than as 1 - lam
        cfg = {**CAST_BASES["equilibrium"],
               "grid": {"q_values": [1.2], "domain_products": [product]},
               "assertions": {"grid_stationarity": 1e-8, "grid_second_derivative_positive": 0.0}}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_underflowing_population_exit_3(self, tmp_path):
        # exp(-2000) underflows: one error line, no numpy RuntimeWarning
        cfg = {"kind": "equilibrium", "thermo": {"q": 1, "beta": 1000, "mu": 1}}
        proc = run_in_subprocess(write_config(tmp_path, cfg))
        assert proc.returncode == 3, proc.stderr
        assert [line for line in proc.stderr.splitlines() if line] == [
            "error: q-equilibrium population 0.000e+00 is out of floating-point range at beta = 1000"]

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

    @pytest.mark.parametrize("key, value", [("state.bloch.lam", 0.5), ("state.bloch.phi", 0.0)])
    def test_precession_without_signal_exit_2(self, tmp_path, capsys, key, value):
        # |rho_01| = |2 lam - 1| sin(phi) / 2 is 0, and a field along z keeps
        # it there, so run's phase fit would fail after integrating
        assert_run_and_check_exit_2(tmp_path, capsys, with_leaf(CAST_BASES["larmor"], key, value),
                                    "measure.precession.element")

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
        # a failed eigensolver while the Bloch state is built is no bad key
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert main(["check", str(write_config(tmp_path, tiny_evolve_config()))]) == 3
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
        assert summary["headline"]["omega_measured"] == pytest.approx(2.0, abs=1e-5)
        assert summary["headline"]["omega_predicted"] == pytest.approx(2.0)

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

    def test_bracket_scenario(self):
        report = run_scenario(presets.get("criterion8-bracket-algebra"))
        assert report.passed


class TestPresets:
    def test_all_presets_validate(self, tmp_path):
        paths = presets.write_all(tmp_path)
        assert len(paths) == len(presets.names())
        for path in paths:
            cfg = load_config(str(path))
            assert cfg["kind"] in ("evolve", "composite", "equilibrium", "ensemble",
                                   "bracket-check")
            assert main(["check", str(path)]) == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_configs_validate(self, tmp_path, monkeypatch, capsys, seed):
        # every config the benchmark workloads generate, which a config error
        # would count as failed operations; perfbench/ is loaded, not edited
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        for workload in workloads.WORKLOADS.values():
            for sc in workload.scenarios(np.random.default_rng(seed)).scenarios:
                cfg_path = write_config(tmp_path, sc.cfg, f"{workload.name}-{sc.name}.json")
                assert main(["check", str(cfg_path)]) == 0, capsys.readouterr().err

    def test_get_returns_copy(self):
        a = presets.get("criterion4-equilibrium")
        a["thermo"]["q"] = 99.0
        assert presets.get("criterion4-equilibrium")["thermo"]["q"] == 2.0

    def test_equilibrium_preset_runs(self):
        report = run_scenario(presets.get("criterion4-equilibrium"))
        assert report.passed
        assert report.headline["lambda_eq"] == pytest.approx(0.75, abs=1e-10)
