"""Scenario-driven command line: `nvne run <config.json>` / `nvne check`.

Scenario kinds: evolve, composite, equilibrium, ensemble, bracket-check.
Configs are single JSON files; complex matrix entries are [re, im] pairs
and Hermiticity is validated on load. Outputs: trajectory CSV (matrix
elements column-major, then C1..C5 and the energy), a summary JSON with
the full report, and a per-scenario plot-data CSV.

Exit codes: 0 success, 1 assertion failure, 2 config error, 3 numeric
domain error. NVNE_OUT overrides the configured output directory; --out
overrides both.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import composite as composite_mod
from . import dynamics, ensemble, structure, thermo
from .deformation import CoefficientSeries, DeformationFunction, PowerLaw
from .errors import ConfigError, DomainError, IoError, NvneError
from .hermitian import (
    SIGMA_Z,
    DensityMatrix,
    bloch_state,
    pure_state,
    random_density_matrix,
    random_hermitian,
    require_hermitian,
    trace_distance,
    validate_density,
)

KINDS = ("evolve", "composite", "equilibrium", "ensemble", "bracket-check")


# ---------------------------------------------------------------------------
# config parsing


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config key {path} must be an object, got {value!r}")
    return value


def _get(d: dict, key: str, path: str):
    if key not in _object(d, path.rstrip(".") or "root"):
        raise ConfigError(f"missing config key: {path}{key}")
    return d[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {path} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"config key {path} must be finite, got {value!r}")
    return number


def _integer(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {path} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"config key {path} must be at least {minimum}, got {value!r}")
    return value


def _numbers(values, path: str) -> list:
    if not isinstance(values, list):
        raise ConfigError(f"config key {path} must be a list of numbers, got {values!r}")
    return [_number(x, path) for x in values]


def _complex_array(entries, path: str, ndim: int = 2) -> np.ndarray:
    """A vector (ndim 1) or square matrix (ndim 2) of [re, im] pairs."""
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {path} is not an array of [re, im] pairs: {exc}")
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2 or len(set(arr.shape[:-1])) != 1:
        shape = "dim x 2" if ndim == 1 else "dim x dim x 2"
        raise ConfigError(f"config key {path} must be shaped {shape}, got {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def parse_hamiltonian(spec, path: str, dim: int | None = None) -> np.ndarray:
    if "preset" in _object(spec, path):
        if spec["preset"] != "spin-z":
            raise ConfigError(f"config key {path}.preset: unknown preset {spec['preset']!r}")
        mu = _number(_get(spec, "mu", f"{path}."), f"{path}.mu")
        return -mu * SIGMA_Z
    if "matrix" in spec:
        m = _complex_array(spec["matrix"], f"{path}.matrix")
        try:
            m = require_hermitian(m, what=f"{path}.matrix")
        except NvneError as exc:
            raise ConfigError(f"config key {path}.matrix: {exc}")
        if dim is not None and m.shape[0] != dim:
            raise ConfigError(f"config key {path}.matrix has dim {m.shape[0]}, expected {dim}")
        return m
    if "random" in spec:
        sub = spec["random"]
        seed = _integer(_get(sub, "seed", f"{path}.random."), f"{path}.random.seed", 0)
        norm = sub.get("spectral_norm")
        if dim is None:
            raise ConfigError(f"config key {path}.random needs system.dim")
        return random_hermitian(
            dim, np.random.default_rng(seed),
            spectral_norm=None if norm is None else _number(norm, f"{path}.random.spectral_norm"))
    raise ConfigError(f"config key {path} needs one of: preset, matrix, random")


def parse_state(spec, path: str, dim: int | None = None) -> DensityMatrix:
    if "bloch" in _object(spec, path):
        b = spec["bloch"]
        try:
            return bloch_state(
                lam=_number(_get(b, "lam", f"{path}.bloch."), f"{path}.bloch.lam"),
                phi=_number(_get(b, "phi", f"{path}.bloch."), f"{path}.bloch.phi"),
                psi=_number(_get(b, "psi", f"{path}.bloch."), f"{path}.bloch.psi"),
            )
        except DomainError as exc:
            raise ConfigError(f"config key {path}.bloch: {exc}")
    if "matrix" in spec:
        m = _complex_array(spec["matrix"], f"{path}.matrix")
        try:
            return validate_density(m)
        except NvneError as exc:
            raise ConfigError(f"config key {path}.matrix: {exc}")
    if "pure" in spec:
        return pure_state(_complex_array(spec["pure"], f"{path}.pure", ndim=1))
    if "random" in spec:
        seed = _integer(_get(spec["random"], "seed", f"{path}.random."), f"{path}.random.seed", 0)
        if dim is None:
            raise ConfigError(f"config key {path}.random needs system.dim")
        return random_density_matrix(dim, np.random.default_rng(seed))
    raise ConfigError(f"config key {path} needs one of: bloch, matrix, pure, random")


def parse_deformation(cfg: dict, path: str = "") -> DeformationFunction:
    if "q" in cfg:
        q = _number(cfg["q"], f"{path}q")
        if q <= 0:
            raise ConfigError(f"config key {path}q must be positive, got {q}")
        return PowerLaw(q=q)
    spec = _get(cfg, "deformation", path)
    kind = _get(spec, "kind", f"{path}deformation.")
    if kind == "power":
        return PowerLaw(q=_number(_get(spec, "q", f"{path}deformation."), f"{path}deformation.q"))
    if kind == "series":
        try:
            return CoefficientSeries(
                coeffs=tuple(_numbers(spec.get("coeffs", []), f"{path}deformation.coeffs")))
        except DomainError as exc:
            raise ConfigError(f"config key {path}deformation.coeffs: {exc}")
    raise ConfigError(f"config key {path}deformation.kind must be power or series")


def parse_integrator(cfg: dict, path: str = "integrator") -> dynamics.IntegratorConfig:
    spec = _get(cfg, "integrator", "")
    try:
        return dynamics.IntegratorConfig(
            dt=_number(_get(spec, "dt", f"{path}."), f"{path}.dt"),
            t_final=_number(_get(spec, "t_final", f"{path}."), f"{path}.t_final"),
            scheme=spec.get("scheme", "midpoint"),
            record_every=_integer(spec.get("record_every", 1), f"{path}.record_every"),
        )
    except DomainError as exc:
        raise ConfigError(f"config key {path}: {exc}")


# ---------------------------------------------------------------------------
# report


@dataclass
class AssertionResult:
    name: str
    threshold: float
    value: float
    passed: bool
    comparator: str = "<="

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] {self.name}: value={self.value:.6e} {self.comparator} threshold={self.threshold:.6e}"


@dataclass
class RunReport:
    scenario: str
    label: str
    config: dict
    headline: dict = field(default_factory=dict)
    assertions: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    outputs: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def check(self, name: str, value: float, threshold: float, comparator: str = "<=") -> None:
        ok = {"<=": value <= threshold, "<": value < threshold,
              ">=": value >= threshold, ">": value > threshold}[comparator]
        self.assertions.append(AssertionResult(name, float(threshold), float(value), bool(ok), comparator))

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "label": self.label,
            "passed": self.passed,
            "headline": self.headline,
            "assertions": [vars(a) for a in self.assertions],
            "wall_clock_s": self.wall_clock_s,
            "outputs": self.outputs,
            "config": self.config,
        }


def _apply_assertions(report: RunReport, cfg: dict, available: dict) -> None:
    """Wire configured thresholds against measured values by name."""
    spec = _object(cfg.get("assertions", {}), "assertions")
    for name, threshold in spec.items():
        if name not in available:
            raise ConfigError(f"config key assertions.{name}: nothing measured under that name")
        value, comparator = available[name]
        report.check(name, value, _number(threshold, f"assertions.{name}"), comparator)


# ---------------------------------------------------------------------------
# scenario runners


def _run_evolve(cfg: dict, report: RunReport) -> dynamics.Trajectory:
    system = _get(cfg, "system", "")
    dim = _integer(_get(system, "dim", "system."), "system.dim", 1)
    h = parse_hamiltonian(_get(system, "hamiltonian", "system."), "system.hamiltonian", dim)
    f = parse_deformation(cfg)
    state = parse_state(_get(cfg, "state", ""), "state", dim)
    if state.dim != dim:
        raise ConfigError(f"config key state: dim {state.dim} != system.dim {dim}")
    icfg = parse_integrator(cfg)
    measure = _object(cfg.get("measure", {}), "measure")
    available: dict = {}

    traj = dynamics.evolve(state, h, f, icfg)
    inv = dynamics.invariant_report(traj)
    report.headline["invariants"] = {
        "eigenvalue_drift": inv.eigenvalue_drift,
        "max_casimir_drift": inv.max_casimir_drift,
        "energy_drift": inv.energy_drift,
        "max_hermiticity_defect": inv.max_hermiticity_defect,
        "max_negativity": inv.max_negativity,
    }
    available["eigenvalue_drift"] = (inv.eigenvalue_drift, "<=")
    available["casimir_drift"] = (inv.max_casimir_drift, "<=")
    available["energy_drift"] = (inv.energy_drift, "<=")
    available["hermiticity"] = (inv.max_hermiticity_defect, "<=")

    if "precession" in measure:
        element = _object(measure["precession"], "measure.precession").get("element", [0, 1])
        if not isinstance(element, list) or len(element) != 2:
            raise ConfigError(
                f"config key measure.precession.element must be [i, j], got {element!r}")
        element = tuple(_integer(x, "measure.precession.element", 0) for x in element)
        if max(element) >= dim:
            raise ConfigError(
                f"config key measure.precession.element {list(element)} is outside dim {dim}")
        omega_meas = dynamics.precession_frequency(traj, element)
        report.headline["omega_measured"] = omega_meas
        if "bloch" in cfg.get("state", {}) and "preset" in system.get("hamiltonian", {}):
            mu = float(system["hamiltonian"]["mu"])
            lam = float(cfg["state"]["bloch"]["lam"])
            omega_pred = dynamics.larmor_frequency(lam, f, mu)
            report.headline["omega_predicted"] = omega_pred
            rel = abs(omega_meas - omega_pred) / max(abs(omega_pred), 1e-12)
            available["omega_relative_error"] = (rel, "<=")
        if dim == 2:
            available["sz_drift"] = (_sz_drift(traj), "<=")

    if measure.get("compare_linear"):
        compare = measure["compare_linear"]
        q_values = (
            _numbers(compare.get("q_values", []), "measure.compare_linear.q_values")
            if isinstance(compare, dict)
            else []
        )
        linear = dynamics.evolve(state, h, PowerLaw(q=1.0), icfg)
        if q_values:
            dist = 0.0
            per_q = {}
            for qv in q_values:
                t_q = dynamics.evolve(state, h, PowerLaw(q=qv), icfg)
                d = trace_distance(t_q.states[-1], linear.states[-1])
                per_q[f"q={qv:g}"] = d
                dist = max(dist, d)
            report.headline["linear_trace_distance"] = per_q
        else:
            dist = trace_distance(traj.states[-1], linear.states[-1])
            report.headline["linear_trace_distance"] = dist
        available["linear_trace_distance"] = (dist, "<=")

    if "larmor_grid" in measure:
        g = measure["larmor_grid"]
        lams = _numbers(_get(g, "lams", "measure.larmor_grid."), "measure.larmor_grid.lams")
        q_values = _numbers(_get(g, "q_values", "measure.larmor_grid."),
                            "measure.larmor_grid.q_values")
        if "preset" not in system.get("hamiltonian", {}) or "bloch" not in cfg.get("state", {}):
            raise ConfigError(
                "config key measure.larmor_grid needs a spin-z preset and a bloch state")
        mu = float(system["hamiltonian"]["mu"])
        base = cfg["state"]["bloch"]
        worst_rel = 0.0
        worst_sz = 0.0
        grid_rows = []
        for qv in q_values:
            f_q = PowerLaw(q=qv)
            for lam in lams:
                rho0 = bloch_state(lam=lam, phi=float(base["phi"]), psi=float(base["psi"]))
                t_q = dynamics.evolve(rho0, h, f_q, icfg)
                omega_meas = dynamics.precession_frequency(t_q, (0, 1))
                omega_pred = dynamics.larmor_frequency(lam, f_q, mu)
                rel = abs(omega_meas - omega_pred) / abs(omega_pred)
                sz_drift = _sz_drift(t_q)
                worst_rel = max(worst_rel, rel)
                worst_sz = max(worst_sz, sz_drift)
                grid_rows.append({"q": qv, "lam": lam, "omega_measured": omega_meas,
                                  "omega_predicted": omega_pred})
        report.headline["larmor_grid"] = {"points": grid_rows,
                                          "max_relative_error": worst_rel,
                                          "max_sz_drift": worst_sz}
        available["omega_relative_error"] = (worst_rel, "<=")
        available["sz_drift"] = (worst_sz, "<=")

    if "stability_reference" in measure:
        ref = parse_state(measure["stability_reference"], "measure.stability_reference", dim)
        d0 = trace_distance(state, ref)
        if d0 < 1e-15:
            raise ConfigError("config key measure.stability_reference equals the initial state")
        worst = max(trace_distance(s, ref) for s in traj.states)
        report.headline["stability"] = {"initial_distance": d0, "max_distance": worst,
                                        "factor": worst / d0}
        available["stability_factor"] = (worst / d0, "<=")

    if "convergence" in measure:
        conv = measure["convergence"]
        dt0 = _number(_get(conv, "dt", "measure.convergence."), "measure.convergence.dt")
        t_end = _number(_get(conv, "t_final", "measure.convergence."), "measure.convergence.t_final")
        divisor = _integer(conv.get("reference_divisor", 10),
                           "measure.convergence.reference_divisor", 1)

        def end_state(dt):
            c = dynamics.IntegratorConfig(dt=dt, t_final=t_end, scheme=icfg.scheme,
                                          record_every=10**9)
            return dynamics.evolve(state, h, f, c).states[-1].matrix

        ref = end_state(dt0 / divisor)
        err_coarse = float(np.linalg.norm(end_state(dt0) - ref))
        err_fine = float(np.linalg.norm(end_state(dt0 / 2) - ref))
        ratio = err_coarse / max(err_fine, 1e-300)
        report.headline["convergence"] = {"err_dt": err_coarse, "err_dt_half": err_fine,
                                          "ratio": ratio}
        available["convergence_ratio_min"] = (ratio, ">=")
        available["convergence_ratio_max"] = (ratio, "<=")

    _apply_assertions(report, cfg, available)
    return traj


def _sz_drift(traj: dynamics.Trajectory) -> float:
    """Largest change of the Bloch z component (rho_00 - rho_11) over a
    2x2 trajectory."""
    m = traj.matrices
    sz = (m[:, 0, 0] - m[:, 1, 1]).real
    return float(np.max(np.abs(sz - sz[0])))


def _run_composite(cfg: dict, report: RunReport) -> dynamics.Trajectory:
    system = _get(cfg, "system", "")
    dims = _get(system, "dims", "system.")
    if (not isinstance(dims, list)) or len(dims) != 2:
        raise ConfigError("config key system.dims must be [dim_I, dim_II]")
    d1, d2 = (_integer(x, "system.dims", 1) for x in dims)
    h1 = parse_hamiltonian(_get(system, "h1", "system."), "system.h1", d1)
    h2 = parse_hamiltonian(_get(system, "h2", "system."), "system.h2", d2)
    q1 = _number(_get(system, "q1", "system."), "system.q1")
    q2 = _number(_get(system, "q2", "system."), "system.q2")
    try:
        sys_ = composite_mod.CompositeSystem(dim_1=d1, dim_2=d2, h1=h1, h2=h2, q1=q1, q2=q2)
    except NvneError as exc:
        raise ConfigError(f"config key system: {exc}")
    state = parse_state(_get(cfg, "state", ""), "state", d1 * d2)
    icfg = parse_integrator(cfg)

    traj = composite_mod.evolve_composite(state, sys_, icfg)
    closure = composite_mod.reduction_consistency(traj, sys_, icfg)
    inv = closure.joint_invariants
    report.headline["closure"] = {
        "max_deviation_I": closure.max_deviation_1,
        "max_deviation_II": closure.max_deviation_2,
    }
    report.headline["invariants"] = {
        "eigenvalue_drift": inv.eigenvalue_drift,
        "max_casimir_drift": inv.max_casimir_drift,
        "energy_drift": inv.energy_drift,
    }
    available = {
        "closure": (closure.max_deviation, "<="),
        "casimir_drift": (inv.max_casimir_drift, "<="),
        "eigenvalue_drift": (inv.eigenvalue_drift, "<="),
        "energy_drift": (inv.energy_drift, "<="),
    }
    _apply_assertions(report, cfg, available)
    return traj


def _run_equilibrium(cfg: dict, report: RunReport) -> None:
    spec = _get(cfg, "thermo", "")
    try:
        params = thermo.ThermoParams(
            q=_number(_get(spec, "q", "thermo."), "thermo.q"),
            beta=_number(_get(spec, "beta", "thermo."), "thermo.beta"),
            mu=_number(_get(spec, "mu", "thermo."), "thermo.mu"),
        )
    except DomainError as exc:
        raise ConfigError(f"config key thermo: {exc}")
    result = thermo.spin_equilibrium(params)
    report.headline["lambda_eq"] = result.lam
    report.headline["free_energy"] = result.free_energy
    report.headline["second_derivative"] = result.second_derivative
    available = {
        "stationarity": (abs(thermo.spin_free_energy_gradient(result.lam, params)), "<="),
        "second_derivative_positive": (result.second_derivative, ">"),
    }
    if "expected_lambda" in cfg:
        available["lambda_error"] = (
            abs(result.lam - _number(cfg["expected_lambda"], "expected_lambda")), "<=")

    if "gibbs_check" in cfg:
        g = cfg["gibbs_check"]
        beta = _number(_get(g, "beta", "gibbs_check."), "gibbs_check.beta")
        mu = _number(_get(g, "mu", "gibbs_check."), "gibbs_check.mu")
        eps = _number(g.get("epsilon", 1e-6), "gibbs_check.epsilon")
        target = float(np.exp(beta * mu) / (2.0 * np.cosh(beta * mu)))
        worst = 0.0
        for q_near in (1.0 + eps, 1.0 - eps):
            lam = thermo.spin_equilibrium(
                thermo.ThermoParams(q=q_near, beta=beta, mu=mu)).lam
            worst = max(worst, abs(lam - target))
        report.headline["gibbs_limit_gap"] = worst
        available["gibbs_limit"] = (worst, "<=")

    if "grid" in cfg:
        grid = _object(cfg["grid"], "grid")
        q_values = _numbers(grid.get("q_values", []), "grid.q_values")
        products = _numbers(grid.get("domain_products", []), "grid.domain_products")
        min_curv = np.inf
        max_stat = 0.0
        count = 0
        for qv in q_values:
            for c in products:
                if abs(qv - 1.0) < 1e-8 or not 0.0 < c < 1.0:
                    raise ConfigError(
                        "config key grid: q_values must exclude 1 and "
                        "domain_products must lie in (0, 1)")
                pg = thermo.ThermoParams(q=qv, beta=c / abs(qv - 1.0), mu=params.mu)
                res = thermo.spin_equilibrium(pg)
                min_curv = min(min_curv, res.second_derivative)
                max_stat = max(max_stat, abs(thermo.spin_free_energy_gradient(res.lam, pg)))
                count += 1
        report.headline["grid"] = {"points": count, "min_second_derivative": float(min_curv),
                                   "max_stationarity": float(max_stat)}
        available["grid_second_derivative_positive"] = (float(min_curv), ">")
        available["grid_stationarity"] = (float(max_stat), "<=")

    _apply_assertions(report, cfg, available)


def _run_ensemble(cfg: dict, report: RunReport):
    spec = _get(cfg, "ensemble", "")
    weight_name = _get(spec, "weight", "ensemble.")
    if weight_name not in ensemble.WEIGHTS:
        raise ConfigError(
            f"config key ensemble.weight: unknown weight {weight_name!r}; "
            f"choose from {sorted(ensemble.WEIGHTS)}")
    system = _get(cfg, "system", "")
    h = parse_hamiltonian(_get(system, "hamiltonian", "system."), "system.hamiltonian", 2)
    f = parse_deformation(cfg)
    sizes = {n: _integer(spec.get(n, 32), f"ensemble.{n}") for n in ("n_lam", "n_phi", "n_psi")}
    try:
        espec = ensemble.EnsembleSpec(weight=ensemble.WEIGHTS[weight_name], f=f, h=h, **sizes)
    except NvneError as exc:
        raise ConfigError(f"config key ensemble: {exc}")
    mu = espec.mu
    times = _numbers(cfg.get("times", [0.0, 1.0, 5.0, 20.0]), "times")
    lam_density = None if weight_name == "sin-psi-half" else (lambda lam: 2.0 * lam)

    available: dict = {}
    match_gap = 0.0
    series = []
    for t in times:
        avg = ensemble.ensemble_average(espec, t)
        analytic = ensemble.dephasing_analytic(t, f, mu, n_lam=max(64, espec.n_lam),
                                               lam_density=lam_density)
        match_gap = max(match_gap, float(np.max(np.abs(avg.matrix - analytic.matrix))))
        series.append((t, ensemble.offdiagonal_magnitude(avg), avg.purity()))
    report.headline["analytic_match_gap"] = match_gap
    available["analytic_match"] = (match_gap, "<=")

    decay = _object(cfg.get("decay", {}), "decay")
    decay_series = []
    if decay:
        t_late = _number(_get(decay, "t_late", "decay."), "decay.t_late")
        window = _numbers(decay.get("window", [0.0, 20.0]), "decay.window")
        if len(window) != 2:
            raise ConfigError(f"config key decay.window must be [start, end], got {window!r}")
        grid = np.linspace(*window, _integer(decay.get("samples", 201), "decay.samples"))
        offs = []
        for t in grid:
            off = ensemble.offdiagonal_magnitude(ensemble.ensemble_average(espec, float(t)))
            offs.append(off)
            decay_series.append((float(t), off))
        late = ensemble.offdiagonal_magnitude(ensemble.ensemble_average(espec, t_late))
        decay_series.append((float(t_late), late))
        peak = float(np.max(offs))
        ratio = late / peak if peak > 0 else np.inf
        report.headline["decay"] = {"window_peak": peak, "late_value": late, "ratio": ratio}
        available["decay_ratio"] = (ratio, "<=")

    node_check = _object(cfg.get("node_check", {}), "node_check")
    if node_check:
        count = _integer(node_check.get("count", 4), "node_check.count")
        t_end = _number(node_check.get("t_final", 20.0), "node_check.t_final")
        dt = _number(node_check.get("dt", 1e-3), "node_check.dt")
        # the spectrum-drift probe runs the full window; the closed-form
        # cross-check uses a horizon where second-order phase error stays
        # inside its tolerance (error grows like dt^2 * t)
        t_cross = _number(node_check.get("crosscheck_t_final", min(2.0, t_end)),
                          "node_check.crosscheck_t_final")
        icfg = dynamics.IntegratorConfig(dt=dt, t_final=t_end, record_every=1000)
        ccfg = dynamics.IntegratorConfig(dt=dt, t_final=t_cross, record_every=10**9)
        g = espec.grids()
        lam = g["lam"].ravel()
        phi = g["phi"].ravel()
        psi = g["psi"].ravel()
        idx = np.linspace(0, lam.size - 1, count).astype(int)
        drift = 0.0
        cross = 0.0
        for k in idx:
            rho0 = bloch_state(lam=float(lam[k]), phi=float(phi[k]), psi=float(psi[k]))
            traj = dynamics.evolve(rho0, h, f, icfg)
            inv = dynamics.invariant_report(traj)
            drift = max(drift, inv.eigenvalue_drift)
            short = dynamics.evolve(rho0, h, f, ccfg)
            closed = ensemble.evolve_node(espec, float(lam[k]), float(phi[k]),
                                          float(psi[k]), short.times[-1])
            cross = max(cross, float(np.max(np.abs(short.states[-1].matrix - closed.matrix))))
        report.headline["node_check"] = {"eigenvalue_drift": drift, "closed_form_gap": cross}
        available["node_eigenvalue_drift"] = (drift, "<=")
        available["node_crosscheck"] = (cross, "<=")

    _apply_assertions(report, cfg, available)
    return series, decay_series


def _run_bracket_check(cfg: dict, report: RunReport) -> None:
    dim = _integer(cfg.get("dim", 3), "dim", 1)
    seed = _integer(cfg.get("seed", 0), "seed", 0)
    n_f = _integer(cfg.get("n_functionals", 20), "n_functionals")
    casimir_orders = _integer(cfg.get("casimir_orders", 4), "casimir_orders")
    average_orders = _integer(cfg.get("average_orders", 3), "average_orders")
    rng = np.random.default_rng(seed)

    worst_casimir = 0.0
    worst_avg = 0.0
    worst_antisym = 0.0
    for _ in range(max(n_f // 4, 1)):
        rho = random_density_matrix(dim, rng)
        h = random_hermitian(dim, rng)
        functionals = []
        for _ in range(4):
            b = random_hermitian(dim, rng)
            coeffs = rng.normal(size=3)
            functionals.append(structure.trace_polynomial_functional(coeffs, b))
        for func in functionals:
            for n in range(1, casimir_orders + 1):
                val = structure.poisson_bracket(structure.casimir_functional(n), func, rho)
                worst_casimir = max(worst_casimir, abs(val))
        for n in range(1, average_orders + 1):
            for m in range(1, average_orders + 1):
                a_f = structure.q_average_functional(h, float(n))
                b_f = structure.q_average_functional(h, float(m))
                worst_avg = max(worst_avg, abs(structure.poisson_bracket(a_f, b_f, rho)))
        a, b = functionals[0], functionals[1]
        ab = structure.poisson_bracket(a, b, rho)
        ba = structure.poisson_bracket(b, a, rho)
        worst_antisym = max(worst_antisym, abs(ab + ba))
    report.headline["bracket"] = {
        "max_casimir_bracket": worst_casimir,
        "max_average_bracket": worst_avg,
        "max_antisymmetry_defect": worst_antisym,
    }
    available = {
        "casimir_bracket": (worst_casimir, "<="),
        "average_bracket": (worst_avg, "<="),
        "antisymmetry": (worst_antisym, "<="),
    }
    _apply_assertions(report, cfg, available)


# ---------------------------------------------------------------------------
# outputs


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(traj: dynamics.Trajectory, path: Path) -> None:
    dim = traj.states[0].dim
    cols = ["t"]
    for j in range(dim):
        for i in range(dim):
            cols += [f"re_rho_{i}{j}", f"im_rho_{i}{j}"]
    cols += [f"C{n}" for n in range(1, 6)] + ["Hq"]
    lines = [",".join(cols)]
    log = traj.invariant_log
    for k, (t, s) in enumerate(zip(traj.times, traj.states)):
        row = [_format_float(t)]
        m = s.matrix
        for j in range(dim):
            for i in range(dim):
                row += [_format_float(m[i, j].real), _format_float(m[i, j].imag)]
        row += [_format_float(log[f"C{n}"][k]) for n in range(1, 6)]
        row.append(_format_float(log["Hq"][k]))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def write_series_csv(rows, header: list, path: Path) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_float(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def emit_outputs(report: RunReport, traj, extra_series, out_dir: Path, formats) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if "csv" in formats and traj is not None:
            p = out_dir / "trajectory.csv"
            write_trajectory_csv(traj, p)
            report.outputs.append(str(p))
            if traj.states[0].dim == 2:
                rows = [
                    (t, float(abs(s.matrix[0, 1])))
                    for t, s in zip(traj.times, traj.states)
                ]
                p2 = out_dir / "plotdata.csv"
                write_series_csv(rows, ["t", "offdiag_abs"], p2)
                report.outputs.append(str(p2))
        if "csv" in formats and extra_series:
            p = out_dir / "plotdata.csv"
            write_series_csv(extra_series["rows"], extra_series["header"], p)
            report.outputs.append(str(p))
        if "json" in formats:
            p = out_dir / "summary.json"
            p.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
            report.outputs.append(str(p))
    except OSError as exc:
        raise IoError(f"cannot write outputs under {out_dir}: {exc}")


# ---------------------------------------------------------------------------
# entry points


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    kind = _get(cfg, "kind", "")
    if kind not in KINDS:
        raise ConfigError(f"config key kind must be one of {KINDS}, got {kind!r}")
    return cfg


def run_scenario(cfg: dict, out_dir: Path | None = None) -> RunReport:
    kind = cfg["kind"]
    report = RunReport(scenario=kind, label=str(cfg.get("label", kind)), config=cfg)
    output_cfg = _object(cfg.get("output", {}), "output")
    formats = output_cfg.get("formats", ["csv", "json"])
    if not isinstance(formats, list) or not set(map(str, formats)) <= {"csv", "json"}:
        raise ConfigError(f"config key output.formats must list csv or json, got {formats!r}")
    configured = output_cfg.get("dir")
    if configured is not None and not isinstance(configured, str):
        raise ConfigError(f"config key output.dir must be a path string, got {configured!r}")
    start = time.perf_counter()
    traj = None
    extra = None
    if kind == "evolve":
        traj = _run_evolve(cfg, report)
    elif kind == "composite":
        traj = _run_composite(cfg, report)
    elif kind == "equilibrium":
        _run_equilibrium(cfg, report)
    elif kind == "ensemble":
        series, decay_series = _run_ensemble(cfg, report)
        rows = decay_series if decay_series else series
        header = ["t", "offdiag_abs"] if decay_series else ["t", "offdiag_abs", "purity"]
        extra = {"rows": rows, "header": header}
    elif kind == "bracket-check":
        _run_bracket_check(cfg, report)
    report.wall_clock_s = time.perf_counter() - start

    if out_dir is None:
        configured = os.environ.get("NVNE_OUT") or configured
        out_dir = Path(configured) if configured else None
    if out_dir is not None:
        emit_outputs(report, traj, extra, Path(out_dir), formats)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nvne",
                                     description="nonlinear von Neumann scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory (overrides NVNE_OUT)")
    p_run.add_argument("--quiet", action="store_true")
    p_check = sub.add_parser("check", help="validate a scenario config without running")
    p_check.add_argument("config")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "check":
        print(f"config ok: kind={cfg['kind']} label={cfg.get('label', cfg['kind'])}")
        return 0

    try:
        report = run_scenario(cfg, out_dir=Path(args.out) if args.out else None)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except NvneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if not args.quiet:
        print(f"scenario {report.label}: {'PASS' if report.passed else 'FAIL'} "
              f"({report.wall_clock_s:.2f}s)")
        for a in report.assertions:
            print("  " + a.line())
        for key, value in report.headline.items():
            print(f"  {key}: {value}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
