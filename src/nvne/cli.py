"""Scenario-driven command line: `nvne run <config.json>` / `nvne check`.

Scenario kinds (`KINDS`): evolve, composite, equilibrium, ensemble,
bracket-check; evolve's measures are `MEASURES`. Configs are single JSON
files; complex matrix entries are [re, im] pairs. Each kind and measure
parses every key it uses into domain objects, whose own checks are the
validity rules, and returns the names it measures with a run function
that uses only those objects (equilibrium finds its q-equilibria in the
parse). Spin-z fields are told by their matrix (dynamics.spin_z_mu). A bad value, a key the kind's parse does not read (a misspelt or
unknown key, an unknown measure) or an assertion on nothing measured is
a config error naming the key (counts such as nodes and quadrature sizes
must be at least 1, and sizes must fit the record budget); `nvne check`
runs that same parse, so it exits as `nvne run` would on a config error,
and `run` reports one before integrating.
Outputs, written only under `--out`: trajectory CSV (matrix elements
column-major, then C1..C5 and the energy), a summary JSON with the full
report, and a plot-data CSV.

Exit codes: 0 success, 1 assertion failure, 2 config error, 3 numeric
domain error.
"""
from __future__ import annotations

import argparse
import json
import math
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
    TOL_HERM,
    DensityMatrix,
    bloch_state,
    pure_state,
    random_density_matrix,
    random_hermitian,
    require_hermitian,
    trace_distance,
    validate_density,
)

# ---------------------------------------------------------------------------
# config parsing


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config key {path} must be an object, got {value!r}")
    return value


class _Tracked(dict):
    """A config object that records in the set read the path of every key
    looked up with `in`, `[]`, `.get` or `.items()`; the objects it hands
    out record into the same set."""

    def __init__(self, value: dict, path: tuple, read: set):
        super().__init__(value)
        self._path, self._read = path, read

    def __contains__(self, key):
        self._read.add(self._path + (key,))
        return super().__contains__(key)

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self._read.add(self._path + (key,))
        return _Tracked(value, self._path + (key,), self._read) if isinstance(value, dict) else value

    def get(self, key, default=None):
        return self[key] if key in self else default

    def items(self):
        return [(key, self[key]) for key in self]


def _unread(node: dict, read: set, path: tuple = ()):
    """Key paths under node, depth first, that are not in read (the keys
    below an unread key are not listed)."""
    for key, value in node.items():
        if path + (key,) not in read:
            yield path + (key,)
        elif isinstance(value, dict):
            yield from _unread(value, read, path + (key,))


def _get(d: dict, key: str, path: str):
    if key not in _object(d, path.rstrip(".") or "root"):
        raise ConfigError(f"missing config key: {path}{key}")
    return d[key]


def _number(value, path: str, minimum: float | None = None, strict: bool = False) -> float:
    """A finite number, at least (strict: greater than) minimum if given."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {path} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"config key {path} must be finite, got {value!r}")
    if minimum is not None and (number <= minimum if strict else number < minimum):
        bound = "greater than" if strict else "at least"
        raise ConfigError(f"config key {path} must be {bound} {minimum:g}, got {value!r}")
    return number


def _integer(value, path: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {path} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"config key {path} must be at least {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"config key {path} must be at most {maximum}, got {value!r}")
    return value


def _numbers(values, path: str, minimum: float | None = None) -> list:
    """A nonempty list of numbers, each at least minimum if given."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"config key {path} must be a nonempty list of numbers, got {values!r}")
    return [_number(x, path, minimum) for x in values]


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), a domain object built from config values; a
    DomainError it raises becomes a ConfigError naming path."""
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        raise ConfigError(f"config key {path} is invalid: {exc}")


def _complex_array(entries, path: str, ndim: int = 2) -> np.ndarray:
    """A vector (ndim 1) or square matrix (ndim 2) of [re, im] pairs."""
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {path} is not an array of [re, im] pairs: {exc}")
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2 or len(set(arr.shape[:-1])) != 1:
        shape = "dim x 2" if ndim == 1 else "dim x dim x 2"
        raise ConfigError(f"config key {path} must be shaped {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"config key {path} must have finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def _bloch(spec, path: str) -> tuple:
    """(lam, phi, psi) of a bloch state spec."""
    return tuple(_number(_get(spec, k, f"{path}."), f"{path}.{k}") for k in ("lam", "phi", "psi"))


def parse_hamiltonian(spec, path: str, dim: int) -> np.ndarray:
    form = next((key for key in ("preset", "matrix", "random") if key in _object(spec, path)), None)
    if form == "preset":
        if spec["preset"] != "spin-z":
            raise ConfigError(f"config key {path}.preset: unknown preset {spec['preset']!r}")
        m = -_number(_get(spec, "mu", f"{path}."), f"{path}.mu") * SIGMA_Z
    elif form == "matrix":
        m = _build(f"{path}.matrix", require_hermitian,
                   _complex_array(spec["matrix"], f"{path}.matrix"), what=f"{path}.matrix")
    elif form == "random":
        sub = spec["random"]
        seed = _integer(_get(sub, "seed", f"{path}.random."), f"{path}.random.seed", 0)
        norm = sub.get("spectral_norm")
        norm = None if norm is None else _number(norm, f"{path}.random.spectral_norm")
        m = _build(f"{path}.random.spectral_norm", random_hermitian, dim, np.random.default_rng(seed), norm)
    else:
        raise ConfigError(f"config key {path} needs one of: preset, matrix, random")
    if m.shape[0] != dim:
        raise ConfigError(f"config key {path}.{form} has dim {m.shape[0]}, expected {dim}")
    return m


def parse_state(spec, path: str, dim: int) -> DensityMatrix:
    if "bloch" in _object(spec, path):
        lam, phi, psi = _bloch(spec["bloch"], f"{path}.bloch")
        # phi and psi are finite numbers here, so a rejection is about lam
        state = _build(f"{path}.bloch.lam", bloch_state, lam=lam, phi=phi, psi=psi)
    elif "matrix" in spec:
        state = _build(f"{path}.matrix", validate_density,
                       _complex_array(spec["matrix"], f"{path}.matrix"))
    elif "pure" in spec:
        state = _build(f"{path}.pure", pure_state,
                       _complex_array(spec["pure"], f"{path}.pure", ndim=1))
    elif "random" in spec:
        seed = _integer(_get(spec["random"], "seed", f"{path}.random."), f"{path}.random.seed", 0)
        state = random_density_matrix(dim, np.random.default_rng(seed))
    else:
        raise ConfigError(f"config key {path} needs one of: bloch, matrix, pure, random")
    if state.dim != dim:
        raise ConfigError(f"config key {path} has dim {state.dim}, expected {dim}")
    return state


def _power_law(value, path: str) -> PowerLaw:
    return _build(path, PowerLaw, q=_number(value, path))


def parse_deformation(cfg: dict) -> DeformationFunction:
    if "q" in cfg:
        return _power_law(cfg["q"], "q")
    spec = _get(cfg, "deformation", "")
    coeffs = _numbers(_get(spec, "coeffs", "deformation."), "deformation.coeffs")
    return _build("deformation.coeffs", CoefficientSeries, coeffs=tuple(coeffs))


def _recorded(icfg: dynamics.IntegratorConfig, dim: int, path: str) -> dynamics.IntegratorConfig:
    """icfg if its stacks recorded at dimension dim fit the budget, else a config error at path."""
    _build(path, dynamics.record_count, icfg.n_steps, icfg.record_every, dim)
    return icfg


def parse_integrator(cfg: dict) -> dynamics.IntegratorConfig:
    spec = _get(cfg, "integrator", "")
    # t_final and record_every are checked here, so a rejection is about dt
    return _build(
        "integrator.dt", dynamics.IntegratorConfig,
        dt=_number(_get(spec, "dt", "integrator."), "integrator.dt"),
        t_final=_number(_get(spec, "t_final", "integrator."), "integrator.t_final", 0.0, strict=True),
        record_every=_integer(spec.get("record_every", 1), "integrator.record_every", 1, sys.maxsize),
    )


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
        ok = {"<=": value <= threshold, ">=": value >= threshold, ">": value > threshold}[comparator]
        self.assertions.append(AssertionResult(name, float(threshold), float(value), bool(ok), comparator))


# an assertion holds when the measured value is <= its threshold, except for
COMPARATORS = {"convergence_ratio_min": ">=", "second_derivative_positive": ">",
               "grid_second_derivative_positive": ">", "hamilton_ratio": ">="}


# ---------------------------------------------------------------------------
# scenario kinds: parse(cfg) -> (measured names, run), where run() returns
# (results, trajectory, plot series): results holds each measured name's
# value at its top level and every other value in a block named for the
# measure that produced it; evolve measures: parse(spec, path, **evolve
# objects) -> (measured names, run), where run(traj, results) adds to them


def _parse_evolve(cfg: dict):
    system = _get(cfg, "system", "")
    dim = _integer(_get(system, "dim", "system."), "system.dim", 1)
    # the record budget first, so that no dim-sized matrix is built past it
    icfg = _recorded(parse_integrator(cfg), dim, "integrator")
    h = parse_hamiltonian(_get(system, "hamiltonian", "system."), "system.hamiltonian", dim)
    f = parse_deformation(cfg)
    state = parse_state(_get(cfg, "state", ""), "state", dim)
    spec = _object(cfg.get("measure", {}), "measure")
    # the Larmor rates need the mu of a spin-z field (None for any other) and a Bloch state's angles
    objects = {"dim": dim, "h": h, "f": f, "state": state, "icfg": icfg, "mu": dynamics.spin_z_mu(h),
               "angles": _bloch(cfg["state"]["bloch"], "state.bloch")[1:] if "bloch" in cfg["state"] else None}
    names = {"eigenvalue_drift", "casimir_drift", "energy_drift", "hermiticity"}
    if dim == 2:
        names.add("sz_drift")
    measures = []
    for name, parse in MEASURES.items():
        if name in spec:
            produced, measure = parse(spec[name], f"measure.{name}", **objects)
            names.update(produced)
            measures.append(measure)

    def run():
        traj = dynamics.evolve(state, h, f, icfg)
        results = dynamics.invariant_report(traj)
        results["invariants"] = {"negativity": results.pop("negativity")}
        plot = None
        if dim == 2:
            results["sz_drift"] = _sz_drift(traj)
            plot = ([(t, float(abs(m01))) for t, m01 in zip(traj.times, traj.matrices[:, 0, 1])],
                    ["t", "offdiag_abs"])
        for measure in measures:
            measure(traj, results)
        return results, traj, plot
    return names, run


def _sz_drift(traj: dynamics.Trajectory) -> float:
    """Largest change of the Bloch z component (rho_00 - rho_11) over a
    2x2 trajectory."""
    m = traj.matrices
    sz = (m[:, 0, 0] - m[:, 1, 1]).real
    return float(np.max(np.abs(sz - sz[0])))


def _require_signal(rho0: DensityMatrix, element: tuple, path: str) -> None:
    """Reject a start whose |rho_ij| is below the phase-fit floor:
    dynamics.precession_frequency reads every recorded time, t = 0 too, so
    it would fail after the run."""
    mag = float(abs(rho0.matrix[element]))
    if mag < dynamics.PHASE_FIT_FLOOR:
        raise ConfigError(f"config key {path} gives |rho_{element[0]}{element[1]}| = {mag:.3e} "
                          f"at t = 0, below the phase-fit floor {dynamics.PHASE_FIT_FLOOR:g}")


def _parse_precession(spec, path: str, dim, state, f, mu, **_):
    element = _object(spec, path).get("element", [0, 1])
    if not isinstance(element, list) or len(element) != 2:
        raise ConfigError(f"config key {path}.element must be [i, j], got {element!r}")
    element = tuple(_integer(x, f"{path}.element", 0) for x in element)
    if max(element) >= dim:
        raise ConfigError(f"config key {path}.element {list(element)} is outside dim {dim}")
    _require_signal(state, element, f"{path}.element")

    def run(traj, results):
        omega_meas = dynamics.precession_frequency(traj, element)
        results["precession"] = {"omega_measured": omega_meas}
        if mu is not None:
            # larmor_frequency is symmetric in lam <-> 1 - lam
            omega_pred = dynamics.larmor_frequency(float(state.eigenvalues.max()), f, mu)
            results["precession"]["omega_predicted"] = omega_pred
            rel = abs(omega_meas - omega_pred) / max(abs(omega_pred), 1e-12)
            results["omega_relative_error"] = max(results.get("omega_relative_error", rel), rel)
    return [] if mu is None else ["omega_relative_error"], run


def _parse_compare_linear(spec, path: str, state, h, icfg, **_):
    """End-state distance from the exact linear solution exp(-iHt) rho0
    exp(iHt), for the run's own deformation (spec true or no q_values) or
    for each of q_values."""
    laws = []
    if spec is not True and "q_values" in _object(spec, path):
        laws = [_power_law(q, f"{path}.q_values")
                for q in _numbers(spec["q_values"], f"{path}.q_values")]

    def run(traj, results):
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w * traj.times[-1])) @ v.conj().T
        linear = u @ state.matrix @ u.conj().T
        if laws:
            dists = [trace_distance(dynamics.evolve(state, h, law, icfg).matrices[-1], linear)
                     for law in laws]
            results["compare_linear"] = {f"q={law.q:g}": d for law, d in zip(laws, dists)}
            results["linear_trace_distance"] = max(dists)
        else:
            results["linear_trace_distance"] = trace_distance(traj.matrices[-1], linear)
    return ["linear_trace_distance"], run


def _parse_larmor_grid(spec, path: str, h, icfg, mu, angles, **_):
    lams = _numbers(_get(spec, "lams", f"{path}."), f"{path}.lams")
    laws = [_power_law(q, f"{path}.q_values")
            for q in _numbers(_get(spec, "q_values", f"{path}."), f"{path}.q_values")]
    if mu is None or angles is None:
        raise ConfigError(f"config key {path} needs a spin-z field and a bloch state")
    phi, psi = angles
    starts = [(lam, _build(f"{path}.lams", bloch_state, lam=lam, phi=phi, psi=psi))
              for lam in lams]
    for _, rho0 in starts:
        _require_signal(rho0, (0, 1), f"{path}.lams")

    def run(traj, results):
        # the worst case over the grid and what the run and precession measured
        worst_rel, worst_sz = results.get("omega_relative_error", 0.0), results.get("sz_drift", 0.0)
        grid_rows = []
        for f_q in laws:
            for lam, rho0 in starts:
                t_q = dynamics.evolve(rho0, h, f_q, icfg)
                omega_meas = dynamics.precession_frequency(t_q, (0, 1))
                omega_pred = dynamics.larmor_frequency(lam, f_q, mu)
                worst_rel = max(worst_rel,
                                abs(omega_meas - omega_pred) / max(abs(omega_pred), 1e-12))
                worst_sz = max(worst_sz, _sz_drift(t_q))
                grid_rows.append({"q": f_q.q, "lam": lam, "omega_measured": omega_meas,
                                  "omega_predicted": omega_pred})
        results["larmor_grid"] = {"points": grid_rows}
        results.update(omega_relative_error=worst_rel, sz_drift=worst_sz)
    return ["omega_relative_error", "sz_drift"], run


def _parse_stability_reference(spec, path: str, dim, state, **_):
    ref = parse_state(spec, path, dim)
    d0 = trace_distance(state, ref)
    if d0 < 1e-15:
        raise ConfigError(f"config key {path} equals the initial state")

    def run(traj, results):
        worst = float(np.max(trace_distance(traj.matrices, ref)))
        results["stability"] = {"initial_distance": d0, "max_distance": worst}
        results["stability_factor"] = worst / d0
    return ["stability_factor"], run


def _parse_convergence(spec, path: str, dim, state, h, f, **_):
    """End-state errors at dt and dt/2 against a dt/reference_divisor run."""
    dt = _number(_get(spec, "dt", f"{path}."), f"{path}.dt")
    t_end = _number(_get(spec, "t_final", f"{path}."), f"{path}.t_final", 0.0, strict=True)
    divisor = _integer(spec.get("reference_divisor", 10), f"{path}.reference_divisor", 1)
    # t_final is checked positive, so a rejection is about the step size
    runs = [_recorded(_build(f"{path}.dt", dynamics.IntegratorConfig, dt=step, t_final=t_end,
                             record_every=10**9), dim, path)
            for step in (dt / divisor, dt, dt / 2)]

    def run(traj, results):
        ref, coarse, fine = (dynamics.evolve(state, h, f, c).matrices[-1] for c in runs)
        err_coarse = float(np.linalg.norm(coarse - ref))
        err_fine = float(np.linalg.norm(fine - ref))
        ratio = err_coarse / max(err_fine, 1e-300)
        results["convergence"] = {"err_dt": err_coarse, "err_dt_half": err_fine}
        results.update(convergence_ratio_min=ratio, convergence_ratio_max=ratio)
    return ["convergence_ratio_min", "convergence_ratio_max"], run


MEASURES = {
    "precession": _parse_precession,
    "compare_linear": _parse_compare_linear,
    "larmor_grid": _parse_larmor_grid,
    "stability_reference": _parse_stability_reference,
    "convergence": _parse_convergence,
}


def _parse_composite(cfg: dict):
    system = _get(cfg, "system", "")
    dims = _get(system, "dims", "system.")
    if (not isinstance(dims, list)) or len(dims) != 2:
        raise ConfigError("config key system.dims must be [dim_I, dim_II]")
    d1, d2 = (_integer(x, "system.dims", 1) for x in dims)
    icfg = _recorded(parse_integrator(cfg), d1 * d2, "integrator")
    composite = _build(
        "system", composite_mod.CompositeSystem, dim_1=d1, dim_2=d2,
        h1=parse_hamiltonian(_get(system, "h1", "system."), "system.h1", d1),
        h2=parse_hamiltonian(_get(system, "h2", "system."), "system.h2", d2),
        q1=_power_law(_get(system, "q1", "system."), "system.q1").q,
        q2=_power_law(_get(system, "q2", "system."), "system.q2").q,
    )
    state = parse_state(_get(cfg, "state", ""), "state", d1 * d2)

    def run():
        traj = composite_mod.evolve_composite(state, composite, icfg)
        reductions = composite_mod.reduction_consistency(traj, composite, icfg)
        results = dynamics.invariant_report(traj)
        results["invariants"] = {k: results.pop(k) for k in ("hermiticity", "negativity")}
        results["closure"] = max(reductions.values())
        results["reductions"] = reductions
        return results, traj, None
    return {"closure", "casimir_drift", "eigenvalue_drift", "energy_drift"}, run


def _equilibrium(path: str, mu: float, q: float, beta: float, beta_path: str) -> thermo.EquilibriumResult:
    """The q-equilibrium of H = -mu sigma_z, populations (lam, 1 - lam), at (q, beta), q checked by
    its parse; a beta ThermoParams rejects is a config error at beta_path, a point past the domain at path."""
    params = _build(beta_path, thermo.ThermoParams, q=q, beta=beta)
    return _build(path, thermo.q_equilibrium, -mu * SIGMA_Z, params)


def _parse_equilibrium(cfg: dict):
    # every q-equilibrium is found here, so check reports what run would
    spec = _get(cfg, "thermo", "")
    q = _power_law(_get(spec, "q", "thermo."), "thermo.q").q
    beta = _number(_get(spec, "beta", "thermo."), "thermo.beta")
    mu = _number(_get(spec, "mu", "thermo."), "thermo.mu", 0.0, strict=True)
    result = _equilibrium("thermo", mu, q, beta, "thermo.beta")
    lam_eq = float(result.populations[0])
    # along lam, dF/dlam = g_0 - g_1 and d^2F/dlam^2 = H_00 + H_11
    results = {"stationarity": float(np.ptp(result.gradient)),
               "second_derivative_positive": float(np.sum(result.hessian)),
               "equilibrium": {"lambda_eq": lam_eq, "free_energy": result.free_energy}}
    if "expected_lambda" in cfg:
        results["lambda_error"] = abs(lam_eq - _number(cfg["expected_lambda"], "expected_lambda"))
    if "gibbs_check" in cfg:
        g = cfg["gibbs_check"]
        beta = _number(_get(g, "beta", "gibbs_check."), "gibbs_check.beta")
        mu_gibbs = _number(_get(g, "mu", "gibbs_check."), "gibbs_check.mu", 0.0, strict=True)
        # q = 1 last, so that a field past its neighbours' domain is named where q = 1 underflows
        *near, target = (_equilibrium("gibbs_check", mu_gibbs, q_near, beta, "gibbs_check.beta").populations[0]
                         for q_near in (1.0 + 1e-6, 1.0 - 1e-6, 1.0))
        results["gibbs_limit"] = float(max(abs(lam - target) for lam in near))
    if "grid" in cfg:
        g = _object(cfg["grid"], "grid")
        q_values = [_power_law(qv, "grid.q_values").q
                    for qv in _numbers(_get(g, "q_values", "grid."), "grid.q_values")]
        products = _numbers(_get(g, "domain_products", "grid."), "grid.domain_products")
        if any(abs(qv - 1.0) < thermo.Q_ONE_THRESHOLD for qv in q_values):
            raise ConfigError("config key grid.q_values must exclude 1")
        # c = |q-1| beta mu, the spin's domain product (1 + (q-1) beta E > 0 at E = -+mu for c < 1): T = |q-1| mu/c
        outside = next((c for c in products if not 0.0 < c < 1.0), None)
        if outside is not None:
            raise ConfigError(f"config key grid.domain_products must lie in (0, 1), got {outside:g}")
        points = [_equilibrium("grid", mu, qv, c / (abs(qv - 1.0) * mu),
                               "grid.domain_products" if math.isinf(mu / c) else "grid.q_values")
                  for qv in q_values for c in products]
        min_curv = min(float(np.sum(res.hessian)) for res in points)
        max_stat = max(float(np.ptp(res.gradient)) for res in points)
        results["grid"] = {"points": len(points)}
        results.update(grid_second_derivative_positive=min_curv, grid_stationarity=max_stat)
    return set(results) - {"equilibrium", "grid"}, lambda: (results, None, None)


def _parse_ensemble(cfg: dict):
    spec = _get(cfg, "ensemble", "")
    weight_name = _get(spec, "weight", "ensemble.")
    if not isinstance(weight_name, str) or weight_name not in ensemble.WEIGHTS:
        raise ConfigError(f"config key ensemble.weight: unknown weight {weight_name!r}; "
                          f"choose from {sorted(ensemble.WEIGHTS)}")
    system = _get(cfg, "system", "")
    h = parse_hamiltonian(_get(system, "hamiltonian", "system."), "system.hamiltonian", 2)
    f = parse_deformation(cfg)
    sizes = {n: _integer(spec.get(n, 32), f"ensemble.{n}", 1, ensemble.MAX_RULE_NODES)
             for n in ("n_lam", "n_phi", "n_psi")}
    espec = _build("ensemble", ensemble.EnsembleSpec,
                   weight=ensemble.WEIGHTS[weight_name], f=f, h=h, **sizes)
    if espec.mu is None:
        raise ConfigError("config key system.hamiltonian is invalid: "
                          "closed-form node evolution needs H = -mu*sigma_z")
    times = _numbers(cfg.get("times", [0.0, 1.0, 5.0, 20.0]), "times", 0.0)
    lam_density = None if weight_name == "sin-psi-half" else (lambda lam: 2.0 * lam)
    names = {"analytic_match"}
    window_times = nodes = None

    if "decay" in cfg:
        decay = _object(cfg["decay"], "decay")
        t_late = _number(_get(decay, "t_late", "decay."), "decay.t_late", 0.0)
        window_times = np.linspace(0.0, 20.0, 201)
        names.add("decay_ratio")

    if "node_check" in cfg:
        node_check = _object(cfg["node_check"], "node_check")
        count = _integer(node_check.get("count", 4), "node_check.count", 1, math.prod(sizes.values()))
        t_end = _number(node_check.get("t_final", 20.0), "node_check.t_final", 0.0, strict=True)
        dt = _number(node_check.get("dt", 1e-3), "node_check.dt")
        # the spectrum-drift probe runs the full window; the closed-form
        # cross-check reads it at a horizon where second-order phase error
        # stays inside its tolerance (error grows like dt^2 * t)
        t_cross = _number(node_check.get("crosscheck_t_final", min(2.0, t_end)),
                          "node_check.crosscheck_t_final", 0.0, strict=True)
        if t_cross > t_end:
            raise ConfigError(f"config key node_check.crosscheck_t_final must be at most "
                              f"node_check.t_final {t_end:g}, got {t_cross!r}")
        # both horizons are checked positive, so a rejection is about dt; row 1 is at t_cross
        n_cross = _build("node_check.dt", dynamics.IntegratorConfig, dt=dt, t_final=t_cross).n_steps
        icfg = _recorded(_build("node_check.dt", dynamics.IntegratorConfig, dt=dt, t_final=t_end,
                                record_every=n_cross), 2, "node_check")
        shape = tuple(sizes.values())
        idx = np.unravel_index(np.linspace(0, math.prod(shape) - 1, count).astype(int), shape)
        nodes = [tuple(float(x[i]) for (x, _), i in zip(espec.rules(), ijk)) for ijk in zip(*idx)]
        names.update({"node_eigenvalue_drift", "node_crosscheck"})

    def run():
        match_gap = 0.0
        series = []
        for t in times:
            avg = ensemble.ensemble_average(espec, t)
            analytic = ensemble.dephasing_analytic(t, f, espec.mu, n_lam=max(64, espec.n_lam),
                                                   lam_density=lam_density)
            match_gap = max(match_gap, float(np.max(np.abs(avg.matrix - analytic.matrix))))
            if window_times is None:
                series.append((t, abs(avg.matrix[0, 1]), avg.purity()))
        results = {"analytic_match": match_gap}
        plot = (series, ["t", "offdiag_abs", "purity"])
        if window_times is not None:
            offs = [abs(ensemble.ensemble_average(espec, float(t)).matrix[0, 1]) for t in window_times]
            late = abs(ensemble.ensemble_average(espec, t_late).matrix[0, 1])
            peak = float(np.max(offs))
            # a peak at round-off level is no signal whose decay could be measured
            ratio = late / peak if peak > TOL_HERM else np.inf
            results["decay"] = {"window_peak": peak, "late_value": late}
            results["decay_ratio"] = ratio
            plot = ([(float(t), off) for t, off in zip(window_times, offs)]
                    + [(float(t_late), late)], ["t", "offdiag_abs"])
        if nodes is not None:
            drift = cross = 0.0
            for lam, phi, psi in nodes:
                rho0 = bloch_state(lam=lam, phi=phi, psi=psi)
                traj = dynamics.evolve(rho0, h, f, icfg)
                drift = max(drift, dynamics.invariant_report(traj)["eigenvalue_drift"])
                closed = ensemble.evolve_node(espec, lam, phi, psi, traj.times[1])
                cross = max(cross, float(np.max(np.abs(traj.matrices[1] - closed.matrix))))
            results.update(node_eigenvalue_drift=drift, node_crosscheck=cross)
        return results, None, plot
    return names, run


def _parse_bracket_check(cfg: dict):
    """Bracket identities at 5 random 3x3 states (seed 7), each with 4 random trace
    polynomials, the Casimirs C_1..C_4 and the q-averages for q = 1..3, and _hamilton_gaps."""

    def run():
        rng = np.random.default_rng(7)
        casimirs = [structure.casimir_functional(n) for n in range(1, 5)]
        worst_casimir = worst_avg = worst_antisym = 0.0
        for _ in range(5):
            rho = random_density_matrix(3, rng)
            h = random_hermitian(3, rng)
            functionals = []
            for _ in range(4):
                b = random_hermitian(3, rng)
                functionals.append(structure.trace_polynomial_functional(rng.normal(size=3), b))
            averages = [structure.q_average_functional(h, float(n)) for n in range(1, 4)]
            for func in functionals:
                for c in casimirs:
                    worst_casimir = max(worst_casimir, abs(structure.poisson_bracket(c, func, rho)))
            for a_f in averages:
                for b_f in averages:
                    worst_avg = max(worst_avg, abs(structure.poisson_bracket(a_f, b_f, rho)))
            a, b = functionals[0], functionals[1]
            ab = structure.poisson_bracket(a, b, rho)
            ba = structure.poisson_bracket(b, a, rho)
            worst_antisym = max(worst_antisym, abs(ab + ba))
        gap, gap_half = _hamilton_gaps()
        results = {"casimir_bracket": worst_casimir, "average_bracket": worst_avg,
                   "antisymmetry": worst_antisym, "hamilton_gap": gap, "hamilton_ratio": gap / gap_half}
        return results, None, None
    return {"casimir_bracket", "average_bracket", "antisymmetry", "hamilton_gap", "hamilton_ratio"}, run


def _hamilton_gaps():
    """Worst gaps of dA/dt = {A, U_q} at t = tau = 2e-3 and tau/2 for A = Tr(rho X), at
    d = 2, 3, 4 and q = 0.5, 1.5, 2, 3 (random rho, X and H of unit norm, seed 8):
    {A, U_q} = -dU_q/ds along A's own flow rho -> e^{-isX} rho e^{isX}, one centred difference
    of U_q's eigh value at s = +-1e-5 (at 1e-4 truncation moves the gap 2e-4 relative, at 1e-6
    round-off 3e-4), and dA/dt from evolve as (A(rho_H(t)) - A(rho_-H(t)))/2t, 20 steps each way. Second order in t."""
    rng, worst, tau, ds = np.random.default_rng(8), [0.0, 0.0], 2e-3, 1e-5
    for dim, q in ((dim, q) for dim in (2, 3, 4) for q in (0.5, 1.5, 2.0, 3.0)):
        rho, h, x = random_density_matrix(dim, rng), random_hermitian(dim, rng, 1.0), random_hermitian(dim, rng, 1.0)
        a, u_q = structure.trace_polynomial_functional([1.0], x), structure.q_average_functional(h, q).evaluator
        xw, xv = np.linalg.eigh(x)
        fwd, back = ((xv * np.exp(-1j * sign * ds * xw)) @ xv.conj().T for sign in (1, -1))
        rate = (u_q(back @ rho.matrix @ fwd) - u_q(fwd @ rho.matrix @ back)) / (2 * ds)
        for k, t in enumerate((tau, tau / 2)):
            icfg = dynamics.IntegratorConfig(dt=t / 20, t_final=t, record_every=20)
            plus, minus = (a.evaluator(dynamics.evolve(rho, s * h, PowerLaw(q), icfg).matrices[-1]) for s in (1, -1))
            worst[k] = max(worst[k], abs(rate - (plus - minus) / (2 * t)))
    return worst


KINDS = {
    "evolve": _parse_evolve,
    "composite": _parse_composite,
    "equilibrium": _parse_equilibrium,
    "ensemble": _parse_ensemble,
    "bracket-check": _parse_bracket_check,
}


# ---------------------------------------------------------------------------
# outputs


def write_trajectory_csv(traj: dynamics.Trajectory, path: Path) -> None:
    count, dim = traj.matrices.shape[:2]
    logged = [f"C{n}" for n in range(1, 6)] + ["Hq"]
    cols = (["t"] + [f"{part}_rho_{i}{j}" for j in range(dim) for i in range(dim)
                     for part in ("re", "im")] + logged)
    m = traj.matrices.transpose(0, 2, 1).reshape(count, -1)  # elements column-major
    parts = np.stack([m.real, m.imag], axis=-1).reshape(count, -1)
    rows = np.column_stack([traj.times, parts, *(traj.invariant_log[c] for c in logged)])
    write_series_csv(rows, cols, path)


def write_series_csv(rows, header: list, path: Path) -> None:
    line = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [line % tuple(row.tolist()) for row in np.asarray(rows, dtype=float)]
    path.write_text("\n".join(lines) + "\n")


def _finite_json(value):
    """value with each non-finite float as the string float() reads back."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _finite_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(item) for item in value]
    return value


def emit_outputs(report: RunReport, traj, series, out_dir: Path) -> None:
    """series is a (rows, header) plot table or None."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if traj is not None:
            p = out_dir / "trajectory.csv"
            write_trajectory_csv(traj, p)
            report.outputs.append(str(p))
        if series is not None:
            p = out_dir / "plotdata.csv"
            write_series_csv(*series, p)
            report.outputs.append(str(p))
        p = out_dir / "summary.json"
        report.outputs.append(str(p))
        summary = {**vars(report), "passed": report.passed, "assertions": [vars(a) for a in report.assertions]}
        p.write_text(json.dumps(_finite_json(summary), indent=2, sort_keys=True, allow_nan=False) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write outputs under {out_dir}: {exc}")


# ---------------------------------------------------------------------------
# entry points


def _kind(cfg: dict) -> str:
    kind = _get(cfg, "kind", "")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"config key kind must be one of {tuple(KINDS)}, got {kind!r}")
    return kind


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct: json.loads would keep a
    repeated key's last value without a word."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config key {key} is repeated in one object")
        obj[key] = value
    return obj


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    try:
        cfg = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigError(f"config file {path} nests too deeply to parse")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _kind(cfg)
    return cfg


def parse_scenario(cfg: dict):
    """Every check a config gets before it runs. Returns the label, the
    kind's run function and the assertion thresholds by name. A key that
    this parse does not read is a config error."""
    read = set()
    tracked = _Tracked(cfg, (), read)
    kind = _kind(tracked)
    names, run = KINDS[kind](tracked)
    thresholds = {}
    for name, threshold in _object(tracked.get("assertions", {}), "assertions").items():
        if name not in names:
            raise ConfigError(f"config key assertions.{name}: nothing measured under that name")
        thresholds[name] = _number(threshold, f"assertions.{name}")
    label = tracked.get("label", kind)
    if not isinstance(label, str):
        raise ConfigError(f"config key label must be a string, got {label!r}")
    unread = next(_unread(cfg, read), None)
    if unread:
        raise ConfigError(f"config key {'.'.join(unread)} is not used by kind {kind}")
    return label, run, thresholds


def run_scenario(cfg: dict, out_dir: Path | None = None) -> RunReport:
    """Parse and run cfg; the outputs are written under out_dir if given."""
    label, run, thresholds = parse_scenario(cfg)
    report = RunReport(scenario=cfg["kind"], label=label, config=cfg)
    start = time.perf_counter()
    report.headline, traj, series = run()
    for name, threshold in thresholds.items():
        report.check(name, report.headline[name], threshold, COMPARATORS.get(name, "<="))
    report.wall_clock_s = time.perf_counter() - start
    if out_dir is not None:
        emit_outputs(report, traj, series, Path(out_dir))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nvne",
                                     description="nonlinear von Neumann scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory; without it nothing is written")
    p_run.add_argument("--quiet", action="store_true")
    sub.add_parser("check", help="parse a config without running it").add_argument("config")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command == "check":
            label = parse_scenario(cfg)[0]
        else:
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

    if args.command == "check":
        print(f"config ok: kind={cfg['kind']} label={label}")
        return 0
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
