"""Embedded scenario configs, one per acceptance check in the test suite.

`python -m nvne.presets --write DIR` dumps them as JSON files for
`nvne run`; tests/test_acceptance.py runs each in-process. The dephasing
preset keeps the literal sin(psi/2) weight; its decay_ratio assertion is
expected to fail because that weight has no transverse signal (see
tilted-lambda for the variant that actually dephases).
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

HALF_PI = 1.5707963267948966
THIRD_PI = 1.0471975511965976

PRESETS: dict[str, dict] = {
    "criterion1-isospectrality": {
        "kind": "evolve",
        "label": "criterion1-isospectrality",
        "system": {"dim": 4, "hamiltonian": {"random": {"seed": 99, "spectral_norm": 1.0}}},
        "q": 2.0,
        "state": {"random": {"seed": 300}},
        "integrator": {"dt": 1e-3, "t_final": 10.0, "record_every": 20},
        "assertions": {"eigenvalue_drift": 1e-9, "casimir_drift": 1e-8, "energy_drift": 1e-8},
    },
    "criterion2-pure-state": {
        "kind": "evolve",
        "label": "criterion2-pure-state",
        "system": {"dim": 2, "hamiltonian": {"preset": "spin-z", "mu": 1.0}},
        "q": 2.0,
        "state": {"bloch": {"lam": 1.0, "phi": HALF_PI, "psi": 0.0}},
        "integrator": {"dt": 1e-3, "t_final": 10.0, "record_every": 100},
        "measure": {"compare_linear": {"q_values": [0.5, 2.0, 3.0]}},
        "assertions": {"linear_trace_distance": 1e-7},
    },
    "criterion3-larmor": {
        "kind": "evolve",
        "label": "criterion3-larmor",
        "system": {"dim": 2, "hamiltonian": {"preset": "spin-z", "mu": 1.0}},
        "q": 2.0,
        "state": {"bloch": {"lam": 0.75, "phi": HALF_PI, "psi": 0.0}},
        "integrator": {"dt": 1e-3, "t_final": 5.0, "record_every": 1},
        "measure": {
            "larmor_grid": {
                "lams": [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95],
                "q_values": [2.0, 3.0],
            }
        },
        "assertions": {"omega_relative_error": 1e-5, "sz_drift": 1e-9},
    },
    "criterion4-equilibrium": {
        "kind": "equilibrium",
        "label": "criterion4-equilibrium",
        "thermo": {"q": 2.0, "beta": 0.5, "mu": 1.0},
        "expected_lambda": 0.75,
        "gibbs_check": {"beta": 0.5, "mu": 1.0},
        "grid": {
            "q_values": [0.5, 0.8, 1.2, 1.5, 2.0, 3.0],
            "domain_products": [0.2, 0.5, 0.8],
        },
        "assertions": {
            "lambda_error": 1e-10,
            "stationarity": 1e-8,
            "second_derivative_positive": 0.0,
            "gibbs_limit": 1e-6,
            "grid_second_derivative_positive": 0.0,
            "grid_stationarity": 1e-8,
        },
    },
    "criterion5-stability": {
        "kind": "evolve",
        "label": "criterion5-stability",
        "system": {"dim": 2, "hamiltonian": {"preset": "spin-z", "mu": 1.0}},
        "q": 2.0,
        "state": {"bloch": {"lam": 0.75, "phi": 0.1, "psi": 0.0}},
        "integrator": {"dt": 1e-3, "t_final": 100.0, "record_every": 100},
        "measure": {"stability_reference": {"bloch": {"lam": 0.75, "phi": 0.0, "psi": 0.0}}},
        "assertions": {"stability_factor": 2.0},
    },
    "criterion6-composite-closure": {
        "kind": "composite",
        "label": "criterion6-composite-closure",
        "system": {
            "dims": [2, 2],
            "h1": {"preset": "spin-z", "mu": 1.0},
            "h2": {"preset": "spin-z", "mu": 0.7},
            "q1": 1.5,
            "q2": 2.5,
        },
        "state": {"random": {"seed": 2026}},
        "integrator": {"dt": 1e-3, "t_final": 10.0, "record_every": 20},
        "assertions": {"closure": 1e-7, "casimir_drift": 1e-8, "eigenvalue_drift": 1e-9},
    },
    "criterion7-dephasing": {
        "kind": "ensemble",
        "label": "criterion7-dephasing",
        "system": {"hamiltonian": {"preset": "spin-z", "mu": 1.0}},
        "q": 3.0,
        "ensemble": {"weight": "sin-psi-half", "n_lam": 32, "n_phi": 32, "n_psi": 32},
        "times": [0.0, 1.0, 5.0, 20.0],
        "decay": {"t_late": 200.0},
        "node_check": {"count": 4, "t_final": 20.0, "dt": 2.5e-4, "crosscheck_t_final": 2.0},
        "assertions": {
            "analytic_match": 1e-5,
            "decay_ratio": 0.1,
            "node_eigenvalue_drift": 1e-9,
            "node_crosscheck": 1e-8,
        },
    },
    "criterion8-bracket-algebra": {
        "kind": "bracket-check",
        "label": "criterion8-bracket-algebra",
        "assertions": {"casimir_bracket": 1e-6, "average_bracket": 1e-6, "antisymmetry": 1e-8,
                       "hamilton_gap": 1e-5, "hamilton_ratio": 3.2},
    },
    "criterion9-convergence": {
        "kind": "evolve",
        "label": "criterion9-convergence",
        "system": {"dim": 2, "hamiltonian": {"preset": "spin-z", "mu": 1.0}},
        "q": 3.0,
        "state": {"bloch": {"lam": 0.75, "phi": THIRD_PI, "psi": 0.3}},
        "integrator": {"dt": 1e-3, "t_final": 2.0, "record_every": 100},
        "measure": {"convergence": {"dt": 4e-3, "t_final": 2.0, "reference_divisor": 10}},
        "assertions": {"convergence_ratio_min": 3.2, "convergence_ratio_max": 4.8},
    },
    "dephasing-demo-tilted": {
        "kind": "ensemble",
        "label": "dephasing-demo-tilted",
        "system": {"hamiltonian": {"preset": "spin-z", "mu": 1.0}},
        "q": 3.0,
        "ensemble": {"weight": "tilted-lambda", "n_lam": 32, "n_phi": 32, "n_psi": 32},
        "times": [0.0, 1.0, 5.0, 20.0],
        "decay": {"t_late": 50.0},
        "assertions": {"analytic_match": 1e-5},
    },
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nvne.presets")
    parser.add_argument("--write", metavar="DIR", help="write preset JSON files to DIR")
    parser.add_argument("--list", action="store_true", help="list preset names")
    args = parser.parse_args(argv)
    if args.list or not args.write:
        for name in sorted(PRESETS):
            print(name)
    if args.write:
        Path(args.write).mkdir(parents=True, exist_ok=True)
        for name in sorted(PRESETS):
            path = Path(args.write, f"{name}.json")
            path.write_text(json.dumps(PRESETS[name], indent=2, sort_keys=True) + "\n")
            print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
