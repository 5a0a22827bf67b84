#!/usr/bin/env python3
"""Side-by-side dephasing study of the two shipped ensemble weights.

The sin(psi/2) weight produces a transverse ensemble signal that is zero
at every time: the lam integrand (2*lam-1)*h(omega(lam)) is odd about
lam = 1/2 while omega(lam) = 2*mu*(f(lam)-f(1-lam))/(2*lam-1) is even,
for every power law. The tilted weight (extra factor 2*lam) breaks that
antisymmetry and shows the genuine mechanism: eigenvalue-dependent
precession rates dephase the average while every node stays isospectral.

Writes a CSV of |rho_01|(t) for both weights (32-node quadrature) plus a
well-resolved analytic curve for the tilted weight.
"""
import argparse
from pathlib import Path

import numpy as np

from nvne.deformation import PowerLaw
from nvne.ensemble import (
    EnsembleSpec,
    dephasing_analytic,
    ensemble_average,
    sin_psi_half_weight,
    tilted_weight,
)
from nvne.hermitian import SIGMA_Z


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=float, default=3.0)
    parser.add_argument("--mu", type=float, default=1.0)
    parser.add_argument("--t-max", type=float, default=60.0)
    parser.add_argument("--samples", type=int, default=241)
    parser.add_argument("--out", default="out/dephasing_demo.csv")
    args = parser.parse_args()

    f = PowerLaw(q=args.q)
    h = -args.mu * SIGMA_Z
    spec_sym = EnsembleSpec(weight=sin_psi_half_weight, f=f, h=h)
    spec_tilted = EnsembleSpec(weight=tilted_weight, f=f, h=h)

    times = np.linspace(0.0, args.t_max, args.samples)
    rows = []
    for t in times:
        off_sym = abs(ensemble_average(spec_sym, float(t)).matrix[0, 1])
        off_tilted = abs(ensemble_average(spec_tilted, float(t)).matrix[0, 1])
        analytic = dephasing_analytic(float(t), f, args.mu, n_lam=512, lam_density=lambda lam: 2 * lam)
        rows.append((t, off_sym, off_tilted, abs(analytic.matrix[0, 1])))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["t,offdiag_sin_psi_half,offdiag_tilted,offdiag_tilted_analytic"]
    for row in rows:
        lines.append(",".join(format(x, ".12g") for x in row))
    out.write_text("\n".join(lines) + "\n")

    peak = max(r[2] for r in rows)
    tail = rows[-1][2]
    print(f"q={args.q} mu={args.mu}")
    print(f"sin(psi/2) weight: max |rho01| over grid = {max(r[1] for r in rows):.3e} "
          "(no signal, round-off only)")
    print(f"tilted weight:     peak |rho01| = {peak:.4f}, "
          f"|rho01|(t={args.t_max:g}) = {tail:.4f} ({100 * tail / peak:.1f}% of peak)")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
