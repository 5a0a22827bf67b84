#!/usr/bin/env python3
"""Drive every acceptance preset through the CLI and summarize.

Writes the preset JSON files to --config-dir, runs each scenario with
outputs under --out-dir, and prints one line per scenario. The
criterion7-dephasing preset is expected to fail its decay_ratio assertion
(the sin(psi/2) weight has no transverse signal to decay); everything
else should pass.
"""
import argparse
import sys
from pathlib import Path

from nvne.cli import load_config, run_scenario
from nvne.errors import NvneError
from nvne.presets import PRESETS, write_all

EXPECTED_RED = {"criterion7-dephasing": {"decay_ratio"}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config-dir", default="configs")
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--only", nargs="*", help="subset of preset names")
    args = parser.parse_args()

    write_all(args.config_dir)
    names = args.only or [n for n in sorted(PRESETS) if n.startswith("criterion")]
    surprises = 0
    for name in names:
        cfg_path = Path(args.config_dir) / f"{name}.json"
        try:
            cfg = load_config(str(cfg_path))
            report = run_scenario(cfg, out_dir=Path(args.out_dir) / name)
        except NvneError as exc:
            print(f"{name:32s} ERROR  {exc}")
            surprises += 1
            continue
        expected_failures = EXPECTED_RED.get(name, set())
        unexpected = [a for a in report.assertions
                      if not a.passed and a.name not in expected_failures]
        tolerated = [a for a in report.assertions
                     if not a.passed and a.name in expected_failures]
        status = "PASS" if not unexpected else "FAIL"
        note = ""
        if tolerated:
            note = " (known red: " + ", ".join(a.name for a in tolerated) + ")"
        print(f"{name:32s} {status}  {report.wall_clock_s:6.1f}s{note}")
        for a in report.assertions:
            if not a.passed:
                print(f"    {a.line()}")
        surprises += len(unexpected)
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main())
