"""Every script under scripts/ imports against the package, its __main__
guard keeps it from running on import, and its main() runs end to end on
tiny arguments."""
import importlib.util
import math
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_imports(path):
    load(path)


def test_scripts_run(tmp_path, monkeypatch, capsys):
    by_name = {p.stem: p for p in SCRIPTS}

    def run(name, *args):
        monkeypatch.setattr(sys, "argv", [f"{name}.py", *map(str, args)])
        return load(by_name[name]).main()

    run("precession_study", "--q", 2, "--t-final", 0.2)
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 9 and all(r.split()[0] == "2.00" for r in rows)

    csv = tmp_path / "dephasing.csv"
    run("dephasing_demo", "--samples", 3, "--t-max", 1, "--out", csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,offdiag_sin_psi_half,offdiag_tilted,offdiag_tilted_analytic"
    assert len(lines) == 4
    # at t = 0 the tilted average and its reduced lam integral both read pi/72
    t0 = [float(x) for x in lines[1].split(",")]
    assert t0[2] == pytest.approx(math.pi / 72, rel=1e-6) and t0[3] == pytest.approx(math.pi / 72)
    assert t0[1] < 1e-12

    only = ["criterion4-equilibrium", "criterion8-bracket-algebra"]
    out_dir = tmp_path / "out"
    assert run("run_acceptance_scenarios", "--config-dir", tmp_path / "configs",
               "--out-dir", out_dir, "--only", *only) == 0
    assert all((out_dir / name / "summary.json").is_file() for name in only)
