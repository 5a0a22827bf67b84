"""Every name the package exports is used by the package itself, a script
or the benchmark, so that no public helper lives on for tests alone."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nvne"

# test oracles of [G, rho] = [H, f(rho)], of the variational derivative and
# of the analytic gradients of ObservableFunctional
ORACLES = {"generator", "effective_hamiltonian", "matrix_function", "finite_difference_gradient"}


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def used_names() -> set:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    unused = sorted(exported_names() - used_names() - ORACLES)
    assert not unused, f"exported but used only by tests: {unused}"


def test_oracles_are_exported():
    assert ORACLES <= exported_names()
