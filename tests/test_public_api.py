"""Every name the package exports is used by the package itself, a script
or the benchmark, so that no public helper lives on for tests alone."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nvne"

# test oracles of [G, rho] = [H, f(rho)], of the variational derivative, of
# the analytic gradients of ObservableFunctional and (composite_energy, from
# the partial traces of each joint state) of the composite energy log;
# free_energy is the paper's F_q = U_q - T S_q, checked against the
# energy-Casimir identity
ORACLES = {"generator", "effective_hamiltonian", "matrix_function", "finite_difference_gradient",
           "free_energy", "composite_energy"}


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def used_names() -> set:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    trees = [ast.parse(path.read_text()) for path in files]
    # a class field that shares its name with an export (the field
    # EquilibriumResult.free_energy, the function free_energy) is no caller,
    # neither where it is declared nor where it is read
    fields = {node.target for tree in trees for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, ast.AnnAssign)}
    members = {field.id for field in fields}
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node not in fields:
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr not in members:
                names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    unused = sorted(exported_names() - used_names() - ORACLES)
    assert not unused, f"exported but used only by tests: {unused}"


def test_oracles_are_exported():
    assert ORACLES <= exported_names()
