"""Every name the package exports is read through the package, and every
public function or method it defines is used, by the package itself, a
script or the benchmark, so that no import path or public helper lives on
for tests alone."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nvne"

# test oracles of [G, rho] = [H, f(rho)] and (composite_energy, from the
# partial traces of each joint state) of the composite energy log;
# free_energy is the paper's F_q = U_q - T S_q, checked against the
# energy-Casimir identity; density_from_spectrum rebuilds each state of
# dynamics._record from its spectrum one at a time
ORACLES = {"generator", "matrix_function", "free_energy", "composite_energy", "density_from_spectrum"}


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def public_functions() -> set:
    """The public functions and methods defined in the package."""
    return {node.name for path in PACKAGE.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def outside_oracles(node):
    """node and the nodes below it, leaving out the bodies of ORACLES: a name
    that only an oracle reads has no caller."""
    if isinstance(node, ast.FunctionDef) and node.name in ORACLES:
        return
    yield node
    for child in ast.iter_child_nodes(node):
        yield from outside_oracles(child)


def code_trees() -> list:
    """The syntax trees of package, script and benchmark code."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return [ast.parse(path.read_text()) for path in files]


def read_through_package() -> set:
    """Names read as nvne.<name> or imported with from nvne import."""
    names = set()
    for tree in code_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "nvne":
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "nvne" and node.level == 0:
                names.update(alias.name for alias in node.names)
    return names


def used_names() -> set:
    trees = code_trees()
    # a class field that shares its name with a public function (the field
    # EquilibriumResult.free_energy, the function free_energy) is no caller
    # where it is read
    members = {node.target.id for tree in trees for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.AnnAssign)}
    names = set()
    for tree in trees:
        for node in outside_oracles(tree):
            # only reads: a name's own assignment (a module constant) is no caller
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr not in members:
                names.add(node.attr)
    return names


def test_every_export_is_read_through_the_package():
    """A name imported from its own module needs no second path."""
    unread = sorted(exported_names() - read_through_package())
    assert not unread, f"exported but never read through nvne: {unread}"


def test_every_public_function_has_a_caller():
    """A method reached through an export, such as a class's, escapes the
    export check."""
    unused = sorted(public_functions() - used_names() - ORACLES)
    assert not unused, f"public functions used only by tests: {unused}"


def test_oracles_are_public_functions():
    assert ORACLES <= public_functions()


def test_oracles_are_read_by_tests():
    """An oracle whose last test is deleted is an export with no caller."""
    read = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert not ORACLES - read, f"oracles no test reads: {sorted(ORACLES - read)}"


def test_no_unused_imports():
    """Every name a package module imports is read in that module, so that a
    deletion leaves no import behind."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.name}: {bound}")
    assert not unused, f"imported but never read: {unused}"
