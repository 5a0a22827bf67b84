"""Every name the package exports is read through the package, and every
public function or method it defines is used, by the package itself, a
script or the benchmark, so that no import path or public helper lives on
for tests alone: the references tests compare against live in
tests/oracles.py."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nvne"
ORACLE_MODULE = ROOT / "tests" / "oracles.py"


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def public_functions(paths=None) -> set:
    """The public functions and methods defined in paths, the package by default."""
    return {node.name for path in paths or PACKAGE.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


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
    # a class field that shares its name with a public function (such as the
    # field EquilibriumResult.free_energy) is no caller where it is read
    members = {node.target.id for tree in trees for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.AnnAssign)}
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
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
    unused = sorted(public_functions() - used_names())
    assert not unused, f"public functions used only by tests: {unused}"


def test_oracles_live_outside_the_package():
    """A reference the package also defines is a second copy of it."""
    assert not public_functions([ORACLE_MODULE]) & public_functions()


def test_oracles_are_read_by_tests():
    """An oracle whose last test is deleted is dead code."""
    read = set()
    for path in (ROOT / "tests").glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(public_functions([ORACLE_MODULE]) - read)
    assert not unread, f"oracles no test reads: {unread}"


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
