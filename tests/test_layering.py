"""The module graph of `hvlab`, read from the source with `ast` (no import of the package, no numpy).

Every name has one home, the module that defines it, and every import names that home; the package itself
serves its `_EXPORTS` too.  Each module uses every name it imports at module level, the lazy tables of
`hvlab` and `hvlab.cli` list each name under its home, and the module-level imports follow `LAYERS`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hvlab"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))  # "__init__" is the package

# the hvlab modules each module imports at module level ("hvlab" is the package itself)
LAYERS = {
    "kernels": set(),
    "options": {"hvlab"},
    "qmath": {"kernels"},
    "contextuality": {"kernels", "options"},
    "ensembles": {"kernels", "options", "qmath"},
    "hvmodels": {"kernels", "options", "qmath"},
    "nonlocality": {"kernels", "options", "qmath"},
    "simlab": {"hvmodels", "kernels", "options"},
    "cli": {"kernels", "options"},
    "__init__": set(),
    "__main__": {"options"},
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


TREES = {module: _parse(PACKAGE / f"{module}.py") for module in MODULES}


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)}
    return names


DEFINED = {module: _defined(tree) for module, tree in TREES.items()}


def _table(module: str, name: str) -> dict:
    (value,) = (node.value for node in TREES[module].body
                if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [name])
    return ast.literal_eval(value)


EXPORTS = {name for names in _table("__init__", "_EXPORTS").values() for name in names}


def _home(node: ast.ImportFrom, in_package: bool) -> str | None:
    """The hvlab module a `from ... import` reads ("__init__" for the package), or None for another package."""
    if in_package and node.level == 1:
        return node.module or "__init__"
    if node.level == 0 and node.module and node.module.split(".")[0] == "hvlab":
        return node.module.partition(".")[2] or "__init__"
    return None


def _misplaced(path: Path, in_package: bool) -> list[str]:
    """Each `from hvlab... import name` in the file that does not read `name` from its home."""
    found = []
    for node in ast.walk(_parse(path)):
        home = isinstance(node, ast.ImportFrom) and _home(node, in_package)
        if not home:
            continue
        for alias in node.names:
            served = DEFINED[home] | (set(MODULES) | EXPORTS if home == "__init__" else set())
            if alias.name not in served:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name} is not defined in hvlab.{home}")
    return found


def test_every_import_names_the_home_of_its_name():
    files = [(PACKAGE / f"{module}.py", True) for module in MODULES]
    files += [(path, False) for folder in ("tests", "demos") for path in sorted((ROOT / folder).glob("*.py"))]
    assert [line for path, in_package in files for line in _misplaced(path, in_package)] == []


def test_every_module_level_import_is_used():
    unused = []
    for module, tree in TREES.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                names = {alias.asname or alias.name.split(".")[0] for alias in node.names}
                unused += [f"hvlab.{module}: {name}" for name in sorted(names - read)]
    assert unused == []


def test_lazy_tables_list_each_name_under_its_home():
    tables = {"__init__": _table("__init__", "_EXPORTS"), "cli": _table("cli", "_LAZY_NAMES")}
    assert [
        f"hvlab.{owner}: {name} is not defined in hvlab.{module}"
        for owner, table in tables.items()
        for module, names in table.items()
        for name in names
        if name not in DEFINED[module]
    ] == []


def test_module_level_imports_follow_the_layers():
    graph = {}
    for module, tree in TREES.items():
        graph[module] = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                graph[module] |= {node.module} if node.module else {
                    alias.name if alias.name in MODULES else "hvlab" for alias in node.names
                }
    assert graph == LAYERS
