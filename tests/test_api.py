"""The package's public names: ``fedproj.__all__`` matches what it exports."""

import ast
import types
from pathlib import Path

import fedproj


def test_every_public_name_resolves_once():
    assert len(fedproj.__all__) == len(set(fedproj.__all__))
    assert [n for n in fedproj.__all__ if not hasattr(fedproj, n)] == []


def test_every_exported_object_is_listed():
    exported = {n for n, v in vars(fedproj).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported <= set(fedproj.__all__)


def test_star_import_runs():
    namespace = {}
    exec("from fedproj import *", namespace)
    assert set(fedproj.__all__) <= set(namespace)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_modules_use_every_name_they_import():
    unused = []
    for path in sorted(Path(fedproj.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported_names(tree).items()
                   if name not in used]
    assert unused == []
