"""The package's export lists agree with what its modules define, and every
public name has a caller outside the tests."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import papc

SRC = Path(papc.__file__).parent
ROOT = SRC.parents[1]


def _package_imports() -> dict[str, set[str]]:
    # module name -> the names ``papc/__init__.py`` imports from it
    tree = ast.parse(inspect.getsource(papc))
    imports: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return imports


def test_every_export_list_names_what_its_module_defines():
    imports = _package_imports()
    checked = []
    for info in pkgutil.iter_modules(papc.__path__):
        module = importlib.import_module(f"papc.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        exec(f"from papc.{info.name} import *", {})  # a stale name raises here
        assert imports.get(info.name, set()) <= set(module.__all__), info.name
        checked.append(info.name)
    assert {"syntax", "semantics", "lts", "equivalence"} <= set(checked)


def _public_names(tree: ast.Module):
    # (shown name, looked-up name) for each public module-level function,
    # class or constant and each public method or property of a public class
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, name) for name in names if not name.startswith("_"))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((f"{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def test_every_public_name_has_a_caller_outside_the_tests():
    library = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    callers = [tree for path, tree in library.items() if path.name != "__init__.py"]
    callers += [ast.parse(path.read_text())
                for path in sorted([*ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py")])]
    loaded = set()
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    uncalled = [f"{path.stem}.{shown}" for path, tree in library.items()
                for shown, name in _public_names(tree) if name not in loaded]
    assert not uncalled, f"loaded nowhere outside the tests: {uncalled}"
