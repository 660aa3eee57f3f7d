"""The package's export lists agree with what its modules define."""

import ast
import importlib
import inspect
import pkgutil

import papc


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
