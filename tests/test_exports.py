"""Every exported name resolves, and the package imports only what its modules export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import unsharp_bell


def test_exports_resolve_and_cover_the_package_imports():
    for info in pkgutil.iter_modules(unsharp_bell.__path__):
        module = importlib.import_module(f"unsharp_bell.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
    imports = [node for node in ast.parse(Path(unsharp_bell.__file__).read_text()).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        home = importlib.import_module(f"unsharp_bell.{node.module}")
        unlisted = [alias.name for alias in node.names if alias.name not in home.__all__]
        assert not unlisted, (node.module, unlisted)


def module_bindings(body):
    """(name, line) of each name a module binds at its top level, imports aside."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            for child in ast.walk(node):
                if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                    yield child.id, child.lineno


def test_no_module_rebinds_a_name_it_imports():
    # a rebound import shadows the imported value for every later line of the module:
    # verify once rebound spin_povm's MARGIN_TOL to its own tolerance of the same value
    for path in sorted(Path(unsharp_bell.__file__).parent.glob("*.py")):
        body = ast.parse(path.read_text()).body
        imported = {alias.asname or alias.name.split(".")[0] for node in body
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        rebound = [(name, line) for name, line in module_bindings(body) if name in imported]
        assert not rebound, (path.name, rebound)
