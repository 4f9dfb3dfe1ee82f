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
