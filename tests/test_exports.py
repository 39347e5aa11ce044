"""Export hygiene: every exported name exists, and the package re-exports
only names that their home module exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import sepcodes


def test_every_all_name_resolves():
    for info in pkgutil.iter_modules(sepcodes.__path__):
        module = importlib.import_module("sepcodes." + info.name)
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_package_reexports_only_home_exports():
    tree = ast.parse(Path(sepcodes.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, node.module
        home = importlib.import_module("sepcodes." + node.module)
        stale = [a.name for a in node.names if a.name not in getattr(home, "__all__", ())]
        assert not stale, (node.module, stale)
