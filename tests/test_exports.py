"""The package's public names: every name a module exports exists, and the
package namespace takes only exported names from its modules."""

import ast
import importlib
import pkgutil

import pytest

import ipcs2d

MODULES = sorted(info.name for info in pkgutil.iter_modules(ipcs2d.__path__))


def package_imports():
    """(module, name) of every name ipcs2d/__init__.py imports from its
    own modules."""
    with open(ipcs2d.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module("ipcs2d." + module)
    assert hasattr(mod, "__all__")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_imports_only_exported_names():
    imports = package_imports()
    assert imports
    stale = [
        "%s.%s" % (module, name)
        for module, name in imports
        if name not in importlib.import_module("ipcs2d." + module).__all__
    ]
    assert stale == []
    for _, name in imports:
        assert hasattr(ipcs2d, name)
