"""Every import a library module binds is used in that module."""

import ast
import pathlib

import pytest

import sparselasso

MODULES = sorted(p for p in pathlib.Path(sparselasso.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_unused_import_is_found():
    assert _unused_imports("import os\nfrom typing import Optional, Sequence\nx: Sequence = os.sep\n") == ["Optional"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []
