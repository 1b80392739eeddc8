"""Every module of the package uses each name it imports.

No linter ships with the project, so this reads each module's syntax tree
with the standard library: a name bound by an import statement must be
read somewhere else in the module. `__init__.py` is left out, because its
imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import codecorpus

MODULES = sorted(p for p in Path(codecorpus.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import Any, List\n"
                          "x: List = os.sep\n") == ["Any (line 2)"]
