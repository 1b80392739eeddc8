"""Every module of the package uses each name it imports, and only the
table layer imports `csv`.

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


def imported_modules(source: str) -> set[str]:
    """The top-level names of the absolute imports in `source`."""
    tree = ast.parse(source)
    return {name.split(".")[0] for node in ast.walk(tree) for name in (
        [alias.name for alias in node.names] if isinstance(node, ast.Import)
        else [node.module] if isinstance(node, ast.ImportFrom)
        and not node.level else [])}


def test_only_the_table_layer_imports_csv():
    """`tables` is the one reader and writer of CSV tables."""
    package = Path(codecorpus.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py"))
            if "csv" in imported_modules(p.read_text(encoding="utf-8"))] \
        == ["tables.py"]
    assert imported_modules("import os.path, csv as c\nfrom .tables import x\n"
                            "from csv import reader\n") == {"os", "csv"}


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import Any, List\n"
                          "x: List = os.sep\n") == ["Any (line 2)"]
