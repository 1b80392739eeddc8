"""No module names a prerequisite command by hand.

A message that tells the user to run a command first takes that command
from the workspace's artifact table (`pipeline.ARTIFACT_WRITERS` and
`pipeline.PROPERTY_WRITERS`), so the table stays the one owner of which
command writes what. This reads every string constant of each module,
the literal parts of its f-strings included, and fails on any that spells
a command inside "run `...`" ("re-run `...`" and "run `...` first" alike).
"""

import ast
import re
from pathlib import Path

import pytest

import codecorpus

MODULES = sorted(Path(codecorpus.__file__).parent.glob("*.py"))
HAND_WRITTEN = re.compile(r"run `[^`{}]+`")


def hand_written_hints(source: str) -> list[str]:
    found = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and HAND_WRITTEN.search(node.value)]
    return [f"{node.value!r} (line {node.lineno})"
            for node in sorted(found, key=lambda node: node.lineno)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_spells_a_prerequisite_command(path):
    assert hand_written_hints(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_a_hand_written_hint():
    assert hand_written_hints(
        'def f(path, writer):\n'
        '    a = f"missing {path}; run `{writer}` first"\n'
        '    b = f"missing {path}; run `repr` first"\n'
        '    c = f"{path} differs; re-run `{writer}`"\n'
        '    d = f"{path} differs; re-run `catalog`"\n'
        '    return "no workspace; run `catalog` first"\n') == [
        "'; run `repr` first' (line 3)",
        "' differs; re-run `catalog`' (line 5)",
        "'no workspace; run `catalog` first' (line 6)"]
