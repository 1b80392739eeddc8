"""Every stored table that `pipeline` reads goes through `Workspace.read`.

`Workspace.read` gives each problem with a stored table the command that
rewrites it, so a table reader called any other way would report a
problem without its fix. This scans `pipeline.py` and fails on any use of
a table reader outside the reader argument of a `.read(...)` call. The
one exception is `props-import`'s read of the user's own CSV, which lies
outside the workspace.
"""

import ast
from pathlib import Path

import codecorpus.pipeline

READERS = {"read_metadata", "read_repr_csv", "read_property_csv",
           "read_callgraph_csv", "read_sizes_csv"}
# (enclosing function, call) of the one read of a file outside the workspace
OUTSIDE = {("stage_props_import", "read_property_csv(source)")}


def unwrapped_reads(source: str) -> list[str]:
    tree = ast.parse(source)
    handed = {id(node) for call in ast.walk(tree)
              if isinstance(call, ast.Call)
              and isinstance(call.func, ast.Attribute)
              and call.func.attr == "read" and len(call.args) == 2
              for node in ast.walk(call.args[1])}
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and (func.name, ast.unparse(node)) in OUTSIDE:
                handed.add(id(node.func))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in READERS \
                and id(node) not in handed:
            found.append(f"{node.id} (line {node.lineno})")
    return sorted(set(found))


def test_pipeline_reads_every_stored_table_through_workspace_read():
    source = Path(codecorpus.pipeline.__file__).read_text(encoding="utf-8")
    assert unwrapped_reads(source) == []


def test_the_scan_finds_a_read_outside_workspace_read():
    assert unwrapped_reads(
        "def stage_props_import(ws, source):\n"
        "    a = read_property_csv(source)\n"
        "    b = ws.read(ws.callgraph_path, read_callgraph_csv)\n"
        "    c = ws.read(p, lambda path: read_repr_csv(path))\n"
        "    return read_sizes_csv(p)\n"
        "def stage_report(ws, source):\n"
        "    graph = read_callgraph_csv(ws.callgraph_path)\n"
        "    d = read_property_csv(source)\n"
        "    return list(map(read_metadata, [p]))\n") == [
        "read_callgraph_csv (line 7)", "read_metadata (line 9)",
        "read_property_csv (line 8)", "read_sizes_csv (line 5)"]
