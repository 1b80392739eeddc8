"""The shared table layer: atomic replacement and one error per bad table.

Every reader of a workspace CSV must reject a foreign header, a row of the
wrong width and, where a column holds integers, a non-integer value with an
`InputError` that names the file and line.
"""

import pytest

from codecorpus.callgraph import CALLGRAPH_HEADER, read_callgraph_csv
from codecorpus.catalog import (
    CLASSES_HEADER, METHODS_HEADER, PACKAGES_HEADER, PROJECTS_HEADER,
    read_metadata, read_property_csv,
)
from codecorpus.errors import InputError
from codecorpus.pipeline import REPR_HEADER, read_repr_csv
from codecorpus.tables import write_table
from codecorpus.taskgen import (PREDICTIONS_HEADER, TASK_HEADER,
                                read_predictions_csv, read_task_csv)
from codecorpus.tokenstats import SIZES_HEADER, read_sizes_csv


def _read_methods(path):
    for name, header in (("projects.csv", PROJECTS_HEADER),
                         ("packages.csv", PACKAGES_HEADER),
                         ("classes.csv", CLASSES_HEADER)):
        write_table(path.parent / name, header, [])
    return read_metadata(path.parent)


# (file name, header, reader, integer columns)
READERS = [
    ("NMTK.csv", ["method_id", "value"], read_property_csv, ()),
    ("methods.csv", METHODS_HEADER, _read_methods, ("start_line", "end_line")),
    ("TKNA.csv", REPR_HEADER, read_repr_csv, ()),
    ("callgraph.csv", CALLGRAPH_HEADER, read_callgraph_csv, ("line", "col")),
    ("task.csv", TASK_HEADER, read_task_csv, ()),
    ("predictions.csv", PREDICTIONS_HEADER, read_predictions_csv, ()),
    ("sizes.csv", SIZES_HEADER, read_sizes_csv, ("subtoken_count",)),
]
IDS = [name for name, *_ in READERS]
INT_READERS = [(name, header, read, col)
               for name, header, read, cols in READERS for col in cols]


def _row(header):
    """A well-formed data row: integers where integers go."""
    return ["train" if h == "split" else "7" for h in header]


def _write(path, lines):
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


@pytest.mark.parametrize("name, header, read, _ints", READERS, ids=IDS)
def test_readers_reject_a_foreign_header(tmp_path, name, header, read, _ints):
    path = tmp_path / name
    _write(path, [",".join(["id"] + header[1:]), ",".join(_row(header))])
    with pytest.raises(InputError, match=f"{name}:1: expected header"):
        read(path)


@pytest.mark.parametrize("name, header, read, _ints", READERS, ids=IDS)
def test_readers_reject_a_short_row(tmp_path, name, header, read, _ints):
    path = tmp_path / name
    _write(path, [",".join(header), ",".join(_row(header)), "",
                  ",".join(_row(header)[:-1])])
    n = len(header)
    with pytest.raises(InputError,
                       match=f"{name}:4: expected {n} fields, got {n - 1}"):
        read(path)


@pytest.mark.parametrize("name, header, read, column", INT_READERS,
                         ids=[f"{n}-{c}" for n, _h, _r, c in INT_READERS])
def test_readers_reject_a_non_integer(tmp_path, name, header, read, column):
    path = tmp_path / name
    row = _row(header)
    row[header.index(column)] = "7x"
    _write(path, [",".join(header), ",".join(row)])
    with pytest.raises(InputError,
                       match=f"{name}:2: {column} '7x' is not an integer"):
        read(path)


def test_an_interrupted_write_leaves_the_old_table(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], [("1", "x,y")])
    before = path.read_bytes()

    def rows():
        yield ("2", "z")
        raise RuntimeError("disk on fire")

    with pytest.raises(RuntimeError, match="disk on fire"):
        write_table(path, ["a", "b"], rows())
    assert path.read_bytes() == before == b'a,b\r\n1,"x,y"\r\n'
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
